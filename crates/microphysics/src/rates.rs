//! Thermonuclear reaction-rate fits.
//!
//! Rates are expressed as `N_A <σv>`-style molar rate coefficients λ(T₉)
//! (cm³ mol⁻¹ s⁻¹ for two-body, cm⁶ mol⁻² s⁻¹ for three-body), with T₉ the
//! temperature in units of 10⁹ K. The fits are simplified versions of the
//! Caughlan & Fowler (1988) expressions — they keep the Gamow-peak
//! exponentials that give the extreme temperature sensitivity the paper
//! discusses (the triple-alpha rate goes like ~T⁴⁰ near 10⁸ K) but drop
//! low-impact correction polynomials. Each gives λ and dλ/dT₉.
//!
//! The fits share their powers of T₉ and the screening factor all but
//! `z₁z₂`: a network's rate stage computes those once a `(ρ, T)`
//! ([`TFactors`]) for every [`Rate::eval`] and [`TFactors::screening`],
//! and a burner block keeps its rates while its temperatures hold.

use std::array::from_fn;

/// A reaction-rate coefficient fit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rate {
    /// Triple-alpha: 3 He⁴ → C¹², λ₃α(T₉) (cm⁶ mol⁻² s⁻¹).
    TripleAlpha,
    /// C¹² + C¹² fusion (CF88 leading term).
    C12C12,
    /// C¹² + O¹⁶ fusion.
    C12O16,
    /// O¹⁶ + O¹⁶ fusion.
    O16O16,
    /// Generic alpha capture `X(α,γ)Y` with a Gamow-barrier fit determined
    /// by the target charge `z` and mass `a`: λ = c · T₉^{-2/3} exp(-τ/T₉^{1/3}).
    AlphaCapture {
        /// Normalization constant (cm³ mol⁻¹ s⁻¹ scale).
        c: f64,
        /// Gamow barrier parameter τ.
        tau: f64,
    },
    /// Constant-rate coefficient (testing).
    Const(f64),
}

/// The Gamow barrier parameter for an α capture on a nucleus of charge `z`
/// and mass number `a`: `τ = 4.2487 (Z₁² Z₂² Â)^{1/3}` with Â the reduced
/// mass number.
pub fn gamow_tau_alpha(z: f64, a: f64) -> f64 {
    let ared = 4.0 * a / (4.0 + a);
    4.2487 * (4.0 * z * z * ared).powf(1.0 / 3.0)
}

/// Which temperature-factor families of [`TFactors`] a set of rates reads.
/// A network works this out once, when it is built, so that an evaluation
/// pays only for the `powf`s its own fits contain — the one-reaction
/// carbon network must not pay for the alpha chain's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TNeeds(u8);

impl TNeeds {
    /// `T₉^{1/3}` and `T₉^{-4/3}`: every Gamow-barrier fit and its slope.
    const CBRT: u8 = 1;
    /// `T₉^{-2/3}`: the alpha captures.
    const M23: u8 = 1 << 1;
    /// `T₉^{-3/2}`: the heavy-ion fits.
    const M32: u8 = 1 << 2;
    /// `T₉^{-3}`: triple-alpha.
    const M3: u8 = 1 << 3;
    /// The C¹²+C¹² `T₉a` family.
    const T9A: u8 = 1 << 4;

    /// The union of what `rates` read.
    pub fn of(rates: impl IntoIterator<Item = Rate>) -> Self {
        TNeeds(rates.into_iter().fold(0, |m, r| m | r.needs().0))
    }

    fn has(self, family: u8) -> bool {
        self.0 & family != 0
    }
}

/// Everything a rate evaluation needs that depends on the temperature (and,
/// for screening, the density) but not on the reaction: computed once per
/// `(ρ, T)` and shared by every reaction of the network. A family outside
/// the [`TNeeds`] it was built with is NaN, so a fit reading a factor its
/// network did not declare poisons the result instead of silently using 0.
///
/// `W` zones' factors sit side by side, lane `l` of every field belonging
/// to zone `l`; the scalar API ([`TFactors::new`], [`Rate::eval`], …) is the
/// one-lane case.
#[derive(Clone, Copy, Debug)]
pub struct TFactors<const W: usize = 1> {
    /// T₉, floored at 10⁻⁴.
    t9: [f64; W],
    t913: [f64; W],
    t9m23: [f64; W],
    t9m32: [f64; W],
    t9m43: [f64; W],
    t9m3: [f64; W],
    /// CF88's shifted temperature `T₉a = T₉ / (1 + 0.0396 T₉)` ...
    t9a: [f64; W],
    /// ... `dT₉a/dT₉` ...
    dt9a: [f64; W],
    /// ... and its powers 1/3, 5/6 and −4/3.
    t9a13: [f64; W],
    t9a56: [f64; W],
    t9am43: [f64; W],
    /// Weak-screening `√(ρζ)` and `(10³ T₉)^{-3/2}`; NaN until
    /// [`TFactors::with_screening`].
    scr_rho: [f64; W],
    scr_t: [f64; W],
}

impl TFactors {
    /// The factor families `needs` names, at temperature `t9`, with the
    /// slope factors [`Rate::eval`]'s `dλ/dT₉` reads.
    pub fn new(t9: f64, needs: TNeeds) -> Self {
        Self::lanes([t9], needs, true)
    }

    /// Add the two screening terms every reaction shares, at density `rho`
    /// (g/cc) and temperature `t` (K) for composition means `abar`, `zbar`.
    pub fn with_screening(self, rho: f64, t: f64, abar: f64, zbar: f64) -> Self {
        self.with_screening_lanes([rho], [t], abar, zbar)
    }

    /// Graboske weak-screening enhancement factor for a reaction between
    /// charges `z1`, `z2`. Capped to keep the weak-screening expression
    /// from being extrapolated far outside its validity.
    pub fn screening(&self, z1: f64, z2: f64) -> f64 {
        self.screening_lanes(z1, z2)[0]
    }
}

impl<const W: usize> TFactors<W> {
    /// [`TFactors::new`] for `W` zones at temperatures `t9`. Without
    /// `slopes` only what λ reads is computed: `T₉^{-4/3}`, `dT₉a/dT₉` and
    /// `T₉a^{-4/3}` stay NaN, and so does every `dλ/dT₉` taken from them.
    pub(crate) fn lanes(t9: [f64; W], needs: TNeeds, slopes: bool) -> Self {
        let t9 = t9.map(|t| t.max(1e-4));
        let nan = [f64::NAN; W];
        let mut f = TFactors {
            t9,
            t913: nan,
            t9m23: nan,
            t9m32: nan,
            t9m43: nan,
            t9m3: nan,
            t9a: nan,
            dt9a: nan,
            t9a13: nan,
            t9a56: nan,
            t9am43: nan,
            scr_rho: nan,
            scr_t: nan,
        };
        let pow = |x: [f64; W], e: f64| x.map(|v| v.powf(e));
        if needs.has(TNeeds::CBRT) {
            f.t913 = pow(t9, 1.0 / 3.0);
            if slopes {
                f.t9m43 = pow(t9, -4.0 / 3.0);
            }
        }
        if needs.has(TNeeds::M23) {
            f.t9m23 = pow(t9, -2.0 / 3.0);
        }
        if needs.has(TNeeds::M32) {
            f.t9m32 = pow(t9, -1.5);
        }
        if needs.has(TNeeds::M3) {
            f.t9m3 = t9.map(|t| t.powi(-3));
        }
        if needs.has(TNeeds::T9A) {
            let t9a: [f64; W] = from_fn(|l| t9[l] / (1.0 + 0.0396 * t9[l]));
            f.t9a = t9a;
            f.t9a13 = pow(t9a, 1.0 / 3.0);
            f.t9a56 = pow(t9a, 5.0 / 6.0);
            if slopes {
                f.dt9a = from_fn(|l| t9a[l] / t9[l] - 0.0396 * t9a[l] * t9a[l] / t9[l]);
                f.t9am43 = pow(t9a, -4.0 / 3.0);
            }
        }
        f
    }

    /// [`TFactors::with_screening`] for `W` zones at densities `rho` and
    /// temperatures `t` (K).
    pub(crate) fn with_screening_lanes(
        mut self,
        rho: [f64; W],
        t: [f64; W],
        abar: f64,
        zbar: f64,
    ) -> Self {
        // ζ ≈ Σ (Z² + Z) X/A ≈ (zbar² + zbar)/abar for a mean composition.
        let zeta = (zbar * zbar + zbar) / abar;
        self.scr_rho = rho.map(|r| (r * zeta).sqrt());
        self.scr_t = t.map(|t| (t / 1e9 * 1e3).powf(-1.5));
        self
    }

    /// [`TFactors::screening`] of every lane.
    pub(crate) fn screening_lanes(&self, z1: f64, z2: f64) -> [f64; W] {
        let h12: [f64; W] = from_fn(|l| 0.188 * z1 * z2 * self.scr_rho[l] * self.scr_t[l]);
        h12.map(|h| h.min(2.0).exp())
    }
}

impl Rate {
    /// The factor families this fit reads.
    fn needs(&self) -> TNeeds {
        TNeeds(match self {
            Rate::TripleAlpha => TNeeds::M3,
            Rate::C12C12 => TNeeds::T9A | TNeeds::M32,
            Rate::C12O16 | Rate::O16O16 => TNeeds::CBRT | TNeeds::M32,
            Rate::AlphaCapture { .. } => TNeeds::CBRT | TNeeds::M23,
            Rate::Const(_) => 0,
        })
    }

    /// Evaluate `(λ, dλ/dT₉)` on precomputed temperature factors.
    pub fn eval(&self, tf: &TFactors) -> (f64, f64) {
        let ([l], [dl]) = self.eval_lanes(tf);
        (l, dl)
    }

    /// λ of every lane: the one copy of the fits' values, which read no
    /// slope factor.
    pub(crate) fn lambda_lanes<const W: usize>(&self, tf: &TFactors<W>) -> [f64; W] {
        let t9 = tf.t9;
        let exp = |x: [f64; W]| x.map(f64::exp);
        match *self {
            Rate::TripleAlpha => {
                // λ ∝ T₉⁻³ exp(-4.4027/T₉): the classic helium-burning fit.
                let c = 2.79e-8;
                let e = exp(t9.map(|t| -4.4027 / t));
                from_fn(|l| c * tf.t9m3[l] * e[l])
            }
            Rate::C12C12 => {
                // CF88 leading term with the T₉a shift.
                let e = exp(tf.t9a13.map(|t| -84.165 / t));
                from_fn(|l| 4.27e26 * tf.t9a56[l] * tf.t9m32[l] * e[l])
            }
            Rate::C12O16 => {
                let e = exp(tf.t913.map(|t| -106.594 / t));
                from_fn(|l| 1.72e31 * tf.t9m32[l] * e[l])
            }
            Rate::O16O16 => {
                let e = exp(tf.t913.map(|t| -135.93 / t));
                from_fn(|l| 7.10e36 * tf.t9m32[l] * e[l])
            }
            Rate::AlphaCapture { c, tau } => {
                let e = exp(tf.t913.map(|t| -tau / t));
                from_fn(|l| c * tf.t9m23[l] * e[l])
            }
            Rate::Const(c) => [c; W],
        }
    }

    /// `(λ, dλ/dT₉)` of every lane, on factors built with slopes.
    pub(crate) fn eval_lanes<const W: usize>(&self, tf: &TFactors<W>) -> ([f64; W], [f64; W]) {
        let l = self.lambda_lanes(tf);
        let t9 = tf.t9;
        // Logarithmic slopes d ln λ / dT₉.
        let dln: [f64; W] = match *self {
            // -3 + 4.4027/T₉ ≈ 41 at T₉ = 0.1.
            Rate::TripleAlpha => from_fn(|i| -3.0 / t9[i] + 4.4027 / (t9[i] * t9[i])),
            Rate::C12C12 => from_fn(|i| {
                (5.0 / 6.0) * tf.dt9a[i] / tf.t9a[i] - 1.5 / t9[i]
                    + (84.165 / 3.0) * tf.t9am43[i] * tf.dt9a[i]
            }),
            Rate::C12O16 => from_fn(|i| -1.5 / t9[i] + (106.594 / 3.0) * tf.t9m43[i]),
            Rate::O16O16 => from_fn(|i| -1.5 / t9[i] + (135.93 / 3.0) * tf.t9m43[i]),
            Rate::AlphaCapture { tau, .. } => {
                from_fn(|i| -2.0 / (3.0 * t9[i]) + (tau / 3.0) * tf.t9m43[i])
            }
            Rate::Const(_) => return (l, [0.0; W]),
        };
        (l, from_fn(|i| l[i] * dln[i]))
    }

    /// Evaluate `(λ, dλ/dT₉)` at temperature `t9` alone.
    pub fn eval_t9(&self, t9: f64) -> (f64, f64) {
        self.eval(&TFactors::new(t9, self.needs()))
    }

    /// Logarithmic temperature sensitivity `d ln λ / d ln T` at `t9`.
    pub fn log_slope(&self, t9: f64) -> f64 {
        let (l, dl) = self.eval_t9(t9);
        dl / l * t9
    }
}

/// [`TFactors::screening`] for one reaction at density `rho` (g/cc),
/// temperature `t` (K), with composition means `abar`, `zbar`.
pub fn screening_factor(z1: f64, z2: f64, rho: f64, t: f64, abar: f64, zbar: f64) -> f64 {
    TFactors::new(t / 1e9, TNeeds::default())
        .with_screening(rho, t, abar, zbar)
        .screening(z1, z2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_alpha_t40_sensitivity() {
        // The paper: "the energy generation rate ... may have a temperature
        // dependence as sensitive as T^40". At T = 1e8 K (T₉ = 0.1):
        let slope = Rate::TripleAlpha.log_slope(0.1);
        assert!((slope - 41.0).abs() < 1.5, "slope = {slope}");
        // Sensitivity falls at higher temperature.
        assert!(Rate::TripleAlpha.log_slope(1.0) < 5.0);
    }

    #[test]
    fn rates_increase_steeply_with_t() {
        for r in [Rate::TripleAlpha, Rate::C12C12, Rate::C12O16, Rate::O16O16] {
            let (l1, _) = r.eval_t9(0.5);
            let (l2, _) = r.eval_t9(1.0);
            let (l3, _) = r.eval_t9(2.0);
            assert!(l1 < l2 && l2 < l3, "{r:?} not increasing");
            assert!(l2 / l1 > 10.0, "{r:?} not steep");
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let tau = gamow_tau_alpha(6.0, 12.0);
        for r in [
            Rate::TripleAlpha,
            Rate::C12C12,
            Rate::C12O16,
            Rate::O16O16,
            Rate::AlphaCapture { c: 1e10, tau },
        ] {
            for &t9 in &[0.1, 0.3, 1.0, 3.0] {
                let (_, d) = r.eval_t9(t9);
                let h = t9 * 1e-6;
                let (lp, _) = r.eval_t9(t9 + h);
                let (lm, _) = r.eval_t9(t9 - h);
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (d - fd).abs() <= 1e-4 * fd.abs().max(1e-300),
                    "{r:?} at T9={t9}: analytic {d} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn gamow_tau_grows_with_charge() {
        let t_c = gamow_tau_alpha(6.0, 12.0);
        let t_si = gamow_tau_alpha(14.0, 28.0);
        let t_fe = gamow_tau_alpha(26.0, 52.0);
        assert!(t_c < t_si && t_si < t_fe);
        // So heavier captures are slower at fixed T.
        let lc = Rate::AlphaCapture { c: 1.0, tau: t_c }.eval_t9(1.0).0;
        let lf = Rate::AlphaCapture { c: 1.0, tau: t_fe }.eval_t9(1.0).0;
        assert!(lc > lf * 1e3);
    }

    #[test]
    fn screening_moderate_and_bounded() {
        // WD interior conditions: enhancement > 1 but bounded by the cap.
        let f = screening_factor(6.0, 6.0, 2e7, 4e8, 13.7, 6.9);
        assert!(f >= 1.0 && f <= 2.0f64.exp() + 1e-9, "f = {f}");
        // Hot, sparse plasma: negligible screening.
        let f2 = screening_factor(6.0, 6.0, 1.0, 1e9, 13.7, 6.9);
        assert!((f2 - 1.0).abs() < 0.01);
    }

    #[test]
    fn const_rate_is_flat() {
        let (l, d) = Rate::Const(5.0).eval_t9(1.3);
        assert_eq!(l, 5.0);
        assert_eq!(d, 0.0);
    }
}
