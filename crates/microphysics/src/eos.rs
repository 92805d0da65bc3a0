//! Equations of state.
//!
//! Castro and MAESTROeX pull their EOS from the shared Microphysics
//! repository; the production choice for white-dwarf problems is the
//! Helmholtz free-energy table of Timmes & Swesty. This reproduction
//! provides:
//!
//! * [`GammaLaw`] — the ideal-gas EOS used for the Sedov benchmark;
//! * [`StellarEos`] — an analytic approximation to the stellar EOS: ideal
//!   ions + radiation + electrons interpolated between the non-degenerate
//!   ideal gas and the zero-temperature (relativistic) degenerate gas.
//!
//! The key *qualitative* property for the science problems (§V) is
//! preserved: at white-dwarf densities the pressure is dominated by the
//! T-independent degenerate term, so "this type of matter does not expand
//! much when heated ... the heat from nuclear reactions easily gets trapped".
//!
//! That T-independent term is also what the EOS pays most for (a cube root
//! and an `asinh`), so an evaluation splits into a [`DensityStage`] (μ_e and
//! the degenerate terms) and a temperature stage; the inversion `T(ρ, e)`
//! takes the density stage once per solve, and the burner once per zone
//! while the bits of μ_e hold.

use crate::constants::{A_DEG, A_RAD, B_DEG, K_B, M_U};
use crate::species::Composition;
use exastro_parallel::LANES;

/// Thermodynamic state returned by an EOS evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EosResult {
    /// Pressure, dyn/cm².
    pub p: f64,
    /// Specific internal energy, erg/g.
    pub e: f64,
    /// Specific heat at constant volume, erg/g/K.
    pub cv: f64,
    /// ∂p/∂ρ at constant T.
    pub dpdr: f64,
    /// ∂p/∂T at constant ρ.
    pub dpdt: f64,
    /// Adiabatic sound speed, cm/s.
    pub cs: f64,
    /// First adiabatic index Γ₁ = (ρ/p) c_s².
    pub gam1: f64,
}

/// The density stage of an evaluation: what depends on ρ and μ_e alone.
/// For [`StellarEos`] that is μ_e and the zero-temperature degenerate
/// electron terms, all of its `powf`/`asinh` work; an EOS without such
/// terms ([`GammaLaw`]) leaves it at its default.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DensityStage {
    /// Electron mean molecular weight μ_e = abar / zbar.
    pub mu_e: f64,
    /// Degenerate electron pressure, dyn/cm².
    pub p_deg: f64,
    /// Degenerate electron specific energy, erg/g.
    pub e_deg: f64,
    /// ∂p_deg/∂ρ.
    pub dpdr_deg: f64,
}

/// An equation of state: thermodynamics as a function of `(ρ, T,
/// composition)`, plus the inverse solve `T(ρ, e)` needed after a
/// conservative hydro update.
///
/// An evaluation is two stages, [`Eos::density_stage`] then
/// [`Eos::temperature_stage`], and [`Eos::eval_rt`] is their composition.
/// A caller that evaluates at one density many times — the inversion's
/// iterates, a burning zone's right-hand sides — takes the density stage
/// once and pays only the temperature stage after that.
pub trait Eos: Send + Sync {
    /// Evaluate at density `rho` (g/cc) and temperature `t` (K).
    fn eval_rt(&self, rho: f64, t: f64, comp: &Composition) -> EosResult;

    /// The density stage at `rho` and `comp`. It may read `comp` only
    /// through `comp.mu_e()`, so it can be kept while ρ and the bits of μ_e
    /// stay. Provided: empty, for an EOS with no density-only terms.
    #[inline]
    fn density_stage(&self, rho: f64, comp: &Composition) -> DensityStage {
        let _ = (rho, comp);
        DensityStage::default()
    }

    /// [`Eos::eval_rt`] given `d`, the density stage at the same `rho` and
    /// `comp`, bit for bit. Provided: `eval_rt` itself, ignoring `d`.
    #[inline]
    fn temperature_stage(
        &self,
        rho: f64,
        t: f64,
        comp: &Composition,
        d: &DensityStage,
    ) -> EosResult {
        let _ = d;
        self.eval_rt(rho, t, comp)
    }

    /// Solve for the temperature giving specific internal energy `e` at
    /// density `rho`, starting from `t_guess`. Newton iteration with a
    /// bisection safeguard; EOS internal energies are monotone in T.
    ///
    /// Returns the temperature together with the evaluation at exactly that
    /// temperature, so a caller that wants `p`, `c_s`, … at the solution
    /// does not evaluate the EOS again. A guess within the convergence
    /// tolerance costs one density stage and one temperature stage; every
    /// further iterate, one temperature stage.
    fn t_from_e(&self, rho: f64, e: f64, comp: &Composition, t_guess: f64) -> (f64, EosResult) {
        let ([t], [r]) = solve_t_from_e(self, [rho], [e], std::array::from_ref(comp), [t_guess], 1);
        (t, r)
    }

    /// [`Eos::t_from_e`] for the first `live` of [`LANES`] zones, bit for bit
    /// and evaluation for evaluation: their Newton iterations run in
    /// lockstep, each lane stopping on its own test. Lanes past `live`
    /// evaluate nothing. One virtual call through `dyn Eos` per chunk.
    fn t_from_e_lanes(
        &self,
        rho: [f64; LANES],
        e: [f64; LANES],
        comp: &[Composition; LANES],
        t_guess: [f64; LANES],
        live: usize,
    ) -> ([f64; LANES], [EosResult; LANES]) {
        solve_t_from_e(self, rho, e, comp, t_guess, live)
    }
}

/// The inversion behind [`Eos::t_from_e`] (one lane) and
/// [`Eos::t_from_e_lanes`], monomorphised per EOS: one density stage per
/// live lane, then Newton on the first `live` of `W` lanes, then bisection
/// for a lane 50 steps leave unconverged, every iterate a temperature stage.
fn solve_t_from_e<E: Eos + ?Sized, const W: usize>(
    eos: &E,
    rho: [f64; W],
    e: [f64; W],
    comp: &[Composition; W],
    t_guess: [f64; W],
    live: usize,
) -> ([f64; W], [EosResult; W]) {
    let d: [DensityStage; W] = std::array::from_fn(|l| {
        if l < live {
            eos.density_stage(rho[l], &comp[l])
        } else {
            DensityStage::default()
        }
    });
    let eval = |l: usize, t: f64| eos.temperature_stage(rho[l], t, &comp[l], &d[l]);
    let mut t = t_guess.map(|t| t.max(1e-30));
    let mut r = [EosResult::default(); W];
    let mut newton: [bool; W] = std::array::from_fn(|l| l < live);
    for _ in 0..50 {
        let iterating = newton;
        if iterating == [false; W] {
            break;
        }
        for l in (0..W).filter(|&l| iterating[l]) {
            let rl = eval(l, t[l]);
            let f = rl.e - e[l];
            if f.abs() <= 1e-10 * e[l].abs().max(1e-30) {
                (r[l], newton[l]) = (rl, false);
                continue;
            }
            let dt = -f / rl.cv.max(1e-30);
            let tn = t[l] + dt;
            if tn > 0.2 * t[l] && tn < 5.0 * t[l] && tn.is_finite() {
                t[l] = tn;
            } else {
                t[l] = if dt > 0.0 { t[l] * 2.0 } else { t[l] * 0.5 };
            }
            if (dt / t[l]).abs() < 1e-12 {
                (r[l], newton[l]) = (eval(l, t[l]), false);
            }
        }
    }
    // Bisection over a wide (log-space) bracket for what Newton left.
    for l in (0..W).filter(|&l| newton[l]) {
        let (mut lo, mut hi): (f64, f64) = (1e-30, 1e12);
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if eval(l, mid).e < e[l] {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi / lo < 1.0 + 1e-14 {
                break;
            }
        }
        t[l] = (lo * hi).sqrt();
        r[l] = eval(l, t[l]);
    }
    (t, r)
}

#[inline]
fn finish(p: f64, e: f64, cv: f64, dpdr: f64, dpdt: f64) -> EosResult {
    EosResult {
        p,
        e,
        cv,
        dpdr,
        dpdt,
        cs: 0.0,
        gam1: 0.0,
    }
}

/// Complete a result with the adiabatic sound speed via the identity
/// `c_s² = (∂p/∂ρ)_T + T (∂p/∂T)² / (ρ² c_v)`.
#[inline]
fn with_sound_speed(mut r: EosResult, rho: f64, t: f64) -> EosResult {
    let cs2 = (r.dpdr + r.dpdt * r.dpdt * t / (rho * rho * r.cv.max(1e-30))).max(1e-30);
    r.cs = cs2.sqrt();
    r.gam1 = rho * cs2 / r.p.max(1e-300);
    r
}

/// Ideal-gas (gamma-law) equation of state.
#[derive(Clone, Copy, Debug)]
pub struct GammaLaw {
    /// Ratio of specific heats.
    pub gamma: f64,
}

impl GammaLaw {
    /// The usual monatomic value 5/3.
    pub fn monatomic() -> Self {
        GammaLaw { gamma: 5.0 / 3.0 }
    }

    /// Specific internal energy from pressure: `e = p / ((γ-1) ρ)`.
    pub fn e_from_p(&self, rho: f64, p: f64) -> f64 {
        p / ((self.gamma - 1.0) * rho)
    }
}

impl Eos for GammaLaw {
    #[inline]
    fn eval_rt(&self, rho: f64, t: f64, comp: &Composition) -> EosResult {
        let nkt_per_mass = K_B * t / (comp.abar * M_U);
        let p = rho * nkt_per_mass;
        let e = nkt_per_mass / (self.gamma - 1.0);
        let cv = K_B / ((self.gamma - 1.0) * comp.abar * M_U);
        let dpdr = nkt_per_mass;
        let dpdt = rho * K_B / (comp.abar * M_U);
        with_sound_speed(finish(p, e, cv, dpdr, dpdt), rho, t)
    }
}

/// Analytic stellar EOS: ions (ideal) + radiation + electrons
/// (ideal/degenerate interpolation).
///
/// The electron term interpolates as `p_e = sqrt(p_deg² + p_nd²)` between
/// the zero-temperature degenerate pressure `p_deg(ρ)` (Chandrasekhar's
/// relativistic formula) and the non-degenerate ideal electron pressure
/// `p_nd(ρ, T)`. The electron thermal energy is `e_th = 1.5 (p_e - p_deg)/ρ`,
/// which recovers the ideal-gas limit when non-degenerate and is
/// exponentially... algebraically suppressed when degenerate. This is an
/// approximation (documented in DESIGN.md), not the Timmes & Swesty table,
/// but it is smooth, thermodynamically monotone, and captures the behaviour
/// the paper's science discussion relies on.
#[derive(Clone, Copy, Debug, Default)]
pub struct StellarEos;

impl Eos for StellarEos {
    fn eval_rt(&self, rho: f64, t: f64, comp: &Composition) -> EosResult {
        self.temperature_stage(rho, t, comp, &self.density_stage(rho, comp))
    }

    /// μ_e and Chandrasekhar's zero-temperature electron pressure, specific
    /// energy and `dp/dρ`.
    fn density_stage(&self, rho: f64, comp: &Composition) -> DensityStage {
        let mu_e = comp.mu_e();
        let x = (rho / (B_DEG * mu_e)).powf(1.0 / 3.0);
        let x2 = x * x;
        let s = (1.0 + x2).sqrt();
        let f = x * (2.0 * x2 - 3.0) * s + 3.0 * x.asinh();
        let g = 8.0 * x2 * x * (s - 1.0) - f;
        DensityStage {
            mu_e,
            p_deg: A_DEG * f,
            e_deg: A_DEG * g / rho.max(1e-300),
            // dp/dρ = A f'(x) x / (3ρ), f'(x) = 8x⁴/√(1+x²).
            dpdr_deg: A_DEG * (8.0 * x2 * x2 / s) * x / (3.0 * rho.max(1e-300)),
        }
    }

    fn temperature_stage(
        &self,
        rho: f64,
        t: f64,
        comp: &Composition,
        d: &DensityStage,
    ) -> EosResult {
        let DensityStage {
            mu_e,
            p_deg,
            e_deg,
            dpdr_deg,
        } = *d;
        // Ions.
        let p_ion = rho * K_B * t / (comp.abar * M_U);
        let e_ion = 1.5 * p_ion / rho;
        let cv_ion = 1.5 * K_B / (comp.abar * M_U);
        // Radiation.
        let p_rad = A_RAD * t.powi(4) / 3.0;
        let e_rad = 3.0 * p_rad / rho;
        let cv_rad = 4.0 * A_RAD * t.powi(3) / rho;
        // Electrons.
        let p_nd = rho * K_B * t / (mu_e * M_U);
        let p_e = (p_deg * p_deg + p_nd * p_nd).sqrt().max(1e-300);
        let e_e_th = 1.5 * (p_e - p_deg) / rho;
        // Derivatives of the electron term.
        let dpe_dt = p_nd * p_nd / (p_e * t.max(1e-300)); // p_nd ∝ T
        let dpnd_dr = p_nd / rho.max(1e-300);
        let dpe_dr = (p_deg * dpdr_deg + p_nd * dpnd_dr) / p_e;
        let cv_e = 1.5 * dpe_dt / rho;

        let p = p_ion + p_rad + p_e;
        let e = e_ion + e_rad + e_deg + e_e_th;
        let cv = cv_ion + cv_rad + cv_e;
        let dpdr = K_B * t / (comp.abar * M_U) + dpe_dr;
        let dpdt = rho * K_B / (comp.abar * M_U) + 4.0 * A_RAD * t.powi(3) / 3.0 + dpe_dt;
        with_sound_speed(finish(p, e, cv, dpdr, dpdt), rho, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::iso;
    use crate::species::Composition;

    fn co_comp() -> Composition {
        Composition::from_mass_fractions(&[iso::C12, iso::O16], &[0.5, 0.5])
    }

    #[test]
    fn gamma_law_ideal_gas_relations() {
        let eos = GammaLaw::monatomic();
        let comp = Composition {
            abar: 1.0,
            zbar: 1.0,
        };
        let r = eos.eval_rt(1e-3, 1e4, &comp);
        // p = ρ k T / (A m_u)
        let expect = 1e-3 * K_B * 1e4 / M_U;
        assert!((r.p / expect - 1.0).abs() < 1e-12);
        // e = 3/2 kT/m for γ=5/3
        assert!((r.e / (1.5 * K_B * 1e4 / M_U) - 1.0).abs() < 1e-12);
        // cs² = γ p / ρ
        assert!((r.cs * r.cs / (5.0 / 3.0 * r.p / 1e-3) - 1.0).abs() < 1e-10);
        assert!((r.gam1 - 5.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn gamma_law_t_from_e_inverts() {
        let eos = GammaLaw::monatomic();
        let comp = co_comp();
        let r = eos.eval_rt(1.0, 3.7e6, &comp);
        let (t, _) = eos.t_from_e(1.0, r.e, &comp, 1e5);
        assert!((t / 3.7e6 - 1.0).abs() < 1e-8, "t = {t}");
    }

    #[test]
    fn stellar_eos_nondegenerate_limit_is_ideal() {
        // Low density, high temperature: ions + electrons ideal; radiation
        // still small at 1e6 K and 1e-5 g/cc? p_rad/p_gas ~ aT³m/(3ρk) —
        // choose T=1e5, rho=1e-4: negligible degeneracy and radiation.
        let eos = StellarEos;
        let comp = co_comp();
        let (rho, t) = (1e-4, 1e5);
        let r = eos.eval_rt(rho, t, &comp);
        let n_ions = rho / (comp.abar * M_U);
        let n_e = rho * comp.zbar / (comp.abar * M_U);
        let p_ideal = (n_ions + n_e) * K_B * t;
        assert!(
            (r.p / p_ideal - 1.0).abs() < 0.05,
            "p = {}, ideal = {p_ideal}",
            r.p
        );
    }

    #[test]
    fn stellar_eos_degenerate_pressure_insensitive_to_t() {
        // White-dwarf core: ρ = 2e7 g/cc. Doubling T from 1e8 to 2e8 K
        // barely changes the pressure — the "heat gets trapped" property.
        let eos = StellarEos;
        let comp = co_comp();
        let p1 = eos.eval_rt(2e7, 1e8, &comp).p;
        let p2 = eos.eval_rt(2e7, 2e8, &comp).p;
        assert!(
            (p2 / p1 - 1.0) < 0.02,
            "degenerate pressure rose {}%",
            (p2 / p1 - 1.0) * 100.0
        );
        // ...but the energy does increase (cv > 0).
        let e1 = eos.eval_rt(2e7, 1e8, &comp).e;
        let e2 = eos.eval_rt(2e7, 2e8, &comp).e;
        assert!(e2 > e1);
    }

    #[test]
    fn stellar_eos_monotone_in_t_and_rho() {
        let eos = StellarEos;
        let comp = co_comp();
        let mut last_e = 0.0;
        for i in 0..40 {
            let t = 1e6 * 1.5f64.powi(i);
            let r = eos.eval_rt(1e6, t, &comp);
            assert!(r.e > last_e, "e not monotone at T={t}");
            assert!(r.cv > 0.0 && r.p > 0.0 && r.cs > 0.0);
            last_e = r.e;
        }
        let mut last_p = 0.0;
        for i in 0..40 {
            let rho = 1.0 * 2f64.powi(i);
            let r = eos.eval_rt(rho, 1e8, &comp);
            assert!(r.p > last_p, "p not monotone at rho={rho}");
            assert!(r.dpdr > 0.0);
            last_p = r.p;
        }
    }

    #[test]
    fn stellar_eos_t_from_e_inverts_across_regimes() {
        let eos = StellarEos;
        let comp = co_comp();
        for &(rho, t) in &[(1e-2, 1e5), (1e3, 1e7), (1e7, 5e7), (2e7, 1e9), (5e8, 4e9)] {
            let e = eos.eval_rt(rho, t, &comp).e;
            let (ti, _) = eos.t_from_e(rho, e, &comp, 1e6);
            assert!(
                (ti / t - 1.0).abs() < 1e-6,
                "rho={rho} t={t}: inverted {ti}"
            );
        }
    }

    #[test]
    fn stellar_eos_chandrasekhar_limits() {
        // Non-relativistic limit: p ∝ ρ^{5/3}; ultra-relativistic: ρ^{4/3}.
        let comp = co_comp();
        let slope = |r1: f64, r2: f64| {
            let p1 = StellarEos.density_stage(r1, &comp).p_deg;
            let p2 = StellarEos.density_stage(r2, &comp).p_deg;
            (p2 / p1).ln() / (r2 / r1).ln()
        };
        let s_nr = slope(1e2, 2e2);
        let s_ur = slope(1e10, 2e10);
        assert!((s_nr - 5.0 / 3.0).abs() < 0.02, "NR slope {s_nr}");
        assert!((s_ur - 4.0 / 3.0).abs() < 0.02, "UR slope {s_ur}");
    }

    #[test]
    fn radiation_dominates_at_extreme_t() {
        let eos = StellarEos;
        let comp = co_comp();
        let r = eos.eval_rt(1e-3, 1e9, &comp);
        let p_rad = A_RAD * 1e9f64.powi(4) / 3.0;
        assert!(
            (r.p / p_rad - 1.0).abs() < 0.01,
            "radiation should dominate"
        );
        assert!((r.gam1 - 4.0 / 3.0).abs() < 0.05);
    }
}
