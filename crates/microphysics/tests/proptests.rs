//! Property-based tests for the microphysics: EOS thermodynamic laws,
//! network conservation laws, linear-algebra correctness, and integrator
//! convergence invariants.

use exastro_microphysics::species::iso;
use exastro_microphysics::{gamow_tau_alpha, screening_factor, Rate, TFactors, TNeeds};
use exastro_microphysics::{
    mass_to_molar, molar_to_mass, BdfIntegrator, BdfOptions, Composition, DenseLu, DensityStage,
    Eos, EosResult, GammaLaw, Network, OdeSystem, Species, StellarEos,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

mod reference;

fn arb_composition() -> impl Strategy<Value = (Vec<f64>, Composition)> {
    // Random C/O/Mg-ish 2-species split on the cburn2 network.
    (0.0f64..1.0).prop_map(|xc| {
        let net = Network::cburn2();
        let x = vec![xc, 1.0 - xc];
        let comp = Composition::from_mass_fractions(net.species(), &x);
        (x, comp)
    })
}

/// A C/O/Mg or an aprox13 mixture with random mass fractions.
fn arb_mixture() -> impl Strategy<Value = Composition> {
    (
        proptest::sample::select(vec![false, true]),
        prop::collection::vec(0.001f64..1.0, 13),
    )
        .prop_map(|(aprox13, w)| {
            let species: Vec<Species> = if aprox13 {
                Network::aprox13().species().to_vec()
            } else {
                vec![iso::C12, iso::O16, iso::MG24]
            };
            let w = &w[..species.len()];
            let total: f64 = w.iter().sum();
            let x: Vec<f64> = w.iter().map(|v| v / total).collect();
            Composition::from_mass_fractions(&species, &x)
        })
}

/// An EOS whose energy zero is moved down by `shift`, so that rounding in
/// `e` is large next to `e` itself.
struct EnergyShifted<E> {
    inner: E,
    shift: f64,
}

impl<E: Eos> Eos for EnergyShifted<E> {
    fn eval_rt(&self, rho: f64, t: f64, comp: &Composition) -> EosResult {
        let mut r = self.inner.eval_rt(rho, t, comp);
        r.e -= self.shift;
        r
    }
}

fn bits(r: &EosResult) -> [u64; 7] {
    [r.p, r.e, r.cv, r.dpdr, r.dpdt, r.cs, r.gam1].map(f64::to_bits)
}

/// An EOS that counts its evaluations — `eval_rt` calls and temperature
/// stages — and, apart, its density stages.
struct Counting<E> {
    inner: E,
    evals: AtomicU64,
    densities: AtomicU64,
}

impl<E: Eos> Eos for Counting<E> {
    fn eval_rt(&self, rho: f64, t: f64, comp: &Composition) -> EosResult {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.eval_rt(rho, t, comp)
    }

    fn density_stage(&self, rho: f64, comp: &Composition) -> DensityStage {
        self.densities.fetch_add(1, Ordering::Relaxed);
        self.inner.density_stage(rho, comp)
    }

    fn temperature_stage(
        &self,
        rho: f64,
        t: f64,
        comp: &Composition,
        d: &DensityStage,
    ) -> EosResult {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.temperature_stage(rho, t, comp, d)
    }
}

impl<E> Counting<E> {
    fn new(inner: E) -> Self {
        Counting {
            inner,
            evals: Default::default(),
            densities: Default::default(),
        }
    }

    /// Evaluations since the last call.
    fn take(&self) -> u64 {
        self.evals.swap(0, Ordering::Relaxed)
    }

    /// Density stages since the last call.
    fn take_densities(&self) -> u64 {
        self.densities.swap(0, Ordering::Relaxed)
    }
}

/// An EOS whose `c_v` is reported 1e15 times too large at one density, so
/// that Newton's steps there fall below 1e-12 relative at once, whatever
/// the residual.
struct StiffAt<E> {
    inner: E,
    rho: f64,
}

impl<E: Eos> StiffAt<E> {
    fn stiffen(&self, rho: f64, mut r: EosResult) -> EosResult {
        if rho == self.rho {
            r.cv *= 1e15;
        }
        r
    }
}

impl<E: Eos> Eos for StiffAt<E> {
    fn eval_rt(&self, rho: f64, t: f64, comp: &Composition) -> EosResult {
        self.stiffen(rho, self.inner.eval_rt(rho, t, comp))
    }

    fn density_stage(&self, rho: f64, comp: &Composition) -> DensityStage {
        self.inner.density_stage(rho, comp)
    }

    fn temperature_stage(
        &self,
        rho: f64,
        t: f64,
        comp: &Composition,
        d: &DensityStage,
    ) -> EosResult {
        self.stiffen(rho, self.inner.temperature_stage(rho, t, comp, d))
    }
}

/// How an inversion in [`t_from_e_lanes_is_four_t_from_e_calls`] ends.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Exit {
    /// The seed is the answer: one evaluation.
    FirstEvaluation,
    /// A seed 35 decades cold: Newton's 50 steps run out, then bisection.
    Bisection,
    /// A seed 30 % off where `c_v` is 1e15 times too large: Newton's
    /// step-size test after one step, residual unmet.
    StepSize,
    /// A seed 30 % off: a few Newton steps to the residual test.
    Residual,
}

/// Four lanes' inversions with `eos` — lane `l` ending as `exits[l]` at
/// `rho·(1 + l)`, `t·(1 + l/2)` — against one `t_from_e` call a lane and
/// against [`reference::t_from_e_lanes`], bit for bit and evaluation for
/// evaluation, the first `live` lanes solved, each with one density stage.
fn check_lanes<E: Eos>(
    eos: E,
    rho: f64,
    t: f64,
    comp: &Composition,
    exits: [Exit; 4],
    live: usize,
) -> Result<(), TestCaseError> {
    let step = exits.iter().position(|&x| x == Exit::StepSize);
    let state = |l: usize| (rho * (1.0 + l as f64), t * (1.0 + 0.5 * l as f64));
    let stiff_rho = step.map_or(f64::NAN, |l| state(l).0);
    let eos = Counting::new(StiffAt {
        inner: eos,
        rho: stiff_rho,
    });
    let mut e = [0.0; 4];
    let mut guess = [0.0; 4];
    for (l, exit) in exits.iter().enumerate() {
        let (r, tl) = state(l);
        e[l] = eos.inner.eval_rt(r, tl, comp).e;
        guess[l] = match exit {
            Exit::FirstEvaluation => tl,
            Exit::Bisection => 1e-30,
            Exit::StepSize | Exit::Residual => tl * 1.3,
        };
    }
    let rho4 = [0, 1, 2, 3].map(|l| state(l).0);
    let (tl, rl) = eos.t_from_e_lanes(rho4, e, &[*comp; 4], guess, live);
    let lane_evals = eos.take();
    prop_assert_eq!(eos.take_densities(), live as u64);
    let (tr, rr) = reference::t_from_e_lanes(&eos, rho4, e, &[*comp; 4], guess, live);
    prop_assert_eq!(eos.take(), lane_evals);
    prop_assert!(
        tl.map(f64::to_bits) == tr.map(f64::to_bits)
            && rl.map(|r| bits(&r)) == rr.map(|r| bits(&r)),
        "lanes {:?} vs the per-iterate solver's {:?}",
        tl,
        tr
    );
    let mut scalar_evals = 0;
    for l in 0..live {
        let (ts, rs) = eos.t_from_e(rho4[l], e[l], comp, guess[l]);
        let evals = eos.take();
        prop_assert_eq!(eos.take_densities(), 1);
        scalar_evals += evals;
        prop_assert!(
            tl[l].to_bits() == ts.to_bits(),
            "lane {} ({:?}) T {:e} vs {:e}",
            l,
            exits[l],
            tl[l],
            ts
        );
        prop_assert!(bits(&rl[l]) == bits(&rs), "lane {} ({:?})", l, exits[l]);
        // Each lane ended the way it was set up to.
        let residual_met = (rs.e - e[l]).abs() <= 1e-10 * e[l].abs();
        let ended = match exits[l] {
            Exit::FirstEvaluation => evals == 1,
            Exit::Bisection => evals > 50,
            Exit::StepSize => evals == 2 && !residual_met,
            Exit::Residual => (2..50).contains(&evals) && residual_met,
        };
        prop_assert!(ended, "lane {} ({:?}): {} evaluations", l, exits[l], evals);
    }
    prop_assert!(
        lane_evals == scalar_evals,
        "{} evaluations on {} live lanes, {} one lane at a time",
        lane_evals,
        live,
        scalar_evals
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eos_pressure_monotone_in_density_and_temperature(
        log_rho in -2.0f64..8.0,
        log_t in 5.0f64..9.5,
        (x, comp) in arb_composition(),
    ) {
        let _ = x;
        let eos = StellarEos;
        let rho = 10f64.powf(log_rho);
        let t = 10f64.powf(log_t);
        let r0 = eos.eval_rt(rho, t, &comp);
        let r_rho = eos.eval_rt(rho * 1.01, t, &comp);
        let r_t = eos.eval_rt(rho, t * 1.2, &comp);
        prop_assert!(r0.p > 0.0 && r0.e > 0.0 && r0.cv > 0.0 && r0.cs > 0.0);
        prop_assert!(r_rho.p > r0.p, "p must grow with rho");
        prop_assert!(r_t.p >= r0.p * (1.0 - 1e-12), "p must not fall with T");
        prop_assert!(r_t.e > r0.e, "e must grow with T");
    }

    #[test]
    fn eos_t_from_e_roundtrips_everywhere(
        log_rho in -2.0f64..8.0,
        log_t in 5.0f64..9.5,
        (x, comp) in arb_composition(),
    ) {
        let _ = x;
        let eos = StellarEos;
        let rho = 10f64.powf(log_rho);
        let t = 10f64.powf(log_t);
        let e = eos.eval_rt(rho, t, &comp).e;
        // A warm guess leaves through Newton's residual test; a guess 35
        // decades cold exhausts Newton's 50 doublings and lands in the
        // bisection fallback. Either way the result travels with its T.
        for guess in [1e7, 1e-30] {
            let (ti, ri) = eos.t_from_e(rho, e, &comp, guess);
            prop_assert!((ti / t - 1.0).abs() < 1e-5, "rho={rho:.2e} T={t:.2e} -> {ti:.4e}");
            prop_assert_eq!(bits(&ri), bits(&eos.eval_rt(rho, ti, &comp)));
        }
        // Newton's other exit, the step-size test, needs an energy whose
        // residual cannot reach 1e-10 relative: subtract nearly all of it.
        let shifted = EnergyShifted { inner: eos, shift: e * (1.0 - 1e-9) };
        let target = shifted.eval_rt(rho, t, &comp).e * 1.001;
        let (ts, rs) = shifted.t_from_e(rho, target, &comp, 1e7);
        prop_assert!((ts / t - 1.0).abs() < 1e-5, "shifted: T={t:.2e} -> {ts:.4e}");
        prop_assert_eq!(bits(&rs), bits(&shifted.eval_rt(rho, ts, &comp)));
    }

    #[test]
    fn t_from_e_lanes_is_four_t_from_e_calls(
        log_rho in -2.0f64..8.0,
        log_t in 5.0f64..9.5,
        (x, comp) in arb_composition(),
        rotate in 0usize..4,
        live in 1usize..5,
    ) {
        // One lane of each exit, in every order, and partial chunks whose
        // lanes past `live` must not evaluate.
        let _ = x;
        let mut exits = [Exit::FirstEvaluation, Exit::Bisection, Exit::StepSize, Exit::Residual];
        exits.rotate_left(rotate);
        let (rho, t) = (10f64.powf(log_rho), 10f64.powf(log_t));
        check_lanes(GammaLaw::monatomic(), rho, t, &comp, exits, live)?;
        check_lanes(StellarEos, rho, t, &comp, exits, live)?;
    }

    #[test]
    fn the_two_stages_are_eval_rt_bit_for_bit(
        log_rho in -3.0f64..10.0,
        log_t in 4.0f64..10.0,
        comp in arb_mixture(),
    ) {
        let (rho, t) = (10f64.powf(log_rho), 10f64.powf(log_t));
        let d = StellarEos.density_stage(rho, &comp);
        prop_assert_eq!(d.mu_e.to_bits(), comp.mu_e().to_bits());
        // The stage reads the composition only through μ_e: another mixture
        // with μ_e's bits (×2 and ÷2 are exact) has the same stage.
        let same_mu_e = Composition { abar: 2.0 * comp.mu_e(), zbar: 2.0 };
        let other = StellarEos.density_stage(rho, &same_mu_e);
        prop_assert_eq!(
            [other.mu_e, other.p_deg, other.e_deg, other.dpdr_deg].map(f64::to_bits),
            [d.mu_e, d.p_deg, d.e_deg, d.dpdr_deg].map(f64::to_bits)
        );
        prop_assert_eq!(
            bits(&StellarEos.temperature_stage(rho, t, &comp, &d)),
            bits(&StellarEos.eval_rt(rho, t, &comp))
        );
        let gamma = GammaLaw::monatomic();
        let d = gamma.density_stage(rho, &comp);
        prop_assert_eq!(d, DensityStage::default());
        prop_assert_eq!(
            bits(&gamma.temperature_stage(rho, t, &comp, &d)),
            bits(&gamma.eval_rt(rho, t, &comp))
        );
    }

    #[test]
    fn t_from_e_lanes_is_the_per_iterate_solver_everywhere(
        log_rho in -3.0f64..10.0,
        log_t in 4.0f64..10.0,
        comp in arb_mixture(),
        rotate in 0usize..4,
        live in 1usize..5,
    ) {
        // `check_lanes` over the density and temperature span of the stellar
        // EOS, on C/O/Mg and aprox13 mixtures.
        let mut exits = [Exit::FirstEvaluation, Exit::Bisection, Exit::StepSize, Exit::Residual];
        exits.rotate_left(rotate);
        let (rho, t) = (10f64.powf(log_rho), 10f64.powf(log_t));
        check_lanes(GammaLaw::monatomic(), rho, t, &comp, exits, live)?;
        check_lanes(StellarEos, rho, t, &comp, exits, live)?;
    }

    #[test]
    fn gamma_law_sound_speed_identity(
        log_rho in -6.0f64..6.0,
        log_t in 2.0f64..9.0,
        gamma in 1.1f64..2.0,
        (x, comp) in arb_composition(),
    ) {
        let _ = x;
        let eos = GammaLaw { gamma };
        let rho = 10f64.powf(log_rho);
        let t = 10f64.powf(log_t);
        let r = eos.eval_rt(rho, t, &comp);
        prop_assert!((r.cs * r.cs / (gamma * r.p / rho) - 1.0).abs() < 1e-9);
        prop_assert!((r.gam1 / gamma - 1.0).abs() < 1e-9);
    }

    #[test]
    fn networks_conserve_nucleons_at_any_state(
        log_rho in 3.0f64..9.0,
        log_t in 8.0f64..9.7,
        xs in prop::collection::vec(0.01f64..1.0, 13),
    ) {
        let net = Network::aprox13();
        let rho = 10f64.powf(log_rho);
        let t = 10f64.powf(log_t);
        let total: f64 = xs.iter().sum();
        let x: Vec<f64> = xs.iter().map(|v| v / total).collect();
        let mut y = vec![0.0; 13];
        mass_to_molar(net.species(), &x, &mut y);
        let mut ydot = vec![0.0; 13];
        net.ydot(rho, t, &y, &mut ydot);
        let sum: f64 = net.species().iter().zip(&ydot).map(|(s, &d)| s.a * d).sum();
        let scale: f64 = ydot.iter().map(|d| d.abs()).sum::<f64>().max(1e-300);
        prop_assert!((sum / scale).abs() < 1e-10, "nucleon drift {sum:e}");
    }

    #[test]
    fn molar_mass_roundtrip_any_composition(xs in prop::collection::vec(0.0f64..1.0, 3)) {
        let net = Network::triple_alpha();
        let total: f64 = xs.iter().sum::<f64>().max(1e-12);
        let x: Vec<f64> = xs.iter().map(|v| v / total).collect();
        let mut y = vec![0.0; 3];
        let mut back = vec![0.0; 3];
        mass_to_molar(net.species(), &x, &mut y);
        molar_to_mass(net.species(), &y, &mut back);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn dense_lu_solves_diagonally_dominant_systems(
        n in 2usize..12,
        seed in 0u64..10_000,
    ) {
        let mut s = seed.wrapping_mul(31).wrapping_add(17);
        let mut rng = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut a = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                a[r * n + c] = rng();
            }
            a[r * n + r] += n as f64 + 1.0;
        }
        let x: Vec<f64> = (0..n).map(|i| rng() * (i as f64 + 1.0)).collect();
        let mut b: Vec<f64> = (0..n)
            .map(|r| (0..n).map(|c| a[r * n + c] * x[c]).sum())
            .collect();
        let lu = DenseLu::factor(&a, n).unwrap();
        lu.solve(&mut b);
        for i in 0..n {
            prop_assert!((b[i] - x[i]).abs() < 1e-8, "i={i}: {} vs {}", b[i], x[i]);
        }
    }

    #[test]
    fn bdf_solves_linear_decay_for_any_rate(log_k in -2.0f64..6.0) {
        struct Decay { k: f64 }
        impl OdeSystem for Decay {
            fn dim(&self) -> usize { 1 }
            fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) { d[0] = -self.k * y[0]; }
            fn jac(&self, _t: f64, _y: &[f64], j: &mut [f64]) { j[0] = -self.k; }
        }
        let k = 10f64.powf(log_k);
        let sys = Decay { k };
        let mut y = [1.0];
        let tend = (3.0 / k).min(10.0);
        let opts = BdfOptions::builder().rtol(1e-8).build().unwrap();
        let integ = BdfIntegrator::new(opts);
        integ.integrate(&sys, 0.0, tend, &mut y).unwrap();
        let exact = (-k * tend).exp();
        prop_assert!((y[0] - exact).abs() < 1e-4 * exact.max(1e-8), "k={k}: {} vs {exact}", y[0]);
    }

    #[test]
    fn eps_is_nonnegative_for_pure_fuel(
        log_rho in 4.0f64..9.0,
        log_t in 8.3f64..9.6,
    ) {
        // Burning pure fuel through exothermic forward reactions can only
        // release energy.
        let net = Network::cburn2();
        let rho = 10f64.powf(log_rho);
        let t = 10f64.powf(log_t);
        let mut y = vec![0.0; 2];
        mass_to_molar(net.species(), &[1.0, 0.0], &mut y);
        prop_assert!(net.eps(rho, t, &y) >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovered_burns_are_finite_and_conserve_species(
        log_rho in 5.0f64..7.8,
        log_t in 8.8f64..9.5,
        xc in 0.3f64..1.0,
        log_dt in -8.0f64..-5.0,
        seed in 0u64..1000,
        rungs_to_fail in 0u32..4,
        variant in 0usize..4,
    ) {
        // Whatever rung of the retry ladder ends up rescuing a zone, the
        // recovered state must be physical: finite everywhere with the
        // species mass fractions summing to one.
        use exastro_microphysics::{BdfErrorKind, BurnFaultConfig, BurnerConfig, LadderRung};
        let net = Network::cburn2();
        let eos = StellarEos;
        let rho = 10f64.powf(log_rho);
        let t0 = 10f64.powf(log_t);
        let dt = 10f64.powf(log_dt);
        let x0 = vec![xc, 1.0 - xc];
        let error = match variant {
            0 => BdfErrorKind::MaxSteps,
            1 => BdfErrorKind::StepUnderflow { t: 0.0 },
            2 => BdfErrorKind::SingularMatrix,
            _ => BdfErrorKind::NonFinite,
        };
        let burner = BurnerConfig {
            faults: Some(BurnFaultConfig {
                seed,
                rate: 1.0,
                rungs_to_fail,
                error,
            }),
            ..Default::default()
        }
        .build(&net, &eos);
        match burner.burn_zone(seed, rho, t0, &x0, dt) {
            Ok(rec) => {
                prop_assert!(rec.outcome.t.is_finite() && rec.outcome.t > 0.0);
                prop_assert!(rec.outcome.enuc.is_finite());
                let mut sum = 0.0;
                for &x in &rec.outcome.x {
                    prop_assert!(x.is_finite() && (-1e-8..=1.0 + 1e-8).contains(&x));
                    sum += x;
                }
                prop_assert!((sum - 1.0).abs() <= 1e-6, "sum X = {sum}");
                prop_assert!(rec.retries >= rungs_to_fail);
                if rungs_to_fail > 0 {
                    prop_assert!(rec.rung > LadderRung::Direct);
                }
            }
            // The highest injected rung leaves only genuine attempts; a
            // genuine failure must still be a fully structured report.
            Err(f) => {
                prop_assert_eq!(f.zone, seed);
                prop_assert!(f.attempts >= 1);
                prop_assert_eq!(f.x0.len(), 2);
                prop_assert!(f.rho.is_finite() && f.t0.is_finite());
            }
        }
    }
}

proptest! {
    // Tight-tolerance burns are expensive; fewer cases, same coverage via
    // the network index being part of the random input.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_newton_agrees_with_dense_on_every_network(
        net_idx in 0usize..4,
        log_rho in 5.0f64..7.5,
        log_t in 8.7f64..9.3,
        frac in 0.2f64..0.8,
        log_dt in -8.0f64..-6.0,
    ) {
        // The analytic sparse-Jacobian path must be a pure implementation
        // detail: over random (rho, T, X) on all four networks, dense and
        // sparse Newton burns agree in the final abundances to 1e-10 —
        // far below any physical significance, at integration tolerances
        // tight enough that the linear solver is the only moving part.
        //
        // The burner's direct rung is always sparse; its one dense
        // integrator is the offload rung, so the dense oracle is that rung
        // configured at the direct rung's tolerances and reached by
        // injecting a single failure into a ladder with no other rung.
        use exastro_microphysics::{
            BdfErrorKind, BurnFaultConfig, BurnerConfig, LadderRung, OffloadOptions,
            RetryLadder,
        };
        let net = &network(net_idx);
        let eos = StellarEos;
        let rho = 10f64.powf(log_rho);
        let t0 = 10f64.powf(log_t);
        let dt = 10f64.powf(log_dt);
        let mut x0 = vec![0.0; net.nspec()];
        x0[0] = frac;
        x0[1] = 1.0 - frac;
        let bdf = BdfOptions::builder().rtol(1e-10).atol(1e-14).build().unwrap();
        let sparse_cfg = BurnerConfig {
            bdf: bdf.clone(),
            ladder: RetryLadder::none(),
            ..Default::default()
        };
        let dense_cfg = BurnerConfig {
            ladder: RetryLadder {
                offload: Some(OffloadOptions {
                    rtol: bdf.rtol,
                    atol: bdf.atol[0],
                    max_order: bdf.max_order,
                    max_steps: bdf.max_steps,
                }),
                ..RetryLadder::none()
            },
            faults: Some(BurnFaultConfig {
                seed: 0,
                rate: 1.0,
                rungs_to_fail: 1,
                error: BdfErrorKind::MaxSteps,
            }),
            ..sparse_cfg.clone()
        };
        let burn = |cfg: &BurnerConfig, rung: LadderRung| {
            let res = cfg.build(net, &eos).burn_zone(0, rho, t0, &x0, dt);
            if let Ok(rec) = &res {
                assert_eq!(rec.rung, rung);
            }
            res.map(|rec| rec.outcome)
        };
        let dense = burn(&dense_cfg, LadderRung::Offload);
        let sparse = burn(&sparse_cfg, LadderRung::Direct);
        match (dense, sparse) {
            (Ok(d), Ok(s)) => {
                for (i, (a, b)) in d.x.iter().zip(&s.x).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-10,
                        "{} X[{i}]: dense {a:.16e} vs sparse {b:.16e}",
                        net.name()
                    );
                }
                prop_assert!(
                    ((d.t - s.t) / d.t).abs() <= 1e-9,
                    "{} T: dense {:.16e} vs sparse {:.16e}", net.name(), d.t, s.t
                );
            }
            // Both paths must at least agree on whether the state is
            // integrable at these tolerances.
            (d, s) => prop_assert!(
                d.is_err() && s.is_err(),
                "{}: one solver failed where the other succeeded", net.name()
            ),
        }
    }
}

proptest! {
    // Tight-tolerance burns on every network again: fewer cases, the
    // network index is part of the random input.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_burns_agree_with_the_scalar_ladder_on_every_network(
        net_idx in 0usize..4,
        log_rho in 5.0f64..7.5,
        log_t in 8.7f64..9.3,
        frac in 0.2f64..0.8,
        log_dt in -8.0f64..-6.0,
    ) {
        // The batched SoA path shares every physics kernel with the scalar
        // burner but runs its own step-size controller, so the lanes take a
        // different h-sequence than the scalar ladder would. Agreement is
        // therefore bounded by the integration tolerances rather than being
        // bit-exact: at rtol 1e-11 / atol 1e-15 both paths must land within
        // 1e-10 in every mass fraction.
        use exastro_microphysics::{BurnerConfig, ZoneBurn};
        let net = &network(net_idx);
        let eos = StellarEos;
        let rho = 10f64.powf(log_rho);
        let t0 = 10f64.powf(log_t);
        let dt = 10f64.powf(log_dt);
        let cfg = BurnerConfig {
            bdf: BdfOptions::builder().rtol(1e-11).atol(1e-15).build().unwrap(),
            batch_width: 4,
            ..Default::default()
        };
        // Four slightly perturbed zones so every lane carries distinct
        // state and the shared controller has real work to arbitrate.
        let mut x0 = vec![0.0; net.nspec()];
        x0[0] = frac;
        x0[1] = 1.0 - frac;
        let zones: Vec<ZoneBurn> = (0..4)
            .map(|l| ZoneBurn {
                zone: l as u64,
                rho: rho * (1.0 + 1e-3 * l as f64),
                t0: t0 * (1.0 + 1e-3 * l as f64),
                x0: &x0,
            })
            .collect();
        // `burn_zone` never batches: it is the scalar-ladder reference.
        let burner = cfg.build(net, &eos);
        let batched = burner.burn_all(&zones, dt);
        for (zb, res) in zones.iter().zip(batched) {
            let sref = burner.burn_zone(zb.zone, zb.rho, zb.t0, zb.x0, dt);
            match (res, sref) {
                (Ok(b), Ok(s)) => {
                    for (i, (a, c)) in b.outcome.x.iter().zip(&s.outcome.x).enumerate() {
                        prop_assert!(
                            (a - c).abs() <= 1e-10,
                            "{} zone {} X[{i}]: batch {a:.16e} vs scalar {c:.16e}",
                            net.name(), zb.zone
                        );
                    }
                    prop_assert!(
                        ((b.outcome.t - s.outcome.t) / s.outcome.t).abs() <= 1e-9,
                        "{} zone {} T: batch {:.16e} vs scalar {:.16e}",
                        net.name(), zb.zone, b.outcome.t, s.outcome.t
                    );
                }
                // Both paths must agree on whether the zone is burnable.
                (b, s) => prop_assert!(
                    b.is_err() && s.is_err(),
                    "{} zone {}: batch and scalar disagree on failure",
                    net.name(), zb.zone
                ),
            }
        }
    }

    #[test]
    fn starved_batches_fall_back_bit_identical_to_the_ladder(
        net_idx in 0usize..2,
        log_rho in 5.0f64..7.2,
        log_t in 8.8f64..9.3,
        frac in 0.2f64..0.8,
        starve in 0.0f64..1.0,
    ) {
        // Starve the integrator so every lane drops out of the batch. The
        // dropouts are re-burned from their entry state through the exact
        // scalar retry ladder, so — success or structured failure — the
        // result must be bit-identical to never having batched at all,
        // modulo the one extra attempt the batch itself consumed.
        use exastro_microphysics::{BurnerConfig, ZoneBurn};
        let net = &[Network::cburn2(), Network::triple_alpha()][net_idx];
        let eos = StellarEos;
        let rho = 10f64.powf(log_rho);
        let t0 = 10f64.powf(log_t);
        let dt = 1e-6;
        let mut cfg = BurnerConfig {
            batch_width: 4,
            ..Default::default()
        };
        let mut x0 = vec![0.0; net.nspec()];
        x0[0] = frac;
        x0[1] = 1.0 - frac;
        let zones: Vec<ZoneBurn> = (0..4)
            .map(|l| ZoneBurn {
                zone: l as u64,
                rho: rho * (1.0 + 1e-2 * l as f64),
                t0: t0 * (1.0 + 1e-2 * l as f64),
                x0: &x0,
            })
            .collect();
        // A probe burn on the full budget counts the batch's step attempts
        // (a lane that finished inside the batch took every one of them).
        // The batch completes only if its budget admits the attempt before
        // its last, so a budget below `attempts - 1` starves it whatever
        // the step-size controller does.
        let attempts = cfg
            .build(net, &eos)
            .burn_all(&zones, dt)
            .iter()
            .filter_map(|r| r.as_ref().ok().filter(|r| r.retries == 0))
            .map(|r| r.outcome.stats.steps + r.outcome.stats.rejected)
            .max();
        let attempts = attempts.expect("a lane finishes inside the probe's batch") as usize;
        prop_assert!(attempts >= 2, "one step covers dt: nothing to starve");
        cfg.bdf.max_steps = (starve * (attempts - 1) as f64) as usize;
        // `burn_zone` never batches: it is the scalar-ladder reference.
        let burner = cfg.build(net, &eos);
        let batched = burner.burn_all(&zones, dt);
        for (zb, res) in zones.iter().zip(batched) {
            let sref = burner.burn_zone(zb.zone, zb.rho, zb.t0, zb.x0, dt);
            match (res, sref) {
                (Ok(b), Ok(s)) => {
                    prop_assert_eq!(b.outcome.t.to_bits(), s.outcome.t.to_bits());
                    for (a, c) in b.outcome.x.iter().zip(&s.outcome.x) {
                        prop_assert_eq!(a.to_bits(), c.to_bits());
                    }
                    prop_assert_eq!(b.rung, s.rung);
                    prop_assert_eq!(b.retries, s.retries + 1);
                }
                (Err(b), Err(s)) => {
                    prop_assert_eq!(&b.error, &s.error);
                    prop_assert_eq!(b.attempts, s.attempts + 1);
                    prop_assert_eq!(b.t0.to_bits(), s.t0.to_bits());
                }
                _ => prop_assert!(false, "{} zone {}: batch and scalar disagree on failure",
                    net.name(), zb.zone),
            }
        }
    }
}

use exastro_microphysics::{BurnFailure, RecoveredBurn};

/// Everything about a zone's result that must not depend on which
/// participant burned its chunk: every field but the wall-clock `solve_ns`.
fn burn_bits(res: &Result<RecoveredBurn, Box<BurnFailure>>) -> (Vec<u64>, String) {
    use exastro_microphysics::BdfStats;
    let counts = |s: &BdfStats| BdfStats { solve_ns: 0, ..*s };
    match res {
        Ok(r) => {
            let o = &r.outcome;
            let mut bits: Vec<u64> = o.x.iter().map(|v| v.to_bits()).collect();
            bits.extend([o.t.to_bits(), o.enuc.to_bits()]);
            let rest = format!("ok {:?} {} {:?}", r.rung, r.retries, counts(&o.stats));
            (bits, rest)
        }
        Err(f) => {
            let mut bits: Vec<u64> = f.x0.iter().map(|v| v.to_bits()).collect();
            bits.extend([f.zone, f.rho.to_bits(), f.t0.to_bits()]);
            let rest = format!(
                "err {:?} {} {:?} {:?}",
                f.rung_reached,
                f.attempts,
                f.error,
                counts(&f.stats)
            );
            (bits, rest)
        }
    }
}

proptest! {
    // Each case burns three sweeps of up to 40 zones; ci/tier1.sh runs
    // this block in release as well.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_sweep_equals_nested_inline_sweep_bitwise(
        net_idx in 0usize..3,
        nzones in 9usize..41,
        hot_every in 2usize..6,
        width in prop::sample::select(vec![1usize, 4, 8]),
        starve in 0usize..3,
        fault_rate in prop::sample::select(vec![0.0f64, 0.3]),
        log_dt in -9.0f64..-7.5,
    ) {
        // A sweep called at the top level may be drained by the worker
        // team; the same sweep called from inside a pool task cannot be
        // (nested regions run inline on their caller). Which zones share a
        // chunk is fixed by the temperature sort, so both must return the
        // same bits, counts, rungs and failures, in input order — over hot
        // and cold zones, short last chunks, a starved batch whose lanes
        // all drop out to the ladder, and injected faults.
        use exastro_microphysics::{
            BdfErrorKind, BurnFaultConfig, BurnerConfig, RetryLadder, ZoneBurn,
        };
        let net = &[Network::cburn2(), Network::iso7(), Network::aprox13()][net_idx];
        let eos = StellarEos;
        let mut cfg = BurnerConfig {
            batch_width: width,
            faults: (fault_rate > 0.0).then_some(BurnFaultConfig {
                seed: nzones as u64,
                rate: fault_rate,
                rungs_to_fail: 1,
                error: BdfErrorKind::MaxSteps,
            }),
            ..Default::default()
        };
        // 1: every lane drops out and the ladder rescues it; 2: no ladder
        // either, so the zones that need more than three steps fail.
        if starve > 0 {
            cfg.bdf.max_steps = 3;
        }
        if starve == 2 {
            cfg.ladder = RetryLadder::none();
        }
        let spread = |i: usize| (i as f64 * 0.37).sin() * 0.02;
        let x0s: Vec<Vec<f64>> = (0..nzones)
            .map(|i| {
                let mut x0 = vec![0.0; net.nspec()];
                x0[0] = 0.5 + spread(i);
                x0[1] = 0.5 - spread(i);
                x0
            })
            .collect();
        let zones: Vec<ZoneBurn> = x0s
            .iter()
            .enumerate()
            .map(|(i, x0)| {
                let f = spread(i);
                ZoneBurn {
                    zone: i as u64,
                    rho: 5e7 * (1.0 + f),
                    t0: if i % hot_every == 0 { 2.8e9 } else { 4e8 } * (1.0 - f),
                    x0,
                }
            })
            .collect();
        let dt = 10f64.powf(log_dt);
        let burner = cfg.build(net, &eos);
        let top: Vec<_> = burner.burn_all(&zones, dt).iter().map(burn_bits).collect();
        let nested = std::sync::Mutex::new(Vec::new());
        exastro_parallel::par_index_each(2, usize::MAX, |_| {
            let sweep: Vec<_> = burner.burn_all(&zones, dt).iter().map(burn_bits).collect();
            nested.lock().unwrap().push(sweep);
        });
        let nested = nested.into_inner().unwrap();
        prop_assert_eq!(nested.len(), 2);
        for sweep in &nested {
            prop_assert!(sweep == &top, "{} width {width}: nested != pooled", net.name());
        }
    }
}

/// The rate fits as they were written before the temperature factors were
/// hoisted: every `powf` taken inside the arm that uses it. Kept only here,
/// as the reference the hoisted [`Rate::eval`] must reproduce bit for bit.
fn reference_rate(rate: Rate, t9: f64) -> (f64, f64) {
    let t9 = t9.max(1e-4);
    match rate {
        Rate::TripleAlpha => {
            let c = 2.79e-8;
            let l = c * t9.powi(-3) * (-4.4027 / t9).exp();
            let dln = -3.0 / t9 + 4.4027 / (t9 * t9);
            (l, l * dln)
        }
        Rate::C12C12 => {
            let t9a = t9 / (1.0 + 0.0396 * t9);
            let dt9a = t9a / t9 - 0.0396 * t9a * t9a / t9;
            let ex = -84.165 / t9a.powf(1.0 / 3.0);
            let l = 4.27e26 * t9a.powf(5.0 / 6.0) * t9.powf(-1.5) * ex.exp();
            let dln =
                (5.0 / 6.0) * dt9a / t9a - 1.5 / t9 + (84.165 / 3.0) * t9a.powf(-4.0 / 3.0) * dt9a;
            (l, l * dln)
        }
        Rate::C12O16 => {
            let ex = -106.594 / t9.powf(1.0 / 3.0);
            let l = 1.72e31 * t9.powf(-1.5) * ex.exp();
            let dln = -1.5 / t9 + (106.594 / 3.0) * t9.powf(-4.0 / 3.0);
            (l, l * dln)
        }
        Rate::O16O16 => {
            let ex = -135.93 / t9.powf(1.0 / 3.0);
            let l = 7.10e36 * t9.powf(-1.5) * ex.exp();
            let dln = -1.5 / t9 + (135.93 / 3.0) * t9.powf(-4.0 / 3.0);
            (l, l * dln)
        }
        Rate::AlphaCapture { c, tau } => {
            let l = c * t9.powf(-2.0 / 3.0) * (-tau / t9.powf(1.0 / 3.0)).exp();
            let dln = -2.0 / (3.0 * t9) + (tau / 3.0) * t9.powf(-4.0 / 3.0);
            (l, l * dln)
        }
        Rate::Const(c) => (c, 0.0),
    }
}

/// The weak-screening factor as one expression, likewise.
fn reference_screening(z1: f64, z2: f64, rho: f64, t: f64, abar: f64, zbar: f64) -> f64 {
    let zeta = (zbar * zbar + zbar) / abar;
    let t9 = t / 1e9;
    let h12 = 0.188 * z1 * z2 * (rho * zeta).sqrt() * (t9 * 1e3).powf(-1.5);
    h12.min(2.0).exp()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hoisted_rate_fits_reproduce_the_per_rate_formulas_bit_for_bit(
        log_t9 in -2.0f64..1.0,
        z in 3.0f64..14.0,
        c in 1e6f64..1e11,
    ) {
        let t9 = 10f64.powf(log_t9);
        let rates = [
            Rate::TripleAlpha,
            Rate::C12C12,
            Rate::C12O16,
            Rate::O16O16,
            Rate::AlphaCapture { c, tau: gamow_tau_alpha(z.round() * 2.0, z.round() * 4.0) },
            Rate::Const(c),
        ];
        // Each fit on the families it alone declares, and on the union a
        // many-reaction network builds: an extra family must change nothing.
        let all = TFactors::new(t9, TNeeds::of(rates));
        for rate in rates {
            let (l, dl) = reference_rate(rate, t9);
            for tf in [TFactors::new(t9, TNeeds::of([rate])), all] {
                let (hl, hdl) = rate.eval(&tf);
                prop_assert!(hl.to_bits() == l.to_bits(), "{rate:?} at T9 = {t9}: λ {hl} vs {l}");
                prop_assert!(hdl.to_bits() == dl.to_bits(), "{rate:?} at T9 = {t9}: dλ {hdl} vs {dl}");
            }
            let (wl, wdl) = rate.eval_t9(t9);
            prop_assert_eq!((wl.to_bits(), wdl.to_bits()), (l.to_bits(), dl.to_bits()));
        }
    }

    #[test]
    fn hoisted_screening_reproduces_the_one_expression_factor_bit_for_bit(
        log_t9 in -2.0f64..1.0,
        log_rho in 0.0f64..9.5,
        z1 in 1u32..15,
        z2 in 1u32..15,
        abar in 4.0f64..56.0,
    ) {
        let (rho, t) = (10f64.powf(log_rho), 10f64.powf(log_t9) * 1e9);
        let (z1, z2) = (2.0 * z1 as f64, 2.0 * z2 as f64);
        let zbar = 0.5 * abar;
        let want = reference_screening(z1, z2, rho, t, abar, zbar);
        // Shared terms built once, as a network evaluation does ...
        let tf = TFactors::new(t / 1e9, TNeeds::default()).with_screening(rho, t, abar, zbar);
        prop_assert_eq!(tf.screening(z1, z2).to_bits(), want.to_bits());
        // ... and through the free function on top of them.
        prop_assert_eq!(screening_factor(z1, z2, rho, t, abar, zbar).to_bits(), want.to_bits());
    }
}

/// The four networks, by index.
fn network(idx: usize) -> Network {
    match idx {
        0 => Network::cburn2(),
        1 => Network::triple_alpha(),
        2 => Network::iso7(),
        _ => Network::aprox13(),
    }
}

/// A deterministic stream of uniforms in `[0, 1)` from `seed`.
fn uniforms(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn network_lane_kernels_are_per_lane_ydot_and_jac_bit_for_bit(
        net_idx in 0usize..4,
        log_rho in prop::collection::vec(0.0f64..9.5, 4),
        // Down to 10³ K: T₉ = 10⁻⁶, below the fits' 10⁻⁴ floor.
        log_t in prop::collection::vec(3.0f64..9.8, 4),
        // Negative abundances take the max(Y, 0) branch.
        ys in prop::collection::vec(-0.05f64..0.5, 4 * 13),
    ) {
        use exastro_parallel::LANES;
        let net = network(net_idx);
        let (n, m) = (net.nspec(), net.nspec() + 1);
        let rho: [f64; LANES] = std::array::from_fn(|l| 10f64.powf(log_rho[l]));
        let t: [f64; LANES] = std::array::from_fn(|l| 10f64.powf(log_t[l]));
        let rows: Vec<[f64; LANES]> =
            (0..n).map(|i| std::array::from_fn(|l| ys[i * LANES + l])).collect();
        let mut ydot = vec![[f64::NAN; LANES]; n];
        let mut jac = vec![[f64::NAN; LANES]; m * m];
        let r = net.reactions().len();
        let (mut lam, mut dlam) = (vec![[0.0; LANES]; r], vec![[0.0; LANES]; r]);
        net.rates_lanes(rho, t, &mut lam, None);
        net.ydot_from_rates(rho, &lam, &rows, &mut ydot);
        net.rates_lanes(rho, t, &mut lam, Some(&mut dlam));
        net.jac_from_rates(rho, &lam, &dlam, &rows, &mut jac);
        for l in 0..LANES {
            let y: Vec<f64> = rows.iter().map(|r| r[l]).collect();
            let mut one = vec![0.0; n];
            net.ydot(rho[l], t[l], &y, &mut one);
            for i in 0..n {
                prop_assert!(
                    ydot[i][l].to_bits() == one[i].to_bits(),
                    "{} lane {l} ydot[{i}]: {} vs {}", net.name(), ydot[i][l], one[i]
                );
            }
            let mut one = vec![0.0; m * m];
            net.jac(rho[l], t[l], &y, &mut one);
            for k in 0..m * m {
                prop_assert!(
                    jac[k][l].to_bits() == one[k].to_bits(),
                    "{} lane {l} jac[{k}]: {} vs {}", net.name(), jac[k][l], one[k]
                );
            }
        }
    }

    #[test]
    fn block_replay_is_the_scalar_factor_and_solve_lane_by_lane(
        width in prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 7, 8, 9, 16]),
        // At or past `width`: no lane is singular.
        singular_lane in 0usize..20,
        gamma in prop::sample::select(vec![0.5f64, 0.25, 0.125, 0.0625]),
        seed in 0u64..1_000_000,
    ) {
        use exastro_microphysics::SparseLu;
        use exastro_parallel::LANES;
        let pattern = Network::aprox13().sparsity();
        let lu = SparseLu::compile(&pattern);
        let n = pattern.dim();
        let mut rng = uniforms(seed);
        let mut jacs = vec![0.0; n * n * width];
        let mut b = vec![0.0; n * width];
        for l in 0..width {
            let jac = &mut jacs[l * n * n..][..n * n];
            if l == singular_lane {
                // I − γ(I/γ) = 0 exactly (γ is a power of two).
                for k in 0..n {
                    jac[k * n + k] = 1.0 / gamma;
                }
            } else {
                for (r, c) in pattern.entries() {
                    jac[r * n + c] = 2.0 * rng() - 1.0;
                }
            }
            for i in 0..n {
                b[i * width + l] = 2.0 * rng() - 1.0;
            }
        }
        let mut vals = vec![[0.0; LANES]; lu.batch_len(width)];
        let mut singular = vec![false; width];
        lu.factor_newton_batch(&jacs, gamma, width, &mut vals, &mut singular);
        let b0 = b.clone();
        let mut scratch = vec![[0.0; LANES]; n];
        lu.solve_batch(&vals, width, &mut b, &mut scratch);
        let nnz = lu.nnz_filled();
        for l in 0..width {
            let mut one = vec![0.0; nnz];
            let scalar = lu.factor_newton(&jacs[l * n * n..][..n * n], gamma, &mut one);
            prop_assert!(singular[l] == scalar.is_err(), "width {width} lane {l}");
            prop_assert_eq!(singular[l], l == singular_lane);
            if singular[l] {
                continue;
            }
            for (slot, v) in one.iter().enumerate() {
                let batch = vals[(l / LANES) * nnz + slot][l % LANES];
                prop_assert!(batch.to_bits() == v.to_bits(), "lane {l} slot {slot}");
            }
            let mut x: Vec<f64> = (0..n).map(|i| b0[i * width + l]).collect();
            lu.solve(&one, &mut x, &mut vec![0.0; n]);
            for i in 0..n {
                prop_assert!(b[i * width + l].to_bits() == x[i].to_bits(), "lane {l} x[{i}]");
            }
        }
    }
}
