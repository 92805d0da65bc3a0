//! BDF global error against the requested tolerance — the integrator rows
//! of the verification ladder (ROADMAP item 2(iv)). The pinned digests say
//! "same bits as yesterday"; this says "right, and righter when asked":
//! on Robertson's problem to t = 40 and on an igniting aprox13 zone, at
//! rtol 10⁻⁴ … 10⁻¹⁰, through the sparse and the dense lane solver, alone
//! and as lane 0 of four perturbed neighbours, the error against a run of
//! the same integrator at rtol 10⁻¹² stays under a stated multiple of rtol
//! and falls strictly with rtol. Run with `--nocapture` for the table
//! (error, steps, rejected, Jacobians per row) that EXPERIMENTS quotes.
//!
//! The published Robertson values carry seven digits, too few to measure a
//! 10⁻⁸ error against: they check the reference run, and the reference run
//! checks the rows.

use exastro_microphysics::{
    Aprox13, BatchWorkspace, BdfErrorKind, BdfIntegrator, BdfOptions, BdfStats, BurnFaultConfig,
    BurnerConfig, CsrPattern, LaneStatus, Network, OdeSystem, OffloadOptions, RecoveredBurn,
    RetryLadder, SparseLu, StellarEos, ZoneBurn,
};
use std::sync::Arc;

const RTOLS: [f64; 4] = [1e-4, 1e-6, 1e-8, 1e-10];
const REFERENCE_RTOL: f64 = 1e-12;

/// The error a row may show, in units of its rtol, at each of [`RTOLS`].
const BURN_CELL_CAP: [f64; 4] = [100.0; 4];
/// On Robertson the error falls like rtol^½, not like rtol (2.4, 17, 124
/// and 1160 rtol at worst; the scalar loop this integrator replaced read
/// 6.5, 42, 304 and 2182), so 100·rtol does not hold at 10⁻⁸ and below. A
/// finding, recorded in EXPERIMENTS, not a target: the two tight caps are
/// the measured worst row × 1.6.
const ROBERTSON_CAP: [f64; 4] = [100.0, 100.0, 200.0, 2000.0];

#[derive(Clone, Copy, Debug)]
enum Solver {
    Sparse,
    Dense,
}

const CASES: [(Solver, usize); 4] = [
    (Solver::Sparse, 1),
    (Solver::Sparse, 4),
    (Solver::Dense, 1),
    (Solver::Dense, 4),
];

/// Robertson's problem with its two slow rates scaled by `k`.
struct Robertson {
    k: f64,
}

impl OdeSystem for Robertson {
    fn dim(&self) -> usize {
        3
    }
    fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
        d[0] = -0.04 * self.k * y[0] + 1e4 * y[1] * y[2];
        d[2] = 3e7 * self.k * y[1] * y[1];
        d[1] = -d[0] - d[2];
    }
    fn jac(&self, _t: f64, y: &[f64], j: &mut [f64]) {
        j[0] = -0.04 * self.k;
        j[1] = 1e4 * y[2];
        j[2] = 1e4 * y[1];
        j[6] = 0.0;
        j[7] = 6e7 * self.k * y[1];
        j[8] = 0.0;
        j[3] = -j[0] - j[6];
        j[4] = -j[1] - j[7];
        j[5] = -j[2] - j[8];
    }
}

/// Lane 0 (the unperturbed problem) of `width` Robertson lanes at t = 40.
fn robertson(solver: Solver, width: usize, rtol: f64) -> ([f64; 3], BdfStats) {
    // The tolerances of `robertson_standard_checkpoint`, scaled with rtol.
    let opts = BdfOptions::builder()
        .rtol(rtol)
        .atol_vec(vec![rtol * 1e-4, rtol * 1e-6, rtol * 1e-4])
        .build()
        .unwrap();
    let integ = match solver {
        Solver::Dense => BdfIntegrator::new(opts),
        Solver::Sparse => {
            let all_but_two = (0..3).flat_map(|r| (0..3).map(move |c| (r, c)));
            let pattern = CsrPattern::new(3, all_but_two.filter(|&e| e != (2, 0)).collect());
            BdfIntegrator::sparse(opts, Arc::new(SparseLu::compile(&pattern)))
        }
    };
    let lanes: Vec<Robertson> = (0..width)
        .map(|l| Robertson {
            k: 1.0 + 0.05 * l as f64,
        })
        .collect();
    let mut y = vec![0.0; 3 * width];
    y[..width].fill(1.0);
    let mut ws = BatchWorkspace::default();
    let report = &integ.integrate_lanes(&lanes, 0.0, 40.0, &mut y, &mut ws)[0];
    assert_eq!(report.status, LaneStatus::Completed);
    ([y[0], y[width], y[2 * width]], report.stats)
}

/// The largest relative error of a component.
fn rel_err(y: &[f64], reference: &[f64]) -> f64 {
    y.iter()
        .zip(reference)
        .map(|(a, r)| ((a - r) / r).abs())
        .fold(0.0, f64::max)
}

/// Print and check one case's rows: each error under its cap, each smaller
/// than the one before.
fn check_rows(what: &str, case: (Solver, usize), cap: [f64; 4], rows: [(f64, BdfStats); 4]) {
    let mut last = f64::INFINITY;
    for ((rtol, cap), (err, stats)) in RTOLS.into_iter().zip(cap).zip(rows) {
        println!(
            "{what:9} {:6?} w{} rtol {rtol:.0e}: error {err:9.2e} = {:7.2} rtol; {:6} steps, {:5} rejected, {:4} Jacobians",
            case.0,
            case.1,
            err / rtol,
            stats.steps,
            stats.rejected,
            stats.jac_evals
        );
        assert!(
            err <= cap * rtol,
            "{what} {case:?}: {err:e} at rtol {rtol:e}"
        );
        assert!(err < last, "{what} {case:?}: no smaller at rtol {rtol:e}");
        last = err;
    }
}

#[test]
fn robertson_error_follows_rtol() {
    let (reference, _) = robertson(Solver::Sparse, 1, REFERENCE_RTOL);
    // Published values at t = 40, to the digits they are printed with.
    for (y, published, digits) in [
        (reference[0], 0.7158271, 2e-7),
        (reference[1], 9.186e-6, 1e-9),
        (reference[2], 0.2841636, 2e-7),
    ] {
        assert!((y - published).abs() < digits, "{y} vs {published}");
    }
    let (dense_reference, _) = robertson(Solver::Dense, 1, REFERENCE_RTOL);
    assert!(rel_err(&dense_reference, &reference) < 1e-11);
    for case in CASES {
        let rows = RTOLS.map(|rtol| {
            let (y, stats) = robertson(case.0, case.1, rtol);
            (rel_err(&y, &reference), stats)
        });
        check_rows("robertson", case, ROBERTSON_CAP, rows);
    }
}

/// The igniting zone of EXPERIMENTS "One integrator": ½C½O at ρ = 5·10⁷,
/// T = 2.8·10⁹ burned for 5·10⁻⁷ s, through the burner — sparse alone is
/// the direct rung, sparse at width 4 a chunk whose hottest zone it is,
/// dense the offload rung at the direct rung's options (the one place the
/// burner is dense, and always alone: there is no dense chunk to measure).
/// `atol` is the burner's 10⁻¹² until rtol needs less: a looser one leaves
/// abundances negative enough to fail the burner's own validation.
fn burn_cell(net: &Aprox13, solver: Solver, width: usize, rtol: f64) -> RecoveredBurn {
    let bdf = BdfOptions::builder()
        .rtol(rtol)
        .atol((rtol * 1e-4).min(1e-12))
        .build()
        .unwrap();
    let mut x0 = vec![0.0; net.nspec()];
    x0[net.index_of("c12")] = 0.5;
    x0[net.index_of("o16")] = 0.5;
    let zones: Vec<ZoneBurn> = (0..width)
        .map(|l| ZoneBurn {
            zone: l as u64,
            rho: 5e7 * (1.0 + 1e-3 * l as f64),
            t0: 2.8e9 * (1.0 - 1e-3 * l as f64),
            x0: &x0,
        })
        .collect();
    let mut cfg = BurnerConfig {
        ladder: RetryLadder::none(),
        batch_width: width,
        bdf,
        ..Default::default()
    };
    if let Solver::Dense = solver {
        cfg.ladder.offload = Some(OffloadOptions {
            rtol,
            atol: cfg.bdf.atol[0],
            max_order: cfg.bdf.max_order,
            max_steps: cfg.bdf.max_steps,
        });
        cfg.faults = Some(BurnFaultConfig {
            seed: 0,
            rate: 1.0,
            rungs_to_fail: 1,
            error: BdfErrorKind::MaxSteps,
        });
    }
    let rec = cfg
        .build(net, &StellarEos)
        .burn_all(&zones, 5e-7)
        .swap_remove(0)
        .expect("the zone burns");
    // Sparse: inside the chunk (or on the direct rung), no ladder.
    assert_eq!(rec.retries, matches!(solver, Solver::Dense) as u32);
    rec
}

#[test]
fn igniting_burn_cell_error_follows_rtol() {
    let net = Aprox13::new();
    let state = |rec: &RecoveredBurn| {
        let mut y = rec.outcome.x.clone();
        y.push(rec.outcome.t);
        y
    };
    // Mass fractions are compared absolutely (they sum to one), the
    // temperature relatively.
    let err = |y: &[f64], reference: &[f64]| {
        let (t, t_ref) = (y[y.len() - 1], reference[y.len() - 1]);
        y.iter()
            .zip(&reference[..y.len() - 1])
            .map(|(a, r)| (a - r).abs())
            .fold(((t - t_ref) / t_ref).abs(), f64::max)
    };
    let reference = burn_cell(&net, Solver::Sparse, 1, REFERENCE_RTOL);
    assert!(reference.outcome.t > 5e9, "the zone ignites");
    let reference = state(&reference);
    for case in [CASES[0], CASES[1], CASES[2]] {
        let rows = RTOLS.map(|rtol| {
            let rec = burn_cell(&net, case.0, case.1, rtol);
            (err(&state(&rec), &reference), rec.outcome.stats)
        });
        check_rows("burn_cell", case, BURN_CELL_CAP, rows);
    }
}
