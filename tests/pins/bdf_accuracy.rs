//! BDF global error against the requested tolerance — the integrator rows
//! of the verification ladder (ROADMAP item 1(iv)), on the fixtures of
//! `exastro_bench::verify`, whose `verify` bench writes the same rows to
//! `BENCH_verify.json`. The pinned digests say "same bits as yesterday";
//! this says "right, and righter when asked": on Robertson's problem to
//! t = 40 and on an igniting aprox13 zone, at rtol 10⁻⁴ … 10⁻¹⁰, through
//! the sparse and the dense lane solver, alone and as lane 0 of four
//! perturbed neighbours, the error against a run of the same integrator at
//! rtol 10⁻¹² stays under a stated multiple of rtol and falls strictly
//! with rtol. Run with `--nocapture` for the table (error, steps,
//! rejected, Jacobians per row) that EXPERIMENTS quotes.
//!
//! The published Robertson values carry seven digits, too few to measure a
//! 10⁻⁸ error against: they check the reference run, and the reference run
//! checks the rows.

use exastro_bench::verify::{
    burn_cell, burn_cell_rows, burn_cell_state, case_label, rel_err, robertson, robertson_rows,
    worst_fall, BdfRow, Case, Solver, BURN_CELL_CAP, CASES, REFERENCE_RTOL, ROBERTSON_CAP,
};
use exastro_microphysics::Network;

/// How far the dense and the sparse Robertson references may part. Over
/// the reference rtols 10⁻¹²·(1 + k·10⁻⁶), k = 0…11, their gap read
/// 4.2·10⁻¹² to 1.2·10⁻¹⁰ on the integrator that recorded the rows: at a
/// tolerance this tight the two solvers' roundoff sends the step sequences
/// apart, and where they part moves with the last bits of rtol. The bound
/// is that family's maximum × 2.5, 3·10⁻¹⁰, ≤ 1/300 of the smallest error
/// the reference grades (1.1·10⁻⁷, sparse width 1 at 10⁻¹⁰).
const REFERENCE_GAP: f64 = 3e-10;
/// The perturbed reference rtols the gap is taken over.
const REFERENCE_FAMILY: usize = 12;

/// Print and check one case's rows: each error under its cap, each smaller
/// than the one before.
fn check_rows(what: &str, case: Case, cap: [f64; 4], rows: &[BdfRow; 4]) {
    for (row, cap) in rows.iter().zip(cap) {
        println!(
            "{what:9} {:9} rtol {:.0e}: error {:9.2e} = {:7.2} rtol; {:6} steps, {:5} rejected, {:4} Jacobians",
            case_label(case),
            row.rtol,
            row.error,
            row.error_over_rtol(),
            row.stats.steps,
            row.stats.rejected,
            row.stats.jac_evals
        );
        assert!(
            row.error_over_rtol() <= cap,
            "{what} {case:?}: {:e} at rtol {:e}",
            row.error,
            row.rtol
        );
    }
    let fall = worst_fall(rows);
    assert!(
        fall < 1.0,
        "{what} {case:?}: an error no smaller at a tighter rtol ({fall})"
    );
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
    let mut smallest = f64::INFINITY;
    for case in CASES {
        let rows = robertson_rows(case, &reference);
        check_rows("robertson", case, ROBERTSON_CAP, &rows);
        smallest = smallest.min(rows[3].error);
    }
    // The two lane solvers' references agree to far below the errors they
    // grade, at every reference rtol of the family, not only at one.
    let gap = (0..REFERENCE_FAMILY)
        .map(|k| {
            let rtol = REFERENCE_RTOL * (1.0 + k as f64 * 1e-6);
            let (sparse, _) = robertson(Solver::Sparse, 1, rtol);
            let (dense, _) = robertson(Solver::Dense, 1, rtol);
            rel_err(&dense, &sparse)
        })
        .fold(0.0, f64::max);
    println!("dense vs sparse reference: gap {gap:.2e}, smallest graded error {smallest:.2e}");
    assert!(gap < REFERENCE_GAP, "dense vs sparse reference: {gap:e}");
    assert!(
        REFERENCE_GAP < smallest / 300.0,
        "smallest row error {smallest:e}"
    );
}

#[test]
fn igniting_burn_cell_error_follows_rtol() {
    let net = Network::aprox13();
    let reference = burn_cell(&net, Solver::Sparse, 1, REFERENCE_RTOL);
    assert!(reference.outcome.t > 5e9, "the zone ignites");
    let reference = burn_cell_state(&reference);
    for case in &CASES[..3] {
        let rows = burn_cell_rows(&net, *case, &reference);
        check_rows("burn_cell", *case, BURN_CELL_CAP, &rows);
    }
}
