//! Fault-injection smoke run for the in-step failure-recovery subsystem.
//!
//! Two phases:
//!
//! 1. **Recoverable** — a burning Sedov-style blast where ~1% of the
//!    burning zones are deterministically forced to fail their first burn
//!    attempt. Every one must be rescued by the retry ladder; the run
//!    completes with retries visible in the region report and prints
//!    `FAULT RECOVERY OK`.
//! 2. **Unrecoverable** — every burning zone fails more attempts than the
//!    ladder has rungs. The driver must reject the step, restore the
//!    pre-step state, write an emergency checkpoint, and return a
//!    structured error — never panic. Prints `EMERGENCY CHECKPOINT OK`.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use exastro::amr::{BcSpec, BoxArray, Geometry, MultiFab};
use exastro::castro::{BurnOptions, Castro, StateLayout};
use exastro::microphysics::{BdfErrorKind, BurnFaultConfig, Composition, Eos, Network, StellarEos};
use exastro::parallel::WorkerPool;
use exastro::telemetry::Telemetry;

/// A dense, hot carbon ball: enough burning zones (several hundred) that a
/// 1% fault rate deterministically selects a handful of them.
fn hot_ball(geom: &Geometry, layout: &StateLayout, eos: &StellarEos, net: &Network) -> MultiFab {
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
    let c = 1e8;
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let x = geom.cell_center(iv);
            let r = ((x[0] - c).powi(2) + (x[1] - c).powi(2) + (x[2] - c).powi(2)).sqrt();
            let rho = if r < 6e7 { 5e7 } else { 1e3 };
            let t = if r < 6e7 { 2.2e9 } else { 1e7 };
            let comp = Composition::from_mass_fractions(net.species(), &[1.0, 0.0]);
            let r_eos = eos.eval_rt(rho, t, &comp);
            let fab = state.fab_mut(i);
            fab.set(iv, StateLayout::RHO, rho);
            fab.set(iv, StateLayout::TEMP, t);
            fab.set(iv, StateLayout::EDEN, rho * r_eos.e);
            fab.set(iv, StateLayout::EINT, rho * r_eos.e);
            fab.set(iv, layout.spec(0), rho);
        }
    }
    state
}

fn main() {
    let eos = StellarEos;
    let net = Network::cburn2();
    let layout = StateLayout::new(net.nspec());
    let geom = Geometry::cube(16, 2e8, false);

    // ------------------------------------------------------------------
    // Phase 1: ~1% of burning zones fail their first attempt; the retry
    // ladder must rescue every one of them.
    // ------------------------------------------------------------------
    println!("phase 1: recoverable faults (1% of burn zones, 1 rung deep)\n");
    let mut state = hot_ball(&geom, &layout, &eos, &net);
    let mut castro = Castro::new(&eos, &net);
    castro.bc = BcSpec::outflow();
    castro.burn = Some(BurnOptions {
        min_temp: 5e8,
        min_dens: 1e5,
        faults: Some(BurnFaultConfig {
            seed: 2024,
            rate: 0.01,
            rungs_to_fail: 1,
            error: BdfErrorKind::MaxSteps,
        }),
    });

    let mut recovered = 0;
    let mut retries = 0;
    for step in 0..3 {
        let dt = castro.estimate_dt(&state, &geom).min(1e-6);
        let (stats, dt_taken) = castro
            .advance_level_safe(&mut state, &geom, dt)
            .expect("recoverable faults must not kill the step");
        recovered += stats.burn.recovered;
        retries += stats.burn.retries;
        println!(
            "  step {step}: dt = {dt_taken:.3e}, {} zones burned, {} recovered, {} retries",
            stats.burn.zones, stats.burn.recovered, stats.burn.retries
        );
    }
    assert!(recovered > 0, "the 1% fault rate must hit some zones");
    assert!(retries >= recovered);
    // The recovered state is physical.
    castro
        .validate_state(&state, castro.recovery.species_tol)
        .expect("state must validate after recovery");

    print!("\n{}", Telemetry::region_report());
    println!("pool: {}\n", WorkerPool::global().stats());
    let burn_retries = Telemetry::region_stats("castro_advance/burn")
        .map(|s| s.retries)
        .unwrap_or(0);
    assert!(burn_retries > 0, "retries must appear in the region table");
    println!("FAULT RECOVERY OK ({recovered} zones recovered, {retries} ladder retries)\n");

    // ------------------------------------------------------------------
    // Phase 2: unrecoverable faults — the driver must degrade gracefully:
    // restore the state, write an emergency checkpoint, return an error.
    // ------------------------------------------------------------------
    println!("phase 2: unrecoverable faults (every burn zone, ladder exhausted)\n");
    let dir = std::env::temp_dir().join(format!("exastro-fault-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut state = hot_ball(&geom, &layout, &eos, &net);
    castro.burn.as_mut().unwrap().faults = Some(BurnFaultConfig {
        seed: 7,
        rate: 1.0,
        rungs_to_fail: 99,
        error: BdfErrorKind::SingularMatrix,
    });
    castro.recovery.emergency_dir = Some(dir.clone());
    castro.recovery.max_rejections = 2;

    let before = state.clone();
    let err = castro
        .advance_level_safe(&mut state, &geom, 1e-6)
        .expect_err("unrecoverable faults must surface as DriverError");
    println!("  driver error: {err}");
    assert!(
        err.emergency_checkpoint.is_some(),
        "no emergency checkpoint"
    );
    let chk = err.emergency_checkpoint.as_ref().unwrap();
    assert!(chk.is_dir(), "checkpoint not on disk: {}", chk.display());
    // The state was restored bit-exactly to its pre-step contents.
    for (i, vb) in state.iter_boxes() {
        for iv in vb.iter() {
            for c in 0..layout.ncomp() {
                assert_eq!(
                    state.fab(i).get(iv, c).to_bits(),
                    before.fab(i).get(iv, c).to_bits(),
                    "state not restored at {iv:?}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("EMERGENCY CHECKPOINT OK (state restored, structured error returned)");
}
