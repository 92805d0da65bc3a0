//! Driver-level telemetry reconciliation: the `StepMetrics` stream a run
//! emits must agree with the `StepStats` the driver returns and with the
//! checkpoint bytes charged to the run.
//!
//! Lives in its own test binary because it resets and asserts on
//! process-global state (the region table and the trace buffer).

use exastro_amr::{BoxArray, DistributionMapping, Geometry, IntVect, MultiFab};
use exastro_castro::{variable_names, BurnOptions, Castro, StateLayout};
use exastro_microphysics::{BdfErrorKind, BurnFaultConfig, CBurn2, StellarEos};
use exastro_resilience::snapshot::{Clock, Snapshot};
use exastro_resilience::CheckpointManager;
use exastro_telemetry::{MemorySink, Telemetry};
use std::sync::Arc;

/// The hot-center carbon cube from the burn unit tests: 8³ zones at
/// 5×10⁷ g/cm³, a 3×10⁹ K igniting pocket in a 10⁷ K background.
fn carbon_state(n: i32) -> (Geometry, MultiFab, StateLayout) {
    let geom = Geometry::cube(n, 1e8, false);
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::all_local(&ba);
    let layout = StateLayout::new(2);
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let center = IntVect::splat(n / 2);
            let d = iv - center;
            let hot = d.product().abs() < 2 && d.sum().abs() < 3;
            let rho = 5e7;
            let t = if hot { 3.0e9 } else { 1e7 };
            state.fab_mut(i).set(iv, StateLayout::RHO, rho);
            state.fab_mut(i).set(iv, StateLayout::TEMP, t);
            state.fab_mut(i).set(iv, layout.spec(0), rho); // pure C12
            state.fab_mut(i).set(iv, StateLayout::EINT, rho * 1e17);
            state.fab_mut(i).set(iv, StateLayout::EDEN, rho * 1e17);
        }
    }
    (geom, state, layout)
}

#[test]
fn step_metrics_reconcile_with_driver_stats_and_burner_telemetry() {
    Telemetry::reset();
    Telemetry::enable();
    let net = CBurn2::new();
    let eos = StellarEos;
    let mut castro = Castro::new(&eos, &net);
    // Every burned zone fails its first attempt and recovers on the
    // relaxed-tolerance rung, so the retry/rung columns are nonzero and
    // must match between the driver stats and the metrics stream.
    castro.burn = Some(BurnOptions {
        faults: Some(BurnFaultConfig {
            seed: 42,
            rate: 1.0,
            rungs_to_fail: 1,
            error: BdfErrorKind::MaxSteps,
        }),
        ..Default::default()
    });
    let sink = Arc::new(MemorySink::new());
    castro.telemetry.attach_sink(sink.clone());

    let (geom, mut state, layout) = carbon_state(8);
    let ckpt_dir = std::env::temp_dir().join(format!("exastro-tm-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mgr = CheckpointManager::new(&ckpt_dir).unwrap();

    let nsteps = 3;
    let dt = 1e-9;
    let mut dts = Vec::new();
    let mut sum_burn_zones = 0u64;
    let mut sum_bdf = 0u64;
    let mut sum_newton = 0u64;
    let mut sum_retries = 0u64;
    let mut sum_relaxed = 0u64;
    let mut sum_subcycle = 0u64;
    let mut sum_offload = 0u64;
    let mut ckpt_payload = 0u64;
    for step in 0..nsteps {
        let (stats, taken) = castro.advance_level_safe(&mut state, &geom, dt).unwrap();
        dts.push(taken);
        sum_burn_zones += stats.burn.zones;
        sum_bdf += stats.burn.total_steps;
        sum_newton += stats.burn.newton_iters;
        sum_retries += stats.burn.retries;
        sum_relaxed += stats.burn.recovered_relaxed;
        sum_subcycle += stats.burn.recovered_subcycle;
        sum_offload += stats.burn.offloaded;
        if step == 1 {
            // A mid-run checkpoint charged to the run: its bytes must show
            // up in the *next* record.
            let snap = Snapshot::single_level(
                geom.clone(),
                state.clone(),
                Clock {
                    step: step as u64,
                    time: 0.0,
                    dt,
                },
                variable_names(&layout),
            );
            ckpt_payload = snap.payload_bytes();
            mgr.write(&snap).unwrap();
            castro.telemetry.charge_checkpoint(ckpt_payload);
        }
    }
    assert!(sum_burn_zones > 0, "the hot pocket must burn");
    assert!(sum_retries > 0, "fault injection must force retries");

    let recs = sink.snapshot();
    assert_eq!(recs.len(), nsteps);
    for (i, r) in recs.iter().enumerate() {
        assert_eq!(r.driver, "castro");
        assert_eq!(r.step, i as u64 + 1, "1-based ordinals");
        assert_eq!(r.zones, 512, "whole 8^3 level advanced each step");
        assert_eq!(r.step_rejections, 0, "clean steps reject nothing");
        assert!(r.wall_ns > 0);
        assert!(r.zones_per_us > 0.0);
        assert_eq!(r.dt, dts[i]);
    }
    // Run time accumulates the dt actually taken.
    let t_expect: f64 = dts.iter().sum();
    assert!((recs.last().unwrap().t - t_expect).abs() < 1e-18);

    // Column sums reconcile with the driver's own per-step stats.
    assert_eq!(recs.iter().map(|r| r.bdf_steps).sum::<u64>(), sum_bdf);
    assert_eq!(recs.iter().map(|r| r.newton_iters).sum::<u64>(), sum_newton);
    assert_eq!(
        recs.iter().map(|r| r.burn_retries).sum::<u64>(),
        sum_retries
    );
    assert_eq!(
        recs.iter().map(|r| r.recovered_relaxed).sum::<u64>(),
        sum_relaxed
    );
    assert_eq!(
        recs.iter().map(|r| r.recovered_subcycle).sum::<u64>(),
        sum_subcycle
    );
    assert_eq!(
        recs.iter().map(|r| r.recovered_offload).sum::<u64>(),
        sum_offload
    );

    // Checkpoint bytes: exactly one record carries the mid-run write.
    let ckpt_cols: Vec<u64> = recs.iter().map(|r| r.checkpoint_bytes).collect();
    assert_eq!(ckpt_cols[0], 0);
    assert_eq!(ckpt_cols[2], ckpt_payload, "step 3 absorbs the payload");
    assert!(ckpt_payload > 0);

    // The region table saw the same structure the trace records.
    let report = Telemetry::region_report_json();
    for region in ["castro_advance", "burn", "hydro", "sync_temperature"] {
        assert!(report.contains(region), "region table missing {region}");
    }

    // The trace exports as structurally sound Chrome JSON containing the
    // driver's regions.
    let trace_path = ckpt_dir.join("trace.json");
    Telemetry::write_trace(&trace_path).unwrap();
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert!(text.contains("\"traceEvents\""));
    assert!(text.contains("castro_advance"));
    assert!(text.contains("\"ph\": \"B\"") && text.contains("\"ph\": \"E\""));
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches('[').count(), text.matches(']').count());

    Telemetry::disable();
    std::fs::remove_dir_all(&ckpt_dir).unwrap();
}
