//! Low-Mach driver telemetry reconciliation: the `StepMetrics` stream from
//! `Maestro::advance_safe` must agree with the `LmStepStats` the driver
//! returns. Own binary — it asserts on process-global telemetry state.

use exastro_amr::{
    BoxArray, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox, MultiFab,
};
use exastro_maestro::{bubble_maestro, init_bubble, BubbleParams, LmLayout, Maestro};
use exastro_microphysics::{Network, StellarEos};
use exastro_telemetry::{MemorySink, Telemetry};
use std::sync::Arc;
use std::sync::OnceLock;

fn bubble_setup(n: i32) -> (Geometry, MultiFab, Maestro<'static>) {
    static EOS: StellarEos = StellarEos;
    static NET: OnceLock<Network> = OnceLock::new();
    let net = NET.get_or_init(Network::cburn2);
    let geom = Geometry::new(
        IndexBox::cube(n),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), (n / 2).max(8), 4);
    let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
    let layout = LmLayout::new(2);
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
    let base = init_bubble(
        &mut state,
        &geom,
        &layout,
        &EOS,
        net,
        &BubbleParams::default(),
    );
    let maestro = bubble_maestro(&EOS, net, base);
    (geom, state, maestro)
}

#[test]
fn maestro_step_metrics_reconcile_with_driver_stats() {
    Telemetry::reset();
    Telemetry::enable();
    let (geom, mut state, mut maestro) = bubble_setup(16);
    let sink = Arc::new(MemorySink::new());
    maestro.telemetry.attach_sink(sink.clone());

    let nsteps = 2;
    let mut dts = Vec::new();
    let mut sum_bdf = 0u64;
    let mut sum_newton = 0u64;
    let mut sum_retries = 0u64;
    for _ in 0..nsteps {
        let dt = maestro.estimate_dt(&state, &geom).min(5e-3);
        let (stats, taken) = maestro.advance_safe(&mut state, &geom, dt).unwrap();
        dts.push(taken);
        sum_bdf += stats.burn_steps;
        sum_newton += stats.burn_newton_iters;
        sum_retries += stats.burn_retries;
    }
    assert!(sum_bdf > 0, "the bubble must react");

    let recs = sink.snapshot();
    assert_eq!(recs.len(), nsteps);
    for (i, r) in recs.iter().enumerate() {
        assert_eq!(r.driver, "maestro");
        assert_eq!(r.step, i as u64 + 1);
        assert_eq!(r.zones, 16u64.pow(3));
        assert_eq!(r.dt, dts[i]);
        assert!(r.wall_ns > 0);
        // The low-Mach driver owns no arena: occupancy reads zero.
        assert_eq!(r.arena_live_bytes, 0);
        assert_eq!(r.arena_peak_bytes, 0);
    }
    let t_expect: f64 = dts.iter().sum();
    assert!((recs.last().unwrap().t - t_expect).abs() <= 1e-12 * t_expect);
    assert_eq!(recs.iter().map(|r| r.bdf_steps).sum::<u64>(), sum_bdf);
    assert_eq!(recs.iter().map(|r| r.newton_iters).sum::<u64>(), sum_newton);
    assert_eq!(
        recs.iter().map(|r| r.burn_retries).sum::<u64>(),
        sum_retries
    );
    Telemetry::disable();
}
