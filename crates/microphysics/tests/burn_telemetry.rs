//! A sweep's burn telemetry is gathered where its zones burn and published
//! once the sweep is done. What lands in the process-global registries must
//! be what recording every zone as it finished would have left there: the
//! `burn.bdf_steps` and `burn.newton_iters` histograms' counts, buckets,
//! minima and maxima, the `burn.rung.*` counters and one
//! `burn.batch.occupancy` sample a batched chunk. The registries are
//! process-global, so this file holds one test and runs in its own process.

use exastro_microphysics::{
    BdfErrorKind, BurnFaultConfig, BurnerConfig, CBurn2, LadderRung, RecoveredBurn, StellarEos,
    ZoneBurn,
};
use exastro_telemetry::histogram::{DEFAULT_BUCKETS_PER_DECADE, DEFAULT_HI, DEFAULT_LO};
use exastro_telemetry::{counter_get, histogram, Histogram, Telemetry};

fn fresh() -> Histogram {
    Histogram::new(DEFAULT_LO, DEFAULT_HI, DEFAULT_BUCKETS_PER_DECADE)
}

fn same(name: &str, want: &Histogram) {
    let got = histogram(name);
    assert_eq!(got.count(), want.count(), "{name} count");
    assert_eq!(
        got.nonzero_buckets(),
        want.nonzero_buckets(),
        "{name} buckets"
    );
    assert_eq!(got.min().to_bits(), want.min().to_bits(), "{name} min");
    assert_eq!(got.max().to_bits(), want.max().to_bits(), "{name} max");
}

#[test]
fn a_sweeps_histograms_and_counters_equal_a_per_zone_recording() {
    Telemetry::enable();
    Telemetry::reset();
    let net = CBurn2::new();
    let width = 4;
    // 23 cost-similar zones, so the batched ones complete in their batch
    // and end in a short chunk, while injected faults send some zones up
    // the ladder to the relaxed (one failed rung) or subcycle (two) rung.
    let zones: Vec<ZoneBurn> = (0..23)
        .map(|i| ZoneBurn {
            zone: i,
            rho: 5e7,
            t0: 2.8e9 * (1.0 + 0.001 * i as f64),
            x0: vec![0.5, 0.5],
        })
        .collect();
    let (steps, iters, occupancy) = (fresh(), fresh(), fresh());
    let mut rungs = [0u64; 4];
    for rungs_to_fail in [1, 2] {
        let burner = BurnerConfig {
            batch_width: width,
            faults: Some(BurnFaultConfig {
                seed: 7,
                rate: 0.3,
                rungs_to_fail,
                error: BdfErrorKind::MaxSteps,
            }),
            ..Default::default()
        }
        .build(&net, &StellarEos);
        let recs: Vec<RecoveredBurn> = burner
            .burn_all(&zones, 1e-7)
            .into_iter()
            .map(|r| r.expect("every zone burns"))
            .collect();
        for rec in &recs {
            steps.record(rec.outcome.stats.steps as f64);
            iters.record(rec.outcome.stats.newton_iters as f64);
            rungs[rec.rung as usize] += 1;
        }
        // No batched zone dropped out, so a chunk of two or more zones
        // completed whole; a one-zone chunk climbs the ladder and records
        // no occupancy.
        let batched = recs.iter().filter(|r| r.retries == 0).count();
        assert!(batched < zones.len(), "some zones were faulted");
        assert!(recs
            .iter()
            .all(|r| (r.retries == 0) == (r.rung == LadderRung::Direct)));
        let chunks = batched / width + usize::from(batched % width > 1);
        for _ in 0..chunks {
            occupancy.record(1.0);
        }
    }
    assert!(rungs[1] > 0 && rungs[2] > 0, "{rungs:?}");
    same("burn.bdf_steps", &steps);
    same("burn.newton_iters", &iters);
    same("burn.batch.occupancy", &occupancy);
    let names = [
        "burn.rung.direct",
        "burn.rung.relaxed-tol",
        "burn.rung.subcycle",
        "burn.rung.offload",
    ];
    for (name, n) in names.into_iter().zip(rungs) {
        assert_eq!(counter_get(name), n, "{name}");
    }
}
