//! Pinned burn digests of chunks whose lanes disagree: every zone of a
//! field sits at its own temperature on a ramp across the chunk, so the
//! lanes of one batch converge at different Newton iterations and the
//! lockstep loop's masks — which lanes evaluate a right-hand side or a
//! Jacobian on a given iteration — are exercised lane by lane. The
//! homogeneous hot and cold chunks of `burn_digests.rs` do not do that,
//! and its digest holds neither `rhs_evals` nor `jac_evals`, which are
//! exactly what a mis-masked kernel would move.
//!
//! Each network is burned at batch widths 3, 8 and 16 over 13 zones, so
//! the sweeps hold full chunks, short last chunks and a one-zone chunk (the
//! ladder), and every width leaves a remainder of lanes in the last
//! `LANES`-wide block of a chunk. A digest covers, zone by zone in input
//! order, the bits of every mass fraction, the final temperature and the
//! released energy, then the zone's steps, rejections, RHS and Jacobian
//! evaluations, factorizations, Newton iterations and retries. When a change
//! is *meant* to move the bits, re-record: run with `--nocapture` and copy
//! the printed values.

use exastro_microphysics::{
    Aprox13, BurnerConfig, CBurn2, Network, RecoveredBurn, StellarEos, ZoneBurn,
};

/// FNV-1a over little-endian bytes.
fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Zones in a field: 13 = one full chunk plus a remainder at every width.
const ZONES: usize = 13;

/// `ZONES` zones of fuel `x0` on a linear temperature ramp from 1.6×10⁹ K
/// to 2.9×10⁹ K, each with its own density.
fn ramp(x0: &[f64]) -> Vec<ZoneBurn<'_>> {
    (0..ZONES)
        .map(|i| {
            let f = i as f64 / (ZONES - 1) as f64;
            ZoneBurn {
                zone: i as u64,
                rho: 5e7 * (1.0 + 0.3 * (i as f64 * 0.37).sin()),
                t0: 1.6e9 + 1.3e9 * f,
                x0,
            }
        })
        .collect()
}

fn digest(recs: &[RecoveredBurn]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for rec in recs {
        let out = &rec.outcome;
        for x in &out.x {
            fnv(&mut h, x.to_bits());
        }
        fnv(&mut h, out.t.to_bits());
        fnv(&mut h, out.enuc.to_bits());
        let s = &out.stats;
        for count in [
            s.steps,
            s.rejected,
            s.rhs_evals,
            s.jac_evals,
            s.factorizations,
            s.newton_iters,
            rec.retries as u64,
        ] {
            fnv(&mut h, count);
        }
    }
    h
}

/// Burn `zones` at each width of `pins` and compare the digests.
fn check(net: &dyn Network, zones: &[ZoneBurn], dt: f64, pins: [(usize, u64); 3]) {
    let mut got = Vec::new();
    for (width, _) in pins {
        let recs: Vec<RecoveredBurn> = BurnerConfig {
            batch_width: width,
            ..Default::default()
        }
        .build(net, &StellarEos)
        .burn_all(zones, dt)
        .into_iter()
        .map(|rec| rec.expect("every zone burns"))
        .collect();
        // The fixture is what its name says: lanes of one chunk stop
        // iterating at different points.
        let mut iters: Vec<u64> = recs.iter().map(|r| r.outcome.stats.newton_iters).collect();
        iters.sort_unstable();
        iters.dedup();
        assert!(
            iters.len() > 2,
            "{}: lanes iterate alike: {iters:?}",
            net.name()
        );
        let d = digest(&recs);
        println!("{} width {width}: {d:#018x}", net.name());
        got.push((width, d));
    }
    assert_eq!(got, pins, "{}: digests moved", net.name());
}

#[test]
fn aprox13_temperature_ramp_at_widths_3_8_16() {
    let net = Aprox13::new();
    let mut x0 = vec![0.0; net.nspec()];
    x0[net.index_of("c12")] = 0.5;
    x0[net.index_of("o16")] = 0.5;
    check(&net, &ramp(&x0), 1e-7, APROX13_PINS);
}

#[test]
fn cburn2_temperature_ramp_at_widths_3_8_16() {
    let net = CBurn2::new();
    check(&net, &ramp(&[1.0, 0.0]), 1e-7, CBURN2_PINS);
}

const APROX13_PINS: [(usize, u64); 3] = [
    (3, 0x4d64_cc39_8c1a_d134),
    (8, 0x8d44_6f56_36a3_7427),
    (16, 0x6497_2c00_5d62_99d9),
];
const CBURN2_PINS: [(usize, u64); 3] = [
    (3, 0x52c3_cea8_fe7d_ff4e),
    (8, 0x4855_f1b1_1fb3_d9e7),
    (16, 0x70da_63f9_c070_db79),
];
