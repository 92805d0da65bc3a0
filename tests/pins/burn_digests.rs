//! Pinned burn digests: the bits `Burner::burn_all` leaves behind on two
//! small zone fields, recorded once and held as constants (the burner's
//! counterpart of `castro_digests.rs`). The bitwise
//! tests elsewhere compare two paths of the *current* code (batch dropout
//! vs ladder, width 1 vs `burn_zone`); these compare the current code with
//! the commit that recorded the constants, so a rewrite of the rate
//! evaluation or of the batch integrator's storage that moves every path
//! the same way still fails here.
//!
//! A digest covers, zone by zone in input order, the bits of every mass
//! fraction, the final temperature and the released energy, then the
//! zone's BDF step and Newton-iteration counts. When a change is *meant*
//! to move the bits, re-record: run with `--nocapture` and copy the
//! printed values.

use crate::digest::{fnv, FNV_OFFSET};
use exastro_microphysics::{BurnOutcome, BurnerConfig, Network, StellarEos, ZoneBurn};

/// ½C½O fuel: `hot` zones around 2.8×10⁹ K that ignite within `dt`, then
/// `cold` zones around 4×10⁸ K that do not, each with its own (ρ, T).
/// With the default batch width of 8 and the burner's temperature sort,
/// 8 + 8 is one igniting and one quiescent chunk; 8 + 3 leaves a short
/// last chunk.
fn co_field(x0: &[f64], hot: usize, cold: usize) -> Vec<ZoneBurn<'_>> {
    (0..hot + cold)
        .map(|i| {
            let f = (i as f64 * 0.37).sin() * 0.02;
            let t0 = if i < hot { 2.8e9 } else { 4e8 };
            ZoneBurn {
                zone: i as u64,
                rho: 5e7 * (1.0 + f),
                t0: t0 * (1.0 - f),
                x0,
            }
        })
        .collect()
}

/// ½C½O mass fractions for `net`.
fn co_fuel(net: &Network) -> Vec<f64> {
    let mut x0 = vec![0.0; net.nspec()];
    x0[net.index_of("c12")] = 0.5;
    x0[net.index_of("o16")] = 0.5;
    x0
}

fn burn(net: &Network, zones: &[ZoneBurn], dt: f64) -> Vec<BurnOutcome> {
    BurnerConfig::default()
        .build(net, &StellarEos)
        .burn_all(zones, dt)
        .into_iter()
        .map(|rec| rec.expect("every zone burns").outcome)
        .collect()
}

fn digest(outcomes: &[BurnOutcome]) -> u64 {
    let mut h = FNV_OFFSET;
    for out in outcomes {
        for x in &out.x {
            fnv(&mut h, x.to_bits());
        }
        fnv(&mut h, out.t.to_bits());
        fnv(&mut h, out.enuc.to_bits());
        fnv(&mut h, out.stats.steps);
        fnv(&mut h, out.stats.newton_iters);
    }
    h
}

#[test]
fn aprox13_igniting_and_quiescent_chunks() {
    let net = Network::aprox13();
    let fuel = co_fuel(&net);
    let zones = co_field(&fuel, 8, 8);
    let outcomes = burn(&net, &zones, 5e-7);
    // The fixture is what its name says: the hot chunk runs away, the cold
    // one barely steps.
    for (zb, out) in zones.iter().zip(&outcomes) {
        if zb.t0 > 1e9 {
            assert!(out.t > 1.5 * zb.t0 && out.stats.steps > 1000, "{out:?}");
        } else {
            assert!(out.t < 1.001 * zb.t0 && out.stats.steps < 50, "{out:?}");
        }
    }
    let digest = digest(&outcomes);
    println!("aprox13 8 hot + 8 cold: {digest:#018x}");
    assert_eq!(digest, APROX13_DIGEST, "got {digest:#018x}");
}

#[test]
fn iso7_with_a_short_last_chunk() {
    let net = Network::iso7();
    let digest = digest(&burn(&net, &co_field(&co_fuel(&net), 8, 3), 5e-7));
    println!("iso7 8 hot + 3 cold: {digest:#018x}");
    assert_eq!(digest, ISO7_DIGEST, "got {digest:#018x}");
}

/// Re-recorded taken when the BDF took VODE's step-growth limits (10⁴ on the
/// first accepted step, 10 after) (were `0x25be_3abe_9c7c_264a` and
/// `0x5215_6e75_a2ce_73ac`).
const APROX13_DIGEST: u64 = 0x492d_369d_120d_1282;
const ISO7_DIGEST: u64 = 0x1f1f_9521_95b8_8311;
