//! Pinned state digests: the bits two small Castro runs leave behind,
//! recorded once and held as constants. The bitwise tests elsewhere compare
//! two paths of the *current* code (Flat vs Legacy, halo loop vs whole-box
//! reference, split vs single box); these compare the current code with
//! the commit that recorded the constants, so a kernel or ghost-traffic
//! rewrite that changes every path the same way still fails here.
//!
//! Each run is pinned twice: a digest of every fab's grown box (ghosts
//! included) and one of the valid zones alone, all components. A change to
//! *which ghosts are refreshed* moves the first and must not move the
//! second. When a change is *meant* to move the bits, re-record: run with
//! `--nocapture` and copy the printed values.

use crate::reacting_level::burn_reacting_level;
use exastro_amr::{
    BoxArray, ClusterParams, CoordSys, DistStrategy, Geometry, Hierarchy, IndexBox, IntVect,
    MultiFab,
};
use exastro_castro::{
    init_collision, init_sedov, Castro, CollisionParams, Floors, Gravity, GravityMode, SedovParams,
};
use exastro_microphysics::{BdfErrorKind, BurnFaultConfig, CBurn2, GammaLaw, StellarEos};
use exastro_parallel::ExecSpace;

/// FNV-1a over the little-endian bits of every value.
fn fnv(values: impl Iterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every fab's grown box, fab-major, in storage order.
fn fnv_state(state: &MultiFab) -> u64 {
    fnv((0..state.nfabs()).flat_map(|i| state.fab(i).data().iter().copied()))
}

/// Valid zones only: fab-major, component-major, zones in x-fastest order.
fn fnv_valid(state: &MultiFab) -> u64 {
    fnv((0..state.nfabs()).flat_map(|i| {
        (0..state.ncomp()).flat_map(move |c| {
            let zones = state.valid_box(i).iter();
            zones.map(move |iv| state.fab(i).get(iv, c))
        })
    }))
}

/// `(grown-box digest, valid-zone digest)` after `steps` steps.
fn run(castro: &Castro, geom: &Geometry, state: &mut MultiFab, steps: usize) -> (u64, u64) {
    for _ in 0..steps {
        let dt = castro.estimate_dt(state, geom);
        castro.advance_level(state, geom, dt).unwrap();
    }
    (fnv_state(state), fnv_valid(state))
}

#[test]
fn sedov_16_in_8_cubes_after_4_steps() {
    let (grown, valid) = sedov_16_in_8_cubes(ExecSpace::Serial);
    println!("sedov 16^3/8^3 after 4 steps: grown {grown:#018x} valid {valid:#018x}");
    assert_eq!(valid, SEDOV_VALID_DIGEST, "valid zones: got {valid:#018x}");
    assert_eq!(grown, SEDOV_DIGEST, "grown boxes: got {grown:#018x}");
}

fn sedov_16_in_8_cubes(ex: ExecSpace) -> (u64, u64) {
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let geom = Geometry::cube(16, 1.0, false);
    let mut castro = Castro::new(&eos, &net);
    castro.hydro.cfl = 0.4;
    castro.hydro.floors = Floors::dimensionless();
    castro.ex = ex;
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, castro.layout.ncomp(), 2);
    assert_eq!(state.nfabs(), 8);
    init_sedov(
        &mut state,
        &geom,
        &castro.layout,
        &eos,
        &SedovParams::default(),
    );
    run(&castro, &geom, &mut state, 4)
}

#[test]
fn wd_collision_16_after_2_steps() {
    let eos = StellarEos;
    let net = CBurn2::new();
    let params = CollisionParams {
        v_approach: 6e8,
        separation: 3.0,
        ..Default::default()
    };
    let half_width = 2.5 * params.radius;
    let geom = Geometry::new(
        IndexBox::cube(16),
        [-half_width; 3],
        [half_width; 3],
        [false; 3],
        CoordSys::Cartesian,
    );
    let mut castro = Castro::new(&eos, &net);
    castro.hydro.cfl = 0.2;
    castro.gravity = Gravity {
        mode: GravityMode::Monopole,
        n_bins: 256,
    };
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, castro.layout.ncomp(), 2);
    init_collision(&mut state, &geom, &castro.layout, &eos, &net, &params);
    let (grown, valid) = run(&castro, &geom, &mut state, 2);
    println!("wd_collision 16^3/8^3 after 2 steps: grown {grown:#018x} valid {valid:#018x}");
    assert_eq!(
        valid, COLLISION_VALID_DIGEST,
        "valid zones: got {valid:#018x}"
    );
    assert_eq!(grown, COLLISION_DIGEST, "grown boxes: got {grown:#018x}");
}

#[test]
fn sedov_two_level_hierarchy_after_3_steps() {
    // The `two_level_amr_advance_conserves_mass` set-up: Sedov 32³ in 16³
    // boxes with its centre refined by 2, advanced by `advance_hierarchy`
    // (fill_patch, both levels' hydro, reflux, average_down).
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let mut castro = Castro::new(&eos, &net);
    castro.hydro.cfl = 0.4;
    castro.hydro.floors = Floors::dimensionless();
    let geom = Geometry::cube(32, 1.0, false);
    let mut hier = Hierarchy::single_level(geom, 16, 4, 1, DistStrategy::RoundRobin);
    let tags: Vec<IntVect> = IndexBox::new(IntVect::splat(10), IntVect::splat(21))
        .iter()
        .collect();
    let cluster = ClusterParams {
        max_size: 32,
        min_efficiency: 0.6,
        blocking_factor: 4,
    };
    hier.regrid(0, &tags, 2, &cluster);
    assert_eq!(hier.nlevels(), 2);
    let mut states: Vec<MultiFab> = (0..2)
        .map(|l| hier.make_multifab(l, castro.layout.ncomp(), 2))
        .collect();
    for (l, state) in states.iter_mut().enumerate() {
        let g = &hier.level(l).geom;
        init_sedov(state, g, &castro.layout, &eos, &SedovParams::default());
    }
    for _ in 0..3 {
        let dt = castro
            .estimate_dt(&states[1], &hier.level(1).geom)
            .min(2e-3);
        castro.advance_hierarchy(&hier, &mut states, dt).unwrap();
    }
    let got: Vec<(u64, u64)> = states
        .iter()
        .map(|s| (fnv_state(s), fnv_valid(s)))
        .collect();
    for (l, (grown, valid)) in got.iter().enumerate() {
        println!(
            "sedov two-level, level {l}, after 3 steps: grown {grown:#018x} valid {valid:#018x}"
        );
    }
    assert_eq!(got, TWO_LEVEL_DIGESTS, "(grown, valid) per level");
}

#[test]
fn burn_state_sweep_on_eight_boxes() {
    let (state, res) = burn_reacting_level(BurnFaultConfig {
        seed: 38,
        rate: 0.05,
        rungs_to_fail: 1,
        error: BdfErrorKind::MaxSteps,
    });
    let b = res.unwrap();
    let valid = fnv_valid(&state);
    let energy = b.energy_released.to_bits();
    let counts = [
        b.zones,
        b.skipped,
        b.total_steps,
        b.max_steps,
        b.newton_iters,
        b.retries,
        b.recovered,
        b.recovered_relaxed,
        b.recovered_subcycle,
        b.offloaded,
    ];
    println!("burn sweep 8^3/4^3: valid {valid:#018x} energy {energy:#018x} counts {counts:?}");
    // 64 zones on the cold plane, 56 more on the thin one.
    assert_eq!((b.zones, b.skipped), (392, 120));
    assert!(b.recovered > 0, "an injected fault is rescued: {b:?}");
    assert_eq!(
        valid, BURN_SWEEP_VALID_DIGEST,
        "valid zones: got {valid:#018x}"
    );
    assert_eq!(energy, BURN_SWEEP_ENERGY_BITS, "energy: got {energy:#018x}");
    assert_eq!(counts, BURN_SWEEP_COUNTS);
}

#[test]
fn burn_state_reports_every_failed_zone() {
    let (_, res) = burn_reacting_level(BurnFaultConfig {
        seed: 38,
        rate: 0.05,
        rungs_to_fail: 99,
        error: BdfErrorKind::SingularMatrix,
    });
    let zones: Vec<u64> = res.unwrap_err().iter().map(|f| f.zone).collect();
    println!("burn sweep 8^3/4^3 failures: {zones:?}");
    assert_eq!(zones, BURN_SWEEP_FAILED_ZONES);
}

/// Valid zones, recorded at the commit before the ghost exchange got its
/// footprint and untouched by it: what a sweep computes does not depend on
/// the ghosts it does not read.
const SEDOV_VALID_DIGEST: u64 = 0x4c3b_b0d3_b57e_81d1;
const COLLISION_VALID_DIGEST: u64 = 0xec31_a956_0ec5_0801;

/// Grown boxes. Re-recorded when `Hydro::advance` began exchanging only each
/// sweep's footprint (`2·e_dim`; were `0x18f3_2253_ef82_a325` and
/// `0xd0ca_b565_f47b_a3a1`): the x sweep no longer refreshes a box's y/z
/// face ghosts, nor any sweep its edge and corner ghosts, so after a step
/// the y and z slabs hold the values their own sweep's exchange left (the
/// state before that sweep, not before the last one) and edges and corners
/// keep whatever last wrote them. No kernel reads them.
const SEDOV_DIGEST: u64 = 0x7dd5_e476_c8aa_7b59;
const COLLISION_DIGEST: u64 = 0x4ee3_06a5_53a2_d7ed;

/// `(grown, valid)` of levels 0 and 1 of the two-level run, recorded at the
/// commit before refluxing was fed from inside the sweeps (when the levels'
/// flux fabs were still returned and refluxed after both advances).
const TWO_LEVEL_DIGESTS: [(u64, u64); 2] = [
    (0xba17_f983_3b29_d5ca, 0x9d53_5e7c_4376_7f13),
    (0xbfb7_3a6e_4c6e_fe6e, 0xb0ab_308c_29fd_c731),
];

/// The burn sweep's valid zones, released energy (bits) and counts
/// (`zones`, `skipped`, `total_steps`, `max_steps`, `newton_iters`,
/// `retries`, `recovered`, `recovered_relaxed`, `recovered_subcycle`,
/// `offloaded`), recorded while Castro still gathered and scattered its
/// own zones around `Burner::burn_all`.
const BURN_SWEEP_VALID_DIGEST: u64 = 0x7428_76a0_5c08_acb4;
const BURN_SWEEP_ENERGY_BITS: u64 = 0x49cc_687a_2af1_d074;
const BURN_SWEEP_COUNTS: [u64; 10] = [392, 120, 51252, 5762, 95401, 26, 26, 21, 0, 0];

/// Sweep-order ids (skipped zones counted) of the zones that fail every
/// rung, in the order the sweep reports them; recorded with the above.
const BURN_SWEEP_FAILED_ZONES: &[u64] = &[
    7, 10, 69, 72, 108, 124, 137, 145, 179, 246, 252, 332, 350, 351, 446, 448, 450, 458, 472, 474,
    498,
];
