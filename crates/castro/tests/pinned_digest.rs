//! Pinned state digests: the bits two small Castro runs leave behind,
//! recorded once and held as constants. The bitwise tests elsewhere compare
//! two paths of the *current* code (Flat vs Legacy, halo loop vs whole-box
//! reference, split vs single box); these compare the current code with
//! the commit that recorded the constants, so a kernel or ghost-traffic
//! rewrite that changes every path the same way still fails here.
//!
//! A digest covers every fab's grown box (ghosts included), all components.
//! When a change is *meant* to move the bits, re-record: run with
//! `--nocapture` and copy the printed values.

use exastro_amr::{BoxArray, CoordSys, Geometry, IndexBox, MultiFab};
use exastro_castro::{
    init_collision, init_sedov, Castro, CollisionParams, Floors, Gravity, GravityMode, SedovParams,
};
use exastro_microphysics::{CBurn2, GammaLaw, StellarEos};

/// FNV-1a over the little-endian bits of every value, fab-major.
fn fnv_state(state: &MultiFab) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..state.nfabs() {
        for v in state.fab(i).data() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn run(castro: &Castro, geom: &Geometry, state: &mut MultiFab, steps: usize) -> u64 {
    for _ in 0..steps {
        let dt = castro.estimate_dt(state, geom);
        castro.advance_level(state, geom, dt).unwrap();
    }
    fnv_state(state)
}

#[test]
fn sedov_16_in_8_cubes_after_4_steps() {
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let geom = Geometry::cube(16, 1.0, false);
    let mut castro = Castro::new(&eos, &net);
    castro.hydro.cfl = 0.4;
    castro.hydro.floors = Floors::dimensionless();
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
    let digest = run(&castro, &geom, &mut state, 4);
    println!("sedov 16^3/8^3 after 4 steps: {digest:#018x}");
    assert_eq!(digest, SEDOV_DIGEST, "got {digest:#018x}");
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
    let digest = run(&castro, &geom, &mut state, 2);
    println!("wd_collision 16^3/8^3 after 2 steps: {digest:#018x}");
    assert_eq!(digest, COLLISION_DIGEST, "got {digest:#018x}");
}

const SEDOV_DIGEST: u64 = 0x18f3_2253_ef82_a325;
const COLLISION_DIGEST: u64 = 0xd0ca_b565_f47b_a3a1;
