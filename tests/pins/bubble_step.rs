//! Pinned digest of one low-Mach bubble step: the bits `Maestro::advance`
//! leaves in the valid zones, and what its projection's multigrid solve
//! reported, recorded once and held as constants. The bitwise tests
//! elsewhere compare two paths of the *current* code (halo loop vs
//! whole-box step, cursor V-cycle vs per-`IntVect` V-cycle); this compares
//! the current code with the commit that recorded the constants, so a
//! rewrite of the projection that moves every path the same way still
//! fails here.
//!
//! When a change is *meant* to move the bits, re-record: run with
//! `--nocapture` and copy the printed values.

use exastro_amr::{
    BoxArray, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox, MultiFab,
};
use exastro_maestro::{bubble_maestro, init_bubble, BubbleParams, LmLayout};
use exastro_microphysics::{CBurn2, Network, StellarEos};

/// FNV-1a over the little-endian bits of every valid zone: fab-major,
/// component-major, zones in x-fastest order.
fn fnv_valid(state: &MultiFab) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..state.nfabs() {
        for c in 0..state.ncomp() {
            for iv in state.valid_box(i).iter() {
                for b in state.fab(i).get(iv, c).to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

#[test]
fn bubble_16_in_8_cubes_after_one_step() {
    // Periodic x/y, walls in z, 8 boxes of 8³ on 2 ranks: the projection's
    // multigrid has one many-box level and two single-box ones.
    let geom = Geometry::new(
        IndexBox::cube(16),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
    let (eos, net) = (StellarEos, CBurn2::new());
    let layout = LmLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
    assert_eq!(state.nfabs(), 8);
    let base = init_bubble(
        &mut state,
        &geom,
        &layout,
        &eos,
        &net,
        &BubbleParams::default(),
    );
    let maestro = bubble_maestro(&eos, &net, base);
    let dt = maestro.estimate_dt(&state, &geom).min(4e-3);
    let stats = maestro.advance(&mut state, &geom, dt).unwrap();
    let mg = stats.projection.expect("the step projects");
    let (valid, res) = (fnv_valid(&state), mg.res.to_bits());
    println!(
        "bubble 16^3/8^3 after 1 step: valid {valid:#018x} cycles {} res {res:#018x}",
        mg.cycles
    );
    assert!(mg.converged);
    assert_eq!(valid, VALID_DIGEST, "valid zones: got {valid:#018x}");
    assert_eq!(mg.cycles, MG_CYCLES);
    assert_eq!(res, MG_RES_BITS, "final residual: got {res:#018x}");
}

/// Recorded at the commit before the multigrid got its per-level exchange
/// plans and cursor kernels, and untouched by them.
const VALID_DIGEST: u64 = 0xb35e_6ab3_4955_0c28;
const MG_CYCLES: usize = 7;
const MG_RES_BITS: u64 = 0x3e9b_cd5f_d9be_0800;
