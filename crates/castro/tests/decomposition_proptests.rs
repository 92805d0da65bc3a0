//! Property test: a Castro advance does not depend on how the domain is
//! cut into boxes or on how many threads run the halo loop. Across
//! randomized domain sizes, box decompositions and boundary conditions the
//! decomposed `advance_level` is bit-identical, on valid zones and in the
//! timestep it estimates next, to the single-box run of the same problem —
//! a reference that shares neither the exchange plan nor the
//! interior/band face split (an outflow single box has no exchange ops at
//! all) — and, ghosts included, to itself run on one thread.

use exastro_amr::{BoxArray, DistributionMapping, Geometry, MultiFab};
use exastro_castro::{
    init_sedov, Castro, Floors, Hydro, KernelStructure, SedovParams, StateLayout,
};
use exastro_microphysics::{GammaLaw, Network};
use proptest::prelude::*;

mod common;
use common::on_one_thread;

fn sedov_state(n: i32, max_grid: i32, periodic: bool) -> (Geometry, MultiFab) {
    let geom = Geometry::cube(n, 1.0, periodic);
    let ba = BoxArray::decompose(geom.domain(), max_grid, 8);
    let dm = DistributionMapping::all_local(&ba);
    let eos = GammaLaw::monatomic();
    let layout = StateLayout::new(Network::cburn2().nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    init_sedov(&mut state, &geom, &layout, &eos, &SedovParams::default());
    (geom, state)
}

fn castro<'a>(eos: &'a GammaLaw, net: &'a Network) -> Castro<'a> {
    let mut c = Castro::new(eos, net);
    c.hydro = Hydro {
        cfl: 0.4,
        structure: KernelStructure::Flat,
        floors: Floors::dimensionless(),
    };
    c.burn = None;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn advance_is_independent_of_decomposition_and_thread_count(
        size_pick in 0u8..2,
        grid_pick in 0u8..3,
        periodic_bit in 0u8..2,
        steps in 1u32..3,
    ) {
        let n = if size_pick == 0 { 8 } else { 12 };
        // 3 cuts boxes 1–3 zones wide: narrower than the face split's band.
        let max_grid = [3, 4, 8][grid_pick as usize];
        let periodic = periodic_bit == 1;
        let (geom, mut split) = sedov_state(n, max_grid, periodic);
        let (_, mut whole) = sedov_state(n, n, periodic);
        prop_assert_eq!(whole.nfabs(), 1);
        let mut inline = split.clone();
        let eos = GammaLaw::monatomic();
        let net = Network::cburn2();
        let castro = castro(&eos, &net);

        let mut dt = castro.estimate_dt(&whole, &geom);
        for _ in 0..steps {
            let (on_pool, _) = castro.advance_level(&mut split, &geom, dt).unwrap();
            let (on_one, _) =
                on_one_thread(|| castro.advance_level(&mut inline, &geom, dt)).unwrap();
            castro.advance_level(&mut whole, &geom, dt).unwrap();
            prop_assert_eq!(on_pool.comm, on_one.comm);
            dt = castro.estimate_dt(&whole, &geom);
            prop_assert_eq!(dt.to_bits(), castro.estimate_dt(&split, &geom).to_bits());
        }

        for i in 0..split.nfabs() {
            for iv in split.valid_box(i).iter() {
                for c in 0..split.ncomp() {
                    let a = split.fab(i).get(iv, c);
                    let b = whole.fab(0).get(iv, c);
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "fab {} {:?} comp {}: {} decomposed vs {} single-box",
                        i, iv, c, a, b
                    );
                }
            }
            let (a, b) = (split.fab(i).data(), inline.fab(i).data());
            prop_assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "fab {} differs between the pool and one thread on its grown box",
                i
            );
        }
    }
}
