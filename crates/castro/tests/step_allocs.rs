//! A warm step allocates nothing large: every per-sweep array a step needs
//! — primitives, the legacy slopes, the face fluxes — is arena scratch, and
//! once the arena has seen one step it recycles every buffer it hands out.
//! At the commit before the flux arrays moved into the arena this fixture
//! made 24 heap allocations of ≈ 350 KB per step (one 17·16·16·10-value flux
//! fab per box and sweep) and `device_allocs` moved by nothing only because
//! the fluxes never reached the arena.

#[path = "../../telemetry/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_of_at_least;
use exastro_amr::{BoxArray, Geometry, MultiFab};
use exastro_castro::{init_sedov, Castro, Floors, SedovParams};
use exastro_microphysics::{GammaLaw, Network};

#[test]
fn warm_sedov_steps_make_no_large_allocation_and_no_arena_miss() {
    let eos = GammaLaw::monatomic();
    let net = Network::cburn2();
    let geom = Geometry::cube(32, 1.0, false);
    let mut castro = Castro::new(&eos, &net);
    castro.hydro.cfl = 0.4;
    castro.hydro.floors = Floors::dimensionless();
    let ba = BoxArray::decompose(geom.domain(), 16, 4);
    let mut state = MultiFab::local(ba, castro.layout.ncomp(), 2);
    assert_eq!(state.nfabs(), 8);
    init_sedov(
        &mut state,
        &geom,
        &castro.layout,
        &eos,
        &SedovParams::default(),
    );
    let step = |state: &mut MultiFab| {
        let dt = castro.estimate_dt(state, &geom);
        castro.advance_level(state, &geom, dt).unwrap();
    };
    step(&mut state); // warms the arena
    let warm = castro.arena.stats();
    let large = allocations_of_at_least(64 << 10, || {
        for _ in 0..5 {
            step(&mut state);
        }
    });
    let after = castro.arena.stats();
    assert_eq!(large, 0, "allocations of 64 KiB or more in five warm steps");
    assert_eq!(
        after.device_allocs, warm.device_allocs,
        "arena misses after the first step"
    );
    assert!(
        after.pool_hits > warm.pool_hits,
        "the scratch is still drawn from the arena"
    );
}
