//! The reacting Castro level that the burn-sweep pin and the schedule test
//! share.

use exastro_amr::{BoxArray, Geometry, MultiFab};
use exastro_castro::{burn_state, BurnOptions, BurnStats, StateLayout};
use exastro_microphysics::{BurnFailure, BurnFaultConfig, CBurn2, StellarEos};
use exastro_parallel::ExecSpace;

/// An 8³ carbon level in eight 4³ boxes for `castro::burn_state`: the
/// `i = 0` plane is too cold to burn, the `j = 0` plane too thin, and the
/// rest burns, hotter and denser along the diagonal.
pub fn reacting_level() -> (Geometry, MultiFab, StateLayout) {
    let geom = Geometry::cube(8, 1e8, false);
    let layout = StateLayout::new(2);
    let ba = BoxArray::decompose(geom.domain(), 4, 4);
    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
    assert_eq!(state.nfabs(), 8);
    for f in 0..state.nfabs() {
        for iv in state.valid_box(f).iter() {
            let (i, j, k) = (iv[0] as f64, iv[1] as f64, iv[2] as f64);
            let t = if iv[0] == 0 {
                1e7
            } else {
                1.5e9 + 1e8 * (i + j)
            };
            let rho = if iv[1] == 0 { 1e2 } else { 1e7 * (1.0 + k) };
            let fab = state.fab_mut(f);
            fab.set(iv, StateLayout::RHO, rho);
            fab.set(iv, StateLayout::TEMP, t);
            fab.set(iv, layout.spec(0), 0.7 * rho);
            fab.set(iv, layout.spec(1), 0.3 * rho);
            fab.set(iv, StateLayout::EINT, rho * 1e17);
            fab.set(iv, StateLayout::EDEN, rho * 1.5e17);
        }
    }
    (geom, state, layout)
}

/// One burn sweep over the reacting level with `faults` injected.
pub fn burn_reacting_level(
    faults: BurnFaultConfig,
) -> (MultiFab, Result<BurnStats, Vec<BurnFailure>>) {
    let (geom, mut state, layout) = reacting_level();
    let (net, eos) = (CBurn2::new(), StellarEos);
    let opts = BurnOptions {
        faults: Some(faults),
        ..Default::default()
    };
    let res = burn_state(
        &mut state,
        1e-8,
        &net,
        &eos,
        &layout,
        &opts,
        &ExecSpace::Serial,
        &geom,
    );
    (state, res)
}
