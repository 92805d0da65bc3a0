//! The low-Mach post-step validator: which violation it names for each
//! planted fault, and that its answer — the first violation in sweep order
//! — does not depend on how many threads walked the fabs.

use exastro_amr::{
    BoxArray, CoordSys, DistributionMapping, Geometry, IndexBox, IntVect, MultiFab, Real,
};
use exastro_maestro::{
    bubble_maestro, init_bubble, BubbleParams, LmLayout, Maestro, StateViolation,
};
use exastro_microphysics::{Network, StellarEos};
use std::sync::OnceLock;

#[path = "../../castro/tests/common/mod.rs"]
mod common;
use common::on_one_thread;

/// The 16³ reacting bubble in eight 8³ boxes.
fn bubble() -> (Maestro<'static>, MultiFab) {
    static EOS: StellarEos = StellarEos;
    static NET: OnceLock<Network> = OnceLock::new();
    let net = NET.get_or_init(Network::cburn2);
    let geom = Geometry::new(
        IndexBox::cube(16),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let layout = LmLayout::new(2);
    let mut state = MultiFab::new(
        ba.clone(),
        DistributionMapping::all_local(&ba),
        layout.ncomp(),
        1,
    );
    let base = init_bubble(
        &mut state,
        &geom,
        &layout,
        &EOS,
        net,
        &BubbleParams::default(),
    );
    (bubble_maestro(&EOS, net, base), state)
}

#[test]
fn validator_names_every_violation_it_checks() {
    let (maestro, clean) = bubble();
    let (layout, tol) = (maestro.layout, maestro.recovery.species_tol);
    let (fi, zone) = (3, clean.valid_box(3).lo() + IntVect::new(1, 2, 3));
    let at = |c| clean.fab(fi).get(zone, c);
    // ΣX off by 1e-3, summed as the validator sums it.
    let drifted = at(layout.spec(0)) + 1e-3;
    let mut sum = 0.0;
    for s in 0..layout.nspec {
        sum += if s == 0 { drifted } else { at(layout.spec(s)) };
    }
    let nan_species = (layout.spec(1), Real::NAN);
    let cases = [
        (
            vec![nan_species],
            StateViolation::NonFinite {
                comp: layout.spec(1),
                zone,
            },
        ),
        (
            vec![(LmLayout::RHO, -1.0)],
            StateViolation::NegativeDensity { rho: -1.0, zone },
        ),
        (
            vec![(LmLayout::TEMP, 0.0)],
            StateViolation::NegativeTemperature { t: 0.0, zone },
        ),
        (
            vec![(layout.spec(0), drifted)],
            StateViolation::SpeciesDrift {
                drift: (sum - 1.0).abs(),
                zone,
            },
        ),
        // Both in one zone: the non-finite scan runs first.
        (
            vec![(LmLayout::RHO, -1.0), nan_species],
            StateViolation::NonFinite {
                comp: layout.spec(1),
                zone,
            },
        ),
    ];
    assert_eq!(maestro.validate_state(&clean, tol), Ok(()));
    for (plants, expect) in cases {
        let mut state = clean.clone();
        for &(c, v) in &plants {
            state.fab_mut(fi).set(zone, c, v);
        }
        assert_eq!(
            maestro.validate_state(&state, tol),
            Err(expect),
            "{plants:?}"
        );
    }
}

#[test]
fn validator_reports_the_first_violation_in_sweep_order_on_any_thread_count() {
    let (maestro, mut state) = bubble();
    assert_eq!(state.nfabs(), 8);
    let tol = maestro.recovery.species_tol;
    // A later fab breaks in its first zone, an earlier fab in its last.
    let late = state.valid_box(5).lo();
    state.fab_mut(5).set(late, LmLayout::TEMP, Real::NAN);
    let early = state.valid_box(2).hi();
    state.fab_mut(2).set(early, LmLayout::RHO, -1.0);
    let expect = Err(StateViolation::NegativeDensity {
        rho: -1.0,
        zone: early,
    });
    assert_eq!(maestro.validate_state(&state, tol), expect);
    assert_eq!(
        on_one_thread(|| maestro.validate_state(&state, tol)),
        expect
    );
}
