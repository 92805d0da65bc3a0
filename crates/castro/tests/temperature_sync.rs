//! The post-hydro EOS re-sync and the validator that follows it: what they
//! cost in EOS evaluations (exact counts, so host speed does not matter),
//! that the pointwise kernel gives the answers of the per-zone loop it
//! replaced, and that neither depends on how many threads ran it.

use exastro_amr::{BoxArray, DistributionMapping, Geometry, IndexBox, IntVect, MultiFab, Real};
use exastro_castro::{
    cons_to_prim, init_collision, init_sedov, Castro, CollisionParams, Floors, Gravity,
    GravityMode, SedovParams, StateLayout, StateViolation,
};
use exastro_microphysics::{
    Composition, DensityStage, Eos, EosResult, GammaLaw, Network, StellarEos,
};
use std::sync::atomic::{AtomicU64, Ordering};

mod common;
use common::on_one_thread;

/// An EOS that counts its evaluations — `eval_rt` calls and temperature
/// stages — and, apart, its density stages.
struct Counting<E> {
    inner: E,
    evals: AtomicU64,
    densities: AtomicU64,
}

impl<E> Counting<E> {
    fn new(inner: E) -> Self {
        Counting {
            inner,
            evals: AtomicU64::new(0),
            densities: AtomicU64::new(0),
        }
    }

    /// Evaluations since the last call.
    fn take(&self) -> u64 {
        self.evals.swap(0, Ordering::Relaxed)
    }

    /// Density stages since the last call.
    fn take_densities(&self) -> u64 {
        self.densities.swap(0, Ordering::Relaxed)
    }
}

impl<E: Eos> Eos for Counting<E> {
    fn eval_rt(&self, rho: f64, t: f64, comp: &Composition) -> EosResult {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.eval_rt(rho, t, comp)
    }

    fn density_stage(&self, rho: f64, comp: &Composition) -> DensityStage {
        self.densities.fetch_add(1, Ordering::Relaxed);
        self.inner.density_stage(rho, comp)
    }

    fn temperature_stage(
        &self,
        rho: f64,
        t: f64,
        comp: &Composition,
        d: &DensityStage,
    ) -> EosResult {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.temperature_stage(rho, t, comp, d)
    }
}

/// A dimensionless Sedov driver and its initial state: `n`³ zones in boxes
/// of at most `max_box`.
fn sedov<'a>(
    eos: &'a dyn Eos,
    gamma_law: &GammaLaw,
    net: &'a Network,
    n: i32,
    max_box: i32,
) -> (Castro<'a>, Geometry, MultiFab) {
    let geom = Geometry::cube(n, 1.0, false);
    let ba = BoxArray::decompose(geom.domain(), max_box, 4);
    let dm = DistributionMapping::all_local(&ba);
    let mut castro = Castro::new(eos, net);
    castro.hydro.cfl = 0.4;
    castro.hydro.floors = Floors::dimensionless();
    let mut state = MultiFab::new(ba, dm, castro.layout.ncomp(), 2);
    init_sedov(
        &mut state,
        &geom,
        &castro.layout,
        gamma_law,
        &SedovParams::default(),
    );
    (castro, geom, state)
}

/// A white-dwarf collision driver on 16³ zones in eight boxes of 8³, and
/// its initial state.
fn collision<'a>(eos: &'a dyn Eos, net: &'a Network) -> (Castro<'a>, Geometry, MultiFab) {
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
        exastro_amr::CoordSys::Cartesian,
    );
    let mut castro = Castro::new(eos, net);
    castro.hydro.cfl = 0.2;
    castro.gravity = Gravity {
        mode: GravityMode::Monopole,
        n_bins: 256,
    };
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, castro.layout.ncomp(), 2);
    init_collision(&mut state, &geom, &castro.layout, eos, net, &params);
    (castro, geom, state)
}

/// Take `steps` full steps, then the hydro of one more: the state the
/// re-sync meets inside a step.
fn advance_to_post_hydro(castro: &Castro, geom: &Geometry, state: &mut MultiFab, steps: usize) {
    for _ in 0..steps {
        let dt = castro.estimate_dt(state, geom);
        castro.advance_level(state, geom, dt).unwrap();
    }
    let dt = castro.estimate_dt(state, geom);
    castro.hydro.advance(
        state,
        dt,
        geom,
        &castro.layout,
        castro.eos,
        castro.net.species(),
        &castro.bc,
        &castro.ex,
        castro.arena.as_ref(),
    );
}

/// The per-zone loop `sync_temperature` replaced, kept as the oracle:
/// `cons_to_prim` for (ρ, e), heap-staged species, and a Newton seed
/// floored at `seed_floor` (it was the literal `1e3`).
fn reference_sync(castro: &Castro, state: &mut MultiFab, seed_floor: Real) {
    let layout = castro.layout;
    let floors = castro.hydro.floors;
    let species = castro.net.species();
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        let fab = state.fab_mut(i);
        for iv in vb.iter() {
            let u: Vec<Real> = (0..layout.ncomp()).map(|c| fab.get(iv, c)).collect();
            let q = cons_to_prim(&u, &layout, castro.eos, species, &floors);
            let rho = q.rho;
            let mut xsum = 0.0;
            for s in 0..layout.nspec {
                xsum += (fab.get(iv, layout.spec(s)) / rho).max(0.0);
            }
            if xsum > 0.0 {
                for s in 0..layout.nspec {
                    let x = (fab.get(iv, layout.spec(s)) / rho).max(0.0) / xsum;
                    fab.set(iv, layout.spec(s), rho * x);
                }
            }
            let x: Vec<Real> = (0..layout.nspec)
                .map(|s| fab.get(iv, layout.spec(s)) / rho)
                .collect();
            let comp = Composition::from_mass_fractions(species, &x);
            let seed = fab.get(iv, StateLayout::TEMP).max(seed_floor);
            let (t, _) = castro.eos.t_from_e(rho, q.e, &comp, seed);
            fab.set(iv, StateLayout::TEMP, t.max(floors.small_temp));
            fab.set(iv, StateLayout::EINT, rho * q.e);
        }
    }
}

/// Every valid-zone value of `a` and `b` has the same bits.
fn assert_bitwise_equal(a: &MultiFab, b: &MultiFab) {
    assert_eq!(a.nfabs(), b.nfabs());
    for i in 0..a.nfabs() {
        for iv in a.valid_box(i).iter() {
            for c in 0..a.ncomp() {
                let (va, vb) = (a.fab(i).get(iv, c), b.fab(i).get(iv, c));
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "fab {i} {iv:?} comp {c}: {va:e} vs {vb:e}"
                );
            }
        }
    }
}

#[test]
fn resync_costs_at_most_two_eos_evaluations_per_zone() {
    let eos = Counting::new(GammaLaw::monatomic());
    let net = Network::cburn2();
    let (castro, geom, mut state) = sedov(&eos, &eos.inner, &net, 24, 12);
    advance_to_post_hydro(&castro, &geom, &mut state, 5);
    eos.take();
    castro.sync_temperature(&mut state);
    let (evals, n) = (eos.take(), state.box_array().total_zones() as u64);
    // One evaluation where the seed already solves the zone, two where
    // hydro moved the energy; only the shock front's few zones take more.
    assert!(evals >= n, "every zone is solved: {evals} evals, {n} zones");
    assert!(
        evals <= 2 * n,
        "{evals} EOS evaluations for {n} zones ({:.1} per zone)",
        evals as f64 / n as f64
    );
}

#[test]
fn one_sedov_hydro_advance_takes_a_pinned_number_of_eos_evaluations() {
    // Three sweeps' primitives on every valid zone and its two swept ghost
    // slabs, each an inversion seeded with the zone's temperature. The count
    // was taken from the per-zone kernels the row kernels replaced: a lane
    // that has converged, or that lies past its row's end, evaluates nothing.
    let eos = Counting::new(GammaLaw::monatomic());
    let net = Network::cburn2();
    let (castro, geom, mut state) = sedov(&eos, &eos.inner, &net, 24, 12);
    for _ in 0..2 {
        let dt = castro.estimate_dt(&state, &geom);
        castro.advance_level(&mut state, &geom, dt).unwrap();
    }
    let dt = castro.estimate_dt(&state, &geom);
    eos.take();
    eos.take_densities();
    castro.hydro.advance(
        &mut state,
        dt,
        &geom,
        &castro.layout,
        castro.eos,
        castro.net.species(),
        &castro.bc,
        &castro.ex,
        castro.arena.as_ref(),
    );
    // 3 sweeps × 8 boxes × (12³ + 2·2·12²) = 55 296 inversions.
    assert_eq!(eos.take(), 57_192);
    assert_eq!(eos.take_densities(), 55_296);
}

#[test]
fn a_stellar_inversion_takes_one_density_stage_per_solved_zone() {
    // The white-dwarf collision's hydro advance and re-sync: every
    // inversion takes its density stage once, however many temperature
    // iterates it runs, so the count is the geometry's.
    let eos = Counting::new(StellarEos);
    let net = Network::cburn2();
    let (castro, geom, mut state) = collision(&eos, &net);
    let dt = castro.estimate_dt(&state, &geom);
    castro.advance_level(&mut state, &geom, dt).unwrap();
    let dt = castro.estimate_dt(&state, &geom);
    eos.take();
    eos.take_densities();
    castro.hydro.advance(
        &mut state,
        dt,
        &geom,
        &castro.layout,
        castro.eos,
        castro.net.species(),
        &castro.bc,
        &castro.ex,
        castro.arena.as_ref(),
    );
    // 3 sweeps × 8 boxes × (8³ + 2·2·8²) = 18 432 inversions.
    assert_eq!(eos.take_densities(), 18_432);
    assert!(eos.take() > 18_432, "some zone iterates");
    castro.sync_temperature(&mut state);
    let n = state.box_array().total_zones() as u64;
    assert_eq!(eos.take_densities(), n);
    assert!(eos.take() > n, "some zone iterates");
}

#[test]
fn cons_to_prim_costs_one_evaluation_from_a_converged_seed() {
    fn check<E: Eos>(eos: E, rho: Real, t: Real, perturbed_budget: Option<u64>) {
        let eos = Counting::new(eos);
        let net = Network::cburn2();
        let layout = StateLayout::new(net.nspec());
        let x = [0.75, 0.25];
        let comp = Composition::from_mass_fractions(net.species(), &x);
        let e = eos.inner.eval_rt(rho, t, &comp).e;
        let vel = [3.0e-1, -1.0e-1, 2.0e-1];
        let ke = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let mut u = vec![0.0; layout.ncomp()];
        u[StateLayout::RHO] = rho;
        for d in 0..3 {
            u[layout.mom(d)] = rho * vel[d];
        }
        u[StateLayout::EDEN] = rho * (e + ke);
        u[StateLayout::EINT] = rho * e;
        u[StateLayout::TEMP] = t;
        u[layout.spec(0)] = rho * x[0];
        u[layout.spec(1)] = rho * x[1];
        let floors = Floors::dimensionless();
        cons_to_prim(&u, &layout, &eos, net.species(), &floors);
        assert_eq!(eos.take(), 1, "a converged seed is one evaluation");
        if let Some(budget) = perturbed_budget {
            u[StateLayout::EDEN] = rho * (1.01 * e + ke);
            cons_to_prim(&u, &layout, &eos, net.species(), &floors);
            let evals = eos.take();
            assert!(evals <= budget, "{evals} evaluations after a 1 % change");
        }
    }
    // e is linear in T for a gamma law: one Newton step lands on it.
    check(GammaLaw::monatomic(), 1.0, 1e-12, Some(2));
    check(StellarEos, 2e7, 1e8, None);
}

#[test]
fn resync_matches_the_per_zone_formula_bit_for_bit() {
    // White-dwarf collision: every T ≥ 1e3, where the old literal seed
    // floor and the new one pick the same seed, but for a few near-vacuum
    // zones pinned at `small_temp`, which either seed falls back to.
    let eos = StellarEos;
    let net = Network::cburn2();
    let (castro, geom, mut state) = collision(&eos, &net);
    advance_to_post_hydro(&castro, &geom, &mut state, 2);
    let small_temp = castro.hydro.floors.small_temp;
    for i in 0..state.nfabs() {
        for iv in state.valid_box(i).iter() {
            let t = state.fab(i).get(iv, StateLayout::TEMP);
            assert!(t >= 1e3 || t == small_temp, "{iv:?}: T = {t:e}");
        }
    }
    let mut expect = state.clone();
    reference_sync(&castro, &mut expect, 1e3);
    castro.sync_temperature(&mut state);
    assert_bitwise_equal(&state, &expect);

    // Dimensionless Sedov: the same formula once the reference is given
    // the seed floor the kernel uses.
    let eos = GammaLaw::monatomic();
    let (castro, geom, mut state) = sedov(&eos, &eos, &net, 24, 12);
    advance_to_post_hydro(&castro, &geom, &mut state, 5);
    let mut expect = state.clone();
    reference_sync(&castro, &mut expect, castro.hydro.floors.small_temp);
    castro.sync_temperature(&mut state);
    assert_bitwise_equal(&state, &expect);
}

#[test]
fn resync_seed_moves_the_temperature_by_less_than_the_solver_tolerance() {
    let eos = GammaLaw::monatomic();
    let net = Network::cburn2();
    let (castro, geom, mut state) = sedov(&eos, &eos, &net, 24, 12);
    advance_to_post_hydro(&castro, &geom, &mut state, 5);
    let mut old_seed = state.clone();
    reference_sync(&castro, &mut old_seed, 1e3);
    castro.sync_temperature(&mut state);
    for i in 0..state.nfabs() {
        for iv in state.valid_box(i).iter() {
            let t_new = state.fab(i).get(iv, StateLayout::TEMP);
            let t_old = old_seed.fab(i).get(iv, StateLayout::TEMP);
            assert!(
                (t_new / t_old - 1.0).abs() <= 1e-9,
                "{iv:?}: T = {t_new:e} from the zone's own seed, {t_old:e} from 1e3"
            );
        }
    }
}

#[test]
fn resync_on_the_pool_equals_resync_on_one_thread() {
    let eos = GammaLaw::monatomic();
    let net = Network::cburn2();
    let (castro, geom, mut pooled) = sedov(&eos, &eos, &net, 32, 8);
    assert_eq!(pooled.nfabs(), 64);
    advance_to_post_hydro(&castro, &geom, &mut pooled, 3);
    let mut inline = pooled.clone();
    castro.sync_temperature(&mut pooled);
    on_one_thread(|| castro.sync_temperature(&mut inline));
    assert_bitwise_equal(&pooled, &inline);
}

#[test]
fn validator_reports_the_first_violation_in_sweep_order_on_any_thread_count() {
    let eos = GammaLaw::monatomic();
    let net = Network::cburn2();
    let (castro, _geom, mut state) = sedov(&eos, &eos, &net, 16, 8);
    assert_eq!(state.nfabs(), 8);
    let tol = castro.recovery.species_tol;
    assert_eq!(castro.validate_state(&state, tol), Ok(()));
    // A later fab breaks in its first zone, an earlier fab in its last.
    let late = state.valid_box(5).lo();
    state.fab_mut(5).set(late, StateLayout::EDEN, Real::NAN);
    let early: IntVect = state.valid_box(2).hi();
    state.fab_mut(2).set(early, StateLayout::RHO, -1.0);
    let expect = Err(StateViolation::NegativeDensity {
        rho: -1.0,
        zone: early,
    });
    assert_eq!(castro.validate_state(&state, tol), expect);
    assert_eq!(on_one_thread(|| castro.validate_state(&state, tol)), expect);
}

#[test]
fn validator_names_every_violation_it_checks() {
    let eos = GammaLaw::monatomic();
    let net = Network::cburn2();
    let (castro, _geom, clean) = sedov(&eos, &eos, &net, 16, 8);
    let (layout, tol) = (castro.layout, castro.recovery.species_tol);
    let (fi, zone) = (3, clean.valid_box(3).lo() + IntVect::new(1, 2, 3));
    let at = |c| clean.fab(fi).get(zone, c);
    let (rho, x0) = (at(StateLayout::RHO), at(layout.spec(0)));
    // ΣX off by 1e-3, summed as the validator sums it.
    let drifted = x0 + 1e-3 * rho;
    let mut xsum = 0.0;
    for s in 0..layout.nspec {
        let u = if s == 0 { drifted } else { at(layout.spec(s)) };
        xsum += u / rho;
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
            vec![(StateLayout::RHO, -1.0)],
            StateViolation::NegativeDensity { rho: -1.0, zone },
        ),
        (
            vec![(StateLayout::EDEN, 0.0)],
            StateViolation::NegativeEnergy { e: 0.0, zone },
        ),
        (
            vec![(StateLayout::EINT, -1e-3)],
            StateViolation::NegativeEnergy { e: -1e-3, zone },
        ),
        (
            vec![(layout.spec(0), drifted)],
            StateViolation::SpeciesDrift {
                drift: (xsum - 1.0).abs(),
                zone,
            },
        ),
        // Both in one zone: the non-finite scan runs first.
        (
            vec![(StateLayout::RHO, -1.0), nan_species],
            StateViolation::NonFinite {
                comp: layout.spec(1),
                zone,
            },
        ),
    ];
    assert_eq!(castro.validate_state(&clean, tol), Ok(()));
    for (plants, expect) in cases {
        let mut state = clean.clone();
        for &(c, v) in &plants {
            state.fab_mut(fi).set(zone, c, v);
        }
        assert_eq!(
            castro.validate_state(&state, tol),
            Err(expect),
            "{plants:?}"
        );
    }
}
