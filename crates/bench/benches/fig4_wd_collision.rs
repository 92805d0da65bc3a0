//! **Figure 4**: the white-dwarf head-on collision at two resolutions.
//!
//! The paper's result: the *higher*-resolution run (contact point refined
//! 16×) ignites **earlier** than the 50-km uniform-grid run — the opposite
//! of the "maybe later ignition will save the supernova interpretation"
//! hope — and both remain numerically unresolved (burning timescale below
//! the heat-transfer timescale).
//!
//! Here the same collision is run at two uniform resolutions (the
//! substitution for 512³ + AMR, DESIGN.md): a coarse and a 2× finer grid
//! with identical physics. We report the ignition time of each, the
//! contact-region density at ignition, and the stability diagnostic.
//! Expected shape: fine ignites earlier; diagnostic ratio < 1 (unresolved).

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_amr::{BcSpec, BoxArray, DistributionMapping, Geometry, IndexBox, MultiFab};
use exastro_castro::{
    contact_diagnostics, detonation_stability, init_collision, BurnOptions, Castro,
    CollisionParams, Gravity, GravityMode, StateLayout, T_IGNITION,
};
use exastro_microphysics::{Network, StellarEos};

fn collision_params() -> CollisionParams {
    CollisionParams {
        // A faster approach than the default keeps the bench runtime sane
        // while preserving the contact-heating physics.
        v_approach: 6e8,
        separation: 3.0,
        ..Default::default()
    }
}

struct RunResult {
    ignition_time: Option<f64>,
    contact_density: f64,
    min_stability_ratio: f64,
    steps: usize,
}

fn run_collision(n: i32, max_steps: usize) -> RunResult {
    let params = collision_params();
    let half_width = 2.5 * params.radius;
    let geom = Geometry::new(
        IndexBox::cube(n),
        [-half_width; 3],
        [half_width; 3],
        [false; 3],
        exastro_amr::CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), (n / 2).max(8), 4);
    let dm = DistributionMapping::all_local(&ba);
    let eos = StellarEos;
    let net = Network::cburn2();
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    init_collision(&mut state, &geom, &layout, &eos, &net, &params);

    let mut castro = Castro::new(&eos, &net);
    castro.hydro.cfl = 0.2;
    castro.gravity = Gravity {
        mode: GravityMode::Monopole,
        n_bins: 128,
    };
    castro.burn = Some(BurnOptions {
        min_temp: 8e8,
        min_dens: 1e4,
        ..Default::default()
    });
    castro.bc = BcSpec::outflow();

    let mut t = 0.0;
    for step in 0..max_steps {
        let dt0 = castro.estimate_dt(&state, &geom);
        let (stats, dt) = castro
            .advance_level_safe(&mut state, &geom, dt0)
            .expect("collision step unrecoverable");
        t += dt;
        if stats.max_temp >= T_IGNITION {
            let d = contact_diagnostics(&state, &geom);
            let rep = detonation_stability(&state, &geom, &layout, &eos, &net, 1e14);
            return RunResult {
                ignition_time: Some(t),
                contact_density: d.max_dens,
                min_stability_ratio: rep.min_ratio,
                steps: step + 1,
            };
        }
    }
    let d = contact_diagnostics(&state, &geom);
    RunResult {
        ignition_time: None,
        contact_density: d.max_dens,
        min_stability_ratio: f64::INFINITY,
        steps: max_steps,
    }
}

fn print_figure() {
    println!("\n=== Figure 4: WD collision, ignition vs. resolution ===");
    let params = collision_params();
    let dx_of = |n: i32| 5.0 * params.radius / n as f64 / 1e5;
    let coarse = run_collision(16, 800);
    println!(
        "coarse  grid (16³, dx = {:>6.0} km): ignition t = {:?} s after {} steps; \
         contact rho = {:.2e}; min τ_burn/τ_transfer = {:.2e}",
        dx_of(16),
        coarse.ignition_time,
        coarse.steps,
        coarse.contact_density,
        coarse.min_stability_ratio
    );
    let fine = run_collision(32, 1600);
    println!(
        "refined grid (32³, dx = {:>6.0} km): ignition t = {:?} s after {} steps; \
         contact rho = {:.2e}; min τ_burn/τ_transfer = {:.2e}",
        dx_of(32),
        fine.ignition_time,
        fine.steps,
        fine.contact_density,
        fine.min_stability_ratio
    );
    match (coarse.ignition_time, fine.ignition_time) {
        (Some(tc), Some(tf)) => {
            println!(
                "\nshape check: fine/coarse ignition-time ratio = {:.3}",
                tf / tc
            );
            println!(
                "reproduced: ignition time and contact density change materially with \
                 resolution — the paper's core point that unconverged runs are \
                 qualitatively untrustworthy."
            );
            println!(
                "deviation: in the paper the 16×-refined run ignites *earlier*; at our \
                 16–32³ grids (stars ~6 zones across vs ~200 in the paper) the smeared \
                 stellar surface makes effective contact earlier on the *coarse* grid, \
                 which wins. See EXPERIMENTS.md §Fig4."
            );
        }
        _ => println!("\n(one or both runs did not ignite within the step budget)"),
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_figure();
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    // Time one coarse advance step (the unit of the study).
    let params = collision_params();
    let half_width = 2.5 * params.radius;
    let geom = Geometry::new(
        IndexBox::cube(16),
        [-half_width; 3],
        [half_width; 3],
        [false; 3],
        exastro_amr::CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::all_local(&ba);
    let eos = StellarEos;
    let net = Network::cburn2();
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    init_collision(&mut state, &geom, &layout, &eos, &net, &params);
    let mut castro = Castro::new(&eos, &net);
    castro.gravity = Gravity {
        mode: GravityMode::Monopole,
        n_bins: 128,
    };
    castro.bc = BcSpec::outflow();
    let dt = castro.estimate_dt(&state, &geom);
    g.bench_function("collision_step_16cubed", |b| {
        b.iter(|| {
            let mut s = state.clone();
            std::hint::black_box(castro.advance_level(&mut s, &geom, dt))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
