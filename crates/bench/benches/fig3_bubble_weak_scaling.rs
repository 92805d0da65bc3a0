//! **Figure 3**: MAESTROeX reacting-bubble weak scaling on the simulated
//! Summit, plus a real single-box low-Mach step (projection + burn) to
//! validate the phase anatomy the model assumes.

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_amr::{BoxArray, DistStrategy, DistributionMapping, Geometry, IndexBox, MultiFab};
use exastro_bench::{write_bench_json, BenchPoint};
use exastro_machine::{bubble_point, bubble_series, bubble_series_overlapped, Machine};
use exastro_maestro::{bubble_maestro, init_bubble, BubbleParams, LmLayout};
use exastro_microphysics::{Network, StellarEos};

fn print_figure() {
    let m = Machine::summit();
    println!("\n=== Figure 3: Weak scaling of MAESTROeX reacting bubble (modeled) ===");
    println!(
        "{:>6} {:>10} {:>11} {:>12} {:>12} {:>9}",
        "nodes", "zones/µs", "normalized", "react [µs]", "mgrid [µs]", "mg/react"
    );
    let mut points = Vec::new();
    for p in bubble_series(&m, &[1, 8, 27, 64, 125]) {
        println!(
            "{:>6} {:>10.2} {:>11.3} {:>12.0} {:>12.0} {:>9.2}",
            p.nodes,
            p.throughput,
            p.normalized,
            p.react_us,
            p.multigrid_us,
            p.multigrid_us / p.react_us
        );
        points.push(BenchPoint::modeled(
            "bubble",
            p.nodes,
            p.throughput,
            p.normalized,
        ));
    }
    println!("\nwith task-graph overlapped exchange:");
    for p in bubble_series_overlapped(&m, &[1, 8, 27, 64, 125]) {
        println!(
            "{:>6} {:>10.2} {:>11.3} {:>12.0} {:>12.0} {:>9.2}",
            p.nodes,
            p.throughput,
            p.normalized,
            p.react_us,
            p.multigrid_us,
            p.multigrid_us / p.react_us
        );
        points.push(BenchPoint::modeled(
            "bubble_overlapped",
            p.nodes,
            p.throughput,
            p.normalized,
        ));
    }
    match write_bench_json("fig3", &points) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nBENCH_fig3.json not written: {e}"),
    }
    println!("\npaper: 11 zones/µs at 1 node (~20× CPU); reactions ≈ multigrid at 1 node;");
    println!("multigrid ≈ 6× reactions at 125 nodes\n");
}

fn bench(c: &mut Criterion) {
    print_figure();

    // Real solver micro-reference: one low-Mach step on a 16³ bubble.
    static EOS: StellarEos = StellarEos;
    let net = Box::leak(Box::new(Network::cburn2()));
    let geom = Geometry::new(
        IndexBox::cube(16),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        exastro_amr::CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::new(&ba, 1, DistStrategy::Sfc);
    let layout = LmLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
    let base = init_bubble(
        &mut state,
        &geom,
        &layout,
        &EOS,
        net,
        &BubbleParams::default(),
    );
    let maestro = bubble_maestro(&EOS, net, base);

    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    g.bench_function("lowmach_step_16cubed", |b| {
        b.iter(|| {
            let mut s = state.clone();
            std::hint::black_box(maestro.advance(&mut s, &geom, 1e-3))
        })
    });
    let m = Machine::summit();
    g.bench_function("simulate_125_node_point", |b| {
        b.iter(|| std::hint::black_box(bubble_point(&m, 125, None)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
