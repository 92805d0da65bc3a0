//! **Figure 2**: Castro Sedov–Taylor weak scaling (canonical + best/worst
//! envelopes) on the simulated Summit.
//!
//! Prints the three series of the figure, then Criterion-times the 64-node
//! workload construction + simulation (the cost of one scaling data point).

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_bench::{write_bench_json, BenchPoint};
use exastro_machine::{
    canonical_series, envelope_series, overlapped_series, sedov_workload,
    sedov_workload_overlapped, Machine,
};

fn print_figure() {
    let m = Machine::summit();
    println!("\n=== Figure 2: Weak scaling of Castro Sedov (modeled) ===");
    println!("canonical (256³/node, 64³ boxes):");
    println!("{:>6} {:>12} {:>11}", "nodes", "zones/µs", "normalized");
    let mut points = Vec::new();
    for p in canonical_series(&m, &[1, 8, 64, 512]) {
        println!(
            "{:>6} {:>12.1} {:>11.3}",
            p.nodes, p.throughput, p.normalized
        );
        points.push(BenchPoint::modeled(
            "canonical",
            p.nodes,
            p.throughput,
            p.normalized,
        ));
    }
    println!("\ncanonical + task-graph overlapped exchange:");
    println!("{:>6} {:>12} {:>11}", "nodes", "zones/µs", "normalized");
    for p in overlapped_series(&m, &[1, 8, 64, 512]) {
        println!(
            "{:>6} {:>12.1} {:>11.3}",
            p.nodes, p.throughput, p.normalized
        );
        points.push(BenchPoint::modeled(
            "overlapped",
            p.nodes,
            p.throughput,
            p.normalized,
        ));
    }
    let nodes: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    let (best, worst) = envelope_series(&m, &nodes);
    println!("\nenvelopes:");
    println!("{:>6} {:>11} {:>11}", "nodes", "best", "worst");
    for (b, w) in best.iter().zip(&worst) {
        println!(
            "{:>6} {:>11.3} {:>11.3}",
            b.nodes, b.normalized, w.normalized
        );
        points.push(BenchPoint::modeled(
            "best",
            b.nodes,
            b.throughput,
            b.normalized,
        ));
        points.push(BenchPoint::modeled(
            "worst",
            w.nodes,
            w.throughput,
            w.normalized,
        ));
    }
    match write_bench_json("fig2", &points) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nBENCH_fig2.json not written: {e}"),
    }
    println!("\npaper: 130 zones/µs at 1 node; ~42000 zones/µs and ~63% efficiency at 512 nodes\n");
}

fn bench(c: &mut Criterion) {
    print_figure();
    let m = Machine::summit();
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("simulate_64_node_point", |b| {
        b.iter(|| {
            let w = sedov_workload(&m, 64, 1024, 64, 32);
            std::hint::black_box(m.simulate_step(&w))
        })
    });
    g.bench_function("simulate_64_node_point_overlapped", |b| {
        b.iter(|| {
            let w = sedov_workload_overlapped(&m, 64, 1024, 64, 32);
            std::hint::black_box(m.simulate_step(&w))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
