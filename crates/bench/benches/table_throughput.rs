//! **§IV in-text throughput numbers**: the zones/µs table.
//!
//! The paper reports: Castro ≈ 25 zones/µs per V100 under optimal
//! conditions; 130 zones/µs per Summit node on the canonical Sedov; the
//! MAESTROeX bubble at 11 zones/µs per node, ~20× a CPU node. This bench
//! prints the machine model's equivalents, each tagged `[modeled]`, plus
//! the *real* wall-clock throughput of the Rust kernels on the host CPU
//! for scale, tagged `[measured]`.

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_bench::{
    bench_castro, measure_throughput, sedov_fixture, write_bench_json, BenchPoint,
};
use exastro_castro::KernelStructure;
use exastro_machine::{
    bubble_point, sedov_workload, CpuNodeReference, DeviceConfig, KernelProfile, Machine,
};

fn print_table() {
    println!("\n=== §IV throughput table (zones/µs) ===");
    let m = Machine::summit();

    // Single V100, optimally fed (one big box, pure hydro).
    let v100 = DeviceConfig::v100();
    let zones = 128i64.pow(3);
    let prof = KernelProfile::new(1.2, 160); // full hydro update cost
    let t = v100.kernel_time_us(zones, &prof, 0) + 12.0 * v100.launch_overhead_us;
    println!(
        "sim V100, optimal hydro      : {:>8.1}   (paper: ~25) [modeled]",
        zones as f64 / t
    );

    // A Titan-era K20X for context: Cholla reported 7 zones/µs on Titan's
    // K20X GPUs for a similar hydro algorithm (§IV).
    let k20 = DeviceConfig::k20x();
    let tk = k20.kernel_time_us(zones, &prof, 0) + 12.0 * k20.launch_overhead_us;
    println!(
        "sim K20X, optimal hydro      : {:>8.1}   (Cholla on Titan: ~7) [modeled]",
        zones as f64 / tk
    );

    // One Summit node, canonical Sedov.
    let w = sedov_workload(&m, 1, 256, 64, 32);
    let sedov_1 = m.simulate_step(&w).throughput;
    println!("sim node, canonical Sedov    : {sedov_1:>8.1}   (paper: 130) [modeled]");

    // 512 nodes.
    let w512 = sedov_workload(&m, 512, 2048, 64, 32);
    let sedov_512 = m.simulate_step(&w512).throughput;
    println!("sim 512 nodes, Sedov         : {sedov_512:>8.1}   (paper: ~42000) [modeled]");

    // Bubble.
    let p = bubble_point(&m, 1, None);
    println!(
        "sim node, reacting bubble    : {:>8.2}   (paper: 11) [modeled]",
        p.throughput
    );

    // GPU-node vs CPU-node ratios (paper: ~20× for the bubble; hydro
    // zones/µs is "O(1)" on a CPU node).
    let cpu = CpuNodeReference::default();
    println!(
        "GPU/CPU node ratio, Sedov    : {:>8.1}   (CPU ref {:.1} zones/µs) [modeled]",
        sedov_1 / cpu.sedov_zones_per_us,
        cpu.sedov_zones_per_us
    );
    println!(
        "GPU/CPU node ratio, bubble   : {:>8.1}   (paper: ~20; CPU ref {:.2} zones/µs) [modeled]",
        p.throughput / cpu.bubble_zones_per_us,
        cpu.bubble_zones_per_us
    );

    // Real Rust kernel on this host (single core) for reference.
    let (geom, state, _layout, eos, net) = sedov_fixture(32, 32);
    let castro = bench_castro(&eos, &net, KernelStructure::Flat);
    let dt = castro.estimate_dt(&state, &geom);
    let mut s = state.clone();
    let tput = measure_throughput(geom.domain().num_zones(), || {
        castro.advance_level(&mut s, &geom, dt).unwrap();
    });
    println!(
        "host CPU core, real hydro    : {tput:>8.3}   (one core of this machine) [measured]\n"
    );

    // Machine-readable artifact: every zones/µs row keyed by node count,
    // with efficiency relative to ideal scaling off the 1-node Sedov point.
    let points = vec![
        BenchPoint::modeled("sim_v100_optimal_hydro", 1, zones as f64 / t, 1.0),
        BenchPoint::modeled("sim_k20x_optimal_hydro", 1, zones as f64 / tk, 1.0),
        BenchPoint::modeled("sim_node_canonical_sedov", 1, sedov_1, 1.0),
        BenchPoint::modeled(
            "sim_512_nodes_sedov",
            512,
            sedov_512,
            sedov_512 / (512.0 * sedov_1),
        ),
        BenchPoint::modeled("sim_node_reacting_bubble", 1, p.throughput, 1.0),
        BenchPoint::measured("host_cpu_core_real_hydro", 1, tput, 1.0),
    ];
    match write_bench_json("table", &points) {
        Ok(path) => println!("wrote {}\n", path.display()),
        Err(e) => eprintln!("BENCH_table.json not written: {e}\n"),
    }
}

fn bench(c: &mut Criterion) {
    print_table();
    let (geom, state, layout, eos, net) = sedov_fixture(32, 32);
    let _ = layout;
    let castro = bench_castro(&eos, &net, KernelStructure::Flat);
    let dt = castro.estimate_dt(&state, &geom);
    let mut g = c.benchmark_group("throughput");
    g.sample_size(10);
    g.bench_function("hydro_step_32cubed", |b| {
        b.iter(|| {
            let mut s = state.clone();
            std::hint::black_box(castro.advance_level(&mut s, &geom, dt))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
