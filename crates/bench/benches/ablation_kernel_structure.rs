//! **§III ablation**: legacy (staged slope arrays) vs flat (fused per-zone
//! recompute) kernel structure.
//!
//! The paper's refactor made every kernel embarrassingly parallel by
//! recomputing slopes redundantly instead of staging them; this cut the
//! memory footprint enough to speed the code up *even on CPUs*. Here both
//! structures run the identical Sedov sweep on the identical schedule —
//! the same halo loop, the same exchange staging; only the kernels inside
//! `interior` and `band` differ — so the wall-clock Criterion reports
//! compares kernel structure and nothing else. The device model in
//! `exastro-machine` prices the GPU times (where the staged variant's
//! extra traffic and the flat variant's occupancy advantage show).

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_bench::{bench_castro, sedov_fixture};
use exastro_castro::KernelStructure;
use exastro_machine::{DeviceConfig, KernelProfile};

fn print_device_model() {
    println!("\n=== §III kernel-structure ablation (modeled V100) ===");
    let gpu = DeviceConfig::v100();
    let zones = 64i64.pow(3);
    // The flux kernel of a two-species state. Flat holds two traced states
    // plus slopes in registers (120 + 6·nspec) and pays redundant slope
    // flops; legacy holds less (80 + 4·nspec) but its extra memory traffic
    // dominates.
    let flat = KernelProfile::new(1.1, 132);
    let legacy = KernelProfile::new(1.4, 88);
    // Legacy additionally launches the slope-staging kernel and reads the
    // slope array back (extra traffic is folded into its higher cost).
    let t_flat = gpu.kernel_time_us(zones, &flat, 0) + gpu.launch_overhead_us;
    let t_legacy = 2.0 * gpu.launch_overhead_us
        + gpu.kernel_time_us(zones, &KernelProfile::new(0.5, 64), 0) // staging pass
        + gpu.kernel_time_us(zones, &legacy, 0);
    println!("flat   (fused, recompute): {t_flat:>9.1} µs per 64³ sweep [modeled]");
    println!("legacy (staged slopes)   : {t_legacy:>9.1} µs per 64³ sweep [modeled]");
    println!(
        "model speedup            : {:.2}× [modeled]\n",
        t_legacy / t_flat
    );
}

fn bench(c: &mut Criterion) {
    print_device_model();
    let (geom, state, _layout, eos, net) = sedov_fixture(32, 32);
    let mut g = c.benchmark_group("kernel_structure");
    g.sample_size(10);
    for structure in [KernelStructure::Flat, KernelStructure::Legacy] {
        let castro = bench_castro(&eos, &net, structure);
        let dt = castro.estimate_dt(&state, &geom);
        g.bench_function(format!("{structure:?}"), |b| {
            b.iter(|| {
                let mut s = state.clone();
                std::hint::black_box(castro.advance_level(&mut s, &geom, dt))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
