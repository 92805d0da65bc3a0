//! **§IV-A ablation**: GPU memory oversubscription.
//!
//! "When the dataset size is larger than the GPU's memory capacity …
//! CUDA Unified Memory can automatically handle this case … However in
//! practice the performance of this case is currently quite poor on
//! Summit." The device model prices unified-memory eviction as a bandwidth
//! collapse once the resident set exceeds capacity; this bench sweeps the
//! working set through the 16 GiB boundary.

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_machine::{DeviceConfig, KernelProfile};

fn print_sweep() {
    println!("\n=== §IV-A oversubscription sweep (modeled V100, 16 GiB) ===");
    println!(
        "{:>12} {:>10} {:>14} {:>10}",
        "resident", "fits?", "zones/µs", "slowdown"
    );
    let gpu = DeviceConfig::v100();
    let prof = KernelProfile::new(1.2, 160);
    let zones = 128i64.pow(3);
    let mut base = 0.0;
    for gib in [4u64, 8, 12, 15, 17, 24, 32] {
        let resident = gib * (1 << 30);
        let t = gpu.kernel_time_us(zones, &prof, resident);
        let tput = zones as f64 / t;
        if base == 0.0 {
            base = tput;
        }
        println!(
            "{:>9} GiB {:>10} {:>14.2} {:>9.1}× [modeled]",
            gib,
            if resident > gpu.memory_bytes {
                "evicting"
            } else {
                "yes"
            },
            tput,
            base / tput
        );
    }
    println!("(the paper declined to strong-scale for exactly this reason: only a");
    println!(" narrow range of box sizes makes sense on a GPU)\n");
}

fn bench(c: &mut Criterion) {
    print_sweep();
    let mut g = c.benchmark_group("oversubscription");
    g.sample_size(10);
    let (gpu, prof) = (DeviceConfig::v100(), KernelProfile::new(1.2, 160));
    for (name, gib) in [("fits_8GiB", 8u64), ("oversubscribed_24GiB", 24)] {
        g.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(gpu.kernel_time_us(128i64.pow(3), &prof, gib << 30)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
