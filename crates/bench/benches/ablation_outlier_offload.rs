//! **§VI future-work ablation**: hybrid CPU/GPU burning of outlier zones.
//!
//! "In the extreme case where one zone in a box is igniting while all of
//! the others are quiescent, the computational cost may vary by multiple
//! orders of magnitude across zones … We are currently investigating a
//! strategy that involves identifying those outlier zones … and performing
//! their ODE solves on the CPU, while the GPU handles the rest."
//!
//! The per-zone costs here are *real*: a box of quiescent carbon with a
//! hot igniting spot is burned with the actual BDF integrator, and the
//! measured per-zone step counts feed the device latency-hiding model.

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_machine::{hybrid_offload_estimate, DeviceConfig};
use exastro_microphysics::{BurnerConfig, Network, StellarEos};

/// Burn a distribution of zones and return the per-zone integrator step
/// counts (the real cost signal).
fn measured_zone_costs(hot_fraction: f64, nzones: usize) -> Vec<f64> {
    let net = Network::cburn2();
    let eos = StellarEos;
    let burner = BurnerConfig::default().build(&net, &eos);
    let cost = |t0: f64| {
        let rec = burner.burn_zone(0, 5e7, t0, &[1.0, 0.0], 1e-6).unwrap();
        rec.outcome.stats
    };
    let n_hot = ((nzones as f64) * hot_fraction).round() as usize;
    let mut costs = Vec::with_capacity(nzones);
    // One representative quiescent and one representative igniting burn;
    // replicated (every quiescent zone costs the same by construction).
    let quiet = cost(5e8);
    let hot = cost(3.2e9);
    for _ in 0..(nzones - n_hot) {
        costs.push(quiet.steps.max(1) as f64);
    }
    for _ in 0..n_hot {
        costs.push(hot.steps.max(1) as f64);
    }
    costs
}

fn print_study() {
    println!("\n=== §VI CPU-outlier-offload ablation ===");
    let v100 = DeviceConfig::v100();
    let costs = measured_zone_costs(0.002, 64 * 64 * 16);
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    let max = costs.iter().cloned().fold(0.0, f64::max);
    println!(
        "measured burn costs: mean {:.1} BDF steps/zone, outlier max {:.0} ({}× the mean)",
        mean,
        max,
        (max / mean).round()
    );
    println!(
        "{:>22} {:>14} {:>14} {:>9}",
        "outlier cutoff", "GPU-only [µs]", "hybrid [µs]", "speedup"
    );
    for cutoff in [2.0, 5.0, 10.0, 50.0] {
        let (gpu, hybrid) = hybrid_offload_estimate(&v100, &costs, cutoff, 0.05, 320);
        println!(
            "{:>18} × mean {:>14.0} {:>14.0} {:>8.2}× [modeled]",
            cutoff,
            gpu,
            hybrid,
            gpu / hybrid
        );
    }
    // Control: uniform work → no benefit.
    let uniform = vec![mean; costs.len()];
    let (gpu_u, hyb_u) = hybrid_offload_estimate(&v100, &uniform, 10.0, 0.05, 320);
    println!(
        "uniform-work control: GPU {gpu_u:.0} µs vs hybrid {hyb_u:.0} µs (speedup {:.2}× — none, as expected) [modeled]\n",
        gpu_u / hyb_u
    );
}

fn bench(c: &mut Criterion) {
    print_study();
    let v100 = DeviceConfig::v100();
    let costs = measured_zone_costs(0.002, 64 * 64 * 16);
    let mut g = c.benchmark_group("outlier_offload");
    g.sample_size(20);
    g.bench_function("estimate_sweep", |b| {
        b.iter(|| std::hint::black_box(hybrid_offload_estimate(&v100, &costs, 10.0, 0.05, 320)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
