//! The accelerator cost model: the one place a GPU is priced.
//!
//! No kernel runs on a device in this reproduction — every answer is the
//! host's. A number of GPU time is a *model*: a pure function of a
//! [`DeviceConfig`] and what a launch would ask of it. The functions
//! capture the performance phenomena the paper reports:
//!
//! * **kernel launch latency** — small boxes are dominated by launch
//!   overhead ([`DeviceConfig::launch_overhead_us`]);
//! * **latency hiding / occupancy** — throughput ramps up with the number
//!   of zones in a launch and saturates near ~100³ zones (§IV-A);
//! * **register pressure** — kernels whose per-thread state exceeds the
//!   register file spill and lose occupancy (§III, §IV-B);
//! * **device allocation latency** — `cudaMalloc`/`cudaFree` are
//!   device-wide synchronizing and orders of magnitude slower than host
//!   allocation, which motivates the caching pool allocator (§III);
//! * **memory oversubscription** — once the resident set exceeds device
//!   memory, unified-memory eviction collapses effective bandwidth (§IV-A);
//! * **the D2H copy** — a checkpoint copies device-resident state to the
//!   host at [`DeviceConfig::d2h_bw_bytes_per_us`] (§III).

/// Static characteristics of a modeled accelerator.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable name for reports.
    pub name: String,
    /// Peak throughput, in zones per microsecond, for a kernel of unit
    /// [`KernelProfile::cost_per_zone`] at full occupancy.
    pub peak_zones_per_us: f64,
    /// Fixed cost per kernel launch, microseconds.
    pub launch_overhead_us: f64,
    /// Number of zones in flight at which latency hiding reaches 50% of peak.
    /// Saturation follows `n / (n + half)`, so ~`9 * half` zones reach 90%.
    pub half_occupancy_zones: f64,
    /// Registers available per thread (255 on Volta).
    pub register_file: u32,
    /// Device memory capacity in bytes (16 GiB HBM2 on the Summit V100s).
    pub memory_bytes: u64,
    /// Multiplicative slowdown applied to kernels while the resident set
    /// exceeds `memory_bytes` (unified-memory eviction thrash).
    pub oversubscription_penalty: f64,
    /// Latency of a device memory allocation, microseconds. Device-wide
    /// synchronizing, like `cudaMalloc`.
    pub alloc_latency_us: f64,
    /// Latency of a device memory free, microseconds. Also synchronizing.
    pub free_latency_us: f64,
    /// Device→host copy bandwidth, bytes per microsecond. Checkpointing is
    /// one of the two host↔device crossings the paper's design permits
    /// (§III); this prices it.
    pub d2h_bw_bytes_per_us: f64,
}

impl DeviceConfig {
    /// A Summit-like V100: calibrated so that a well-tuned pure-hydro
    /// workload lands near the paper's ~25 zones/µs per GPU and a 6-GPU node
    /// reaches ~130 zones/µs on the Sedov problem (there the unit-cost
    /// reference kernel is cheaper than the full Castro update).
    pub fn v100() -> Self {
        DeviceConfig {
            name: "SimV100".to_string(),
            peak_zones_per_us: 30.0,
            launch_overhead_us: 5.0,
            half_occupancy_zones: 40_000.0,
            register_file: 255,
            memory_bytes: 16 * (1 << 30),
            oversubscription_penalty: 20.0,
            alloc_latency_us: 150.0,
            free_latency_us: 100.0,
            // NVLink2 CPU↔GPU: ~50 GB/s per direction.
            d2h_bw_bytes_per_us: 50_000.0,
        }
    }

    /// A Titan-era K20X: lower peak, much smaller register file headroom in
    /// practice (the paper's early OpenACC attempts failed on this part).
    pub fn k20x() -> Self {
        DeviceConfig {
            name: "SimK20X".to_string(),
            peak_zones_per_us: 7.0,
            launch_overhead_us: 8.0,
            half_occupancy_zones: 60_000.0,
            register_file: 255,
            memory_bytes: 6 * (1 << 30),
            oversubscription_penalty: 30.0,
            alloc_latency_us: 250.0,
            free_latency_us: 150.0,
            // PCIe gen2 x16: ~6 GB/s effective.
            d2h_bw_bytes_per_us: 6_000.0,
        }
    }

    /// Occupancy (0..1] of a launch of `zones` zones with the given
    /// register demand: latency hiding `n / (n + half)`, derated by
    /// `register_file / registers_per_thread` when the demand spills.
    pub fn occupancy(&self, zones: i64, registers_per_thread: u32) -> f64 {
        let n = zones.max(0) as f64;
        let latency_hiding = n / (n + self.half_occupancy_zones);
        let spill = if registers_per_thread > self.register_file {
            self.register_file as f64 / registers_per_thread as f64
        } else {
            1.0
        };
        latency_hiding * spill
    }

    /// Modeled execution time in microseconds of a launch of `zones` zones,
    /// excluding launch overhead, while `resident_bytes` are allocated on
    /// the device (above `memory_bytes` every kernel pays the
    /// oversubscription penalty).
    pub fn kernel_time_us(&self, zones: i64, profile: &KernelProfile, resident_bytes: u64) -> f64 {
        let occ = self.occupancy(zones, profile.registers_per_thread);
        let oversub = if resident_bytes > self.memory_bytes {
            self.oversubscription_penalty
        } else {
            1.0
        };
        if zones <= 0 {
            return 0.0;
        }
        (zones as f64) * profile.cost_per_zone * oversub / (self.peak_zones_per_us * occ.max(1e-12))
    }
}

/// Per-kernel cost characteristics of a launch.
#[derive(Clone, Copy, Debug)]
pub struct KernelProfile {
    /// Relative arithmetic/memory cost per zone; 1.0 is a simple stencil
    /// update. The nuclear-network integrator is far more expensive.
    pub cost_per_zone: f64,
    /// Per-thread register demand. Exceeding the register file causes
    /// spilling and a proportional throughput derating.
    pub registers_per_thread: u32,
}

impl Default for KernelProfile {
    fn default() -> Self {
        KernelProfile {
            cost_per_zone: 1.0,
            registers_per_thread: 128,
        }
    }
}

impl KernelProfile {
    /// Convenience constructor.
    pub fn new(cost_per_zone: f64, registers_per_thread: u32) -> Self {
        KernelProfile {
            cost_per_zone,
            registers_per_thread,
        }
    }
}

/// Modeled device time (µs) of one burn launch over zones costing
/// `zone_costs`, GPU-only and in the §VI hybrid strategy that sends the
/// outliers above `cutoff × mean cost` to the host CPU, which burns
/// `cpu_zone_rate_per_us` cost units a microsecond concurrently with the
/// GPU bulk. Returns `(gpu_only_us, hybrid_us)`.
pub fn hybrid_offload_estimate(
    gpu: &DeviceConfig,
    zone_costs: &[f64],
    cutoff: f64,
    cpu_zone_rate_per_us: f64,
    registers: u32,
) -> (f64, f64) {
    let n = zone_costs.len() as f64;
    if zone_costs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = zone_costs.iter().sum::<f64>() / n;
    let max = zone_costs.iter().cloned().fold(0.0, f64::max);
    // GPU-only: the whole launch is gated by the slowest warp → effective
    // per-zone cost approaches the max for strong outliers.
    let gpu_cost = mean + (max - mean) * 0.5; // partial latency hiding
    let gpu_only = gpu.kernel_time_us(
        zone_costs.len() as i64,
        &KernelProfile::new(gpu_cost, registers),
        0,
    ) + gpu.launch_overhead_us;
    // Hybrid: outliers to the CPU, the rest keeps a uniform cost profile.
    let threshold = cutoff * mean;
    let (outliers, bulk): (Vec<f64>, Vec<f64>) =
        zone_costs.iter().copied().partition(|&c| c > threshold);
    let bulk_mean = if bulk.is_empty() {
        0.0
    } else {
        bulk.iter().sum::<f64>() / bulk.len() as f64
    };
    let bulk_max = bulk.iter().cloned().fold(0.0, f64::max);
    let gpu_part = gpu.kernel_time_us(
        bulk.len() as i64,
        &KernelProfile::new(bulk_mean + (bulk_max - bulk_mean) * 0.5, registers),
        0,
    ) + gpu.launch_overhead_us;
    // CPU does the outliers concurrently with the GPU bulk.
    let cpu_part = outliers.iter().sum::<f64>() / cpu_zone_rate_per_us;
    let hybrid = gpu_part.max(cpu_part);
    (gpu_only, hybrid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_ramps_and_saturates() {
        let d = DeviceConfig::v100();
        let small = d.occupancy(1_000, 128);
        let medium = d.occupancy(64 * 64 * 64, 128);
        let large = d.occupancy(1_000_000, 128);
        assert!(small < medium && medium < large);
        assert!(large > 0.9, "1M zones should be near saturation: {large}");
        assert!(small < 0.05, "1k zones should be latency-bound: {small}");
    }

    #[test]
    fn register_spill_derates() {
        let d = DeviceConfig::v100();
        let ok = d.occupancy(1_000_000, 255);
        let spill = d.occupancy(1_000_000, 510);
        assert!((spill / ok - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oversubscription_penalty_applies() {
        let d = DeviceConfig::v100();
        let p = KernelProfile::default();
        let t_fit = d.kernel_time_us(1_000_000, &p, d.memory_bytes);
        let t_over = d.kernel_time_us(1_000_000, &p, 17 * (1 << 30)); // > 16 GiB
        assert!((t_over / t_fit - d.oversubscription_penalty).abs() < 1e-9);
    }

    #[test]
    fn hybrid_offload_wins_with_strong_outliers() {
        let gpu = DeviceConfig::v100();
        // 100k quiescent zones at cost 1, 100 igniting zones at cost 1000.
        let mut costs = vec![1.0; 100_000];
        costs.extend(vec![1000.0; 100]);
        let (gpu_only, hybrid) = hybrid_offload_estimate(&gpu, &costs, 10.0, 0.05, 320);
        assert!(
            hybrid < gpu_only,
            "hybrid {hybrid} µs should beat GPU-only {gpu_only} µs"
        );
        // Uniform work: offloading should NOT help.
        let uniform = vec![1.0; 100_000];
        let (gpu_u, hybrid_u) = hybrid_offload_estimate(&gpu, &uniform, 10.0, 0.05, 320);
        assert!((hybrid_u / gpu_u - 1.0).abs() < 0.05);
    }
}
