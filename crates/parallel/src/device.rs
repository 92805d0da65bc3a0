//! A simulated accelerator ("device") standing in for the NVIDIA V100 GPUs of
//! Summit.
//!
//! Physics kernels always execute for real on the host — the *answers* are
//! real. The device observes launches instead of running them: a launch on
//! an [`crate::exec::ExecSpace::Device`] space is charged, through
//! [`crate::exec::ExecSpace::charge`], a calibrated analytic cost on a set of
//! per-stream clocks. The cost model captures the performance phenomena the
//! paper reports:
//!
//! * **kernel launch latency** — small boxes are dominated by launch overhead;
//! * **latency hiding / occupancy** — throughput ramps up with the number of
//!   zones in a launch and saturates near ~100³ zones (§IV-A);
//! * **register pressure** — kernels whose per-thread state exceeds the
//!   register file spill and lose occupancy (§III, §IV-B);
//! * **device allocation latency** — `cudaMalloc`/`cudaFree` are device-wide
//!   synchronizing and orders of magnitude slower than host allocation, which
//!   motivates the caching pool allocator (§III);
//! * **memory oversubscription** — once the working set exceeds device memory,
//!   unified-memory eviction collapses effective bandwidth (§IV-A).

use std::sync::{Arc, Mutex};

/// Static characteristics of a simulated accelerator.
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
    /// Number of concurrent streams (work queues).
    pub num_streams: usize,
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
            num_streams: 4,
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
            num_streams: 2,
            alloc_latency_us: 250.0,
            free_latency_us: 150.0,
            // PCIe gen2 x16: ~6 GB/s effective.
            d2h_bw_bytes_per_us: 6_000.0,
        }
    }
}

/// Per-kernel cost characteristics supplied at launch time.
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

/// Aggregate execution statistics for a device.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceStats {
    /// Kernels launched.
    pub kernels: u64,
    /// Total zones processed across all launches.
    pub zones: u64,
    /// Device allocations performed (these are what the pool allocator
    /// eliminates).
    pub allocs: u64,
    /// Device frees performed.
    pub frees: u64,
    /// Bytes currently resident.
    pub bytes_resident: u64,
    /// Peak resident bytes.
    pub bytes_peak: u64,
    /// Simulated microseconds spent in kernel execution (sum over streams).
    pub kernel_us: f64,
    /// Simulated microseconds spent in allocation/free synchronization.
    pub alloc_us: f64,
    /// Device→host copies performed (checkpoint traffic).
    pub d2h_copies: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Simulated microseconds spent in device→host copies.
    pub d2h_us: f64,
}

/// The host↔device traffic summary the examples print under the region
/// table (checkpoint D2H copies, bytes, simulated copy time).
impl std::fmt::Display for DeviceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} D2H copies, {:.2} MB, {:.1} simulated us",
            self.d2h_copies,
            self.d2h_bytes as f64 / 1e6,
            self.d2h_us
        )
    }
}

#[derive(Debug)]
struct DeviceState {
    /// Completion time of the work queued on each stream, in simulated µs.
    stream_clock: Vec<f64>,
    next_stream: usize,
    stats: DeviceStats,
}

/// The simulated accelerator. Cheap to share: clone the [`Arc`].
#[derive(Debug)]
pub struct SimDevice {
    config: DeviceConfig,
    state: Mutex<DeviceState>,
}

impl SimDevice {
    /// Create a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Arc<Self> {
        let ns = config.num_streams.max(1);
        Arc::new(SimDevice {
            config,
            state: Mutex::new(DeviceState {
                stream_clock: vec![0.0; ns],
                next_stream: 0,
                stats: DeviceStats::default(),
            }),
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Occupancy (0..1] achieved by a launch of `zones` zones with the given
    /// register demand.
    pub fn occupancy(&self, zones: i64, registers_per_thread: u32) -> f64 {
        let n = zones.max(0) as f64;
        let latency_hiding = n / (n + self.config.half_occupancy_zones);
        let spill = if registers_per_thread > self.config.register_file {
            self.config.register_file as f64 / registers_per_thread as f64
        } else {
            1.0
        };
        latency_hiding * spill
    }

    /// Simulated execution time in microseconds for a launch, excluding
    /// launch overhead.
    pub fn kernel_time_us(&self, zones: i64, profile: &KernelProfile) -> f64 {
        let occ = self.occupancy(zones, profile.registers_per_thread);
        let oversub = {
            let st = self.state.lock().unwrap();
            if st.stats.bytes_resident > self.config.memory_bytes {
                self.config.oversubscription_penalty
            } else {
                1.0
            }
        };
        if zones <= 0 {
            return 0.0;
        }
        (zones as f64) * profile.cost_per_zone * oversub
            / (self.config.peak_zones_per_us * occ.max(1e-12))
    }

    /// Record a kernel launch of `zones` zones on the next stream
    /// (round-robin, mirroring AMReX's stream-per-box iteration). Returns the
    /// simulated duration charged, including launch overhead.
    pub fn launch(&self, zones: i64, profile: &KernelProfile) -> f64 {
        let t = self.config.launch_overhead_us + self.kernel_time_us(zones, profile);
        let mut st = self.state.lock().unwrap();
        let s = st.next_stream;
        st.next_stream = (s + 1) % st.stream_clock.len();
        st.stream_clock[s] += t;
        st.stats.kernels += 1;
        st.stats.zones += zones.max(0) as u64;
        st.stats.kernel_us += t;
        t
    }

    /// Record a device memory allocation. Synchronizes all streams, then
    /// charges the allocation latency — this is the behaviour that makes
    /// per-timestep `cudaMalloc` "disastrous" (§III).
    pub fn malloc(&self, bytes: u64) {
        let mut st = self.state.lock().unwrap();
        let sync =
            st.stream_clock.iter().copied().fold(0.0_f64, f64::max) + self.config.alloc_latency_us;
        for c in st.stream_clock.iter_mut() {
            *c = sync;
        }
        st.stats.allocs += 1;
        st.stats.alloc_us += self.config.alloc_latency_us;
        st.stats.bytes_resident += bytes;
        st.stats.bytes_peak = st.stats.bytes_peak.max(st.stats.bytes_resident);
    }

    /// Record a device memory free (also synchronizing).
    pub fn free(&self, bytes: u64) {
        let mut st = self.state.lock().unwrap();
        let sync =
            st.stream_clock.iter().copied().fold(0.0_f64, f64::max) + self.config.free_latency_us;
        for c in st.stream_clock.iter_mut() {
            *c = sync;
        }
        st.stats.frees += 1;
        st.stats.alloc_us += self.config.free_latency_us;
        st.stats.bytes_resident = st.stats.bytes_resident.saturating_sub(bytes);
    }

    /// Record a device→host copy of `bytes` (the checkpoint crossing).
    /// Synchronizes all streams — the copy cannot start until in-flight
    /// kernels writing the state have drained — then charges
    /// `bytes / d2h_bw_bytes_per_us`. Returns the simulated copy time in
    /// microseconds.
    pub fn d2h_copy(&self, bytes: u64) -> f64 {
        let t = bytes as f64 / self.config.d2h_bw_bytes_per_us.max(1e-12);
        let mut st = self.state.lock().unwrap();
        let sync = st.stream_clock.iter().copied().fold(0.0_f64, f64::max) + t;
        for c in st.stream_clock.iter_mut() {
            *c = sync;
        }
        st.stats.d2h_copies += 1;
        st.stats.d2h_bytes += bytes;
        st.stats.d2h_us += t;
        t
    }

    /// Simulated elapsed time: completion of the latest stream.
    pub fn elapsed_us(&self) -> f64 {
        self.state
            .lock()
            .unwrap()
            .stream_clock
            .iter()
            .copied()
            .fold(0.0_f64, f64::max)
    }

    /// Snapshot of execution statistics.
    pub fn stats(&self) -> DeviceStats {
        self.state.lock().unwrap().stats
    }

    /// True if the resident set exceeds device memory.
    pub fn oversubscribed(&self) -> bool {
        self.state.lock().unwrap().stats.bytes_resident > self.config.memory_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Arc<SimDevice> {
        SimDevice::new(DeviceConfig::v100())
    }

    #[test]
    fn occupancy_ramps_and_saturates() {
        let d = dev();
        let small = d.occupancy(1_000, 128);
        let medium = d.occupancy(64 * 64 * 64, 128);
        let large = d.occupancy(1_000_000, 128);
        assert!(small < medium && medium < large);
        assert!(large > 0.9, "1M zones should be near saturation: {large}");
        assert!(small < 0.05, "1k zones should be latency-bound: {small}");
    }

    #[test]
    fn register_spill_derates() {
        let d = dev();
        let ok = d.occupancy(1_000_000, 255);
        let spill = d.occupancy(1_000_000, 510);
        assert!((spill / ok - 0.5).abs() < 1e-12);
    }

    #[test]
    fn launch_charges_streams_round_robin() {
        let d = dev();
        let p = KernelProfile::default();
        for _ in 0..4 {
            d.launch(100_000, &p);
        }
        // 4 launches over 4 streams: elapsed is one launch, not four.
        let one = d.config().launch_overhead_us + d.kernel_time_us(100_000, &p);
        assert!((d.elapsed_us() - one).abs() < 1e-9);
        assert_eq!(d.stats().kernels, 4);
        assert_eq!(d.stats().zones, 400_000);
    }

    #[test]
    fn malloc_synchronizes_all_streams() {
        let d = dev();
        let p = KernelProfile::default();
        d.launch(500_000, &p); // loads stream 0
        let before = d.elapsed_us();
        d.malloc(1024);
        // After a synchronizing malloc, every stream's clock is at the front.
        let after = d.elapsed_us();
        assert!((after - (before + d.config().alloc_latency_us)).abs() < 1e-9);
        d.launch(1, &p); // next stream starts *after* the malloc barrier
        assert!(d.elapsed_us() > after);
    }

    #[test]
    fn oversubscription_penalty_applies() {
        let d = dev();
        let p = KernelProfile::default();
        let t_fit = d.kernel_time_us(1_000_000, &p);
        d.malloc(17 * (1 << 30)); // exceed 16 GiB
        assert!(d.oversubscribed());
        let t_over = d.kernel_time_us(1_000_000, &p);
        assert!((t_over / t_fit - d.config().oversubscription_penalty).abs() < 1e-9);
        d.free(17 * (1 << 30));
        assert!(!d.oversubscribed());
    }

    #[test]
    fn d2h_copy_synchronizes_and_charges_bandwidth() {
        let d = dev();
        let p = KernelProfile::default();
        d.launch(500_000, &p); // loads stream 0
        let before = d.elapsed_us();
        let bytes = 5_000_000u64; // 5 MB at 50 GB/s → 100 µs
        let t = d.d2h_copy(bytes);
        assert!((t - bytes as f64 / d.config().d2h_bw_bytes_per_us).abs() < 1e-9);
        assert!((d.elapsed_us() - (before + t)).abs() < 1e-9);
        let st = d.stats();
        assert_eq!(st.d2h_copies, 1);
        assert_eq!(st.d2h_bytes, bytes);
        assert!((st.d2h_us - t).abs() < 1e-12);
    }
}
