//! The cluster cost model: Summit-like nodes (6 GPUs, 1 MPI rank per GPU),
//! NVLink-class intra-node transport, and a shared NIC per node with
//! fat-tree contention at scale.
//!
//! Absolute constants are *calibrated* — the paper reports 130 zones/µs per
//! node for the canonical Sedov case and ~63% weak-scaling efficiency at
//! 512 nodes — but the *shape* of every curve comes from the actual
//! communication patterns measured on real multifab data plus this model's
//! α–β costs. EXPERIMENTS.md records the calibration targets.

use crate::device::{DeviceConfig, KernelProfile};

/// Network cost parameters.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// Per-message latency, µs (MPI pt2pt).
    pub latency_us: f64,
    /// Intra-node bandwidth per rank (NVLink/shared memory), bytes/µs.
    pub bw_intra: f64,
    /// Inter-node NIC bandwidth per node, bytes/µs (dual-rail EDR ≈ 25 GB/s
    /// ≈ 25000 bytes/µs).
    pub bw_nic: f64,
    /// Fabric contention: effective NIC bandwidth is divided by
    /// `1 + contention · log2(nodes)` (adaptive-routed fat tree under
    /// nearest-neighbour + collective load).
    pub contention: f64,
    /// Allreduce cost: `allreduce_base_us · log2(nranks)` per reduction.
    pub allreduce_base_us: f64,
    /// Synchronization/straggler cost charged per *globally synchronizing
    /// exchange* (multigrid level visits): `sync_noise_us · log2(nodes)`.
    /// Zero at one node; this is the term that makes deep V-cycle ladders
    /// communication-bound at scale (§IV-B).
    pub sync_noise_us: f64,
}

/// Parallel-filesystem cost parameters: a checkpoint write is priced with
/// an α–β model, `latency + bytes / bw_eff(nodes)`, where the effective
/// bandwidth scales with participating nodes until the burst-buffer /
/// filesystem aggregate peak saturates.
#[derive(Clone, Debug)]
pub struct FsModel {
    /// Fixed per-checkpoint latency (metadata, open/close storms), µs.
    pub write_latency_us: f64,
    /// Sustained write bandwidth one node can drive, bytes/µs.
    pub bw_node_bytes_per_us: f64,
    /// Aggregate filesystem peak write bandwidth, bytes/µs.
    pub bw_peak_bytes_per_us: f64,
}

impl FsModel {
    /// Effective aggregate write bandwidth at `nodes` writers, bytes/µs.
    pub fn bw_eff(&self, nodes: usize) -> f64 {
        (nodes.max(1) as f64 * self.bw_node_bytes_per_us).min(self.bw_peak_bytes_per_us)
    }
}

/// One node of the machine.
#[derive(Clone, Debug)]
pub struct NodeModel {
    /// GPUs (= MPI ranks) per node.
    pub gpus_per_node: usize,
    /// The accelerator model.
    pub gpu: DeviceConfig,
}

/// The simulated cluster.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Node description.
    pub node: NodeModel,
    /// Interconnect description.
    pub network: NetworkModel,
    /// Parallel filesystem description (checkpoint writes).
    pub fs: FsModel,
}

impl Machine {
    /// A Summit-like machine, calibrated against the paper's single-node
    /// throughputs.
    pub fn summit() -> Self {
        Machine {
            node: NodeModel {
                gpus_per_node: 6,
                gpu: DeviceConfig::v100(),
            },
            network: NetworkModel {
                latency_us: 2.0,
                bw_intra: 50_000.0, // ~50 GB/s effective shared-memory
                bw_nic: 25_000.0,   // ~25 GB/s dual-rail EDR per node
                contention: 0.30,
                allreduce_base_us: 12.0,
                sync_noise_us: 18.0,
            },
            fs: FsModel {
                write_latency_us: 5_000.0,      // metadata + open/close storm
                bw_node_bytes_per_us: 12_500.0, // ~12.5 GB/s per node to Alpine
                bw_peak_bytes_per_us: 2.5e6,    // ~2.5 TB/s aggregate GPFS peak
            },
        }
    }

    /// Time (µs) for `nodes` nodes to write a `bytes`-sized checkpoint to
    /// the parallel filesystem (α–β: latency + bandwidth-limited transfer).
    pub fn checkpoint_write_us(&self, bytes: u64, nodes: usize) -> f64 {
        self.fs.write_latency_us + bytes as f64 / self.fs.bw_eff(nodes)
    }

    /// Node index of a rank (ranks are packed onto nodes).
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.node.gpus_per_node
    }

    /// Compute time (µs) for one rank's set of kernel launches: each entry
    /// is `(zones, profile)`.
    pub fn compute_time_us(&self, launches: &[(i64, KernelProfile)]) -> f64 {
        let gpu = &self.node.gpu;
        let mut t = 0.0;
        for (zones, prof) in launches {
            t += gpu.launch_overhead_us + gpu.kernel_time_us(*zones, prof, 0);
        }
        t
    }

    /// Effective NIC bandwidth at `nodes` nodes.
    pub fn nic_bw_eff(&self, nodes: usize) -> f64 {
        self.network.bw_nic / (1.0 + self.network.contention * (nodes.max(1) as f64).log2())
    }

    /// Allreduce time at `nranks` ranks.
    pub fn allreduce_us(&self, nranks: usize) -> f64 {
        self.network.allreduce_base_us * (nranks.max(2) as f64).log2()
    }
}

/// Reference throughputs of a previous-generation CPU node (dual-socket
/// Xeon, Cori/Edison-class), used for the paper's "~20× a CPU node" claims.
/// The paper states the zones/µs metric "is O(1) for a modern high-end CPU
/// server node running a standard pure hydrodynamics test case" (§IV) and
/// that the bubble's GPU-node throughput is "about a factor of 20 higher
/// than the single-node CPU throughput" (§IV-B).
#[derive(Clone, Copy, Debug)]
pub struct CpuNodeReference {
    /// Pure-hydro (Sedov-class) throughput, zones/µs.
    pub sedov_zones_per_us: f64,
    /// Reacting-bubble throughput, zones/µs.
    pub bubble_zones_per_us: f64,
}

impl Default for CpuNodeReference {
    fn default() -> Self {
        CpuNodeReference {
            sedov_zones_per_us: 6.5,
            bubble_zones_per_us: 0.55,
        }
    }
}

/// Aggregated communication for one rank in one step.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankComm {
    /// Messages sent to ranks on the same node.
    pub intra_msgs: u64,
    /// Bytes sent to ranks on the same node.
    pub intra_bytes: u64,
    /// Messages sent to other nodes.
    pub inter_msgs: u64,
    /// Bytes sent to other nodes.
    pub inter_bytes: u64,
}

/// Comm/compute overlap description for a step that uses the task-graph
/// two-phase exchange (`MultiFab::post_fill_boundary` + graph stepping):
/// while halos are in flight each rank advances its stencil-interior
/// zones, so up to `interior_fraction` of the rank's compute time is
/// available to hide point-to-point communication behind.
#[derive(Clone, Copy, Debug)]
pub struct OverlapModel {
    /// Fraction of a rank's compute that needs no ghost zones (the
    /// interior work runnable while halos fly), in `[0, 1]`.
    pub interior_fraction: f64,
    /// Task-graph scheduling overhead charged per rank per step, µs
    /// (dependency bookkeeping, ready-queue contention).
    pub scheduler_overhead_us: f64,
}

impl OverlapModel {
    /// The fraction of communication time this model predicts gets hidden
    /// behind compute, given *measured* per-step totals: the same
    /// `min(p2p, interior_fraction · compute)` rule [`Machine::simulate_step`]
    /// prices, expressed as `hidden / comm` so it is directly comparable to
    /// the measured overlap efficiency a graph trace reports
    /// (`telemetry::graphtrace`). Returns 1 when there is no communication
    /// to hide.
    pub fn predicted_hidden_fraction(&self, compute_us: f64, comm_us: f64) -> f64 {
        if comm_us <= 0.0 {
            return 1.0;
        }
        let hidden = comm_us.min(self.interior_fraction.clamp(0.0, 1.0) * compute_us.max(0.0));
        hidden / comm_us
    }
}

/// A full step description for the cluster simulator.
#[derive(Clone, Debug, Default)]
pub struct StepWorkload {
    /// Number of ranks.
    pub nranks: usize,
    /// Per-rank compute launches `(zones, profile)`.
    pub compute: Vec<Vec<(i64, KernelProfile)>>,
    /// Per-rank communication totals.
    pub comm: Vec<RankComm>,
    /// Number of global reductions in the step.
    pub allreduces: u64,
    /// Number of globally synchronizing exchanges (e.g. multigrid level
    /// visits), each charged `sync_noise_us · log2(nodes)`.
    pub global_syncs: u64,
    /// Zones advanced by the step (for throughput).
    pub zones_advanced: i64,
    /// Checkpoint payload written during this step (0 on non-checkpoint
    /// steps). Includes the D2H copy on every writing rank plus the
    /// filesystem write, both globally synchronizing.
    pub checkpoint_bytes: u64,
    /// When set, the step runs the task-graph overlapped exchange: each
    /// rank hides `min(p2p, interior_fraction · compute)` of its
    /// point-to-point time behind interior compute, paying the scheduler
    /// overhead. `None` prices the bulk-synchronous path.
    pub overlap: Option<OverlapModel>,
}

/// Timing breakdown of one simulated step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTime {
    /// Slowest rank's compute time, µs.
    pub compute_us: f64,
    /// Slowest rank's point-to-point communication time, µs.
    pub p2p_us: f64,
    /// Collective time, µs.
    pub allreduce_us: f64,
    /// Checkpoint I/O time (D2H drain + filesystem write), µs.
    pub io_us: f64,
    /// Total step wall time, µs.
    pub total_us: f64,
    /// Zones per µs.
    pub throughput: f64,
}

impl Machine {
    /// Price a step: per rank, compute + p2p (intra at NVLink speed, inter
    /// sharing the node NIC) run back-to-back; the step completes when the
    /// slowest rank does, then the collectives are appended.
    pub fn simulate_step(&self, w: &StepWorkload) -> StepTime {
        let nodes = w.nranks.div_ceil(self.node.gpus_per_node);
        let nic_bw = self.nic_bw_eff(nodes);
        // NIC load per node.
        let mut node_inter_bytes = vec![0u64; nodes];
        for (r, c) in w.comm.iter().enumerate() {
            node_inter_bytes[self.node_of(r)] += c.inter_bytes;
        }
        let mut worst = 0.0f64;
        let mut worst_compute = 0.0f64;
        let mut worst_p2p = 0.0f64;
        for r in 0..w.nranks {
            let tc = self.compute_time_us(&w.compute[r]);
            let c = &w.comm[r];
            let t_intra = c.intra_bytes as f64 / self.network.bw_intra
                + c.intra_msgs as f64 * 0.3 * self.network.latency_us;
            let t_inter = node_inter_bytes[self.node_of(r)] as f64 / nic_bw
                + c.inter_msgs as f64 * self.network.latency_us;
            let tp = t_intra + t_inter;
            // Overlapped stepping hides p2p behind interior compute; the
            // exposed p2p is what interior work cannot cover.
            let t_rank = match &w.overlap {
                Some(o) => {
                    let hidden = tp.min(o.interior_fraction.clamp(0.0, 1.0) * tc);
                    tc + (tp - hidden) + o.scheduler_overhead_us
                }
                None => tc + tp,
            };
            if t_rank > worst {
                worst = t_rank;
                worst_compute = tc;
                worst_p2p = tp;
            }
        }
        let t_allreduce = w.allreduces as f64 * self.allreduce_us(w.nranks);
        let t_sync =
            w.global_syncs as f64 * self.network.sync_noise_us * (nodes.max(1) as f64).log2();
        // Checkpoint steps pay the D2H drain (each node's share crosses the
        // CPU↔GPU link) plus the α–β filesystem write, back to back.
        let t_io = if w.checkpoint_bytes > 0 {
            let per_node = w.checkpoint_bytes as f64 / nodes.max(1) as f64;
            per_node / self.node.gpu.d2h_bw_bytes_per_us
                + self.checkpoint_write_us(w.checkpoint_bytes, nodes)
        } else {
            0.0
        };
        let total = worst + t_allreduce + t_sync + t_io;
        StepTime {
            compute_us: worst_compute,
            p2p_us: worst_p2p,
            allreduce_us: t_allreduce,
            io_us: t_io,
            total_us: total,
            throughput: w.zones_advanced as f64 / total.max(1e-30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_gpu_compute_only() {
        let m = Machine::summit();
        let w = StepWorkload {
            nranks: 1,
            compute: vec![vec![(64 * 64 * 64, KernelProfile::new(1.0, 128))]],
            comm: vec![RankComm::default()],
            allreduces: 0,
            global_syncs: 0,
            zones_advanced: 64 * 64 * 64,
            checkpoint_bytes: 0,
            overlap: None,
        };
        let t = m.simulate_step(&w);
        assert!(t.p2p_us == 0.0);
        assert!(
            t.throughput > 5.0 && t.throughput < 30.0,
            "{}",
            t.throughput
        );
    }

    #[test]
    fn contention_degrades_nic_with_scale() {
        let m = Machine::summit();
        assert!(m.nic_bw_eff(512) < 0.35 * m.nic_bw_eff(1));
    }

    #[test]
    fn slowest_rank_gates_the_step() {
        let m = Machine::summit();
        let light = vec![(1000i64, KernelProfile::default())];
        let heavy = vec![(1_000_000i64, KernelProfile::default())];
        let w = StepWorkload {
            nranks: 2,
            compute: vec![light.clone(), heavy.clone()],
            comm: vec![RankComm::default(); 2],
            allreduces: 0,
            global_syncs: 0,
            zones_advanced: 1_001_000,
            checkpoint_bytes: 0,
            overlap: None,
        };
        let t_unbalanced = m.simulate_step(&w);
        let w2 = StepWorkload {
            nranks: 2,
            compute: vec![heavy.clone(), heavy],
            comm: vec![RankComm::default(); 2],
            allreduces: 0,
            global_syncs: 0,
            zones_advanced: 2_000_000,
            checkpoint_bytes: 0,
            overlap: None,
        };
        let t_bal = m.simulate_step(&w2);
        assert!((t_unbalanced.total_us - t_bal.total_us).abs() / t_bal.total_us < 1e-9);
        assert!(t_bal.throughput > 1.9 * t_unbalanced.throughput);
    }

    #[test]
    fn inter_node_traffic_costs_more_than_intra() {
        let m = Machine::summit();
        let mk = |intra: u64, inter: u64| StepWorkload {
            nranks: 12,
            compute: vec![vec![]; 12],
            comm: (0..12)
                .map(|_| RankComm {
                    intra_bytes: intra,
                    inter_bytes: inter,
                    intra_msgs: 4,
                    inter_msgs: 4,
                })
                .collect(),
            allreduces: 0,
            global_syncs: 0,
            zones_advanced: 1,
            checkpoint_bytes: 0,
            overlap: None,
        };
        let t_intra = m.simulate_step(&mk(10_000_000, 0));
        let t_inter = m.simulate_step(&mk(0, 10_000_000));
        assert!(
            t_inter.total_us > 3.0 * t_intra.total_us,
            "inter {} vs intra {}",
            t_inter.total_us,
            t_intra.total_us
        );
    }

    #[test]
    fn checkpoint_step_pays_d2h_and_fs_write() {
        let m = Machine::summit();
        let mk = |ckpt: u64| StepWorkload {
            nranks: 6,
            compute: vec![vec![(64 * 64 * 64, KernelProfile::default())]; 6],
            comm: vec![RankComm::default(); 6],
            allreduces: 1,
            global_syncs: 0,
            zones_advanced: 6 * 64 * 64 * 64,
            checkpoint_bytes: ckpt,
            overlap: None,
        };
        let plain = m.simulate_step(&mk(0));
        assert_eq!(plain.io_us, 0.0);
        let bytes = 8u64 * 6 * 64 * 64 * 64 * 10; // ~126 MB of state
        let ckpt = m.simulate_step(&mk(bytes));
        assert!(ckpt.io_us > 0.0);
        let expect =
            bytes as f64 / m.node.gpu.d2h_bw_bytes_per_us + m.checkpoint_write_us(bytes, 1);
        assert!((ckpt.io_us - expect).abs() < 1e-9);
        assert!((ckpt.total_us - plain.total_us - ckpt.io_us).abs() < 1e-9);
        assert!(ckpt.throughput < plain.throughput);
    }

    #[test]
    fn fs_bandwidth_scales_then_saturates() {
        let m = Machine::summit();
        // Small jobs are per-node-bandwidth bound; huge jobs hit the
        // aggregate peak and stop improving.
        let bytes = 10u64 * (1 << 30);
        let t1 = m.checkpoint_write_us(bytes, 1);
        let t64 = m.checkpoint_write_us(bytes, 64);
        let t400 = m.checkpoint_write_us(bytes, 400);
        let t4096 = m.checkpoint_write_us(bytes, 4096);
        assert!(t64 < t1 / 10.0);
        assert!(
            (t400 - t4096).abs() < 1e-9,
            "peak-saturated: {t400} {t4096}"
        );
        // A cadence sweep has a priced optimum: with these costs the
        // checkpoint overhead fraction at cadence k is C/(k·T_step + C).
        let step = m.simulate_step(&mk_step());
        let c = m.simulate_step(&mk_ckpt()).io_us;
        let overhead = |k: f64| c / (k * step.total_us + c);
        assert!(overhead(1.0) > overhead(10.0));
        fn mk_step() -> StepWorkload {
            StepWorkload {
                nranks: 6,
                compute: vec![vec![(64 * 64 * 64, KernelProfile::default())]; 6],
                comm: vec![RankComm::default(); 6],
                allreduces: 1,
                global_syncs: 0,
                zones_advanced: 6 * 64 * 64 * 64,
                checkpoint_bytes: 0,
                overlap: None,
            }
        }
        fn mk_ckpt() -> StepWorkload {
            StepWorkload {
                checkpoint_bytes: 100 << 20,
                ..mk_step()
            }
        }
    }

    #[test]
    fn predicted_hidden_fraction_matches_the_pricing_rule() {
        let m = OverlapModel {
            interior_fraction: 0.5,
            scheduler_overhead_us: 3.0,
        };
        // Comm smaller than the interior budget: fully hidden.
        assert_eq!(m.predicted_hidden_fraction(100.0, 40.0), 1.0);
        // Comm beyond the budget: only interior_fraction·compute hides.
        assert_eq!(m.predicted_hidden_fraction(100.0, 200.0), 0.25);
        // No comm at all: trivially fully hidden.
        assert_eq!(m.predicted_hidden_fraction(100.0, 0.0), 1.0);
        // Fractions clamp into [0, 1].
        let wild = OverlapModel {
            interior_fraction: 7.0,
            scheduler_overhead_us: 0.0,
        };
        assert_eq!(wild.predicted_hidden_fraction(10.0, 100.0), 0.1);
    }

    #[test]
    fn overlap_hides_p2p_up_to_the_interior_fraction() {
        let m = Machine::summit();
        let mk = |overlap: Option<OverlapModel>| StepWorkload {
            nranks: 12,
            compute: vec![vec![(256 * 256 * 256, KernelProfile::default())]; 12],
            comm: (0..12)
                .map(|_| RankComm {
                    inter_bytes: 5_000_000,
                    inter_msgs: 8,
                    ..Default::default()
                })
                .collect(),
            allreduces: 0,
            global_syncs: 0,
            zones_advanced: 12 * 256 * 256 * 256,
            checkpoint_bytes: 0,
            overlap,
        };
        let sync = m.simulate_step(&mk(None));
        let full = m.simulate_step(&mk(Some(OverlapModel {
            interior_fraction: 1.0,
            scheduler_overhead_us: 0.0,
        })));
        // Compute here dwarfs p2p, so a full interior fraction hides all
        // of it: total == compute alone.
        assert!(sync.p2p_us > 0.0);
        assert!((full.total_us - full.compute_us).abs() / full.total_us < 1e-9);
        assert!(full.total_us < sync.total_us);
        // A zero interior fraction only adds the scheduler overhead.
        let none = m.simulate_step(&mk(Some(OverlapModel {
            interior_fraction: 0.0,
            scheduler_overhead_us: 7.0,
        })));
        assert!((none.total_us - (sync.total_us + 7.0)).abs() < 1e-9);
        // Partial fractions land strictly between.
        let half = m.simulate_step(&mk(Some(OverlapModel {
            interior_fraction: 0.5,
            scheduler_overhead_us: 0.0,
        })));
        assert!(half.total_us <= sync.total_us && half.total_us >= full.total_us);
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let m = Machine::summit();
        let a6 = m.allreduce_us(6);
        let a3072 = m.allreduce_us(3072);
        assert!(a3072 > a6 && a3072 < 6.0 * a6);
    }
}
