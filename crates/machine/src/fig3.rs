//! Figure 3: MAESTROeX reacting-bubble weak scaling on the simulated
//! Summit.
//!
//! The step anatomy follows §IV-B: the wall time is dominated by (a) the
//! nuclear burning — purely zone-local, perfectly parallel — and (b) the
//! multigrid projection, whose per-level ghost exchanges and per-cycle
//! reductions make it "extremely communication bound" at scale. At one
//! node the two are approximately balanced; by 125 nodes the multigrid is
//! ~6× the reactions.

use crate::device::KernelProfile;
use crate::model::{Machine, OverlapModel, RankComm, StepTime, StepWorkload};
use crate::workload::{add_comm, exchange_comm, scale_comm};
use exastro_amr::{
    BoxArray, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox, IntVect,
};

/// Zones per node per dimension for the weak-scaling series.
pub const BUBBLE_SIDE_PER_NODE: i32 = 128;
/// Burn kernel: heavy per-zone cost (stiff BDF integration, large register
/// demand — the Jacobian alone overflows the register file, §IV-B).
pub const BURN_COST_PER_ZONE: f64 = 2.5;
/// Burn kernel register demand (> 255 ⇒ spilling derates occupancy).
pub const BURN_REGISTERS: u32 = 320;
/// Advection kernels per box per step.
pub const ADVECT_KERNELS_PER_BOX: usize = 6;
/// Advection per-kernel cost.
pub const ADVECT_COST: f64 = 0.08;
/// Elliptic solves per low-Mach step (nodal projection, MAC projection,
/// thermal/base-state solves).
pub const MG_SOLVES_PER_STEP: usize = 3;
/// Multigrid V-cycles per solve.
pub const MG_VCYCLES: usize = 10;
/// Smoother ghost exchanges per level per V-cycle (pre + post smoothing,
/// red and black halves, plus residual/restriction).
pub const MG_EXCHANGES_PER_LEVEL: f64 = 10.0;
/// Smoother compute cost per zone per V-cycle visit of a level.
pub const MG_SMOOTH_COST: f64 = 0.012;

/// One Figure-3 data point.
#[derive(Clone, Debug)]
pub struct BubblePoint {
    /// Node count.
    pub nodes: usize,
    /// Absolute throughput, zones/µs.
    pub throughput: f64,
    /// Normalized to the single-node throughput.
    pub normalized: f64,
    /// Time spent in the (perfectly parallel) reactions, µs.
    pub react_us: f64,
    /// Time spent in the multigrid projection, µs.
    pub multigrid_us: f64,
    /// Full step timing.
    pub time: StepTime,
}

/// The bubble's cubic domain of `side` zones: periodic sideways, walled
/// top and bottom.
fn bubble_geometry(side: i32) -> Geometry {
    let (lo, hi, periodic) = ([0.0; 3], [1.0; 3], [true, true, false]);
    Geometry::new(IndexBox::cube(side), lo, hi, periodic, CoordSys::Cartesian)
}

/// Build the per-step workload of the reacting-bubble problem on `nodes`
/// nodes and simulate it, reporting the phase split.
pub fn bubble_point(machine: &Machine, nodes: usize, base_throughput: Option<f64>) -> BubblePoint {
    bubble_point_with(machine, nodes, base_throughput, false)
}

/// [`bubble_point`] with an explicit stepping mode: `overlap = true`
/// prices the task-graph overlapped exchange — the advection fill hides
/// behind interior advection + burning, and the multigrid ladder's
/// per-level exchanges stop acting as global barriers (one barrier per
/// V-cycle survives, the coarse-grid solve).
pub fn bubble_point_with(
    machine: &Machine,
    nodes: usize,
    base_throughput: Option<f64>,
    overlap: bool,
) -> BubblePoint {
    let nranks = nodes * machine.node.gpus_per_node;
    let side = BUBBLE_SIDE_PER_NODE * (nodes as f64).cbrt().round() as i32;
    let geom = bubble_geometry(side);
    let domain = geom.domain();
    let max_box = 64;
    let ba = BoxArray::decompose(domain, max_box, 16);
    let dm = DistributionMapping::new(&ba, nranks, DistStrategy::Sfc);

    // ---- Reactions: one heavy launch per box, zone-local, no comm.
    let mut react = StepWorkload {
        nranks,
        compute: vec![Vec::new(); nranks],
        comm: vec![RankComm::default(); nranks],
        allreduces: 0,
        global_syncs: 1,
        zones_advanced: domain.num_zones(),
        checkpoint_bytes: 0,
        overlap: None,
    };
    let burn_prof = KernelProfile::new(BURN_COST_PER_ZONE, BURN_REGISTERS);
    let adv_prof = KernelProfile::new(ADVECT_COST, 128);
    for (i, b) in ba.iter().enumerate() {
        let r = dm.owner(i);
        react.compute[r].push((b.num_zones(), burn_prof));
        for _ in 0..ADVECT_KERNELS_PER_BOX {
            react.compute[r].push((b.num_zones(), adv_prof));
        }
    }
    // Advection ghost fill (one per step).
    let adv_comm = exchange_comm(&ba, &dm, machine, &geom, IntVect::unit(), 7);
    react.comm = adv_comm;
    if overlap {
        // The 1-ghost upwind stencil leaves (w-2)/w of each box interior;
        // the burn is zone-local, so nearly all compute can hide the fill.
        react.overlap = Some(OverlapModel {
            interior_fraction: ((max_box - 2).max(0) as f64) / max_box as f64,
            scheduler_overhead_us: 6.0,
        });
    }
    let t_react = machine.simulate_step(&react);

    // ---- Multigrid: level ladder from `side` down to the bottom.
    let cycles_total = MG_VCYCLES * MG_SOLVES_PER_STEP;
    let mut mg = StepWorkload {
        nranks,
        compute: vec![Vec::new(); nranks],
        comm: vec![RankComm::default(); nranks],
        allreduces: (cycles_total + 2) as u64, // residual norm per cycle
        global_syncs: 0,
        zones_advanced: 0,
        checkpoint_bytes: 0,
        overlap: None,
    };
    let mut level_side = side;
    let mut nlevels = 0u64;
    while level_side >= 4 {
        nlevels += 1;
        let lgeom = bubble_geometry(level_side);
        let ldomain = lgeom.domain();
        let lmax = max_box.min(level_side);
        let lba = BoxArray::decompose(ldomain, lmax, 2.min(level_side));
        let ldm = DistributionMapping::new(&lba, nranks, DistStrategy::Sfc);
        let smooth_prof = KernelProfile::new(MG_SMOOTH_COST, 96);
        for (i, b) in lba.iter().enumerate() {
            let r = ldm.owner(i);
            // Each V-cycle visits the level with pre+post smoothing and a
            // residual evaluation: ~5 kernel launches.
            for _ in 0..(5 * cycles_total) {
                mg.compute[r].push((b.num_zones(), smooth_prof));
            }
        }
        let lcomm = exchange_comm(&lba, &ldm, machine, &lgeom, IntVect::unit(), 1);
        let scaled = scale_comm(&lcomm, MG_EXCHANGES_PER_LEVEL * cycles_total as f64);
        add_comm(&mut mg.comm, &scaled);
        if level_side % 2 != 0 {
            break;
        }
        level_side /= 2;
    }
    // Every level visit of every cycle is a synchronizing exchange ladder;
    // overlapped stepping keeps only the per-cycle coarse-grid barrier.
    mg.global_syncs = if overlap {
        cycles_total as u64
    } else {
        nlevels * MG_EXCHANGES_PER_LEVEL as u64 * cycles_total as u64
    };
    if overlap {
        mg.overlap = Some(OverlapModel {
            interior_fraction: 0.5, // smoother stencils leave thin interiors
            scheduler_overhead_us: 6.0,
        });
    }
    let t_mg = machine.simulate_step(&mg);

    let total_us = t_react.total_us + t_mg.total_us;
    let throughput = domain.num_zones() as f64 / total_us;
    let normalized = match base_throughput {
        Some(b) => throughput / (nodes as f64 * b),
        None => 1.0,
    };
    BubblePoint {
        nodes,
        throughput,
        normalized,
        react_us: t_react.total_us,
        multigrid_us: t_mg.total_us,
        time: StepTime {
            compute_us: t_react.compute_us + t_mg.compute_us,
            p2p_us: t_react.p2p_us + t_mg.p2p_us,
            allreduce_us: t_react.allreduce_us + t_mg.allreduce_us,
            io_us: 0.0,
            total_us,
            throughput,
        },
    }
}

/// The Figure-3 series over the paper's node counts {1, 8, 27, 64, 125}.
pub fn bubble_series(machine: &Machine, nodes_list: &[usize]) -> Vec<BubblePoint> {
    let base = bubble_point(machine, 1, None).throughput;
    nodes_list
        .iter()
        .map(|&n| bubble_point(machine, n, Some(base)))
        .collect()
}

/// The Figure-3 series re-priced with overlapped stepping, normalized to
/// the bulk-synchronous single-node throughput (shared baseline).
pub fn bubble_series_overlapped(machine: &Machine, nodes_list: &[usize]) -> Vec<BubblePoint> {
    let base = bubble_point(machine, 1, None).throughput;
    nodes_list
        .iter()
        .map(|&n| bubble_point_with(machine, n, Some(base), true))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_near_paper_throughput() {
        // Paper: 11 zones/µs at one node (≈ 20× the CPU node).
        let m = Machine::summit();
        let p = bubble_point(&m, 1, None);
        assert!(
            (p.throughput - 11.0).abs() < 4.0,
            "single-node bubble throughput {}",
            p.throughput
        );
    }

    #[test]
    fn reactions_and_multigrid_balanced_at_one_node() {
        // "...the nuclear burning and the parallel communication needed for
        // the multigrid solve ... are approximately equally balanced."
        let m = Machine::summit();
        let p = bubble_point(&m, 1, None);
        let ratio = p.multigrid_us / p.react_us;
        assert!(
            (0.4..2.5).contains(&ratio),
            "1-node multigrid/react ratio {ratio}"
        );
    }

    #[test]
    fn multigrid_dominates_at_scale() {
        // "at the highest node count studied, about 6x more time is spent
        // in the multigrid solve than in the nuclear reactions solve."
        let m = Machine::summit();
        let p = bubble_point(&m, 125, None);
        let ratio = p.multigrid_us / p.react_us;
        assert!(
            (3.0..12.0).contains(&ratio),
            "125-node multigrid/react ratio {ratio}"
        );
    }

    #[test]
    fn overlap_lifts_the_multigrid_bound_at_scale() {
        // The projection's sync ladder is the paper's scaling killer;
        // collapsing it to one barrier per V-cycle must claw back
        // efficiency at 125 nodes.
        let m = Machine::summit();
        let sync = bubble_point(&m, 125, None);
        let base = bubble_point(&m, 1, None).throughput;
        let s125 = bubble_point(&m, 125, Some(base));
        let o125 = bubble_point_with(&m, 125, Some(base), true);
        assert!(
            o125.normalized > s125.normalized + 0.03,
            "125-node efficiency: overlapped {} vs sync {}",
            o125.normalized,
            s125.normalized
        );
        assert!(o125.multigrid_us < sync.multigrid_us);
    }

    #[test]
    fn efficiency_declines_monotonically() {
        let m = Machine::summit();
        let pts = bubble_series(&m, &[1, 8, 27, 64, 125]);
        assert!((pts[0].normalized - 1.0).abs() < 1e-9);
        for w in pts.windows(2) {
            assert!(
                w[1].normalized <= w[0].normalized + 0.02,
                "{} -> {}",
                w[0].normalized,
                w[1].normalized
            );
        }
        // The paper's curve lands well below 0.5 at 125 nodes.
        assert!(pts[4].normalized < 0.6, "{}", pts[4].normalized);
        assert!(pts[4].normalized > 0.1, "{}", pts[4].normalized);
    }
}
