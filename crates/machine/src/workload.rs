//! Per-rank communication totals for the cluster simulator, folded from
//! the ghost copies of real box decompositions and distribution maps.

use crate::model::{Machine, RankComm};
use exastro_amr::{for_each_ghost_copy, BoxArray, DistributionMapping, Geometry, IntVect};

/// Per-rank traffic of one ghost fill of the footprint `ghosts` of an
/// `ncomp`-component multifab on `(ba, dm)`: the copies the real exchange
/// makes ([`for_each_ghost_copy`]), each one message charged to the rank
/// owning its source. Same-rank copies are free (local memcpy), same-node
/// ones use the intra-node transport, the rest cross the NIC.
pub fn exchange_comm(
    ba: &BoxArray,
    dm: &DistributionMapping,
    machine: &Machine,
    geom: &Geometry,
    ghosts: IntVect,
    ncomp: usize,
) -> Vec<RankComm> {
    let mut comm = vec![RankComm::default(); dm.nranks()];
    for_each_ghost_copy(ba, geom, ghosts, |src, dst, region, _| {
        let (src_rank, dst_rank) = (dm.owner(src), dm.owner(dst));
        if src_rank == dst_rank {
            return;
        }
        let bytes = region.num_zones() as u64 * ncomp as u64 * 8;
        let c = &mut comm[src_rank];
        if machine.node_of(src_rank) == machine.node_of(dst_rank) {
            c.intra_msgs += 1;
            c.intra_bytes += bytes;
        } else {
            c.inter_msgs += 1;
            c.inter_bytes += bytes;
        }
    });
    comm
}

/// Merge the communication of several fills/exchanges.
pub fn scale_comm(comm: &[RankComm], factor: f64) -> Vec<RankComm> {
    comm.iter()
        .map(|c| RankComm {
            intra_msgs: (c.intra_msgs as f64 * factor).round() as u64,
            intra_bytes: (c.intra_bytes as f64 * factor).round() as u64,
            inter_msgs: (c.inter_msgs as f64 * factor).round() as u64,
            inter_bytes: (c.inter_bytes as f64 * factor).round() as u64,
        })
        .collect()
}

/// Element-wise sum of two per-rank communication vectors.
pub fn add_comm(a: &mut [RankComm], b: &[RankComm]) {
    for (x, y) in a.iter_mut().zip(b) {
        x.intra_msgs += y.intra_msgs;
        x.intra_bytes += y.intra_bytes;
        x.inter_msgs += y.inter_msgs;
        x.inter_bytes += y.inter_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_amr::{CoordSys, DistStrategy, IndexBox, MultiFab};

    #[test]
    fn uniform_fast_path_matches_real_fill_boundary() {
        let machine = Machine::summit();
        let geom = Geometry::cube(64, 1.0, true);
        let ba = BoxArray::decompose(geom.domain(), 16, 16); // 64 boxes
        let dm = DistributionMapping::new(&ba, 12, DistStrategy::Knapsack);
        let comm = exchange_comm(&ba, &dm, &machine, &geom, IntVect::splat(2), 5);
        // Ground truth from the real ghost exchange.
        let mut mf = MultiFab::new(ba, dm, 5, 2);
        let trace = mf.fill_boundary(&geom);
        let model_total: u64 = comm.iter().map(|c| c.intra_bytes + c.inter_bytes).sum();
        // The trace includes same-rank copies in local_bytes; the model
        // drops them. Cross-rank bytes must agree exactly.
        assert_eq!(model_total, trace.network_bytes());
    }

    #[test]
    fn nonuniform_fallback_agrees_too() {
        let machine = Machine::summit();
        let geom = Geometry::cube(48, 1.0, true);
        let ba = BoxArray::decompose(geom.domain(), 20, 4); // ragged boxes
        let dm = DistributionMapping::new(&ba, 7, DistStrategy::RoundRobin);
        let comm = exchange_comm(&ba, &dm, &machine, &geom, IntVect::splat(1), 3);
        let mut mf = MultiFab::new(ba, dm, 3, 1);
        let trace = mf.fill_boundary(&geom);
        let model_total: u64 = comm.iter().map(|c| c.intra_bytes + c.inter_bytes).sum();
        assert_eq!(model_total, trace.network_bytes());
    }

    #[test]
    fn the_model_prices_the_copies_of_a_real_fill() {
        let machine = Machine::summit();
        // Ragged boxes, periodic in x and z only, on two nodes.
        let geom = Geometry::new(
            IndexBox::sized(IntVect::new(48, 40, 36)).shift(IntVect::new(-5, 3, -8)),
            [0.0; 3],
            [1.0; 3],
            [true, false, true],
            CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(geom.domain(), 20, 4);
        let dm = DistributionMapping::new(&ba, 7, DistStrategy::RoundRobin);
        let comm = exchange_comm(&ba, &dm, &machine, &geom, IntVect::splat(2), 3);
        let mut mf = MultiFab::new(ba, dm, 3, 2);
        let trace = mf.fill_boundary(&geom);
        let sum = |f: fn(&RankComm) -> u64| comm.iter().map(f).sum::<u64>();
        assert!(sum(|c| c.intra_bytes) > 0 && sum(|c| c.inter_bytes) > 0);
        assert_eq!(
            sum(|c| c.intra_bytes) + sum(|c| c.inter_bytes),
            trace.network_bytes()
        );
        assert_eq!(
            sum(|c| c.intra_msgs) + sum(|c| c.inter_msgs),
            trace.messages.len() as u64
        );
    }

    #[test]
    fn single_rank_has_no_network_traffic() {
        let machine = Machine::summit();
        let geom = Geometry::cube(32, 1.0, true);
        let ba = BoxArray::decompose(geom.domain(), 16, 16);
        let dm = DistributionMapping::all_local(&ba);
        let comm = exchange_comm(&ba, &dm, &machine, &geom, IntVect::splat(2), 5);
        assert!(comm
            .iter()
            .all(|c| c.intra_bytes == 0 && c.inter_bytes == 0));
    }

    #[test]
    fn scale_and_add_comm() {
        let base = vec![RankComm {
            intra_msgs: 2,
            intra_bytes: 100,
            inter_msgs: 4,
            inter_bytes: 200,
        }];
        let tripled = scale_comm(&base, 3.0);
        assert_eq!(tripled[0].inter_bytes, 600);
        let mut acc = base.clone();
        add_comm(&mut acc, &tripled);
        assert_eq!(acc[0].intra_bytes, 400);
        assert_eq!(acc[0].inter_msgs, 16);
    }
}
