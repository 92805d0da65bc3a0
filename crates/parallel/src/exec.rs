//! Lane chunks of a row, and the execution space's name.
//!
//! The one loop over a box's zones is `exastro_amr::for_each_row`: it hands
//! a kernel each x-row of the box, and the kernel takes the row [`LANES`]
//! zones at a time through [`lane_chunks`], like the SIMD inner `i` loop of
//! AMReX's CPU `ParallelFor` and of Parthenon (§III of the paper).
//! Parallelism comes from boxes, not from this loop: `amr::HaloLoop` and
//! [`crate::pool::par_each_mut`] run one task per box on the persistent
//! [`crate::pool::WorkerPool`].

/// Where a kernel runs. The kernels no longer take it; `Castro::ex` and
/// three calls of the repo's benchmark still name it.
#[derive(Clone, Debug)]
pub enum ExecSpace {
    /// The calling thread.
    Serial,
}

/// How many consecutive zones of an x-row a row kernel takes at a time.
pub const LANES: usize = 4;

/// Run `chunk(offset, live)` for the [`LANES`]-zone chunks of a row of
/// `len` zones in order: `offset` counts from the row's first zone, and
/// `live` zones of the chunk lie in the row — a literal [`LANES`] but in a
/// shorter last chunk, so an `#[inline(always)]` `chunk` folds the full
/// chunks' clamps.
#[inline(always)]
pub fn lane_chunks(len: usize, mut chunk: impl FnMut(usize, usize)) {
    let mut o = 0;
    while o + LANES <= len {
        chunk(o, LANES);
        o += LANES;
    }
    if o < len {
        chunk(o, len - o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexBox, IntVect};

    /// The x-rows of `bx` in memory order, as `(j, k, i_lo, len)`.
    fn rows(bx: IndexBox) -> impl Iterator<Item = (i32, i32, i32, usize)> {
        let (lo, hi) = (bx.lo(), bx.hi());
        (lo.z()..=hi.z())
            .flat_map(move |k| (lo.y()..=hi.y()).map(move |j| (j, k)))
            .map(move |(j, k)| (j, k, lo.x(), bx.length(0) as usize))
    }

    #[test]
    fn par_for_visits_every_zone_exactly_once() {
        let bx = IndexBox::cube(9);
        let mut counts = vec![0u32; bx.num_zones() as usize];
        for (j, k, i_lo, n) in rows(bx) {
            lane_chunks(n, |o, live| {
                for l in 0..live {
                    counts[bx.linear_index(IntVect::new(i_lo + (o + l) as i32, j, k))] += 1;
                }
            });
        }
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn rows_and_their_lane_chunks_cover_every_zone_once_in_memory_order() {
        let bx = IndexBox::new(IntVect::new(-3, 0, 1), IntVect::new(5, 2, 3));
        let mut visited = Vec::new();
        for (j, k, i_lo, n) in rows(bx) {
            lane_chunks(n, |o, live| {
                assert!((1..=LANES).contains(&live));
                for l in 0..live {
                    visited.push(bx.linear_index(IntVect::new(i_lo + (o + l) as i32, j, k)));
                }
            });
        }
        assert_eq!(visited, (0..bx.num_zones() as usize).collect::<Vec<_>>());
        for len in 0..=9 {
            let mut chunks = Vec::new();
            lane_chunks(len, |o, live| chunks.push((o, live)));
            let lives: usize = chunks.iter().map(|&(_, live)| live).sum();
            assert_eq!(lives, len);
            assert!(chunks.iter().enumerate().all(|(n, &(o, _))| o == n * LANES));
        }
    }
}
