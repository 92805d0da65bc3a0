//! The per-zone loop (§III of the paper) and the row loop it is made of.
//!
//! AMReX's answer to Kokkos/RAJA: application code expresses *the work done
//! at a given index* `(i, j, k)` as a closure over an [`IndexBox`]. The
//! closure's `Fn + Sync` bound is the per-zone independence contract every
//! kernel was rewritten to satisfy during the GPU port (Fig. 1 right): no
//! zone's result may depend on the order in which zones run.
//!
//! Parallelism comes from boxes, not from this loop: `amr::HaloLoop` runs one
//! task per box on the persistent [`crate::pool::WorkerPool`], and inside a
//! task the closure runs in one serial loop nest over the box's x-rows. A
//! **row kernel** ([`ExecSpace::par_for_rows`]) is handed the rows and
//! takes [`LANES`] zones of a row at a time as lane arrays, like the SIMD
//! inner `i` loop of AMReX's CPU `ParallelFor` and Parthenon's `par_for`.
//!
//! Because the loop body is the same source a GPU build would launch, the
//! same physics runs on every backend — the "single source" property the
//! paper deems essential. What a launch would cost on a GPU is a model,
//! priced by `exastro-machine`; here every launch reports its zone count to
//! the open [`Telemetry`] region, so the region table sees per-kernel
//! totals without per-call-site bookkeeping.

use crate::index::IndexBox;
use exastro_telemetry::Telemetry;

/// Where a kernel runs: the one serial loop nest on the calling thread.
#[derive(Clone, Debug)]
pub enum ExecSpace {
    /// The per-zone loop.
    Serial,
}

/// How many consecutive zones of an x-row a row kernel takes at a time.
pub const LANES: usize = 4;

/// Run `chunk(offset, live)` for the [`LANES`]-zone chunks of the x-row
/// `i_lo..=i_hi` in order: `offset` counts from `i_lo`, and `live` zones of
/// the chunk lie in the row — a literal [`LANES`] but in a shorter last
/// chunk, so an `#[inline(always)]` `chunk` folds the full chunks' clamps.
#[inline(always)]
pub fn lane_chunks(i_lo: i32, i_hi: i32, mut chunk: impl FnMut(usize, usize)) {
    let len = (i64::from(i_hi) - i64::from(i_lo) + 1).max(0) as usize;
    let mut o = 0;
    while o + LANES <= len {
        chunk(o, LANES);
        o += LANES;
    }
    if o < len {
        chunk(o, len - o);
    }
}

/// The one loop nest: `f(j, k, i_lo, i_hi)` for the x-rows of `bx` in order.
#[inline]
fn serial_rows<F: FnMut(i32, i32, i32, i32)>(bx: IndexBox, mut f: F) {
    if bx.is_empty() {
        return;
    }
    let lo = bx.lo();
    let hi = bx.hi();
    // Exclusive i64 ranges instead of `lo..=hi`: RangeInclusive carries an
    // `exhausted` flag that defeats LLVM's loop canonicalization, costing
    // ~1.5 ns/zone of pure loop control on every kernel. Widening to i64
    // makes `hi + 1` overflow-free.
    for k in lo.z() as i64..hi.z() as i64 + 1 {
        for j in lo.y() as i64..hi.y() as i64 + 1 {
            f(j as i32, k as i32, lo.x(), hi.x());
        }
    }
}

/// The row loop with a per-zone body.
#[inline]
fn serial_for<F: FnMut(i32, i32, i32)>(bx: IndexBox, mut f: F) {
    serial_rows(bx, |j, k, i_lo, i_hi| {
        for i in i_lo as i64..i_hi as i64 + 1 {
            f(i as i32, j, k);
        }
    });
}

impl ExecSpace {
    /// Run `f(i, j, k)` for every zone of `bx`.
    pub fn par_for<F>(&self, bx: IndexBox, f: F)
    where
        F: Fn(i32, i32, i32) + Sync,
    {
        Telemetry::record_zones(bx.num_zones().max(0) as u64);
        serial_for(bx, f);
    }

    /// Run `f(j, k, i_lo, i_hi)` for every x-row of `bx`, zones `i_lo..=i_hi`
    /// of row `(j, k)`, reported as [`ExecSpace::par_for`] would the same box.
    pub fn par_for_rows<F>(&self, bx: IndexBox, f: F)
    where
        F: Fn(i32, i32, i32, i32) + Sync,
    {
        Telemetry::record_zones(bx.num_zones().max(0) as u64);
        serial_rows(bx, f);
    }

    /// The maximum over the x-rows of `bx` of a row's maximum `f(j, k, i_lo,
    /// i_hi)` (−∞ for an empty box).
    pub fn par_reduce_rows_max<F>(&self, bx: IndexBox, f: F) -> f64
    where
        F: Fn(i32, i32, i32, i32) -> f64 + Sync,
    {
        Telemetry::record_zones(bx.num_zones().max(0) as u64);
        let mut acc = f64::NEG_INFINITY;
        serial_rows(bx, |j, k, i_lo, i_hi| acc = acc.max(f(j, k, i_lo, i_hi)));
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IntVect;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn par_for_visits_every_zone_exactly_once() {
        let bx = IndexBox::cube(9);
        let counts: Vec<AtomicU64> = (0..bx.num_zones()).map(|_| AtomicU64::new(0)).collect();
        ExecSpace::Serial.par_for(bx, |i, j, k| {
            let n = bx.linear_index(IntVect::new(i, j, k));
            counts[n].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn rows_and_their_lane_chunks_cover_every_zone_once_in_memory_order() {
        let bx = IndexBox::new(IntVect::new(-3, 0, 1), IntVect::new(5, 2, 3));
        let visited = std::sync::Mutex::new(Vec::new());
        ExecSpace::Serial.par_for_rows(bx, |j, k, i_lo, i_hi| {
            assert_eq!((i_lo, i_hi), (bx.lo().x(), bx.hi().x()));
            lane_chunks(i_lo, i_hi, |o, live| {
                assert!((1..=LANES).contains(&live));
                for l in 0..live {
                    let iv = IntVect::new(i_lo + (o + l) as i32, j, k);
                    visited.lock().unwrap().push(bx.linear_index(iv));
                }
            });
        });
        let visited = visited.into_inner().unwrap();
        assert_eq!(visited, (0..bx.num_zones() as usize).collect::<Vec<_>>());
        for len in 0..=9 {
            let mut chunks = Vec::new();
            lane_chunks(7, 7 + len - 1, |o, live| chunks.push((o, live)));
            let lives: usize = chunks.iter().map(|&(_, live)| live).sum();
            assert_eq!(lives, len as usize);
            assert!(chunks.iter().enumerate().all(|(n, &(o, _))| o == n * LANES));
        }
    }

    #[test]
    fn par_for_empty_box_is_noop() {
        let ex = ExecSpace::Serial;
        ex.par_for(IndexBox::empty(), |_, _, _| panic!("must not run"));
        assert_eq!(
            ex.par_reduce_rows_max(IndexBox::empty(), |_, _, _, _| panic!("must not run")),
            f64::NEG_INFINITY
        );
    }

    /// The row reduction is the zone-by-zone fold, bit for bit.
    #[test]
    fn max_reduction_is_the_same_on_both_spaces() {
        let bx = IndexBox::new(IntVect::new(-2, 0, 1), IntVect::new(5, 7, 6));
        let f = |i: i32, j: i32, k: i32| ((i * 37 + j * 11 - k * 5) as f64).sin();
        let reference = bx
            .iter()
            .map(|iv| f(iv.x(), iv.y(), iv.z()))
            .fold(f64::NEG_INFINITY, f64::max);
        let row_max = |j, k, i_lo, i_hi| {
            (i_lo..=i_hi)
                .map(|i| f(i, j, k))
                .fold(f64::NEG_INFINITY, f64::max)
        };
        assert_eq!(
            ExecSpace::Serial.par_reduce_rows_max(bx, row_max).to_bits(),
            reference.to_bits()
        );
    }

    #[test]
    fn every_launch_records_its_zones() {
        {
            let _r = Telemetry::region("exec_zones_test");
            ExecSpace::Serial.par_for(IndexBox::cube(2), |_, _, _| {});
            ExecSpace::Serial.par_for_rows(IndexBox::cube(3), |_, _, _, _| {});
            ExecSpace::Serial.par_reduce_rows_max(IndexBox::cube(4), |_, _, _, _| 1.0);
        }
        let s = Telemetry::region_stats("exec_zones_test").expect("region recorded");
        assert_eq!(s.zones, 8 + 27 + 64);
    }
}
