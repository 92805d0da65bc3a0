//! The `parallel_for` abstraction layer (§III of the paper).
//!
//! AMReX's answer to Kokkos/RAJA: application code expresses *the work done
//! at a given index* `(i, j, k)` as a closure over an [`IndexBox`], and the
//! execution space decides how the loop runs:
//!
//! * [`ExecSpace::Serial`] — a plain nested loop (single CPU core);
//! * [`ExecSpace::Tiled`] — coarse-grained threading over tiles on the
//!   persistent [`WorkerPool`], matching the MPI + OpenMP structure used on
//!   Cori/Edison (Fig. 1 centre). Threads are spawned once per process, not
//!   per loop — see [`crate::pool`];
//! * [`ExecSpace::Device`] — every zone is one device thread (Fig. 1 right).
//!   The closure still runs on the host so answers are real, and the
//!   simulated device is charged a modelled execution time.
//!
//! Because the loop body is identical in all three cases, the same physics
//! source runs on every backend — the "single source" property the paper
//! deems essential. Every launch reports its zone count (and, on the device
//! space, its charged microseconds) to the open [`Telemetry`] region, so the
//! region table sees per-kernel totals without per-call-site bookkeeping.

use crate::device::{KernelProfile, SimDevice};
use crate::index::{IndexBox, IntVect};
use crate::pool::{par_each_mut_bounded, Tasks, WorkerPool};
use exastro_telemetry::Telemetry;
use std::sync::Arc;

/// Parameters for the coarse-grained tiled (OpenMP-like) backend.
#[derive(Clone, Debug)]
pub struct TiledExec {
    /// Maximum participating threads per parallel region (workers from the
    /// shared pool plus the calling thread).
    pub nthreads: usize,
    /// Tile extent per dimension. AMReX's default tile is thin in `y`/`z` and
    /// spans the whole box in `x` to preserve stride-1 inner loops.
    pub tile_size: IntVect,
}

impl Default for TiledExec {
    fn default() -> Self {
        TiledExec {
            nthreads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            tile_size: IntVect::new(1 << 20, 8, 8),
        }
    }
}

/// An execution space: where and how `parallel_for` loops run.
#[derive(Clone)]
pub enum ExecSpace {
    /// Plain serial nested loops.
    Serial,
    /// Coarse-grained host threading over tiles on the persistent pool.
    Tiled(TiledExec),
    /// Per-zone execution accounted on a simulated accelerator.
    Device(Arc<SimDevice>),
}

impl std::fmt::Debug for ExecSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecSpace::Serial => write!(f, "Serial"),
            ExecSpace::Tiled(t) => write!(f, "Tiled(n={}, tile={:?})", t.nthreads, t.tile_size),
            ExecSpace::Device(d) => write!(f, "Device({})", d.config().name),
        }
    }
}

/// Split `bx` into tiles of at most `tile` zones per dimension.
pub fn tiles_of(bx: IndexBox, tile: IntVect) -> Vec<IndexBox> {
    if bx.is_empty() {
        return vec![];
    }
    let tile = IntVect::new(tile.x().max(1), tile.y().max(1), tile.z().max(1));
    let lo = bx.lo();
    let hi = bx.hi();
    let mut out = Vec::new();
    let mut kz = lo.z();
    while kz <= hi.z() {
        let kh = (kz + tile.z() - 1).min(hi.z());
        let mut jy = lo.y();
        while jy <= hi.y() {
            let jh = (jy + tile.y() - 1).min(hi.y());
            let mut ix = lo.x();
            while ix <= hi.x() {
                let ih = (ix + tile.x() - 1).min(hi.x());
                out.push(IndexBox::new(
                    IntVect::new(ix, jy, kz),
                    IntVect::new(ih, jh, kh),
                ));
                ix = ih + 1;
            }
            jy = jh + 1;
        }
        kz = kh + 1;
    }
    out
}

#[inline]
fn serial_for<F: FnMut(i32, i32, i32)>(bx: IndexBox, mut f: F) {
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
            for i in lo.x() as i64..hi.x() as i64 + 1 {
                f(i as i32, j as i32, k as i32);
            }
        }
    }
}

impl ExecSpace {
    /// Run `f(i, j, k)` for every zone of `bx` with default kernel cost.
    ///
    /// The closure must be safe to call concurrently for *different* indices;
    /// this is the "embarrassingly parallel over zones" contract every kernel
    /// was rewritten to satisfy during the GPU port.
    pub fn par_for<F>(&self, bx: IndexBox, f: F)
    where
        F: Fn(i32, i32, i32) + Sync,
    {
        self.par_for_prof(bx, &KernelProfile::default(), f)
    }

    /// Run `f(i, j, k)` for every zone of `bx`, charging the given cost
    /// profile if this is a device space.
    pub fn par_for_prof<F>(&self, bx: IndexBox, profile: &KernelProfile, f: F)
    where
        F: Fn(i32, i32, i32) + Sync,
    {
        Telemetry::record_zones(bx.num_zones().max(0) as u64);
        match self {
            ExecSpace::Serial => serial_for(bx, f),
            ExecSpace::Device(dev) => {
                Telemetry::record_device_us(dev.launch(bx.num_zones(), profile));
                serial_for(bx, f);
            }
            ExecSpace::Tiled(t) => {
                let tiles = tiles_of(bx, t.tile_size);
                if tiles.len() <= 1 || t.nthreads <= 1 {
                    serial_for(bx, f);
                    return;
                }
                let fref = &f;
                let tref = &tiles;
                WorkerPool::global().run(tiles.len(), t.nthreads, &|tasks: Tasks<'_>| {
                    while let Some(idx) = tasks.next_task() {
                        serial_for(tref[idx], fref);
                    }
                });
            }
        }
    }

    /// Reference backend that spawns and joins fresh OS threads for every
    /// call — the pre-pool behaviour of [`ExecSpace::Tiled`], retained only
    /// so the ablation benchmark can measure what the persistent pool buys.
    pub fn par_for_spawn_per_call<F>(&self, bx: IndexBox, f: F)
    where
        F: Fn(i32, i32, i32) + Sync,
    {
        let t = match self {
            ExecSpace::Tiled(t) => t.clone(),
            _ => {
                self.par_for(bx, f);
                return;
            }
        };
        let tiles = tiles_of(bx, t.tile_size);
        if tiles.len() <= 1 || t.nthreads <= 1 {
            serial_for(bx, f);
            return;
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let fref = &f;
        let tref = &tiles;
        let nref = &next;
        std::thread::scope(|s| {
            for _ in 0..t.nthreads.min(tiles.len()) {
                s.spawn(move || loop {
                    let idx = nref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if idx >= tref.len() {
                        break;
                    }
                    serial_for(tref[idx], fref);
                });
            }
        });
    }

    /// Parallel sum-reduction of `f(i, j, k)` over `bx`.
    pub fn par_reduce_sum<F>(&self, bx: IndexBox, f: F) -> f64
    where
        F: Fn(i32, i32, i32) -> f64 + Sync,
    {
        self.reduce(bx, 0.0, |a, b| a + b, f)
    }

    /// Parallel max-reduction of `f(i, j, k)` over `bx`.
    pub fn par_reduce_max<F>(&self, bx: IndexBox, f: F) -> f64
    where
        F: Fn(i32, i32, i32) -> f64 + Sync,
    {
        self.reduce(bx, f64::NEG_INFINITY, f64::max, f)
    }

    /// Parallel min-reduction of `f(i, j, k)` over `bx`.
    pub fn par_reduce_min<F>(&self, bx: IndexBox, f: F) -> f64
    where
        F: Fn(i32, i32, i32) -> f64 + Sync,
    {
        self.reduce(bx, f64::INFINITY, f64::min, f)
    }

    fn reduce<F, C>(&self, bx: IndexBox, init: f64, combine: C, f: F) -> f64
    where
        F: Fn(i32, i32, i32) -> f64 + Sync,
        C: Fn(f64, f64) -> f64 + Sync,
    {
        Telemetry::record_zones(bx.num_zones().max(0) as u64);
        match self {
            ExecSpace::Serial => {
                let mut acc = init;
                serial_for(bx, |i, j, k| acc = combine(acc, f(i, j, k)));
                acc
            }
            ExecSpace::Device(dev) => {
                Telemetry::record_device_us(dev.launch(bx.num_zones(), &KernelProfile::default()));
                let mut acc = init;
                serial_for(bx, |i, j, k| acc = combine(acc, f(i, j, k)));
                acc
            }
            ExecSpace::Tiled(t) => {
                let tiles = tiles_of(bx, t.tile_size);
                if tiles.len() <= 1 || t.nthreads <= 1 {
                    let mut acc = init;
                    serial_for(bx, |i, j, k| acc = combine(acc, f(i, j, k)));
                    return acc;
                }
                // One partial slot per tile, filled by whichever thread
                // claims the tile, then folded serially in tile order so
                // the result is independent of scheduling.
                let mut partials: Vec<f64> = vec![init; tiles.len()];
                let fref = &f;
                let cref = &combine;
                let tref = &tiles;
                par_each_mut_bounded(
                    WorkerPool::global(),
                    &mut partials,
                    t.nthreads,
                    |idx, slot| {
                        let mut acc = init;
                        serial_for(tref[idx], |i, j, k| acc = cref(acc, fref(i, j, k)));
                        *slot = acc;
                    },
                );
                partials.into_iter().fold(init, &combine)
            }
        }
    }

    /// The simulated device behind this space, if any.
    pub fn device(&self) -> Option<&Arc<SimDevice>> {
        match self {
            ExecSpace::Device(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spaces() -> Vec<ExecSpace> {
        vec![
            ExecSpace::Serial,
            ExecSpace::Tiled(TiledExec {
                nthreads: 4,
                tile_size: IntVect::new(4, 4, 4),
            }),
            ExecSpace::Device(SimDevice::new(DeviceConfig::v100())),
        ]
    }

    #[test]
    fn par_for_visits_every_zone_exactly_once() {
        let bx = IndexBox::cube(9);
        for ex in spaces() {
            let counts: Vec<AtomicU64> = (0..bx.num_zones()).map(|_| AtomicU64::new(0)).collect();
            ex.par_for(bx, |i, j, k| {
                let n = bx.linear_index(IntVect::new(i, j, k));
                counts[n].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "backend {ex:?} missed or repeated zones"
            );
        }
    }

    #[test]
    fn par_for_empty_box_is_noop() {
        for ex in spaces() {
            ex.par_for(IndexBox::empty(), |_, _, _| panic!("must not run"));
        }
    }

    #[test]
    fn reductions_agree_across_backends() {
        let bx = IndexBox::new(IntVect::new(-2, 0, 1), IntVect::new(5, 7, 6));
        let f = |i: i32, j: i32, k: i32| (i + 2 * j + 3 * k) as f64;
        let reference: f64 = bx.iter().map(|iv| f(iv.x(), iv.y(), iv.z())).sum();
        let refmax = bx
            .iter()
            .map(|iv| f(iv.x(), iv.y(), iv.z()))
            .fold(f64::NEG_INFINITY, f64::max);
        let refmin = bx
            .iter()
            .map(|iv| f(iv.x(), iv.y(), iv.z()))
            .fold(f64::INFINITY, f64::min);
        for ex in spaces() {
            assert!(
                (ex.par_reduce_sum(bx, f) - reference).abs() < 1e-9,
                "{ex:?}"
            );
            assert_eq!(ex.par_reduce_max(bx, f), refmax, "{ex:?}");
            assert_eq!(ex.par_reduce_min(bx, f), refmin, "{ex:?}");
        }
    }

    #[test]
    fn tiled_reductions_are_deterministic() {
        let bx = IndexBox::cube(13);
        let ex = ExecSpace::Tiled(TiledExec {
            nthreads: 8,
            tile_size: IntVect::new(3, 3, 3),
        });
        let f = |i: i32, j: i32, k: i32| ((i * 31 + j * 7 + k) as f64).sin();
        let first = ex.par_reduce_sum(bx, f);
        for _ in 0..10 {
            assert_eq!(first.to_bits(), ex.par_reduce_sum(bx, f).to_bits());
        }
    }

    #[test]
    fn tiles_cover_box_disjointly() {
        let bx = IndexBox::new(IntVect::new(3, -1, 2), IntVect::new(17, 12, 9));
        let tiles = tiles_of(bx, IntVect::new(5, 4, 3));
        let total: i64 = tiles.iter().map(|t| t.num_zones()).sum();
        assert_eq!(total, bx.num_zones());
        for (i, a) in tiles.iter().enumerate() {
            assert!(bx.contains_box(a));
            for b in &tiles[i + 1..] {
                assert!(!a.intersects(b));
            }
        }
    }

    #[test]
    fn device_space_records_launches() {
        let dev = SimDevice::new(DeviceConfig::v100());
        let ex = ExecSpace::Device(dev.clone());
        ex.par_for(IndexBox::cube(8), |_, _, _| {});
        ex.par_reduce_sum(IndexBox::cube(8), |_, _, _| 1.0);
        assert_eq!(dev.stats().kernels, 2);
        assert_eq!(dev.stats().zones, 1024);
        assert!(dev.elapsed_us() > 0.0);
    }

    #[test]
    fn tiled_steady_state_spawns_no_threads() {
        let ex = ExecSpace::Tiled(TiledExec {
            nthreads: 4,
            tile_size: IntVect::new(4, 4, 4),
        });
        let bx = IndexBox::cube(16);
        // Warm up: first use may lazily start the global pool.
        ex.par_for(bx, |_, _, _| {});
        let spawned = WorkerPool::global().stats().threads_spawned;
        for _ in 0..100 {
            ex.par_for(bx, |i, j, k| {
                std::hint::black_box(i + j + k);
            });
            ex.par_reduce_sum(bx, |i, j, k| (i + j + k) as f64);
        }
        assert_eq!(
            WorkerPool::global().stats().threads_spawned,
            spawned,
            "Tiled backend must not spawn threads after warm-up"
        );
    }
}
