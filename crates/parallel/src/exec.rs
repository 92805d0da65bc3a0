//! The per-zone loop (§III of the paper).
//!
//! AMReX's answer to Kokkos/RAJA: application code expresses *the work done
//! at a given index* `(i, j, k)` as a closure over an [`IndexBox`]. The
//! closure's `Fn + Sync` bound is the per-zone independence contract every
//! kernel was rewritten to satisfy during the GPU port (Fig. 1 right): no
//! zone's result may depend on the order in which zones run.
//!
//! Parallelism comes from boxes, not from this loop: `amr::HaloLoop` runs one
//! task per box on the persistent [`crate::pool::WorkerPool`], and inside a
//! task the closure runs over every zone in one serial loop. An
//! [`ExecSpace`] therefore does not choose how a loop runs; it says what a
//! launch is charged to:
//!
//! * [`ExecSpace::Serial`] — nothing beyond the loop itself;
//! * [`ExecSpace::Device`] — a simulated accelerator too (Fig. 1 right). The
//!   answers are the host's; the device observes the launch and is charged
//!   a modelled execution time through [`ExecSpace::charge`].
//!
//! Because the loop body is the same either way, the same physics source
//! runs on every backend — the "single source" property the paper deems
//! essential. Every launch reports its zone count (and, on a device space,
//! its charged microseconds) to the open [`Telemetry`] region, so the region
//! table sees per-kernel totals without per-call-site bookkeeping.

use crate::device::{KernelProfile, SimDevice};
use crate::index::IndexBox;
use exastro_telemetry::Telemetry;
use std::sync::Arc;

/// What a kernel launch is charged to, besides the host loop that runs it.
#[derive(Clone, Debug)]
pub enum ExecSpace {
    /// The per-zone loop alone.
    Serial,
    /// The same loop, with every launch also charged to a simulated
    /// accelerator.
    Device(Arc<SimDevice>),
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
    /// Charge a launch of `zones` zones with cost `profile` to the simulated
    /// device and report the charged microseconds to the open [`Telemetry`]
    /// region. A no-op on [`ExecSpace::Serial`].
    #[inline]
    pub fn charge(&self, zones: i64, profile: &KernelProfile) {
        if let ExecSpace::Device(dev) = self {
            Telemetry::record_device_us(dev.launch(zones, profile));
        }
    }

    /// Run `f(i, j, k)` for every zone of `bx` with default kernel cost.
    pub fn par_for<F>(&self, bx: IndexBox, f: F)
    where
        F: Fn(i32, i32, i32) + Sync,
    {
        self.par_for_prof(bx, &KernelProfile::default(), f)
    }

    /// Run `f(i, j, k)` for every zone of `bx`, charging `profile`.
    pub fn par_for_prof<F>(&self, bx: IndexBox, profile: &KernelProfile, f: F)
    where
        F: Fn(i32, i32, i32) + Sync,
    {
        Telemetry::record_zones(bx.num_zones().max(0) as u64);
        self.charge(bx.num_zones(), profile);
        serial_for(bx, f);
    }

    /// The maximum of `f(i, j, k)` over `bx` (−∞ for an empty box), charged
    /// at default kernel cost.
    pub fn par_reduce_max<F>(&self, bx: IndexBox, f: F) -> f64
    where
        F: Fn(i32, i32, i32) -> f64 + Sync,
    {
        Telemetry::record_zones(bx.num_zones().max(0) as u64);
        self.charge(bx.num_zones(), &KernelProfile::default());
        let mut acc = f64::NEG_INFINITY;
        serial_for(bx, |i, j, k| acc = acc.max(f(i, j, k)));
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::index::IntVect;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spaces() -> [ExecSpace; 2] {
        [
            ExecSpace::Serial,
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
            assert_eq!(
                ex.par_reduce_max(IndexBox::empty(), |_, _, _| panic!("must not run")),
                f64::NEG_INFINITY
            );
        }
    }

    #[test]
    fn max_reduction_is_the_same_on_both_spaces() {
        let bx = IndexBox::new(IntVect::new(-2, 0, 1), IntVect::new(5, 7, 6));
        let f = |i: i32, j: i32, k: i32| ((i * 37 + j * 11 - k * 5) as f64).sin();
        let reference = bx
            .iter()
            .map(|iv| f(iv.x(), iv.y(), iv.z()))
            .fold(f64::NEG_INFINITY, f64::max);
        for ex in spaces() {
            assert_eq!(ex.par_reduce_max(bx, f).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn only_a_device_space_is_charged() {
        let dev = SimDevice::new(DeviceConfig::v100());
        let ex = ExecSpace::Device(dev.clone());
        ex.par_for(IndexBox::cube(8), |_, _, _| {});
        ex.par_reduce_max(IndexBox::cube(8), |_, _, _| 1.0);
        ex.charge(100, &KernelProfile::new(5.0, 320));
        assert_eq!(dev.stats().kernels, 3);
        assert_eq!(dev.stats().zones, 1124);
        assert!(dev.elapsed_us() > 0.0);
        {
            let _r = Telemetry::region("exec_charge_test");
            ExecSpace::Serial.charge(100, &KernelProfile::default());
            ExecSpace::Serial.par_for(IndexBox::cube(2), |_, _, _| {});
        }
        let s = Telemetry::region_stats("exec_charge_test").expect("region recorded");
        assert_eq!((s.zones, s.device_us), (8, 0.0));
    }
}
