//! The persistent worker-pool runtime: the suite's one executor.
//!
//! Box-level parallelism runs here: the task graph's box tasks (`amr::HaloLoop`
//! sweeps), ghost exchanges and burn sweeps are all regions on the
//! process-wide pool, and a kernel inside a task is the serial per-zone loop
//! of [`crate::exec`]. A thread spawn costs tens of microseconds to
//! milliseconds; a small-box task costs microseconds — so, like AMReX and
//! OpenMP, the runtime is a *persistent thread team*: workers are spawned
//! once, sleep on a condition variable between parallel regions, and a
//! region is a pointer handoff plus a wake, not a spawn.
//!
//! ## Protocol
//!
//! A parallel region publishes a type-erased job into a single slot guarded
//! by a mutex, wakes the workers, and participates in the work itself.
//! Workers *register* into the job under the slot lock, claim task indices
//! from a shared atomic counter, and *depart* through a per-job completion
//! latch. The caller closes the slot (preventing late registration), then
//! blocks until every registered worker has departed. Because registration
//! happens under the same lock that the caller uses to close the slot, no
//! worker can touch a job after its region has returned — which is what
//! makes the lifetime erasure in [`WorkerPool::run`] sound.
//!
//! Nested parallelism and concurrent regions from multiple user threads are
//! detected (thread-local flag / occupied slot) and execute inline on the
//! calling thread — correct, just serial, and counted in [`PoolStats`].

#![allow(unsafe_code)]

use exastro_telemetry::{RegionId, Telemetry};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Counters describing pool behaviour since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Resident worker threads (excluding callers).
    pub threads: usize,
    /// OS threads ever spawned by the pool. After warm-up this must not
    /// grow.
    pub threads_spawned: u64,
    /// Parallel regions requested through [`WorkerPool::run`].
    pub regions: u64,
    /// Regions dispatched to the worker team.
    pub pooled_regions: u64,
    /// Regions executed inline (too small, nested, or slot contended).
    pub serial_regions: u64,
}

impl PoolStats {
    /// Fraction of regions served by the worker team.
    pub fn pool_hit_rate(&self) -> f64 {
        if self.regions == 0 {
            return 1.0;
        }
        self.pooled_regions as f64 / self.regions as f64
    }
}

/// The one-line summary the examples print under the region table.
impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} worker(s), {} spawned (ever), {} regions ({} pooled / {} inline, hit rate {:.0}%)",
            self.threads,
            self.threads_spawned,
            self.regions,
            self.pooled_regions,
            self.serial_regions,
            100.0 * self.pool_hit_rate()
        )
    }
}

/// A claim ticket for task indices inside a parallel region. Each call to
/// [`Tasks::next_task`] returns a distinct index in `0..ntasks`; when the
/// counter is exhausted it returns `None`.
pub struct Tasks<'a> {
    next: &'a AtomicUsize,
    ntasks: usize,
}

impl Tasks<'_> {
    /// Claim the next unclaimed task index, if any.
    #[inline]
    pub fn next_task(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i < self.ntasks {
            Some(i)
        } else {
            None
        }
    }

    /// Total tasks in this region.
    pub fn len(&self) -> usize {
        self.ntasks
    }

    /// True if the region has no tasks.
    pub fn is_empty(&self) -> bool {
        self.ntasks == 0
    }
}

/// Per-job shared state, owned by the caller's stack frame for the duration
/// of the region.
struct JobCore {
    next: AtomicUsize,
    ntasks: usize,
    departures: Mutex<usize>,
    departed_cv: Condvar,
    /// First worker panic payload, rethrown verbatim on the caller thread
    /// so `panic!("zone 372 ...")` survives the pool boundary.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The submitting thread's region context. Workers adopt it for the
    /// job's duration so `Telemetry::record_*` calls inside the body land in
    /// the submitter's row, not in `(top)` (the context is per thread).
    region: RegionId,
    /// Trace-span label for worker participation, `pool:<region>` (None
    /// when telemetry is disabled).
    trace_label: Option<&'static str>,
}

/// The participant body with its lifetime erased. Soundness: the registration
/// protocol guarantees no worker dereferences `body`/`core` after the
/// caller's `run` frame (which owns both) returns.
struct JobMsg {
    seq: u64,
    core: *const JobCore,
    body: *const (dyn Fn(Tasks<'_>) + Sync),
    max_workers: usize,
    registered: usize,
}

// SAFETY: the pointers are only dereferenced while the owning `run` frame is
// provably alive (see module docs); the pointee itself is Sync.
unsafe impl Send for JobMsg {}

struct Shared {
    slot: Mutex<Option<JobMsg>>,
    wake: Condvar,
}

thread_local! {
    /// True while this thread is executing a pool job (re-entrancy guard).
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A persistent team of worker threads executing parallel regions.
pub struct WorkerPool {
    shared: Arc<Shared>,
    nworkers: usize,
    seq: AtomicU64,
    spawned: AtomicU64,
    regions: AtomicU64,
    pooled: AtomicU64,
    serial: AtomicU64,
}

impl WorkerPool {
    /// Build a pool with `nworkers` resident workers. The process-wide pool
    /// from [`WorkerPool::global`] is what production code should use; this
    /// constructor exists for tests that need an isolated team.
    pub fn new(nworkers: usize) -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new(None),
            wake: Condvar::new(),
        });
        let pool = WorkerPool {
            shared: shared.clone(),
            nworkers,
            seq: AtomicU64::new(0),
            spawned: AtomicU64::new(0),
            regions: AtomicU64::new(0),
            pooled: AtomicU64::new(0),
            serial: AtomicU64::new(0),
        };
        for w in 0..nworkers {
            let shared = shared.clone();
            pool.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("exastro-worker-{w}"))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
        }
        pool
    }

    /// The process-wide pool, started lazily on first use with
    /// `max(1, available_parallelism - 1)` workers (the calling thread is
    /// the remaining participant).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let ncpu = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::new(ncpu.saturating_sub(1).max(1))
        })
    }

    /// Resident worker count.
    pub fn nworkers(&self) -> usize {
        self.nworkers
    }

    /// Snapshot of pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.nworkers,
            threads_spawned: self.spawned.load(Ordering::Relaxed),
            regions: self.regions.load(Ordering::Relaxed),
            pooled_regions: self.pooled.load(Ordering::Relaxed),
            serial_regions: self.serial.load(Ordering::Relaxed),
        }
    }

    /// Execute a parallel region of `ntasks` tasks with at most
    /// `max_threads` participants (workers + the calling thread). `body` is
    /// invoked once per participant and should drain [`Tasks`] until empty.
    ///
    /// Falls back to a single inline `body` call when the region is trivial,
    /// the calling thread is itself a pool worker (nested parallelism), or
    /// another thread's region currently owns the team.
    pub fn run(&self, ntasks: usize, max_threads: usize, body: &(dyn Fn(Tasks<'_>) + Sync)) {
        self.regions.fetch_add(1, Ordering::Relaxed);
        let region = Telemetry::context();
        let trace_label = Telemetry::is_enabled().then(|| region.pool_label());
        let core = JobCore {
            next: AtomicUsize::new(0),
            ntasks,
            departures: Mutex::new(0),
            departed_cv: Condvar::new(),
            panic: Mutex::new(None),
            region,
            trace_label,
        };
        let want = max_threads.min(self.nworkers + 1);
        let nested = IN_POOL_WORKER.with(|f| f.get());
        if ntasks <= 1 || want <= 1 || self.nworkers == 0 || nested {
            self.serial.fetch_add(1, Ordering::Relaxed);
            body(Tasks {
                next: &core.next,
                ntasks,
            });
            return;
        }
        // SAFETY: we erase the closure's borrow lifetime to park it in the
        // dispatch slot. The registration/departure protocol below ensures
        // every dereference happens before this frame returns.
        let body_erased: *const (dyn Fn(Tasks<'_>) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(Tasks<'_>) + Sync), *const (dyn Fn(Tasks<'_>) + Sync)>(
                body,
            )
        };
        {
            let mut slot = self.shared.slot.lock().unwrap();
            if slot.is_some() {
                // Another user thread's region is in flight: run inline
                // rather than queueing (regions are short; fairness is not
                // worth a queue's complexity here).
                drop(slot);
                self.serial.fetch_add(1, Ordering::Relaxed);
                body(Tasks {
                    next: &core.next,
                    ntasks,
                });
                return;
            }
            *slot = Some(JobMsg {
                seq: self.seq.fetch_add(1, Ordering::Relaxed).wrapping_add(1),
                core: &core,
                body: body_erased,
                max_workers: want - 1,
                registered: 0,
            });
        }
        // Wake after releasing the slot lock so woken workers don't
        // immediately block on the mutex we hold.
        self.shared.wake.notify_all();
        self.pooled.fetch_add(1, Ordering::Relaxed);
        // The caller is participant zero.
        let caller_result = catch_unwind(AssertUnwindSafe(|| {
            body(Tasks {
                next: &core.next,
                ntasks,
            })
        }));
        // Close the slot: after this, no worker can register.
        let expected = {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.take().map(|msg| msg.registered).unwrap_or(0)
        };
        // Wait until every registered worker has departed.
        let mut departed = core.departures.lock().unwrap();
        while *departed < expected {
            departed = core.departed_cv.wait(departed).unwrap();
        }
        drop(departed);
        if let Err(p) = caller_result {
            std::panic::resume_unwind(p);
        }
        let worker_panic = core.panic.lock().unwrap().take();
        if let Some(p) = worker_panic {
            // Rethrow the worker's own payload, not a generic message.
            std::panic::resume_unwind(p);
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut last_seq = 0u64;
    loop {
        // Wait for a job we have not served yet and that still has room.
        let (core_ptr, body_ptr) = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if let Some(msg) = slot.as_mut() {
                    if msg.seq != last_seq {
                        last_seq = msg.seq;
                        if msg.registered < msg.max_workers {
                            msg.registered += 1;
                            break (msg.core, msg.body);
                        }
                        // Team full for this job: skip it and sleep.
                    }
                }
                slot = shared.wake.wait(slot).unwrap();
            }
        };
        // SAFETY: we registered under the slot lock, so the caller's `run`
        // frame cannot return (and the job cannot be freed) until our
        // departure below. See module docs.
        let core: &JobCore = unsafe { &*core_ptr };
        let body: &(dyn Fn(Tasks<'_>) + Sync) = unsafe { &*body_ptr };
        IN_POOL_WORKER.with(|f| f.set(true));
        let result = {
            // Attribute what the body records to the submitting thread's
            // region, and (when telemetry is on) mark this worker's
            // participation with a trace span carrying *this* thread's id.
            // The body runs under `catch_unwind`, so the context is always
            // put back.
            let own = Telemetry::set_context(core.region);
            if let Some(label) = core.trace_label {
                Telemetry::trace_begin(label);
            }
            let r = catch_unwind(AssertUnwindSafe(|| {
                body(Tasks {
                    next: &core.next,
                    ntasks: core.ntasks,
                })
            }));
            if let Some(label) = core.trace_label {
                Telemetry::trace_end(label);
            }
            Telemetry::set_context(own);
            r
        };
        IN_POOL_WORKER.with(|f| f.set(false));
        if let Err(p) = result {
            let mut slot = core.panic.lock().unwrap();
            // Keep the first payload; later ones are byproducts of the same
            // failed region.
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        // Depart: after the unlock below we never touch the job again.
        let mut departed = core.departures.lock().unwrap();
        *departed += 1;
        core.departed_cv.notify_all();
    }
}

/// Run `f(i)` for every `i in 0..n` on the global pool.
pub fn par_index_each<F: Fn(usize) + Sync>(n: usize, max_threads: usize, f: F) {
    WorkerPool::global().run(n, max_threads, &|tasks: Tasks<'_>| {
        while let Some(i) = tasks.next_task() {
            f(i);
        }
    });
}

/// Run `f(i, &mut items[i])` for every element, distributing disjoint
/// elements across the global pool.
pub fn par_each_mut<T: Send, F: Fn(usize, &mut T) + Sync>(items: &mut [T], f: F) {
    par_each_mut_bounded(WorkerPool::global(), items, usize::MAX, f);
}

/// [`par_each_mut`] on an explicit pool with a participant cap.
///
/// A cap of 0 is clamped to 1 (inline serial): callers like the task-graph
/// scheduler pass *computed* caps (ready-set widths, buffer counts) that can
/// legitimately reach zero, and "no parallelism" must still mean "every
/// element is processed".
pub(crate) fn par_each_mut_bounded<T: Send, F: Fn(usize, &mut T) + Sync>(
    pool: &WorkerPool,
    items: &mut [T],
    max_threads: usize,
    f: F,
) {
    struct SlicePtr<T>(*mut T);
    // SAFETY: each index is claimed exactly once (Tasks::next_task), so the
    // `&mut` references handed out are disjoint.
    unsafe impl<T: Send> Sync for SlicePtr<T> {}
    let n = items.len();
    let ptr = SlicePtr(items.as_mut_ptr());
    let pref = &ptr;
    pool.run(n, max_threads.max(1), &|tasks: Tasks<'_>| {
        while let Some(i) = tasks.next_task() {
            // SAFETY: i < n and claimed exactly once; see SlicePtr.
            let item: &mut T = unsafe { &mut *pref.0.add(i) };
            f(i, item);
        }
    });
}

/// Fill `out[i] = f(i)` in parallel, then fold the results **in index
/// order**, so the reduction is deterministic regardless of scheduling.
pub fn par_map_fold<T, F, C>(n: usize, init: T, f: F, combine: C) -> T
where
    T: Send + Clone,
    F: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    let mut partials = vec![init.clone(); n];
    par_each_mut(&mut partials, |i, slot| *slot = f(i));
    partials.into_iter().fold(init, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let n = 1 + (round % 17);
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, usize::MAX, &|tasks: Tasks<'_>| {
                while let Some(i) = tasks.next_task() {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn pool_never_spawns_after_warmup() {
        let pool = WorkerPool::new(3);
        let spawned = pool.stats().threads_spawned;
        assert_eq!(spawned, 3);
        for _ in 0..200 {
            pool.run(8, usize::MAX, &|tasks: Tasks<'_>| {
                while let Some(i) = tasks.next_task() {
                    std::hint::black_box(i);
                }
            });
        }
        let s = pool.stats();
        assert_eq!(s.threads_spawned, spawned, "steady state must not spawn");
        assert_eq!(s.regions, 200);
        assert_eq!(s.pooled_regions + s.serial_regions, 200);
    }

    #[test]
    fn nested_regions_fall_back_to_serial() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner_ran = AtomicUsize::new(0);
        pool.run(4, usize::MAX, &|tasks: Tasks<'_>| {
            while let Some(_i) = tasks.next_task() {
                // A nested region from whatever thread runs this task: must
                // complete inline without deadlocking the team.
                let local = AtomicUsize::new(0);
                WorkerPool::global().run(4, usize::MAX, &|t2: Tasks<'_>| {
                    while let Some(_j) = t2.next_task() {
                        local.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert_eq!(local.load(Ordering::Relaxed), 4);
                inner_ran.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(inner_ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn par_each_mut_gives_disjoint_access() {
        let mut v: Vec<u64> = vec![0; 100];
        par_each_mut(&mut v, |i, x| *x = (i * i) as u64);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, (i * i) as u64);
        }
    }

    #[test]
    fn bounded_cap_of_zero_clamps_to_serial_and_processes_everything() {
        // The task-graph scheduler passes computed caps; a width of 0 must
        // degrade to serial execution, never skip work or hang.
        let pool = WorkerPool::new(2);
        let mut v: Vec<u64> = vec![0; 37];
        par_each_mut_bounded(&pool, &mut v, 0, |i, x| *x = i as u64 + 1);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 + 1, "element {i} skipped under cap 0");
        }
        // Still correct for an empty slice under cap 0.
        let mut empty: Vec<u64> = Vec::new();
        par_each_mut_bounded(&pool, &mut empty, 0, |_, _| unreachable!());
    }

    #[test]
    fn par_map_fold_is_deterministic() {
        let a = par_map_fold(64, 0.0f64, |i| 1.0 / (i + 1) as f64, |x, y| x + y);
        let b = par_map_fold(64, 0.0f64, |i| 1.0 / (i + 1) as f64, |x, y| x + y);
        // Bit-for-bit equal: partials fold in index order.
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn zero_and_one_task_regions_run_inline() {
        let pool = WorkerPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(0, usize::MAX, &|tasks: Tasks<'_>| {
            assert!(tasks.next_task().is_none());
            hits.fetch_add(1, Ordering::Relaxed);
        });
        pool.run(1, usize::MAX, &|tasks: Tasks<'_>| {
            while let Some(_i) = tasks.next_task() {
                hits.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(pool.stats().serial_regions, 2);
    }

    #[test]
    fn worker_panic_payload_is_preserved() {
        // Force the panic onto a *worker* (not the caller): the caller
        // claims tasks greedily, so give it a long task 0 while a worker
        // hits the poisoned index.
        let pool = WorkerPool::new(2);
        for _ in 0..20 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run(64, usize::MAX, &|tasks: Tasks<'_>| {
                    while let Some(i) = tasks.next_task() {
                        if i == 13 {
                            panic!("zone 13 failed: SingularMatrix");
                        }
                        std::thread::yield_now();
                    }
                });
            }));
            let payload = result.expect_err("region must propagate the panic");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(|s| s.as_str()))
                .expect("payload must still be the original message");
            assert_eq!(msg, "zone 13 failed: SingularMatrix");
        }
    }

    #[test]
    fn worker_bodies_attribute_to_submitter_region() {
        // Regression test for cross-thread region attribution: record_zones
        // calls made by pool workers must land on the *submitting* thread's
        // region path, not "(top)" (the region context is per thread).
        let pool = WorkerPool::new(3);
        {
            let _r = Telemetry::region("pool_attr_test");
            for _ in 0..20 {
                pool.run(64, usize::MAX, &|tasks: Tasks<'_>| {
                    while let Some(_i) = tasks.next_task() {
                        Telemetry::record_zones(1);
                        std::thread::yield_now();
                    }
                });
            }
        }
        let s = Telemetry::region_stats("pool_attr_test").expect("region recorded");
        assert_eq!(s.zones, 20 * 64, "every zone attributes to the submitter");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, usize::MAX, &|tasks: Tasks<'_>| {
                while let Some(i) = tasks.next_task() {
                    if i == 7 {
                        panic!("boom");
                    }
                }
            });
        }));
        assert!(result.is_err());
        // The team must survive a panicked region.
        let ok = AtomicUsize::new(0);
        pool.run(8, usize::MAX, &|tasks: Tasks<'_>| {
            while let Some(_i) = tasks.next_task() {
                ok.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }
}
