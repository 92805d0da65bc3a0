//! Scratch-memory arenas.
//!
//! The astro codes allocate temporary storage inside the timestep loop
//! (primitive-variable scratch, flux arrays, integrator work space). On CPUs
//! this is tolerable; on a device, every allocation is a synchronizing,
//! high-latency operation. AMReX's answer — adopted as the CUDA-build default
//! after the work in this paper — is a *caching (pool) allocator*: in the
//! asymptotic limit, "allocations" and "frees" exchange handles to previously
//! allocated blocks and never touch the device allocator (§III).
//!
//! Two implementations of the [`Arena`] trait are provided so the benefit is
//! measurable:
//!
//! * [`PoolArena`] — size-class bins of recycled buffers (the paper's fix);
//! * [`MallocArena`] — a fresh allocation every time (the "disastrous"
//!   baseline).
//!
//! [`ArenaStats::device_allocs`] and [`ArenaStats::device_frees`] count the
//! allocations and frees a device build would make; `exastro-machine`
//! prices them at its device's allocation latencies.
//!
//! A buffer's contents are **unspecified**: every caller writes a slot
//! before it reads it. Memory the arena has never handed out is zero; a
//! recycled [`PoolArena`] buffer comes back as its last user left it —
//! nothing is re-zeroed, which is the point of recycling — except in debug
//! builds, where it is filled with NaN so that a read-before-write turns
//! into a non-finite result instead of a plausible zero.
//!
//! Byte accounting is canonical on the **size class**: an allocation of `len`
//! elements is charged `size_class(len) * 8` bytes at alloc time, and exactly
//! the same amount is credited on free/recycle. (`Vec::with_capacity` may
//! round capacity up, so using `capacity()` on one side and the class on the
//! other — as an earlier revision did — made `bytes_live` drift and
//! eventually underflow.)

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Allocation statistics for an arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total `alloc` calls served.
    pub allocs: u64,
    /// Allocations served from the pool without touching the device
    /// allocator (always 0 for [`MallocArena`]).
    pub pool_hits: u64,
    /// Allocations that had to perform a real (device) allocation.
    pub device_allocs: u64,
    /// Real (device) frees performed.
    pub device_frees: u64,
    /// Bytes currently held by live buffers handed to callers.
    pub bytes_live: u64,
    /// Peak of `bytes_live` plus pooled bytes.
    pub bytes_peak: u64,
}

/// A scratch-buffer allocator for `f64` workspaces.
pub trait Arena: Send + Sync {
    /// Allocate a buffer of `len` elements with unspecified contents (see
    /// the module docs): the caller writes every slot before reading it.
    /// Dropping the buffer returns it to the arena.
    fn alloc(&self, len: usize) -> ScratchBuf;

    /// Snapshot of allocation statistics.
    fn stats(&self) -> ArenaStats;
}

enum Home {
    Pool(Arc<PoolInner>),
    Malloc(Arc<MallocStats>),
}

/// An owned scratch buffer of `f64` values. Dereferences to a slice of the
/// requested length; returns itself to its arena when dropped.
pub struct ScratchBuf {
    /// At least `len` initialised values: a recycled block keeps the longest
    /// prefix any user has had, so handing it out again writes nothing.
    data: Vec<f64>,
    len: usize,
    /// The size class this buffer was charged as — the single source of
    /// truth for its byte accounting on both the alloc and free sides.
    class: usize,
    home: Option<Home>,
}

impl ScratchBuf {
    /// The requested length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the requested length was zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity of the underlying block (the size class), in elements.
    pub fn capacity(&self) -> usize {
        self.class
    }
}

impl Deref for ScratchBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.data[..self.len]
    }
}

impl DerefMut for ScratchBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.data[..self.len]
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        let bytes = (self.class * 8) as u64;
        match self.home.take() {
            Some(Home::Pool(pool)) => pool.give_back(data, self.class),
            Some(Home::Malloc(stats)) => {
                stats.device_frees.fetch_add(1, Ordering::Relaxed);
                stats.bytes_live.fetch_sub(bytes, Ordering::Relaxed);
            }
            None => {}
        }
    }
}

/// The power-of-two size class (in elements) that an allocation of `len`
/// elements is served from.
pub fn size_class(len: usize) -> usize {
    len.max(64).next_power_of_two()
}

#[derive(Default)]
struct PoolInner {
    bins: Mutex<HashMap<usize, Vec<Vec<f64>>>>,
    allocs: AtomicU64,
    hits: AtomicU64,
    device_allocs: AtomicU64,
    device_frees: AtomicU64,
    bytes_live: AtomicU64,
    bytes_pooled: AtomicU64,
    /// Bytes currently backed by device allocations (live + pooled). Only
    /// changes when memory enters the arena (device alloc) or leaves it
    /// (trim), so peak tracking is a single atomic `fetch_max` — the old
    /// separate live + pooled reads raced and could miss or overshoot peaks.
    bytes_held: AtomicU64,
    bytes_peak: AtomicU64,
}

impl PoolInner {
    fn give_back(&self, buf: Vec<f64>, class: usize) {
        let bytes = (class * 8) as u64;
        self.bytes_live.fetch_sub(bytes, Ordering::Relaxed);
        self.bytes_pooled.fetch_add(bytes, Ordering::Relaxed);
        self.bins
            .lock()
            .unwrap()
            .entry(class)
            .or_default()
            .push(buf);
    }
}

/// The caching (pool) allocator: buffers are binned by power-of-two size
/// class and recycled. Device memory is only allocated on a pool miss, so in
/// steady state the timestep loop performs **zero** device allocations.
#[derive(Clone, Default)]
pub struct PoolArena {
    inner: Arc<PoolInner>,
}

impl PoolArena {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Release all pooled (idle) buffers back to the device.
    pub fn trim(&self) {
        let mut bins = self.inner.bins.lock().unwrap();
        for (class, bufs) in bins.drain() {
            for _b in bufs {
                let bytes = (class * 8) as u64;
                self.inner.bytes_pooled.fetch_sub(bytes, Ordering::Relaxed);
                self.inner.bytes_held.fetch_sub(bytes, Ordering::Relaxed);
                self.inner.device_frees.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Bytes currently sitting idle in the pool.
    pub fn bytes_pooled(&self) -> u64 {
        self.inner.bytes_pooled.load(Ordering::Relaxed)
    }
}

impl Arena for PoolArena {
    fn alloc(&self, len: usize) -> ScratchBuf {
        let class = size_class(len);
        let bytes = (class * 8) as u64;
        self.inner.allocs.fetch_add(1, Ordering::Relaxed);
        let recycled = self
            .inner
            .bins
            .lock()
            .unwrap()
            .get_mut(&class)
            .and_then(Vec::pop);
        let hit = recycled.is_some();
        let mut data = match recycled {
            Some(buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                self.inner.bytes_pooled.fetch_sub(bytes, Ordering::Relaxed);
                buf
            }
            None => {
                self.inner.device_allocs.fetch_add(1, Ordering::Relaxed);
                let held = self.inner.bytes_held.fetch_add(bytes, Ordering::Relaxed) + bytes;
                self.inner.bytes_peak.fetch_max(held, Ordering::Relaxed);
                Vec::with_capacity(class)
            }
        };
        // Only values no user has had yet are initialised (to zero); the
        // rest of a recycled block is handed back as it was left.
        if data.len() < len {
            data.resize(len, 0.0);
        }
        if cfg!(debug_assertions) && hit {
            data[..len].fill(f64::NAN);
        }
        self.inner.bytes_live.fetch_add(bytes, Ordering::Relaxed);
        ScratchBuf {
            data,
            len,
            class,
            home: Some(Home::Pool(self.inner.clone())),
        }
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            allocs: self.inner.allocs.load(Ordering::Relaxed),
            pool_hits: self.inner.hits.load(Ordering::Relaxed),
            device_allocs: self.inner.device_allocs.load(Ordering::Relaxed),
            device_frees: self.inner.device_frees.load(Ordering::Relaxed),
            bytes_live: self.inner.bytes_live.load(Ordering::Relaxed),
            bytes_peak: self.inner.bytes_peak.load(Ordering::Relaxed),
        }
    }
}

#[derive(Default)]
struct MallocStats {
    allocs: AtomicU64,
    device_frees: AtomicU64,
    bytes_live: AtomicU64,
    bytes_peak: AtomicU64,
}

/// The baseline arena: every allocation is a fresh (device) allocation and
/// every drop a synchronizing free.
#[derive(Clone, Default)]
pub struct MallocArena {
    stats: Arc<MallocStats>,
}

impl MallocArena {
    /// Create a malloc-per-call arena.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Arena for MallocArena {
    fn alloc(&self, len: usize) -> ScratchBuf {
        let class = size_class(len);
        let bytes = (class * 8) as u64;
        self.stats.allocs.fetch_add(1, Ordering::Relaxed);
        let mut data = Vec::with_capacity(class);
        data.resize(len, 0.0);
        let live = self.stats.bytes_live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.stats.bytes_peak.fetch_max(live, Ordering::Relaxed);
        ScratchBuf {
            data,
            len,
            class,
            home: Some(Home::Malloc(self.stats.clone())),
        }
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            allocs: self.stats.allocs.load(Ordering::Relaxed),
            pool_hits: 0,
            device_allocs: self.stats.allocs.load(Ordering::Relaxed),
            device_frees: self.stats.device_frees.load(Ordering::Relaxed),
            bytes_live: self.stats.bytes_live.load(Ordering::Relaxed),
            bytes_peak: self.stats.bytes_peak.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers() {
        let pool = PoolArena::new();
        {
            let a = pool.alloc(1000);
            assert_eq!(a.len(), 1000);
            assert!(a.iter().all(|&v| v == 0.0));
        }
        {
            let mut b = pool.alloc(900); // same 1024-element size class
            b[0] = 7.0;
        }
        let s = pool.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.pool_hits, 1);
        assert_eq!(s.device_allocs, 1);
    }

    #[test]
    fn fresh_buffers_are_zero() {
        let pool = PoolArena::new();
        let malloc = MallocArena::new();
        for len in [1, 100, 5000] {
            assert!(pool.alloc(len).iter().all(|&v| v == 0.0), "pool miss");
            assert!(malloc.alloc(len).iter().all(|&v| v == 0.0), "malloc");
        }
        assert_eq!(pool.stats().pool_hits, 0, "every class missed once");
    }

    /// A recycled block that a longer request reuses: `dirty` wrote 100
    /// values of a 128-value class, the next user asks for 120.
    fn recycle_dirty(pool: &PoolArena) -> ScratchBuf {
        {
            let mut dirty = pool.alloc(100);
            dirty.iter_mut().for_each(|v| *v = 3.25);
        }
        let b = pool.alloc(120);
        assert_eq!(pool.stats().pool_hits, 1);
        b
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_recycled_buffer_is_nan_in_debug_builds() {
        let b = recycle_dirty(&PoolArena::new());
        assert!(b.iter().all(|v| v.is_nan()), "poisoned: {:?}", &b[..4]);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn a_recycled_buffer_is_not_rezeroed() {
        let b = recycle_dirty(&PoolArena::new());
        assert!(
            b[..100].iter().all(|&v| v == 3.25),
            "as its last user left it"
        );
        assert!(b[100..].iter().all(|&v| v == 0.0), "never handed out: zero");
    }

    #[test]
    fn pool_steady_state_has_no_device_allocs() {
        let pool = PoolArena::new();
        // Warm-up step allocates; the next 100 "timesteps" must not.
        for _ in 0..3 {
            let _a = pool.alloc(4096);
        }
        let warm = pool.stats().device_allocs;
        for _ in 0..100 {
            let _a = pool.alloc(4096);
            let _b = pool.alloc(4096);
        }
        // Two live per step but dropped in order: at most one extra block.
        assert!(pool.stats().device_allocs <= warm + 1);
    }

    #[test]
    fn malloc_arena_always_hits_device() {
        let arena = MallocArena::new();
        for _ in 0..10 {
            let _a = arena.alloc(4096);
        }
        let s = arena.stats();
        assert_eq!((s.allocs, s.device_allocs, s.device_frees), (10, 10, 10));
        assert_eq!(s.bytes_live, 0);
    }

    #[test]
    fn malloc_accounting_balances_off_class_sizes() {
        // Lengths that are not a power of two force the class to round up;
        // both sides must still charge/credit the same canonical amount.
        let arena = MallocArena::new();
        for len in [0usize, 1, 63, 65, 1000, 4097, 100_000] {
            let _a = arena.alloc(len);
        }
        let s = arena.stats();
        assert_eq!(s.bytes_live, 0, "alloc/free byte accounting must balance");
        assert_eq!(s.device_frees, s.allocs);
    }

    #[test]
    fn distinct_live_buffers_never_alias() {
        let pool = PoolArena::new();
        let mut bufs: Vec<_> = (0..8).map(|_| pool.alloc(256)).collect();
        for (n, b) in bufs.iter_mut().enumerate() {
            b[0] = n as f64;
        }
        for (n, b) in bufs.iter().enumerate() {
            assert_eq!(b[0], n as f64);
        }
    }

    #[test]
    fn trim_returns_pooled_memory() {
        let pool = PoolArena::new();
        {
            let _a = pool.alloc(1 << 20);
        }
        assert!(pool.bytes_pooled() > 0);
        assert_eq!(pool.stats().device_frees, 0);
        pool.trim();
        assert_eq!(pool.bytes_pooled(), 0);
        let s = pool.stats();
        assert_eq!(
            s.device_frees, s.device_allocs,
            "trim must count the frees it performs"
        );
    }

    #[test]
    fn pool_peak_counts_live_plus_pooled() {
        let pool = PoolArena::new();
        {
            let _a = pool.alloc(1024);
            let _b = pool.alloc(1024);
        }
        // Recycling from the pool must not raise the peak.
        for _ in 0..10 {
            let _a = pool.alloc(1024);
            let _b = pool.alloc(1024);
        }
        let s = pool.stats();
        assert_eq!(s.bytes_peak, 2 * 1024 * 8);
        assert_eq!(s.bytes_live, 0);
        assert_eq!(pool.bytes_pooled(), 2 * 1024 * 8);
    }

    #[test]
    fn zero_length_alloc_is_fine() {
        let pool = PoolArena::new();
        let b = pool.alloc(0);
        assert!(b.is_empty());
    }
}
