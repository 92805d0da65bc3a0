//! The system allocator, counting per thread: `allocations_during(f)` is
//! the number of allocations `f` made on the calling thread. Shared by path
//! (`#[path = ".."] mod`) with the suites of other crates that pin
//! "allocates nothing" properties; a test binary that includes it installs
//! it as the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread while `Some`.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Counts per thread: the test harness and other tests allocate on their
/// own threads.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the count lives in
// a const-initialised, destructor-free thread-local, so touching it from
// inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

pub fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(Some(0)));
    f();
    ALLOCS.with(|n| n.replace(None)).expect("counting was on")
}
