//! The system allocator, counting per thread: `allocations_during(f)` is
//! the number of allocations `f` made on the calling thread, and
//! `allocations_of_at_least(bytes, f)` the number of those asking for
//! `bytes` or more. Shared by path (`#[path = ".."] mod`) with the suites of
//! other crates that pin "allocates nothing" properties; a test binary that
//! includes it installs it as the global allocator.

#![allow(dead_code)] // each including suite uses one of the two counters

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// While `Some((min, n))`: `n` allocations of at least `min` bytes made
    /// by this thread.
    static ALLOCS: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
}

/// Counts per thread: the test harness and other tests allocate on their
/// own threads.
struct Counting;

fn count(size: usize) {
    ALLOCS.with(|n| {
        if let Some((min, c)) = n.get() {
            n.set(Some((min, c + u64::from(size >= min))));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the count lives in
// a const-initialised, destructor-free thread-local, so touching it from
// inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

pub fn allocations_during(f: impl FnOnce()) -> u64 {
    allocations_of_at_least(0, f)
}

pub fn allocations_of_at_least(bytes: usize, f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(Some((bytes, 0))));
    f();
    ALLOCS.with(|n| n.replace(None)).expect("counting was on").1
}
