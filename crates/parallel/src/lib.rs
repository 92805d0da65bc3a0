//! # exastro-parallel
//!
//! The execution-backend abstraction layer of the `exastro` suite — the Rust
//! analogue of the AMReX GPU machinery described in §III of *Preparing
//! Nuclear Astrophysics for Exascale* (Katz et al., SC 2020).
//!
//! The crate provides:
//!
//! * [`index`] — `IntVect` / `IndexBox` index-space primitives that every
//!   physics loop iterates over;
//! * [`exec`] — [`lane_chunks`], the [`LANES`]-zone chunks a row kernel
//!   takes an x-row of `exastro_amr::for_each_row` in;
//! * [`arena`] — the caching pool allocator and its malloc-per-call baseline;
//! * [`pool`] — the persistent worker-thread pool, the one executor: threads
//!   are spawned once per process and parallel regions are a pointer handoff
//!   plus a condvar wake, not a thread spawn;
//! * [`graph`] — the dependency-graph task scheduler over the pool: boxes
//!   become tasks, ghost exchanges become edges, interior kernels run while
//!   halos are in flight (the overlap behind the two-phase comm API).
//!
//! Observability lives in `exastro-telemetry`, re-exported here as
//! [`Telemetry`] so the crates below need no dependency of their own on
//! it: a kernel records its zones into the open region, and a [`pool`]
//! worker adopts its submitter's region context for the duration of a job.
//!
//! Since no real GPU is available in this reproduction, every kernel runs on
//! the host; GPU time is a model, priced by `exastro-machine` alone.

// `deny` rather than `forbid`: the worker pool's dispatch core is the one
// audited module allowed to opt back in (see crates/parallel/src/pool.rs for
// the soundness argument); everything else remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod exec;
pub mod graph;
pub mod index;
pub mod pool;

pub use arena::{Arena, ArenaStats, MallocArena, PoolArena, ScratchBuf};
pub use exec::{lane_chunks, ExecSpace, LANES};
pub use graph::{GraphError, GraphRunStats, TaskGraph};
// The region API and the types `TaskGraph::run_labeled` takes, so region
// sites and graph builders need no dependency of their own on the
// telemetry crate.
pub use exastro_telemetry::{TaskClass, TaskLabel, Telemetry};
pub use index::{IndexBox, IntVect, SPACEDIM};
pub use pool::{par_each_mut, par_index_each, par_map_fold, PoolStats, Tasks, WorkerPool};

/// The floating-point type used throughout the suite.
pub type Real = f64;

/// splitmix64: advance `state` and return the next 64-bit draw. The one
/// seeded generator behind every deterministic schedule in the suite —
/// shuffled task orders ([`TaskGraph::run_seeded`]), burn-fault zone
/// selection, and the machine model's node-failure waiting times.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix64_reference_stream_for_seed_zero() {
        // Every seeded digest in the suite (chaos schedules, fault zones,
        // shuffled graph orders) hangs off these draws.
        let mut s = 0u64;
        let draws = [0; 3].map(|_| super::splitmix64(&mut s));
        assert_eq!(
            draws,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }
}
