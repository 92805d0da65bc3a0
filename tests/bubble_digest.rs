//! The pinned low-Mach bubble step of `crates/maestro/tests/pinned_digest.rs`,
//! compiled into the root package as well: the documented tier-1 command
//! (`cargo test -q` here) then runs the projection's multigrid against the
//! recorded bits, not only the per-crate suites of `ci/tier1.sh`.

#[path = "../crates/maestro/tests/pinned_digest.rs"]
mod bubble_step;
