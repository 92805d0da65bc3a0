//! Castro's pinned state digests of `crates/castro/tests/pinned_digest.rs`,
//! compiled into the root package as well: the documented tier-1 command
//! (`cargo test -q` here) then holds the Sedov, white-dwarf collision and
//! two-level AMR runs to their recorded bits, not only the per-crate suites
//! of `ci/tier1.sh`.

#[path = "../crates/castro/tests/pinned_digest.rs"]
mod castro_digests;
