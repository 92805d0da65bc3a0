//! The burner's pins of `crates/microphysics/tests`, compiled into the root
//! package as well: the documented tier-1 command (`cargo test -q` here)
//! then holds the batch path to its recorded bits and the one integrator to
//! its accuracy rows, not only the per-crate suites of `ci/tier1.sh`.

#[path = "../crates/microphysics/tests/bdf_accuracy.rs"]
mod bdf_accuracy;
#[path = "../crates/microphysics/tests/pinned_digest.rs"]
mod burn_digests;
#[path = "../crates/microphysics/tests/ramp_digest.rs"]
mod ramp_digests;
