//! The burner's pins: the batch path held to its recorded bits and the one
//! integrator to its accuracy rows. The suites live here, in the root
//! package, and nowhere else, so the tier-1 command runs them once.

#[path = "pins/bdf_accuracy.rs"]
mod bdf_accuracy;
#[path = "pins/burn_digests.rs"]
mod burn_digests;
#[path = "pins/digest.rs"]
mod digest;
#[path = "pins/ramp_digests.rs"]
mod ramp_digests;
