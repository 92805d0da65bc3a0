//! Castro's pinned state digests: the Sedov, white-dwarf collision and
//! two-level AMR runs held to their recorded bits. The suite lives here, in
//! the root package, and nowhere else, so the tier-1 command runs it once.

#[path = "pins/reacting_level.rs"]
mod reacting_level;

#[path = "pins/castro_digests.rs"]
mod castro_digests;
