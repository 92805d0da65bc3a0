//! MAESTROeX's pinned low-Mach bubble step: the projection's multigrid held
//! to its recorded bits. The suite lives here, in the root package, and
//! nowhere else, so the tier-1 command runs it once.

#[path = "pins/bubble_step.rs"]
mod bubble_step;
