//! # exastro-maestro
//!
//! A reproduction of **MAESTROeX** (Fan et al. 2019): a low-Mach-number
//! hydrodynamics solver for slowly convecting astrophysical flows, whose
//! timestep is set by the fluid velocity rather than the sound speed. The
//! reacting-bubble problem from §IV-B of *Preparing Nuclear Astrophysics
//! for Exascale* is included, with the same cost anatomy the paper
//! describes: zone-local stiff reaction integration balanced against a
//! communication-bound multigrid projection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over small fixed-extent arrays (species, dims, stencil
// points) are the house style in this numerical code; iterator rewrites
// obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod base_state;
pub mod bubble;
pub mod lowmach;
pub mod restart;

pub use base_state::{rho_from_p_t, BaseState};
pub use bubble::{
    bubble_diagnostics, bubble_maestro, init_bubble, BubbleDiagnostics, BubbleParams,
};
pub use lowmach::{DriverError, LmLayout, LmStepStats, Maestro, StateViolation, StepError};
pub use restart::{restore_base_state, snapshot_run};
