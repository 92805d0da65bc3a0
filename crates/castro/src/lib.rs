//! # exastro-castro
//!
//! A reproduction of **Castro** (Almgren et al. 2010): compressible,
//! reactive astrophysical hydrodynamics with self-gravity on block-
//! structured AMR, restructured for massively parallel per-zone execution
//! as described in *Preparing Nuclear Astrophysics for Exascale* (§III).
//!
//! * [`state`] — conserved-state layout, primitives, EOS coupling;
//! * [`riemann`] — the HLLC approximate Riemann solver;
//! * [`hydro`] — MUSCL/PLM Godunov sweeps in both the legacy (staged
//!   slopes) and flat (fused per-zone) kernel structures;
//! * [`gravity`] — monopole and Poisson-multigrid self-gravity;
//! * [`burn`] — Strang-split nuclear burning with outlier statistics;
//! * [`driver`] — the time-advance orchestration, AMR advance, refluxing;
//! * [`restart`] — checkpoint/restart glue (bit-exact resume);
//! * [`sedov`] — the §IV-A blast-wave benchmark and its analytic solution;
//! * [`wd_collision`] — the §V white-dwarf collision science problem;
//! * [`diagnostics`] — detonation-stability (burning vs heat-transfer
//!   timescale) diagnostics.

#![warn(missing_docs)]
// Indexed loops over small fixed-extent arrays (species, dims, stencil
// points) are the house style in this numerical code; iterator rewrites
// obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod burn;
pub mod diagnostics;
pub mod driver;
pub mod gravity;
pub mod hydro;
pub mod restart;
pub mod riemann;
pub mod sedov;
pub mod state;
pub mod wd_collision;

pub use burn::{burn_cost_multifab, burn_state, BurnOptions, BurnStats};
pub use diagnostics::{critical_zone_width, detonation_stability, StabilityReport};
pub use driver::{Castro, DriverError, StateViolation, StepError, StepStats};
pub use gravity::{Gravity, GravityField, GravityMode};
pub use hydro::{Hydro, KernelStructure};
pub use restart::{restore_hierarchy, snapshot_hierarchy, snapshot_level, variable_names};
pub use riemann::{hllc, FaceFlux};
pub use sedov::{init_sedov, measure_shock_radius, sedov_shock_radius, sedov_xi0, SedovParams};
pub use state::{cons_to_prim, Floors, Primitive, StateLayout};
pub use wd_collision::{
    contact_diagnostics, contact_time_estimate, init_collision, CollisionParams,
    ContactDiagnostics, T_IGNITION,
};
