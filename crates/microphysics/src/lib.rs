//! # exastro-microphysics
//!
//! The shared microphysics substrate of the `exastro` suite — the Rust
//! analogue of the AMReX-Astro Microphysics repository that Castro and
//! MAESTROeX both build on (§II of *Preparing Nuclear Astrophysics for
//! Exascale*).
//!
//! * [`constants`] — CGS physical constants;
//! * [`species`] — isotope data, compositions, binding-energy bookkeeping;
//! * [`eos`] — gamma-law and analytic stellar (ion + radiation + degenerate
//!   electron) equations of state;
//! * [`rates`] — Gamow-peak reaction-rate fits and plasma screening;
//! * [`network`] — a reaction network as a table of species and
//!   reactions, evaluated in a rate stage and an abundance stage, and its
//!   `cburn2`, `triple_alpha`, `iso7` and `aprox13` constructors;
//! * [`linalg`] — dense LU with partial pivoting;
//! * [`sparse`] — sparsity patterns and the pattern-specialized sparse LU
//!   with precomputed symbolic factorization (the analytic sparse-Jacobian
//!   path of the paper's §VI);
//! * [`integrator`] — the VODE-style variable-order BDF integrator: its
//!   options, errors and statistics;
//! * [`batch`] — its stepping loop, over structure-of-arrays batches of
//!   systems advanced in lockstep (one system is a batch of one);
//! * [`burner`] — the self-heating zone burner, [`burner::Burner`], that
//!   the hydro codes drive;
//! * [`recovery`] — the burner's retry ladder (relaxed tolerances →
//!   subcycling → §VI outlier offload) with deterministic fault injection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over small fixed-extent arrays (species, dims, stencil
// points) are the house style in this numerical code; iterator rewrites
// obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod burner;
pub mod constants;
pub mod eos;
pub mod integrator;
pub mod linalg;
pub mod network;
pub mod rates;
pub mod recovery;
pub mod sparse;
pub mod species;

pub use batch::{BatchWorkspace, LaneReport, LaneStatus};
pub use burner::{BurnOutcome, BurnStats, Burner, BurnerConfig, ZoneBurn};
pub use eos::{DensityStage, Eos, EosResult, GammaLaw, StellarEos};
pub use integrator::{
    rk4, BdfConfigError, BdfError, BdfErrorKind, BdfIntegrator, BdfOptions, BdfOptionsBuilder,
    BdfStats, OdeSystem,
};
pub use linalg::{DenseLu, Singular};
pub use network::{Aprox13, CBurn2, Network, Reaction};
pub use rates::{gamow_tau_alpha, screening_factor, Rate, TFactors, TNeeds};
pub use recovery::{
    BurnFailure, BurnFaultConfig, LadderRung, OffloadOptions, RecoveredBurn, RetryLadder,
};
pub use sparse::{CsrPattern, SparseLu};
pub use species::{energy_rate, mass_to_molar, molar_to_mass, Composition, Species};
