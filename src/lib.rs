//! # exastro
//!
//! A from-scratch Rust reproduction of the software stack described in
//! *Preparing Nuclear Astrophysics for Exascale* (Katz et al., SC 2020):
//! the AMReX-style block-structured AMR framework, the shared
//! microphysics (equations of state, reaction networks, a VODE-style
//! stiff integrator), the Castro compressible solver, the MAESTROeX
//! low-Mach solver, the GPU execution-model abstraction with its
//! simulated accelerator, and a Summit-like cluster performance simulator
//! that regenerates the paper's scaling figures.
//!
//! Start with the [`quickstart`](https://example.org) example, or the
//! per-crate docs:
//!
//! * [`parallel`] — `parallel_for` abstraction, simulated device, arenas;
//! * [`amr`] — boxes, multifabs, distribution maps, AMR hierarchies;
//! * [`microphysics`] — EOS, networks, burner, BDF integrator;
//! * [`solvers`] — geometric multigrid;
//! * [`castro`] — compressible reactive hydro + gravity;
//! * [`maestro`] — low-Mach convection;
//! * [`machine`] — the cluster performance simulator;
//! * [`resilience`] — checkpoint/restart with integrity checking and
//!   fault injection;
//! * [`telemetry`] — the region table, trace spans, step metrics, sinks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use exastro_amr as amr;
pub use exastro_castro as castro;
pub use exastro_machine as machine;
pub use exastro_maestro as maestro;
pub use exastro_microphysics as microphysics;
pub use exastro_parallel as parallel;
pub use exastro_resilience as resilience;
pub use exastro_service as service;
pub use exastro_solvers as solvers;
pub use exastro_telemetry as telemetry;
