//! # exastro-service
//!
//! Simulation-as-a-service: a multi-tenant job runtime over the cluster
//! simulator. The ROADMAP's north star is a production system serving
//! heavy traffic — campaigns of many independent runs across scenarios,
//! networks, and node counts (Katz et al. §IV) — not one bulk-synchronous
//! job at a time. This crate composes the pieces earlier PRs built into
//! that serving layer:
//!
//! - **Admission**: [`Service::submit`] takes a [`JobSpec`] (scenario ×
//!   network × resolution × nodes × priority) through a *bounded* queue;
//!   a full queue answers [`SubmitError::QueueFull`] — backpressure, not
//!   buffering without limit.
//! - **Placement**: jobs gang-lease ranks from a
//!   [`exastro_machine::RankPool`] over the modeled machine and advance
//!   concurrently on the worker pool (`exastro_parallel`), two steps
//!   per scheduling quantum, through the drivers' transactional step
//!   ([`exastro_resilience::transact`], behind the
//!   [`exastro_resilience::Stepper`] contract).
//! - **Fair share**: weighted by [`PriorityClass`] (virtual time = work
//!   received / weight), with a bypass-count starvation guard that lets a
//!   job overtaken eight times reserve the pool.
//! - **Preemption**: a strictly-higher-class arrival on a full pool
//!   checkpoints a victim off the machine
//!   (`exastro_resilience::CheckpointManager`), requeues it, and resumes
//!   it later — generally on different ranks. Bit-exact restart makes the
//!   migration invisible to the answer, and the integration tests prove
//!   it by digest. A job preempted twice is immune from then on.
//! - **Cadence**: each job's checkpoint interval is the Young/Daly
//!   optimum for *its* footprint on *this* machine
//!   ([`exastro_resilience::interval::suggest_cadence_steps`]), priced at
//!   the armed fault model's node MTBF or, unarmed, a 10-year one.
//! - **Self-healing** (DESIGN.md §9.3): arm [`ServiceConfig::faults`] with
//!   a seeded [`exastro_machine::NodeFaultModel`] and the modeled machine
//!   fails underneath the service over simulated time. The health monitor
//!   revokes leases whose ranks died (`RankPool::revoke_failed`), fails
//!   the slice over *without* checkpointing dead state, and re-admits the
//!   job from its last checkpoint on a fresh lease with bounded
//!   exponential backoff — bit-exact by digest vs an uninterrupted run.
//!   Poison jobs quarantine after [`ServiceConfig::quarantine_limit`]
//!   recoveries ([`JobOutcome::Quarantined`], structured reason); a gang
//!   observing twice its modeled step cost is checkpoint-migrated to
//!   healthy nodes, at most twice; gangs that no longer fit the
//!   surviving pool quarantine instead of wedging the queue.
//! - **Telemetry**: per-job `StepRecorder` streams (JSONL per job plus an
//!   in-memory sink), the [`events`] log, and a [`ServiceReport`] whose
//!   counts and SLO metrics are a fold of that log, with jobs/hour,
//!   latency percentiles, and rank utilization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
mod job;
pub mod report;
pub mod scheduler;
pub mod spec;

pub use events::{Event, EventKind};
pub use job::JobError;
pub use report::{ClassQueueWait, JobOutcome, JobRecord, ServiceReport};
pub use scheduler::{Service, ServiceConfig};
pub use spec::{JobId, JobSpec, NetChoice, PriorityClass, Scenario, SubmitError};
