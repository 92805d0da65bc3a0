//! # exastro-resilience
//!
//! Checkpoint/restart for the `exastro` suite. The paper's GPU-resident
//! design makes checkpointing one of only two host↔device crossings
//! ("writing a checkpoint involves making a copy to CPU memory", §III); at
//! exascale, the machine's mean time between failures forces that crossing
//! into the hot loop, so the checkpoint path has to be *durable* (atomic
//! directory writes), *trustworthy* (per-blob integrity checksums), and
//! *priced* (D2H bytes through the simulated device, an α–β filesystem
//! term in the machine model, Young/Daly cadence policy).
//!
//! * [`snapshot`] — the multi-level [`Snapshot`] of a run: per-level
//!   geometry + state, step counters, auxiliary 1-D arrays (e.g. the
//!   MAESTROeX base state);
//! * [`manifest`] — CRC32 integrity manifests over every file of a
//!   checkpoint directory;
//! * [`manager`] — [`CheckpointManager`]: atomic temp-dir+fsync+rename
//!   writes, keep-last-K retention, corruption detection with fallback to
//!   the last good checkpoint, bounded-backoff write retries, and bytes
//!   recorded into the `io/checkpoint` telemetry region;
//! * [`faults`] — deterministic fault injection: kill schedules, blob
//!   truncation, bit flips, torn renames, and injected write failures;
//! * [`mod@interval`] — the Young/Daly optimal checkpoint interval;
//! * [`recovery`] — the transactional step both drivers run: the one
//!   rejection loop [`transact`], the one validator walk
//!   [`first_violation`], their error types ([`StateViolation`],
//!   [`StepError`], [`DriverError`]), the policy knobs
//!   [`RecoveryOptions`] and the emergency-checkpoint writer;
//! * [`stepper`] — the driver-agnostic [`Stepper`] contract: transactional
//!   step semantics any host (the service, soak harnesses) can drive
//!   without knowing which physics is behind it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod interval;
pub mod manager;
pub mod manifest;
pub mod recovery;
pub mod snapshot;
pub mod stepper;

pub use faults::{flip_bit, tear_rename, truncate_file, KillSchedule};
pub use interval::{
    daly_interval, expected_waste, interval, suggest_cadence_steps, suggest_interval, JobProfile,
};
pub use manager::{CheckpointManager, Error, ManagerStats};
pub use manifest::{crc32, Manifest};
pub use recovery::{
    first_violation, transact, write_emergency, DriverError, RecoveryOptions, StateViolation,
    StepError,
};
pub use snapshot::{digest_multifab, Clock, LevelSnapshot, Snapshot};
pub use stepper::{StepOutcome, Stepper};
