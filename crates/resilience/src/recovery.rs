//! The transactional step, written once for both drivers.
//!
//! Castro's compressible stepper and MAESTROeX's low-Mach stepper run the
//! same protocol — snapshot → attempt → validate → on a [`StepError`]
//! restore the snapshot, cut `dt`, and retry — the step-retry mechanism of
//! the production Castro code (Zingale et al. 2019). [`transact`] is that
//! loop; a driver supplies only its attempt, the metrics fields it owns and
//! its emergency snapshot. Its post-step validator is [`first_violation`]
//! plus its own zone check. [`RecoveryOptions`] is the knob set they share;
//! it lives here because both driver crates already depend on
//! `exastro-resilience` and on nothing of each other.
//!
//! When the rejection budget is exhausted the run is *not* aborted:
//! [`transact`] persists the (restored, pre-step) state with
//! [`write_emergency`] as a normal integrity-checked checkpoint and returns
//! a [`DriverError`]. A human — or a restart script — gets a resumable run
//! plus the failure record, instead of a core dump.

use crate::manager::{CheckpointManager, Error};
use crate::snapshot::{Clock, Snapshot};
use exastro_amr::{Array4, IntVect, MultiFab, Real};
use exastro_microphysics::BurnFailure;
use exastro_parallel::par_map_fold;
use exastro_telemetry::{StepMetrics, StepRecorder, Telemetry};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Policy knobs for the transactional step-rejection loop.
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// Maximum step attempts (1 initial + `max_rejections − 1` retries)
    /// before the step is declared unrecoverable.
    pub max_rejections: u32,
    /// Factor applied to `dt` after each rejection (Castro retries with
    /// dt/4 by default).
    pub dt_cut: f64,
    /// Tolerated |ΣX − 1| drift in the post-step validator.
    pub species_tol: f64,
    /// Where to write the emergency checkpoint when the step is
    /// unrecoverable; `None` disables the emergency write.
    pub emergency_dir: Option<PathBuf>,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            max_rejections: 4,
            dt_cut: 0.25,
            species_tol: 1e-6,
            emergency_dir: None,
        }
    }
}

/// A violation found by a driver's post-step validator.
#[derive(Clone, Debug, PartialEq)]
pub enum StateViolation {
    /// A state component is NaN or infinite.
    NonFinite {
        /// Component index in the state layout.
        comp: usize,
        /// The first offending zone.
        zone: IntVect,
    },
    /// Density at or below zero.
    NegativeDensity {
        /// The offending density value.
        rho: Real,
        /// The first offending zone.
        zone: IntVect,
    },
    /// Total or internal energy below zero.
    NegativeEnergy {
        /// The offending energy value.
        e: Real,
        /// The first offending zone.
        zone: IntVect,
    },
    /// Temperature at or below zero.
    NegativeTemperature {
        /// The offending temperature value.
        t: Real,
        /// The first offending zone.
        zone: IntVect,
    },
    /// Species mass fractions drifted away from ΣX = 1.
    SpeciesDrift {
        /// The observed |ΣX − 1|.
        drift: Real,
        /// The first offending zone.
        zone: IntVect,
    },
}

impl std::fmt::Display for StateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateViolation::NonFinite { comp, zone } => {
                write!(f, "non-finite value in component {comp} at {zone:?}")
            }
            StateViolation::NegativeDensity { rho, zone } => {
                write!(f, "non-positive density {rho:.3e} at {zone:?}")
            }
            StateViolation::NegativeEnergy { e, zone } => {
                write!(f, "negative energy {e:.3e} at {zone:?}")
            }
            StateViolation::NegativeTemperature { t, zone } => {
                write!(f, "non-positive temperature {t:.3e} at {zone:?}")
            }
            StateViolation::SpeciesDrift { drift, zone } => {
                write!(f, "|ΣX − 1| = {drift:.3e} at {zone:?}")
            }
        }
    }
}

/// Why one attempted step could not be accepted. On `Err` the attempt has
/// left the state tainted (partially advanced); [`transact`] restores it
/// from its pre-step snapshot.
#[derive(Debug)]
pub enum StepError {
    /// One or more burn zones exhausted the retry ladder.
    Burn(Vec<BurnFailure>),
    /// The post-step validator rejected the state.
    Invalid(StateViolation),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Burn(fails) => {
                write!(f, "{} burn zone(s) failed all retries", fails.len())?;
                if let Some(first) = fails.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            StepError::Invalid(v) => write!(f, "post-step validation failed: {v}"),
        }
    }
}

impl std::error::Error for StepError {}

/// A step that stayed unrecoverable through the whole rejection loop.
/// [`transact`] leaves the state restored to its pre-step contents, writes
/// an emergency checkpoint when [`RecoveryOptions::emergency_dir`] is set,
/// and returns this instead of aborting the process.
#[derive(Debug)]
pub struct DriverError {
    /// The error from the final attempt.
    pub error: StepError,
    /// Step attempts made (1 initial + retries).
    pub rejections: u32,
    /// The smallest `dt` attempted before giving up.
    pub dt_floor: Real,
    /// Path of the emergency checkpoint, if one was written.
    pub emergency_checkpoint: Option<PathBuf>,
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step unrecoverable after {} attempt(s) (dt floor {:.3e}): {}",
            self.rejections, self.dt_floor, self.error
        )?;
        if let Some(p) = &self.emergency_checkpoint {
            write!(f, " [emergency checkpoint: {}]", p.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for DriverError {}

/// Advance `state` one step **transactionally**: snapshot it, run
/// `attempt(state, dt)`, and on a [`StepError`] restore the snapshot and
/// retry with `dt` cut by [`RecoveryOptions::dt_cut`], up to
/// [`RecoveryOptions::max_rejections`] attempts (at least one). Returns
/// the accepted attempt's result and the `dt` it took.
///
/// When `recorder` is active, the accepted step is recorded once:
/// `metrics` fills in what the driver owns (its name, burn counters, arena
/// occupancy) and `transact` the `dt`, the zones, the rejections and the
/// wall clock of the whole transaction, rejected attempts included. Each
/// rejection is one call of the `step_reject` region — which times the
/// restore — holding one retry.
///
/// If every attempt fails the state is left **restored to its pre-step
/// contents**; when [`RecoveryOptions::emergency_dir`] is set, the
/// snapshot `emergency` builds from it (with a clock at the `dt` floor) is
/// written there by [`write_emergency`] and its payload charged to
/// `recorder`; and a [`DriverError`] is returned — never a panic.
pub fn transact<S>(
    opts: &RecoveryOptions,
    recorder: &StepRecorder,
    state: &mut MultiFab,
    dt: Real,
    mut attempt: impl FnMut(&mut MultiFab, Real) -> Result<S, StepError>,
    metrics: impl FnOnce(&S) -> StepMetrics,
    emergency: impl FnOnce(&MultiFab, Clock) -> Snapshot,
) -> Result<(S, Real), Box<DriverError>> {
    let attempts = opts.max_rejections.max(1);
    let mut try_dt = dt;
    let mut rejections = 0;
    let step_start = recorder.is_active().then(Instant::now);
    let error = loop {
        let snapshot = state.clone();
        let error = match attempt(state, try_dt) {
            Ok(out) => {
                if let Some(t0) = step_start {
                    recorder.record(StepMetrics {
                        dt: try_dt,
                        wall_ns: t0.elapsed().as_nanos() as u64,
                        zones: (0..state.nfabs())
                            .map(|i| state.valid_box(i).num_zones() as u64)
                            .sum(),
                        step_rejections: rejections as u64,
                        ..metrics(&out)
                    });
                }
                return Ok((out, try_dt));
            }
            Err(error) => error,
        };
        let _r = Telemetry::region("step_reject");
        *state = snapshot;
        Telemetry::record_retries(1);
        rejections += 1;
        if rejections == attempts {
            break error;
        }
        try_dt *= opts.dt_cut;
    };
    let clock = Clock {
        step: 0,
        time: 0.0,
        dt: try_dt,
    };
    let emergency_checkpoint = opts.emergency_dir.as_deref().and_then(|dir| {
        let snap = emergency(state, clock);
        let path = write_emergency(dir, &snap).ok()?;
        recorder.charge_checkpoint(snap.payload_bytes());
        Some(path)
    });
    Err(Box::new(DriverError {
        error,
        rejections,
        dt_floor: try_dt,
        emergency_checkpoint,
    }))
}

/// The post-step validator's walk over every valid zone of `state`: its
/// first `ncomp` components must be finite, then `zone_check(arr, z, zone)`
/// — the zone's fab view, its cursor there and its index — must pass. Fabs
/// are checked on the worker pool and their verdicts folded in fab order,
/// so the answer is the *first* violation in sweep order on any thread
/// count; within a zone the non-finite scan comes first.
pub fn first_violation(
    state: &MultiFab,
    ncomp: usize,
    zone_check: impl Fn(&Array4<'_>, usize, IntVect) -> Result<(), StateViolation> + Sync,
) -> Result<(), StateViolation> {
    let first_in_fab = |fi: usize| {
        let arr = state.fab(fi).array();
        for zone in state.valid_box(fi).iter() {
            let z = arr.zone(zone.x(), zone.y(), zone.z());
            if let Some(comp) = (0..ncomp).find(|&c| !arr.at_zone(z, c).is_finite()) {
                return Err(StateViolation::NonFinite { comp, zone });
            }
            zone_check(&arr, z, zone)?;
        }
        Ok(())
    };
    par_map_fold(state.nfabs(), Ok(()), first_in_fab, |first, next| {
        first.and(next)
    })
}

/// Write `snap` as an emergency checkpoint under `dir`, using the full
/// atomic/manifested write path of [`CheckpointManager`]. A pre-existing
/// checkpoint for the same step is replaced — an emergency write must not
/// fail just because a scheduled checkpoint already used the name.
pub fn write_emergency(dir: &Path, snap: &Snapshot) -> Result<PathBuf, Error> {
    let mgr = CheckpointManager::new(dir)?;
    let name = CheckpointManager::checkpoint_name(snap.clock.step);
    let existing = dir.join(&name);
    if existing.is_dir() {
        std::fs::remove_dir_all(&existing)?;
    }
    mgr.write(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_amr::{BoxArray, Geometry};
    use exastro_telemetry::MemorySink;
    use std::sync::Arc;

    fn tiny_state() -> (Geometry, MultiFab) {
        let geom = Geometry::cube(8, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let mut mf = MultiFab::local(ba, 1, 1);
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            for iv in vb.iter() {
                mf.fab_mut(i).set(
                    iv,
                    0,
                    1.5 + (iv.x() + 2 * iv.y() + 3 * iv.z()) as f64 * 0.01,
                );
            }
        }
        (geom, mf)
    }

    fn tiny_snapshot(step: u64) -> Snapshot {
        let (geom, mf) = tiny_state();
        Snapshot::single_level(
            geom,
            mf,
            Clock {
                step,
                time: 0.25,
                dt: 0.01,
            },
            vec!["rho".into()],
        )
    }

    fn same_bits(a: &MultiFab, b: &MultiFab) -> bool {
        (0..a.nfabs()).all(|i| {
            let (x, y) = (a.fab(i).data(), b.fab(i).data());
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
    }

    /// What one [`transact`] call did, seen from its three closures.
    struct Run {
        result: Result<(u32, Real), Box<DriverError>>,
        attempts: Vec<Real>,
        metrics_calls: u32,
        emergency_calls: u32,
        state: MultiFab,
    }

    /// Run [`transact`] over the tiny state with an attempt that scribbles
    /// on it, checks it was handed the pre-step bits, and fails its first
    /// `fails` calls.
    fn run(opts: &RecoveryOptions, recorder: &StepRecorder, dt: Real, fails: u32) -> Run {
        let (geom, mut state) = tiny_state();
        let before = state.clone();
        let mut attempts = Vec::new();
        let (mut metrics_calls, mut emergency_calls) = (0, 0);
        let result = transact(
            opts,
            recorder,
            &mut state,
            dt,
            |s, dt| {
                assert!(same_bits(s, &before), "attempt handed a tainted state");
                s.fab_mut(0).set(IntVect::splat(1), 0, Real::NAN);
                attempts.push(dt);
                if attempts.len() as u32 <= fails {
                    Err(StepError::Invalid(StateViolation::NegativeDensity {
                        rho: -1.0,
                        zone: IntVect::splat(0),
                    }))
                } else {
                    Ok(attempts.len() as u32)
                }
            },
            |_| {
                metrics_calls += 1;
                StepMetrics {
                    driver: "probe".into(),
                    ..Default::default()
                }
            },
            |s, clock| {
                emergency_calls += 1;
                Snapshot::single_level(geom.clone(), s.clone(), clock, vec!["rho".into()])
            },
        );
        Run {
            result,
            attempts,
            metrics_calls,
            emergency_calls,
            state,
        }
    }

    fn active_recorder() -> (StepRecorder, Arc<MemorySink<StepMetrics>>) {
        let sink = Arc::new(MemorySink::new());
        let mut recorder = StepRecorder::new();
        recorder.attach_sink(sink.clone());
        (recorder, sink)
    }

    #[test]
    fn a_step_that_fails_k_times_takes_dt_cut_k_times_and_is_recorded_once() {
        let opts = RecoveryOptions {
            dt_cut: 0.3,
            ..RecoveryOptions::default()
        };
        let dt = 0.7;
        for k in 0..=3 {
            let (recorder, sink) = active_recorder();
            let r = run(&opts, &recorder, dt, k);
            let cut_k = (0..k).fold(dt, |d, _| d * opts.dt_cut);
            let (attempt, taken) = r.result.expect("accepted within the budget");
            assert_eq!(attempt, k + 1);
            assert_eq!(taken.to_bits(), cut_k.to_bits(), "k = {k}");
            assert_eq!(r.attempts.len() as u32, k + 1);
            assert_eq!(r.attempts.last().unwrap().to_bits(), cut_k.to_bits());
            assert_eq!(r.metrics_calls, 1);
            assert_eq!(r.emergency_calls, 0);
            let recs = sink.snapshot();
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].driver, "probe");
            assert_eq!(recs[0].step_rejections, k as u64);
            assert_eq!(recs[0].dt.to_bits(), cut_k.to_bits());
            assert_eq!(recs[0].zones, 512);
            assert!(recs[0].wall_ns > 0);
        }
    }

    #[test]
    fn an_exhausted_budget_restores_the_state_and_writes_one_resumable_checkpoint() {
        let dir = std::env::temp_dir().join(format!("exastro-transact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dt = 0.5;
        let (_, pristine) = tiny_state();
        for emergency_dir in [None, Some(dir.clone())] {
            let opts = RecoveryOptions {
                max_rejections: 3,
                emergency_dir,
                ..RecoveryOptions::default()
            };
            let (recorder, sink) = active_recorder();
            let r = run(&opts, &recorder, dt, u32::MAX);
            let err = r.result.expect_err("every attempt fails");
            assert_eq!(err.rejections, 3);
            assert_eq!(r.attempts.len(), 3);
            assert_eq!(
                err.dt_floor.to_bits(),
                (dt * opts.dt_cut * opts.dt_cut).to_bits()
            );
            assert!(matches!(err.error, StepError::Invalid(_)));
            assert!(same_bits(&r.state, &pristine), "state not restored");
            assert_eq!(r.metrics_calls, 0);
            assert!(sink.snapshot().is_empty());
            match &opts.emergency_dir {
                None => {
                    assert_eq!(r.emergency_calls, 0);
                    assert!(err.emergency_checkpoint.is_none());
                }
                Some(dir) => {
                    assert_eq!(r.emergency_calls, 1);
                    assert!(err.emergency_checkpoint.expect("written").is_dir());
                    let snap = CheckpointManager::new(dir).unwrap().resume().unwrap();
                    assert!(same_bits(&snap.levels[0].state, &r.state));
                    assert_eq!(snap.clock.dt.to_bits(), err.dt_floor.to_bits());
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_emergency_write_is_charged_to_its_own_recorder() {
        let dir = std::env::temp_dir().join(format!("exastro-charge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RecoveryOptions {
            max_rejections: 2,
            emergency_dir: Some(dir.clone()),
            ..RecoveryOptions::default()
        };
        let (recorder, sink) = active_recorder();
        let (bystander, other) = active_recorder();
        let err = run(&opts, &recorder, 0.5, u32::MAX).result.unwrap_err();
        assert!(err.emergency_checkpoint.is_some());
        let payload = CheckpointManager::new(&dir)
            .unwrap()
            .resume()
            .unwrap()
            .payload_bytes();
        assert!(payload > 0);
        // The charge rides the recorder's next accepted step, and no other.
        run(&opts, &bystander, 0.5, 0).result.unwrap();
        run(&opts, &recorder, 0.5, 0).result.unwrap();
        run(&opts, &recorder, 0.5, 0).result.unwrap();
        let column = |s: &MemorySink<StepMetrics>| -> Vec<u64> {
            s.snapshot().iter().map(|r| r.checkpoint_bytes).collect()
        };
        assert_eq!(column(&sink), [payload, 0]);
        assert_eq!(column(&other), [0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_zero_budget_still_attempts_once_and_an_inactive_recorder_records_nothing() {
        let opts = RecoveryOptions {
            max_rejections: 0,
            ..RecoveryOptions::default()
        };
        let recorder = StepRecorder::new();
        let r = run(&opts, &recorder, 0.5, 0);
        assert_eq!(r.result.unwrap().1, 0.5);
        assert_eq!(r.attempts.len(), 1);
        assert_eq!(r.metrics_calls, 0, "inactive recorder: no metrics built");
        let r = run(&opts, &recorder, 0.5, 1);
        let err = r.result.unwrap_err();
        assert_eq!((err.rejections, r.attempts.len()), (1, 1));
        assert_eq!(err.dt_floor, 0.5);
    }

    #[test]
    fn each_rejection_is_one_step_reject_call_holding_one_retry() {
        // A unique outer region keeps this test's rows apart from
        // concurrently running tests.
        {
            let _outer = Telemetry::region("transact_reject_test");
            run(&RecoveryOptions::default(), &StepRecorder::new(), 0.5, 2)
                .result
                .unwrap();
        }
        let rows: std::collections::HashMap<_, _> =
            Telemetry::region_rows().0.into_iter().collect();
        let row = &rows["transact_reject_test/step_reject"];
        assert_eq!((row.calls, row.retries), (2, 2));
        assert!(row.wall_ns > 0, "the restore is timed");
    }

    #[test]
    fn emergency_write_is_a_valid_checkpoint() {
        let dir = std::env::temp_dir().join(format!("exastro-emrg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = tiny_snapshot(17);
        let path = write_emergency(&dir, &snap).unwrap();
        assert!(path.ends_with("chk00000017"));
        let mgr = CheckpointManager::new(&dir).unwrap();
        let restored = mgr.resume().unwrap();
        assert_eq!(restored.digest(), snap.digest());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn emergency_write_replaces_existing_checkpoint_of_same_step() {
        let dir = std::env::temp_dir().join(format!("exastro-emrg2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = tiny_snapshot(9);
        write_emergency(&dir, &first).unwrap();
        let mut second = tiny_snapshot(9);
        second.clock.time = 0.75;
        // Same step number: must overwrite, not error.
        write_emergency(&dir, &second).unwrap();
        let restored = CheckpointManager::new(&dir).unwrap().resume().unwrap();
        assert_eq!(restored.clock.time.to_bits(), 0.75f64.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_options_defaults_are_sane() {
        let o = RecoveryOptions::default();
        assert_eq!(o.max_rejections, 4);
        assert!(o.dt_cut > 0.0 && o.dt_cut < 1.0);
        assert!(o.emergency_dir.is_none());
        let o = RecoveryOptions {
            emergency_dir: Some("emergency".into()),
            ..o
        };
        assert!(o.emergency_dir.is_some());
    }
}
