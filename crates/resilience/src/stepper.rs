//! Driver-agnostic transactional stepping.
//!
//! [`Stepper`] is the contract a time-integration driver (compressible
//! Castro, low-Mach MAESTROeX, anything future) exposes to hosting
//! infrastructure — the multi-tenant service, soak harnesses, fault
//! drills — that advances a simulation without knowing which physics it
//! is running. The contract bakes in the suite's recovery discipline:
//! [`Stepper::step`] is **transactional**. On `Ok` the state holds the
//! accepted step; on `Err` the state has been restored to its pre-step
//! contents (the driver's [`transact`](crate::transact) loop ran out of
//! attempts), and the [`DriverError`] says why, so the host can retire,
//! re-queue, or fail the job over from its last durable checkpoint without
//! inspecting driver internals.
//!
//! Telemetry travels *through* the driver: hosts move their persistent
//! [`StepRecorder`] into the driver before stepping and reclaim it with
//! [`Stepper::take_recorder`] afterward, so step ordinals and run clocks
//! stay continuous across short-lived per-slice driver instances.

use crate::recovery::DriverError;
use exastro_amr::{CommTrace, Geometry, MultiFab, Real};
use exastro_telemetry::StepRecorder;

/// What one accepted step produced, reduced to the fields every driver
/// can report.
#[derive(Clone, Debug, Default)]
pub struct StepOutcome {
    /// The timestep actually taken — at most the `dt` requested, smaller
    /// if the driver's rejection ladder cut it.
    pub dt_taken: Real,
    /// Communication the step performed (ghost exchanges, solver fills),
    /// merged across the step's phases.
    pub comm: CommTrace,
}

/// A time-integration driver advancing one [`MultiFab`] level behind
/// transactional semantics. See the module docs for the contract.
pub trait Stepper {
    /// Largest stable timestep for the current state (CFL and any
    /// driver-specific limits), before host-side caps.
    fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real;

    /// Advance one step transactionally: on `Err` the state is restored
    /// to its pre-step contents and an emergency checkpoint may have been
    /// written per the driver's [`RecoveryOptions`](crate::RecoveryOptions).
    fn step(
        &mut self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<StepOutcome, Box<DriverError>>;

    /// Reclaim the metrics recorder the host moved into this driver, so
    /// ordinals continue into the next (possibly different) driver.
    fn take_recorder(&mut self) -> StepRecorder;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{StateViolation, StepError};
    use exastro_amr::IntVect;

    /// A stepper that fails every `fail_every`-th call — exercises the
    /// trait-object path hosts actually use.
    struct Flaky {
        calls: u32,
        fail_every: u32,
        recorder: StepRecorder,
    }

    impl Stepper for Flaky {
        fn estimate_dt(&self, _state: &MultiFab, _geom: &Geometry) -> Real {
            0.5
        }
        fn step(
            &mut self,
            _state: &mut MultiFab,
            _geom: &Geometry,
            dt: Real,
        ) -> Result<StepOutcome, Box<DriverError>> {
            self.calls += 1;
            if self.calls.is_multiple_of(self.fail_every) {
                Err(Box::new(DriverError {
                    error: StepError::Invalid(StateViolation::NegativeDensity {
                        rho: -1.0,
                        zone: IntVect::splat(0),
                    }),
                    rejections: 4,
                    dt_floor: dt,
                    emergency_checkpoint: None,
                }))
            } else {
                Ok(StepOutcome {
                    dt_taken: dt,
                    comm: CommTrace::default(),
                })
            }
        }
        fn take_recorder(&mut self) -> StepRecorder {
            std::mem::take(&mut self.recorder)
        }
    }

    #[test]
    fn trait_object_steps_and_surfaces_failures() {
        use exastro_amr::{BoxArray, IndexBox};
        let geom = Geometry::cube(4, 1.0, true);
        let ba = BoxArray::decompose(IndexBox::cube(4), 4, 1);
        let mut state = MultiFab::local(ba, 1, 0);
        let mut drv: Box<dyn Stepper> = Box::new(Flaky {
            calls: 0,
            fail_every: 3,
            recorder: StepRecorder::new(),
        });
        let dt = drv.estimate_dt(&state, &geom);
        assert!(drv.step(&mut state, &geom, dt).is_ok());
        assert!(drv.step(&mut state, &geom, dt).is_ok());
        let err = drv.step(&mut state, &geom, dt).unwrap_err();
        assert!(err
            .to_string()
            .starts_with("step unrecoverable after 4 attempt(s)"));
        let _ = drv.take_recorder();
    }
}
