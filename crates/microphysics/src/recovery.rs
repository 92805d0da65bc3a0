//! The burn **retry ladder**: zone-level failure recovery for the stiff
//! burner.
//!
//! Production astro codes do not abort a 10⁶-node run because one zone's
//! Newton iteration diverged. Castro retries the offending step with
//! adjusted integrator settings (Zingale et al. 2019), and the source
//! paper's §VI proposes *offloading outlier zones* — the few cells whose
//! burn is orders of magnitude harder than their neighbours' — to a
//! separate scalar path with its own integrator configuration. This module
//! implements both as an escalation ladder:
//!
//! 1. [`LadderRung::Direct`] — the normal burn, at the burner's options;
//! 2. [`LadderRung::RelaxedTol`] — retry with tolerances relaxed by
//!    [`RetryLadder::tol_relax`];
//! 3. [`LadderRung::Subcycle`] — split the burn interval into
//!    [`RetryLadder::subcycles`] pieces and integrate them in sequence
//!    (each sub-interval restarts the Nordsieck history, which is often
//!    enough to step over a rate discontinuity);
//! 4. [`LadderRung::Offload`] — the §VI outlier path: a low-order,
//!    large-budget integrator configuration ([`OffloadOptions`]) that
//!    trades speed for robustness.
//!
//! Only when every rung fails does the zone surface a structured
//! [`BurnFailure`] carrying the thermodynamic entry state and the
//! integrator statistics accumulated across *all* attempts — the driver
//! turns that into a step rejection rather than a panic.
//!
//! Deterministic **fault injection** ([`BurnFaultConfig`], in the style of
//! `exastro-resilience`'s `KillSchedule`) makes every rung exercisable in
//! tests and CI: a seeded per-zone predicate forces the first N attempts of
//! selected zones to fail with a configurable [`BdfErrorKind`].
//!
//! [`crate::burner::Burner::burn_zone`] climbs the ladder; this module
//! holds its configuration, its fault injection and its result types.

use crate::burner::BurnOutcome;
use crate::integrator::{BdfErrorKind, BdfOptions, BdfStats};

/// Tolerated |ΣX − 1| drift in a recovered outcome; anything worse fails
/// the rung's validation and escalates the ladder.
pub const SPECIES_SUM_TOL: f64 = 1e-6;

/// Which rung of the retry ladder produced (or failed to produce) a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// The normal burn path, no adjustments.
    Direct,
    /// Retry with relaxed tolerances.
    RelaxedTol,
    /// Subcycled integration over the burn interval.
    Subcycle,
    /// The §VI outlier-offload scalar path.
    Offload,
}

impl std::fmt::Display for LadderRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LadderRung::Direct => "direct",
            LadderRung::RelaxedTol => "relaxed-tol",
            LadderRung::Subcycle => "subcycle",
            LadderRung::Offload => "offload",
        };
        f.write_str(s)
    }
}

/// Integrator configuration for the outlier-offload rung: low order and a
/// large step budget, the robust-over-fast trade the paper's §VI assigns
/// to the scalar CPU path.
#[derive(Clone, Debug)]
pub struct OffloadOptions {
    /// Relative tolerance for offloaded zones.
    pub rtol: f64,
    /// Absolute tolerance for offloaded zones.
    pub atol: f64,
    /// Maximum BDF order (low orders have wider stability regions).
    pub max_order: usize,
    /// Step budget — offloaded zones may take millions of tiny steps.
    pub max_steps: usize,
}

impl Default for OffloadOptions {
    fn default() -> Self {
        OffloadOptions {
            rtol: 1e-6,
            atol: 1e-10,
            max_order: 2,
            max_steps: 2_000_000,
        }
    }
}

impl OffloadOptions {
    pub(crate) fn to_bdf(&self) -> BdfOptions {
        // The offload rung is one lane on the dense, pivoted solver by
        // construction (it is the conservative fallback; sparse-pattern
        // bugs must not be able to take it down with the direct rung).
        BdfOptions::builder()
            .rtol(self.rtol)
            .atol(self.atol)
            .max_order(self.max_order)
            .max_steps(self.max_steps)
            .build()
            .expect("offload options are valid")
    }
}

/// The retry-ladder configuration. Each `Some` field enables a rung (in
/// the fixed order relaxed-tol → subcycle → offload); `None` skips it.
#[derive(Clone, Debug)]
pub struct RetryLadder {
    /// Factor by which to multiply rtol/atol on the first retry.
    pub tol_relax: Option<f64>,
    /// Number of sub-intervals for the subcycled retry.
    pub subcycles: Option<u32>,
    /// Integrator configuration for the outlier-offload rung.
    pub offload: Option<OffloadOptions>,
}

impl Default for RetryLadder {
    fn default() -> Self {
        RetryLadder {
            tol_relax: Some(100.0),
            subcycles: Some(4),
            offload: Some(OffloadOptions::default()),
        }
    }
}

impl RetryLadder {
    /// Disable all retries: a failed direct burn fails the zone outright
    /// (the pre-recovery behaviour, useful for A/B tests).
    pub fn none() -> Self {
        RetryLadder {
            tol_relax: None,
            subcycles: None,
            offload: None,
        }
    }
}

/// Deterministic fault injection for the burner, in the consume-free style
/// of `resilience::faults`: a seeded hash of the zone index selects
/// ~`rate` of zones, whose first `rungs_to_fail` burn attempts return
/// `error` without running the integrator. Tests and the CI smoke run use
/// this to drive every rung of the ladder on demand.
#[derive(Clone, Debug)]
pub struct BurnFaultConfig {
    /// Seed mixed into the per-zone hash.
    pub seed: u64,
    /// Fraction of zones to fault, in `[0, 1]`.
    pub rate: f64,
    /// How many ladder attempts fail before the zone burns normally.
    /// `1` = recovered by the first retry; a large value makes the zone
    /// unrecoverable and exercises the driver's failure path.
    pub rungs_to_fail: u32,
    /// The error each injected failure reports.
    pub error: BdfErrorKind,
}

impl BurnFaultConfig {
    /// Is this zone in the faulted set? Deterministic in (`seed`, `zone`).
    pub fn zone_is_faulty(&self, zone: u64) -> bool {
        let mut state = self.seed ^ zone.wrapping_mul(0xD1B54A32D192ED03);
        let h = exastro_parallel::splitmix64(&mut state);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.rate
    }

    /// Should attempt number `attempt` (0-based) on `zone` be failed?
    pub fn injects(&self, zone: u64, attempt: u32) -> bool {
        attempt < self.rungs_to_fail && self.zone_is_faulty(zone)
    }
}

/// A zone that exhausted the whole ladder: the structured failure record
/// the driver embeds in its step error.
#[derive(Clone, Debug)]
pub struct BurnFailure {
    /// Flat zone index within the sweep that failed.
    pub zone: u64,
    /// Density at burn entry, g/cm³.
    pub rho: f64,
    /// Temperature at burn entry, K.
    pub t0: f64,
    /// Mass fractions at burn entry.
    pub x0: Vec<f64>,
    /// The last rung that was attempted.
    pub rung_reached: LadderRung,
    /// Total burn attempts made (ladder rungs tried).
    pub attempts: u32,
    /// The error from the final attempt.
    pub error: BdfErrorKind,
    /// Integrator statistics accumulated over **all** attempts — the cost
    /// this zone consumed before being given up on.
    pub stats: BdfStats,
}

impl std::fmt::Display for BurnFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "zone {} (rho = {:.3e}, T = {:.3e}) failed all {} burn attempts \
             (last rung: {}): {}",
            self.zone, self.rho, self.t0, self.attempts, self.rung_reached, self.error
        )
    }
}

impl std::error::Error for BurnFailure {}

/// A successful burn, annotated with how hard it was to get.
#[derive(Clone, Debug)]
pub struct RecoveredBurn {
    /// The burn result (stats cover all attempts, not just the winner).
    pub outcome: BurnOutcome,
    /// The rung that succeeded.
    pub rung: LadderRung,
    /// Retries spent before success (0 = direct burn succeeded).
    pub retries: u32,
}

/// Validate a rung's outcome: everything finite, no significantly negative
/// abundance, ΣX within [`SPECIES_SUM_TOL`] of unity. Shared by the ladder
/// rungs and the completed lanes of a batch.
pub(crate) fn validate_outcome(out: &BurnOutcome) -> Result<(), BdfErrorKind> {
    let finite = out.t.is_finite()
        && out.t > 0.0
        && out.enuc.is_finite()
        && out.x.iter().all(|x| x.is_finite() && *x > -1e-8);
    let sum: f64 = out.x.iter().sum();
    if finite && (sum - 1.0).abs() <= SPECIES_SUM_TOL {
        Ok(())
    } else {
        Err(BdfErrorKind::NonFinite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burner::{Burner, BurnerConfig};
    use crate::eos::StellarEos;
    use crate::network::CBurn2;

    fn burner<'a>(
        net: &'a CBurn2,
        eos: &'a StellarEos,
        ladder: RetryLadder,
        faults: Option<BurnFaultConfig>,
    ) -> Burner<'a> {
        BurnerConfig {
            ladder,
            faults,
            ..Default::default()
        }
        .build(net, eos)
    }

    fn hot_zone() -> (f64, f64, Vec<f64>, f64) {
        // Exothermic carbon burn: hard enough to be a real integration.
        (5e7, 3e9, vec![1.0, 0.0], 1e-6)
    }

    fn faults(rate: f64, rungs_to_fail: u32, error: BdfErrorKind) -> BurnFaultConfig {
        BurnFaultConfig {
            seed: 42,
            rate,
            rungs_to_fail,
            error,
        }
    }

    fn check_recovered(r: &RecoveredBurn) {
        assert!(r.outcome.t.is_finite() && r.outcome.t > 0.0);
        assert!(r.outcome.x.iter().all(|x| x.is_finite()));
        let sum: f64 = r.outcome.x.iter().sum();
        assert!((sum - 1.0).abs() <= SPECIES_SUM_TOL, "ΣX = {sum}");
    }

    #[test]
    fn direct_path_is_unchanged_when_healthy() {
        let net = CBurn2::new();
        let eos = StellarEos;
        let (rho, t0, x0, dt) = hot_zone();
        let plain = burner(&net, &eos, RetryLadder::none(), None)
            .burn_zone(7, rho, t0, &x0, dt)
            .unwrap()
            .outcome;
        let rb = burner(&net, &eos, RetryLadder::default(), None);
        let rec = rb.burn_zone(7, rho, t0, &x0, dt).unwrap();
        assert_eq!(rec.rung, LadderRung::Direct);
        assert_eq!(rec.retries, 0);
        // Bit-identical to the single-attempt burn: configuring retries
        // does not perturb a zone that needs none.
        assert_eq!(rec.outcome.t.to_bits(), plain.t.to_bits());
        for (a, b) in rec.outcome.x.iter().zip(&plain.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn one_injected_failure_recovers_on_relaxed_tol() {
        let net = CBurn2::new();
        let eos = StellarEos;
        let (rho, t0, x0, dt) = hot_zone();
        let rb = burner(
            &net,
            &eos,
            RetryLadder::default(),
            Some(faults(1.0, 1, BdfErrorKind::MaxSteps)),
        );
        let rec = rb.burn_zone(3, rho, t0, &x0, dt).unwrap();
        assert_eq!(rec.rung, LadderRung::RelaxedTol);
        assert_eq!(rec.retries, 1);
        check_recovered(&rec);
    }

    #[test]
    fn two_injected_failures_recover_on_subcycle() {
        let net = CBurn2::new();
        let eos = StellarEos;
        let (rho, t0, x0, dt) = hot_zone();
        let rb = burner(
            &net,
            &eos,
            RetryLadder::default(),
            Some(faults(1.0, 2, BdfErrorKind::StepUnderflow { t: 0.0 })),
        );
        let rec = rb.burn_zone(3, rho, t0, &x0, dt).unwrap();
        assert_eq!(rec.rung, LadderRung::Subcycle);
        assert_eq!(rec.retries, 2);
        check_recovered(&rec);
    }

    #[test]
    fn three_injected_failures_recover_on_offload() {
        let net = CBurn2::new();
        let eos = StellarEos;
        let (rho, t0, x0, dt) = hot_zone();
        let rb = burner(
            &net,
            &eos,
            RetryLadder::default(),
            Some(faults(1.0, 3, BdfErrorKind::SingularMatrix)),
        );
        let rec = rb.burn_zone(3, rho, t0, &x0, dt).unwrap();
        assert_eq!(rec.rung, LadderRung::Offload);
        assert_eq!(rec.retries, 3);
        check_recovered(&rec);
    }

    #[test]
    fn every_bdf_error_variant_rides_the_ladder() {
        let net = CBurn2::new();
        let eos = StellarEos;
        let (rho, t0, x0, dt) = hot_zone();
        for err in [
            BdfErrorKind::MaxSteps,
            BdfErrorKind::StepUnderflow { t: 1.5e-7 },
            BdfErrorKind::SingularMatrix,
            BdfErrorKind::NonFinite,
        ] {
            let rb = burner(
                &net,
                &eos,
                RetryLadder::default(),
                Some(faults(1.0, 99, err.clone())),
            );
            let fail = rb.burn_zone(11, rho, t0, &x0, dt).unwrap_err();
            assert_eq!(fail.error, err);
            assert_eq!(fail.attempts, 4);
            assert_eq!(fail.rung_reached, LadderRung::Offload);
            assert_eq!(fail.zone, 11);
            assert_eq!(fail.rho, rho);
            assert_eq!(fail.x0, x0);
            // Injected failures never ran the integrator.
            assert_eq!(fail.stats.rhs_evals, 0);
        }
    }

    #[test]
    fn ladder_none_fails_after_single_attempt() {
        let net = CBurn2::new();
        let eos = StellarEos;
        let (rho, t0, x0, dt) = hot_zone();
        let rb = burner(
            &net,
            &eos,
            RetryLadder::none(),
            Some(faults(1.0, 1, BdfErrorKind::MaxSteps)),
        );
        let fail = rb.burn_zone(9, rho, t0, &x0, dt).unwrap_err();
        assert_eq!(fail.zone, 9);
        assert_eq!(fail.attempts, 1);
        assert_eq!(fail.error, BdfErrorKind::MaxSteps);
        assert_eq!(fail.rung_reached, LadderRung::Direct);
    }

    #[test]
    fn genuine_max_steps_failure_is_rescued_by_offload() {
        // No injection: a starved step budget genuinely fails the direct,
        // relaxed, and subcycled rungs; the offload rung's large budget
        // completes the burn. Accumulated stats must show the failed work.
        let net = CBurn2::new();
        let eos = StellarEos;
        let (rho, t0, x0, dt) = hot_zone();
        let mut cfg = BurnerConfig::default();
        cfg.bdf.max_steps = 4;
        let rb = cfg.build(&net, &eos);
        let rec = rb.burn_zone(0, rho, t0, &x0, dt).unwrap();
        assert_eq!(rec.rung, LadderRung::Offload);
        assert!(rec.retries >= 1);
        check_recovered(&rec);
        assert!(
            rec.outcome.stats.rejected + rec.outcome.stats.steps > 12,
            "stats must accumulate across failed rungs: {:?}",
            rec.outcome.stats
        );
    }

    #[test]
    fn subcycled_recovery_counts_exactly_one_zone() {
        // Regression: zone counting used to live inside the single-attempt
        // burn and fired once per *attempt*, so a zone recovered on the subcycle
        // rung (2 failed rungs + 4 sub-burns) counted as up to 7 zones and
        // inflated every zones/µs metric. Wrap the burn in a unique outer
        // region so this test reads its own region path regardless of
        // what other tests record concurrently.
        let net = CBurn2::new();
        let eos = StellarEos;
        let (rho, t0, x0, dt) = hot_zone();
        let rb = burner(
            &net,
            &eos,
            RetryLadder::default(),
            Some(faults(1.0, 2, BdfErrorKind::MaxSteps)),
        );
        let rec = {
            let _outer = exastro_telemetry::Telemetry::region("one_zone_test");
            rb.burn_zone(11, rho, t0, &x0, dt).unwrap()
        };
        assert_eq!(rec.rung, LadderRung::Subcycle, "the fault forced rung 2");
        assert_eq!(rec.retries, 2);
        let stats = exastro_telemetry::Telemetry::region_stats("one_zone_test/burner")
            .expect("the burn recorded under the test's region");
        assert_eq!(
            stats.zones, 1,
            "one physical zone, however many attempts the ladder took"
        );
    }

    #[test]
    fn fault_rate_selects_roughly_that_fraction_of_zones() {
        let f = faults(0.01, 1, BdfErrorKind::MaxSteps);
        let n = 100_000u64;
        let hit = (0..n).filter(|&z| f.zone_is_faulty(z)).count() as f64 / n as f64;
        assert!((0.005..0.02).contains(&hit), "hit rate {hit}");
        // Deterministic: same seed, same selection.
        let again = (0..n).filter(|&z| f.zone_is_faulty(z)).count() as f64 / n as f64;
        assert_eq!(hit, again);
        // Different seed, different selection (with overwhelming probability).
        let other = BurnFaultConfig {
            seed: 43,
            ..f.clone()
        };
        let mismatch = (0..n).any(|z| f.zone_is_faulty(z) != other.zone_is_faulty(z));
        assert!(mismatch);
    }
}
