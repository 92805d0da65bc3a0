//! Strang-split nuclear burning of the hydro state.
//!
//! Each zone's (ρ, T, X) is handed to the microphysics burner for `dt/2`
//! before and after the hydrodynamics (Strang splitting). The burn is the
//! most register-hungry kernel on the device (§IV-B: "with N ~ 10 isotopes
//! the Jacobian of the system alone is enough to fill up these registers"),
//! and the most *nonuniform*: an igniting zone can cost orders of magnitude
//! more than a quiescent one (§VI) — the burn returns per-zone cost
//! statistics so the hybrid CPU/GPU ablation can exploit exactly that.

use crate::state::StateLayout;
use exastro_amr::{Geometry, MultiFab, Real};
pub use exastro_microphysics::BurnStats;
use exastro_microphysics::{BurnFailure, BurnFaultConfig, BurnerConfig, Eos, Network, RetryLadder};
use exastro_parallel::ExecSpace;

/// Burning options.
#[derive(Clone, Debug)]
pub struct BurnOptions {
    /// Skip zones cooler than this (burning is negligible).
    pub min_temp: Real,
    /// Skip zones less dense than this.
    pub min_dens: Real,
    /// Step budget for the direct burn path (`None` = integrator default).
    pub max_steps: Option<usize>,
    /// The failure-recovery ladder (see [`exastro_microphysics::recovery`]).
    pub ladder: RetryLadder,
    /// Deterministic fault injection for tests and CI smoke runs.
    pub faults: Option<BurnFaultConfig>,
}

impl Default for BurnOptions {
    fn default() -> Self {
        BurnOptions {
            min_temp: 5e7,
            min_dens: 1e3,
            max_steps: None,
            ladder: RetryLadder::default(),
            faults: None,
        }
    }
}

/// Burn every zone of `state` for `dt` with the given network.
///
/// The sweep is [`exastro_microphysics::Burner::burn_multifab`]: every zone
/// that passes the cutoffs is burned in temperature-sorted SoA batches,
/// lanes that diverge fall back to the retry ladder
/// ([`BurnOptions::ladder`]), and each burned zone's ρX, T, ρe and ρE are
/// written back. The returned step counts (total and max) are the
/// per-zone cost signal the §VI hybrid-offload model prices.
///
/// Only if a zone fails every rung does the sweep return an error, listing
/// **all** failed zones, so the driver's step rejection sees the complete
/// picture. On `Err` the state is partially burned and must be discarded
/// (the drivers restore their pre-step snapshot).
///
/// The sweep runs on the worker pool whatever the [`ExecSpace`]; the
/// parameter only keeps the signature the drivers and `perf_ledger` call.
#[allow(clippy::too_many_arguments)]
pub fn burn_state(
    state: &mut MultiFab,
    dt: Real,
    net: &dyn Network,
    eos: &dyn Eos,
    layout: &StateLayout,
    opts: &BurnOptions,
    _ex: &ExecSpace,
    geom: &Geometry,
) -> Result<BurnStats, Vec<BurnFailure>> {
    let nspec = layout.nspec;
    assert_eq!(nspec, net.nspec());
    let vol = geom.cell_volume();
    let mut cfg = BurnerConfig {
        ladder: opts.ladder.clone(),
        faults: opts.faults.clone(),
        ..Default::default()
    };
    if let Some(ms) = opts.max_steps {
        cfg.bdf.max_steps = ms;
    }
    cfg.build(net, eos).burn_multifab(
        state,
        dt,
        |arr, z, x| {
            let rho = arr.at_zone(z, StateLayout::RHO);
            let t = arr.at_zone(z, StateLayout::TEMP);
            if t < opts.min_temp || rho < opts.min_dens {
                return None;
            }
            for (s, xi) in x.iter_mut().enumerate() {
                *xi = (arr.at_zone(z, layout.spec(s)) / rho).clamp(0.0, 1.0);
            }
            Some((rho, t))
        },
        |arr, z, rho, out| {
            for s in 0..nspec {
                arr.set_zone(z, layout.spec(s), rho * out.x[s]);
            }
            arr.set_zone(z, StateLayout::TEMP, out.t);
            // Deposit the released specific energy.
            for c in [StateLayout::EINT, StateLayout::EDEN] {
                arr.add_zone(z, c, rho * out.enuc);
            }
            out.enuc * rho * vol
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_amr::{BoxArray, DistributionMapping, IntVect};
    use exastro_microphysics::{CBurn2, StellarEos};

    fn carbon_state(n: i32, hot_center: bool) -> (Geometry, MultiFab, StateLayout) {
        let geom = Geometry::cube(n, 1e8, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let dm = DistributionMapping::all_local(&ba);
        let layout = StateLayout::new(2);
        let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let center = IntVect::splat(n / 2);
                let d = iv - center;
                let hot = hot_center && d.product().abs() < 2 && d.sum().abs() < 3;
                let rho = 5e7;
                let t = if hot { 3.0e9 } else { 1e7 };
                state.fab_mut(i).set(iv, StateLayout::RHO, rho);
                state.fab_mut(i).set(iv, StateLayout::TEMP, t);
                state.fab_mut(i).set(iv, layout.spec(0), rho); // pure C12
                state.fab_mut(i).set(iv, StateLayout::EINT, rho * 1e17);
                state.fab_mut(i).set(iv, StateLayout::EDEN, rho * 1e17);
            }
        }
        (geom, state, layout)
    }

    #[test]
    fn cold_state_is_all_skipped() {
        let (geom, mut state, layout) = carbon_state(8, false);
        let net = CBurn2::new();
        let eos = StellarEos;
        let ex = ExecSpace::Serial;
        let stats = burn_state(
            &mut state,
            1e-6,
            &net,
            &eos,
            &layout,
            &BurnOptions::default(),
            &ex,
            &geom,
        )
        .unwrap();
        assert_eq!(stats.zones, 0);
        assert_eq!(stats.skipped, 512);
        assert_eq!(stats.energy_released, 0.0);
    }

    #[test]
    fn hot_zones_burn_and_release_energy() {
        let (geom, mut state, layout) = carbon_state(8, true);
        let net = CBurn2::new();
        let eos = StellarEos;
        let ex = ExecSpace::Serial;
        let e_before = state.sum(StateLayout::EDEN);
        let stats = burn_state(
            &mut state,
            1e-8,
            &net,
            &eos,
            &layout,
            &BurnOptions::default(),
            &ex,
            &geom,
        )
        .unwrap();
        assert!(stats.zones > 0);
        assert!(stats.energy_released > 0.0);
        assert!(state.sum(StateLayout::EDEN) > e_before);
        // Mass is conserved (species converted, not destroyed).
        for iv in geom.domain().iter() {
            let rho = state.value_at(iv, StateLayout::RHO);
            let sum_x: Real = (0..2).map(|s| state.value_at(iv, layout.spec(s))).sum();
            assert!((sum_x / rho - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn a_step_counts_every_zone_once_in_each_strang_half() {
        let (geom, mut state, _) = carbon_state(8, true);
        let (net, eos) = (CBurn2::new(), StellarEos);
        let mut castro = crate::Castro::new(&eos, &net);
        castro.burn = Some(BurnOptions::default());
        let (stats, _) = castro.advance_level(&mut state, &geom, 1e-9).unwrap();
        let b = stats.burn;
        assert!(b.zones > 0 && b.skipped > 0, "{b:?}");
        assert_eq!(b.zones + b.skipped, 2 * 512, "{b:?}");
    }

    #[test]
    fn burn_cost_is_nonuniform_with_hot_outliers() {
        let (geom, mut state, layout) = carbon_state(8, true);
        let net = CBurn2::new();
        let eos = StellarEos;
        let ex = ExecSpace::Serial;
        let stats = burn_state(
            &mut state,
            1e-8,
            &net,
            &eos,
            &layout,
            &BurnOptions {
                min_temp: 1e6, // burn everything, even quiescent zones
                ..Default::default()
            },
            &ex,
            &geom,
        )
        .unwrap();
        let mean = stats.total_steps as f64 / stats.zones as f64;
        assert!(
            stats.max_steps as f64 > 3.0 * mean,
            "outlier max {} vs mean {mean}",
            stats.max_steps
        );
    }

    #[test]
    fn injected_faults_recover_through_the_ladder() {
        let (geom, mut state, layout) = carbon_state(8, true);
        let net = CBurn2::new();
        let eos = StellarEos;
        let ex = ExecSpace::Serial;
        let opts = BurnOptions {
            faults: Some(BurnFaultConfig {
                seed: 2024,
                rate: 1.0, // every burned zone fails once
                rungs_to_fail: 1,
                error: exastro_microphysics::BdfErrorKind::MaxSteps,
            }),
            ..Default::default()
        };
        let stats = burn_state(&mut state, 1e-8, &net, &eos, &layout, &opts, &ex, &geom).unwrap();
        assert!(stats.zones > 0);
        assert_eq!(stats.recovered, stats.zones, "every zone needed a retry");
        assert_eq!(stats.retries, stats.zones);
        assert_eq!(stats.offloaded, 0);
        // Recovered state is still physical.
        for iv in geom.domain().iter() {
            let rho = state.value_at(iv, StateLayout::RHO);
            let sum_x: Real = (0..2).map(|s| state.value_at(iv, layout.spec(s))).sum();
            assert!((sum_x / rho - 1.0).abs() < 1e-6);
            assert!(state.value_at(iv, StateLayout::TEMP).is_finite());
        }
    }

    #[test]
    fn every_bdf_error_variant_surfaces_through_burn_state() {
        use exastro_microphysics::BdfErrorKind;
        for err in [
            BdfErrorKind::MaxSteps,
            BdfErrorKind::StepUnderflow { t: 3.2e-9 },
            BdfErrorKind::SingularMatrix,
        ] {
            let (geom, mut state, layout) = carbon_state(8, true);
            let net = CBurn2::new();
            let eos = StellarEos;
            let ex = ExecSpace::Serial;
            let opts = BurnOptions {
                faults: Some(BurnFaultConfig {
                    seed: 7,
                    rate: 1.0,
                    rungs_to_fail: 99, // unrecoverable
                    error: err.clone(),
                }),
                ..Default::default()
            };
            let failures =
                burn_state(&mut state, 1e-8, &net, &eos, &layout, &opts, &ex, &geom).unwrap_err();
            assert!(!failures.is_empty());
            for f in &failures {
                assert_eq!(f.error, err);
                assert_eq!(f.attempts, 4);
                assert!(f.rho > 0.0 && f.t0 > 0.0);
                assert_eq!(f.x0.len(), 2);
            }
        }
    }

    #[test]
    fn genuine_max_steps_failure_surfaces_without_injection() {
        // A starved step budget with the ladder disabled: the integrator's
        // own MaxSteps error must reach the caller as a structured failure.
        let (geom, mut state, layout) = carbon_state(8, true);
        let net = CBurn2::new();
        let eos = StellarEos;
        let ex = ExecSpace::Serial;
        let opts = BurnOptions {
            max_steps: Some(2),
            ladder: exastro_microphysics::RetryLadder::none(),
            ..Default::default()
        };
        let failures =
            burn_state(&mut state, 1e-8, &net, &eos, &layout, &opts, &ex, &geom).unwrap_err();
        assert!(!failures.is_empty());
        for f in &failures {
            assert_eq!(f.error, exastro_microphysics::BdfErrorKind::MaxSteps);
            assert!(f.stats.rhs_evals > 0, "genuine failure reports its cost");
        }
    }
}
