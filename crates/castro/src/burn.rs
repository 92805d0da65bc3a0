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
use exastro_amr::{Geometry, IntVect, MultiFab, Real};
use exastro_microphysics::{
    BurnFailure, BurnFaultConfig, BurnTally, Burner, BurnerConfig, Eos, Network, RetryLadder,
    ZoneBurn,
};
use exastro_parallel::ExecSpace;

/// Burn statistics for one multifab sweep.
#[derive(Clone, Debug, Default)]
pub struct BurnStats {
    /// Zones burned.
    pub zones: u64,
    /// Zones skipped by the temperature/density cutoffs.
    pub skipped: u64,
    /// Total integrator steps over all zones (the cost proxy).
    pub total_steps: u64,
    /// The largest single-zone step count (the "outlier" of §VI).
    pub max_steps: u64,
    /// Total Newton iterations over all zones.
    pub newton_iters: u64,
    /// Total nuclear energy released, erg.
    pub energy_released: Real,
    /// Retry-ladder attempts beyond the first, summed over zones.
    pub retries: u64,
    /// Zones that needed at least one retry to burn.
    pub recovered: u64,
    /// Zones whose winning rung was relaxed-tolerance.
    pub recovered_relaxed: u64,
    /// Zones whose winning rung was subcycling.
    pub recovered_subcycle: u64,
    /// Zones rescued by the §VI outlier-offload rung.
    pub offloaded: u64,
}

impl BurnStats {
    /// Merge another sweep's statistics into this one (the two Strang
    /// halves of a step report combined).
    pub fn merge(&mut self, o: &BurnStats) {
        self.zones += o.zones;
        self.skipped += o.skipped;
        self.total_steps += o.total_steps;
        self.max_steps = self.max_steps.max(o.max_steps);
        self.newton_iters += o.newton_iters;
        self.energy_released += o.energy_released;
        self.retries += o.retries;
        self.recovered += o.recovered;
        self.recovered_relaxed += o.recovered_relaxed;
        self.recovered_subcycle += o.recovered_subcycle;
        self.offloaded += o.offloaded;
    }
}

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
/// The sweep gathers every zone that passes the cutoffs, groups them by
/// temperature, and advances them a batch at a time through the SoA BDF
/// path (lanes that diverge fall back to the scalar retry ladder — see
/// [`exastro_microphysics::Burner::burn_all`]). The returned step counts
/// (total and max) are the per-zone cost signal the §VI hybrid-offload
/// model prices.
///
/// A zone whose integration fails is pushed through the retry ladder
/// ([`BurnOptions::ladder`]); only if every rung fails does the sweep
/// return an error — and then it finishes the sweep first and reports
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
    let mut energy_released: Real = 0.0;
    let mut failures: Vec<BurnFailure> = Vec::new();
    let nspec = layout.nspec;
    assert_eq!(nspec, net.nspec());
    let vol = geom.cell_volume();
    let (zones, sites, skipped) = gather_zones(state, layout, opts);
    let mut tally = BurnTally {
        skipped,
        ..Default::default()
    };
    // Burn pass: SoA batches with scalar-ladder fallback.
    let recs = build_burner(opts, net, eos).burn_all(&zones, dt);
    // Scatter pass: results come back in input order.
    for (((fi, iv), zb), res) in sites.into_iter().zip(&zones).zip(recs) {
        let rec = match res {
            Ok(r) => r,
            Err(f) => {
                failures.push(*f);
                continue;
            }
        };
        tally.record(&rec);
        let out = rec.outcome;
        let rho = zb.rho;
        energy_released += out.enuc * rho * vol;
        let fab = state.fab_mut(fi);
        for s in 0..nspec {
            fab.set(iv, layout.spec(s), rho * out.x[s]);
        }
        fab.set(iv, StateLayout::TEMP, out.t);
        // Deposit the released specific energy.
        fab.set(
            iv,
            StateLayout::EINT,
            fab.get(iv, StateLayout::EINT) + rho * out.enuc,
        );
        fab.set(
            iv,
            StateLayout::EDEN,
            fab.get(iv, StateLayout::EDEN) + rho * out.enuc,
        );
    }
    if failures.is_empty() {
        Ok(BurnStats {
            zones: tally.zones,
            skipped: tally.skipped,
            total_steps: tally.total_steps,
            max_steps: tally.max_steps,
            newton_iters: tally.newton_iters,
            energy_released,
            retries: tally.retries,
            recovered: tally.recovered,
            recovered_relaxed: tally.recovered_relaxed,
            recovered_subcycle: tally.recovered_subcycle,
            offloaded: tally.offloaded,
        })
    } else {
        Err(failures)
    }
}

/// The burner a sweep with these options runs.
fn build_burner<'a>(opts: &BurnOptions, net: &'a dyn Network, eos: &'a dyn Eos) -> Burner<'a> {
    let mut cfg = BurnerConfig {
        ladder: opts.ladder.clone(),
        faults: opts.faults.clone(),
        ..Default::default()
    };
    if let Some(ms) = opts.max_steps {
        cfg.bdf.max_steps = ms;
    }
    cfg.build(net, eos)
}

/// Gather pass of a burn sweep: every zone that passes the cutoffs, where
/// it lives, and how many were skipped. The flat zone index is
/// deterministic in sweep order — the fault-injection predicate and
/// failure reports key on it, and it is identical between the two Strang
/// halves of a step.
fn gather_zones(
    state: &MultiFab,
    layout: &StateLayout,
    opts: &BurnOptions,
) -> (Vec<ZoneBurn>, Vec<(usize, IntVect)>, u64) {
    let nspec = layout.nspec;
    let valid = state.box_array().total_zones() as usize;
    let mut zones: Vec<ZoneBurn> = Vec::with_capacity(valid);
    let mut sites: Vec<(usize, IntVect)> = Vec::with_capacity(valid);
    let mut zone_id = 0u64;
    for fi in 0..state.nfabs() {
        let vb = state.valid_box(fi);
        let fab = state.fab(fi);
        for iv in vb.iter() {
            let zone = zone_id;
            zone_id += 1;
            let rho = fab.get(iv, StateLayout::RHO);
            let t = fab.get(iv, StateLayout::TEMP);
            if t < opts.min_temp || rho < opts.min_dens {
                continue;
            }
            let mut x = vec![0.0; nspec];
            for s in 0..nspec {
                x[s] = (fab.get(iv, layout.spec(s)) / rho).clamp(0.0, 1.0);
            }
            zones.push(ZoneBurn {
                zone,
                rho,
                t0: t,
                x0: x,
            });
            sites.push((fi, iv));
        }
    }
    let skipped = zone_id - zones.len() as u64;
    (zones, sites, skipped)
}

/// The §VI "outlier zone" claim, made directly observable: probe-burn every
/// zone of `state` for `dt` **without modifying it**, through the same
/// gather and batched burn [`burn_state`] runs, and return a
/// single-component `MultiFab` holding each zone's burn cost in BDF steps
/// (0 for zones the cutoffs skip; the accumulated attempt cost for zones
/// that fail every ladder rung). Rendered as a slice, this is the spatial
/// heatmap showing the handful of igniting zones that cost orders of
/// magnitude more than their quiescent neighbours.
pub fn burn_cost_multifab(
    state: &MultiFab,
    dt: Real,
    net: &dyn Network,
    eos: &dyn Eos,
    layout: &StateLayout,
    opts: &BurnOptions,
) -> MultiFab {
    let mut cost = MultiFab::new(state.box_array().clone(), state.dist_map().clone(), 1, 0);
    let (zones, sites, _) = gather_zones(state, layout, opts);
    let recs = build_burner(opts, net, eos).burn_all(&zones, dt);
    for ((fi, iv), res) in sites.into_iter().zip(recs) {
        let steps = match res {
            Ok(rec) => rec.outcome.stats.steps,
            Err(f) => f.stats.steps,
        };
        cost.fab_mut(fi).set(iv, 0, steps as Real);
    }
    cost
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

    #[test]
    fn burn_cost_multifab_maps_outliers_without_touching_state() {
        let (geom, state, layout) = carbon_state(8, true);
        let net = CBurn2::new();
        let eos = StellarEos;
        let before: Real = geom
            .domain()
            .iter()
            .map(|iv| state.value_at(iv, StateLayout::TEMP))
            .sum();
        let cost = burn_cost_multifab(&state, 1e-8, &net, &eos, &layout, &BurnOptions::default());
        let after: Real = geom
            .domain()
            .iter()
            .map(|iv| state.value_at(iv, StateLayout::TEMP))
            .sum();
        assert_eq!(before, after, "probe must not modify the state");
        assert_eq!(cost.ncomp(), 1);
        // Cold zones cost 0; the hot center costs many BDF steps.
        let center = IntVect::splat(4);
        let corner = IntVect::splat(0);
        assert!(cost.value_at(center, 0) > 0.0, "hot center has burn cost");
        assert_eq!(cost.value_at(corner, 0), 0.0, "cold corner is free");
        let max = geom
            .domain()
            .iter()
            .map(|iv| cost.value_at(iv, 0))
            .fold(0.0, Real::max);
        let nonzero = geom
            .domain()
            .iter()
            .filter(|&iv| cost.value_at(iv, 0) > 0.0)
            .count();
        assert!(max >= 1.0);
        assert!(
            nonzero < 512,
            "only the igniting pocket should be expensive"
        );
        // The heatmap describes the integration the sweep runs: its sum is
        // exactly the sweep's step count.
        let total: Real = geom.domain().iter().map(|iv| cost.value_at(iv, 0)).sum();
        let mut burned = state.clone();
        let stats = burn_state(
            &mut burned,
            1e-8,
            &net,
            &eos,
            &layout,
            &BurnOptions::default(),
            &ExecSpace::Serial,
            &geom,
        )
        .unwrap();
        assert_eq!(total, stats.total_steps as Real);
    }
}
