//! The Castro time-advance driver: Strang-split burning, hydrodynamics,
//! gravity sources, and the non-subcycled AMR advance with refluxing.

use crate::burn::{burn_state, BurnOptions, BurnStats};
use crate::gravity::{Gravity, GravityField, GravityMode};
use crate::hydro::{Hydro, MAX_NCOMP};
use crate::restart::snapshot_level;
use crate::state::{lanes, rho_vel_e, StateLayout};
use exastro_amr::{
    average_down, fill_patch_two_levels, for_each_row, Array4, BcSpec, CommTrace, FluxRegister,
    Geometry, Hierarchy, MultiFab, Real,
};
use exastro_microphysics::{Composition, Eos, Network};
use exastro_parallel::{lane_chunks, par_each_mut, Arena, ExecSpace, PoolArena, LANES};
use exastro_resilience::recovery::{first_violation, transact, RecoveryOptions};
pub use exastro_resilience::recovery::{DriverError, StateViolation, StepError};
use exastro_resilience::stepper::{StepOutcome, Stepper};
use exastro_telemetry::{StepMetrics, StepRecorder, Telemetry};
use std::sync::Arc;

/// Per-step statistics.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    /// Burning statistics, both Strang halves counted: a zone is burned
    /// or skipped once in each half.
    pub burn: BurnStats,
    /// Whether the gravity multigrid ran and converged.
    pub gravity_converged: Option<bool>,
    /// Maximum temperature after the step.
    pub max_temp: Real,
    /// Maximum density after the step.
    pub max_dens: Real,
    /// Communication performed by the step (hydro ghost exchanges plus the
    /// gravity solve's own fills), merged across phases.
    pub comm: CommTrace,
}

/// The Castro simulation object for one problem.
pub struct Castro<'a> {
    /// State layout (defines nspec).
    pub layout: StateLayout,
    /// Equation of state.
    pub eos: &'a dyn Eos,
    /// Reaction network (used when `burn` is set).
    pub net: &'a Network,
    /// Hydro solver options.
    pub hydro: Hydro,
    /// Gravity solver.
    pub gravity: Gravity,
    /// Burning options; `None` disables reactions.
    pub burn: Option<BurnOptions>,
    /// Physical boundary conditions.
    pub bc: BcSpec,
    /// `ExecSpace::Serial`, its one value; no kernel reads it.
    pub ex: ExecSpace,
    /// Scratch arena.
    pub arena: Arc<dyn Arena>,
    /// Step-rejection policy and emergency-checkpoint destination.
    pub recovery: RecoveryOptions,
    /// Per-step metrics recorder; inert until a sink is attached via
    /// [`StepRecorder::attach_sink`].
    pub telemetry: StepRecorder,
}

impl<'a> Castro<'a> {
    /// A driver with sensible defaults: flat kernels, pool arena, serial
    /// execution, no gravity, no burning, outflow boundaries.
    pub fn new(eos: &'a dyn Eos, net: &'a Network) -> Self {
        Castro {
            layout: StateLayout::new(net.nspec()),
            eos,
            net,
            hydro: Hydro::default(),
            gravity: Gravity {
                mode: GravityMode::Off,
                ..Default::default()
            },
            burn: None,
            bc: BcSpec::outflow(),
            ex: ExecSpace::Serial,
            arena: Arc::new(PoolArena::new()),
            recovery: RecoveryOptions::default(),
            telemetry: StepRecorder::new(),
        }
    }

    /// CFL timestep for a level.
    pub fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real {
        self.hydro
            .estimate_dt(state, &self.layout, self.eos, self.net.species(), geom)
    }

    /// Recompute temperature and re-sync the advected internal energy from
    /// the conservative total energy (post-hydro EOS sync): one EOS solve
    /// per zone, seeded with the zone's previous temperature, [`LANES`]
    /// zones of an x-row to an [`Eos::t_from_e_lanes`] call, fabs spread
    /// over the worker pool.
    pub fn sync_temperature(&self, state: &mut MultiFab) {
        let layout = self.layout;
        let floors = self.hydro.floors;
        let species = self.net.species();
        let eos = self.eos;
        let nspec = layout.nspec;
        let vbs = state.valid_boxes();
        par_each_mut(&mut state.fab_views_mut(), |fi, arr| {
            for_each_row(vbs[fi], |start, len| {
                let z0 = arr.zone(start.x(), start.y(), start.z());
                lane_chunks(
                    len,
                    #[inline(always)]
                    |o, live| {
                        let z = z0 + o;
                        let at = |c| arr.at_lanes(z, live, c);
                        let (rho_u, eden, eint) = (
                            at(StateLayout::RHO),
                            at(StateLayout::EDEN),
                            at(StateLayout::EINT),
                        );
                        let mom = [
                            at(StateLayout::MX),
                            at(StateLayout::MY),
                            at(StateLayout::MZ),
                        ];
                        let (mut rho, mut e) = ([0.0; LANES], [0.0; LANES]);
                        for l in 0..LANES {
                            let m = [mom[0][l], mom[1][l], mom[2][l]];
                            (rho[l], _, e[l]) = rho_vel_e(rho_u[l], m, eden[l], eint[l], &floors);
                        }
                        // Renormalize species against advection drift.
                        let mut x = [[0.0; LANES]; StateLayout::MAX_NSPEC];
                        let mut xsum = [0.0; LANES];
                        for s in 0..nspec {
                            let u = at(layout.spec(s));
                            x[s] = lanes(|l| (u[l] / rho[l]).max(0.0));
                            xsum = lanes(|l| xsum[l] + x[s][l]);
                        }
                        for s in 0..nspec {
                            let u = at(layout.spec(s));
                            let renormed = lanes(|l| {
                                if xsum[l] > 0.0 {
                                    rho[l] * (x[s][l] / xsum[l])
                                } else {
                                    u[l]
                                }
                            });
                            arr.set_lanes(z, live, layout.spec(s), renormed);
                            x[s] = lanes(|l| renormed[l] / rho[l]);
                        }
                        let comp = Composition::from_mass_fraction_lanes(species, &x[..nspec]);
                        // The previous temperature is the seed (as in `cons_to_prim`):
                        // a zone the step did not touch converges on the first
                        // evaluation, in any unit system.
                        let temp = at(StateLayout::TEMP);
                        let t_guess = lanes(|l| temp[l].max(floors.small_temp));
                        let (t, _) = eos.t_from_e_lanes(rho, e, &comp, t_guess, live);
                        arr.set_lanes(
                            z,
                            live,
                            StateLayout::TEMP,
                            lanes(|l| t[l].max(floors.small_temp)),
                        );
                        arr.set_lanes(z, live, StateLayout::EINT, lanes(|l| rho[l] * e[l]));
                    },
                );
            });
        });
    }

    /// Validate the post-step state: every component finite, density and
    /// total energy positive, internal energy non-negative, and ΣX within
    /// `species_tol` of unity. Returns the *first* violation in sweep
    /// order (deterministic; the walk is [`first_violation`]), or `Ok(())`
    /// for a healthy state.
    pub fn validate_state(
        &self,
        state: &MultiFab,
        species_tol: Real,
    ) -> Result<(), StateViolation> {
        let layout = self.layout;
        first_violation(state, layout.ncomp(), |arr, z, zone| {
            let rho = arr.at_zone(z, StateLayout::RHO);
            if rho <= 0.0 {
                return Err(StateViolation::NegativeDensity { rho, zone });
            }
            let eden = arr.at_zone(z, StateLayout::EDEN);
            if eden <= 0.0 {
                return Err(StateViolation::NegativeEnergy { e: eden, zone });
            }
            let eint = arr.at_zone(z, StateLayout::EINT);
            if eint < 0.0 {
                return Err(StateViolation::NegativeEnergy { e: eint, zone });
            }
            let mut xsum = 0.0;
            for s in 0..layout.nspec {
                xsum += arr.at_zone(z, layout.spec(s)) / rho;
            }
            let drift = (xsum - 1.0).abs();
            if drift > species_tol {
                return Err(StateViolation::SpeciesDrift { drift, zone });
            }
            Ok(())
        })
    }

    /// Advance one level by `dt`: Strang burn half, hydro sweeps, gravity
    /// source, EOS sync, Strang burn half, post-step validation. Returns
    /// step statistics and the `dt` taken (always `dt`; the shape is
    /// [`Castro::advance_level_safe`]'s, whose retries may cut it).
    ///
    /// On `Err` the state has been partially advanced and must be restored
    /// from a pre-step snapshot before continuing —
    /// [`Castro::advance_level_safe`] wraps this call in exactly that
    /// snapshot/restore transaction.
    pub fn advance_level(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<(StepStats, Real), StepError> {
        let stats = self.advance_level_with_fluxes(state, geom, dt, &mut |_, _| {})?;
        Ok((stats, dt))
    }

    /// [`Castro::advance_level`], lending each hydro sweep's face fluxes to
    /// `on_fluxes` as `Hydro::advance_with_fluxes` does.
    fn advance_level_with_fluxes(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
        on_fluxes: &mut dyn FnMut(usize, &[Array4<'_>]),
    ) -> Result<StepStats, StepError> {
        let _prof = Telemetry::region("castro_advance");
        let mut stats = StepStats::default();
        if let Some(burn_opts) = &self.burn {
            let _r = Telemetry::region("burn");
            let b = burn_state(
                state,
                0.5 * dt,
                self.net,
                self.eos,
                &self.layout,
                burn_opts,
                &self.ex,
                geom,
            )
            .map_err(StepError::Burn)?;
            stats.burn = b;
        }
        {
            let _r = Telemetry::region("hydro");
            let comm = self.hydro.advance_with_fluxes(
                state,
                dt,
                geom,
                &self.layout,
                self.eos,
                self.net.species(),
                &self.bc,
                self.arena.as_ref(),
                on_fluxes,
            );
            stats.comm.merge(&comm);
        }
        if self.gravity.mode != GravityMode::Off {
            let _r = Telemetry::region("gravity");
            let field: GravityField = self.gravity.solve(state, geom);
            stats.gravity_converged = field.mg.as_ref().map(|m| m.converged);
            stats.comm.merge(&field.comm);
            Gravity::apply_source(state, &field, dt, &self.ex);
        }
        {
            let _r = Telemetry::region("sync_temperature");
            self.sync_temperature(state);
        }
        if let Some(burn_opts) = &self.burn {
            let _r = Telemetry::region("burn");
            let b = burn_state(
                state,
                0.5 * dt,
                self.net,
                self.eos,
                &self.layout,
                burn_opts,
                &self.ex,
                geom,
            )
            .map_err(StepError::Burn)?;
            stats.burn.merge(&b);
        }
        {
            let _r = Telemetry::region("validate");
            self.validate_state(state, self.recovery.species_tol)
                .map_err(StepError::Invalid)?;
        }
        stats.max_temp = state.max(StateLayout::TEMP);
        stats.max_dens = state.max(StateLayout::RHO);
        Ok(stats)
    }

    /// Advance one level **transactionally** through [`transact`]: on any
    /// [`StepError`] (burn-ladder exhaustion, a mid-step CFL violation
    /// through a strengthening shock — the collision problem does this at
    /// contact — or any validator rejection) the state is restored and the
    /// step retried with `dt` cut by [`RecoveryOptions::dt_cut`], up to
    /// [`RecoveryOptions::max_rejections`] attempts. Returns the stats and
    /// the `dt` actually taken.
    ///
    /// If every attempt fails the state is left **restored to its pre-step
    /// contents**, an emergency checkpoint is written (when
    /// [`RecoveryOptions::emergency_dir`] is set), and a structured
    /// [`DriverError`] is returned — never a panic.
    pub fn advance_level_safe(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<(StepStats, Real), Box<DriverError>> {
        transact(
            &self.recovery,
            &self.telemetry,
            state,
            dt,
            |s, dt| self.advance_level_with_fluxes(s, geom, dt, &mut |_, _| {}),
            |stats| {
                let arena = self.arena.stats();
                StepMetrics {
                    driver: "castro".to_string(),
                    newton_iters: stats.burn.newton_iters,
                    bdf_steps: stats.burn.total_steps,
                    burn_retries: stats.burn.retries,
                    recovered_relaxed: stats.burn.recovered_relaxed,
                    recovered_subcycle: stats.burn.recovered_subcycle,
                    recovered_offload: stats.burn.offloaded,
                    arena_live_bytes: arena.bytes_live,
                    arena_peak_bytes: arena.bytes_peak,
                    ..Default::default()
                }
            },
            |s, clock| snapshot_level(geom, s, clock, &self.layout),
        )
    }

    /// Advance a two-level (or more) hierarchy without subcycling: all
    /// levels take the same `dt`; conservation across coarse–fine
    /// boundaries is repaired by refluxing and the coarse data under fine
    /// grids is replaced by the averaged-down fine solution.
    ///
    /// Propagates the first level's [`StepError`]; as with
    /// [`Castro::advance_level`], the states are tainted on `Err`.
    pub fn advance_hierarchy(
        &self,
        hier: &Hierarchy,
        states: &mut [MultiFab],
        dt: Real,
    ) -> Result<Vec<StepStats>, StepError> {
        assert_eq!(states.len(), hier.nlevels());
        let mut all_stats = Vec::new();
        // Fill fine-level ghosts from coarse data before anything moves.
        let fill_prof = Telemetry::region("fill_patch");
        for l in 1..hier.nlevels() {
            let (coarse, fine) = states.split_at_mut(l);
            let cg = hier.level(l - 1).geom.clone();
            let fg = hier.level(l).geom.clone();
            fill_patch_two_levels(
                &mut fine[0],
                &fg,
                &mut coarse[l - 1],
                &cg,
                hier.level(l).ratio_to_coarser,
                &self.bc,
            );
        }
        drop(fill_prof);
        // One flux register per fine level, fed while the levels advance
        // (no flux array outlives its sweep): level l's sweeps add their
        // fluxes as the coarse side of level l + 1's register and the fine
        // side of its own. Levels advance coarsest first, so a register sees
        // all its coarse fluxes, sweep by sweep, before its fine ones.
        let ncomp = self.layout.ncomp();
        let mut registers: Vec<FluxRegister> = (1..hier.nlevels())
            .map(|l| FluxRegister::new(&hier.level(l).ba, hier.level(l).ratio_to_coarser, ncomp))
            .collect();
        for l in 0..hier.nlevels() {
            let geom = hier.level(l).geom.clone();
            // `registers[r]` belongs to fine level r + 1.
            let (below, above) = registers.split_at_mut(l);
            let (mut as_fine, mut as_coarse) = (below.last_mut(), above.first_mut());
            let mut feed = |d: usize, fabs: &[Array4<'_>]| {
                let _r = Telemetry::region("reflux");
                for fab in fabs {
                    for iv in fab.index_box().iter() {
                        let coarse = as_coarse.as_deref_mut().filter(|fr| fr.is_interface(d, iv));
                        if coarse.is_none() && as_fine.is_none() {
                            continue;
                        }
                        let z = fab.zone(iv.x(), iv.y(), iv.z());
                        let mut f = [0.0; MAX_NCOMP];
                        for (c, fc) in f[..ncomp].iter_mut().enumerate() {
                            *fc = fab.at_zone(z, c);
                        }
                        if let Some(fr) = coarse {
                            fr.crse_add(d, iv, &f[..ncomp], 1.0);
                        }
                        // Fine fluxes are area-averaged onto their parent
                        // coarse face (`fine_add` ignores non-interface
                        // faces). Unit scale: a non-subcycled advance gives
                        // both sides the same dt, and the reflux formula
                        // applies dt/dx_coarse.
                        if let Some(fr) = as_fine.as_deref_mut() {
                            fr.fine_add(d, iv, &f[..ncomp], 1.0);
                        }
                    }
                }
            };
            let stats = self.advance_level_with_fluxes(&mut states[l], &geom, dt, &mut feed)?;
            all_stats.push(stats);
        }
        // Reflux coarse levels against their fine level.
        let _reflux_prof = Telemetry::region("reflux");
        for l in (1..hier.nlevels()).rev() {
            let ratio = hier.level(l).ratio_to_coarser;
            let cdx = hier.level(l - 1).geom.dx();
            registers[l - 1].reflux(
                &mut states[l - 1],
                &hier.level(l).ba,
                [dt / cdx[0], dt / cdx[1], dt / cdx[2]],
            );
            // Average the fine solution down over the covered coarse zones.
            let (coarse, fine) = states.split_at_mut(l);
            average_down(&fine[0], &mut coarse[l - 1], ratio);
        }
        Ok(all_stats)
    }

    /// Total mass over the valid region.
    pub fn total_mass(&self, state: &MultiFab, geom: &Geometry) -> Real {
        state.sum(StateLayout::RHO) * geom.cell_volume()
    }

    /// Total energy (ρE integrated).
    pub fn total_energy(&self, state: &MultiFab, geom: &Geometry) -> Real {
        state.sum(StateLayout::EDEN) * geom.cell_volume()
    }
}

impl Stepper for Castro<'_> {
    fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real {
        Castro::estimate_dt(self, state, geom)
    }

    fn step(
        &mut self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<StepOutcome, Box<DriverError>> {
        let (stats, dt_taken) = self.advance_level_safe(state, geom, dt)?;
        Ok(StepOutcome {
            dt_taken,
            comm: stats.comm,
        })
    }

    fn take_recorder(&mut self) -> exastro_telemetry::StepRecorder {
        std::mem::take(&mut self.telemetry)
    }
}
