//! The low-Mach-number advance: advection, buoyancy, reactions, and the
//! divergence projection.
//!
//! MAESTROeX filters sound waves analytically: the velocity is constrained
//! to (approximately) divergence-free by a global *projection* — an
//! elliptic solve performed with multigrid — while the thermodynamics ride
//! on the hydrostatic base state. The timestep is set by the *fluid*
//! velocity, not the sound speed, allowing steps orders of magnitude larger
//! than a compressible code's (§II). The cost profile of one step is
//! exactly the paper's §IV-B description: zone-local reactions plus a
//! communication-heavy multigrid solve, "approximately equally balanced" at
//! one node.
//!
//! ## Advection as a halo loop
//!
//! Upwind advection reads a pre-step snapshot of the state and writes the
//! state, so [`Maestro::advance`] runs one [`HaloLoop`] (graph label
//! `lowmach.advect`) *over the snapshot*: the ghost exchange packs from and
//! unpacks into the snapshot, which no kernel writes. Per box, `interior`
//! advects the zones whose 1-zone upwind stencil lies in valid data (free
//! to run while halos are in flight), `band` advects the remaining shells
//! once the snapshot's ghosts are filled, and `update` copies those ghosts
//! — exchanged, boundary-conditioned, pre-advect — into the state, where
//! the projection's velocity copy reads them.

use crate::base_state::{rho_from_p_t, BaseState};
use exastro_amr::{
    for_each_row, Array4Mut, BcKind, BcSpec, CommTrace, Geometry, HaloLoop, IndexBox, IntVect,
    MultiFab, Real, SPACEDIM,
};
use exastro_microphysics::{
    BurnFailure, BurnFaultConfig, BurnStats, BurnerConfig, Composition, Eos, Network,
};
use exastro_parallel::{par_each_mut, par_map_fold};
use exastro_resilience::recovery::{first_violation, transact, RecoveryOptions};
pub use exastro_resilience::recovery::{DriverError, StateViolation, StepError};
use exastro_resilience::stepper::{StepOutcome, Stepper};
use exastro_solvers::{MgBc, MgOptions, MgStats, Multigrid};
use exastro_telemetry::{StepMetrics, StepRecorder, Telemetry};

/// Most species a low-Mach state carries (the largest network, aprox13,
/// has 13); with it, the size of a kernel's per-zone stack buffer.
const MAX_NSPEC: usize = 16;
const MAX_NCOMP: usize = LmLayout::FS + MAX_NSPEC;

/// Advective CFL number of [`Maestro::estimate_dt`].
const CFL: Real = 0.5;

/// The burn skips zones colder than this, K.
const BURN_MIN_TEMP: Real = 1e8;

/// Component indices of the low-Mach state.
#[derive(Clone, Copy, Debug)]
pub struct LmLayout {
    /// Number of species.
    pub nspec: usize,
}

impl LmLayout {
    /// x-velocity.
    pub const U: usize = 0;
    /// y-velocity.
    pub const V: usize = 1;
    /// z-velocity.
    pub const W: usize = 2;
    /// Temperature.
    pub const TEMP: usize = 3;
    /// Density (diagnostic; re-derived from p₀ and T each step).
    pub const RHO: usize = 4;
    /// First species mass fraction.
    pub const FS: usize = 5;

    /// Layout for `nspec` species (at most 16: kernels stage one zone's
    /// components in a stack array).
    pub fn new(nspec: usize) -> Self {
        assert!(nspec <= MAX_NSPEC, "at most {MAX_NSPEC} species");
        LmLayout { nspec }
    }

    /// Total components.
    pub fn ncomp(&self) -> usize {
        Self::FS + self.nspec
    }

    /// Species component index.
    pub fn spec(&self, k: usize) -> usize {
        Self::FS + k
    }
}

/// Statistics from one low-Mach step.
#[derive(Clone, Debug, Default)]
pub struct LmStepStats {
    /// Multigrid projection statistics.
    pub projection: Option<MgStats>,
    /// Zones burned, both reaction half-steps counted.
    pub burn_zones: u64,
    /// Zones the burn skipped as colder than `BURN_MIN_TEMP` (1e8 K).
    pub burn_skipped: u64,
    /// Total burner integrator steps (reaction cost proxy).
    pub burn_steps: u64,
    /// Total Newton iterations over all burned zones.
    pub burn_newton_iters: u64,
    /// Burn retry-ladder attempts beyond the first, summed over zones.
    pub burn_retries: u64,
    /// Zones that needed at least one retry to burn.
    pub burn_recovered: u64,
    /// Zones whose winning rung was relaxed-tolerance.
    pub burn_recovered_relaxed: u64,
    /// Zones whose winning rung was subcycling.
    pub burn_recovered_subcycle: u64,
    /// Zones rescued by the §VI outlier-offload rung.
    pub burn_offloaded: u64,
    /// Peak temperature after the step.
    pub max_temp: Real,
    /// Peak vertical velocity.
    pub max_w: Real,
    /// Communication performed by the step (advection ghost exchange plus
    /// the projection's velocity/potential fills), merged across phases.
    pub comm: CommTrace,
}

impl LmStepStats {
    /// Fold one reaction half-step's statistics into the step's burn
    /// counters.
    fn add_burn(&mut self, t: &BurnStats) {
        self.burn_zones += t.zones;
        self.burn_skipped += t.skipped;
        self.burn_steps += t.total_steps;
        self.burn_newton_iters += t.newton_iters;
        self.burn_retries += t.retries;
        self.burn_recovered += t.recovered;
        self.burn_recovered_relaxed += t.recovered_relaxed;
        self.burn_recovered_subcycle += t.recovered_subcycle;
        self.burn_offloaded += t.offloaded;
    }
}

/// The low-Mach solver.
pub struct Maestro<'a> {
    /// State layout.
    pub layout: LmLayout,
    /// EOS.
    pub eos: &'a dyn Eos,
    /// Reaction network.
    pub net: &'a Network,
    /// Hydrostatic base state.
    pub base: BaseState,
    /// Enable reactions.
    pub do_burn: bool,
    /// Deterministic burn fault injection (tests / CI smoke).
    pub burn_faults: Option<BurnFaultConfig>,
    /// Step-rejection policy and emergency-checkpoint destination.
    pub recovery: RecoveryOptions,
    /// Per-step metrics recorder; inert until a sink is attached via
    /// [`StepRecorder::attach_sink`].
    pub telemetry: StepRecorder,
}

impl<'a> Maestro<'a> {
    /// Boundary conditions: periodic laterally, solid walls vertically
    /// (normal velocity reflects odd).
    pub fn bc(&self) -> BcSpec {
        let mut bc = BcSpec {
            kind: [[BcKind::Periodic; 2]; SPACEDIM],
            reflect_odd: vec![(LmLayout::W, 2)],
        };
        bc.kind[2] = [BcKind::Reflect; 2];
        bc
    }

    /// Advective CFL timestep — sound speed does *not* appear. Each fab's
    /// peak speed is found on the pool; the peaks fold in fab order.
    pub fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real {
        let dx = geom.min_dx();
        let vmax = par_map_fold(
            state.nfabs(),
            1e-10,
            |f| {
                let arr = state.fab(f).array();
                let mut vmax: Real = 1e-10;
                for_each_row(state.valid_box(f), |start, len| {
                    let z0 = arr.zone(start.x(), start.y(), start.z());
                    for z in z0..z0 + len {
                        for d in 0..3 {
                            vmax = vmax.max(arr.at_zone(z, LmLayout::U + d).abs());
                        }
                    }
                });
                vmax
            },
            Real::max,
        );
        CFL * dx / vmax
    }

    /// Recompute the density from the base pressure and local (T, X): the
    /// low-Mach equation of state constraint. One pool task a fab.
    pub fn enforce_density(&self, state: &mut MultiFab, geom: &Geometry) {
        let _ = geom;
        let (layout, base, eos) = (self.layout, &self.base, self.eos);
        let species = self.net.species();
        let vbs = state.valid_boxes();
        par_each_mut(&mut state.fab_views_mut(), |f, arr| {
            for_each_row(vbs[f], |start, len| {
                let kz = start.z().clamp(0, base.nz() as i32 - 1) as usize;
                let z0 = arr.zone(start.x(), start.y(), start.z());
                for z in z0..z0 + len {
                    let t = arr.at_zone(z, LmLayout::TEMP);
                    let mut xs = [0.0; MAX_NSPEC];
                    let x = &mut xs[..layout.nspec];
                    for (s, xi) in x.iter_mut().enumerate() {
                        *xi = arr.at_zone(z, layout.spec(s)).clamp(0.0, 1.0);
                    }
                    let comp = Composition::from_mass_fractions(species, x);
                    let rho_old = arr.at_zone(z, LmLayout::RHO).max(1e-6);
                    let rho = rho_from_p_t(base.p0[kz], t, &comp, eos, rho_old);
                    arr.set_zone(z, LmLayout::RHO, rho);
                }
            });
        });
    }

    /// First-order upwind advection of the zones of `region` by the cell
    /// velocity, reading pre-step data from the snapshot view `ov` and
    /// writing the state view `sv`. Pointwise in the destination zone, so
    /// any partition of a valid box computes the same updates as one pass.
    fn advect_region(
        &self,
        sv: &Array4Mut<'_>,
        ov: &Array4Mut<'_>,
        region: IndexBox,
        geom: &Geometry,
        dt: Real,
    ) {
        let dx = geom.dx();
        let ncomp = self.layout.ncomp();
        for iv in region.iter() {
            let mut upd = [0.0; MAX_NCOMP];
            let upd = &mut upd[..ncomp];
            for d in 0..3 {
                let e = IntVect::dim_vec(d);
                let vel = ov.at(iv.x(), iv.y(), iv.z(), LmLayout::U + d);
                for (c, u) in upd.iter_mut().enumerate() {
                    let lo = iv - e;
                    let hi = iv + e;
                    let grad = if vel >= 0.0 {
                        ov.at(iv.x(), iv.y(), iv.z(), c) - ov.at(lo.x(), lo.y(), lo.z(), c)
                    } else {
                        ov.at(hi.x(), hi.y(), hi.z(), c) - ov.at(iv.x(), iv.y(), iv.z(), c)
                    };
                    *u -= vel * grad / dx[d] * dt;
                }
            }
            for (c, u) in upd.iter().enumerate() {
                let v = sv.at(iv.x(), iv.y(), iv.z(), c) + u;
                sv.set(iv.x(), iv.y(), iv.z(), c, v);
            }
        }
    }

    /// Buoyancy source: `w += −g (ρ − ρ₀)/ρ dt`, one pool task a fab.
    fn buoyancy(&self, state: &mut MultiFab, dt: Real) {
        let base = &self.base;
        let vbs = state.valid_boxes();
        par_each_mut(&mut state.fab_views_mut(), |f, arr| {
            for_each_row(vbs[f], |start, len| {
                let kz = start.z().clamp(0, base.nz() as i32 - 1) as usize;
                let z0 = arr.zone(start.x(), start.y(), start.z());
                for z in z0..z0 + len {
                    let rho = arr.at_zone(z, LmLayout::RHO).max(1e-12);
                    let drho = rho - base.rho0[kz];
                    let dw = -base.grav * drho / rho * dt;
                    arr.set_zone(z, LmLayout::W, arr.at_zone(z, LmLayout::W) + dw);
                }
            });
        });
    }

    /// Project the velocity onto the (approximately) divergence-free space:
    /// solve `∇²φ = ∇·U / dt`, then `U −= dt ∇φ`. This is the global
    /// multigrid solve that dominates MAESTROeX communication at scale.
    pub fn project(&self, state: &mut MultiFab, geom: &Geometry, dt: Real) -> (MgStats, CommTrace) {
        let ba = state.box_array().clone();
        let dm = state.dist_map().clone();
        let mut rhs = MultiFab::new(ba.clone(), dm.clone(), 1, 0);
        let mut vel = MultiFab::new(ba.clone(), dm.clone(), 3, 1);
        // The velocity, ghosts included: the advect loop left the state's
        // ghosts exchanged and boundary-conditioned.
        par_each_mut(&mut vel.fab_views_mut(), |i, vv| {
            let sv = state.fab(i).array();
            for_each_row(vv.index_box(), |row, n| {
                let z = vv.zone(row.x(), row.y(), row.z());
                let s = sv.zone(row.x(), row.y(), row.z());
                for x in 0..n {
                    for d in 0..3 {
                        vv.set_zone(z + x, d, sv.at_zone(s + x, LmLayout::U + d));
                    }
                }
            });
        });
        let mut comm = vel.fill_boundary(geom);
        let velbc = BcSpec {
            kind: {
                let mut k = [[BcKind::Periodic; 2]; SPACEDIM];
                k[2] = [BcKind::Reflect; 2];
                k
            },
            reflect_odd: vec![(2, 2)],
        };
        vel.fill_physical_bc(geom, &velbc);
        let dx = geom.dx();
        par_each_mut(&mut rhs.fab_views_mut(), |i, rv| {
            let vv = vel.fab(i).array();
            let strides = [1, vv.stride(1), vv.stride(2)];
            for_each_row(rv.index_box(), |row, n| {
                let r = rv.zone(row.x(), row.y(), row.z());
                let v = vv.zone(row.x(), row.y(), row.z());
                for x in 0..n {
                    let mut div = 0.0;
                    for d in 0..3 {
                        let (up, down) = (v + x + strides[d], v + x - strides[d]);
                        div += (vv.at_zone(up, d) - vv.at_zone(down, d)) / (2.0 * dx[d]);
                    }
                    rv.set_zone(r + x, 0, div / dt);
                }
            });
        });
        // Remove the nullspace component (periodic/Neumann solvability).
        // One serial sum in box-then-zone order (`rhs` has no ghosts): the
        // mean's bits must not depend on how the boxes were scheduled.
        let total = (0..rhs.nfabs())
            .flat_map(|i| rhs.fab(i).data())
            .fold(0.0, |total, v| total + v);
        let mean = total / geom.domain().num_zones() as Real;
        par_each_mut(&mut rhs.fab_views_mut(), |_, rv| {
            for_each_row(rv.index_box(), |row, n| {
                let r = rv.zone(row.x(), row.y(), row.z());
                for x in 0..n {
                    rv.set_zone(r + x, 0, rv.at_zone(r + x, 0) - mean);
                }
            });
        });
        let mut phi = MultiFab::new(ba, dm, 1, 1);
        let mg = Multigrid::poisson(
            [MgBc::Periodic, MgBc::Periodic, MgBc::Neumann],
            MgOptions {
                tol_rel: 1e-9,
                max_cycles: 40,
                ..Default::default()
            },
        );
        let stats = mg.solve(&mut phi, &rhs, geom);
        let phi_trace = phi.fill_boundary(geom);
        comm.merge(&phi_trace);
        // Neumann ghosts at the walls.
        let phibc = BcSpec {
            kind: {
                let mut k = [[BcKind::Periodic; 2]; SPACEDIM];
                k[2] = [BcKind::Outflow; 2];
                k
            },
            reflect_odd: vec![],
        };
        phi.fill_physical_bc(geom, &phibc);
        let vbs = state.valid_boxes();
        par_each_mut(&mut state.fab_views_mut(), |i, sv| {
            let pv = phi.fab(i).array();
            let strides = [1, pv.stride(1), pv.stride(2)];
            for_each_row(vbs[i], |row, n| {
                let s = sv.zone(row.x(), row.y(), row.z());
                let p = pv.zone(row.x(), row.y(), row.z());
                for x in 0..n {
                    for d in 0..3 {
                        let (up, down) = (p + x + strides[d], p + x - strides[d]);
                        let grad = (pv.at_zone(up, 0) - pv.at_zone(down, 0)) / (2.0 * dx[d]);
                        let u = sv.at_zone(s + x, LmLayout::U + d) - dt * grad;
                        sv.set_zone(s + x, LmLayout::U + d, u);
                    }
                }
            });
        });
        (stats, comm)
    }

    /// React every zone hotter than `BURN_MIN_TEMP` for `dt` (temperature
    /// and composition evolve at constant local density) through
    /// [`exastro_microphysics::Burner::burn_multifab`], with failed zones
    /// retried through the default [`exastro_microphysics::RetryLadder`].
    fn react(&self, state: &mut MultiFab, dt: Real) -> Result<BurnStats, Vec<BurnFailure>> {
        let layout = self.layout;
        let burner = BurnerConfig {
            faults: self.burn_faults.clone(),
            ..Default::default()
        }
        .build(self.net, self.eos);
        burner.burn_multifab(
            state,
            dt,
            |arr, z, x| {
                let t = arr.at_zone(z, LmLayout::TEMP);
                if t < BURN_MIN_TEMP {
                    return None;
                }
                let rho = arr.at_zone(z, LmLayout::RHO).max(1e-12);
                for (s, xi) in x.iter_mut().enumerate() {
                    *xi = arr.at_zone(z, layout.spec(s)).clamp(0.0, 1.0);
                }
                Some((rho, t))
            },
            |arr, z, _, out| {
                arr.set_zone(z, LmLayout::TEMP, out.t);
                for s in 0..layout.nspec {
                    arr.set_zone(z, layout.spec(s), out.x[s]);
                }
                // The low-Mach step keeps no energy tally.
                0.0
            },
        )
    }

    /// Check the post-step state for physical sanity: every component
    /// finite, density and temperature positive, ΣX within `species_tol`
    /// of one. Returns the first violation in sweep order (the walk is
    /// [`first_violation`]).
    pub fn validate_state(
        &self,
        state: &MultiFab,
        species_tol: Real,
    ) -> Result<(), StateViolation> {
        let layout = self.layout;
        first_violation(state, layout.ncomp(), |arr, z, zone| {
            let rho = arr.at_zone(z, LmLayout::RHO);
            if rho <= 0.0 {
                return Err(StateViolation::NegativeDensity { rho, zone });
            }
            let t = arr.at_zone(z, LmLayout::TEMP);
            if t <= 0.0 {
                return Err(StateViolation::NegativeTemperature { t, zone });
            }
            let mut sum = 0.0;
            for s in 0..layout.nspec {
                sum += arr.at_zone(z, layout.spec(s));
            }
            let drift = (sum - 1.0).abs();
            if drift > species_tol {
                return Err(StateViolation::SpeciesDrift { drift, zone });
            }
            Ok(())
        })
    }

    /// One full low-Mach step with Strang-split reactions.
    ///
    /// On `Err` the state is **tainted** — partially advanced — and must be
    /// restored from a pre-step snapshot; [`Maestro::advance_safe`] wraps
    /// this call in exactly that snapshot/restore transaction.
    pub fn advance(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<LmStepStats, StepError> {
        let _prof = Telemetry::region("maestro_advance");
        let mut stats = LmStepStats::default();
        let bc = self.bc();
        if self.do_burn {
            let _r = Telemetry::region("react");
            stats.add_burn(&self.react(state, 0.5 * dt).map_err(StepError::Burn)?);
        }
        {
            let _r = Telemetry::region("enforce_density");
            self.enforce_density(state, geom);
        }
        {
            let _r = Telemetry::region("advect");
            // One halo loop over a pre-step snapshot (see the module docs).
            // `update` copies every ghost of the snapshot back into the
            // state, so the footprint is the whole grown box.
            let halo = HaloLoop::plan(state, geom, IntVect::splat(state.ngrow()));
            let mut old = state.clone();
            let vbs = state.valid_boxes();
            let svs = state.fab_views_mut();
            let trace = halo.run(
                &mut old,
                &bc,
                "lowmach.advect",
                |f, ov| self.advect_region(&svs[f], ov, vbs[f].grow(-1), geom, dt),
                |f, ov| {
                    for shell in vbs[f].difference(&vbs[f].grow(-1)) {
                        self.advect_region(&svs[f], ov, shell, geom, dt);
                    }
                },
                |f, ov| {
                    let sv = &svs[f];
                    for ghosts in ov.index_box().difference(&vbs[f]) {
                        for_each_row(ghosts, |start, len| {
                            let zs = sv.zone(start.x(), start.y(), start.z());
                            let zo = ov.zone(start.x(), start.y(), start.z());
                            for c in 0..ov.ncomp() {
                                for x in 0..len {
                                    sv.set_zone(zs + x, c, ov.at_zone(zo + x, c));
                                }
                            }
                        });
                    }
                },
            );
            drop(svs);
            stats.comm.merge(&trace);
            self.buoyancy(state, dt);
        }
        let (proj, proj_comm) = {
            let _r = Telemetry::region("project");
            self.project(state, geom, dt)
        };
        stats.comm.merge(&proj_comm);
        stats.projection = Some(proj);
        if self.do_burn {
            let _r = Telemetry::region("react");
            stats.add_burn(&self.react(state, 0.5 * dt).map_err(StepError::Burn)?);
        }
        {
            let _r = Telemetry::region("enforce_density");
            self.enforce_density(state, geom);
        }
        {
            let _r = Telemetry::region("validate");
            self.validate_state(state, self.recovery.species_tol)
                .map_err(StepError::Invalid)?;
        }
        stats.max_temp = state.max(LmLayout::TEMP);
        stats.max_w = state
            .max(LmLayout::W)
            .abs()
            .max(state.min(LmLayout::W).abs());
        Ok(stats)
    }

    /// Advance one step **transactionally** through [`transact`]: on any
    /// [`StepError`] the state is restored and the step retried with `dt`
    /// cut by [`RecoveryOptions::dt_cut`], up to
    /// [`RecoveryOptions::max_rejections`] attempts. Returns the stats and
    /// the `dt` actually taken.
    ///
    /// If every attempt fails the state is left **restored to its pre-step
    /// contents**, an emergency checkpoint — carrying the base state in its
    /// auxiliary arrays, so the run resumes bit-exact — is written when
    /// [`RecoveryOptions::emergency_dir`] is set, and a structured
    /// [`DriverError`] is returned — never a panic.
    pub fn advance_safe(
        &self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<(LmStepStats, Real), Box<DriverError>> {
        transact(
            &self.recovery,
            &self.telemetry,
            state,
            dt,
            |s, dt| self.advance(s, geom, dt),
            // The low-Mach driver owns no arena, so arena occupancy reads zero.
            |stats| StepMetrics {
                driver: "maestro".to_string(),
                newton_iters: stats.burn_newton_iters,
                bdf_steps: stats.burn_steps,
                burn_retries: stats.burn_retries,
                recovered_relaxed: stats.burn_recovered_relaxed,
                recovered_subcycle: stats.burn_recovered_subcycle,
                recovered_offload: stats.burn_offloaded,
                ..Default::default()
            },
            |s, clock| crate::restart::snapshot_run(geom, s, &self.base, clock, &self.layout),
        )
    }
}

impl Stepper for Maestro<'_> {
    fn estimate_dt(&self, state: &MultiFab, geom: &Geometry) -> Real {
        Maestro::estimate_dt(self, state, geom)
    }

    fn step(
        &mut self,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> Result<StepOutcome, Box<DriverError>> {
        let (stats, dt_taken) = self.advance_safe(state, geom, dt)?;
        Ok(StepOutcome {
            dt_taken,
            comm: stats.comm,
        })
    }

    fn take_recorder(&mut self) -> exastro_telemetry::StepRecorder {
        std::mem::take(&mut self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bubble::*;
    use exastro_amr::{BoxArray, DistStrategy, DistributionMapping, IndexBox};
    use exastro_microphysics::StellarEos;

    fn bubble_setup(n: i32) -> (Geometry, MultiFab, Maestro<'static>, LmLayout) {
        // Statics so the Maestro driver can borrow for 'static in tests.
        use std::sync::OnceLock;
        static EOS: StellarEos = StellarEos;
        static NET: OnceLock<Network> = OnceLock::new();
        let net = NET.get_or_init(Network::cburn2);
        let geom = Geometry::new(
            IndexBox::cube(n),
            [0.0; 3],
            [3.6e7; 3],
            [true, true, false],
            exastro_amr::CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(geom.domain(), (n / 2).max(8), 4);
        let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
        let layout = LmLayout::new(2);
        let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
        let base = init_bubble(
            &mut state,
            &geom,
            &layout,
            &EOS,
            net,
            &BubbleParams::default(),
        );
        let maestro = bubble_maestro(&EOS, net, base);
        (geom, state, maestro, layout)
    }

    /// The step with no graph and no interior/band split: one-shot ghost
    /// fill, then `advect_region` over each whole valid box.
    fn whole_box_advance(
        m: &Maestro<'_>,
        state: &mut MultiFab,
        geom: &Geometry,
        dt: Real,
    ) -> CommTrace {
        m.react(state, 0.5 * dt).unwrap();
        m.enforce_density(state, geom);
        let mut trace = state.fill_boundary(geom);
        state.fill_physical_bc(geom, &m.bc());
        let mut old = state.clone();
        let vbs = state.valid_boxes();
        for (f, (sv, ov)) in state
            .fab_views_mut()
            .iter()
            .zip(old.fab_views_mut())
            .enumerate()
        {
            m.advect_region(sv, &ov, vbs[f], geom, dt);
        }
        m.buoyancy(state, dt);
        trace.merge(&m.project(state, geom, dt).1);
        m.react(state, 0.5 * dt).unwrap();
        m.enforce_density(state, geom);
        trace
    }

    #[test]
    fn advance_matches_whole_box_reference_bitwise() {
        // The halo loop is pure scheduling: every bit of the state (valid
        // AND ghost zones -- the projection reads ghosts) and the comm
        // trace must match the whole-box reference after several steps.
        let (geom, mut state, maestro, _l) = bubble_setup(16);
        let mut reference = state.clone();
        for _ in 0..3 {
            let comm = maestro.advance(&mut state, &geom, 2e-4).unwrap().comm;
            assert!(comm.network_bytes() > 0, "fixture must exchange off-rank");
            assert_eq!(
                comm,
                whole_box_advance(&maestro, &mut reference, &geom, 2e-4)
            );
        }
        for i in 0..state.nfabs() {
            let (a, b) = (state.fab(i).data(), reference.fab(i).data());
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "fab {i} differs on its grown box"
            );
        }
    }

    #[test]
    fn projection_kills_divergence() {
        let (geom, mut state, maestro, _l) = bubble_setup(16);
        // Seed a strongly divergent velocity field.
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                state
                    .fab_mut(i)
                    .set(iv, LmLayout::U, (x[0] / 3.6e7).sin() * 1e5);
                state
                    .fab_mut(i)
                    .set(iv, LmLayout::V, (x[1] / 1.2e7).cos() * 1e5);
                state.fab_mut(i).set(iv, LmLayout::W, 0.0);
            }
        }
        let div_before = divergence_norm(&state, &geom);
        let (stats, comm) = maestro.project(&mut state, &geom, 1.0);
        assert!(
            comm.network_bytes() > 0,
            "SFC layout must exchange off-rank"
        );
        let div_after = divergence_norm(&state, &geom);
        assert!(stats.converged, "projection multigrid must converge");
        // This is an *approximate* (cell-centred) projection, as in
        // MAESTROeX: the central-difference divergence is not the exact
        // adjoint of the 5-point Laplacian, so one application damps
        // rather than annihilates the divergence.
        assert!(
            div_after < 0.45 * div_before,
            "divergence {div_before} -> {div_after}"
        );
    }

    fn divergence_norm(state: &MultiFab, geom: &Geometry) -> Real {
        let mut vel = MultiFab::new(state.box_array().clone(), state.dist_map().clone(), 3, 1);
        for i in 0..state.nfabs() {
            let gb = state.grown_box(i);
            for iv in gb.iter() {
                for d in 0..3 {
                    vel.fab_mut(i)
                        .set(iv, d, state.fab(i).get(iv, LmLayout::U + d));
                }
            }
        }
        let _ = vel.fill_boundary(geom);
        let dx = geom.dx();
        let mut norm = 0.0;
        for i in 0..vel.nfabs() {
            let vb = vel.valid_box(i);
            for iv in vb.iter() {
                // Skip wall-adjacent zones (one-sided stencils there).
                if iv.z() == 0 || iv.z() == geom.domain().hi().z() {
                    continue;
                }
                let mut div = 0.0;
                for d in 0..3 {
                    let e = IntVect::dim_vec(d);
                    div += (vel.fab(i).get(iv + e, d) - vel.fab(i).get(iv - e, d)) / (2.0 * dx[d]);
                }
                norm += div * div;
            }
        }
        norm.sqrt()
    }

    #[test]
    fn timestep_is_advective_not_acoustic() {
        let (geom, mut state, maestro, _l) = bubble_setup(16);
        // Velocities ~ 1e5 cm/s; sound speed in WD material ~ 1e8-9 cm/s.
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                state.fab_mut(i).set(iv, LmLayout::U, 1e5);
            }
        }
        let dt = maestro.estimate_dt(&state, &geom);
        let dx = geom.min_dx();
        let dt_acoustic = dx / 5e8;
        assert!(
            dt > 100.0 * dt_acoustic,
            "low-Mach dt {dt} should dwarf acoustic dt {dt_acoustic}"
        );
    }

    #[test]
    fn bubble_heats_burns_and_rises() {
        let (geom, mut state, maestro, layout) = bubble_setup(16);
        let d0 = bubble_diagnostics(&state, &geom, &layout, 6e8);
        assert!(d0.max_temp > 8.9e8, "initial bubble present");
        assert_eq!(d0.max_ash, 0.0);
        let mut height_trace = vec![d0.bubble_height];
        for _ in 0..6 {
            let dt = maestro.estimate_dt(&state, &geom).min(5e-3);
            let stats = maestro.advance(&mut state, &geom, dt).unwrap();
            assert!(stats.projection.as_ref().unwrap().cycles > 0);
            // Two reaction half-steps, every valid zone burned or skipped.
            assert!(stats.burn_zones > 0, "a reacting bubble burns zones");
            assert_eq!(stats.burn_zones + stats.burn_skipped, 2 * 16 * 16 * 16);
            height_trace.push(bubble_diagnostics(&state, &geom, &layout, 6e8).bubble_height);
        }
        let d1 = bubble_diagnostics(&state, &geom, &layout, 6e8);
        // Carbon has started to burn into ash and the bubble temperature
        // has increased.
        assert!(d1.max_ash > 1e-10, "ash {}", d1.max_ash);
        // First-order upwind advection diffuses the peak; burning offsets
        // it only partially at these conditions.
        assert!(d1.max_temp >= d0.max_temp * 0.9);
        // Upward motion developed.
        assert!(d1.max_w > 0.0, "bubble must develop upward velocity");
        assert!(
            height_trace.last().unwrap() >= &height_trace[0],
            "bubble should not sink: {height_trace:?}"
        );
    }

    #[test]
    fn injected_burn_faults_recover_through_the_ladder() {
        use exastro_microphysics::{BdfErrorKind, BurnFaultConfig};
        let (geom, mut state, mut maestro, layout) = bubble_setup(16);
        maestro.burn_faults = Some(BurnFaultConfig {
            seed: 7,
            rate: 1.0,
            rungs_to_fail: 1,
            error: BdfErrorKind::MaxSteps,
        });
        let dt = maestro.estimate_dt(&state, &geom).min(5e-3);
        let stats = maestro.advance(&mut state, &geom, dt).unwrap();
        // Every burning zone failed once and recovered on the first retry.
        assert!(stats.burn_recovered > 0, "no zones recovered");
        assert_eq!(stats.burn_retries, stats.burn_recovered);
        // Recovered state stays physical.
        maestro
            .validate_state(&state, maestro.recovery.species_tol)
            .unwrap();
        let _ = layout;
    }

    #[test]
    fn unrecoverable_faults_restore_state_and_checkpoint() {
        use exastro_microphysics::{BdfErrorKind, BurnFaultConfig};
        let (geom, mut state, mut maestro, _layout) = bubble_setup(16);
        maestro.burn_faults = Some(BurnFaultConfig {
            seed: 11,
            rate: 1.0,
            rungs_to_fail: 99, // beyond the ladder: never recovers
            error: BdfErrorKind::SingularMatrix,
        });
        let dir = std::env::temp_dir().join(format!("exastro-lm-emrg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        maestro.recovery = RecoveryOptions {
            max_rejections: 2,
            emergency_dir: Some(dir.clone()),
            ..RecoveryOptions::default()
        };
        let before = state.clone();
        let err = maestro.advance_safe(&mut state, &geom, 1e-3).unwrap_err();
        assert!(matches!(err.error, StepError::Burn(ref f) if !f.is_empty()));
        assert_eq!(err.rejections, 2);
        assert!(err.dt_floor < 1e-3);
        // The state was restored to its pre-step contents...
        for (i, vb) in state.iter_boxes() {
            for iv in vb.iter() {
                for c in 0..maestro.layout.ncomp() {
                    assert_eq!(
                        state.fab(i).get(iv, c).to_bits(),
                        before.fab(i).get(iv, c).to_bits()
                    );
                }
            }
        }
        // ...and an emergency checkpoint with the base state landed on disk.
        let path = err.emergency_checkpoint.expect("emergency checkpoint");
        assert!(path.is_dir());
        let snap = exastro_resilience::CheckpointManager::new(&dir)
            .unwrap()
            .resume()
            .unwrap();
        let base = crate::restart::restore_base_state(&snap).expect("base state in aux arrays");
        assert_eq!(base.rho0, maestro.base.rho0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quiescent_atmosphere_stays_quiescent() {
        // No bubble: a hydrostatic atmosphere under buoyancy + projection
        // should develop only tiny velocities.
        use std::sync::OnceLock;
        static EOS: StellarEos = StellarEos;
        static NET: OnceLock<Network> = OnceLock::new();
        let net = NET.get_or_init(Network::cburn2);
        let geom = Geometry::new(
            IndexBox::cube(16),
            [0.0; 3],
            [3.6e7; 3],
            [true, true, false],
            exastro_amr::CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let layout = LmLayout::new(2);
        let mut state = MultiFab::new(
            ba,
            DistributionMapping::all_local(&BoxArray::decompose(geom.domain(), 8, 4)),
            layout.ncomp(),
            1,
        );
        let params = BubbleParams {
            t_bubble: 6e8, // no perturbation
            ..Default::default()
        };
        let base = init_bubble(&mut state, &geom, &layout, &EOS, net, &params);
        let maestro = bubble_maestro(&EOS, net, base);
        for _ in 0..3 {
            maestro.advance(&mut state, &geom, 1e-3).unwrap();
        }
        // Buoyancy residual from the discrete hydrostatic base is small:
        // velocities stay far below the convective scale (~1e6 cm/s).
        let wmax = state
            .max(LmLayout::W)
            .abs()
            .max(state.min(LmLayout::W).abs());
        assert!(wmax < 1e4, "spurious velocity {wmax}");
    }
}
