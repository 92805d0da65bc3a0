//! Self-gravity: monopole approximation and full Poisson multigrid.
//!
//! Castro's gravity solve is "a global linear solve similar to, though a
//! little easier than" the MAESTROeX projection (§V). Two options are
//! provided, as in Castro:
//!
//! * [`GravityMode::Monopole`] — spherically averaged ρ(r) → g(r), exact
//!   for spherical stars and cheap (no communication beyond a reduction);
//! * [`GravityMode::Poisson`] — the full solve `∇²φ = 4πGρ` with
//!   inhomogeneous Dirichlet boundary values from the monopole potential
//!   (`−GM/r`), done with the tracked multigrid so the machine model sees
//!   its communication.

use crate::state::StateLayout;
use exastro_amr::{for_each_row, CommTrace, Geometry, IntVect, MultiFab, Real};
use exastro_microphysics::constants::G_NEWTON;
use exastro_parallel::{par_each_mut, ExecSpace};
use exastro_solvers::{MgBc, MgOptions, MgStats, Multigrid};

/// Gravity treatment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GravityMode {
    /// No gravity.
    Off,
    /// Spherically averaged monopole g(r) about the domain centre.
    Monopole,
    /// Full Poisson solve with monopole boundary conditions.
    Poisson,
}

/// The gravity solver: produces the acceleration field and applies the
/// momentum/energy sources.
pub struct Gravity {
    /// Mode in use.
    pub mode: GravityMode,
    /// Radial bins for the monopole average.
    pub n_bins: usize,
}

impl Default for Gravity {
    fn default() -> Self {
        Gravity {
            mode: GravityMode::Monopole,
            n_bins: 256,
        }
    }
}

/// The result of a gravity solve: potential-gradient acceleration per zone
/// stored in a 3-component multifab, plus solver statistics.
pub struct GravityField {
    /// Acceleration (g_x, g_y, g_z) on the state's box array.
    pub accel: MultiFab,
    /// Multigrid statistics when [`GravityMode::Poisson`] ran.
    pub mg: Option<MgStats>,
    /// Ghost exchanges performed directly by the solve (the multigrid's
    /// own traffic is ledgered inside [`MgStats`]).
    pub comm: CommTrace,
}

impl Gravity {
    /// Compute the acceleration field for `state`'s density.
    pub fn solve(&self, state: &MultiFab, geom: &Geometry) -> GravityField {
        match self.mode {
            GravityMode::Off => GravityField {
                accel: MultiFab::new(state.box_array().clone(), state.dist_map().clone(), 3, 0),
                mg: None,
                comm: CommTrace::default(),
            },
            GravityMode::Monopole => self.monopole(state, geom),
            GravityMode::Poisson => self.poisson(state, geom),
        }
    }

    fn center(geom: &Geometry) -> [Real; 3] {
        let lo = geom.prob_lo();
        let hi = geom.prob_hi();
        [
            0.5 * (lo[0] + hi[0]),
            0.5 * (lo[1] + hi[1]),
            0.5 * (lo[2] + hi[2]),
        ]
    }

    /// Enclosed-mass profile about the domain centre.
    fn mass_profile(&self, state: &MultiFab, geom: &Geometry) -> (Vec<Real>, Real) {
        let c = Self::center(geom);
        let half_diag = {
            let lo = geom.prob_lo();
            let hi = geom.prob_hi();
            let mut d2 = 0.0;
            for t in 0..3 {
                d2 += (hi[t] - lo[t]) * (hi[t] - lo[t]);
            }
            0.5 * d2.sqrt()
        };
        let dr = half_diag / self.n_bins as Real;
        let vol = geom.cell_volume();
        let mut mass = vec![0.0; self.n_bins];
        // One serial fold in sweep order, not a pool kernel: zones of
        // different fabs share a bin, and the order of a bin's sum fixes its
        // bits.
        for (i, vb) in state.iter_boxes() {
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                let r =
                    ((x[0] - c[0]).powi(2) + (x[1] - c[1]).powi(2) + (x[2] - c[2]).powi(2)).sqrt();
                let bin = ((r / dr) as usize).min(self.n_bins - 1);
                mass[bin] += state.fab(i).get(iv, StateLayout::RHO) * vol;
            }
        }
        // Cumulative sum → enclosed mass at bin outer edge.
        for b in 1..self.n_bins {
            mass[b] += mass[b - 1];
        }
        (mass, dr)
    }

    fn monopole(&self, state: &MultiFab, geom: &Geometry) -> GravityField {
        let (mass, dr) = self.mass_profile(state, geom);
        let c = Self::center(geom);
        let mut accel = MultiFab::new(state.box_array().clone(), state.dist_map().clone(), 3, 0);
        let vbs = accel.valid_boxes();
        par_each_mut(&mut accel.fab_views_mut(), |f, arr| {
            for_each_row(vbs[f], |start, len| {
                let z0 = arr.zone(start.x(), start.y(), start.z());
                for i in 0..len {
                    let x = geom.cell_center(start + IntVect::new(i as i32, 0, 0));
                    let dx = [x[0] - c[0], x[1] - c[1], x[2] - c[2]];
                    let r = (dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2])
                        .sqrt()
                        .max(0.1 * dr);
                    let bin = ((r / dr) as usize).min(self.n_bins - 1);
                    let g = -G_NEWTON * mass[bin] / (r * r);
                    for d in 0..3 {
                        arr.set_zone(z0 + i, d, g * dx[d] / r);
                    }
                }
            });
        });
        GravityField {
            accel,
            mg: None,
            comm: CommTrace::default(),
        }
    }

    fn poisson(&self, state: &MultiFab, geom: &Geometry) -> GravityField {
        // rhs = 4πGρ.
        let ba = state.box_array().clone();
        let dm = state.dist_map().clone();
        let mut rhs = MultiFab::new(ba.clone(), dm.clone(), 1, 0);
        let vbs = rhs.valid_boxes();
        par_each_mut(&mut rhs.fab_views_mut(), |f, arr| {
            let sv = state.fab(f).array();
            for_each_row(vbs[f], |start, len| {
                let zs = sv.zone(start.x(), start.y(), start.z());
                let z0 = arr.zone(start.x(), start.y(), start.z());
                for i in 0..len {
                    let rho = sv.at_zone(zs + i, StateLayout::RHO);
                    arr.set_zone(z0 + i, 0, 4.0 * std::f64::consts::PI * G_NEWTON * rho);
                }
            });
        });
        // Initial guess with monopole boundary ghosts: φ = −GM/r outside.
        let (mass, dr) = self.mass_profile(state, geom);
        let total_mass = *mass.last().unwrap();
        let c = Self::center(geom);
        let mut phi = MultiFab::new(ba.clone(), dm.clone(), 1, 1);
        let domain = geom.domain();
        // φ = −GM/r in every ghost zone outside the domain.
        let monopole_ghosts = |phi: &mut MultiFab| {
            par_each_mut(&mut phi.fab_views_mut(), |_, arr| {
                for ghosts in arr.index_box().difference(&domain) {
                    for_each_row(ghosts, |start, len| {
                        let z0 = arr.zone(start.x(), start.y(), start.z());
                        for i in 0..len {
                            let x = geom.cell_center(start + IntVect::new(i as i32, 0, 0));
                            let r = ((x[0] - c[0]).powi(2)
                                + (x[1] - c[1]).powi(2)
                                + (x[2] - c[2]).powi(2))
                            .sqrt()
                            .max(dr);
                            arr.set_zone(z0 + i, 0, -G_NEWTON * total_mass / r);
                        }
                    });
                }
            });
        };
        monopole_ghosts(&mut phi);
        let mg = Multigrid::poisson(
            [MgBc::Dirichlet; 3],
            MgOptions {
                tol_rel: 1e-9,
                ..Default::default()
            },
        );
        let stats = mg.solve(&mut phi, &rhs, geom);
        // g = −∇φ by central differences (ghosts refilled with the BC data
        // by the solver's final copy… refill domain ghosts from the
        // monopole again and exchange interior ghosts).
        let comm = phi.fill_boundary(geom);
        monopole_ghosts(&mut phi);
        let mut accel = MultiFab::new(ba, dm, 3, 0);
        let dx = geom.dx();
        par_each_mut(&mut accel.fab_views_mut(), |f, arr| {
            let pv = phi.fab(f).array();
            for_each_row(vbs[f], |start, len| {
                let p0 = pv.zone(start.x(), start.y(), start.z());
                let z0 = arr.zone(start.x(), start.y(), start.z());
                for i in 0..len {
                    for d in 0..3 {
                        let (up, down) = (p0 + i + pv.stride(d), p0 + i - pv.stride(d));
                        let g = -(pv.at_zone(up, 0) - pv.at_zone(down, 0)) / (2.0 * dx[d]);
                        arr.set_zone(z0 + i, d, g);
                    }
                }
            });
        });
        GravityField {
            accel,
            mg: Some(stats),
            comm,
        }
    }

    /// Apply the gravity source to momentum and energy over `dt`:
    /// `ρu += ρ g dt`, `ρE += ρ u·g dt` (evaluated with the updated
    /// velocity midpoint for better energy behaviour).
    /// One pool task a fab.
    pub fn apply_source(state: &mut MultiFab, field: &GravityField, dt: Real, ex: &ExecSpace) {
        let vbs = state.valid_boxes();
        par_each_mut(&mut state.fab_views_mut(), |f, uarr| {
            let gacc = field.accel.fab(f).array();
            ex.par_for(vbs[f], |i, j, k| {
                let rho = uarr.at(i, j, k, StateLayout::RHO);
                let mut ke_src = 0.0;
                for d in 0..3 {
                    let g = gacc.at(i, j, k, d);
                    let m_old = uarr.at(i, j, k, StateLayout::MX + d);
                    let m_new = m_old + rho * g * dt;
                    uarr.set(i, j, k, StateLayout::MX + d, m_new);
                    // Midpoint velocity dotted with g.
                    ke_src += 0.5 * (m_old + m_new) * g * dt;
                }
                uarr.add(i, j, k, StateLayout::EDEN, ke_src);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_amr::{BoxArray, DistStrategy, DistributionMapping};

    /// Uniform sphere of density ρ₀ and radius R at the domain centre.
    fn sphere_state(n: i32, width: Real, rho0: Real, radius: Real) -> (Geometry, MultiFab) {
        let geom = Geometry::cube(n, width, false);
        let ba = BoxArray::decompose(geom.domain(), 16, 4);
        let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
        let layout = StateLayout::new(1);
        let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
        let c = width / 2.0;
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                let r = ((x[0] - c).powi(2) + (x[1] - c).powi(2) + (x[2] - c).powi(2)).sqrt();
                let rho = if r < radius { rho0 } else { 1e-8 };
                state.fab_mut(i).set(iv, StateLayout::RHO, rho);
            }
        }
        (geom, state)
    }

    #[test]
    fn monopole_matches_analytic_uniform_sphere() {
        let rho0 = 1e6;
        let radius = 2e8;
        let (geom, state) = sphere_state(32, 1e9, rho0, radius);
        let grav = Gravity {
            mode: GravityMode::Monopole,
            n_bins: 512,
        };
        let f = grav.solve(&state, &geom);
        let m_tot = 4.0 / 3.0 * std::f64::consts::PI * radius.powi(3) * rho0;
        // Probe a zone outside the sphere along x.
        let c = 5e8;
        let probe = IntVect::new(28, 16, 16);
        let x = geom.cell_center(probe);
        let r = ((x[0] - c).powi(2) + (x[1] - c).powi(2) + (x[2] - c).powi(2)).sqrt();
        assert!(r > radius);
        let g_expect = -G_NEWTON * m_tot / (r * r);
        let gx = f.accel.value_at(probe, 0);
        let g_mag = (0..3)
            .map(|d| f.accel.value_at(probe, d).powi(2))
            .sum::<Real>()
            .sqrt();
        assert!(
            (g_mag / g_expect.abs() - 1.0).abs() < 0.15,
            "g {} vs {}",
            g_mag,
            g_expect
        );
        // Pointing inward (towards centre): at x > c the x-accel is negative.
        assert!(gx < 0.0);
    }

    #[test]
    fn poisson_gravity_matches_monopole_for_sphere() {
        let (geom, state) = sphere_state(32, 1e9, 1e6, 2e8);
        let mono = Gravity {
            mode: GravityMode::Monopole,
            n_bins: 512,
        }
        .solve(&state, &geom);
        let pois = Gravity {
            mode: GravityMode::Poisson,
            n_bins: 512,
        }
        .solve(&state, &geom);
        assert!(pois.mg.as_ref().unwrap().converged);
        // Compare accelerations in a shell outside the star but away from
        // the domain boundary.
        let c = 5e8;
        let mut checked = 0;
        for iv in geom.domain().grow(-6).iter() {
            let x = geom.cell_center(iv);
            let r = ((x[0] - c).powi(2) + (x[1] - c).powi(2) + (x[2] - c).powi(2)).sqrt();
            if !(2.5e8..3.5e8).contains(&r) {
                continue;
            }
            checked += 1;
            for d in 0..3 {
                let a = mono.accel.value_at(iv, d);
                let b = pois.accel.value_at(iv, d);
                let scale = a.abs().max(b.abs()).max(1e-6);
                assert!(
                    (a - b).abs() / scale < 0.2,
                    "{iv:?} dim {d}: monopole {a} poisson {b}"
                );
            }
        }
        assert!(checked > 50, "too few probe zones: {checked}");
    }

    #[test]
    fn gravity_source_conserves_mass_and_accelerates_inward() {
        let (geom, mut state) = sphere_state(16, 1e9, 1e6, 2e8);
        let grav = Gravity::default();
        let f = grav.solve(&state, &geom);
        let mass_before = state.sum(StateLayout::RHO);
        let ex = ExecSpace::Serial;
        Gravity::apply_source(&mut state, &f, 1.0, &ex);
        assert_eq!(state.sum(StateLayout::RHO), mass_before);
        // Net momentum stays ~zero by symmetry; individual zones gained
        // inward momentum.
        let probe = IntVect::new(12, 8, 8); // +x side
        assert!(state.value_at(probe, StateLayout::MX) < 0.0);
        let probe2 = IntVect::new(3, 8, 8); // −x side
        assert!(state.value_at(probe2, StateLayout::MX) > 0.0);
    }
}
