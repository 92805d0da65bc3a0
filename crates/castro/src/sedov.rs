//! The Sedov–Taylor blast wave (§IV-A): problem setup and the analytic
//! similarity solution used for verification.

use crate::state::StateLayout;
use exastro_amr::{Geometry, MultiFab, Real};
use exastro_microphysics::{Composition, Eos, GammaLaw};

/// Sedov problem parameters.
#[derive(Clone, Debug)]
pub struct SedovParams {
    /// Ambient density.
    pub rho0: Real,
    /// Ambient pressure (small).
    pub p0: Real,
    /// Blast energy deposited at the centre.
    pub energy: Real,
    /// Radius (in zone widths) of the energy deposition region.
    pub deposit_zones: Real,
    /// Ratio of specific heats.
    pub gamma: Real,
}

impl Default for SedovParams {
    fn default() -> Self {
        SedovParams {
            rho0: 1.0,
            p0: 1e-5,
            energy: 1.0,
            deposit_zones: 2.5,
            gamma: 5.0 / 3.0,
        }
    }
}

/// Initialize `state` (layout with ≥1 species) with the Sedov setup: cold
/// uniform gas plus a central thermal energy deposit.
pub fn init_sedov(
    state: &mut MultiFab,
    geom: &Geometry,
    layout: &StateLayout,
    eos: &GammaLaw,
    params: &SedovParams,
) {
    let c = [
        0.5 * (geom.prob_lo()[0] + geom.prob_hi()[0]),
        0.5 * (geom.prob_lo()[1] + geom.prob_hi()[1]),
        0.5 * (geom.prob_lo()[2] + geom.prob_hi()[2]),
    ];
    let dx = geom.dx()[0];
    let r_dep = params.deposit_zones * dx;
    // Count deposit zones first so the energy dose is exact.
    let mut n_dep = 0usize;
    for (i, vb) in state.iter_boxes() {
        let _ = i;
        for iv in vb.iter() {
            let x = geom.cell_center(iv);
            let r2 = (x[0] - c[0]).powi(2) + (x[1] - c[1]).powi(2) + (x[2] - c[2]).powi(2);
            if r2 < r_dep * r_dep {
                n_dep += 1;
            }
        }
    }
    let vol = geom.cell_volume();
    let e_zone = params.energy / (n_dep.max(1) as Real * vol); // energy density
    let comp = Composition {
        abar: 1.0,
        zbar: 1.0,
    };
    let e0 = eos.e_from_p(params.rho0, params.p0);
    // Invert for a consistent ambient temperature: the one solve of the
    // set-up that starts cold, whatever the unit system.
    let (t_amb, _) = eos.t_from_e(params.rho0, e0, &comp, 1e3);
    // Every deposit zone holds the same (ρ, e); T ∝ e is exact for a gamma
    // law, so the ambient solution scaled by the energy ratio seeds it.
    let e_hot = e_zone / params.rho0;
    let (t_hot, _) = eos.t_from_e(params.rho0, e_hot, &comp, t_amb * (e_hot / e0));
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let x = geom.cell_center(iv);
            let r2 = (x[0] - c[0]).powi(2) + (x[1] - c[1]).powi(2) + (x[2] - c[2]).powi(2);
            let hot = r2 < r_dep * r_dep;
            let rho = params.rho0;
            let rho_e = if hot { e_zone } else { rho * e0 };
            let fab = state.fab_mut(i);
            fab.set(iv, StateLayout::RHO, rho);
            fab.set(iv, StateLayout::MX, 0.0);
            fab.set(iv, StateLayout::MY, 0.0);
            fab.set(iv, StateLayout::MZ, 0.0);
            fab.set(iv, StateLayout::EDEN, rho_e);
            fab.set(iv, StateLayout::EINT, rho_e);
            fab.set(iv, StateLayout::TEMP, if hot { t_hot } else { t_amb });
            fab.set(iv, layout.spec(0), rho);
            for s in 1..layout.nspec {
                fab.set(iv, layout.spec(s), 0.0);
            }
        }
    }
}

/// Dimensionless similarity constant ξ₀ such that the shock radius is
/// `R(t) = ξ₀ (E t² / ρ₀)^{1/5}`. Values from the standard Sedov energy
/// integrals (e.g. ξ₀ = 1.1527 for γ = 5/3, 1.033 for γ = 1.4).
pub fn sedov_xi0(gamma: Real) -> Real {
    // Table interpolation over the common range.
    let table = [(1.2, 0.984), (1.4, 1.033), (5.0 / 3.0, 1.1527), (2.0, 1.26)];
    for w in table.windows(2) {
        let (g0, x0) = w[0];
        let (g1, x1) = w[1];
        if gamma >= g0 && gamma <= g1 {
            let f = (gamma - g0) / (g1 - g0);
            return x0 + f * (x1 - x0);
        }
    }
    1.15
}

/// Analytic shock radius at time `t`.
pub fn sedov_shock_radius(params: &SedovParams, t: Real) -> Real {
    sedov_xi0(params.gamma) * (params.energy * t * t / params.rho0).powf(0.2)
}

/// Measure the blast radius from the state: the density-weighted mean
/// radius of zones within the dense shell (ρ > 1.1 ρ₀).
pub fn measure_shock_radius(state: &MultiFab, geom: &Geometry, params: &SedovParams) -> Real {
    let c = [
        0.5 * (geom.prob_lo()[0] + geom.prob_hi()[0]),
        0.5 * (geom.prob_lo()[1] + geom.prob_hi()[1]),
        0.5 * (geom.prob_lo()[2] + geom.prob_hi()[2]),
    ];
    let mut wsum = 0.0;
    let mut rsum = 0.0;
    for (i, vb) in state.iter_boxes() {
        for iv in vb.iter() {
            let rho = state.fab(i).get(iv, StateLayout::RHO);
            if rho > 1.1 * params.rho0 {
                let x = geom.cell_center(iv);
                let r =
                    ((x[0] - c[0]).powi(2) + (x[1] - c[1]).powi(2) + (x[2] - c[2]).powi(2)).sqrt();
                let w = rho - params.rho0;
                wsum += w;
                rsum += w * r;
            }
        }
    }
    if wsum > 0.0 {
        rsum / wsum
    } else {
        0.0
    }
}
