//! Detonation-stability diagnostics (§V, paper refs 32 and 33).
//!
//! A zone can act as its own "cauldron" for the thermonuclear feedback
//! loop: if the time for heat to leave the zone is much longer than the
//! time for burning to generate it, the zone ignites *numerically*, and a
//! simulated detonation cannot be distinguished from a spurious one. The
//! paper inspects the ratio of these timescales and finds the burning
//! timescale "an order of magnitude smaller than the heat transfer
//! timescale" at 50 km resolution — i.e. unresolved.
//!
//! Without thermal diffusion in the simulation, the fastest numerical heat
//! transport out of a zone is advective/acoustic: `τ_transfer ≈ Δx / c_s`.
//! The burning timescale is `τ_burn = c_v T / ε̇`.

use crate::state::{cons_to_prim, Floors, StateLayout};
use exastro_amr::{Geometry, MultiFab, Real};
use exastro_microphysics::{mass_to_molar, Composition, Eos, Network};

/// Zonal stability summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct StabilityReport {
    /// Minimum `τ_burn / τ_transfer` over burning zones. Values below 1
    /// indicate zones that heat faster than they can shed heat: a
    /// numerically unstable (unresolved) detonation.
    pub min_ratio: Real,
    /// Number of zones with ratio < 1.
    pub unstable_zones: u64,
    /// Number of zones examined (with significant burning).
    pub burning_zones: u64,
}

/// Evaluate the detonation stability criterion over the state.
///
/// Only zones whose specific energy generation exceeds `eps_floor`
/// (erg/g/s) are counted as "burning".
pub fn detonation_stability(
    state: &MultiFab,
    geom: &Geometry,
    layout: &StateLayout,
    eos: &dyn Eos,
    net: &Network,
    eps_floor: Real,
) -> StabilityReport {
    let dx = geom.min_dx();
    let floors = Floors::default();
    let mut report = StabilityReport {
        min_ratio: Real::INFINITY,
        ..Default::default()
    };
    let nspec = layout.nspec;
    let mut y = vec![0.0; nspec];
    let mut x = vec![0.0; nspec];
    for (i, vb) in state.iter_boxes() {
        for iv in vb.iter() {
            let fab = state.fab(i);
            let rho = fab.get(iv, StateLayout::RHO);
            let t = fab.get(iv, StateLayout::TEMP);
            for s in 0..nspec {
                x[s] = (fab.get(iv, layout.spec(s)) / rho).clamp(0.0, 1.0);
            }
            mass_to_molar(net.species(), &x, &mut y);
            let eps = net.eps(rho, t, &y);
            if eps < eps_floor {
                continue;
            }
            report.burning_zones += 1;
            let comp = Composition::from_mass_fractions(net.species(), &x);
            let r = eos.eval_rt(rho, t, &comp);
            let tau_burn = r.cv * t / eps;
            // Heat transfer: sound crossing of the zone.
            let mut u = vec![0.0; layout.ncomp()];
            for c in 0..layout.ncomp() {
                u[c] = fab.get(iv, c);
            }
            let q = cons_to_prim(&u, layout, eos, net.species(), &floors);
            let tau_transfer = dx / q.cs.max(1e-30);
            let ratio = tau_burn / tau_transfer;
            if ratio < 1.0 {
                report.unstable_zones += 1;
            }
            report.min_ratio = report.min_ratio.min(ratio);
        }
    }
    if report.burning_zones == 0 {
        report.min_ratio = Real::INFINITY;
    }
    report
}

/// The resolution at which a burning zone becomes marginally stable:
/// `Δx_crit = c_s τ_burn`. Zones narrower than this resolve the runaway.
pub fn critical_zone_width(rho: Real, t: Real, x: &[Real], eos: &dyn Eos, net: &Network) -> Real {
    let mut y = vec![0.0; net.nspec()];
    mass_to_molar(net.species(), x, &mut y);
    let eps = net.eps(rho, t, &y).max(1e-300);
    let comp = Composition::from_mass_fractions(net.species(), x);
    let r = eos.eval_rt(rho, t, &comp);
    r.cs * r.cv * t / eps
}
