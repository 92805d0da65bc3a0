//! The reacting-bubble problem (§IV-B; Almgren et al. 2008).
//!
//! A hot bubble is seeded in a plane-parallel atmosphere with conditions
//! like a pre-supernova white-dwarf core. The temperature perturbation
//! ignites localized carbon fusion; the heated, lightened bubble rises
//! buoyantly. The N = 2 network (`CBurn2`) matches the paper's test.

use crate::base_state::BaseState;
use crate::lowmach::{LmLayout, Maestro};
use exastro_amr::{Geometry, MultiFab, Real};
use exastro_microphysics::{Composition, Eos, Network};
use exastro_resilience::recovery::RecoveryOptions;

/// Bubble setup parameters (white-dwarf-core-like defaults).
#[derive(Clone, Debug)]
pub struct BubbleParams {
    /// Base density at the bottom of the atmosphere, g/cc.
    pub rho_base: Real,
    /// Ambient temperature, K.
    pub t_ambient: Real,
    /// Bubble peak temperature, K.
    pub t_bubble: Real,
    /// Bubble radius as a fraction of the domain height.
    pub bubble_radius_frac: Real,
    /// Bubble centre height as a fraction of the domain height.
    pub bubble_height_frac: Real,
    /// Gravity, cm/s² (positive magnitude, pointing down).
    pub grav: Real,
}

impl Default for BubbleParams {
    fn default() -> Self {
        BubbleParams {
            rho_base: 2.6e6,
            t_ambient: 6e8,
            t_bubble: 9e8,
            bubble_radius_frac: 0.1,
            bubble_height_frac: 0.35,
            grav: 1e10,
        }
    }
}

/// Build the base state and initialize the bubble in `state`
/// (fuel = 100% of the network's first species, i.e. carbon for `CBurn2`).
pub fn init_bubble(
    state: &mut MultiFab,
    geom: &Geometry,
    layout: &LmLayout,
    eos: &dyn Eos,
    net: &dyn Network,
    params: &BubbleParams,
) -> BaseState {
    let nz = geom.domain().size().z() as usize;
    let dz = geom.dx()[2];
    let mut x_fuel = vec![0.0; layout.nspec];
    x_fuel[0] = 1.0;
    let comp = Composition::from_mass_fractions(net.species(), &x_fuel);
    let base = BaseState::plane_parallel(
        nz,
        dz,
        params.rho_base,
        params.t_ambient,
        params.grav,
        eos,
        &comp,
    );
    let height = geom.prob_length(2);
    let cx = 0.5 * (geom.prob_lo()[0] + geom.prob_hi()[0]);
    let cy = 0.5 * (geom.prob_lo()[1] + geom.prob_hi()[1]);
    let cz = geom.prob_lo()[2] + params.bubble_height_frac * height;
    let r_b = params.bubble_radius_frac * height;
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let pos = geom.cell_center(iv);
            let r = ((pos[0] - cx).powi(2) + (pos[1] - cy).powi(2) + (pos[2] - cz).powi(2)).sqrt();
            // Smooth (tanh-edged) temperature perturbation.
            let pert = 0.5 * (1.0 - ((r - r_b) / (0.25 * r_b)).tanh());
            let t = params.t_ambient + (params.t_bubble - params.t_ambient) * pert;
            let kz = iv.z().clamp(0, base.nz() as i32 - 1) as usize;
            let fab = state.fab_mut(i);
            fab.set(iv, LmLayout::U, 0.0);
            fab.set(iv, LmLayout::V, 0.0);
            fab.set(iv, LmLayout::W, 0.0);
            fab.set(iv, LmLayout::TEMP, t);
            fab.set(iv, LmLayout::RHO, base.rho0[kz]);
            for s in 0..layout.nspec {
                fab.set(iv, layout.spec(s), x_fuel[s]);
            }
        }
    }
    base
}

/// Bubble diagnostics: centre-of-hotness height and composition progress.
#[derive(Clone, Copy, Debug, Default)]
pub struct BubbleDiagnostics {
    /// Temperature-excess-weighted mean height of the bubble, cm.
    pub bubble_height: Real,
    /// Peak temperature.
    pub max_temp: Real,
    /// Peak ash (second species) mass fraction.
    pub max_ash: Real,
    /// Peak vertical velocity (signed).
    pub max_w: Real,
}

/// Measure the bubble.
pub fn bubble_diagnostics(
    state: &MultiFab,
    geom: &Geometry,
    layout: &LmLayout,
    t_ambient: Real,
) -> BubbleDiagnostics {
    let mut d = BubbleDiagnostics::default();
    let mut wsum = 0.0;
    let mut zsum = 0.0;
    for (i, vb) in state.iter_boxes() {
        for iv in vb.iter() {
            let t = state.fab(i).get(iv, LmLayout::TEMP);
            d.max_temp = d.max_temp.max(t);
            if layout.nspec > 1 {
                d.max_ash = d.max_ash.max(state.fab(i).get(iv, layout.spec(1)));
            }
            let w = state.fab(i).get(iv, LmLayout::W);
            if w.abs() > d.max_w.abs() {
                d.max_w = w;
            }
            let excess = t - t_ambient;
            if excess > 0.05 * t_ambient {
                let z = geom.cell_center(iv)[2];
                wsum += excess;
                zsum += excess * z;
            }
        }
    }
    if wsum > 0.0 {
        d.bubble_height = zsum / wsum;
    }
    d
}

/// The Maestro driver pre-configured for the bubble problem.
pub fn bubble_maestro<'a>(eos: &'a dyn Eos, net: &'a dyn Network, base: BaseState) -> Maestro<'a> {
    Maestro {
        layout: LmLayout::new(net.nspec()),
        eos,
        net,
        base,
        do_burn: true,
        burn_faults: None,
        recovery: RecoveryOptions::default(),
        telemetry: Default::default(),
    }
}
