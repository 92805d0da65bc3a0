//! The head-on white-dwarf collision problem (§V).
//!
//! Two equal carbon/oxygen white dwarfs start two diameters apart moving
//! toward each other; the collision converts kinetic energy to heat at the
//! contact interface, triggering runaway carbon fusion. The science
//! question is *when* ignition (T ≥ 4×10⁹ K) occurs — later ignition means
//! more material fuses to iron-group elements and a plausible Type Ia
//! supernova, prompt ignition means it cannot explain the observed events.
//!
//! The paper's stars are realistic degenerate models on 512³+ grids; here
//! the stars use a parabolic density profile (a smooth, finite-mass stand-in
//! documented in DESIGN.md) and laptop-scale grids, preserving the
//! qualitative behaviour: contact heating, density pile-up, earlier
//! ignition with finer resolution of the contact point.

use crate::state::StateLayout;
use exastro_amr::{Geometry, IntVect, MultiFab, Real};
use exastro_microphysics::{Composition, Eos, Network};

/// Collision setup parameters.
#[derive(Clone, Debug)]
pub struct CollisionParams {
    /// Stellar radius, cm (the paper's WDs are ~10⁹ cm ≈ Earth-sized).
    pub radius: Real,
    /// Central density, g/cc.
    pub rho_c: Real,
    /// Initial stellar temperature, K.
    pub t_wd: Real,
    /// Approach speed of each star, cm/s.
    pub v_approach: Real,
    /// Ambient (vacuum) density.
    pub rho_ambient: Real,
    /// Initial separation of centres in units of the radius (paper: two
    /// diameters = 4 radii).
    pub separation: Real,
    /// Carbon mass fraction (the rest is oxygen for a 2-species network, or
    /// split C/O for aprox13).
    pub x_c12: Real,
}

impl Default for CollisionParams {
    fn default() -> Self {
        CollisionParams {
            radius: 1e9,
            rho_c: 2e7,
            t_wd: 1e7,
            v_approach: 2e8,
            rho_ambient: 1e-3,
            separation: 4.0,
            x_c12: 0.5,
        }
    }
}

/// Initialize the two-star collision state. The stars sit on the x axis,
/// symmetric about the domain centre. Species index conventions: the
/// network's `c12` gets `x_c12`, its `o16` (if present) the remainder,
/// otherwise the second species gets it.
pub fn init_collision(
    state: &mut MultiFab,
    geom: &Geometry,
    layout: &StateLayout,
    eos: &dyn Eos,
    net: &Network,
    params: &CollisionParams,
) {
    let c = [
        0.5 * (geom.prob_lo()[0] + geom.prob_hi()[0]),
        0.5 * (geom.prob_lo()[1] + geom.prob_hi()[1]),
        0.5 * (geom.prob_lo()[2] + geom.prob_hi()[2]),
    ];
    let half_sep = 0.5 * params.separation * params.radius;
    let centers = [[c[0] - half_sep, c[1], c[2]], [c[0] + half_sep, c[1], c[2]]];
    let vels = [params.v_approach, -params.v_approach];

    // Composition slots.
    let ic12 = net
        .species()
        .iter()
        .position(|s| s.name == "c12")
        .expect("collision needs carbon in the network");
    let io16 = net.species().iter().position(|s| s.name == "o16");
    let mut x = vec![0.0; layout.nspec];
    x[ic12] = params.x_c12;
    match io16 {
        Some(o) => x[o] = 1.0 - params.x_c12,
        None => {
            // Put the remainder in the first non-carbon slot.
            let other = (0..layout.nspec).find(|&s| s != ic12).unwrap_or(ic12);
            x[other] += 1.0 - params.x_c12;
        }
    }
    let comp = Composition::from_mass_fractions(net.species(), &x);

    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let pos = geom.cell_center(iv);
            // Parabolic profile: ρ = ρ_c (1 − (r/R)²), floored to ambient.
            let mut rho = params.rho_ambient;
            let mut vx = 0.0;
            for (s, ctr) in centers.iter().enumerate() {
                let r2 = (pos[0] - ctr[0]).powi(2)
                    + (pos[1] - ctr[1]).powi(2)
                    + (pos[2] - ctr[2]).powi(2);
                let q = 1.0 - r2 / (params.radius * params.radius);
                if q > 0.0 {
                    let rs = params.rho_c * q;
                    if rs > rho {
                        rho = rs;
                        vx = vels[s];
                    }
                }
            }
            let r = eos.eval_rt(rho, params.t_wd, &comp);
            let ke = 0.5 * rho * vx * vx;
            let fab = state.fab_mut(i);
            fab.set(iv, StateLayout::RHO, rho);
            fab.set(iv, StateLayout::MX, rho * vx);
            fab.set(iv, StateLayout::MY, 0.0);
            fab.set(iv, StateLayout::MZ, 0.0);
            fab.set(iv, StateLayout::EDEN, rho * r.e + ke);
            fab.set(iv, StateLayout::EINT, rho * r.e);
            fab.set(iv, StateLayout::TEMP, params.t_wd);
            for s in 0..layout.nspec {
                fab.set(iv, layout.spec(s), rho * x[s]);
            }
        }
    }
}

/// Contact-interface diagnostics at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContactDiagnostics {
    /// Maximum temperature anywhere.
    pub max_temp: Real,
    /// Maximum density anywhere.
    pub max_dens: Real,
    /// Location of the hottest zone.
    pub hottest: [Real; 3],
    /// Has the ignition threshold been crossed?
    pub ignited: bool,
}

/// Ignition threshold used throughout the paper's §V runs.
pub const T_IGNITION: Real = 4e9;

/// Scan the state for the collision diagnostics.
pub fn contact_diagnostics(state: &MultiFab, geom: &Geometry) -> ContactDiagnostics {
    let mut d = ContactDiagnostics::default();
    let mut hottest_iv = IntVect::zero();
    for (i, vb) in state.iter_boxes() {
        for iv in vb.iter() {
            let t = state.fab(i).get(iv, StateLayout::TEMP);
            let rho = state.fab(i).get(iv, StateLayout::RHO);
            if t > d.max_temp {
                d.max_temp = t;
                hottest_iv = iv;
            }
            d.max_dens = d.max_dens.max(rho);
        }
    }
    d.hottest = geom.cell_center(hottest_iv);
    d.ignited = d.max_temp >= T_IGNITION;
    d
}

/// Free-fall/approach time estimate: with constant approach speed the
/// surfaces touch after `(separation − 2) R / (2 v)`; gravity only shortens
/// this. Used for sizing simulation horizons in tests and examples.
pub fn contact_time_estimate(params: &CollisionParams) -> Real {
    (params.separation - 2.0) * params.radius / (2.0 * params.v_approach)
}
