//! The right-hand side and Jacobian bodies as they were before a network
//! evaluation split into a rate stage and an abundance stage, kept as the
//! oracle that [`Network::ydot`], [`Network::jac`] and the two stages at
//! [`LANES`](exastro_parallel::LANES) are held to bit for bit (see
//! `tests::the_two_stages_are_the_one_pass_bodies_bit_for_bit`). The bodies
//! are the old ones, verbatim but for their visibility; they call the
//! per-reaction helpers the stages still share.

use super::{accumulate, ipow, reactant_product, screened_rate, shared_factors, Network};
use std::array::from_fn;

/// The one right-hand side body: [`Network::ydot`] at `W` = 1 and its
/// stages at `LANES`.
#[inline(always)]
pub(super) fn ydot_body<const W: usize>(
    net: &Network,
    rho: [f64; W],
    t: [f64; W],
    y: &[[f64; W]],
    ydot: &mut [[f64; W]],
) {
    ydot.iter_mut().for_each(|v| *v = [0.0; W]);
    let tf = shared_factors(net, rho, t, false);
    for rx in net.reactions() {
        let (lam, _) = screened_rate(net, rx, &tf, false);
        let yprod = reactant_product(rx, y, None, [1.0; W]);
        let rho_pow = ipow(rho, rx.order() as i32 - 1);
        let r = from_fn(|l| rho_pow[l] * lam[l] * yprod[l] / rx.symmetry);
        accumulate(rx, r, ydot, 1, 0);
    }
}

/// The one Jacobian body: [`Network::jac`] at `W` = 1 and its stages at
/// `LANES`.
#[inline(always)]
pub(super) fn jac_body<const W: usize>(
    net: &Network,
    rho: [f64; W],
    t: [f64; W],
    y: &[[f64; W]],
    jac: &mut [[f64; W]],
) {
    let n = net.nspec();
    let m = n + 1;
    assert_eq!(jac.len(), m * m);
    jac.iter_mut().for_each(|v| *v = [0.0; W]);
    let tf = shared_factors(net, rho, t, true);
    for rx in net.reactions() {
        let (lam, dlam_dt9) = screened_rate(net, rx, &tf, true);
        let yprod = reactant_product(rx, y, None, [1.0; W]);
        let rho_pow = ipow(rho, rx.order() as i32 - 1);
        // dr/dY_j for each distinct reactant j: r * c_j / Y_j computed
        // robustly (avoid dividing by tiny Y by re-deriving the product):
        // d(Π Y_i^{c_i})/dY_j = c_j Y_j^{c_j-1} Π_{i≠j} Y_i^{c_i}.
        for (rj, &(j, cj)) in rx.reactants.iter().enumerate() {
            let own = ipow(y[j].map(|v| v.max(0.0)), cj as i32 - 1);
            let dyprod = reactant_product(rx, y, Some(rj), own.map(|p| cj as f64 * p));
            let drdy = from_fn(|l| rho_pow[l] * lam[l] * dyprod[l] / rx.symmetry);
            accumulate(rx, drdy, jac, m, j);
        }
        // Temperature column.
        let drdt = from_fn(|l| rho_pow[l] * dlam_dt9[l] * yprod[l] / rx.symmetry / 1e9);
        accumulate(rx, drdt, jac, m, n);
    }
}
