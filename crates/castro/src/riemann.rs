//! The HLLC approximate Riemann solver.
//!
//! Castro's hydrodynamics computes a Godunov flux at every zone face from
//! left/right reconstructed states. HLLC (Harten–Lax–van Leer–Contact)
//! restores the contact wave that plain HLL smears, which matters for the
//! species and temperature fields the burning depends on. Only the sound
//! speeds enter from the EOS, so the solver works for the stellar EOS as
//! well as the gamma law.

use crate::state::{each, pick, PrimLanes, Primitive};
use exastro_parallel::Real;

/// Godunov flux of the conserved variables through one face, plus the
/// upwind data needed to advect species.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaceFlux {
    /// Mass flux ρu_n.
    pub mass: Real,
    /// Momentum flux in the face-normal and two transverse directions
    /// (normal first; caller rotates back).
    pub mom: [Real; 3],
    /// Total-energy flux.
    pub energy: Real,
    /// Internal-energy advective flux (for the auxiliary ρe equation).
    pub eint: Real,
    /// True if the upwind side for passively advected scalars is the left.
    pub upwind_left: bool,
}

/// [`FaceFlux`]es of `W` faces, field by field: lane `l` is face `l`'s.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FluxLanes<const W: usize> {
    pub mass: [Real; W],
    pub mom: [[Real; W]; 3],
    pub energy: [Real; W],
    pub eint: [Real; W],
    pub upwind_left: [bool; W],
}

impl<const W: usize> FluxLanes<W> {
    /// Lane by lane, `a`'s flux where `m` holds and `b`'s elsewhere.
    #[inline(always)]
    fn select(m: [bool; W], a: &Self, b: &Self) -> Self {
        FluxLanes {
            mass: pick(&m, &a.mass, &b.mass),
            mom: [0, 1, 2].map(|d| pick(&m, &a.mom[d], &b.mom[d])),
            energy: pick(&m, &a.energy, &b.energy),
            eint: pick(&m, &a.eint, &b.eint),
            upwind_left: pick(&m, &a.upwind_left, &b.upwind_left),
        }
    }
}

/// Conserved state in face-normal coordinates, one zone a lane.
#[derive(Clone, Copy)]
struct UCons<const W: usize> {
    rho: [Real; W],
    mu: [Real; W],
    mv: [Real; W],
    mw: [Real; W],
    e: [Real; W],  // ρE
    ei: [Real; W], // ρe (advected)
}

fn to_cons<const W: usize>(q: &PrimLanes<W>) -> UCons<W> {
    UCons {
        rho: q.rho,
        mu: each(|l| q.rho[l] * q.vel[0][l]),
        mv: each(|l| q.rho[l] * q.vel[1][l]),
        mw: each(|l| q.rho[l] * q.vel[2][l]),
        e: each(|l| q.rho[l] * q.lane(l).etot()),
        ei: each(|l| q.rho[l] * q.e[l]),
    }
}

fn phys_flux<const W: usize>(q: &PrimLanes<W>, u: &UCons<W>) -> FluxLanes<W> {
    let un = &q.vel[0];
    FluxLanes {
        mass: u.mu,
        mom: [
            each(|l| u.mu[l] * un[l] + q.p[l]),
            each(|l| u.mv[l] * un[l]),
            each(|l| u.mw[l] * un[l]),
        ],
        energy: each(|l| (u.e[l] + q.p[l]) * un[l]),
        eint: each(|l| u.ei[l] * un[l]),
        upwind_left: each(|l| un[l] >= 0.0),
    }
}

/// HLLC flux for left/right primitive states given in *face-normal*
/// coordinates (`vel[0]` is the normal velocity): the crate's lane solver,
/// `hllc_lanes`, on one face.
pub fn hllc(ql: &Primitive, qr: &Primitive) -> FaceFlux {
    let f = hllc_lanes(&PrimLanes::from([*ql]), &PrimLanes::from([*qr]));
    FaceFlux {
        mass: f.mass[0],
        mom: f.mom.map(|m| m[0]),
        energy: f.energy[0],
        eint: f.eint[0],
        upwind_left: f.upwind_left[0],
    }
}

/// HLLC fluxes through `W` faces at once, lane `l` of `ql`/`qr` being face
/// `l`'s left/right state. Each of the solver's branches (supersonic left,
/// supersonic right, star state left or right of the contact) is a per-lane
/// select of what that branch computes, with the same operations in the
/// same order, so every lane has the bits of a face solved alone. A branch
/// no lane takes is not computed.
pub(crate) fn hllc_lanes<const W: usize>(ql: &PrimLanes<W>, qr: &PrimLanes<W>) -> FluxLanes<W> {
    let ul = to_cons(ql);
    let ur = to_cons(qr);
    let (unl, unr) = (&ql.vel[0], &qr.vel[0]);
    // Einfeldt-style wave speed estimates.
    let sl: [Real; W] = each(|l| (unl[l] - ql.cs[l]).min(unr[l] - qr.cs[l]));
    let sr: [Real; W] = each(|l| (unl[l] + ql.cs[l]).max(unr[l] + qr.cs[l]));
    // Contact speed.
    let num: [Real; W] =
        each(|l| qr.p[l] - ql.p[l] + ul.mu[l] * (sl[l] - unl[l]) - ur.mu[l] * (sr[l] - unr[l]));
    let den: [Real; W] = each(|l| ql.rho[l] * (sl[l] - unl[l]) - qr.rho[l] * (sr[l] - unr[l]));
    let degenerate = each(|l| den[l].abs() < 1e-300);
    let sstar = pick(&degenerate, &[0.0; W], &each(|l| num[l] / den[l]));
    // Star-region state on the contact's upwind side (Toro's formulas).
    let left = each(|l| sstar[l] >= 0.0);
    let star = if left == [true; W] {
        star_flux(ql, &ul, &sl, &sstar, true)
    } else if left == [false; W] {
        star_flux(qr, &ur, &sr, &sstar, false)
    } else {
        let on_left = star_flux(ql, &ul, &sl, &sstar, true);
        FluxLanes::select(left, &on_left, &star_flux(qr, &ur, &sr, &sstar, false))
    };
    let (sonic_l, sonic_r) = (each(|l| sl[l] >= 0.0), each(|l| sr[l] <= 0.0));
    if sonic_l == [false; W] && sonic_r == [false; W] {
        return star;
    }
    // Supersonic: the upwind side's physical flux.
    let (fl, fr) = (phys_flux(ql, &ul), phys_flux(qr, &ur));
    FluxLanes::select(sonic_l, &fl, &FluxLanes::select(sonic_r, &fr, &star))
}

/// Toro's star-region flux `F(q) + s (U* − U)` on the side of a contact
/// moving at `sstar` whose state is `q` (conserved `u`) and wave speed `s`.
#[inline(always)]
fn star_flux<const W: usize>(
    q: &PrimLanes<W>,
    u: &UCons<W>,
    s: &[Real; W],
    sstar: &[Real; W],
    upwind_left: bool,
) -> FluxLanes<W> {
    let f = phys_flux(q, u);
    let un = &q.vel[0];
    let coef: [Real; W] = each(|l| q.rho[l] * (s[l] - un[l]) / (s[l] - sstar[l]));
    let e_star: [Real; W] = each(|l| {
        let c = sstar[l] + q.p[l] / (q.rho[l] * (s[l] - un[l]));
        coef[l] * (u.e[l] / q.rho[l] + (sstar[l] - un[l]) * c)
    });
    let ustar = |v: &[Real; W]| each(|l| coef[l] * v[l]);
    let jump =
        |f: &[Real; W], ustar: [Real; W], u: &[Real; W]| each(|l| f[l] + s[l] * (ustar[l] - u[l]));
    FluxLanes {
        mass: jump(&f.mass, coef, &u.rho),
        mom: [
            jump(&f.mom[0], ustar(sstar), &u.mu),
            jump(&f.mom[1], ustar(&q.vel[1]), &u.mv),
            jump(&f.mom[2], ustar(&q.vel[2]), &u.mw),
        ],
        energy: jump(&f.energy, e_star, &u.e),
        eint: jump(&f.eint, ustar(&q.e), &u.ei),
        upwind_left: [upwind_left; W],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim(rho: Real, u: Real, p: Real, gamma: Real) -> Primitive {
        Primitive {
            rho,
            vel: [u, 0.0, 0.0],
            p,
            e: p / ((gamma - 1.0) * rho),
            cs: (gamma * p / rho).sqrt(),
        }
    }

    #[test]
    fn uniform_state_gives_advective_flux() {
        let q = prim(1.0, 2.0, 1.0, 1.4);
        let f = hllc(&q, &q);
        assert!((f.mass - 2.0).abs() < 1e-12);
        assert!((f.mom[0] - (1.0 * 4.0 + 1.0)).abs() < 1e-12);
        // (ρE + p) u with ρE = ρ(e + KE) = 2.5 + 2 = 4.5, p = 1, u = 2.
        assert!((f.energy - (4.5 + 1.0) * 2.0).abs() < 1e-10);
        assert!(f.upwind_left);
    }

    #[test]
    fn static_contact_is_preserved_exactly() {
        // ρ jump, equal p and u = 0: HLLC must give zero flux (HLL would
        // diffuse it).
        let ql = prim(1.0, 0.0, 1.0, 1.4);
        let qr = prim(0.125, 0.0, 1.0, 1.4);
        let f = hllc(&ql, &qr);
        assert!(f.mass.abs() < 1e-14);
        assert!((f.mom[0] - 1.0).abs() < 1e-12, "pressure flux only");
        assert!(f.energy.abs() < 1e-12);
    }

    #[test]
    fn supersonic_flow_takes_upwind_flux() {
        let ql = prim(1.0, 10.0, 1.0, 1.4); // cs ≈ 1.18, u = 10: supersonic →
        let qr = prim(0.5, 10.0, 0.5, 1.4);
        let f = hllc(&ql, &qr);
        let fl = {
            let u = 10.0;
            u * 1.0 // ρu of left
        };
        assert!((f.mass - fl).abs() < 1e-12, "must equal left physical flux");
        // Reversed.
        let ql2 = prim(1.0, -10.0, 1.0, 1.4);
        let qr2 = prim(0.5, -10.0, 0.5, 1.4);
        let f2 = hllc(&ql2, &qr2);
        assert!((f2.mass - (-10.0 * 0.5)).abs() < 1e-12);
        assert!(!f2.upwind_left);
    }

    #[test]
    fn sod_flux_is_between_states_and_rightward() {
        // Sod shock tube initial jump: flow develops rightward.
        let ql = prim(1.0, 0.0, 1.0, 1.4);
        let qr = prim(0.125, 0.0, 0.1, 1.4);
        let f = hllc(&ql, &qr);
        assert!(f.mass > 0.0, "mass flows to the right");
        assert!(f.mom[0] > 0.0);
        assert!(f.energy > 0.0);
    }

    #[test]
    fn symmetry_of_mirrored_problem() {
        let ql = prim(1.0, 0.3, 1.0, 1.4);
        let qr = prim(0.5, -0.2, 0.4, 1.4);
        let f = hllc(&ql, &qr);
        // Mirror: swap sides and flip normal velocities.
        let mut mql = qr;
        mql.vel[0] = -mql.vel[0];
        let mut mqr = ql;
        mqr.vel[0] = -mqr.vel[0];
        let g = hllc(&mql, &mqr);
        assert!((f.mass + g.mass).abs() < 1e-12);
        assert!((f.mom[0] - g.mom[0]).abs() < 1e-12);
        assert!((f.energy + g.energy).abs() < 1e-12);
    }

    #[test]
    fn transverse_momentum_advects_with_contact() {
        // Left has transverse velocity, right does not; contact moves right
        // (S* > 0) so the face flux carries the left transverse momentum.
        let mut ql = prim(1.0, 0.5, 1.0, 1.4);
        ql.vel[1] = 3.0;
        let qr = prim(1.0, 0.5, 1.0, 1.4);
        let f = hllc(&ql, &qr);
        assert!((f.mom[1] - 0.5 * 3.0).abs() < 1e-10);
        assert!((f.mom[2]).abs() < 1e-14);
    }
}
