//! The per-zone and per-face hydro kernels the row kernels replaced, kept as
//! the oracle the lane kernels are held to bit for bit (see
//! `hydro::tests::row_kernels_match_the_per_face_oracle_bit_for_bit`).
//!
//! Every function body is the per-zone closure of the kernel it stands for,
//! as it was, run by a plain loop over the region's zones, and calls
//! per-zone `cons_to_prim`, `trace_one`, `write_flux` and `hllc` copied
//! verbatim. The one addition is a [`hit`] at each branch the property must
//! reach, which the tests read through [`hits`].

use super::Q;
use crate::riemann::FaceFlux;
use crate::state::{rho_vel_e, Floors, Primitive, StateLayout};
use exastro_amr::{Array4Mut, IndexBox, IntVect};
use exastro_microphysics::{Composition, Eos, Species};
use exastro_parallel::Real;
use std::cell::Cell;

/// A branch of the per-face code the oracle property must take.
#[derive(Clone, Copy, Debug)]
pub(super) enum Branch {
    /// HLLC: supersonic to the right (`sl ≥ 0`).
    SlNonNegative,
    /// HLLC: supersonic to the left (`sr ≤ 0`).
    SrNonPositive,
    /// HLLC: star state left of the contact (`sstar ≥ 0`).
    SstarNonNegative,
    /// HLLC: star state right of the contact (`sstar < 0`).
    SstarNegative,
    /// HLLC: a degenerate contact denominator (`|den| < 1e-300`).
    DenTiny,
    /// Trace: first-order fallback on the density floor.
    FallbackDensity,
    /// Trace: first-order fallback on the pressure floor.
    FallbackPressure,
    /// Trace: first-order fallback on a non-positive energy.
    FallbackEnergy,
    /// `write_flux`: the face velocity clamped from below.
    UfaceLow,
    /// `write_flux`: the face velocity clamped from above.
    UfaceHigh,
    /// `cons_to_prim`: the temperature floor.
    TempFloor,
    /// Update: the density floor.
    DensityFloor,
}

/// How many [`Branch`]es there are.
pub(super) const BRANCHES: usize = 12;

thread_local! {
    static HITS: Cell<[u64; BRANCHES]> = const { Cell::new([0; BRANCHES]) };
}

fn hit(b: Branch) {
    HITS.with(|h| {
        let mut v = h.get();
        v[b as usize] += 1;
        h.set(v);
    });
}

/// How often this thread's oracle calls took each [`Branch`].
pub(super) fn hits() -> [u64; BRANCHES] {
    HITS.with(Cell::get)
}

/// The primitives kernel, zone by zone.
#[allow(clippy::too_many_arguments)]
pub(super) fn primitives(
    sarr: &Array4Mut<'_>,
    region: IndexBox,
    layout: &StateLayout,
    eos: &dyn Eos,
    species: &[Species],
    floors: &Floors,
    qarr: &Array4Mut<'_>,
) {
    let ncomp = layout.ncomp();
    let floors = *floors;
    for iv in region.iter() {
        let (i, j, k) = (iv.x(), iv.y(), iv.z());
        let zs = sarr.zone(i, j, k);
        let mut u = [0.0; super::MAX_NCOMP];
        for c in 0..ncomp {
            u[c] = sarr.at_zone(zs, c);
        }
        let q = cons_to_prim(&u[..ncomp], layout, eos, species, &floors);
        let zq = qarr.zone(i, j, k);
        qarr.set_zone(zq, Q::RHO, q.rho);
        qarr.set_zone(zq, Q::U, q.vel[0]);
        qarr.set_zone(zq, Q::U + 1, q.vel[1]);
        qarr.set_zone(zq, Q::U + 2, q.vel[2]);
        qarr.set_zone(zq, Q::P, q.p);
        qarr.set_zone(zq, Q::E, q.e);
        qarr.set_zone(zq, Q::C, q.cs);
        let inv = 1.0 / u[StateLayout::RHO].max(floors.small_dens);
        for s in 0..layout.nspec {
            qarr.set_zone(zq, Q::FS + s, (u[layout.spec(s)] * inv).clamp(0.0, 1.0));
        }
    }
}

/// The legacy structure's slope staging, zone by zone.
pub(super) fn slopes(region: IndexBox, qarr: &Array4Mut<'_>, slarr: &Array4Mut<'_>, dim: usize) {
    let qstride = qarr.stride(dim);
    for iv in region.iter() {
        let z = qarr.zone(iv.x(), iv.y(), iv.z());
        let zs = slarr.zone(iv.x(), iv.y(), iv.z());
        for c in 0..qarr.ncomp() {
            let vm = qarr.at_zone(z - qstride, c);
            let v0 = qarr.at_zone(z, c);
            let vp = qarr.at_zone(z + qstride, c);
            slarr.set_zone(zs, c, mc_slope(vm, v0, vp));
        }
    }
}

/// The flux kernel, face by face.
#[allow(clippy::too_many_arguments)]
pub(super) fn fluxes(
    faces: IndexBox,
    qarr: &Array4Mut<'_>,
    slopes: Option<&Array4Mut<'_>>,
    farr: &Array4Mut<'_>,
    dim: usize,
    dtdx: Real,
    layout: &StateLayout,
    floors: &Floors,
) {
    let e = IntVect::dim_vec(dim);
    let nspec = layout.nspec;
    let qstride = qarr.stride(dim);
    for iv in faces.iter() {
        let (i, j, k) = (iv.x(), iv.y(), iv.z());
        let (il, jl, kl) = (i - e.x(), j - e.y(), k - e.z());
        let zr = qarr.zone(i, j, k);
        let zl = zr - qstride;
        let staged = |i, j, k| slopes.map(|s| (s, s.zone(i, j, k)));
        let (sl, sr) = (staged(il, jl, kl), staged(i, j, k));
        let ql = trace_one(qarr, zl, qstride, dim, dtdx, nspec, 0.5, sl, floors);
        let qr = trace_one(qarr, zr, qstride, dim, dtdx, nspec, -0.5, sr, floors);
        write_flux(farr, farr.zone(i, j, k), &ql, &qr, dim, layout);
    }
}

/// The conservative update, zone by zone.
#[allow(clippy::too_many_arguments)]
pub(super) fn update(
    vb: IndexBox,
    farr: &Array4Mut<'_>,
    qarr: &Array4Mut<'_>,
    uarr: &Array4Mut<'_>,
    dim: usize,
    dtdx: Real,
    layout: &StateLayout,
    small_dens: Real,
) {
    let ncomp = layout.ncomp();
    let fstride = farr.stride(dim);
    for iv in vb.iter() {
        let (i, j, k) = (iv.x(), iv.y(), iv.z());
        let zlo = farr.zone(i, j, k);
        let zhi = zlo + fstride;
        let zu = uarr.zone(i, j, k);
        for c in 0..ncomp {
            if c == StateLayout::TEMP {
                continue;
            }
            let du = -dtdx * (farr.at_zone(zhi, c) - farr.at_zone(zlo, c));
            uarr.add_zone(zu, c, du);
        }
        // −p ∇·u source for the auxiliary internal energy.
        let pc = qarr.at(i, j, k, Q::P);
        let div_u = farr.at_zone(zhi, ncomp) - farr.at_zone(zlo, ncomp);
        uarr.add_zone(zu, StateLayout::EINT, -dtdx * pc * div_u);
        // Density floor.
        if uarr.at_zone(zu, StateLayout::RHO) < small_dens {
            hit(Branch::DensityFloor);
            uarr.set_zone(zu, StateLayout::RHO, small_dens);
        }
    }
}

/// Convert one zone of conserved data to primitives using the EOS.
pub(super) fn cons_to_prim(
    u: &[Real],
    layout: &StateLayout,
    eos: &dyn Eos,
    species: &[Species],
    floors: &Floors,
) -> Primitive {
    let (rho, vel, e) = rho_vel_e(
        u[StateLayout::RHO],
        [u[StateLayout::MX], u[StateLayout::MY], u[StateLayout::MZ]],
        u[StateLayout::EDEN],
        u[StateLayout::EINT],
        floors,
    );
    let inv = 1.0 / rho;
    let mut x = [0.0; StateLayout::MAX_NSPEC];
    let n = layout.nspec;
    for k in 0..n {
        x[k] = (u[layout.spec(k)] * inv).clamp(0.0, 1.0);
    }
    let comp = Composition::from_mass_fractions(species, &x[..n]);
    let t_guess = u[StateLayout::TEMP].max(floors.small_temp);
    let (t, mut r) = eos.t_from_e(rho, e, &comp, t_guess);
    if t < floors.small_temp {
        hit(Branch::TempFloor);
        // The floor clamps, so the solver's evaluation is at the wrong T.
        r = eos.eval_rt(rho, floors.small_temp, &comp);
    }
    Primitive {
        rho,
        vel,
        p: r.p.max(floors.small_pres),
        e,
        cs: r.cs,
    }
}

/// Monotonized-central limited slope.
fn mc_slope(vm: Real, v0: Real, vp: Real) -> Real {
    let dc = 0.5 * (vp - vm);
    let dl = 2.0 * (v0 - vm);
    let dr = 2.0 * (vp - v0);
    if dl * dr <= 0.0 {
        0.0
    } else {
        dc.abs().min(dl.abs()).min(dr.abs()) * dc.signum()
    }
}

/// A traced face state: rotated primitive plus species.
struct TracedState {
    prim: Primitive,
    x: [Real; StateLayout::MAX_NSPEC],
}

#[allow(clippy::too_many_arguments)]
fn trace_one(
    q: &Array4Mut<'_>,
    z: usize,
    stride: usize,
    dim: usize,
    dtdx: Real,
    nspec: usize,
    side: Real,
    slopes: Option<(&Array4Mut<'_>, usize)>,
    floors: &Floors,
) -> TracedState {
    let at = |c: usize| q.at_zone(z, c);
    let slope = |c: usize| -> Real {
        match slopes {
            Some((s, zs)) => s.at_zone(zs, c),
            None => mc_slope(q.at_zone(z - stride, c), at(c), q.at_zone(z + stride, c)),
        }
    };
    // Cell-centred values.
    let rho = at(Q::RHO);
    let un = at(Q::U + dim);
    let p = at(Q::P);
    let ei = at(Q::E);
    let cs = at(Q::C);
    // Limited slopes.
    let d_rho = slope(Q::RHO);
    let d_un = slope(Q::U + dim);
    let d_p = slope(Q::P);
    let d_e = slope(Q::E);
    // Half-step primitive-variable evolution: dq/dt = −A(q) ∂q/∂x.
    let half = 0.5 * dtdx;
    let rho_t = -(un * d_rho + rho * d_un);
    let un_t = -(un * d_un + d_p / rho.max(1e-300));
    let p_t = -(un * d_p + rho * cs * cs * d_un);
    let e_t = -(un * d_e + p / rho.max(1e-300) * d_un);
    let rho_tr = rho + side * d_rho + half * rho_t;
    let p_tr = p + side * d_p + half * p_t;
    let e_tr = ei + side * d_e + half * e_t;
    for (floored, b) in [
        (rho_tr < floors.small_dens, Branch::FallbackDensity),
        (p_tr < floors.small_pres, Branch::FallbackPressure),
        (e_tr <= 0.0, Branch::FallbackEnergy),
    ] {
        if floored {
            hit(b);
        }
    }
    let fallback = rho_tr < floors.small_dens || p_tr < floors.small_pres || e_tr <= 0.0;
    let mut prim = if fallback {
        Primitive {
            rho: rho.max(floors.small_dens),
            vel: [0.0; 3],
            p: p.max(floors.small_pres),
            e: ei.max(1e-300),
            cs,
        }
    } else {
        Primitive {
            rho: rho_tr,
            vel: [0.0; 3],
            p: p_tr,
            e: e_tr,
            cs,
        }
    };
    let (side, half) = if fallback { (0.0, 0.0) } else { (side, half) };
    prim.vel[0] = un + side * d_un + half * un_t;
    // Transverse velocities and species advect passively.
    for (slot, t) in [(1usize, (dim + 1) % 3), (2usize, (dim + 2) % 3)] {
        let v = at(Q::U + t);
        let d_v = slope(Q::U + t);
        prim.vel[slot] = v + side * d_v + half * (-(un * d_v));
    }
    // Approximate traced sound speed via frozen Γ₁.
    let gam1 = cs * cs * rho / p.max(1e-300);
    prim.cs = (gam1 * prim.p / prim.rho).sqrt();
    let mut x = [0.0; StateLayout::MAX_NSPEC];
    for s in 0..nspec {
        let xv = at(Q::FS + s);
        let d_x = slope(Q::FS + s);
        x[s] = (xv + side * d_x + half * (-(un * d_x))).clamp(0.0, 1.0);
    }
    TracedState { prim, x }
}

fn write_flux(
    farr: &Array4Mut<'_>,
    zf: usize,
    ql: &TracedState,
    qr: &TracedState,
    dim: usize,
    layout: &StateLayout,
) {
    let f = hllc(&ql.prim, &qr.prim);
    let ncomp = layout.ncomp();
    farr.set_zone(zf, StateLayout::RHO, f.mass);
    // Rotate momenta back: mom[0] is normal (dim), mom[1] is (dim+1)%3...
    farr.set_zone(zf, StateLayout::MX + dim, f.mom[0]);
    farr.set_zone(zf, StateLayout::MX + (dim + 1) % 3, f.mom[1]);
    farr.set_zone(zf, StateLayout::MX + (dim + 2) % 3, f.mom[2]);
    farr.set_zone(zf, StateLayout::EDEN, f.energy);
    farr.set_zone(zf, StateLayout::EINT, f.eint);
    farr.set_zone(zf, StateLayout::TEMP, 0.0);
    let xs = if f.upwind_left { &ql.x } else { &qr.x };
    for s in 0..layout.nspec {
        farr.set_zone(zf, layout.spec(s), f.mass * xs[s]);
    }
    let rho_up = if f.upwind_left {
        ql.prim.rho
    } else {
        qr.prim.rho
    };
    let vmax = ql.prim.vel[0].abs().max(qr.prim.vel[0].abs()) + ql.prim.cs.max(qr.prim.cs);
    let uface = f.mass / rho_up.max(1e-300);
    let uface = if uface < -vmax {
        hit(Branch::UfaceLow);
        -vmax
    } else if uface > vmax {
        hit(Branch::UfaceHigh);
        vmax
    } else {
        uface
    };
    farr.set_zone(zf, ncomp, uface);
}

/// Conserved state in face-normal coordinates.
#[derive(Clone, Copy)]
struct UCons {
    rho: Real,
    mu: Real,
    mv: Real,
    mw: Real,
    e: Real,  // ρE
    ei: Real, // ρe (advected)
}

fn to_cons(q: &Primitive) -> UCons {
    UCons {
        rho: q.rho,
        mu: q.rho * q.vel[0],
        mv: q.rho * q.vel[1],
        mw: q.rho * q.vel[2],
        e: q.rho * q.etot(),
        ei: q.rho * q.e,
    }
}

fn phys_flux(q: &Primitive, u: &UCons) -> FaceFlux {
    let un = q.vel[0];
    FaceFlux {
        mass: u.mu,
        mom: [u.mu * un + q.p, u.mv * un, u.mw * un],
        energy: (u.e + q.p) * un,
        eint: u.ei * un,
        upwind_left: un >= 0.0,
    }
}

/// HLLC flux for left/right primitive states given in *face-normal*
/// coordinates (`vel[0]` is the normal velocity).
pub(super) fn hllc(ql: &Primitive, qr: &Primitive) -> FaceFlux {
    let ul = to_cons(ql);
    let ur = to_cons(qr);
    // Einfeldt-style wave speed estimates.
    let sl = (ql.vel[0] - ql.cs).min(qr.vel[0] - qr.cs);
    let sr = (ql.vel[0] + ql.cs).max(qr.vel[0] + qr.cs);
    if sl >= 0.0 {
        hit(Branch::SlNonNegative);
        return phys_flux(ql, &ul);
    }
    if sr <= 0.0 {
        hit(Branch::SrNonPositive);
        return phys_flux(qr, &ur);
    }
    // Contact speed.
    let num = qr.p - ql.p + ul.mu * (sl - ql.vel[0]) - ur.mu * (sr - qr.vel[0]);
    let den = ql.rho * (sl - ql.vel[0]) - qr.rho * (sr - qr.vel[0]);
    if den.abs() < 1e-300 {
        hit(Branch::DenTiny);
    }
    let sstar = if den.abs() < 1e-300 { 0.0 } else { num / den };

    // Star-region state on the chosen side (Toro's formulas).
    let star = |q: &Primitive, u: &UCons, s: Real| -> (UCons, FaceFlux) {
        let f = phys_flux(q, u);
        let coef = q.rho * (s - q.vel[0]) / (s - sstar);
        let e_star =
            coef * (u.e / q.rho + (sstar - q.vel[0]) * (sstar + q.p / (q.rho * (s - q.vel[0]))));
        let ustar = UCons {
            rho: coef,
            mu: coef * sstar,
            mv: coef * q.vel[1],
            mw: coef * q.vel[2],
            e: e_star,
            ei: coef * q.e,
        };
        (ustar, f)
    };
    if sstar >= 0.0 {
        hit(Branch::SstarNonNegative);
        let (us, f) = star(ql, &ul, sl);
        FaceFlux {
            mass: f.mass + sl * (us.rho - ul.rho),
            mom: [
                f.mom[0] + sl * (us.mu - ul.mu),
                f.mom[1] + sl * (us.mv - ul.mv),
                f.mom[2] + sl * (us.mw - ul.mw),
            ],
            energy: f.energy + sl * (us.e - ul.e),
            eint: f.eint + sl * (us.ei - ul.ei),
            upwind_left: true,
        }
    } else {
        hit(Branch::SstarNegative);
        let (us, f) = star(qr, &ur, sr);
        FaceFlux {
            mass: f.mass + sr * (us.rho - ur.rho),
            mom: [
                f.mom[0] + sr * (us.mu - ur.mu),
                f.mom[1] + sr * (us.mv - ur.mv),
                f.mom[2] + sr * (us.mw - ur.mw),
            ],
            energy: f.energy + sr * (us.e - ur.e),
            eint: f.eint + sr * (us.ei - ur.ei),
            upwind_left: false,
        }
    }
}
