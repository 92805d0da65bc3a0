//! The compressible hydrodynamics solver: dimensionally split
//! piecewise-linear (MUSCL) Godunov with HLLC fluxes.
//!
//! Two kernel structures are provided, reproducing the §III refactor:
//!
//! * [`KernelStructure::Legacy`] — the pre-GPU CPU structure: slopes for
//!   *all* zones are computed in a first loop and staged in a scratch
//!   array, then a second loop reads two staged slopes per face. Fewer
//!   flops, bigger memory footprint.
//! * [`KernelStructure::Flat`] — the GPU port: one loop over faces in which
//!   each face *redundantly recomputes* the two slopes it needs. More
//!   total flops, no slope array, embarrassingly parallel per face. (The
//!   paper found this faster even on CPUs, "due largely to decreasing the
//!   memory footprint".)
//!
//! Both paths produce bitwise-identical fluxes (a test asserts this).
//!
//! ## A sweep's scratch
//!
//! Every array a sweep needs besides the state is drawn from an [`Arena`]
//! per box when the sweep starts and dropped when its last `update` has
//! run: primitives on the valid box grown by 2 *along the sweep* (a split
//! sweep reads no transverse ghost), the face fluxes on [`face_box`], and
//! the legacy structure's slopes. Nothing outlives the sweep — refluxing
//! reads the fluxes through a callback before they go (the crate-private
//! `Hydro::advance_with_fluxes`) — so a warm step makes no large heap
//! allocation and the pool-allocator ablation measures all of this
//! module's churn. Arena buffers come back as their last user left them
//! (NaN in debug builds): every kernel writes each slot it later reads,
//! which is why `write_flux` writes the `TEMP` slot nothing reads.
//!
//! ## Rows, lanes and zone cursors
//!
//! The kernels are row kernels over [`Array4Mut`] views
//! ([`ExecSpace::par_for_rows`]). A kernel resolves a row's first zone
//! to a cursor once and takes the row [`LANES`] zones at a time through
//! `at_lanes`/`set_lanes` (x is fastest in every fab, so a row is unit
//! stride whatever the sweep); stencil neighbours are `z ± view.stride(dim)`.
//! Each branch of the per-zone code is a per-lane select of what its arms
//! compute, same operations, same order, so a lane has the bits of its zone
//! computed alone. A row's short last chunk fills its lanes past the row
//! with clamped copies of its last zone and does not store them.
//!
//! ## The sweep as a halo loop
//!
//! Each sweep's faces split into an **interior** set, whose 4-zone stencil
//! lies entirely in valid data, and a **boundary band** (the outermost two
//! face layers per side along the sweep dimension), which reads ghost
//! zones. [`Hydro::advance`] runs each sweep as one [`HaloLoop`], which
//! stages the ghost exchange as pack/unpack tasks on the worker pool and
//! calls three kernels per box. The sweep along `dim` declares the
//! footprint `2·e_dim` — its two [`ghost_slabs`] — so the loop exchanges,
//! and applies the physical boundary to, those slabs only; the loop's
//! contract is that a kernel may read only `valid.grow_vec(ghosts)`, and
//! transverse, edge and corner ghosts are neither refreshed nor read (a
//! box of 8³ exchanges 256 ghost zones a sweep, not 1216). The kernels:
//!
//! * `interior` — primitives on the valid box and, for `Flat`, the interior
//!   fluxes; nothing to wait for, so it runs while halos are in flight;
//! * `band` — once the box's ghosts are unpacked: primitives on the two
//!   ghost slabs, then the band fluxes (`Flat`), or the slope staging over
//!   `vb ± 1` — which reads the slabs — and every face's flux from the
//!   staged slopes (`Legacy`);
//! * `update` — the conservative update, after both and after the box's
//!   own sends are packed.
//!
//! The schedule is free to reorder; every task writes disjoint slots and
//! every face computes the same arithmetic on the same inputs, so any
//! schedule and any box decomposition leave the same bits (tests hold both
//! structures against a one-shot-fill, whole-box reference, filled to the
//! same footprint and — on valid zones and fluxes — to every ghost).
//!
//! Castro proper uses an unsplit corner-transport-upwind scheme with PPM;
//! the dimensional splitting used here is a documented simplification
//! (DESIGN.md) that preserves the stencil shape, the per-zone kernel
//! economics, and second-order convergence on smooth flow.

use crate::riemann::hllc_lanes;
use crate::state::{cons_to_prim_lanes, each, lanes, pick, Floors, PrimLanes, StateLayout};
use exastro_amr::{
    Array4, Array4Mut, BcSpec, CommTrace, Geometry, HaloLoop, IndexBox, IntVect, MultiFab,
};
use exastro_microphysics::{Eos, Species};
use exastro_parallel::{lane_chunks, par_map_fold, Arena, ExecSpace, Real, ScratchBuf, LANES};

/// Which loop structure the sweep kernels use (§III ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelStructure {
    /// Staged slope arrays + second loop (pre-GPU structure).
    Legacy,
    /// Fused per-face recomputation (GPU-ready structure).
    Flat,
}

/// Primitive-variable component indices within the scratch fab.
struct Q;
impl Q {
    const RHO: usize = 0;
    const U: usize = 1; // normal velocity is rotated per sweep
    const P: usize = 4;
    const E: usize = 5;
    const C: usize = 6;
    const FS: usize = 7;
    fn ncomp(nspec: usize) -> usize {
        Self::FS + nspec
    }
}

/// Size of the stack array a kernel stages one zone's conserved state in.
pub(crate) const MAX_NCOMP: usize = StateLayout::FS + StateLayout::MAX_NSPEC;

/// Hydro options.
#[derive(Clone, Debug)]
pub struct Hydro {
    /// CFL number.
    pub cfl: Real,
    /// Kernel structure (see module docs).
    pub structure: KernelStructure,
    /// State floors.
    pub floors: Floors,
}

impl Default for Hydro {
    fn default() -> Self {
        Hydro {
            cfl: 0.5,
            structure: KernelStructure::Flat,
            floors: Floors::default(),
        }
    }
}

/// The full face box of `vb` along `dim`: every valid zone's low face plus
/// one extra layer for the last zone's high face.
pub fn face_box(vb: IndexBox, dim: usize) -> IndexBox {
    let mut hi = vb.hi();
    hi[dim] += 1;
    IndexBox::new(vb.lo(), hi)
}

/// The faces of `vb` along `dim` whose reconstruction stencil (zones
/// `iv − 2e .. iv + e`) lies entirely in valid data: `iv_d ∈ [lo+2, hi−1]`.
/// `None` when the box is too narrow (< 4 zones) to have any.
pub fn interior_faces(vb: IndexBox, dim: usize) -> Option<IndexBox> {
    let mut lo = vb.lo();
    let mut hi = vb.hi();
    lo[dim] += 2;
    hi[dim] -= 1;
    (lo[dim] <= hi[dim]).then(|| IndexBox::new(lo, hi))
}

/// The boundary-band face boxes of `vb` along `dim` — the faces whose
/// stencil reads ghost zones. Up to two boxes (low side, high side),
/// clipped so that together with [`interior_faces`] they tile
/// [`face_box`] disjointly for any box width (including 1–3 zone boxes).
pub fn band_faces(vb: IndexBox, dim: usize) -> Vec<IndexBox> {
    let (l, h) = (vb.lo()[dim], vb.hi()[dim]);
    let mut out = Vec::with_capacity(2);
    // Low band: faces lo and lo+1, clipped to the face box.
    let mut blo = vb.lo();
    let mut bhi = vb.hi();
    bhi[dim] = (l + 1).min(h + 1);
    out.push(IndexBox::new(blo, bhi));
    // High band: faces hi and hi+1, minus any overlap with the low band.
    blo[dim] = (l + 2).max(h);
    bhi[dim] = h + 1;
    if blo[dim] <= bhi[dim] {
        out.push(IndexBox::new(blo, bhi));
    }
    out
}

/// The two ghost-zone slabs (2 deep along `dim`, valid extent transverse)
/// whose primitives the band faces read. Transverse ghosts are *not*
/// included: a dimensionally split sweep never reads them.
pub fn ghost_slabs(vb: IndexBox, dim: usize) -> [IndexBox; 2] {
    let mut llo = vb.lo();
    let mut lhi = vb.hi();
    llo[dim] = vb.lo()[dim] - 2;
    lhi[dim] = vb.lo()[dim] - 1;
    let lo_slab = IndexBox::new(llo, lhi);
    let mut hlo = vb.lo();
    let mut hhi = vb.hi();
    hlo[dim] = vb.hi()[dim] + 1;
    hhi[dim] = vb.hi()[dim] + 2;
    [lo_slab, IndexBox::new(hlo, hhi)]
}

/// Kernel views of per-box scratch buffers, one per region.
fn scratch_views<'a>(
    bufs: &'a mut [ScratchBuf],
    regions: &[IndexBox],
    ncomp: usize,
) -> Vec<Array4Mut<'a>> {
    let pairs = bufs.iter_mut().zip(regions);
    pairs
        .map(|(b, r)| Array4Mut::from_slice(b, *r, ncomp))
        .collect()
}

/// Monotonized-central limited slopes of [`LANES`] zones; the limiter is
/// skipped where every lane's slope is zero (`dl·dr ≤ 0`, as in uniform flow).
#[inline(always)]
fn mc_slope(vm: [Real; LANES], v0: [Real; LANES], vp: [Real; LANES]) -> [Real; LANES] {
    let dl = lanes(|l| 2.0 * (v0[l] - vm[l]));
    let dr = lanes(|l| 2.0 * (vp[l] - v0[l]));
    let flat = each(|l| dl[l] * dr[l] <= 0.0);
    if flat == [true; LANES] {
        return [0.0; LANES];
    }
    let dc = lanes(|l| 0.5 * (vp[l] - vm[l]));
    let limited = lanes(|l| dc[l].abs().min(dl[l].abs()).min(dr[l].abs()) * dc[l].signum());
    pick(&flat, &[0.0; LANES], &limited)
}

/// The `live` zones along x from cursor `z` of the primitives `q` and their
/// slopes along the sweep: staged ones at their cursor in `slopes` (legacy),
/// or limited from the neighbours `∓ stride` (flat). The accessors always
/// inline, so a full chunk's constant `live` reaches every load.
#[derive(Clone, Copy)]
struct ZoneLanes<'a> {
    q: &'a Array4Mut<'a>,
    z: usize,
    live: usize,
    stride: usize,
    slopes: Option<(&'a Array4Mut<'a>, usize)>,
}

impl ZoneLanes<'_> {
    #[inline(always)]
    fn at(self, c: usize) -> [Real; LANES] {
        self.q.at_lanes(self.z, self.live, c)
    }

    #[inline(always)]
    fn slope(self, c: usize) -> [Real; LANES] {
        match self.slopes {
            Some((s, zs)) => s.at_lanes(zs, self.live, c),
            None => {
                let at = |z| self.q.at_lanes(z, self.live, c);
                mc_slope(
                    at(self.z - self.stride),
                    self.at(c),
                    at(self.z + self.stride),
                )
            }
        }
    }
}

impl Hydro {
    /// CFL-limited timestep over all fabs.
    pub fn estimate_dt(
        &self,
        state: &MultiFab,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        geom: &Geometry,
        ex: &ExecSpace,
    ) -> Real {
        let dx = geom.dx();
        let floors = self.floors;
        // Fabs go to the pool; folding their limits in fab order keeps the
        // result that of the serial loop, bit for bit.
        let fab_dt = |f: usize| {
            let arr = state.fab(f).array();
            let max_speed = ex.par_reduce_rows_max(state.valid_box(f), |j, k, i_lo, i_hi| {
                let z0 = arr.zone(i_lo, j, k);
                let mut row_max = Real::NEG_INFINITY;
                lane_chunks(
                    i_lo,
                    i_hi,
                    #[inline(always)]
                    |o, live| {
                        let u = |c| arr.at_lanes(z0 + o, live, c);
                        let (q, _) = cons_to_prim_lanes(u, live, layout, eos, species, &floors);
                        for l in 0..live {
                            let mut s: Real = 0.0;
                            for d in 0..3 {
                                s = s.max((q.vel[d][l].abs() + q.cs[l]) / dx[d] * dx[0]);
                            }
                            row_max = row_max.max(s);
                        }
                    },
                );
                row_max
            });
            if max_speed > 0.0 {
                dx[0] / max_speed
            } else {
                Real::INFINITY
            }
        };
        self.cfl * par_map_fold(state.nfabs(), Real::INFINITY, fab_dt, Real::min)
    }

    /// Compute primitives on `region` zones, reading conserved data through
    /// `sarr` and writing into the scratch view `qarr`. Pointwise, so any
    /// partition of a region computes the same values as one full pass.
    #[allow(clippy::too_many_arguments)]
    fn primitives_region(
        &self,
        sarr: &Array4Mut<'_>,
        region: IndexBox,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        ex: &ExecSpace,
        qarr: &Array4Mut<'_>,
    ) {
        let floors = self.floors;
        let layout = *layout;
        ex.par_for_rows(region, |j, k, i_lo, i_hi| {
            let (zs0, zq0) = (sarr.zone(i_lo, j, k), qarr.zone(i_lo, j, k));
            lane_chunks(
                i_lo,
                i_hi,
                #[inline(always)]
                |o, live| {
                    let u = |c| sarr.at_lanes(zs0 + o, live, c);
                    let (q, x) = cons_to_prim_lanes(u, live, &layout, eos, species, &floors);
                    let set = |c, v| qarr.set_lanes(zq0 + o, live, c, v);
                    set(Q::RHO, q.rho);
                    set(Q::U, q.vel[0]);
                    set(Q::U + 1, q.vel[1]);
                    set(Q::U + 2, q.vel[2]);
                    set(Q::P, q.p);
                    set(Q::E, q.e);
                    set(Q::C, q.cs);
                    for s in 0..layout.nspec {
                        set(Q::FS + s, x[s]);
                    }
                },
            );
        });
    }

    /// Solve the face Riemann problems on `faces` and store fluxes into
    /// `farr`. With `slopes` (legacy structure) staged slopes are read
    /// back; otherwise each face recomputes its own (flat structure).
    #[allow(clippy::too_many_arguments)]
    fn flux_region(
        &self,
        faces: IndexBox,
        qarr: &Array4Mut<'_>,
        slopes: Option<&Array4Mut<'_>>,
        farr: &Array4Mut<'_>,
        dim: usize,
        dtdx: Real,
        layout: &StateLayout,
        ex: &ExecSpace,
    ) {
        let e = IntVect::dim_vec(dim);
        let floors = self.floors;
        let layout = *layout;
        let qstride = qarr.stride(dim);
        let qbox = qarr.index_box();
        ex.par_for_rows(faces, |j, k, i_lo, i_hi| {
            // A face lies between zones `iv − e` and `iv`: resolve the row's
            // first right zone, step to its left one.
            let zr0 = qarr.zone(i_lo, j, k);
            debug_assert_eq!(zr0 - qstride, qarr.zone(i_lo - e.x(), j - e.y(), k - e.z()));
            // A face that recomputes its slopes reads one zone further.
            let (first, last) = (IntVect::new(i_lo, j, k), IntVect::new(i_hi, j, k));
            debug_assert!(
                slopes.is_some() || qbox.contains(first - e * 2) && qbox.contains(last + e)
            );
            let staged = slopes.map(|s| (s, s.zone(i_lo, j, k), s.stride(dim)));
            let zf0 = farr.zone(i_lo, j, k);
            let (mut ql, mut qr) = (TracedLanes::default(), TracedLanes::default());
            lane_chunks(
                i_lo,
                i_hi,
                #[inline(always)]
                |o, live| {
                    // The face's right zone (`back` 0) or left zone (1).
                    let zones = |back: usize| ZoneLanes {
                        q: qarr,
                        z: zr0 + o - back * qstride,
                        live,
                        stride: qstride,
                        slopes: staged.map(|(s, zs0, st)| (s, zs0 + o - back * st)),
                    };
                    let nspec = layout.nspec;
                    trace_one(&mut ql, zones(1), dim, dtdx, nspec, 0.5, &floors);
                    trace_one(&mut qr, zones(0), dim, dtdx, nspec, -0.5, &floors);
                    write_flux(farr, zf0 + o, live, &ql, &qr, dim, &layout);
                },
            );
        });
    }

    /// Conservative update of `vb` from face fluxes, plus the −p∇·u
    /// internal-energy source and the density floor.
    #[allow(clippy::too_many_arguments)]
    fn update_region(
        &self,
        vb: IndexBox,
        farr: &Array4Mut<'_>,
        qarr: &Array4Mut<'_>,
        uarr: &Array4Mut<'_>,
        dim: usize,
        dtdx: Real,
        layout: &StateLayout,
        ex: &ExecSpace,
    ) {
        let ncomp = layout.ncomp();
        let small_dens = self.floors.small_dens;
        let e = IntVect::dim_vec(dim);
        let fstride = farr.stride(dim);
        ex.par_for_rows(vb, |j, k, i_lo, i_hi| {
            // A zone's low face shares its index; its high face is one step
            // along the sweep.
            let (zf0, zu0) = (farr.zone(i_lo, j, k), uarr.zone(i_lo, j, k));
            let zq0 = qarr.zone(i_lo, j, k);
            debug_assert_eq!(zf0 + fstride, farr.zone(i_lo + e.x(), j + e.y(), k + e.z()));
            lane_chunks(
                i_lo,
                i_hi,
                #[inline(always)]
                |o, live| {
                    let (zlo, zu) = (zf0 + o, zu0 + o);
                    let flux_diff = |c| {
                        let (hi, lo) = (
                            farr.at_lanes(zlo + fstride, live, c),
                            farr.at_lanes(zlo, live, c),
                        );
                        lanes(|l| hi[l] - lo[l])
                    };
                    for c in (0..ncomp).filter(|&c| c != StateLayout::TEMP) {
                        let (u, df) = (uarr.at_lanes(zu, live, c), flux_diff(c));
                        let mut v = lanes(|l| u[l] + -dtdx * df[l]);
                        if c == StateLayout::EINT {
                            // −p ∇·u source for the auxiliary internal energy.
                            let (pc, div_u) =
                                (qarr.at_lanes(zq0 + o, live, Q::P), flux_diff(ncomp));
                            v = lanes(|l| v[l] + -dtdx * pc[l] * div_u[l]);
                        } else if c == StateLayout::RHO {
                            // Density floor.
                            v = lanes(|l| if v[l] < small_dens { small_dens } else { v[l] });
                        }
                        uarr.set_lanes(zu, live, c, v);
                    }
                },
            );
        });
    }

    /// Stage the limited slope of every primitive on `region` (legacy
    /// structure), reading `qarr` one zone either side along `dim`.
    fn slopes_region(
        &self,
        region: IndexBox,
        qarr: &Array4Mut<'_>,
        slarr: &Array4Mut<'_>,
        dim: usize,
        ex: &ExecSpace,
    ) {
        let e = IntVect::dim_vec(dim);
        let qstride = qarr.stride(dim);
        ex.par_for_rows(region, |j, k, i_lo, i_hi| {
            let (z0, zs0) = (qarr.zone(i_lo, j, k), slarr.zone(i_lo, j, k));
            debug_assert_eq!(z0 - qstride, qarr.zone(i_lo - e.x(), j - e.y(), k - e.z()));
            debug_assert_eq!(z0 + qstride, qarr.zone(i_lo + e.x(), j + e.y(), k + e.z()));
            lane_chunks(
                i_lo,
                i_hi,
                #[inline(always)]
                |o, live| {
                    let zones = ZoneLanes {
                        q: qarr,
                        z: z0 + o,
                        live,
                        stride: qstride,
                        slopes: None,
                    };
                    for c in 0..qarr.ncomp() {
                        slarr.set_lanes(zs0 + o, live, c, zones.slope(c));
                    }
                },
            );
        });
    }

    /// A full hydro step: three directional sweeps, each one pass of
    /// [`HaloLoop`] over `state` (see the module docs for what each stage
    /// runs). Returns the step's communication trace for the machine model.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &self,
        state: &mut MultiFab,
        dt: Real,
        geom: &Geometry,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        bc: &BcSpec,
        ex: &ExecSpace,
        arena: &dyn Arena,
    ) -> CommTrace {
        let no_reflux = &mut |_: usize, _: &[Array4<'_>]| {};
        self.advance_with_fluxes(
            state, dt, geom, layout, eos, species, bc, ex, arena, no_reflux,
        )
    }

    /// [`Hydro::advance`], lending each sweep's face fluxes to
    /// `on_fluxes(dim, fluxes)` after the sweep's updates and before its
    /// scratch goes back to the arena: one view per state fab, on its
    /// [`face_box`], holding the `ncomp` conserved fluxes plus the face
    /// normal velocity as the last component.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance_with_fluxes(
        &self,
        state: &mut MultiFab,
        dt: Real,
        geom: &Geometry,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        bc: &BcSpec,
        ex: &ExecSpace,
        arena: &dyn Arena,
        on_fluxes: &mut dyn FnMut(usize, &[Array4<'_>]),
    ) -> CommTrace {
        assert!(state.ngrow() >= 2, "hydro needs two ghost zones");
        let nq = Q::ncomp(layout.nspec);
        let nflux = layout.ncomp() + 1; // + face normal velocity
        let staged = self.structure == KernelStructure::Legacy;
        let vbs = state.valid_boxes();
        let mut trace = CommTrace::default();
        for dim in 0..3 {
            // Plan before allocating the sweep's scratch (see `HaloLoop`).
            // The sweep's footprint is its two ghost slabs (`ghost_slabs`).
            let halo = HaloLoop::plan(state, geom, IntVect::dim_vec(dim) * 2);
            let dtdx = dt / geom.dx()[dim];
            // Primitives live on the valid box grown by 2 along the sweep
            // (stencil support); a split sweep reads no transverse ghost
            // (see `ghost_slabs`), so none is allocated.
            let qregions: Vec<IndexBox> = vbs.iter().map(|vb| vb.grow_dir(dim, 2)).collect();
            // The legacy structure adds a slope array on the zones the
            // faces touch, vb ± 1 along the sweep.
            let sregions: Vec<IndexBox> = if staged {
                vbs.iter().map(|vb| vb.grow_dir(dim, 1)).collect()
            } else {
                Vec::new()
            };
            let fregions: Vec<IndexBox> = vbs.iter().map(|vb| face_box(*vb, dim)).collect();
            let alloc = |r: &IndexBox, n: usize| arena.alloc(r.num_zones() as usize * n);
            let mut qbufs: Vec<_> = qregions.iter().map(|r| alloc(r, nq)).collect();
            let mut sbufs: Vec<_> = sregions.iter().map(|r| alloc(r, nq)).collect();
            let mut fbufs: Vec<_> = fregions.iter().map(|r| alloc(r, nflux)).collect();
            {
                let qvs = scratch_views(&mut qbufs, &qregions, nq);
                let slvs = scratch_views(&mut sbufs, &sregions, nq);
                let fvs = scratch_views(&mut fbufs, &fregions, nflux);
                let primitives = |f: usize, sv: &Array4Mut<'_>, region: IndexBox| {
                    self.primitives_region(sv, region, layout, eos, species, ex, &qvs[f]);
                };
                // `slvs` is empty for the flat structure, whose faces
                // recompute their slopes.
                let flux = |f: usize, faces: IndexBox| {
                    self.flux_region(faces, &qvs[f], slvs.get(f), &fvs[f], dim, dtdx, layout, ex);
                };
                let t = halo.run(
                    state,
                    bc,
                    &format!("hydro.sweep.{}", ["x", "y", "z"][dim]),
                    |f, sv| {
                        primitives(f, sv, vbs[f]);
                        if !staged {
                            if let Some(faces) = interior_faces(vbs[f], dim) {
                                flux(f, faces);
                            }
                        }
                    },
                    |f, sv| {
                        for slab in ghost_slabs(vbs[f], dim) {
                            primitives(f, sv, slab);
                        }
                        if staged {
                            self.slopes_region(sregions[f], &qvs[f], &slvs[f], dim, ex);
                            flux(f, fregions[f]);
                        } else {
                            for faces in band_faces(vbs[f], dim) {
                                flux(f, faces);
                            }
                        }
                    },
                    |f, sv| {
                        self.update_region(vbs[f], &fvs[f], &qvs[f], sv, dim, dtdx, layout, ex);
                    },
                );
                trace.merge(&t);
            }
            let fluxes: Vec<Array4<'_>> = fbufs
                .iter()
                .zip(&fregions)
                .map(|(b, r)| Array4::from_slice(b, *r, nflux))
                .collect();
            on_fluxes(dim, &fluxes);
        }
        trace
    }
}

/// The traced face states of [`LANES`] zones: rotated primitives (`vel[0]`
/// is the face normal) and species mass fractions.
#[derive(Default)]
struct TracedLanes {
    prim: PrimLanes<LANES>,
    x: [[Real; LANES]; StateLayout::MAX_NSPEC],
}

/// Trace the states of `zones` to their faces at `side` (+0.5 = high face,
/// −0.5 = low face) over a half step into `out`, rotated so `vel[0]` is the
/// face-normal velocity: the same lane arithmetic on staged slopes (legacy)
/// or recomputed ones (flat).
#[inline(always)]
fn trace_one(
    out: &mut TracedLanes,
    zones: ZoneLanes<'_>,
    dim: usize,
    dtdx: Real,
    nspec: usize,
    side: Real,
    floors: &Floors,
) {
    // Cell-centred values and limited slopes.
    let (rho, un, p) = (zones.at(Q::RHO), zones.at(Q::U + dim), zones.at(Q::P));
    let (ei, cs) = (zones.at(Q::E), zones.at(Q::C));
    let (d_rho, d_un) = (zones.slope(Q::RHO), zones.slope(Q::U + dim));
    let (d_p, d_e) = (zones.slope(Q::P), zones.slope(Q::E));
    // Half-step primitive-variable evolution: dq/dt = −A(q) ∂q/∂x.
    let half = 0.5 * dtdx;
    let rho_t = lanes(|l| -(un[l] * d_rho[l] + rho[l] * d_un[l]));
    let un_t = lanes(|l| -(un[l] * d_un[l] + d_p[l] / rho[l].max(1e-300)));
    let p_t = lanes(|l| -(un[l] * d_p[l] + rho[l] * cs[l] * cs[l] * d_un[l]));
    let e_t = lanes(|l| -(un[l] * d_e[l] + p[l] / rho[l].max(1e-300) * d_un[l]));
    // Floors keep the traced state physical through the star/vacuum
    // interfaces of the collision problem; when a traced value would fall
    // below its floor, the zone-centred value is used instead (local
    // first-order fallback).
    let rho_tr = lanes(|l| rho[l] + side * d_rho[l] + half * rho_t[l]);
    let p_tr = lanes(|l| p[l] + side * d_p[l] + half * p_t[l]);
    let e_tr = lanes(|l| ei[l] + side * d_e[l] + half * e_t[l]);
    let fallback: [bool; LANES] =
        each(|l| rho_tr[l] < floors.small_dens || p_tr[l] < floors.small_pres || e_tr[l] <= 0.0);
    let floored = |v: &[Real; LANES], floor: Real| lanes(|l| v[l].max(floor));
    let mut prim = PrimLanes {
        rho: pick(&fallback, &floored(&rho, floors.small_dens), &rho_tr),
        vel: [[0.0; LANES]; 3],
        p: pick(&fallback, &floored(&p, floors.small_pres), &p_tr),
        e: pick(&fallback, &floored(&ei, 1e-300), &e_tr),
        cs,
    };
    let side = pick(&fallback, &[0.0; LANES], &[side; LANES]);
    let half = pick(&fallback, &[0.0; LANES], &[half; LANES]);
    prim.vel[0] = lanes(|l| un[l] + side[l] * d_un[l] + half[l] * un_t[l]);
    // Transverse velocities and species advect passively.
    let advect = |v: [Real; LANES], d_v: [Real; LANES]| {
        lanes(|l| v[l] + side[l] * d_v[l] + half[l] * (-(un[l] * d_v[l])))
    };
    for (slot, t) in [(1usize, (dim + 1) % 3), (2usize, (dim + 2) % 3)] {
        prim.vel[slot] = advect(zones.at(Q::U + t), zones.slope(Q::U + t));
    }
    // Approximate traced sound speed via frozen Γ₁.
    let gam1 = lanes(|l| cs[l] * cs[l] * rho[l] / p[l].max(1e-300));
    prim.cs = lanes(|l| (gam1[l] * prim.p[l] / prim.rho[l]).sqrt());
    for s in 0..nspec {
        out.x[s] = advect(zones.at(Q::FS + s), zones.slope(Q::FS + s)).map(|x| x.clamp(0.0, 1.0));
    }
    out.prim = prim;
}

/// Solve the Riemann problems of `live` faces along x from cursor `zf` and
/// store their (un-rotated) conserved fluxes plus the face normal velocity.
/// Nothing reads a temperature flux, but the slot is arena scratch and
/// refluxing copies every conserved slot, so it is written, as 0.0.
#[inline(always)]
fn write_flux(
    farr: &Array4Mut<'_>,
    zf: usize,
    live: usize,
    ql: &TracedLanes,
    qr: &TracedLanes,
    dim: usize,
    layout: &StateLayout,
) {
    let f = hllc_lanes(&ql.prim, &qr.prim);
    let set = |c, v| farr.set_lanes(zf, live, c, v);
    set(StateLayout::RHO, f.mass);
    // Rotate momenta back: mom[0] is normal (dim), mom[1] is (dim+1)%3...
    set(StateLayout::MX + dim, f.mom[0]);
    set(StateLayout::MX + (dim + 1) % 3, f.mom[1]);
    set(StateLayout::MX + (dim + 2) % 3, f.mom[2]);
    set(StateLayout::EDEN, f.energy);
    set(StateLayout::EINT, f.eint);
    set(StateLayout::TEMP, [0.0; LANES]);
    let up = f.upwind_left;
    for s in 0..layout.nspec {
        let xs = pick(&up, &ql.x[s], &qr.x[s]);
        set(layout.spec(s), lanes(|l| f.mass[l] * xs[l]));
    }
    // Face normal velocity for the −p∇·u source: mass flux / upwind rho is
    // a decent contact-speed proxy, clamped to the local signal speed to
    // stay bounded at near-vacuum faces.
    let (unl, unr) = (&ql.prim.vel[0], &qr.prim.vel[0]);
    let rho_up = pick(&up, &ql.prim.rho, &qr.prim.rho);
    let uface = lanes(|l| {
        let vmax = unl[l].abs().max(unr[l].abs()) + ql.prim.cs[l].max(qr.prim.cs[l]);
        // `clamp`'s arithmetic without its panic on a NaN bound: a
        // non-finite face flows on to the step's validator instead of
        // aborting the run.
        let uface = f.mass[l] / rho_up[l].max(1e-300);
        if uface < -vmax {
            -vmax
        } else if uface > vmax {
            vmax
        } else {
            uface
        }
    });
    set(layout.ncomp(), uface);
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::cons_to_prim;
    use exastro_amr::{BcKind, BoxArray, DistributionMapping};
    use exastro_microphysics::network::Network;
    use exastro_microphysics::{Aprox13, CBurn2, Composition, GammaLaw, StellarEos};
    use exastro_parallel::PoolArena;
    use proptest::prelude::{Strategy, TestRng};

    /// Build a pseudo-1D Sod shock tube along `dim`.
    fn sod_state(n: i32, dim: usize) -> (Geometry, MultiFab, StateLayout, GammaLaw) {
        let mut size = IntVect::splat(4);
        size[dim] = n;
        let domain = IndexBox::sized(size);
        let mut hi = [1e-2; 3];
        hi[dim] = 1.0;
        let mut periodic = [true; 3];
        periodic[dim] = false;
        let geom = Geometry::new(
            domain,
            [0.0; 3],
            hi,
            periodic,
            exastro_amr::CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(domain, n.max(8), 4);
        let dm = DistributionMapping::all_local(&ba);
        let layout = StateLayout::new(2);
        let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
        let eos = GammaLaw { gamma: 1.4 };
        let net = CBurn2::new();
        let comp = Composition::from_mass_fractions(net.species(), &[1.0, 0.0]);
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv)[dim];
                let (rho, p) = if x < 0.5 { (1.0, 1.0) } else { (0.125, 0.1) };
                let e = eos.e_from_p(rho, p);
                let (t, _) = eos.t_from_e(rho, e, &comp, 1e3);
                let fab = state.fab_mut(i);
                fab.set(iv, StateLayout::RHO, rho);
                fab.set(iv, StateLayout::EDEN, rho * e);
                fab.set(iv, StateLayout::EINT, rho * e);
                fab.set(iv, StateLayout::TEMP, t);
                fab.set(iv, layout.spec(0), rho);
            }
        }
        (geom, state, layout, eos)
    }

    fn run_sod(
        structure: KernelStructure,
        nsteps: usize,
        dim: usize,
    ) -> (Geometry, MultiFab, StateLayout) {
        let (geom, mut state, layout, eos) = sod_state(128, dim);
        let net = CBurn2::new();
        let hydro = Hydro {
            cfl: 0.4,
            structure,
            floors: Floors::dimensionless(),
        };
        let ex = ExecSpace::Serial;
        let arena = PoolArena::new();
        let mut bc = BcSpec::outflow();
        // Periodic transverse dims handled by fill_boundary.
        bc.kind[(dim + 1) % 3] = [BcKind::Periodic; 2];
        bc.kind[(dim + 2) % 3] = [BcKind::Periodic; 2];
        for _ in 0..nsteps {
            let dt = hydro.estimate_dt(&state, &layout, &eos, net.species(), &geom, &ex);
            assert!(dt > 0.0 && dt.is_finite());
            let _ = hydro.advance(
                &mut state,
                dt.min(1e-2),
                &geom,
                &layout,
                &eos,
                net.species(),
                &bc,
                &ex,
                &arena,
            );
        }
        (geom, state, layout)
    }

    #[test]
    fn face_split_tiles_face_box_for_all_widths() {
        for width in 1..=6 {
            for dim in 0..3 {
                let mut hi = IntVect::splat(3);
                hi[dim] = width - 1;
                let vb = IndexBox::new(IntVect::splat(0), hi);
                let fb = face_box(vb, dim);
                let mut covered = vec![0u32; fb.num_zones() as usize];
                let mark = |covered: &mut Vec<u32>, bx: IndexBox| {
                    for (n, iv) in fb.iter().enumerate() {
                        if bx.contains(iv) {
                            covered[n] += 1;
                        }
                    }
                };
                if let Some(ib) = interior_faces(vb, dim) {
                    mark(&mut covered, ib);
                }
                for bb in band_faces(vb, dim) {
                    mark(&mut covered, bb);
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "width {width} dim {dim}: interior+band must tile faces exactly once: {covered:?}"
                );
            }
        }
    }

    #[test]
    fn ghost_slabs_are_outside_and_two_deep() {
        let vb = IndexBox::new(IntVect::splat(0), IntVect::new(7, 3, 3));
        let [lo, hi] = ghost_slabs(vb, 0);
        assert_eq!(lo.lo().x(), -2);
        assert_eq!(lo.hi().x(), -1);
        assert_eq!(hi.lo().x(), 8);
        assert_eq!(hi.hi().x(), 9);
        // Transverse extent stays the valid extent (no corner ghosts).
        assert_eq!(lo.lo().y(), 0);
        assert_eq!(lo.hi().y(), 3);
    }

    #[test]
    fn sod_tube_structure_is_correct() {
        // After some evolution: shock moving right, contact behind it,
        // rarefaction on the left; density stays within [0.125, 1.0] up to
        // small overshoots; total mass in the tube is conserved until waves
        // reach the boundary.
        let (geom, state, layout) = run_sod(KernelStructure::Flat, 40, 0);
        let _ = layout;
        let rho_min = state.min(StateLayout::RHO);
        let rho_max = state.max(StateLayout::RHO);
        assert!(rho_min > 0.1, "min rho {rho_min}");
        assert!(rho_max < 1.05, "max rho {rho_max}");
        // Momentum generated is positive (flow toward low pressure).
        assert!(state.sum(StateLayout::MX) > 0.0);
        // The density at the far right is still the ambient value (shock
        // hasn't reached the wall), left end still 1.0.
        let probe_r = IntVect::new(126, 2, 2);
        let probe_l = IntVect::new(1, 2, 2);
        assert!((state.value_at(probe_r, StateLayout::RHO) - 0.125).abs() < 1e-6);
        assert!((state.value_at(probe_l, StateLayout::RHO) - 1.0).abs() < 1e-6);
        let _ = geom;
    }

    #[test]
    fn flat_and_legacy_agree_bitwise() {
        let (_, sf, _) = run_sod(KernelStructure::Flat, 10, 0);
        let (_, sl, _) = run_sod(KernelStructure::Legacy, 10, 0);
        for i in 0..sf.nfabs() {
            let vb = sf.valid_box(i);
            for iv in vb.iter() {
                for c in 0..sf.ncomp() {
                    let a = sf.fab(i).get(iv, c);
                    let b = sl.fab(i).get(iv, c);
                    assert!(a == b, "structure mismatch at {iv:?} comp {c}: {a} vs {b}");
                }
            }
        }
    }

    /// Smooth multi-dimensional flow on 64 boxes of 4³.
    fn smooth_state(geom: &Geometry, layout: &StateLayout, eos: &GammaLaw) -> MultiFab {
        let ba = BoxArray::decompose(geom.domain(), 4, 4);
        let mut state = MultiFab::local(ba, layout.ncomp(), 2);
        let net = CBurn2::new();
        let comp = Composition::from_mass_fractions(net.species(), &[0.7, 0.3]);
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                let tp = 2.0 * std::f64::consts::PI;
                let rho = 1.0 + 0.2 * (tp * x[0]).sin() * (tp * x[1]).cos();
                let u = 0.3 * (tp * x[2]).sin();
                let v = 0.2 * (tp * x[0]).cos();
                let p = 1.0 + 0.1 * (tp * x[1]).sin();
                let e = eos.e_from_p(rho, p);
                let (t, _) = eos.t_from_e(rho, e, &comp, 1e3);
                let ke = 0.5 * rho * (u * u + v * v);
                let fab = state.fab_mut(i);
                fab.set(iv, StateLayout::RHO, rho);
                fab.set(iv, StateLayout::MX, rho * u);
                fab.set(iv, StateLayout::MX + 1, rho * v);
                fab.set(iv, StateLayout::EDEN, rho * e + ke);
                fab.set(iv, StateLayout::EINT, rho * e);
                fab.set(iv, StateLayout::TEMP, t);
                fab.set(iv, layout.spec(0), 0.7 * rho);
                fab.set(iv, layout.spec(1), 0.3 * rho);
            }
        }
        state
    }

    /// A step's fluxes: per sweep, per fab, every value of its flux array.
    type StepFluxes = Vec<Vec<Vec<Real>>>;

    /// Every value of `f`, component-major, zones in box order.
    fn values(f: &Array4<'_>) -> Vec<Real> {
        let mut out = Vec::new();
        for c in 0..f.ncomp() {
            out.extend(
                f.index_box()
                    .iter()
                    .map(|iv| f.at(iv.x(), iv.y(), iv.z(), c)),
            );
        }
        out
    }

    /// [`Hydro::advance_with_fluxes`], keeping a copy of what it lends.
    #[allow(clippy::too_many_arguments)]
    fn advance_keeping_fluxes(
        hydro: &Hydro,
        state: &mut MultiFab,
        dt: Real,
        geom: &Geometry,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        bc: &BcSpec,
        arena: &dyn Arena,
    ) -> (StepFluxes, CommTrace) {
        let mut fluxes = StepFluxes::new();
        let ex = ExecSpace::Serial;
        let trace = hydro.advance_with_fluxes(
            state,
            dt,
            geom,
            layout,
            eos,
            species,
            bc,
            &ex,
            arena,
            &mut |dim, fabs| {
                assert_eq!(dim, fluxes.len(), "sweeps are lent in order");
                fluxes.push(fabs.iter().map(values).collect());
            },
        );
        (fluxes, trace)
    }

    /// The step with no graph and no face split: per sweep a one-shot fill
    /// of the footprint `ghosts(dim)`, then per box primitives on the whole
    /// footprint, every face's flux and the update, from the region kernels
    /// `advance` uses, on zeroed heap scratch.
    #[allow(clippy::too_many_arguments)]
    fn whole_box_advance(
        hydro: &Hydro,
        state: &mut MultiFab,
        dt: Real,
        geom: &Geometry,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        bc: &BcSpec,
        ghosts: impl Fn(usize) -> IntVect,
    ) -> (StepFluxes, CommTrace) {
        let ex = ExecSpace::Serial;
        let nq = Q::ncomp(layout.nspec);
        let nflux = layout.ncomp() + 1;
        let mut trace = CommTrace::default();
        let mut fluxes = StepFluxes::new();
        for dim in 0..3 {
            trace.merge(&state.fill_boundary_within(geom, ghosts(dim)));
            state.fill_physical_bc_within(geom, bc, ghosts(dim));
            let dtdx = dt / geom.dx()[dim];
            let mut fabs = Vec::new();
            for fi in 0..state.nfabs() {
                let vb = state.valid_box(fi);
                let qr = vb.grow_vec(ghosts(dim));
                let (sr, fr) = (vb.grow_dir(dim, 1), face_box(vb, dim));
                let mut qbuf = vec![0.0; qr.num_zones() as usize * nq];
                let mut sbuf = vec![0.0; sr.num_zones() as usize * nq];
                let mut fbuf = vec![0.0; fr.num_zones() as usize * nflux];
                let sarr = state.fab_mut(fi).array_mut();
                let qarr = Array4Mut::from_slice(&mut qbuf, qr, nq);
                let slarr = Array4Mut::from_slice(&mut sbuf, sr, nq);
                let farr = Array4Mut::from_slice(&mut fbuf, fr, nflux);
                hydro.primitives_region(&sarr, qr, layout, eos, species, &ex, &qarr);
                let slopes = (hydro.structure == KernelStructure::Legacy).then(|| {
                    hydro.slopes_region(sr, &qarr, &slarr, dim, &ex);
                    &slarr
                });
                hydro.flux_region(fr, &qarr, slopes, &farr, dim, dtdx, layout, &ex);
                hydro.update_region(vb, &farr, &qarr, &sarr, dim, dtdx, layout, &ex);
                fabs.push(values(&Array4::from_slice(&fbuf, fr, nflux)));
            }
            fluxes.push(fabs);
        }
        (fluxes, trace)
    }

    #[test]
    fn advance_matches_whole_box_reference_bitwise() {
        // The halo loop's exchange staging, interior/band face split and
        // pool schedule must not change a bit of the state (ghosts
        // included), of the fluxes, or of the comm trace against a one-shot
        // fill of the same per-sweep footprint — for both kernel
        // structures, with periodic wrap and with physical boundaries. And
        // the footprint itself must not matter to what a sweep computes: a
        // reference that fills every ghost before each sweep agrees on
        // every valid zone and every flux.
        let swept = |dim: usize| IntVect::dim_vec(dim) * 2;
        let layout = StateLayout::new(2);
        let eos = GammaLaw { gamma: 1.4 };
        let net = CBurn2::new();
        let arena = PoolArena::new();
        for structure in [KernelStructure::Flat, KernelStructure::Legacy] {
            for periodic in [true, false] {
                let what = format!("{structure:?}, periodic {periodic}");
                let geom = Geometry::cube(16, 1.0, periodic);
                let bc = if periodic {
                    BcSpec::periodic()
                } else {
                    BcSpec::outflow()
                };
                let hydro = Hydro {
                    cfl: 0.4,
                    structure,
                    floors: Floors::dimensionless(),
                };
                let mut state = smooth_state(&geom, &layout, &eos);
                assert_eq!(state.nfabs(), 64, "want many boxes to stress the graph");
                let mut reference = state.clone();
                let mut full_fill = state.clone();
                for _ in 0..3 {
                    let ex = ExecSpace::Serial;
                    let dt = hydro.estimate_dt(&state, &layout, &eos, net.species(), &geom, &ex);
                    let (fx, trace) = advance_keeping_fluxes(
                        &hydro,
                        &mut state,
                        dt,
                        &geom,
                        &layout,
                        &eos,
                        net.species(),
                        &bc,
                        &arena,
                    );
                    let (rfx, rtrace) = whole_box_advance(
                        &hydro,
                        &mut reference,
                        dt,
                        &geom,
                        &layout,
                        &eos,
                        net.species(),
                        &bc,
                        swept,
                    );
                    let (ffx, ftrace) = whole_box_advance(
                        &hydro,
                        &mut full_fill,
                        dt,
                        &geom,
                        &layout,
                        &eos,
                        net.species(),
                        &bc,
                        |_| IntVect::splat(2),
                    );
                    assert_eq!(trace, rtrace, "{what}: comm trace");
                    assert!(
                        trace.network_bytes() + trace.local_bytes
                            < ftrace.network_bytes() + ftrace.local_bytes,
                        "{what}: the swept footprint moves fewer bytes"
                    );
                    assert_eq!((fx.len(), rfx.len(), ffx.len()), (3, 3, 3), "{what}");
                    for (dim, ((f, rf), ff)) in fx.iter().zip(&rfx).zip(&ffx).enumerate() {
                        assert_eq!(f.len(), state.nfabs(), "{what}: one flux array a fab");
                        for ((a, b), c) in f.iter().zip(rf).zip(ff) {
                            assert!(same_bits(a, b), "{what}: flux {dim}");
                            assert!(
                                same_bits(a, c),
                                "{what}: flux {dim} under the full footprint"
                            );
                        }
                    }
                }
                for i in 0..state.nfabs() {
                    let (a, b) = (state.fab(i).data(), reference.fab(i).data());
                    assert!(same_bits(a, b), "{what}: fab {i} differs on its grown box");
                    for iv in state.valid_box(i).iter() {
                        for c in 0..state.ncomp() {
                            let (a, b) = (state.fab(i).get(iv, c), full_fill.fab(i).get(iv, c));
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "{what}: fab {i} zone {iv:?} comp {c} under the full footprint"
                            );
                        }
                    }
                }
            }
        }
    }

    fn same_bits(a: &[Real], b: &[Real]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn sweeps_are_direction_symmetric() {
        // The same 1-D problem run along x, y, and z gives identical
        // profiles.
        let (ga, sa, _) = run_sod(KernelStructure::Flat, 10, 0);
        let (_, sb, _) = run_sod(KernelStructure::Flat, 10, 1);
        let (_, sc, _) = run_sod(KernelStructure::Flat, 10, 2);
        for i in 0..128 {
            let a = sa.value_at(IntVect::new(i, 2, 2), StateLayout::RHO);
            let b = sb.value_at(IntVect::new(2, i, 2), StateLayout::RHO);
            let c = sc.value_at(IntVect::new(2, 2, i), StateLayout::RHO);
            assert!((a - b).abs() < 1e-12, "x vs y at {i}: {a} {b}");
            assert!((a - c).abs() < 1e-12, "x vs z at {i}: {a} {c}");
        }
        let _ = ga;
    }

    #[test]
    fn periodic_advection_conserves_everything() {
        // Uniform flow in a fully periodic box: conserved quantities must
        // not drift.
        let geom = Geometry::cube(16, 1.0, true);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let layout = StateLayout::new(2);
        let mut state = MultiFab::local(ba, layout.ncomp(), 2);
        let eos = GammaLaw { gamma: 1.4 };
        let net = CBurn2::new();
        let comp = Composition::from_mass_fractions(net.species(), &[0.5, 0.5]);
        for i in 0..state.nfabs() {
            let vb = state.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                // Smooth density ripple advected by uniform velocity.
                let rho = 1.0 + 0.1 * (2.0 * std::f64::consts::PI * x[0]).sin();
                let u = 1.0;
                let p = 1.0;
                let e = eos.e_from_p(rho, p);
                let (t, _) = eos.t_from_e(rho, e, &comp, 1e3);
                let fab = state.fab_mut(i);
                fab.set(iv, StateLayout::RHO, rho);
                fab.set(iv, StateLayout::MX, rho * u);
                fab.set(iv, StateLayout::EDEN, rho * e + 0.5 * rho * u * u);
                fab.set(iv, StateLayout::EINT, rho * e);
                fab.set(iv, StateLayout::TEMP, t);
                fab.set(iv, layout.spec(0), 0.5 * rho);
                fab.set(iv, layout.spec(1), 0.5 * rho);
            }
        }
        let mass0 = state.sum(StateLayout::RHO);
        let mom0 = state.sum(StateLayout::MX);
        let en0 = state.sum(StateLayout::EDEN);
        let sp0 = state.sum(layout.spec(0));
        let hydro = Hydro {
            floors: Floors::dimensionless(),
            ..Default::default()
        };
        let ex = ExecSpace::Serial;
        let arena = PoolArena::new();
        let bc = BcSpec::periodic();
        for _ in 0..10 {
            let dt = hydro.estimate_dt(&state, &layout, &eos, net.species(), &geom, &ex);
            let _ = hydro.advance(
                &mut state,
                dt,
                &geom,
                &layout,
                &eos,
                net.species(),
                &bc,
                &ex,
                &arena,
            );
        }
        assert!((state.sum(StateLayout::RHO) / mass0 - 1.0).abs() < 1e-12);
        assert!((state.sum(StateLayout::MX) / mom0 - 1.0).abs() < 1e-12);
        assert!((state.sum(StateLayout::EDEN) / en0 - 1.0).abs() < 1e-11);
        assert!((state.sum(layout.spec(0)) / sp0 - 1.0).abs() < 1e-12);
        // Positivity throughout.
        assert!(state.min(StateLayout::RHO) > 0.5);
    }

    /// A pool arena that also records the length of every request.
    struct RecordingArena {
        pool: PoolArena,
        lens: std::sync::Mutex<Vec<usize>>,
    }

    impl Arena for RecordingArena {
        fn alloc(&self, len: usize) -> exastro_parallel::ScratchBuf {
            self.lens.lock().unwrap().push(len);
            self.pool.alloc(len)
        }

        fn stats(&self) -> exastro_parallel::ArenaStats {
            self.pool.stats()
        }
    }

    #[test]
    fn pool_arena_sees_hydro_scratch_churn() {
        let arena = RecordingArena {
            pool: PoolArena::new(),
            lens: Default::default(),
        };
        let (geom, mut state, layout, eos) = sod_state(32, 0);
        let net = CBurn2::new();
        let hydro = Hydro {
            floors: Floors::dimensionless(),
            ..Default::default()
        };
        let ex = ExecSpace::Serial;
        let mut bc = BcSpec::outflow();
        bc.kind[1] = [BcKind::Periodic; 2];
        bc.kind[2] = [BcKind::Periodic; 2];
        for _ in 0..3 {
            let _ = hydro.advance(
                &mut state,
                1e-3,
                &geom,
                &layout,
                &eos,
                net.species(),
                &bc,
                &ex,
                &arena,
            );
        }
        // Per sweep, the primitives of every box — its valid box grown by 2
        // along the sweep only: a split sweep reads no transverse ghost —
        // then the fluxes of every box, on its face box.
        let (nq, nflux) = (Q::ncomp(layout.nspec), layout.ncomp() + 1);
        let vbs = state.valid_boxes();
        let one_step = (0..3).flat_map(|dim| {
            let prims = vbs
                .iter()
                .map(move |vb| nq * vb.grow_dir(dim, 2).num_zones() as usize);
            let fluxes = vbs
                .iter()
                .map(move |vb| nflux * face_box(*vb, dim).num_zones() as usize);
            prims.chain(fluxes)
        });
        let expect: Vec<usize> = one_step.collect::<Vec<_>>().repeat(3);
        assert_eq!(*arena.lens.lock().unwrap(), expect);
        // Only the first sweep of each size class misses: one 32×4×4 box's
        // x-sweep primitives and fluxes share a class, its y and z
        // primitives take a bigger one, and every later request recycles.
        let s = arena.stats();
        assert_eq!(s.allocs, expect.len() as u64);
        assert_eq!(s.device_allocs, 3, "hits {} of {}", s.pool_hits, s.allocs);
    }

    /// The arena's debug poison at work: a read-before-write on recycled
    /// scratch — planted here as an x sweep whose primitives forget each
    /// box's high ghost slab — reads NaN, and the step's validator rejects
    /// the state. The zero-fill the arena used to do would have fed the
    /// bug plausible zeros.
    #[cfg(debug_assertions)]
    #[test]
    fn a_read_before_write_on_recycled_scratch_fails_validation() {
        use crate::driver::{Castro, StateViolation, StepError};
        use crate::sedov::{init_sedov, SedovParams};
        let eos = GammaLaw::monatomic();
        let net = CBurn2::new();
        let geom = Geometry::cube(16, 1.0, false);
        let mut castro = Castro::new(&eos, &net);
        castro.hydro.floors = Floors::dimensionless();
        let (hydro, layout) = (&castro.hydro, &castro.layout);
        let ba = BoxArray::decompose(geom.domain(), 8, 4);
        let mut state = MultiFab::local(ba, layout.ncomp(), 2);
        init_sedov(&mut state, &geom, layout, &eos, &SedovParams::default());
        let dt = castro.estimate_dt(&state, &geom);
        // A good step leaves its scratch in the arena.
        castro.advance_level(&mut state, &geom, dt).unwrap();
        let hits = castro.arena.stats().pool_hits;
        let (dim, ex) = (0, ExecSpace::Serial);
        let (nq, nflux) = (Q::ncomp(layout.nspec), layout.ncomp() + 1);
        let dtdx = dt / geom.dx()[dim];
        let ghosts = IntVect::dim_vec(dim) * 2;
        let _ = state.fill_boundary_within(&geom, ghosts);
        state.fill_physical_bc_within(&geom, &castro.bc, ghosts);
        for fi in 0..state.nfabs() {
            let vb = state.valid_box(fi);
            let (qr, fr) = (vb.grow_dir(dim, 2), face_box(vb, dim));
            let mut qbuf = castro.arena.alloc(qr.num_zones() as usize * nq);
            let mut fbuf = castro.arena.alloc(fr.num_zones() as usize * nflux);
            let sarr = state.fab_mut(fi).array_mut();
            let qarr = Array4Mut::from_slice(&mut qbuf, qr, nq);
            let farr = Array4Mut::from_slice(&mut fbuf, fr, nflux);
            let [lo_slab, _forgotten] = ghost_slabs(vb, dim);
            for region in [vb, lo_slab] {
                hydro.primitives_region(&sarr, region, layout, &eos, net.species(), &ex, &qarr);
            }
            hydro.flux_region(fr, &qarr, None, &farr, dim, dtdx, layout, &ex);
            hydro.update_region(vb, &farr, &qarr, &sarr, dim, dtdx, layout, &ex);
        }
        assert!(castro.arena.stats().pool_hits > hits, "recycled scratch");
        let verdict = castro
            .validate_state(&state, castro.recovery.species_tol)
            .map_err(StepError::Invalid);
        assert!(
            matches!(
                verdict,
                Err(StepError::Invalid(StateViolation::NonFinite { .. }))
            ),
            "{verdict:?}"
        );
    }

    /// `estimate_dt` as it was: fabs in a serial loop, zones by index.
    fn serial_estimate_dt(
        hydro: &Hydro,
        state: &MultiFab,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        geom: &Geometry,
    ) -> Real {
        let dx = geom.dx();
        let mut min_dt = Real::INFINITY;
        for f in 0..state.nfabs() {
            let mut max_speed = Real::NEG_INFINITY;
            for iv in state.valid_box(f).iter() {
                let u: Vec<Real> = (0..layout.ncomp())
                    .map(|c| state.fab(f).get(iv, c))
                    .collect();
                let q = cons_to_prim(&u, layout, eos, species, &hydro.floors);
                let mut s: Real = 0.0;
                for d in 0..3 {
                    s = s.max((q.vel[d].abs() + q.cs) / dx[d] * dx[0]);
                }
                max_speed = max_speed.max(s);
            }
            if max_speed > 0.0 {
                min_dt = min_dt.min(dx[0] / max_speed);
            }
        }
        hydro.cfl * min_dt
    }

    #[test]
    fn estimate_dt_on_the_pool_equals_the_serial_loop_bitwise() {
        let layout = StateLayout::new(2);
        let eos = GammaLaw { gamma: 1.4 };
        let net = CBurn2::new();
        let geom = Geometry::cube(16, 1.0, true);
        let hydro = Hydro {
            cfl: 0.4,
            floors: Floors::dimensionless(),
            ..Default::default()
        };
        let many = smooth_state(&geom, &layout, &eos);
        // The same field on one box.
        let mut one = MultiFab::local(BoxArray::decompose(geom.domain(), 16, 4), layout.ncomp(), 2);
        let _ = one.copy_from_other_ba(&many, 0, layout.ncomp());
        assert_eq!((many.nfabs(), one.nfabs()), (64, 1));
        for state in [&many, &one] {
            let dt = hydro.estimate_dt(
                state,
                &layout,
                &eos,
                net.species(),
                &geom,
                &ExecSpace::Serial,
            );
            let expect = serial_estimate_dt(&hydro, state, &layout, &eos, net.species(), &geom);
            assert!(dt > 0.0 && dt.is_finite());
            assert_eq!(dt.to_bits(), expect.to_bits(), "{} box(es)", state.nfabs());
        }
    }

    /// Bits equal, or both NaN: a NaN's payload is not part of the answer.
    fn same_value(a: Real, b: Real) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// What an arena slot holds before a kernel writes it; a kernel that
    /// writes a slot outside its region (a tail lane's store) shows.
    const SENTINEL: Real = -7.0e77;

    /// `Err` naming the first slot of the `ncomp`-component buffers on `bx`
    /// where the row kernel's values `got` and the oracle's `want` differ.
    fn compare(
        what: &str,
        bx: IndexBox,
        ncomp: usize,
        got: &[Real],
        want: &[Real],
    ) -> Result<(), String> {
        let zones = bx.num_zones() as usize;
        assert_eq!((got.len(), want.len()), (zones * ncomp, zones * ncomp));
        match got.iter().zip(want).position(|(a, b)| !same_value(*a, *b)) {
            None => Ok(()),
            Some(n) => {
                let iv = bx.iter().nth(n % zones).expect("slot inside the box");
                let (a, b) = (got[n], want[n]);
                Err(format!(
                    "{what}: comp {} zone {iv:?}: {a:e} vs the oracle's {b:e}",
                    n / zones
                ))
            }
        }
    }

    /// Uniform in `lo..hi`.
    fn uniform(rng: &mut TestRng, lo: Real, hi: Real) -> Real {
        lo + rng.next_f64() * (hi - lo)
    }

    /// One of `values`.
    fn one_of(rng: &mut TestRng, values: &[Real]) -> Real {
        values[(rng.next_u64() % values.len() as u64) as usize]
    }

    /// Random primitives on `bx`, `nq` components, in the scratch layout:
    /// smooth zones, strong jumps and supersonic flow, zones at and below
    /// the floors, cold (`c_s = 0`) zones, and runs of equal zones (no
    /// slope). A case is cold everywhere one time in four, which is where
    /// a contact's denominator vanishes.
    fn random_primitives(rng: &mut TestRng, bx: IndexBox, nq: usize) -> Vec<Real> {
        let zones = bx.num_zones() as usize;
        let mut q = vec![0.0; zones * nq];
        let all_cold = rng.next_u64().is_multiple_of(4);
        let mut zone = vec![0.0; nq];
        for z in 0..zones {
            let regime = if all_cold { 6 } else { rng.next_u64() % 8 };
            let (rho, vel, p, e, cs) = match regime {
                0..=3 => (
                    uniform(rng, 0.5, 2.0),
                    [(); 3].map(|_| uniform(rng, -1.0, 1.0)),
                    uniform(rng, 0.5, 2.0),
                    uniform(rng, 0.5, 2.0),
                    uniform(rng, 0.5, 1.5),
                ),
                4 => (
                    10f64.powf(uniform(rng, -3.0, 1.0)),
                    [(); 3].map(|_| uniform(rng, -30.0, 30.0)),
                    10f64.powf(uniform(rng, -3.0, 1.0)),
                    10f64.powf(uniform(rng, -3.0, 1.0)),
                    uniform(rng, 0.1, 3.0),
                ),
                5 => (
                    one_of(rng, &[1e-14, 1e-13, 2e-12, 1.0]),
                    [(); 3].map(|_| uniform(rng, -1.0, 1.0)),
                    one_of(rng, &[-0.5, 0.0, 1e-31, 1.0]),
                    one_of(rng, &[-0.5, 0.0, 1e-3, 1.0]),
                    uniform(rng, 0.0, 2.0),
                ),
                6 => (
                    uniform(rng, 0.5, 2.0),
                    [(); 3].map(|_| uniform(rng, -1.0, 1.0)),
                    uniform(rng, 0.5, 2.0),
                    uniform(rng, 0.5, 2.0),
                    0.0,
                ),
                _ => {
                    // A copy of the zone before: a run with no slope.
                    for c in 0..nq {
                        q[c * zones + z] = zone[c];
                    }
                    continue;
                }
            };
            zone[Q::RHO] = rho;
            zone[Q::U..Q::U + 3].copy_from_slice(&vel);
            zone[Q::P] = p;
            zone[Q::E] = e;
            zone[Q::C] = cs;
            for x in &mut zone[Q::FS..] {
                *x = uniform(rng, -0.2, 1.2);
            }
            for c in 0..nq {
                q[c * zones + z] = zone[c];
            }
        }
        q
    }

    /// Random conserved states on `bx` for `eos`: densities down through
    /// the floor, negative internal energies (the dual-energy guard),
    /// species outside [0, 1], and temperature seeds that are the answer,
    /// near it, far from it or below the floor.
    fn random_conserved(
        rng: &mut TestRng,
        bx: IndexBox,
        layout: &StateLayout,
        eos: &dyn Eos,
        species: &[Species],
        stellar: bool,
    ) -> Vec<Real> {
        let (zones, ncomp) = (bx.num_zones() as usize, layout.ncomp());
        let mut u = vec![0.0; zones * ncomp];
        for z in 0..zones {
            let mut set = |c: usize, v: Real| u[c * zones + z] = v;
            let x: Vec<Real> = (0..layout.nspec).map(|_| uniform(rng, -0.2, 1.2)).collect();
            let (rho, t, e, speed) = if stellar {
                let rho = 10f64.powf(uniform(rng, -2.0, 8.0));
                let t = 10f64.powf(uniform(rng, 5.0, 9.5));
                let xc: Vec<Real> = x.iter().map(|x| x.clamp(1e-3, 1.0)).collect();
                let comp = Composition::from_mass_fractions(species, &xc);
                let e = eos.eval_rt(rho, t, &comp).e * uniform(rng, 0.8, 1.2);
                (rho, t, e, 1e8)
            } else {
                let rho = 10f64.powf(uniform(rng, -14.0, 1.0));
                let e = uniform(rng, -0.5, 2.0);
                (rho, e * 1e-8, e, 3.0)
            };
            let vel = [(); 3].map(|_| uniform(rng, -speed, speed));
            let ke = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
            set(StateLayout::RHO, rho);
            for d in 0..3 {
                set(StateLayout::MX + d, rho * vel[d]);
            }
            set(StateLayout::EDEN, rho * (e + ke));
            set(StateLayout::EINT, rho * e * uniform(rng, -0.1, 1.5));
            let seed = t * one_of(rng, &[1.0, 1.0 + 1e-13, 1.3, 0.02, 50.0, 0.0]);
            set(StateLayout::TEMP, seed);
            for (s, x) in x.iter().enumerate() {
                set(layout.spec(s), rho * x);
            }
        }
        u
    }

    /// One case of the oracle property: `n` zones along x, every kernel on
    /// sentinel-filled scratch beside its oracle, whole buffers compared.
    #[allow(clippy::too_many_arguments)]
    fn oracle_case(
        rng: &mut TestRng,
        n: i32,
        dim: usize,
        structure: KernelStructure,
        eos: &dyn Eos,
        species: &[Species],
        floors: Floors,
        stellar: bool,
    ) -> Result<(), String> {
        let layout = StateLayout::new(species.len());
        let hydro = Hydro {
            cfl: 0.5,
            structure,
            floors,
        };
        let ex = ExecSpace::Serial;
        let (nq, ncomp, nflux) = (Q::ncomp(layout.nspec), layout.ncomp(), layout.ncomp() + 1);
        let vb = IndexBox::new(IntVect::splat(0), IntVect::new(n - 1, 1, 2));
        let grown = vb.grow(2);
        let sentinel = |bx: IndexBox, nc: usize| vec![SENTINEL; bx.num_zones() as usize * nc];

        // Primitives of the sweep's zones from random conserved states.
        let mut sbuf = random_conserved(rng, grown, &layout, eos, species, stellar);
        let region = vb.grow_dir(dim, 2);
        let (mut qk, mut qo) = (sentinel(grown, nq), sentinel(grown, nq));
        {
            let sarr = Array4Mut::from_slice(&mut sbuf, grown, ncomp);
            let (qk, qo) = (
                Array4Mut::from_slice(&mut qk, grown, nq),
                Array4Mut::from_slice(&mut qo, grown, nq),
            );
            hydro.primitives_region(&sarr, region, &layout, eos, species, &ex, &qk);
            reference::primitives(&sarr, region, &layout, eos, species, &floors, &qo);
        }
        compare("primitives", grown, nq, &qk, &qo)?;

        // Slopes and fluxes from random primitives.
        let mut q = random_primitives(rng, grown, nq);
        let dtdx = uniform(rng, 0.05, 1.0);
        let staged = structure == KernelStructure::Legacy;
        let (faces, fbox) = (face_box(vb, dim), face_box(vb, dim).grow_dir(0, 1));
        let (mut sk, mut so) = (sentinel(grown, nq), sentinel(grown, nq));
        let (mut fk, mut fo) = (sentinel(fbox, nflux), sentinel(fbox, nflux));
        {
            let qarr = Array4Mut::from_slice(&mut q, grown, nq);
            let (sk, so) = (
                Array4Mut::from_slice(&mut sk, grown, nq),
                Array4Mut::from_slice(&mut so, grown, nq),
            );
            let (fk, fo) = (
                Array4Mut::from_slice(&mut fk, fbox, nflux),
                Array4Mut::from_slice(&mut fo, fbox, nflux),
            );
            if staged {
                hydro.slopes_region(vb.grow_dir(dim, 1), &qarr, &sk, dim, &ex);
                reference::slopes(vb.grow_dir(dim, 1), &qarr, &so, dim);
            }
            let (sk, so) = (staged.then_some(&sk), staged.then_some(&so));
            hydro.flux_region(faces, &qarr, sk, &fk, dim, dtdx, &layout, &ex);
            reference::fluxes(faces, &qarr, so, &fo, dim, dtdx, &layout, &floors);
        }
        compare("slopes", grown, nq, &sk, &so)?;
        compare("fluxes", fbox, nflux, &fk, &fo)?;

        // The update of random conserved states from those fluxes.
        let mut uk = random_conserved(rng, grown, &layout, eos, species, stellar);
        let mut uo = uk.clone();
        {
            let (qarr, farr) = (
                Array4Mut::from_slice(&mut q, grown, nq),
                Array4Mut::from_slice(&mut fo, fbox, nflux),
            );
            let (uk, uo) = (
                Array4Mut::from_slice(&mut uk, grown, ncomp),
                Array4Mut::from_slice(&mut uo, grown, ncomp),
            );
            hydro.update_region(vb, &farr, &qarr, &uk, dim, dtdx, &layout, &ex);
            let small_dens = floors.small_dens;
            reference::update(vb, &farr, &qarr, &uo, dim, dtdx, &layout, small_dens);
        }
        compare("update", grown, ncomp, &uk, &uo)
    }

    #[test]
    fn row_kernels_match_the_per_face_oracle_bit_for_bit() {
        // Rows of 1..=9 zones — every partial last lane chunk, and rows
        // shorter than one — swept along each dimension by both structures,
        // against the per-zone and per-face code the row kernels replaced
        // (`reference`), and through every branch of that code.
        let mut rng = TestRng::from_name("row_kernels_match_the_per_face_oracle_bit_for_bit");
        let (cburn2, aprox13) = (CBurn2::new(), Aprox13::new());
        let (gamma_law, stellar) = (GammaLaw::monatomic(), StellarEos);
        for case in 0..600 {
            let n = Strategy::sample(&(1i32..=9), &mut rng);
            let dim = Strategy::sample(&(0usize..3), &mut rng);
            let structure = [KernelStructure::Flat, KernelStructure::Legacy][case % 2];
            let species = [cburn2.species(), aprox13.species()][case / 2 % 2];
            let (eos, floors, physical): (&dyn Eos, _, _) = match case / 4 % 3 {
                0 => (&gamma_law, Floors::dimensionless(), false),
                1 => (&gamma_law, Floors::default(), false),
                _ => (&stellar, Floors::default(), true),
            };
            let outcome = oracle_case(&mut rng, n, dim, structure, eos, species, floors, physical);
            if let Err(e) = outcome {
                panic!("case {case} ({n} zones, dim {dim}, {structure:?}): {e}");
            }
        }
        let hits = reference::hits();
        let missed: Vec<_> = (0..reference::BRANCHES).filter(|&b| hits[b] == 0).collect();
        assert!(
            missed.is_empty(),
            "branches never taken: {missed:?} of {hits:?}"
        );
    }
}
