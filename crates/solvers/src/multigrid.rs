//! Geometric multigrid for cell-centred Poisson/Helmholtz problems.
//!
//! Both astro codes depend on global linear solves: Castro's self-gravity
//! and MAESTROeX's low-Mach projection are Poisson solves performed with
//! multigrid, and at scale they are "extremely communication bound" — at
//! 125 nodes the reacting-bubble problem spends ~6× more time in the
//! multigrid solve than in the reactions (§IV-B). Every ghost exchange and
//! reduction performed here is therefore recorded in a [`CommTrace`] ledger
//! per level, which the `exastro-machine` simulator prices to reproduce
//! Figure 3.
//!
//! The solver is a classic V-cycle: red–black Gauss–Seidel smoothing,
//! full-weighting restriction (conservative average), piecewise-constant
//! prolongation, and a smoother-iterated coarsest solve. Inhomogeneous
//! boundary data is handled by always solving the *residual* equation with
//! homogeneous boundary conditions (callers pre-fill ghost values on the
//! initial guess).
//!
//! A solve exchanges φ's ghosts before every colour of every sweep and
//! every residual — about a thousand times, most of them on the smallest
//! level — so each level plans its exchange once, when it is built, and
//! every later exchange only re-runs that [`ExchangePlan`]. The level
//! kernels walk zone cursors over [`Array4Mut`] views, one box after the
//! other on the calling thread. Zones of one colour read only zones of the
//! other colour and ghosts filled before the colour started, so they are
//! mutually independent: φ, the residuals and the ledger have the same
//! bits in any zone order, which the tests hold against a per-`IntVect`
//! V-cycle (`reference.rs`).

use exastro_amr::{
    average_down, for_each_row, Array4, Array4Mut, BoxArray, CommTrace, DistStrategy,
    DistributionMapping, ExchangePlan, Geometry, IndexBox, IntVect, MultiFab, Real,
};
use exastro_parallel::Telemetry;
use std::sync::OnceLock;

#[cfg(test)]
mod reference;

/// Boundary condition on each face for the multigrid operator (applied
/// homogeneously; see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MgBc {
    /// Periodic (handled by ghost exchange).
    Periodic,
    /// Value fixed to zero at the domain face.
    Dirichlet,
    /// Zero normal gradient at the domain face.
    Neumann,
}

/// Smoothing sweeps per level before and after the coarse correction.
const NU_PRE: usize = 2;
const NU_POST: usize = 2;

/// Multigrid options.
#[derive(Clone, Debug)]
pub struct MgOptions {
    /// Target: ‖residual‖∞ ≤ `tol_rel` · ‖rhs‖∞.
    pub tol_rel: Real,
    /// Maximum V-cycles.
    pub max_cycles: usize,
    /// Smoothing sweeps on the coarsest level.
    pub nu_bottom: usize,
    /// Stop coarsening when any dimension would fall below this.
    pub min_width: i32,
}

impl Default for MgOptions {
    fn default() -> Self {
        MgOptions {
            tol_rel: 1e-10,
            max_cycles: 60,
            nu_bottom: 64,
            min_width: 4,
        }
    }
}

/// Communication ledger for one level of one solve.
#[derive(Clone, Debug, Default)]
pub struct LevelComm {
    /// Ghost-exchange traffic accumulated on this level.
    pub trace: CommTrace,
    /// Number of ghost exchanges performed.
    pub exchanges: u64,
    /// Smoother sweeps performed.
    pub sweeps: u64,
    /// Zones on this level.
    pub zones: i64,
    /// Number of boxes on this level.
    pub boxes: usize,
}

/// Solve statistics.
#[derive(Clone, Debug, Default)]
pub struct MgStats {
    /// V-cycles taken.
    pub cycles: usize,
    /// Initial ‖residual‖∞.
    pub res0: Real,
    /// Final ‖residual‖∞.
    pub res: Real,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Per-level communication ledgers (0 = finest).
    pub levels: Vec<LevelComm>,
    /// Global reductions performed (norms; one allreduce each).
    pub allreduces: u64,
}

struct MgLevel {
    geom: Geometry,
    phi: MultiFab,
    rhs: MultiFab,
    res: MultiFab,
    /// `phi`'s one-deep ghost exchange, planned when the level is built and
    /// re-run before every colour and every residual.
    plan: ExchangePlan,
    /// The operator's off-diagonal weights `β/dx_d²` and its diagonal.
    bx2: [Real; 3],
    diag: Real,
    /// One fab per box, on this level's boxes coarsened by 2: the residual
    /// is averaged into it before it is copied onto the next level's boxes,
    /// and that level's correction is copied into it before it is added to
    /// `phi`. `None` on the coarsest level.
    coarsened: Option<MultiFab>,
}

impl MgLevel {
    /// Exchange `phi`'s ghosts between boxes and periodic images.
    fn exchange(&mut self, ledger: &mut LevelComm) {
        ledger.trace.merge(self.plan.fill(&mut self.phi));
        ledger.exchanges += 1;
    }
}

/// Region name of level `l`. A cycle names each level three times, so
/// the names are built once; a domain of `i32` extents halves fewer than
/// 32 times.
fn level_name(l: usize) -> &'static str {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    &NAMES.get_or_init(|| (0..32).map(|l| format!("level{l}")).collect())[l]
}

/// Relax the zones of `vb` whose `i + j + k` has parity `color`: each
/// x-row from its first zone of that parity, every second zone.
fn relax_color(
    phi: &Array4Mut<'_>,
    rhs: &Array4<'_>,
    vb: IndexBox,
    color: i64,
    bx2: [Real; 3],
    diag: Real,
) {
    let strides = [1, phi.stride(1), phi.stride(2)];
    for_each_row(vb, |row, n| {
        let first = ((row.sum() + color) & 1) as usize;
        let z0 = phi.zone(row.x(), row.y(), row.z());
        let r0 = rhs.zone(row.x(), row.y(), row.z());
        for x in (first..n).step_by(2) {
            let z = z0 + x;
            let mut off = 0.0;
            for d in 0..3 {
                let (up, down) = (z + strides[d], z - strides[d]);
                off += bx2[d] * (phi.at_zone(up, 0) + phi.at_zone(down, 0));
            }
            phi.set_zone(z, 0, (rhs.at_zone(r0 + x, 0) - off) / diag);
        }
    });
}

/// `res = rhs − L φ` over `vb`; returns max |res|.
fn residual_box(
    phi: &Array4Mut<'_>,
    rhs: &Array4<'_>,
    res: &Array4Mut<'_>,
    vb: IndexBox,
    bx2: [Real; 3],
    diag: Real,
) -> Real {
    let strides = [1, phi.stride(1), phi.stride(2)];
    let mut rmax: Real = 0.0;
    for_each_row(vb, |row, n| {
        let z0 = phi.zone(row.x(), row.y(), row.z());
        let r0 = rhs.zone(row.x(), row.y(), row.z());
        let o0 = res.zone(row.x(), row.y(), row.z());
        for x in 0..n {
            let z = z0 + x;
            let mut lap = diag * phi.at_zone(z, 0);
            for d in 0..3 {
                let (up, down) = (z + strides[d], z - strides[d]);
                lap += bx2[d] * (phi.at_zone(up, 0) + phi.at_zone(down, 0));
            }
            let r = rhs.at_zone(r0 + x, 0) - lap;
            res.set_zone(o0 + x, 0, r);
            rmax = rmax.max(r.abs());
        }
    });
    rmax
}

/// Piecewise-constant prolongation: add to every zone of `vb` the value of
/// its parent zone in `coarse`.
fn add_parents(phi: &Array4Mut<'_>, coarse: &Array4<'_>, vb: IndexBox) {
    for_each_row(vb, |row, n| {
        let parent = row.coarsen(IntVect::splat(2));
        let z0 = phi.zone(row.x(), row.y(), row.z());
        let c0 = coarse.zone(parent.x(), parent.y(), parent.z());
        // An odd first zone is the second child of its parent.
        let odd = (row.x() & 1) as usize;
        for x in 0..n {
            phi.add_zone(z0 + x, 0, coarse.at_zone(c0 + (x + odd) / 2, 0));
        }
    });
}

/// The multigrid solver for `α a φ − β ∇²φ = rhs` with constant scalars
/// (Poisson: α = 0, β = −1 gives `∇²φ = rhs`).
pub struct Multigrid {
    alpha: Real,
    beta: Real,
    bc: [MgBc; 3],
    opts: MgOptions,
}

impl Multigrid {
    /// A Poisson solver `∇²φ = rhs`. (Internally `beta` multiplies the
    /// discrete Laplacian: the operator applied is `α φ + β ∇²φ`.)
    pub fn poisson(bc: [MgBc; 3], opts: MgOptions) -> Self {
        Multigrid {
            alpha: 0.0,
            beta: 1.0,
            bc,
            opts,
        }
    }

    /// A Helmholtz solver `α φ − β ∇²φ = rhs`.
    pub fn helmholtz(alpha: Real, beta: Real, bc: [MgBc; 3], opts: MgOptions) -> Self {
        Multigrid {
            alpha,
            beta: -beta,
            bc,
            opts,
        }
    }

    /// Fill one fab's ghosts beyond the non-periodic domain faces for the
    /// homogeneous operator: each ghost layer is its mirror-image layer
    /// inside the face, as is (Neumann) or negated (Dirichlet). Dimensions
    /// go in order and a layer spans the whole grown box, so edge and
    /// corner ghosts read what the exchange or an earlier dimension filled.
    fn fill_walls(&self, phi: &Array4Mut<'_>, domain: IndexBox) {
        let gb = phi.index_box();
        for d in 0..3 {
            let sign = match self.bc[d] {
                MgBc::Periodic => continue,
                MgBc::Dirichlet => -1.0,
                MgBc::Neumann => 1.0,
            };
            // A wall sits between layers `face − 1` and `face`.
            let (low, high) = (domain.lo()[d], domain.hi()[d] + 1);
            for (face, ghosts) in [(low, gb.lo()[d]..low), (high, high..gb.hi()[d] + 1)] {
                for layer in ghosts {
                    let mirror = (2 * face - 1 - layer).clamp(gb.lo()[d], gb.hi()[d]);
                    let (mut lo, mut hi) = (gb.lo(), gb.hi());
                    lo[d] = layer;
                    hi[d] = layer;
                    for_each_row(IndexBox::new(lo, hi), |row, n| {
                        let mut src = row;
                        src[d] = mirror;
                        let z = phi.zone(row.x(), row.y(), row.z());
                        let s = phi.zone(src.x(), src.y(), src.z());
                        for x in 0..n {
                            phi.set_zone(z + x, 0, phi.at_zone(s + x, 0) * sign);
                        }
                    });
                }
            }
        }
    }

    /// One red-black Gauss–Seidel sweep (both colours, with a ghost
    /// exchange before each).
    fn smooth(&self, lev: &mut MgLevel, ledger: &mut LevelComm) {
        let domain = lev.geom.domain();
        for color in 0..2 {
            lev.exchange(ledger);
            for i in 0..lev.phi.nfabs() {
                let phi = lev.phi.fab_mut(i).array_mut();
                self.fill_walls(&phi, domain);
                let rhs = lev.rhs.fab(i).array();
                relax_color(&phi, &rhs, lev.rhs.valid_box(i), color, lev.bx2, lev.diag);
            }
        }
        ledger.sweeps += 1;
    }

    /// Residual `res = rhs − L φ` on a level; returns ‖res‖∞.
    fn residual(&self, lev: &mut MgLevel, ledger: &mut LevelComm) -> Real {
        lev.exchange(ledger);
        let domain = lev.geom.domain();
        let mut rmax: Real = 0.0;
        for i in 0..lev.phi.nfabs() {
            let (phi, res) = (
                lev.phi.fab_mut(i).array_mut(),
                lev.res.fab_mut(i).array_mut(),
            );
            self.fill_walls(&phi, domain);
            let (rhs, vb) = (lev.rhs.fab(i).array(), lev.rhs.valid_box(i));
            rmax = rmax.max(residual_box(&phi, &rhs, &res, vb, lev.bx2, lev.diag));
        }
        rmax
    }

    fn build_levels(
        &self,
        geom: &Geometry,
        ba: &BoxArray,
        dm: &DistributionMapping,
    ) -> Vec<MgLevel> {
        let mut levels = Vec::new();
        let mut g = geom.clone();
        let mut cur_ba = ba.clone();
        let mut cur_dm = dm.clone();
        loop {
            let size = g.domain().size();
            let coarsenable =
                (0..3).all(|d| size[d] % 2 == 0 && size[d] / 2 >= self.opts.min_width);
            let dx = g.dx();
            let bx2 = [
                self.beta / (dx[0] * dx[0]),
                self.beta / (dx[1] * dx[1]),
                self.beta / (dx[2] * dx[2]),
            ];
            let phi = MultiFab::new(cur_ba.clone(), cur_dm.clone(), 1, 1);
            levels.push(MgLevel {
                plan: phi.plan_fill_boundary(&g, IntVect::splat(1)),
                phi,
                rhs: MultiFab::new(cur_ba.clone(), cur_dm.clone(), 1, 0),
                res: MultiFab::new(cur_ba.clone(), cur_dm.clone(), 1, 0),
                bx2,
                diag: self.alpha - 2.0 * (bx2[0] + bx2[1] + bx2[2]),
                coarsened: coarsenable
                    .then(|| MultiFab::new(cur_ba.coarsen(2), cur_dm.clone(), 1, 0)),
                geom: g.clone(),
            });
            if !coarsenable {
                break;
            }
            // Coarsen the domain and re-decompose (agglomeration): fewer,
            // larger boxes at coarse levels, as AMReX MLMG does.
            let cdomain = g.domain().coarsen(2);
            g = Geometry::new(cdomain, g.prob_lo(), g.prob_hi(), g.periodic(), g.coord());
            let max_w = cdomain
                .size()
                .max_component()
                .min(32)
                .max(self.opts.min_width);
            cur_ba = BoxArray::decompose(cdomain, max_w, 2);
            cur_dm = DistributionMapping::new(&cur_ba, cur_dm.nranks(), DistStrategy::Sfc);
        }
        levels
    }

    fn vcycle(&self, levels: &mut [MgLevel], l: usize, stats: &mut MgStats) {
        // Per-level telemetry: the guard is scoped so the recursive descent
        // runs *outside* it, keeping level paths flat (mg_solve/level0,
        // mg_solve/level1, ...) instead of nesting with recursion depth.
        {
            let _r = Telemetry::region(level_name(l));
            let (fine, coarser) = levels.split_at_mut(l + 1);
            let f = &mut fine[l];
            let Some(c) = coarser.first_mut() else {
                for _ in 0..self.opts.nu_bottom {
                    self.smooth(f, &mut stats.levels[l]);
                }
                return;
            };
            for _ in 0..NU_PRE {
                self.smooth(f, &mut stats.levels[l]);
            }
            self.residual(f, &mut stats.levels[l]);
            // Restrict the residual to the coarse rhs (conservative
            // average): it lives on the fine boxes, so it is averaged onto
            // their coarsened images and copied across box arrays from
            // there. Zero the coarse correction.
            c.phi.set_val_all(0.0);
            let coarsened = f.coarsened.as_mut().expect("not the coarsest level");
            average_down(&f.res, coarsened, 2);
            let trace = c.rhs.copy_from_other_ba(coarsened, 0, 1);
            stats.levels[l + 1].trace.merge(&trace);
            stats.levels[l + 1].exchanges += 1;
        }
        self.vcycle(levels, l + 1, stats);
        let _r = Telemetry::region(level_name(l));
        // Prolong the coarse correction (piecewise constant) and add.
        let (fine, coarser) = levels.split_at_mut(l + 1);
        let f = &mut fine[l];
        let coarsened = f.coarsened.as_mut().expect("not the coarsest level");
        let trace = coarsened.copy_from_other_ba(&coarser[0].phi, 0, 1);
        stats.levels[l].trace.merge(&trace);
        for i in 0..f.phi.nfabs() {
            let phi = f.phi.fab_mut(i).array_mut();
            add_parents(&phi, &coarsened.fab(i).array(), f.rhs.valid_box(i));
        }
        for _ in 0..NU_POST {
            self.smooth(f, &mut stats.levels[l]);
        }
    }

    /// Solve `L φ = rhs`. `phi` (1 component, ≥1 ghost zone) holds the
    /// initial guess — including any inhomogeneous boundary ghost values —
    /// and receives the solution. Returns solve statistics with the
    /// communication ledger.
    ///
    /// Panics, in every build, unless each dimension is periodic in both
    /// `geom` and the solver's [`MgBc`]s or in neither: the exchange fills
    /// a periodic dimension's ghosts and the wall fill the others', so a
    /// mismatch would leave ghosts stale or override the wall condition.
    pub fn solve(&self, phi: &mut MultiFab, rhs: &MultiFab, geom: &Geometry) -> MgStats {
        let _prof = Telemetry::region("mg_solve");
        assert!(phi.ngrow() >= 1, "phi needs ghost zones");
        assert_eq!(phi.ncomp(), 1);
        assert_eq!(rhs.ncomp(), 1);
        for d in 0..3 {
            assert!(
                geom.periodic()[d] == (self.bc[d] == MgBc::Periodic),
                "dimension {d}: the geometry is {}periodic but the multigrid BC is {:?}",
                if geom.periodic()[d] { "" } else { "not " },
                self.bc[d]
            );
        }
        let mut levels = self.build_levels(geom, phi.box_array(), phi.dist_map());
        let mut stats = MgStats {
            levels: levels
                .iter()
                .map(|l| LevelComm {
                    zones: l.phi.box_array().total_zones(),
                    boxes: l.phi.box_array().len(),
                    ..LevelComm::default()
                })
                .collect(),
            ..MgStats::default()
        };
        // Finest level holds the actual problem: whole fabs (valid + ghost),
        // so caller-supplied inhomogeneous ghost data comes along.
        for i in 0..phi.nfabs() {
            let top = levels[0].phi.fab_mut(i);
            top.data_mut().copy_from_slice(phi.fab(i).data());
        }
        levels[0].rhs.copy_from(rhs);

        let rhs_norm = rhs.norm_inf(0);
        stats.allreduces += 1;
        let target = self.opts.tol_rel * rhs_norm;
        stats.res0 = self.residual(&mut levels[0], &mut stats.levels[0]);
        stats.allreduces += 1;
        let mut res = stats.res0;
        while res > target.max(1e-300) && stats.cycles < self.opts.max_cycles {
            self.vcycle(&mut levels, 0, &mut stats);
            stats.cycles += 1;
            res = self.residual(&mut levels[0], &mut stats.levels[0]);
            stats.allreduces += 1;
            if !res.is_finite() {
                break;
            }
        }
        stats.res = res;
        stats.converged = res <= target.max(1e-300);
        phi.copy_from(&levels[0].phi);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_amr::IndexBox;
    use std::f64::consts::PI;

    fn periodic_setup(n: i32, max_grid: i32) -> (Geometry, MultiFab, MultiFab) {
        let geom = Geometry::cube(n, 1.0, true);
        let ba = BoxArray::decompose(geom.domain(), max_grid, 4);
        let dm = DistributionMapping::new(&ba, 4, DistStrategy::Sfc);
        let phi = MultiFab::new(ba.clone(), dm.clone(), 1, 1);
        let rhs = MultiFab::new(ba, dm, 1, 0);
        (geom, phi, rhs)
    }

    #[test]
    fn poisson_periodic_sinusoid() {
        // ∇²φ = rhs with φ = sin(2πx)sin(2πy)sin(2πz):
        // rhs = -12π² φ.
        let n = 32;
        let (geom, mut phi, mut rhs) = periodic_setup(n, 16);
        let k = 2.0 * PI;
        let exact = |x: [Real; 3]| (k * x[0]).sin() * (k * x[1]).sin() * (k * x[2]).sin();
        for i in 0..rhs.nfabs() {
            let vb = rhs.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                rhs.fab_mut(i).set(iv, 0, -3.0 * k * k * exact(x));
            }
        }
        let mg = Multigrid::poisson([MgBc::Periodic; 3], MgOptions::default());
        let stats = mg.solve(&mut phi, &rhs, &geom);
        assert!(stats.converged, "residual {} of {}", stats.res, stats.res0);
        assert!(stats.cycles < 30, "{} cycles", stats.cycles);
        // Compare to the exact solution up to discretization error O(h²)
        // and the arbitrary constant (periodic nullspace): subtract means.
        let mean_num: Real = phi.sum(0) / geom.domain().num_zones() as Real;
        let mut err_max: Real = 0.0;
        for i in 0..phi.nfabs() {
            let vb = phi.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                let e = (phi.fab(i).get(iv, 0) - mean_num) - exact(x);
                err_max = err_max.max(e.abs());
            }
        }
        assert!(err_max < 0.02, "solution error {err_max}");
    }

    #[test]
    fn residual_reduction_rate_is_multigrid_like() {
        // A healthy V(2,2) cycle reduces the residual by ~an order of
        // magnitude per cycle.
        let (geom, mut phi, mut rhs) = periodic_setup(32, 8);
        // Random-ish zero-mean rhs.
        let mut seed = 9u64;
        let mut total = 0.0;
        for i in 0..rhs.nfabs() {
            let vb = rhs.valid_box(i);
            for iv in vb.iter() {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((seed >> 33) as Real / (1u64 << 31) as Real) - 0.5;
                rhs.fab_mut(i).set(iv, 0, v);
                total += v;
            }
        }
        let mean = total / geom.domain().num_zones() as Real;
        for i in 0..rhs.nfabs() {
            let vb = rhs.valid_box(i);
            for iv in vb.iter() {
                let v = rhs.fab(i).get(iv, 0) - mean;
                rhs.fab_mut(i).set(iv, 0, v);
            }
        }
        let mg = Multigrid::poisson(
            [MgBc::Periodic; 3],
            MgOptions {
                tol_rel: 1e-11,
                ..Default::default()
            },
        );
        let stats = mg.solve(&mut phi, &rhs, &geom);
        assert!(stats.converged);
        let per_cycle = (stats.res0 / stats.res.max(1e-300)).powf(1.0 / stats.cycles as Real);
        assert!(
            per_cycle > 4.0,
            "reduction per cycle only {per_cycle:.2} over {} cycles",
            stats.cycles
        );
    }

    #[test]
    fn dirichlet_solution_matches_manufactured() {
        // φ = sin(πx) sin(πy) sin(πz) vanishes on all faces of [0,1]³.
        let n = 32;
        let geom = Geometry::cube(n, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 16, 4);
        let mut phi = MultiFab::local(ba.clone(), 1, 1);
        let mut rhs = MultiFab::local(ba, 1, 0);
        let exact = |x: [Real; 3]| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
        for i in 0..rhs.nfabs() {
            let vb = rhs.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                rhs.fab_mut(i).set(iv, 0, -3.0 * PI * PI * exact(x));
            }
        }
        let mg = Multigrid::poisson([MgBc::Dirichlet; 3], MgOptions::default());
        let stats = mg.solve(&mut phi, &rhs, &geom);
        assert!(stats.converged, "res {} / {}", stats.res, stats.res0);
        let mut err_max: Real = 0.0;
        for i in 0..phi.nfabs() {
            let vb = phi.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                err_max = err_max.max((phi.fab(i).get(iv, 0) - exact(x)).abs());
            }
        }
        assert!(err_max < 0.01, "error {err_max}");
    }

    #[test]
    fn helmholtz_constant_solution() {
        // α φ = rhs with β = 0 … use α=2, β tiny via helmholtz(2, 0):
        // actually test α φ − β∇²φ with φ constant: ∇²φ = 0, so φ = rhs/α.
        let (geom, mut phi, mut rhs) = periodic_setup(16, 8);
        rhs.set_val(0, 6.0);
        let mg = Multigrid::helmholtz(2.0, 1.0, [MgBc::Periodic; 3], MgOptions::default());
        let stats = mg.solve(&mut phi, &rhs, &geom);
        assert!(stats.converged);
        for i in 0..phi.nfabs() {
            let vb = phi.valid_box(i);
            for iv in vb.iter() {
                assert!((phi.fab(i).get(iv, 0) - 3.0).abs() < 1e-8);
            }
        }
        let _ = geom;
    }

    #[test]
    fn comm_ledger_is_populated_and_coarse_levels_cheaper() {
        let (geom, mut phi, mut rhs) = periodic_setup(32, 8);
        rhs.set_val(0, 1.0);
        // Zero-mean for periodic solvability.
        let mean = rhs.sum(0) / geom.domain().num_zones() as Real;
        for i in 0..rhs.nfabs() {
            let vb = rhs.valid_box(i);
            for iv in vb.iter() {
                let v = rhs.fab(i).get(iv, 0) - mean;
                rhs.fab_mut(i).set(iv, 0, v);
            }
        }
        let mg = Multigrid::poisson([MgBc::Periodic; 3], MgOptions::default());
        let stats = mg.solve(&mut phi, &rhs, &geom);
        assert!(stats.levels.len() >= 3, "expected a level hierarchy");
        assert!(stats.allreduces >= 2);
        let finest = &stats.levels[0];
        assert!(finest.exchanges > 0);
        assert!(finest.trace.network_bytes() + finest.trace.local_bytes > 0);
        // Coarser levels move fewer bytes per exchange.
        let finest_bytes = finest.trace.network_bytes() + finest.trace.local_bytes;
        let last = stats.levels.last().unwrap();
        let last_bytes = last.trace.network_bytes() + last.trace.local_bytes;
        assert!(
            last_bytes < finest_bytes,
            "coarsest {last_bytes} vs finest {finest_bytes}"
        );
        // Level sizes shrink by ~8× per level.
        for w in stats.levels.windows(2) {
            assert!(w[1].zones < w[0].zones);
        }
    }

    #[test]
    fn singular_rhs_nonconvergence_is_reported() {
        // Periodic Poisson with non-zero-mean rhs has no solution; the
        // solver must not report convergence (the residual stalls at the
        // mean).
        let (geom, mut phi, mut rhs) = periodic_setup(16, 8);
        rhs.set_val(0, 1.0);
        let mg = Multigrid::poisson(
            [MgBc::Periodic; 3],
            MgOptions {
                max_cycles: 8,
                ..Default::default()
            },
        );
        let stats = mg.solve(&mut phi, &rhs, &geom);
        assert!(!stats.converged);
        let _ = geom;
    }

    /// Bits of every value of every fab, ghosts included.
    fn bits(mf: &MultiFab) -> Vec<Vec<u64>> {
        (0..mf.nfabs())
            .map(|i| mf.fab(i).data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Solve one problem with the solver and with the per-zone serial
    /// V-cycle it replaced (`reference.rs`); φ, the residuals, the counts
    /// and every level's ledger must agree bit for bit. The rhs is
    /// zero-mean noise and the initial guess is nonzero, ghosts included.
    fn assert_matches_reference(
        mg: &Multigrid,
        geom: &Geometry,
        ba: BoxArray,
        solve: impl Fn(&mut MultiFab, &MultiFab) -> MgStats,
        what: &str,
    ) {
        let dm = DistributionMapping::new(&ba, 3, DistStrategy::Sfc);
        let mut rhs = MultiFab::new(ba.clone(), dm.clone(), 1, 0);
        let mut seed = 17u64;
        let mut noise = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as Real / (1u64 << 31) as Real - 0.5
        };
        for i in 0..rhs.nfabs() {
            for v in rhs.fab_mut(i).data_mut() {
                *v = noise();
            }
        }
        let mean = rhs.sum(0) / geom.domain().num_zones() as Real;
        for i in 0..rhs.nfabs() {
            for v in rhs.fab_mut(i).data_mut() {
                *v -= mean;
            }
        }
        let mut phi = MultiFab::new(ba, dm, 1, 1);
        for i in 0..phi.nfabs() {
            for v in phi.fab_mut(i).data_mut() {
                *v = 1e-3 * noise();
            }
        }
        let mut expect_phi = phi.clone();
        let expect = reference::solve(mg, &mut expect_phi, &rhs, geom);
        let stats = solve(&mut phi, &rhs);
        assert!(expect.cycles > 0 && expect.levels.len() >= 2, "{what}");
        assert_eq!(bits(&phi), bits(&expect_phi), "{what}: phi");
        assert_eq!(stats.cycles, expect.cycles, "{what}");
        assert_eq!(stats.res0.to_bits(), expect.res0.to_bits(), "{what}: res0");
        assert_eq!(stats.res.to_bits(), expect.res.to_bits(), "{what}: res");
        assert_eq!(stats.converged, expect.converged, "{what}");
        assert_eq!(stats.allreduces, expect.allreduces, "{what}");
        assert_eq!(stats.levels.len(), expect.levels.len(), "{what}");
        for (l, (got, want)) in stats.levels.iter().zip(&expect.levels).enumerate() {
            assert_eq!(got.trace, want.trace, "{what}: level {l} trace");
            assert_eq!(
                (got.exchanges, got.sweeps, got.zones, got.boxes),
                (want.exchanges, want.sweeps, want.zones, want.boxes),
                "{what}: level {l}"
            );
        }
    }

    /// Run `f` as a task of a pool region: every region it launches runs
    /// inline on that one thread.
    fn in_a_pool_task<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        let job = std::sync::Mutex::new(Some(f));
        let out = std::sync::Mutex::new(None);
        exastro_parallel::par_index_each(2, 2, |task| {
            if task == 0 {
                let f = job.lock().unwrap().take().expect("task 0 runs once");
                *out.lock().unwrap() = Some(f());
            }
        });
        out.into_inner().unwrap().expect("task 0 ran")
    }

    #[test]
    fn cursor_vcycle_matches_the_per_zone_reference_bit_for_bit() {
        use MgBc::{Dirichlet, Neumann, Periodic};
        let opts = MgOptions {
            max_cycles: 4,
            nu_bottom: 8,
            ..Default::default()
        };
        let every_bc = [
            [Periodic; 3],
            [Neumann; 3],
            [Dirichlet; 3],
            [Periodic, Neumann, Dirichlet],
            [Periodic, Periodic, Neumann],
        ];
        // Extents 16×16×8 over a unit cube: dx differs in z.
        for size in [IntVect::splat(16), IntVect::new(16, 16, 8)] {
            for bc in every_bc {
                let geom = Geometry::new(
                    IndexBox::sized(size),
                    [0.0; 3],
                    [1.0; 3],
                    bc.map(|b| b == Periodic),
                    exastro_amr::CoordSys::Cartesian,
                );
                for (name, mg) in [
                    ("poisson", Multigrid::poisson(bc, opts.clone())),
                    (
                        "helmholtz",
                        Multigrid::helmholtz(2.0, 0.3, bc, opts.clone()),
                    ),
                ] {
                    // One box, then eight (four of the flat domain), on
                    // three ranks.
                    for max_grid in [16, 8] {
                        let what = format!("{name} {bc:?} {size:?} max_grid {max_grid}");
                        let ba = BoxArray::decompose(geom.domain(), max_grid, 2);
                        let top = |phi: &mut MultiFab, rhs: &MultiFab| mg.solve(phi, rhs, &geom);
                        assert_matches_reference(&mg, &geom, ba.clone(), top, &what);
                        let nested = |phi: &mut MultiFab, rhs: &MultiFab| {
                            in_a_pool_task(|| mg.solve(phi, rhs, &geom))
                        };
                        let what = format!("{what}, in a pool task");
                        assert_matches_reference(&mg, &geom, ba, nested, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn a_converged_bubble_shaped_solve_matches_the_reference() {
        // The low-Mach projection's shape: periodic x/y, walls in z, eight
        // boxes above two single-box levels, default sweeps, to tolerance.
        let bc = [MgBc::Periodic, MgBc::Periodic, MgBc::Neumann];
        let geom = Geometry::new(
            IndexBox::cube(16),
            [0.0; 3],
            [3.6e7; 3],
            [true, true, false],
            exastro_amr::CoordSys::Cartesian,
        );
        let opts = MgOptions {
            tol_rel: 1e-9,
            max_cycles: 40,
            ..Default::default()
        };
        let mg = Multigrid::poisson(bc, opts);
        let solve = |phi: &mut MultiFab, rhs: &MultiFab| {
            let stats = mg.solve(phi, rhs, &geom);
            assert!(stats.converged && stats.levels.len() == 3);
            stats
        };
        let ba = BoxArray::decompose(geom.domain(), 8, 2);
        assert_matches_reference(&mg, &geom, ba, solve, "bubble-shaped");
        // Boxes cut at an odd x: a box's first zone is then the second
        // child of its parent, and the coarsened boxes overlap.
        let (left, right) = geom.domain().chop(0, 5);
        let ba = BoxArray::from_boxes(vec![left, right]);
        assert_matches_reference(&mg, &geom, ba, solve, "odd cut");
    }

    fn solve_with_mismatched_bc(periodic: bool, bc: MgBc) {
        let geom = Geometry::new(
            IndexBox::cube(8),
            [0.0; 3],
            [1.0; 3],
            [true, periodic, true],
            exastro_amr::CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(geom.domain(), 8, 2);
        let (mut phi, rhs) = (MultiFab::local(ba.clone(), 1, 1), MultiFab::local(ba, 1, 0));
        let bcs = [MgBc::Periodic, bc, MgBc::Periodic];
        Multigrid::poisson(bcs, MgOptions::default()).solve(&mut phi, &rhs, &geom);
    }

    #[test]
    #[should_panic(
        expected = "dimension 1: the geometry is not periodic but the multigrid BC is Periodic"
    )]
    fn a_periodic_bc_on_a_walled_dimension_is_rejected() {
        // Nothing would fill that dimension's ghosts.
        solve_with_mismatched_bc(false, MgBc::Periodic);
    }

    #[test]
    #[should_panic(
        expected = "dimension 1: the geometry is periodic but the multigrid BC is Neumann"
    )]
    fn a_wall_bc_on_a_periodic_dimension_is_rejected() {
        // The exchange would override the wall condition.
        solve_with_mismatched_bc(true, MgBc::Neumann);
    }

    #[test]
    fn anisotropic_dx_still_converges() {
        let domain = IndexBox::sized(IntVect::new(32, 16, 8));
        let geom = Geometry::new(
            domain,
            [0.0; 3],
            [1.0, 1.0, 1.0], // dx differs per dimension
            [true; 3],
            exastro_amr::CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(domain, 8, 4);
        let mut phi = MultiFab::local(ba.clone(), 1, 1);
        let mut rhs = MultiFab::local(ba, 1, 0);
        let k = 2.0 * PI;
        for i in 0..rhs.nfabs() {
            let vb = rhs.valid_box(i);
            for iv in vb.iter() {
                let x = geom.cell_center(iv);
                rhs.fab_mut(i)
                    .set(iv, 0, (k * x[0]).sin() * (k * x[1]).cos());
            }
        }
        let mg = Multigrid::poisson(
            [MgBc::Periodic; 3],
            MgOptions {
                min_width: 2,
                ..Default::default()
            },
        );
        let stats = mg.solve(&mut phi, &rhs, &geom);
        assert!(stats.converged, "res {} / {}", stats.res, stats.res0);
    }
}
