//! The BDF stepping loop, over lanes: advance N independent systems
//! through one integration in lockstep — the SIMD-across-zones layout of
//! the paper's §VI GPU-batching plan, on the CPU. This is the only stepping
//! loop of the crate; one system is a batch of one lane.
//!
//! The PR-5 cost heatmaps show what Zingale et al. 2024 describe: most
//! zones in a burn sweep are cheap and *similar* — same network, similar
//! (ρ, T, X), hence similar step-size histories — while a few outliers are
//! orders of magnitude harder. The loop exploits the first population and
//! generalizes the §VI outlier-offload idea for the second:
//!
//! * **One Nordsieck history per batch.** The batch shares `t`, `h`, and
//!   the BDF order `q`; every per-component vector becomes a
//!   structure-of-arrays block `buf[i·W + lane]`, so prediction,
//!   correction, error weighting, and the sparse-LU `ColOp` replay
//!   ([`SparseLu::factor_newton_batch`] / [`SparseLu::solve_batch`]) run as
//!   tight unit-stride lane-inner loops the auto-vectorizer turns into
//!   SIMD across the batch.
//! * **Per-lane control signals.** Error-test estimates, Newton residual
//!   norms, and singularity flags are computed per lane; the shared step
//!   accepts only when every active lane passes, and the step-size factor
//!   comes from the worst active lane.
//! * **Amortized Jacobians.** VODE/CVODE's modified-Newton Jacobian reuse:
//!   the Jacobian is refreshed only when stale (every
//!   [`JAC_REFRESH_STEPS`] accepted steps), after a convergence failure,
//!   or when `γ = l₀h` has drifted more than [`GAMMA_DRIFT_TOL`] since the
//!   last factorization — at which point the matrix is refactored without
//!   re-evaluating the Jacobian. The reuse does not change what the
//!   corrector converges *to*, only how it gets there.
//! * **Dropout.** A lane that repeatedly fails the error test or Newton,
//!   or whose factor is singular, *while a batchmate passes* drops out of
//!   the batch, so one lane cannot hold the others hostage;
//!   [`crate::burner::Burner::burn_all`] re-burns it from its *entry*
//!   state through the retry ladder. A failure every active lane shares —
//!   always the case at width 1 — is the shared step hunting: `h` shrinks
//!   down to `hmin` before anybody is given up on.
//!
//! The two linear-algebra calls of a step attempt go through the
//! integrator's lane solver: the batched sparse replay
//! ([`BdfIntegrator::sparse`]), or pivoted dense LU a lane at a time
//! ([`BdfIntegrator::new`]).

use crate::integrator::{
    bdf_l, check_atol, predict, rescale, unpredict, BdfErrorKind, BdfIntegrator, BdfStats,
    LaneScratch, OdeSystem,
};
use crate::linalg::DenseLu;
use crate::sparse::SparseLu;
use exastro_parallel::LANES;
use std::sync::Arc;
use std::time::Instant;

/// Accepted steps between Jacobian refreshes (CVODE's MSBJ is 50; burns
/// move faster, so refresh more often).
pub const JAC_REFRESH_STEPS: u64 = 25;

/// Relative `γ` drift that forces a refactorization of `I − γJ` (with the
/// Jacobian itself reused). CVODE's DGMAX analogue.
pub const GAMMA_DRIFT_TOL: f64 = 0.1;

/// Consecutive per-lane *culprit* rejections (decisive error-test or
/// fresh-Jacobian Newton failures while a batchmate passed) before a lane
/// drops out of the batch. The underlying controller rejects steps
/// routinely near the error boundary, so dropout requires a streak of
/// failures that are clearly the lane's own, not boundary noise.
const LANE_FAIL_LIMIT: u32 = 4;

/// An error-test failure counts against a lane only when its estimate is
/// decisively over the line; est barely above 1 is the shared controller
/// hunting.
const BLAME_EST: f64 = 2.0;

/// Consecutive singular factorizations, each while a batchmate factored
/// cleanly, before a lane drops out.
const SINGULAR_FAIL_LIMIT: u32 = 2;

/// How an integrator factors and back-solves its lanes' Newton matrices
/// `I − γJ`.
pub(crate) enum LaneSolver {
    /// The pattern-compiled `ColOp` replay, every lane at once with the
    /// lanes innermost — the SIMD carrier of a sweep. Pivot-free: safe
    /// because `I − γJ` is diagonally dominant at the step sizes the
    /// controller accepts.
    Sparse(Arc<SparseLu>),
    /// Dense LU with partial pivoting, one lane at a time (a batched
    /// pivoted LU would branch per lane). Compiled from no pattern, so a
    /// wrongly declared sparsity cannot reach it: the offload rung's
    /// solver, and the oracle the sparse arm is tested against.
    Dense,
}

/// A batch's factored Newton matrices, in the form its [`LaneSolver`]
/// keeps them, and the flags of the lanes whose matrix was singular.
#[derive(Default)]
struct Factors {
    /// Sparse: one factor a block of [`LANES`] lanes
    /// ([`SparseLu::batch_len`] rows).
    vals: Vec<[f64; LANES]>,
    /// Dense: one LU a lane, `None` where the matrix was singular.
    dense: Vec<Option<DenseLu>>,
    singular: Vec<bool>,
}

impl LaneSolver {
    /// Form and factor `I − γJ_l` for every lane from the lanes' dense
    /// row-major Jacobians `jacs[l·n²..][..n²]`. `mat` is `n²` of scratch.
    fn factor(&self, jacs: &[f64], gamma: f64, n: usize, f: &mut Factors, mat: &mut [f64]) {
        match self {
            LaneSolver::Sparse(lu) => {
                let w = f.singular.len();
                lu.factor_newton_batch(jacs, gamma, w, &mut f.vals, &mut f.singular);
            }
            LaneSolver::Dense => {
                for (l, jac) in jacs.chunks_exact(n * n).enumerate() {
                    for r in 0..n {
                        for c in 0..n {
                            mat[r * n + c] = -gamma * jac[r * n + c];
                        }
                        mat[r * n + r] += 1.0;
                    }
                    f.dense[l] = DenseLu::factor(mat, n).ok();
                    f.singular[l] = f.dense[l].is_none();
                }
            }
        }
    }

    /// Solve every lane's system in place on the SoA right-hand sides `b`
    /// (`dim × width`); singular lanes are left as they are. `block` is
    /// `dim` rows of scratch, `lane` is `dim`.
    fn solve(&self, f: &Factors, b: &mut [f64], block: &mut [[f64; LANES]], lane: &mut [f64]) {
        let w = f.singular.len();
        match self {
            LaneSolver::Sparse(lu) => lu.solve_batch(&f.vals, w, b, block),
            LaneSolver::Dense => {
                for (l, lu) in f.dense.iter().enumerate() {
                    if let Some(lu) = lu {
                        gather_lane(b, w, l, lane);
                        lu.solve(lane);
                        scatter_lane(lane, w, l, b);
                    }
                }
            }
        }
    }
}

/// Whether a lane reached `tend`, and if not why it left the batch. For
/// the burner a dropout is a routing decision — the zone climbs the retry
/// ladder from its entry state — for [`BdfIntegrator::integrate`] it is
/// the error.
#[derive(Clone, Debug, PartialEq)]
pub enum LaneStatus {
    /// The lane reached `tend` inside the batch.
    Completed,
    /// The lane could not follow the batch's shared step/order history,
    /// or the whole batch failed.
    Dropped(BdfErrorKind),
}

/// Outcome of one lane of a batched integration.
#[derive(Clone, Debug)]
pub struct LaneReport {
    /// Completed, or dropped and why.
    pub status: LaneStatus,
    /// This lane's view of the batch work: steps/rejections it
    /// participated in, its own RHS/Jacobian evaluations, and an even
    /// per-lane share of the batched linear-algebra wall time.
    pub stats: BdfStats,
}

/// Per-lane weighted-RMS norms of the SoA block `v` (`dim × width`).
fn wrms_lanes(v: &[f64], ewt: &[f64], dim: usize, width: usize, out: &mut [f64]) {
    out.iter_mut().for_each(|o| *o = 0.0);
    for i in 0..dim {
        let vr = &v[i * width..][..width];
        let er = &ewt[i * width..][..width];
        for l in 0..width {
            let x = vr[l] * er[l];
            out[l] += x * x;
        }
    }
    let inv_n = 1.0 / dim as f64;
    for o in out.iter_mut() {
        *o = (*o * inv_n).sqrt();
    }
}

/// All per-lane counters of one batched integration.
#[derive(Default)]
struct LaneBook {
    active: Vec<bool>,
    dropped: Vec<Option<BdfErrorKind>>,
    steps: Vec<u64>,
    rejected: Vec<u64>,
    rhs_evals: Vec<u64>,
    jac_evals: Vec<u64>,
    factorizations: Vec<u64>,
    newton_iters: Vec<u64>,
    err_fails: Vec<u32>,
    newton_fails: Vec<u32>,
    sing_fails: Vec<u32>,
}

impl LaneBook {
    /// Every lane active, every counter zero, for a batch of `w` lanes.
    fn reset(&mut self, w: usize) {
        refill(&mut self.active, w, true);
        refill(&mut self.dropped, w, None);
        for counts in [
            &mut self.steps,
            &mut self.rejected,
            &mut self.rhs_evals,
            &mut self.jac_evals,
            &mut self.factorizations,
            &mut self.newton_iters,
        ] {
            refill(counts, w, 0);
        }
        for fails in [
            &mut self.err_fails,
            &mut self.newton_fails,
            &mut self.sing_fails,
        ] {
            refill(fails, w, 0);
        }
    }

    fn drop_lane(&mut self, lane: usize, why: BdfErrorKind) {
        if self.active[lane] {
            self.active[lane] = false;
            self.dropped[lane] = Some(why);
        }
    }

    fn any_active(&self) -> bool {
        self.active.iter().any(|&a| a)
    }
}

/// `v` becomes `len` copies of `value`, keeping its allocation: what a
/// fresh `vec![value; len]` would hold, without the `malloc`.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Nordsieck rows a batch can ever hold: orders 1..=5 use `z[0..=q]`.
const NORDSIECK_ROWS: usize = 6;

/// Every buffer one [`BdfIntegrator::integrate_lanes`] call works in — the
/// SoA work vectors, the per-lane book, the Nordsieck history, the factors
/// and the reports. A sweep burns thousands of chunks; each participant
/// owns one workspace and every chunk it claims reuses it, so after the
/// first chunk the sparse path allocates nothing.
/// Each call re-zeroes the buffers to exactly its own `dim × width` (a
/// short last chunk just uses less of them), so results do not depend on
/// what an earlier chunk left behind.
#[derive(Default)]
pub struct BatchWorkspace {
    book: LaneBook,
    reports: Vec<LaneReport>,
    /// Shared Nordsieck history over SoA vectors; rows above the current
    /// order are stale and are rewritten before an order raise reads them.
    z: Vec<Vec<f64>>,
    ycur: Vec<f64>,
    acor: Vec<f64>,
    acor_prev: Vec<f64>,
    rhs: Vec<f64>,
    resid: Vec<f64>,
    ewt: Vec<f64>,
    sol_scratch: Vec<[f64; LANES]>,
    jacs: Vec<f64>,
    factors: Factors,
    eval: LaneScratch,
    lane_y: Vec<f64>,
    lane_jac: Vec<f64>,
    want: Vec<bool>,
    dn: Vec<f64>,
    est: Vec<f64>,
    lane_norm: Vec<f64>,
    conv: Vec<bool>,
    diverged: Vec<bool>,
    mask: Vec<f64>,
    last_dn: Vec<f64>,
}

impl BatchWorkspace {
    /// Size and zero everything for `w` lanes of dimension `n` on a sparse
    /// factor of `factor_rows` rows (0: the factors are dense), and forget
    /// the rates the last call's systems kept.
    fn reset(&mut self, n: usize, w: usize, factor_rows: usize) {
        let nw = n * w;
        self.book.reset(w);
        self.eval.rates.clear();
        self.z.resize_with(NORDSIECK_ROWS, Vec::new);
        for row in &mut self.z {
            refill(row, nw, 0.0);
        }
        for soa in [
            &mut self.ycur,
            &mut self.acor,
            &mut self.acor_prev,
            &mut self.rhs,
            &mut self.resid,
            &mut self.ewt,
        ] {
            refill(soa, nw, 0.0);
        }
        refill(&mut self.sol_scratch, n, [0.0; LANES]);
        refill(&mut self.jacs, n * n * w, 0.0);
        refill(&mut self.factors.vals, factor_rows, [0.0; LANES]);
        refill(&mut self.factors.dense, w, None);
        refill(&mut self.factors.singular, w, false);
        refill(&mut self.lane_y, n, 0.0);
        refill(&mut self.lane_jac, n * n, 0.0);
        for per_lane in [
            &mut self.dn,
            &mut self.est,
            &mut self.lane_norm,
            &mut self.mask,
            &mut self.last_dn,
        ] {
            refill(per_lane, w, 0.0);
        }
        for flags in [&mut self.conv, &mut self.diverged, &mut self.want] {
            refill(flags, w, false);
        }
    }

    /// The reports of the last [`BdfIntegrator::integrate_lanes`] call in
    /// this workspace, and the rate stages its systems took.
    pub(crate) fn last_call(&self) -> (&[LaneReport], u64) {
        (&self.reports, self.eval.rates.stages)
    }
}

impl BdfIntegrator {
    /// Integrate every system of `lanes` from `t0` to `tend` in lockstep,
    /// in `ws` — the crate's one stepping loop. `y` is the
    /// structure-of-arrays state `y[i·width + lane]`, updated in place. A
    /// dropped lane's slot holds its last accepted state if no batchmate
    /// stepped on after it left (always, at width 1) and is meaningless
    /// otherwise; the burner re-burns dropped zones from their entry state.
    /// The reports (one per lane) live in `ws` until its next use.
    pub fn integrate_lanes<'w, S: OdeSystem>(
        &self,
        lanes: &[S],
        t0: f64,
        tend: f64,
        y: &mut [f64],
        ws: &'w mut BatchWorkspace,
    ) -> &'w [LaneReport] {
        let n = lanes[0].dim();
        let w = lanes.len();
        assert_eq!(y.len(), n * w);
        assert!(tend > t0);
        let factor_rows = match &self.solver {
            LaneSolver::Sparse(lu) => {
                assert_eq!(lu.dim(), n, "sparse pattern does not match the system");
                lu.batch_len(w)
            }
            LaneSolver::Dense => 0,
        };
        ws.reset(n, w, factor_rows);
        let BatchWorkspace {
            book,
            reports,
            z,
            ycur,
            acor,
            acor_prev,
            rhs,
            resid,
            ewt,
            sol_scratch,
            jacs,
            factors,
            eval,
            lane_y,
            lane_jac,
            want,
            dn,
            est,
            lane_norm,
            conv,
            diverged,
            mask,
            last_dn,
        } = ws;
        if let Err(e) = check_atol(&self.opts, n) {
            for l in 0..w {
                book.drop_lane(l, e.kind.clone());
            }
            // No work was spent and no step taken at any order.
            write_reports(book, 0, 0, reports);
            return reports;
        }
        let mut solve_ns: u64 = 0;
        let mut q = 1usize;
        let max_order = self.opts.max_order.clamp(1, NORDSIECK_ROWS - 1);
        let nw = n * w;
        let mut l = [0.0f64; 6];

        // Initial step from the worst lane's RHS scale (every lane must be
        // resolvable at the shared h), and never above 10⁻³ of the span: a
        // cautious guess the first step's 10⁴ growth limit corrects, so a
        // quiescent zone covers dt in two steps.
        self.error_weights(y, n, w, ewt);
        let mut rate_max: f64 = 1e-30;
        want.fill(true);
        S::rhs_lanes(lanes, t0, y, want, rhs, eval);
        for lane in 0..w {
            book.rhs_evals[lane] += 1;
            let mut acc = 0.0;
            for i in 0..n {
                let x = rhs[i * w + lane] * ewt[i * w + lane];
                acc += x * x;
            }
            let rate = (acc / n as f64).sqrt();
            if !rate.is_finite() {
                book.drop_lane(lane, BdfErrorKind::NonFinite);
            } else {
                rate_max = rate_max.max(rate);
            }
        }
        let mut h = match self.opts.h0 {
            Some(h0) => h0,
            None => ((1.0 / rate_max) * 1e-3)
                .min((tend - t0) * 1e-3)
                .max((tend - t0) * 1e-12),
        };
        let hmin = (tend - t0) * 1e-15;

        z[0].copy_from_slice(y);
        for (z1, &f) in z[1].iter_mut().zip(rhs.iter()) {
            *z1 = f * h;
        }
        let mut t = t0;
        let mut qwait = 2usize;
        let mut steps: u64 = 0;
        let mut rejected: u64 = 0;
        let mut global_newton_fails = 0usize;
        let mut global_err_fails = 0usize;
        let mut have_acor_prev = false;

        // Modified-Newton Jacobian reuse state.
        let mut jac_fresh = false;
        let mut jac_age: u64 = 0;
        let mut gamma_factored: Option<f64> = None;

        while t < tend - 1e-14 * (tend - t0).abs() && book.any_active() {
            if steps + rejected > self.opts.max_steps as u64 {
                for lane in 0..w {
                    if book.active[lane] {
                        book.drop_lane(lane, BdfErrorKind::MaxSteps);
                    }
                }
                break;
            }
            if t + h > tend {
                let r = (tend - t) / h;
                rescale(z, q, r);
                h = tend - t;
            }
            bdf_l(q, &mut l);
            let gamma = l[0] * h;
            self.error_weights(&z[0], n, w, ewt);
            predict(z, q);
            let tn = t + h;

            let need_jac = !jac_fresh || jac_age >= JAC_REFRESH_STEPS;
            let need_factor = need_jac
                || gamma_factored
                    .map(|g| ((gamma - g) / g).abs() > GAMMA_DRIFT_TOL)
                    .unwrap_or(true);
            if need_jac {
                want.copy_from_slice(&book.active);
                S::jac_lanes(lanes, tn, &z[0], want, jacs, eval);
                for lane in (0..w).filter(|&lane| want[lane]) {
                    book.jac_evals[lane] += 1;
                }
                jac_fresh = true;
                jac_age = 0;
            }
            if need_factor {
                let t_factor = Instant::now();
                self.solver.factor(jacs, gamma, n, factors, lane_jac);
                solve_ns += t_factor.elapsed().as_nanos() as u64;
                gamma_factored = Some(gamma);
                for lane in 0..w {
                    if book.active[lane] {
                        book.factorizations[lane] += 1;
                    }
                }
                let singular = &factors.singular;
                let is_singular =
                    |book: &LaneBook, lane: usize| book.active[lane] && singular[lane];
                if (0..w).any(|lane| is_singular(book, lane)) {
                    unpredict(z, q);
                    rejected += 1;
                    // As with the Newton and error tests below: a lane is
                    // to blame only if a batchmate factored cleanly at this
                    // γ. A matrix singular for every active lane is the
                    // shared h's doing, and h shrinks until it is not.
                    let any_clean = (0..w).any(|lane| book.active[lane] && !singular[lane]);
                    for lane in 0..w {
                        if is_singular(book, lane) {
                            book.rejected[lane] += 1;
                            book.sing_fails[lane] += any_clean as u32;
                            if book.sing_fails[lane] >= SINGULAR_FAIL_LIMIT {
                                book.drop_lane(lane, BdfErrorKind::SingularMatrix);
                            }
                        }
                    }
                    if h * 0.25 < hmin {
                        for lane in 0..w {
                            if is_singular(book, lane) {
                                book.drop_lane(lane, BdfErrorKind::SingularMatrix);
                            }
                        }
                    } else {
                        rescale(z, q, 0.25);
                        h *= 0.25;
                    }
                    continue;
                }
            }

            // Modified-Newton corrector, all lanes in lockstep. A lane is
            // converged once its residual norm passes the test and is then
            // frozen (its acor receives no further updates); iteration
            // continues until every active lane has converged or diverged,
            // or the budget runs out.
            acor.iter_mut().for_each(|v| *v = 0.0);
            ycur.copy_from_slice(&z[0]);
            conv.iter_mut().for_each(|c| *c = false);
            diverged.iter_mut().for_each(|c| *c = false);
            last_dn.iter_mut().for_each(|d| *d = f64::INFINITY);
            for _ in 0..4 {
                for lane in 0..w {
                    mask[lane] = if book.active[lane] && !conv[lane] && !diverged[lane] {
                        1.0
                    } else {
                        0.0
                    };
                }
                for lane in 0..w {
                    want[lane] = mask[lane] != 0.0;
                }
                S::rhs_lanes(lanes, tn, ycur, want, rhs, eval);
                for lane in (0..w).filter(|&lane| want[lane]) {
                    book.rhs_evals[lane] += 1;
                    book.newton_iters[lane] += 1;
                }
                for i in 0..nw {
                    resid[i] = gamma * rhs[i] - l[0] * z[1][i] - acor[i];
                }
                let t_solve = Instant::now();
                self.solver.solve(factors, resid, sol_scratch, lane_y);
                solve_ns += t_solve.elapsed().as_nanos() as u64;
                // Frozen lanes take no update (branch-free via the mask).
                for i in 0..n {
                    let rr = &mut resid[i * w..][..w];
                    let ar = &mut acor[i * w..][..w];
                    let yr = &mut ycur[i * w..][..w];
                    let zr = &z[0][i * w..][..w];
                    for lane in 0..w {
                        rr[lane] *= mask[lane];
                        ar[lane] += rr[lane];
                        yr[lane] = zr[lane] + ar[lane];
                    }
                }
                wrms_lanes(resid, ewt, n, w, dn);
                let mut all_settled = true;
                for lane in 0..w {
                    if mask[lane] == 0.0 {
                        continue;
                    }
                    if dn[lane].is_finite() && dn[lane] < 0.1 {
                        conv[lane] = true;
                    } else if !dn[lane].is_finite() || dn[lane] > 2.0 * last_dn[lane] {
                        // Diverging: further iterations will not save it.
                        diverged[lane] = true;
                    } else {
                        last_dn[lane] = dn[lane];
                        all_settled = false;
                    }
                }
                if all_settled {
                    break;
                }
            }
            let any_nonconv = (0..w).any(|lane| book.active[lane] && !conv[lane]);
            if any_nonconv {
                unpredict(z, q);
                rejected += 1;
                for lane in 0..w {
                    if book.active[lane] {
                        book.rejected[lane] += 1;
                    }
                }
                if jac_age > 0 {
                    // The Jacobian was stale: refresh it and retry the same
                    // step before shrinking h (CVODE's convergence-failure
                    // path). `jac_age > 0` guarantees the retry uses a
                    // genuinely newer Jacobian, so this cannot loop.
                    jac_fresh = false;
                    continue;
                }
                // Blame a lane only when it failed while a batchmate
                // passed: a failure shared by every lane is the shared h
                // hunting, not a lane diverging from the batch.
                let any_passed = (0..w).any(|lane| book.active[lane] && conv[lane]);
                for lane in 0..w {
                    if !book.active[lane] {
                        continue;
                    }
                    if conv[lane] {
                        // This lane held up its end: the rejection is a
                        // batchmate's, so its consecutive count restarts.
                        book.newton_fails[lane] = 0;
                    } else {
                        if any_passed {
                            book.newton_fails[lane] += 1;
                        }
                        if book.newton_fails[lane] >= LANE_FAIL_LIMIT {
                            book.drop_lane(lane, BdfErrorKind::StepUnderflow { t });
                        }
                    }
                }
                global_newton_fails += 1;
                if h * 0.25 < hmin {
                    for lane in 0..w {
                        if book.active[lane] && !conv[lane] {
                            book.drop_lane(lane, BdfErrorKind::StepUnderflow { t });
                        }
                    }
                } else {
                    rescale(z, q, 0.25);
                    h *= 0.25;
                }
                jac_fresh = false;
                if global_newton_fails > 2 && q > 1 {
                    q = 1;
                    qwait = 2;
                    have_acor_prev = false;
                }
                continue;
            }
            global_newton_fails = 0;
            for lane in 0..w {
                if book.active[lane] {
                    book.newton_fails[lane] = 0;
                    book.sing_fails[lane] = 0;
                }
            }

            // Per-lane error test; the step stands only if every active
            // lane passes.
            wrms_lanes(acor, ewt, n, w, est);
            let qp1 = q as f64 + 1.0;
            for e in est.iter_mut() {
                *e /= qp1;
            }
            // A non-finite estimate fails the test too, hence not `> 1.0`.
            let failed = |e: f64| e.is_nan() || e > 1.0;
            let any_bad = (0..w).any(|lane| book.active[lane] && failed(est[lane]));
            if any_bad {
                unpredict(z, q);
                rejected += 1;
                global_err_fails += 1;
                let any_passed = (0..w).any(|lane| book.active[lane] && est[lane] <= 1.0);
                let mut est_max: f64 = 0.0;
                for lane in 0..w {
                    if !book.active[lane] {
                        continue;
                    }
                    book.rejected[lane] += 1;
                    if est[lane] <= 1.0 {
                        // The lane passed; the rejection is a batchmate's.
                        book.err_fails[lane] = 0;
                    } else {
                        if any_passed && est[lane] > BLAME_EST {
                            book.err_fails[lane] += 1;
                        }
                        if book.err_fails[lane] >= LANE_FAIL_LIMIT {
                            book.drop_lane(lane, BdfErrorKind::StepUnderflow { t });
                        } else if est[lane].is_finite() {
                            est_max = est_max.max(est[lane]);
                        } else {
                            book.drop_lane(lane, BdfErrorKind::NonFinite);
                        }
                    }
                }
                if est_max > 1.0 {
                    let r = (0.9 * est_max.powf(-1.0 / qp1)).clamp(0.1, 0.9);
                    if h * r < hmin {
                        for lane in 0..w {
                            if book.active[lane] && failed(est[lane]) {
                                book.drop_lane(lane, BdfErrorKind::StepUnderflow { t });
                            }
                        }
                    } else {
                        rescale(z, q, r);
                        h *= r;
                    }
                }
                if global_err_fails >= 3 && q > 1 {
                    q = 1;
                    qwait = 2;
                    have_acor_prev = false;
                }
                continue;
            }
            global_err_fails = 0;
            for lane in 0..w {
                if book.active[lane] {
                    book.err_fails[lane] = 0;
                }
            }

            // Accept.
            for j in 0..=q {
                let zj = &mut z[j];
                for i in 0..nw {
                    zj[i] += l[j] * acor[i];
                }
            }
            t = tn;
            steps += 1;
            jac_age += 1;
            let mut est_acc: f64 = 0.0;
            for lane in 0..w {
                if book.active[lane] {
                    book.steps[lane] += 1;
                    est_acc = est_acc.max(est[lane]);
                }
            }

            // Shared step/order adaptation from the worst active lane, by
            // CVODE's biased controller (target est ≈ 1/6). VODE's
            // 0.9·est^(−1/(q+1)) targets est ≈ 0.73: parking the worst
            // lane that close to the error boundary produces a
            // reject/accept limit cycle (four rejections in ten attempts
            // on an igniting zone even at width 1) that strings up per-lane
            // failures. Growth is capped by VODE's limits instead: 10⁴ on
            // the first accepted step, whose h was a guess, and 10 after.
            let eta_q = 1.0 / ((6.0 * est_acc.max(1e-12)).powf(1.0 / qp1) + 1e-6);
            let mut eta = eta_q;
            let mut new_q = q;
            if qwait > 0 {
                qwait -= 1;
            } else {
                if q > 1 {
                    wrms_lanes(&z[q], ewt, n, w, lane_norm);
                    let mut est_dn: f64 = 0.0;
                    for lane in 0..w {
                        if book.active[lane] {
                            est_dn = est_dn.max(lane_norm[lane] / q as f64);
                        }
                    }
                    let eta_dn = 1.0 / ((6.0 * est_dn.max(1e-12)).powf(1.0 / q as f64) + 1e-6);
                    if eta_dn > eta {
                        eta = eta_dn;
                        new_q = q - 1;
                    }
                }
                if q < max_order && have_acor_prev {
                    for i in 0..nw {
                        resid[i] = acor[i] - acor_prev[i];
                    }
                    wrms_lanes(resid, ewt, n, w, lane_norm);
                    let mut est_up: f64 = 0.0;
                    for lane in 0..w {
                        if book.active[lane] {
                            est_up = est_up.max(lane_norm[lane] / (q as f64 + 2.0));
                        }
                    }
                    let eta_up =
                        1.0 / ((10.0 * est_up.max(1e-12)).powf(1.0 / (q as f64 + 2.0)) + 1e-6);
                    if eta_up > eta {
                        eta = eta_up;
                        new_q = q + 1;
                    }
                }
            }
            acor_prev.copy_from_slice(acor);
            have_acor_prev = true;

            if new_q != q {
                if new_q > q {
                    let zq1 = &mut z[new_q];
                    for i in 0..nw {
                        zq1[i] = acor[i] * l[q] / qp1;
                    }
                }
                q = new_q;
                qwait = q + 1;
                have_acor_prev = false;
            }
            let eta = eta.clamp(0.2, if steps == 1 { 1e4 } else { 10.0 });
            if !(0.9..=1.3).contains(&eta) {
                rescale(z, q, eta);
                h *= eta;
            }
        }

        // Every failure path leaves `z` un-predicted: row 0 is the last
        // accepted state.
        y.copy_from_slice(&z[0]);
        write_reports(book, solve_ns, q, reports);
        reports
    }

    fn error_weights(&self, z0: &[f64], n: usize, w: usize, ewt: &mut [f64]) {
        for i in 0..n {
            let atol = if self.opts.atol.len() == 1 {
                self.opts.atol[0]
            } else {
                self.opts.atol[i]
            };
            let zr = &z0[i * w..][..w];
            let er = &mut ewt[i * w..][..w];
            for l in 0..w {
                er[l] = 1.0 / (self.opts.rtol * zr[l].abs() + atol);
            }
        }
    }
}

/// One report per lane of `book`, each charged an even share of the
/// batched linear-algebra time.
fn write_reports(book: &LaneBook, solve_ns: u64, q: usize, reports: &mut Vec<LaneReport>) {
    let w = book.active.len();
    let share = solve_ns / w.max(1) as u64;
    reports.clear();
    reports.extend((0..w).map(|lane| LaneReport {
        status: match &book.dropped[lane] {
            None => LaneStatus::Completed,
            Some(kind) => LaneStatus::Dropped(kind.clone()),
        },
        stats: BdfStats {
            steps: book.steps[lane],
            rejected: book.rejected[lane],
            rhs_evals: book.rhs_evals[lane],
            jac_evals: book.jac_evals[lane],
            factorizations: book.factorizations[lane],
            newton_iters: book.newton_iters[lane],
            solve_ns: share,
            final_order: q,
        },
    }));
}

pub(crate) fn gather_lane(soa: &[f64], w: usize, lane: usize, out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = soa[i * w + lane];
    }
}

pub(crate) fn scatter_lane(src: &[f64], w: usize, lane: usize, soa: &mut [f64]) {
    for (i, s) in src.iter().enumerate() {
        soa[i * w + lane] = *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burner::{BurnerConfig, ZoneBurn};
    use crate::eos::StellarEos;
    use crate::integrator::BdfOptions;
    use crate::network::Network;
    use crate::recovery::{BurnFaultConfig, LadderRung};
    use crate::sparse::CsrPattern;

    /// A Robertson problem with its rates scaled by `k`.
    struct Robertson {
        k: f64,
    }
    impl OdeSystem for Robertson {
        fn dim(&self) -> usize {
            3
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            let k = self.k;
            d[0] = -0.04 * k * y[0] + 1e4 * y[1] * y[2];
            d[2] = 3e7 * k * y[1] * y[1];
            d[1] = -d[0] - d[2];
        }
        fn jac(&self, _t: f64, y: &[f64], j: &mut [f64]) {
            let k = self.k;
            j[0] = -0.04 * k;
            j[1] = 1e4 * y[2];
            j[2] = 1e4 * y[1];
            j[6] = 0.0;
            j[7] = 6e7 * k * y[1];
            j[8] = 0.0;
            j[3] = -j[0] - j[6];
            j[4] = -j[1] - j[7];
            j[5] = -j[2] - j[8];
        }
    }

    fn robertson_lanes(ks: &[f64]) -> Vec<Robertson> {
        ks.iter().map(|&k| Robertson { k }).collect()
    }

    fn robertson_pattern() -> CsrPattern {
        CsrPattern::new(
            3,
            vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 1),
                (2, 2),
            ],
        )
    }

    #[test]
    fn batched_robertson_matches_scalar_per_lane() {
        let ks = vec![1.0, 0.7, 1.3, 0.9];
        let w = ks.len();
        let opts = BdfOptions::builder()
            .rtol(1e-10)
            .atol_vec(vec![1e-12, 1e-14, 1e-12])
            .build()
            .unwrap();
        let lu = Arc::new(SparseLu::compile(&robertson_pattern()));
        let integ = BdfIntegrator::sparse(opts, lu);
        let sys = robertson_lanes(&ks);
        let mut y = vec![0.0; 3 * w];
        for l in 0..w {
            y[l] = 1.0; // y0 = [1, 0, 0] per lane
        }
        let mut ws = BatchWorkspace::default();
        let reports = integ.integrate_lanes(&sys, 0.0, 40.0, &mut y, &mut ws);
        for (l, lane) in sys.iter().enumerate() {
            assert_eq!(reports[l].status, LaneStatus::Completed, "lane {l}");
            assert!(reports[l].stats.steps > 0);
            let mut ys = [1.0, 0.0, 0.0];
            integ.integrate(lane, 0.0, 40.0, &mut ys).unwrap();
            for i in 0..3 {
                let (b, s) = (y[i * w + l], ys[i]);
                // A lane alone takes its own h/order sequence, not the
                // batch's worst-lane one, so agreement is to the
                // global-error level, not bitwise.
                assert!(
                    (b - s).abs() < 1e-6 * s.abs().max(1e-8),
                    "lane {l} comp {i}: batch {b} vs scalar {s}"
                );
            }
            // Conservation survives the batch.
            let sum: f64 = (0..3).map(|i| y[i * w + l]).sum();
            assert!((sum - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn a_reused_workspace_gives_the_bits_of_a_fresh_one() {
        // A sweep hands one workspace to every chunk, the last of them
        // short: what an earlier, wider batch left in the buffers must not
        // reach a later one.
        let opts = BdfOptions::builder()
            .rtol(1e-8)
            .atol(1e-12)
            .build()
            .unwrap();
        let integ = BdfIntegrator::sparse(opts, Arc::new(SparseLu::compile(&robertson_pattern())));
        let run = |ks: &[f64], ws: &mut BatchWorkspace| {
            let w = ks.len();
            let mut y = vec![0.0; 3 * w];
            y[..w].fill(1.0);
            let steps: Vec<u64> = integ
                .integrate_lanes(&robertson_lanes(ks), 0.0, 40.0, &mut y, ws)
                .iter()
                .map(|r| r.stats.steps)
                .collect();
            (y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), steps)
        };
        let mut reused = BatchWorkspace::default();
        run(&[1.0, 0.7, 1.3, 0.9], &mut reused);
        let short = [1.1, 0.8];
        assert_eq!(
            run(&short, &mut reused),
            run(&short, &mut BatchWorkspace::default())
        );
    }

    #[test]
    fn batch_reuses_jacobians_across_steps() {
        let w = 4;
        let opts = BdfOptions::builder()
            .rtol(1e-8)
            .atol(1e-12)
            .build()
            .unwrap();
        let lu = Arc::new(SparseLu::compile(&robertson_pattern()));
        let integ = BdfIntegrator::sparse(opts, lu);
        let sys = robertson_lanes(&[1.0, 1.01, 0.99, 1.02]);
        let mut y = vec![0.0; 3 * w];
        for l in 0..w {
            y[l] = 1.0;
        }
        let mut ws = BatchWorkspace::default();
        let reports = integ.integrate_lanes(&sys, 0.0, 40.0, &mut y, &mut ws);
        let r = &reports[0];
        assert_eq!(r.status, LaneStatus::Completed);
        assert!(
            r.stats.jac_evals * 3 < r.stats.steps,
            "modified-Newton reuse must amortize Jacobians: {} evals over {} steps",
            r.stats.jac_evals,
            r.stats.steps
        );
        assert!(
            r.stats.factorizations < r.stats.steps,
            "γ-drift refactor must be rarer than steps: {} vs {}",
            r.stats.factorizations,
            r.stats.steps
        );
    }

    #[test]
    fn batched_atol_mismatch_drops_every_lane_structurally() {
        let opts = BdfOptions::builder()
            .atol_vec(vec![1e-12, 1e-12]) // dim is 3
            .build()
            .unwrap();
        let lu = Arc::new(SparseLu::compile(&robertson_pattern()));
        let integ = BdfIntegrator::sparse(opts, lu);
        let sys = robertson_lanes(&[1.0, 1.0]);
        let mut y = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let mut ws = BatchWorkspace::default();
        let reports = integ.integrate_lanes(&sys, 0.0, 1.0, &mut y, &mut ws);
        for r in reports {
            assert_eq!(r.stats, BdfStats::default(), "no work was spent");
            assert_eq!(
                r.status,
                LaneStatus::Dropped(BdfErrorKind::AtolMismatch {
                    atol_len: 2,
                    dim: 3
                })
            );
        }
    }

    #[test]
    fn a_lone_lane_outlives_singular_factors_that_would_drop_it_from_a_batch() {
        // y' = diag(λ) y with λ = (1/h0, 4/h0): at order 1 γ = h, so
        // I − γJ has an exact zero on its diagonal at h0 and again at h0/4.
        // Two singular factors in a row cost a lane its place among
        // batchmates that factored cleanly; a lane with nobody to protect
        // just keeps quartering h. Regression: width 1 used to give up
        // here with `SingularMatrix`.
        struct Growth([f64; 2]);
        impl OdeSystem for Growth {
            fn dim(&self) -> usize {
                2
            }
            fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
                d[0] = self.0[0] * y[0];
                d[1] = self.0[1] * y[1];
            }
            fn jac(&self, _t: f64, _y: &[f64], j: &mut [f64]) {
                j.copy_from_slice(&[self.0[0], 0.0, 0.0, self.0[1]]);
            }
        }
        let h0 = 0.0625;
        let sys = Growth([1.0 / h0, 4.0 / h0]);
        let opts = BdfOptions::builder().h0(h0).build().unwrap();
        let diagonal = Arc::new(SparseLu::compile(&CsrPattern::new(2, vec![])));
        for integ in [
            BdfIntegrator::sparse(opts.clone(), diagonal),
            BdfIntegrator::new(opts),
        ] {
            let mut y = [1.0, 1.0];
            let stats = integ.integrate(&sys, 0.0, 0.25, &mut y).unwrap();
            assert!(stats.rejected >= 2, "{stats:?}");
            for (yi, lambda) in y.iter().zip(sys.0) {
                let exact = (lambda * 0.25).exp();
                assert!((yi / exact - 1.0).abs() < 1e-5, "{yi} vs {exact}");
            }
            // With a healthy batchmate the same lane is dropped after its
            // second singular factor, and the batchmate finishes.
            let lanes = [Growth([1.0 / h0, 4.0 / h0]), Growth([-1.0, -2.0])];
            let mut y = [1.0; 4];
            let mut ws = BatchWorkspace::default();
            let reports = integ.integrate_lanes(&lanes, 0.0, 0.25, &mut y, &mut ws);
            assert_eq!(
                reports[0].status,
                LaneStatus::Dropped(BdfErrorKind::SingularMatrix)
            );
            assert_eq!(reports[1].status, LaneStatus::Completed);
        }
    }

    #[test]
    fn burn_all_matches_the_scalar_ladder_closely() {
        let net = Network::cburn2();
        let eos = StellarEos;
        let cfg = BurnerConfig {
            batch_width: 4,
            ..Default::default()
        };
        let burner = cfg.build(&net, &eos);
        let zones: Vec<ZoneBurn> = (0..8)
            .map(|i| ZoneBurn {
                zone: i,
                rho: 5e7 * (1.0 + 0.01 * i as f64),
                t0: 3e9 * (1.0 + 0.005 * i as f64),
                x0: &[1.0, 0.0],
            })
            .collect();
        let dt = 1e-7;
        let recs = burner.burn_all(&zones, dt);
        assert_eq!(recs.len(), zones.len());
        for (zb, rec) in zones.iter().zip(&recs) {
            let rec = rec.as_ref().expect("batched burn succeeds");
            let sref = burner.burn_zone(zb.zone, zb.rho, zb.t0, zb.x0, dt).unwrap();
            assert!(
                ((rec.outcome.t - sref.outcome.t) / sref.outcome.t).abs() < 1e-5,
                "zone {}: batch T {} vs scalar T {}",
                zb.zone,
                rec.outcome.t,
                sref.outcome.t
            );
            for (a, b) in rec.outcome.x.iter().zip(&sref.outcome.x) {
                assert!((a - b).abs() < 1e-5, "zone {}: {a} vs {b}", zb.zone);
            }
            let sum: f64 = rec.outcome.x.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn results_come_back_in_input_order_despite_sorting() {
        let net = Network::cburn2();
        let eos = StellarEos;
        let cfg = BurnerConfig {
            batch_width: 4,
            ..Default::default()
        };
        let burner = cfg.build(&net, &eos);
        // Alternating hot/cold so the temperature sort reorders heavily.
        let zones: Vec<ZoneBurn> = (0..8)
            .map(|i| ZoneBurn {
                zone: i,
                rho: 5e7,
                t0: if i % 2 == 0 {
                    3e9
                } else {
                    1e8 + 1e6 * i as f64
                },
                x0: &[1.0, 0.0],
            })
            .collect();
        let recs = burner.burn_all(&zones, 1e-8);
        for (i, (zb, rec)) in zones.iter().zip(&recs).enumerate() {
            let rec = rec.as_ref().unwrap();
            if zb.t0 > 1e9 {
                assert!(
                    rec.outcome.t > 1e9,
                    "slot {i} must hold the hot zone's result"
                );
            } else {
                assert!(
                    rec.outcome.t < 1e9,
                    "slot {i} must hold the cold zone's result"
                );
            }
        }
    }

    #[test]
    fn starved_batch_drops_out_bit_identical_to_the_scalar_ladder() {
        // A step budget far too small for the batch: every lane drops out
        // and is re-burned by the ladder, so the final state must be
        // *bit-identical* to a ladder-only burn, with the batch attempt
        // charged as one extra retry.
        let net = Network::cburn2();
        let eos = StellarEos;
        let mut cfg = BurnerConfig {
            batch_width: 4,
            ..Default::default()
        };
        cfg.bdf.max_steps = 3;
        let burner = cfg.build(&net, &eos);
        let zones: Vec<ZoneBurn> = (0..4)
            .map(|i| ZoneBurn {
                zone: i,
                rho: 5e7,
                t0: 3e9,
                x0: &[1.0, 0.0],
            })
            .collect();
        let dt = 1e-6;
        let recs = burner.burn_all(&zones, dt);
        for (zb, rec) in zones.iter().zip(&recs) {
            let rec = rec.as_ref().expect("ladder rescues the dropout");
            let sref = burner.burn_zone(zb.zone, zb.rho, zb.t0, zb.x0, dt).unwrap();
            assert_eq!(rec.outcome.t.to_bits(), sref.outcome.t.to_bits());
            for (a, b) in rec.outcome.x.iter().zip(&sref.outcome.x) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(rec.rung, sref.rung);
            assert_eq!(
                rec.retries,
                sref.retries + 1,
                "the failed batch attempt is charged as a retry"
            );
            assert!(
                rec.outcome.stats.steps >= sref.outcome.stats.steps,
                "dropout work is charged to the zone"
            );
        }
    }

    /// `n` identical hot carbon zones.
    fn hot_carbon_zones(n: u64) -> Vec<ZoneBurn<'static>> {
        (0..n)
            .map(|i| ZoneBurn {
                zone: i,
                rho: 5e7,
                t0: 3e9,
                x0: &[1.0, 0.0],
            })
            .collect()
    }

    #[test]
    fn dropouts_are_profiled_in_the_sweep_region_not_nested_under_it() {
        // Regression: a dropout's ladder burn opened `burner` again inside
        // the batch's `burner` region, so dropout zones, their time and
        // their solve[...] children landed in `burner/burner` and the
        // `burner` row counted none of them. A unique outer region keeps
        // this test's rows apart from concurrently running tests.
        use exastro_telemetry::Telemetry;
        let net = Network::cburn2();
        let eos = StellarEos;
        let mut cfg = BurnerConfig {
            batch_width: 4,
            ..Default::default()
        };
        cfg.bdf.max_steps = 3; // every lane drops out
        let recs = {
            let _outer = Telemetry::region("starved_batch_test");
            cfg.build(&net, &eos).burn_all(&hot_carbon_zones(4), 1e-6)
        };
        assert!(recs.iter().all(|r| r.as_ref().unwrap().retries >= 1));
        let rows: std::collections::HashMap<_, _> =
            Telemetry::region_rows().0.into_iter().collect();
        let nested: Vec<_> = rows
            .keys()
            .filter(|p| p.contains("burner/burner"))
            .collect();
        assert!(nested.is_empty(), "double-nested burner rows: {nested:?}");
        let row = &rows["starved_batch_test/burner"];
        assert_eq!(row.calls, 1, "one region per sweep");
        assert_eq!(row.zones, 4, "every dropout counted once, in the sweep");
    }

    #[test]
    fn a_sweep_is_one_burner_region_whoever_burns_its_chunks() {
        // 26 zones at width 4 are seven chunks, drained by however many
        // participants the pool lends: the region table still sees one
        // `burner` call holding every zone, and one batch-solve child
        // carrying the participants' summed solve time.
        use exastro_telemetry::Telemetry;
        let net = Network::cburn2();
        let eos = StellarEos;
        let cfg = BurnerConfig {
            batch_width: 4,
            ..Default::default()
        };
        let zones: Vec<ZoneBurn> = (0..26)
            .map(|i| ZoneBurn {
                zone: i,
                rho: 5e7,
                t0: 2.8e9 * (1.0 + 0.001 * i as f64),
                x0: &[0.5, 0.5],
            })
            .collect();
        let recs = {
            let _outer = Telemetry::region("pooled_sweep_test");
            cfg.build(&net, &eos).burn_all(&zones, 1e-7)
        };
        assert!(recs.iter().all(|r| r.as_ref().unwrap().retries == 0));
        let rows: std::collections::HashMap<_, _> =
            Telemetry::region_rows().0.into_iter().collect();
        let burner = &rows["pooled_sweep_test/burner"];
        assert_eq!((burner.calls, burner.zones), (1, 26));
        let children: Vec<_> = rows
            .iter()
            .filter(|(p, _)| p.starts_with("pooled_sweep_test/burner/"))
            .collect();
        assert_eq!(children.len(), 1, "{children:?}");
        let (path, solve) = children[0];
        assert_eq!(path, "pooled_sweep_test/burner/solve[batch-sparse]");
        assert_eq!(solve.calls, 1, "tallies merge once a sweep");
        assert!(solve.wall_ns > 0);
    }

    #[test]
    fn a_panicking_chunk_surfaces_on_the_caller() {
        // A zone whose composition does not fit the network trips the
        // burner's own assert inside whichever participant claimed its
        // chunk. The pool rethrows it on the caller; no lock is held
        // across a chunk, so nothing is left poisoned and the next sweep
        // runs.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let net = Network::cburn2();
        let eos = StellarEos;
        let burner = BurnerConfig {
            batch_width: 4,
            ..Default::default()
        }
        .build(&net, &eos);
        for bad in [0, 17, 39] {
            let mut zones = hot_carbon_zones(40);
            for (i, zb) in zones.iter_mut().enumerate() {
                zb.t0 = 3e9 - 1e7 * i as f64; // sorted as given: `bad` is in chunk bad / 4
            }
            zones[bad].x0 = &[1.0];
            let caught = catch_unwind(AssertUnwindSafe(|| burner.burn_all(&zones, 1e-9)));
            let payload = caught.expect_err("the sweep must panic, not hang or succeed");
            let msg = payload.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("left == right"), "{msg}");
            zones[bad].x0 = &[1.0, 0.0];
            assert!(burner.burn_all(&zones, 1e-9).iter().all(Result::is_ok));
        }
    }

    #[test]
    fn faulted_zones_bypass_the_batch_and_ride_the_ladder() {
        let net = Network::cburn2();
        let eos = StellarEos;
        let cfg = BurnerConfig {
            batch_width: 4,
            faults: Some(BurnFaultConfig {
                seed: 42,
                rate: 1.0,
                rungs_to_fail: 1,
                error: BdfErrorKind::MaxSteps,
            }),
            ..Default::default()
        };
        let burner = cfg.build(&net, &eos);
        let zones: Vec<ZoneBurn> = (0..4)
            .map(|i| ZoneBurn {
                zone: i,
                rho: 5e7,
                t0: 3e9,
                x0: &[1.0, 0.0],
            })
            .collect();
        for rec in burner.burn_all(&zones, 1e-6) {
            let rec = rec.unwrap();
            assert_eq!(rec.rung, LadderRung::RelaxedTol, "injection saw attempt 0");
            assert_eq!(rec.retries, 1, "no spurious batch retry is charged");
        }
    }

    #[test]
    fn width_below_two_is_the_scalar_ladder_exactly() {
        let net = Network::cburn2();
        let eos = StellarEos;
        let cfg = BurnerConfig {
            batch_width: 1,
            ..Default::default()
        };
        let burner = cfg.build(&net, &eos);
        let zones = [ZoneBurn {
            zone: 0,
            rho: 5e7,
            t0: 3e9,
            x0: &[1.0, 0.0],
        }];
        let rec = burner.burn_all(&zones, 1e-6).remove(0).unwrap();
        let sref = burner.burn_zone(0, 5e7, 3e9, &[1.0, 0.0], 1e-6).unwrap();
        assert_eq!(rec.outcome.t.to_bits(), sref.outcome.t.to_bits());
        for (a, b) in rec.outcome.x.iter().zip(&sref.outcome.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn aprox13_batch_burn_is_physical() {
        let net = Network::aprox13();
        let eos = StellarEos;
        let cfg = BurnerConfig {
            batch_width: 8,
            ..Default::default()
        };
        let burner = cfg.build(&net, &eos);
        let mut x0 = vec![0.0; 13];
        x0[1] = 0.5;
        x0[2] = 0.5;
        let zones: Vec<ZoneBurn> = (0..8)
            .map(|i| ZoneBurn {
                zone: i,
                rho: 1e7 * (1.0 + 0.02 * i as f64),
                t0: 3e9 * (1.0 + 0.01 * i as f64),
                x0: &x0,
            })
            .collect();
        for rec in burner.burn_all(&zones, 1e-7) {
            let rec = rec.unwrap();
            let sum: f64 = rec.outcome.x.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "ΣX = {sum}");
            assert!(rec.outcome.enuc > 0.0);
            assert!(rec.outcome.x[1] < 0.5, "carbon consumed");
        }
    }
}
