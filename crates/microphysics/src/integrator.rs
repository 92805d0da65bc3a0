//! A VODE-style stiff ODE integrator: variable-step, variable-order BDF
//! (orders 1–5) with a modified-Newton corrector, in Nordsieck form.
//!
//! "ODE integrators are the key component of nuclear reactions simulations"
//! (§III): VODE (Brown, Byrne & Hindmarsh 1989) is the integrator the astro
//! codes ported to GPUs. This implementation keeps VODE's essential
//! structure:
//!
//! * the history is the **Nordsieck array** `z_j = h^j y^{(j)} / j!`, so a
//!   step-size change is the exact rescale `z_j ← r^j z_j` (no
//!   interpolation error);
//! * prediction applies the Pascal-triangle shift; correction adds `e·l`
//!   with the fixed-step BDF corrector coefficients `l` generated from
//!   `Λ(x) = Π_{i=1..q} (1 + x/i)`;
//! * the nonlinear corrector equation `y − γ f(y) − a = 0` (γ = `l₀ h`) is
//!   solved by a modified Newton iteration with matrix `I − γJ`;
//! * errors are measured in the weighted-RMS norm and both the step size
//!   and the order adapt.
//!
//! This module holds what surrounds the stepping loop — the [`OdeSystem`]
//! interface, options, statistics, errors, the Nordsieck algebra — and
//! [`BdfIntegrator`], the one integrator of the crate. The loop itself is
//! [`BdfIntegrator::integrate_lanes`] in [`crate::batch`]: it advances any
//! number of systems in lockstep, and [`BdfIntegrator::integrate`] is that
//! loop on one. The Newton matrix is factored on the network's compiled
//! sparse pattern ([`BdfIntegrator::sparse`], the paper's §VI plan) or by
//! dense LU with partial pivoting ([`BdfIntegrator::new`], the VODE
//! default).

use crate::batch::{gather_lane, scatter_lane, BatchWorkspace, LaneSolver, LaneStatus};
use crate::burner::RateMemo;
use crate::sparse::SparseLu;
use exastro_parallel::LANES;
use std::sync::Arc;

/// A first-order ODE system `dy/dt = f(t, y)` with an analytic Jacobian.
///
/// The stepping loop evaluates a batch of systems (one per lane) through
/// [`OdeSystem::rhs_lanes`] and [`OdeSystem::jac_lanes`]; their provided
/// versions call [`OdeSystem::rhs`] and [`OdeSystem::jac`] a lane at a
/// time, and a system with lane kernels overrides them.
pub trait OdeSystem {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;
    /// Evaluate the right-hand side into `dydt`.
    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]);
    /// Evaluate the row-major `dim²` Jacobian `∂f_i/∂y_j`.
    fn jac(&self, t: f64, y: &[f64], jac: &mut [f64]);

    /// [`OdeSystem::rhs`] of every lane `want` selects: lane `l` is system
    /// `lanes[l]` at the state `y[i·w + l]` (`w = lanes.len()`), and its
    /// right-hand side goes to `dydt` in the same layout. An unselected
    /// lane's slots of `dydt` are left as they are. Provided: gather, call,
    /// scatter, lane by lane.
    fn rhs_lanes(
        lanes: &[Self],
        t: f64,
        y: &[f64],
        want: &[bool],
        dydt: &mut [f64],
        scratch: &mut LaneScratch,
    ) where
        Self: Sized,
    {
        let (w, n) = (lanes.len(), y.len() / lanes.len());
        scratch.lane.resize(n, 0.0);
        scratch.out.resize(n, 0.0);
        for (l, sys) in lanes.iter().enumerate().filter(|&(l, _)| want[l]) {
            gather_lane(y, w, l, &mut scratch.lane);
            sys.rhs(t, &scratch.lane, &mut scratch.out);
            scatter_lane(&scratch.out, w, l, dydt);
        }
    }

    /// [`OdeSystem::jac`] of every lane `want` selects, on the layout of
    /// [`OdeSystem::rhs_lanes`]: lane `l`'s Jacobian goes to
    /// `jacs[l·dim²..][..dim²]`, an unselected lane's is left as it is.
    /// Provided: gather, call, copy, lane by lane.
    fn jac_lanes(
        lanes: &[Self],
        t: f64,
        y: &[f64],
        want: &[bool],
        jacs: &mut [f64],
        scratch: &mut LaneScratch,
    ) where
        Self: Sized,
    {
        let (w, n) = (lanes.len(), y.len() / lanes.len());
        scratch.lane.resize(n, 0.0);
        scratch.out.resize(n * n, 0.0);
        for (l, sys) in lanes.iter().enumerate().filter(|&(l, _)| want[l]) {
            gather_lane(y, w, l, &mut scratch.lane);
            sys.jac(t, &scratch.lane, &mut scratch.out);
            jacs[l * n * n..][..n * n].copy_from_slice(&scratch.out);
        }
    }
}

/// Scratch for [`OdeSystem::rhs_lanes`] and [`OdeSystem::jac_lanes`]: owned
/// by the stepping loop's [`BatchWorkspace`] and lent to every call, so a
/// batch evaluation allocates nothing once the buffers have grown. A call
/// finds them holding whatever the last one left.
#[derive(Default)]
pub struct LaneScratch {
    /// One lane's state (the provided entries gather into it).
    pub lane: Vec<f64>,
    /// One lane's right-hand side or Jacobian.
    pub out: Vec<f64>,
    /// [`LANES`]-wide rows for lane kernels.
    pub rows: Vec<[f64; LANES]>,
    /// The burner's rate stage of each block, kept between the calls of
    /// one [`BdfIntegrator::integrate_lanes`].
    pub(crate) rates: RateMemo,
}

/// A borrowed system is a system: lanes can be `&dyn OdeSystem`.
impl<S: OdeSystem + ?Sized> OdeSystem for &S {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (**self).rhs(t, y, dydt)
    }
    fn jac(&self, t: f64, y: &[f64], jac: &mut [f64]) {
        (**self).jac(t, y, jac)
    }
}

/// Integrator options. Build with [`BdfOptions::builder`], which validates;
/// the fields stay public for inspection.
#[derive(Clone, Debug)]
pub struct BdfOptions {
    /// Relative tolerance.
    pub rtol: f64,
    /// Absolute tolerance (per component, broadcast if length 1).
    pub atol: Vec<f64>,
    /// Maximum BDF order, 1–5.
    pub max_order: usize,
    /// Maximum number of internal steps before giving up.
    pub max_steps: usize,
    /// Initial step size; `None` chooses automatically.
    pub h0: Option<f64>,
}

impl Default for BdfOptions {
    fn default() -> Self {
        BdfOptions {
            rtol: 1e-8,
            atol: vec![1e-12],
            max_order: 5,
            max_steps: 500_000,
            h0: None,
        }
    }
}

impl BdfOptions {
    /// Start building a validated option set:
    /// `BdfOptions::builder().rtol(1e-10).atol(1e-14).build()?`.
    pub fn builder() -> BdfOptionsBuilder {
        BdfOptionsBuilder {
            opts: BdfOptions::default(),
        }
    }
}

/// Invalid integrator configuration, reported by
/// [`BdfOptionsBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum BdfConfigError {
    /// A tolerance was zero, negative, or non-finite.
    NonPositiveTolerance {
        /// Which tolerance ("rtol" or "atol").
        which: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The per-component atol vector was empty.
    EmptyAtol,
    /// `max_steps` was zero.
    ZeroMaxSteps,
    /// `max_order` was outside 1–5.
    MaxOrderOutOfRange(usize),
    /// An explicit initial step was zero, negative, or non-finite.
    NonPositiveInitialStep(f64),
}

impl std::fmt::Display for BdfConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BdfConfigError::NonPositiveTolerance { which, value } => {
                write!(
                    f,
                    "BDF config: {which} must be positive and finite, got {value}"
                )
            }
            BdfConfigError::EmptyAtol => write!(f, "BDF config: atol vector is empty"),
            BdfConfigError::ZeroMaxSteps => write!(f, "BDF config: max_steps must be > 0"),
            BdfConfigError::MaxOrderOutOfRange(q) => {
                write!(f, "BDF config: max_order must be 1–5, got {q}")
            }
            BdfConfigError::NonPositiveInitialStep(h) => {
                write!(f, "BDF config: h0 must be positive and finite, got {h}")
            }
        }
    }
}

impl std::error::Error for BdfConfigError {}

/// Builder for [`BdfOptions`]; [`BdfOptionsBuilder::build`] validates the
/// configuration and returns a typed [`BdfConfigError`] on nonsense input.
#[derive(Clone, Debug)]
pub struct BdfOptionsBuilder {
    opts: BdfOptions,
}

impl BdfOptionsBuilder {
    /// Relative tolerance.
    pub fn rtol(mut self, rtol: f64) -> Self {
        self.opts.rtol = rtol;
        self
    }

    /// Scalar absolute tolerance, broadcast to every component.
    pub fn atol(mut self, atol: f64) -> Self {
        self.opts.atol = vec![atol];
        self
    }

    /// Per-component absolute tolerances.
    pub fn atol_vec(mut self, atol: Vec<f64>) -> Self {
        self.opts.atol = atol;
        self
    }

    /// Maximum BDF order (1–5).
    pub fn max_order(mut self, q: usize) -> Self {
        self.opts.max_order = q;
        self
    }

    /// Maximum internal step count.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.opts.max_steps = n;
        self
    }

    /// Fixed initial step size (default: chosen automatically).
    pub fn h0(mut self, h0: f64) -> Self {
        self.opts.h0 = Some(h0);
        self
    }

    /// Validate and produce the options.
    pub fn build(self) -> Result<BdfOptions, BdfConfigError> {
        let o = self.opts;
        if !(o.rtol > 0.0 && o.rtol.is_finite()) {
            return Err(BdfConfigError::NonPositiveTolerance {
                which: "rtol",
                value: o.rtol,
            });
        }
        if o.atol.is_empty() {
            return Err(BdfConfigError::EmptyAtol);
        }
        for &a in &o.atol {
            if !(a > 0.0 && a.is_finite()) {
                return Err(BdfConfigError::NonPositiveTolerance {
                    which: "atol",
                    value: a,
                });
            }
        }
        if o.max_steps == 0 {
            return Err(BdfConfigError::ZeroMaxSteps);
        }
        if !(1..=5).contains(&o.max_order) {
            return Err(BdfConfigError::MaxOrderOutOfRange(o.max_order));
        }
        if let Some(h0) = o.h0 {
            if !(h0 > 0.0 && h0.is_finite()) {
                return Err(BdfConfigError::NonPositiveInitialStep(h0));
            }
        }
        Ok(o)
    }
}

/// Statistics from one integration (returned on success **and** carried by
/// [`BdfError`] on failure, so failed work is never invisible).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BdfStats {
    /// Accepted steps.
    pub steps: u64,
    /// Error-test or Newton failures that forced a retry.
    pub rejected: u64,
    /// Right-hand-side evaluations.
    pub rhs_evals: u64,
    /// Jacobian evaluations.
    pub jac_evals: u64,
    /// Linear-system factorizations.
    pub factorizations: u64,
    /// Total Newton iterations.
    pub newton_iters: u64,
    /// Wall time in the Newton linear algebra (factor + back-solves), ns.
    pub solve_ns: u64,
    /// Order in use when integration finished.
    pub final_order: usize,
}

impl BdfStats {
    /// Fold another integration's counters into this one (the retry
    /// ladder charges every rung's cost to the zone). `final_order` takes
    /// the most recent value.
    pub fn merge(&mut self, other: &BdfStats) {
        self.steps += other.steps;
        self.rejected += other.rejected;
        self.rhs_evals += other.rhs_evals;
        self.jac_evals += other.jac_evals;
        self.factorizations += other.factorizations;
        self.newton_iters += other.newton_iters;
        self.solve_ns += other.solve_ns;
        self.final_order = other.final_order;
    }
}

/// What went wrong, independent of how much work was spent finding out.
#[derive(Clone, Debug, PartialEq)]
pub enum BdfErrorKind {
    /// Too many internal steps.
    MaxSteps,
    /// Step size underflowed: the problem is too stiff for the tolerances
    /// or the RHS is returning non-finite values.
    StepUnderflow {
        /// Time reached before the failure.
        t: f64,
    },
    /// The Newton matrix was singular beyond recovery.
    SingularMatrix,
    /// The integration "succeeded" but left non-finite state behind (used
    /// by post-integration validators, e.g. the burn retry ladder).
    NonFinite,
    /// A per-component `atol` vector matched neither length 1 (broadcast)
    /// nor the system dimension. Caught at [`BdfIntegrator::integrate`]
    /// entry, before any stepping, instead of panicking with an
    /// index-out-of-bounds mid-integration.
    AtolMismatch {
        /// Length of the configured atol vector.
        atol_len: usize,
        /// System dimension it failed to match.
        dim: usize,
    },
}

impl std::fmt::Display for BdfErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BdfErrorKind::MaxSteps => write!(f, "BDF: exceeded maximum step count"),
            BdfErrorKind::StepUnderflow { t } => write!(f, "BDF: step size underflow at t = {t}"),
            BdfErrorKind::SingularMatrix => write!(f, "BDF: singular Newton matrix"),
            BdfErrorKind::NonFinite => write!(f, "BDF: integration produced non-finite state"),
            BdfErrorKind::AtolMismatch { atol_len, dim } => write!(
                f,
                "BDF: atol has {atol_len} components but the system dimension is {dim} \
                 (expected 1 or {dim})"
            ),
        }
    }
}

/// Integration failure: the error kind plus the statistics of the work
/// spent before failing (the retry ladder charges failed attempts to the
/// zone's record, so a failure that hid its cost would corrupt telemetry).
#[derive(Clone, Debug, PartialEq)]
pub struct BdfError {
    /// What went wrong.
    pub kind: BdfErrorKind,
    /// Work performed before the failure.
    pub stats: BdfStats,
}

impl BdfError {
    /// A bare error with zeroed stats (for injected/synthetic failures).
    pub fn from_kind(kind: BdfErrorKind) -> Self {
        BdfError {
            kind,
            stats: BdfStats::default(),
        }
    }
}

impl std::fmt::Display for BdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)
    }
}

impl std::error::Error for BdfError {}

/// Corrector coefficients `l[0..=q]` for fixed-step BDF of order `q`:
/// the coefficients of `Λ(x) = Π_{i=1..q}(1 + x/i)`, normalized to `l₁ = 1`.
/// `l₀` equals the BDF β (1, 2/3, 6/11, 12/25, 60/137).
pub(crate) fn bdf_l(q: usize, l: &mut [f64; 6]) {
    l.iter_mut().for_each(|v| *v = 0.0);
    l[0] = 1.0;
    for i in 1..=q {
        // Multiply the polynomial by (1 + x/i).
        for j in (1..=i).rev() {
            let prev = l[j - 1];
            l[j] += prev / i as f64;
        }
    }
    let l1 = l[1];
    for v in l.iter_mut() {
        *v /= l1;
    }
}

/// Reject a per-component `atol` whose length matches neither 1 nor the
/// system dimension — indexing it per component would panic mid-integration.
pub(crate) fn check_atol(opts: &BdfOptions, dim: usize) -> Result<(), BdfError> {
    if opts.atol.len() != 1 && opts.atol.len() != dim {
        return Err(BdfError::from_kind(BdfErrorKind::AtolMismatch {
            atol_len: opts.atol.len(),
            dim,
        }));
    }
    Ok(())
}

/// Apply the Pascal-triangle prediction `z ← A z` in place. The inner loop
/// is over the vector length: structure-of-arrays vectors of length
/// `dim × width`, whatever the width.
pub(crate) fn predict(z: &mut [Vec<f64>], q: usize) {
    for k in 1..=q {
        for j in (k..=q).rev() {
            let (a, b) = z.split_at_mut(j);
            let zl = &mut a[j - 1];
            let zh = &b[0];
            for i in 0..zl.len() {
                zl[i] += zh[i];
            }
        }
    }
}

/// Undo [`predict`] (exact inverse; same descending loop, opposite sign,
/// as in CVODE's `cvRestore`).
pub(crate) fn unpredict(z: &mut [Vec<f64>], q: usize) {
    for k in 1..=q {
        for j in (k..=q).rev() {
            let (a, b) = z.split_at_mut(j);
            let zl = &mut a[j - 1];
            let zh = &b[0];
            for i in 0..zl.len() {
                zl[i] -= zh[i];
            }
        }
    }
}

/// Exact step-size rescale `z_j ← r^j z_j`.
pub(crate) fn rescale(z: &mut [Vec<f64>], q: usize, r: f64) {
    let mut f = 1.0;
    for zj in z.iter_mut().take(q + 1).skip(1) {
        f *= r;
        for v in zj.iter_mut() {
            *v *= f;
        }
    }
}

/// The BDF integrator: a validated option set and the way the Newton
/// matrices are solved. Reusable across any number of integrations, of one
/// system ([`BdfIntegrator::integrate`]) or of many in lockstep
/// ([`BdfIntegrator::integrate_lanes`]).
pub struct BdfIntegrator {
    pub(crate) opts: BdfOptions,
    pub(crate) solver: LaneSolver,
}

impl BdfIntegrator {
    /// An integrator that factors `I − γJ` by dense LU with partial
    /// pivoting, one lane at a time: it needs no sparsity pattern and
    /// survives a zero on the diagonal.
    pub fn new(opts: BdfOptions) -> Self {
        BdfIntegrator {
            opts,
            solver: LaneSolver::Dense,
        }
    }

    /// An integrator on a compiled symbolic sparse LU (one per network,
    /// shared by every integrator built on it): the pivot-free operation
    /// schedule is replayed for all lanes at once.
    pub fn sparse(opts: BdfOptions, lu: Arc<SparseLu>) -> Self {
        BdfIntegrator {
            opts,
            solver: LaneSolver::Sparse(lu),
        }
    }

    /// The configured options.
    pub fn options(&self) -> &BdfOptions {
        &self.opts
    }

    /// The region-table row a one-system integration's linear-algebra time
    /// goes to, named for the linear solver in use.
    pub(crate) fn solve_row(&self) -> &'static str {
        match self.solver {
            LaneSolver::Sparse(_) => "solve[sparse]",
            LaneSolver::Dense => "solve[dense]",
        }
    }

    /// Integrate `sys` from `t0` to `tend`, updating `y` in place: the
    /// stepping loop at width 1. Returns the work statistics on success; on
    /// failure the returned [`BdfError`] carries both the error kind and
    /// the statistics of the work spent before failing, and `y` is the
    /// last accepted state.
    pub fn integrate(
        &self,
        sys: &dyn OdeSystem,
        t0: f64,
        tend: f64,
        y: &mut [f64],
    ) -> Result<BdfStats, BdfError> {
        let mut ws = BatchWorkspace::default();
        let report = &self.integrate_lanes(&[sys], t0, tend, y, &mut ws)[0];
        match &report.status {
            LaneStatus::Completed => Ok(report.stats),
            LaneStatus::Dropped(kind) => Err(BdfError {
                kind: kind.clone(),
                stats: report.stats,
            }),
        }
    }
}

/// Classic fixed-step RK4, for non-stiff references and the stiffness
/// demonstration tests.
pub fn rk4(sys: &dyn OdeSystem, t0: f64, tend: f64, nsteps: usize, y: &mut [f64]) {
    let n = sys.dim();
    let h = (tend - t0) / nsteps as f64;
    let (mut k1, mut k2, mut k3, mut k4) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut tmp = vec![0.0; n];
    let mut t = t0;
    for _ in 0..nsteps {
        sys.rhs(t, y, &mut k1);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k1[i];
        }
        sys.rhs(t + 0.5 * h, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k2[i];
        }
        sys.rhs(t + 0.5 * h, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = y[i] + h * k3[i];
        }
        sys.rhs(t + h, &tmp, &mut k4);
        for i in 0..n {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrPattern;

    /// y' = -k y, solution y = e^{-kt}.
    struct Decay {
        k: f64,
    }
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
            dydt[0] = -self.k * y[0];
        }
        fn jac(&self, _t: f64, _y: &[f64], jac: &mut [f64]) {
            jac[0] = -self.k;
        }
    }

    /// The classic stiff Robertson problem.
    struct Robertson;
    impl OdeSystem for Robertson {
        fn dim(&self) -> usize {
            3
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d[0] = -0.04 * y[0] + 1e4 * y[1] * y[2];
            d[2] = 3e7 * y[1] * y[1];
            d[1] = -d[0] - d[2];
        }
        fn jac(&self, _t: f64, y: &[f64], j: &mut [f64]) {
            j[0] = -0.04;
            j[1] = 1e4 * y[2];
            j[2] = 1e4 * y[1];
            j[6] = 0.0;
            j[7] = 6e7 * y[1];
            j[8] = 0.0;
            j[3] = -j[0] - j[6];
            j[4] = -j[1] - j[7];
            j[5] = -j[2] - j[8];
        }
    }

    /// Oscillator for accuracy/order checking: y'' = -y.
    struct Oscillator;
    impl OdeSystem for Oscillator {
        fn dim(&self) -> usize {
            2
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d[0] = y[1];
            d[1] = -y[0];
        }
        fn jac(&self, _t: f64, _y: &[f64], j: &mut [f64]) {
            j[0] = 0.0;
            j[1] = 1.0;
            j[2] = -1.0;
            j[3] = 0.0;
        }
    }

    #[test]
    fn bdf_l_coefficients_match_tables() {
        let mut l = [0.0; 6];
        bdf_l(1, &mut l);
        assert_eq!(&l[..2], &[1.0, 1.0]);
        bdf_l(2, &mut l);
        assert!((l[0] - 2.0 / 3.0).abs() < 1e-15);
        assert!((l[2] - 1.0 / 3.0).abs() < 1e-15);
        bdf_l(3, &mut l);
        assert!((l[0] - 6.0 / 11.0).abs() < 1e-15);
        assert!((l[2] - 6.0 / 11.0).abs() < 1e-15);
        assert!((l[3] - 1.0 / 11.0).abs() < 1e-15);
        bdf_l(5, &mut l);
        assert!((l[0] - 120.0 / 274.0).abs() < 1e-14);
        assert!((l[5] - 1.0 / 274.0).abs() < 1e-15);
    }

    #[test]
    fn pascal_predict_unpredict_roundtrip() {
        let mut z = vec![vec![1.0, 2.0], vec![0.5, -1.0], vec![0.25, 0.125]];
        let orig = z.clone();
        predict(&mut z, 2);
        assert_ne!(z, orig);
        // z0 after prediction = y + hy' + h²y''/2 (Taylor shift).
        assert_eq!(z[0][0], 1.0 + 0.5 + 0.25);
        unpredict(&mut z, 2);
        for (a, b) in z.iter().zip(&orig) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn rescale_is_geometric() {
        let mut z = vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]];
        rescale(&mut z, 3, 0.5);
        assert_eq!(z[0][0], 1.0);
        assert_eq!(z[1][0], 0.5);
        assert_eq!(z[2][0], 0.25);
        assert_eq!(z[3][0], 0.125);
    }

    #[test]
    fn decay_matches_analytic() {
        let sys = Decay { k: 2.5 };
        let mut y = [1.0];
        let integ = BdfIntegrator::new(BdfOptions::default());
        let stats = integ.integrate(&sys, 0.0, 3.0, &mut y).unwrap();
        let exact = (-2.5f64 * 3.0).exp();
        // Global error can exceed rtol by a couple of orders (as in VODE).
        assert!(
            (y[0] - exact).abs() < 1e-4 * exact.max(1e-6),
            "y = {}, exact = {exact}",
            y[0]
        );
        assert!(stats.steps > 0);
    }

    #[test]
    fn stiff_decay_takes_few_steps() {
        // k = 1e8 over t = 1: explicit would need ~1e8 steps.
        let sys = Decay { k: 1e8 };
        let mut y = [1.0];
        let opts = BdfOptions::builder().rtol(1e-6).build().unwrap();
        let integ = BdfIntegrator::new(opts);
        let stats = integ.integrate(&sys, 0.0, 1.0, &mut y).unwrap();
        assert!(y[0].abs() < 1e-8);
        assert!(
            stats.steps < 2000,
            "implicit integrator took {} steps on a stiff decay",
            stats.steps
        );
    }

    #[test]
    fn robertson_standard_checkpoint() {
        let mut y = [1.0, 0.0, 0.0];
        let opts = BdfOptions::builder()
            .rtol(1e-8)
            .atol_vec(vec![1e-12, 1e-14, 1e-12])
            .build()
            .unwrap();
        let integ = BdfIntegrator::new(opts);
        let stats = integ.integrate(&Robertson, 0.0, 40.0, &mut y).unwrap();
        // Reference values at t = 40 (from published stiff test suites).
        assert!((y[0] - 0.7158271).abs() < 1e-4, "y0 = {}", y[0]);
        assert!((y[1] - 9.186e-6).abs() < 1e-7, "y1 = {}", y[1]);
        assert!((y[2] - 0.2841636).abs() < 1e-4, "y2 = {}", y[2]);
        assert!((y[0] + y[1] + y[2] - 1.0).abs() < 1e-7);
        assert!(stats.steps < 20_000, "{} steps", stats.steps);
        assert!(stats.solve_ns > 0, "linear-solve time must be attributed");
    }

    #[test]
    fn oscillator_accuracy_and_order_raising() {
        let mut y = [1.0, 0.0];
        let opts = BdfOptions::builder()
            .rtol(1e-9)
            .atol(1e-12)
            .build()
            .unwrap();
        let integ = BdfIntegrator::new(opts);
        let stats = integ.integrate(&Oscillator, 0.0, 10.0, &mut y).unwrap();
        assert!((y[0] - 10f64.cos()).abs() < 1e-5, "y0 = {}", y[0]);
        assert!((y[1] + 10f64.sin()).abs() < 1e-5, "y1 = {}", y[1]);
        assert!(
            stats.final_order >= 3,
            "tight tolerances should drive the order up (got {})",
            stats.final_order
        );
    }

    #[test]
    fn tighter_tolerance_means_smaller_error() {
        let run = |rtol: f64| {
            let mut y = [1.0, 0.0];
            let opts = BdfOptions::builder()
                .rtol(rtol)
                .atol(rtol * 1e-3)
                .build()
                .unwrap();
            let integ = BdfIntegrator::new(opts);
            integ.integrate(&Oscillator, 0.0, 5.0, &mut y).unwrap();
            (y[0] - 5f64.cos()).abs()
        };
        let loose = run(1e-4);
        let tight = run(1e-10);
        assert!(tight < loose, "tight {tight} vs loose {loose}");
        assert!(tight < 1e-6);
    }

    #[test]
    fn sparse_solver_matches_dense() {
        let pattern = CsrPattern::new(
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
        );
        let run = |integ: fn(BdfOptions, &CsrPattern) -> BdfIntegrator| {
            let opts = BdfOptions::builder()
                .rtol(1e-8)
                .atol_vec(vec![1e-12, 1e-14, 1e-12])
                .build()
                .unwrap();
            let mut y = [1.0, 0.0, 0.0];
            integ(opts, &pattern)
                .integrate(&Robertson, 0.0, 40.0, &mut y)
                .unwrap();
            y
        };
        let yd = run(|opts, _| BdfIntegrator::new(opts));
        let ys = run(|opts, p| BdfIntegrator::sparse(opts, Arc::new(SparseLu::compile(p))));
        for i in 0..3 {
            assert!(
                (yd[i] - ys[i]).abs() < 1e-6 * yd[i].abs().max(1e-10),
                "component {i}: dense {} vs sparse {}",
                yd[i],
                ys[i]
            );
        }
    }

    #[test]
    fn rk4_oscillator_reference() {
        let mut y = [1.0, 0.0];
        rk4(&Oscillator, 0.0, 10.0, 10_000, &mut y);
        assert!((y[0] - 10f64.cos()).abs() < 1e-9);
    }

    #[test]
    fn max_steps_is_enforced() {
        let sys = Decay { k: 1.0 };
        let mut y = [1.0];
        let opts = BdfOptions::builder()
            .max_steps(3)
            .rtol(1e-12)
            .atol(1e-14)
            .h0(1e-9)
            .build()
            .unwrap();
        let integ = BdfIntegrator::new(opts);
        assert_eq!(
            integ.integrate(&sys, 0.0, 1.0, &mut y).unwrap_err().kind,
            BdfErrorKind::MaxSteps
        );
    }

    #[test]
    fn failed_integration_reports_its_cost() {
        let sys = Decay { k: 1.0 };
        let mut y = [1.0];
        let opts = BdfOptions::builder()
            .max_steps(3)
            .rtol(1e-12)
            .atol(1e-14)
            .h0(1e-9)
            .build()
            .unwrap();
        let integ = BdfIntegrator::new(opts);
        let err = integ.integrate(&sys, 0.0, 1.0, &mut y).unwrap_err();
        assert_eq!(err.kind, BdfErrorKind::MaxSteps);
        assert!(
            err.stats.rhs_evals > 0,
            "failed run must still report its cost"
        );
        assert!(err.stats.steps + err.stats.rejected > 3);

        // Accumulation across attempts is the caller's merge.
        let mut total = err.stats;
        let mut y2 = [1.0];
        let err2 = integ.integrate(&sys, 0.0, 1.0, &mut y2).unwrap_err();
        total.merge(&err2.stats);
        assert_eq!(err2.kind, BdfErrorKind::MaxSteps);
        assert!(total.rhs_evals > err.stats.rhs_evals);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let a = BdfStats {
            steps: 3,
            rejected: 1,
            rhs_evals: 10,
            jac_evals: 4,
            factorizations: 4,
            newton_iters: 8,
            solve_ns: 100,
            final_order: 2,
        };
        let mut m = a;
        m.merge(&BdfStats {
            steps: 2,
            rejected: 0,
            rhs_evals: 5,
            jac_evals: 2,
            factorizations: 2,
            newton_iters: 4,
            solve_ns: 50,
            final_order: 4,
        });
        assert_eq!(m.steps, 5);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.rhs_evals, 15);
        assert_eq!(m.jac_evals, 6);
        assert_eq!(m.factorizations, 6);
        assert_eq!(m.newton_iters, 12);
        assert_eq!(m.solve_ns, 150);
        assert_eq!(m.final_order, 4, "final_order takes the latest value");
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(BdfOptions::builder().build().is_ok());
        assert_eq!(
            BdfOptions::builder().rtol(0.0).build().unwrap_err(),
            BdfConfigError::NonPositiveTolerance {
                which: "rtol",
                value: 0.0
            }
        );
        assert!(matches!(
            BdfOptions::builder().rtol(f64::NAN).build().unwrap_err(),
            BdfConfigError::NonPositiveTolerance { which: "rtol", .. }
        ));
        assert_eq!(
            BdfOptions::builder().atol(-1e-9).build().unwrap_err(),
            BdfConfigError::NonPositiveTolerance {
                which: "atol",
                value: -1e-9
            }
        );
        assert_eq!(
            BdfOptions::builder().atol_vec(vec![]).build().unwrap_err(),
            BdfConfigError::EmptyAtol
        );
        assert_eq!(
            BdfOptions::builder().max_steps(0).build().unwrap_err(),
            BdfConfigError::ZeroMaxSteps
        );
        assert_eq!(
            BdfOptions::builder().max_order(7).build().unwrap_err(),
            BdfConfigError::MaxOrderOutOfRange(7)
        );
        assert_eq!(
            BdfOptions::builder().h0(-1.0).build().unwrap_err(),
            BdfConfigError::NonPositiveInitialStep(-1.0)
        );
        let opts = BdfOptions::builder()
            .rtol(1e-10)
            .atol(1e-14)
            .max_order(3)
            .max_steps(1000)
            .h0(1e-12)
            .build()
            .unwrap();
        assert_eq!(opts.rtol, 1e-10);
        assert_eq!(opts.max_order, 3);
        assert_eq!(opts.h0, Some(1e-12));
    }

    #[test]
    fn mismatched_atol_is_a_structured_error_not_a_panic() {
        // Robertson has dim 3; a 2-component atol used to index out of
        // bounds inside error_weights once the integrator was mid-step.
        let opts = BdfOptions::builder()
            .atol_vec(vec![1e-12, 1e-12])
            .build()
            .unwrap();
        let integ = BdfIntegrator::new(opts);
        let mut y = [1.0, 0.0, 0.0];
        let err = integ.integrate(&Robertson, 0.0, 40.0, &mut y).unwrap_err();
        assert_eq!(
            err.kind,
            BdfErrorKind::AtolMismatch {
                atol_len: 2,
                dim: 3
            }
        );
        // Caught at entry: no work was spent, and the state is untouched.
        assert_eq!(err.stats, BdfStats::default());
        assert_eq!(y, [1.0, 0.0, 0.0]);
        // Broadcast (1) and exact-match (dim) lengths still integrate.
        for atol in [vec![1e-12], vec![1e-12, 1e-14, 1e-12]] {
            let opts = BdfOptions::builder().atol_vec(atol).build().unwrap();
            let integ = BdfIntegrator::new(opts);
            let mut y = [1.0, 0.0, 0.0];
            assert!(integ.integrate(&Robertson, 0.0, 40.0, &mut y).is_ok());
        }
    }

    #[test]
    fn step_exactly_hits_tend() {
        struct Lin;
        impl OdeSystem for Lin {
            fn dim(&self) -> usize {
                1
            }
            fn rhs(&self, _t: f64, _y: &[f64], d: &mut [f64]) {
                d[0] = 3.0;
            }
            fn jac(&self, _t: f64, _y: &[f64], j: &mut [f64]) {
                j[0] = 0.0;
            }
        }
        let mut y = [0.5];
        let integ = BdfIntegrator::new(BdfOptions::default());
        integ.integrate(&Lin, 0.0, 7.0, &mut y).unwrap();
        assert!((y[0] - 21.5).abs() < 1e-8, "y = {}", y[0]);
    }
}
