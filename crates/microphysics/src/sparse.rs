//! Sparse-Jacobian linear algebra for the stiff-burner Newton solves — the
//! paper's §VI plan ("we can straightforwardly replace the dense linear
//! system with a sparse linear system; we know what the sparsity pattern
//! is") made concrete.
//!
//! A reaction network's Jacobian sparsity is fixed at compile time, so all
//! of the *symbolic* work of a sparse LU — the fill-reducing elimination
//! order, the fill-in pattern, and the exact multiply–subtract schedule —
//! is done **once per network** ([`SparseLu::compile`]) and replayed every
//! Newton iteration with no index searches, no branching, and no pivot
//! hunting. This is a Gilbert–Peierls-style factorization specialized to a
//! fixed pattern: Gilbert & Peierls compute each column's reach by a
//! depth-first traversal during numeric factorization; with a pattern that
//! never changes the traversal is hoisted into the one-time symbolic phase
//! and the numeric phase degenerates to a straight-line replay.
//!
//! Pivot-free elimination is safe here for the same reason it is in VODE's
//! sparse variants: the Newton matrix is `I − γJ` with `γ = l₀h` small, so
//! it is strongly diagonally dominant. The symbolic phase still orders the
//! elimination by **minimum degree** — without it, the dense He⁴ and
//! temperature rows/columns of an alpha-chain network act as an arrowhead
//! and elimination at step 0 fills the entire matrix (see the arrowhead
//! tests below); eliminating the near-tridiagonal chain block
//! first keeps the fill close to zero.

use crate::linalg::Singular;
use exastro_parallel::LANES;
use std::array::from_fn;

/// A fixed sparsity pattern in compressed-sparse-row form: for each row, a
/// sorted run of column indices. The diagonal is always included (Newton
/// matrices are `I − γJ`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrPattern {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
}

impl CsrPattern {
    /// Build from a list of (row, col) nonzero positions; duplicates are
    /// merged and the diagonal is forced in.
    pub fn new(n: usize, mut entries: Vec<(usize, usize)>) -> Self {
        for d in 0..n {
            entries.push((d, d));
        }
        entries.sort_unstable();
        entries.dedup();
        let mut row_ptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(entries.len());
        for &(r, c) in &entries {
            assert!(r < n && c < n, "entry ({r},{c}) out of range for n={n}");
            row_ptr[r + 1] += 1;
            cols.push(c);
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrPattern { n, row_ptr, cols }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structurally nonzero slots.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Fraction of the dense matrix that is structurally zero.
    pub fn empty_fraction(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.n * self.n) as f64
    }

    /// The sorted column indices of row `r`.
    pub fn row(&self, r: usize) -> &[usize] {
        &self.cols[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// True if `(r, c)` is a structural nonzero.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Iterate all (row, col) entries in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |r| self.row(r).iter().map(move |&c| (r, c)))
    }
}

/// Greedy minimum-degree ordering on the symmetrized pattern: at each step
/// eliminate the node with the fewest remaining neighbours, then connect
/// those neighbours into a clique (the fill that elimination would create).
/// O(n³) worst case — run once per network on matrices of dimension ≲ 20.
fn min_degree_order(n: usize, pattern: &CsrPattern) -> Vec<usize> {
    let mut adj = vec![false; n * n];
    for (r, c) in pattern.entries() {
        if r != c {
            adj[r * n + c] = true;
            adj[c * n + r] = true;
        }
    }
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for v in 0..n {
            if eliminated[v] {
                continue;
            }
            let deg = (0..n).filter(|&u| !eliminated[u] && adj[v * n + u]).count();
            if deg < best_deg {
                best_deg = deg;
                best = v;
            }
        }
        let nbrs: Vec<usize> = (0..n)
            .filter(|&u| !eliminated[u] && adj[best * n + u])
            .collect();
        for &a in &nbrs {
            for &b in &nbrs {
                if a != b {
                    adj[a * n + b] = true;
                }
            }
        }
        eliminated[best] = true;
        order.push(best);
    }
    order
}

/// One pivot-column operation of the numeric factorization: divide the
/// sub-diagonal slot `mult` by pivot `diag`, then apply the elimination
/// updates `elims[e0..e1]` with that multiplier.
#[derive(Clone, Copy, Debug)]
struct ColOp {
    mult: u32,
    diag: u32,
    e0: u32,
    e1: u32,
}

/// Precomputed symbolic sparse LU for one pattern: fill-reducing minimum
/// degree order, fill-in, and the complete numeric schedule.
///
/// Numeric factorization ([`SparseLu::factor`] /
/// [`SparseLu::factor_newton`]) and the triangular solves
/// ([`SparseLu::solve`]) are straight-line replays of the schedule — the
/// operation count a code generator would emit, which is the paper's §VI
/// code-generation plan.
#[derive(Clone, Debug)]
pub struct SparseLu {
    n: usize,
    /// `perm[k]` = original index eliminated k-th (factors `P A Pᵀ`).
    perm: Vec<usize>,
    /// Structural nonzeros after fill-in, in permuted row-major order.
    nnz_filled: usize,
    /// Number of structural slots before fill-in.
    nnz_pattern: usize,
    /// Slot of permuted (k, k).
    diag: Vec<u32>,
    col_ops: Vec<ColOp>,
    /// Elimination updates `(src, target)`: `v[target] -= m · v[src]`.
    elims: Vec<(u32, u32)>,
    /// `(slot, dense index r·n+c in ORIGINAL numbering)` for each pattern
    /// entry — the gather that loads a dense row-major Jacobian.
    scatter: Vec<(u32, u32)>,
    /// Forward-substitution schedule `(slot, src row, target row)`.
    lower: Vec<(u32, u32, u32)>,
    /// Back-substitution schedule, pivot rows descending.
    upper: Vec<(u32, u32, u32)>,
}

impl SparseLu {
    /// Run the symbolic factorization for `pattern`: choose the elimination
    /// order, compute the fill, and record the numeric schedule.
    pub fn compile(pattern: &CsrPattern) -> Self {
        let n = pattern.dim();
        let perm = min_degree_order(n, pattern);
        let mut inv = vec![0usize; n];
        for (k, &p) in perm.iter().enumerate() {
            inv[p] = k;
        }
        // Permuted boolean pattern, then fill-in by no-pivot elimination.
        let mut nz = vec![false; n * n];
        for (r, c) in pattern.entries() {
            nz[inv[r] * n + inv[c]] = true;
        }
        for k in 0..n {
            debug_assert!(nz[k * n + k], "diagonal is structurally guaranteed");
            for r in (k + 1)..n {
                if nz[r * n + k] {
                    for c in (k + 1)..n {
                        if nz[k * n + c] {
                            nz[r * n + c] = true;
                        }
                    }
                }
            }
        }
        let mut slot_of = vec![u32::MAX; n * n];
        let mut nnz_filled = 0usize;
        for r in 0..n {
            for c in 0..n {
                if nz[r * n + c] {
                    slot_of[r * n + c] = nnz_filled as u32;
                    nnz_filled += 1;
                }
            }
        }
        let diag: Vec<u32> = (0..n).map(|k| slot_of[k * n + k]).collect();
        let mut col_ops = Vec::new();
        let mut elims: Vec<(u32, u32)> = Vec::new();
        for k in 0..n {
            for r in (k + 1)..n {
                if slot_of[r * n + k] != u32::MAX {
                    let e0 = elims.len() as u32;
                    for c in (k + 1)..n {
                        if slot_of[k * n + c] != u32::MAX {
                            elims.push((slot_of[k * n + c], slot_of[r * n + c]));
                        }
                    }
                    col_ops.push(ColOp {
                        mult: slot_of[r * n + k],
                        diag: diag[k],
                        e0,
                        e1: elims.len() as u32,
                    });
                }
            }
        }
        let scatter = pattern
            .entries()
            .map(|(r, c)| (slot_of[inv[r] * n + inv[c]], (r * n + c) as u32))
            .collect();
        let mut lower = Vec::new();
        for k in 0..n {
            for r in (k + 1)..n {
                if slot_of[r * n + k] != u32::MAX {
                    lower.push((slot_of[r * n + k], k as u32, r as u32));
                }
            }
        }
        let mut upper = Vec::new();
        for k in (0..n).rev() {
            for r in 0..k {
                if slot_of[r * n + k] != u32::MAX {
                    upper.push((slot_of[r * n + k], k as u32, r as u32));
                }
            }
        }
        SparseLu {
            n,
            perm,
            nnz_filled,
            nnz_pattern: pattern.nnz(),
            diag,
            col_ops,
            elims,
            scatter,
            lower,
            upper,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored values after fill-in (the factor workspace length).
    pub fn nnz_filled(&self) -> usize {
        self.nnz_filled
    }

    /// Fill-in created by the chosen elimination order (0 = perfect).
    pub fn fill_in(&self) -> usize {
        self.nnz_filled - self.nnz_pattern
    }

    /// The fill-reducing elimination order (`order[k]` = original index
    /// eliminated k-th).
    pub fn elimination_order(&self) -> &[usize] {
        &self.perm
    }

    /// Multiply–subtract operations per numeric factorization — the flop
    /// count the dense O(n³/3) elimination is being compared against.
    pub fn factor_ops(&self) -> usize {
        self.col_ops.len() + self.elims.len()
    }

    fn eliminate(&self, vals: &mut [f64]) -> Result<(), Singular> {
        for op in &self.col_ops {
            let d = vals[op.diag as usize];
            if d == 0.0 || !d.is_finite() {
                return Err(Singular);
            }
            let m = vals[op.mult as usize] / d;
            vals[op.mult as usize] = m;
            for &(src, tgt) in &self.elims[op.e0 as usize..op.e1 as usize] {
                vals[tgt as usize] -= m * vals[src as usize];
            }
        }
        for &d in &self.diag {
            let v = vals[d as usize];
            if v == 0.0 || !v.is_finite() {
                return Err(Singular);
            }
        }
        Ok(())
    }

    /// Numerically factor the dense row-major matrix `a` (only pattern
    /// slots are read) into `vals`, which must have length
    /// [`SparseLu::nnz_filled`].
    pub fn factor(&self, a: &[f64], vals: &mut [f64]) -> Result<(), Singular> {
        assert_eq!(a.len(), self.n * self.n);
        assert_eq!(vals.len(), self.nnz_filled);
        vals.iter_mut().for_each(|v| *v = 0.0);
        for &(slot, didx) in &self.scatter {
            vals[slot as usize] = a[didx as usize];
        }
        self.eliminate(vals)
    }

    /// Form and factor the Newton matrix `I − γJ` from the dense row-major
    /// Jacobian `jac` in one pass: one lane of
    /// [`SparseLu::factor_newton_batch`], early-out included — the reference
    /// the batched replay is tested against and what the `burner` bench
    /// times.
    pub fn factor_newton(&self, jac: &[f64], gamma: f64, vals: &mut [f64]) -> Result<(), Singular> {
        assert_eq!(jac.len(), self.n * self.n);
        assert_eq!(vals.len(), self.nnz_filled);
        vals.iter_mut().for_each(|v| *v = 0.0);
        for &(slot, didx) in &self.scatter {
            vals[slot as usize] = -gamma * jac[didx as usize];
        }
        for &d in &self.diag {
            vals[d as usize] += 1.0;
        }
        self.eliminate(vals)
    }

    /// Batched [`SparseLu::factor_newton`]: form and factor the Newton
    /// matrices `I − γJ_l` of `width` systems at once. `jacs` holds the
    /// lanes' dense row-major Jacobians back to back (`jacs[l·n²..][..n²]`
    /// is lane `l`). The lanes go in blocks of [`LANES`]: `vals` is
    /// [`SparseLu::batch_len`]`(width)` rows, block `b`'s factor in rows
    /// `b·nnz_filled..` and lane `l` of a block in element `l` of each row.
    /// The schedule is replayed once a block with every operation on a
    /// fixed-width row, so the lane loop is a literal [`LANES`] the
    /// auto-vectorizer turns into SIMD. A short last block pads with
    /// copies of its last lane, which are computed and never read.
    ///
    /// Unlike the scalar path there is no early-out on a bad pivot — a
    /// branch per lane per op would serialize the replay. A zero pivot
    /// produces inf/NaN that propagates through that lane only; lanes
    /// flagged `true` in `singular` on return carry garbage factors and
    /// must be discarded, while every clean lane's factor is **bit
    /// identical** to what the scalar [`SparseLu::factor_newton`] produces
    /// (same operations in the same order).
    pub fn factor_newton_batch(
        &self,
        jacs: &[f64],
        gamma: f64,
        width: usize,
        vals: &mut [[f64; LANES]],
        singular: &mut [bool],
    ) {
        let nn = self.n * self.n;
        assert_eq!(jacs.len(), nn * width);
        assert_eq!(vals.len(), self.batch_len(width));
        assert_eq!(singular.len(), width);
        for (block, v) in vals.chunks_exact_mut(self.nnz_filled).enumerate() {
            let lane0 = block * LANES;
            let live = LANES.min(width - lane0);
            let jac0: [usize; LANES] = from_fn(|l| (lane0 + l.min(live - 1)) * nn);
            v.fill([0.0; LANES]);
            for &(slot, didx) in &self.scatter {
                v[slot as usize] = from_fn(|l| -gamma * jacs[jac0[l] + didx as usize]);
            }
            for &d in &self.diag {
                for x in &mut v[d as usize] {
                    *x += 1.0;
                }
            }
            for op in &self.col_ops {
                let d = v[op.diag as usize];
                let mult = &mut v[op.mult as usize];
                for l in 0..LANES {
                    mult[l] /= d[l];
                }
                let m = *mult;
                for &(src, tgt) in &self.elims[op.e0 as usize..op.e1 as usize] {
                    let s = v[src as usize];
                    let t = &mut v[tgt as usize];
                    for l in 0..LANES {
                        t[l] -= m[l] * s[l];
                    }
                }
            }
            // Per-lane singularity check, hoisted out of the replay: a lane
            // is bad if any stored value went non-finite or any pivot is
            // zero.
            let mut bad = [false; LANES];
            for row in v.iter() {
                for l in 0..LANES {
                    bad[l] |= !row[l].is_finite();
                }
            }
            for &d in &self.diag {
                for l in 0..LANES {
                    bad[l] |= v[d as usize][l] == 0.0;
                }
            }
            singular[lane0..lane0 + live].copy_from_slice(&bad[..live]);
        }
    }

    /// Rows of [`SparseLu::factor_newton_batch`]'s `vals` for a batch of
    /// `width` lanes: `nnz_filled` a block of [`LANES`].
    pub fn batch_len(&self, width: usize) -> usize {
        self.nnz_filled * width.div_ceil(LANES)
    }

    /// Batched triangular solves from [`SparseLu::factor_newton_batch`]:
    /// solve `A_l x_l = b_l` for every lane at once, a block of [`LANES`]
    /// at a time. `b` is component-major structure-of-arrays
    /// (`b[i·width + l]`), length `dim × width`; `scratch` holds one
    /// block's permuted right-hand sides, `dim` rows. Lanes flagged
    /// singular by the factorization produce garbage here (harmless — the
    /// caller drops them); clean lanes match the scalar [`SparseLu::solve`]
    /// bit for bit.
    pub fn solve_batch(
        &self,
        vals: &[[f64; LANES]],
        width: usize,
        b: &mut [f64],
        scratch: &mut [[f64; LANES]],
    ) {
        let n = self.n;
        assert_eq!(vals.len(), self.batch_len(width));
        assert_eq!(b.len(), n * width);
        assert_eq!(scratch.len(), n);
        for (block, v) in vals.chunks_exact(self.nnz_filled).enumerate() {
            let lane0 = block * LANES;
            let live = LANES.min(width - lane0);
            let lane: [usize; LANES] = from_fn(|l| lane0 + l.min(live - 1));
            for (k, x) in scratch.iter_mut().enumerate() {
                let row = self.perm[k] * width;
                *x = from_fn(|l| b[row + lane[l]]);
            }
            for &(slot, src, tgt) in &self.lower {
                let (m, s) = (v[slot as usize], scratch[src as usize]);
                let t = &mut scratch[tgt as usize];
                for l in 0..LANES {
                    t[l] -= m[l] * s[l];
                }
            }
            let mut ui = 0usize;
            for k in (0..n).rev() {
                let d = v[self.diag[k] as usize];
                for l in 0..LANES {
                    scratch[k][l] /= d[l];
                }
                while ui < self.upper.len() && self.upper[ui].1 == k as u32 {
                    let (slot, src, tgt) = self.upper[ui];
                    let (m, s) = (v[slot as usize], scratch[src as usize]);
                    let t = &mut scratch[tgt as usize];
                    for l in 0..LANES {
                        t[l] -= m[l] * s[l];
                    }
                    ui += 1;
                }
            }
            for (k, x) in scratch.iter().enumerate() {
                let row = self.perm[k] * width + lane0;
                b[row..row + live].copy_from_slice(&x[..live]);
            }
        }
    }

    /// Solve `A x = b` in place from a successful factorization. `scratch`
    /// must have length `dim` (it carries the permuted right-hand side).
    pub fn solve(&self, vals: &[f64], b: &mut [f64], scratch: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        assert_eq!(scratch.len(), n);
        for k in 0..n {
            scratch[k] = b[self.perm[k]];
        }
        for &(slot, src, tgt) in &self.lower {
            scratch[tgt as usize] -= vals[slot as usize] * scratch[src as usize];
        }
        let mut ui = 0usize;
        for k in (0..n).rev() {
            scratch[k] /= vals[self.diag[k] as usize];
            while ui < self.upper.len() && self.upper[ui].1 == k as u32 {
                let (slot, src, tgt) = self.upper[ui];
                scratch[tgt as usize] -= vals[slot as usize] * scratch[src as usize];
                ui += 1;
            }
        }
        for k in 0..n {
            b[self.perm[k]] = scratch[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::DenseLu;

    fn matvec(a: &[f64], x: &[f64], n: usize) -> Vec<f64> {
        (0..n)
            .map(|r| (0..n).map(|c| a[r * n + c] * x[c]).sum())
            .collect()
    }

    #[test]
    fn csr_pattern_bookkeeping() {
        let p = CsrPattern::new(4, vec![(0, 2), (2, 0), (3, 1), (0, 2)]);
        assert_eq!(p.dim(), 4);
        assert_eq!(p.nnz(), 7, "4 diagonal + 3 off-diagonal, deduped");
        assert!(p.contains(0, 2) && p.contains(2, 0) && p.contains(3, 1));
        assert!(!p.contains(1, 3));
        assert_eq!(p.row(0), &[0, 2]);
        assert!((p.empty_fraction() - (1.0 - 7.0 / 16.0)).abs() < 1e-15);
        let e: Vec<_> = p.entries().collect();
        assert_eq!(e.len(), 7);
        assert!(e.windows(2).all(|w| w[0] < w[1]), "row-major sorted");
    }

    #[test]
    fn min_degree_defeats_the_arrowhead() {
        // Dense first row/col + diagonal: natural order fills everything;
        // minimum degree eliminates the head last and creates NO fill.
        let n = 8;
        let mut e = Vec::new();
        for i in 1..n {
            e.push((0, i));
            e.push((i, 0));
        }
        let p = CsrPattern::new(n, e);
        let lu = SparseLu::compile(&p);
        assert_eq!(lu.fill_in(), 0, "min-degree creates no arrowhead fill");
        // The dense head is deferred until its degree decays to a leaf's:
        // it appears in the last two elimination positions, never early
        // (natural order would eliminate it first and fill everything).
        let pos = lu.elimination_order().iter().position(|&k| k == 0).unwrap();
        assert!(
            pos >= n - 2,
            "the dense head goes (nearly) last: {:?}",
            lu.elimination_order()
        );
    }

    #[test]
    fn sparse_lu_solves_the_arrow_system_exactly() {
        let n = 6;
        let mut e = Vec::new();
        for i in 1..n {
            e.push((0, i));
            e.push((i, 0));
        }
        let p = CsrPattern::new(n, e);
        let lu = SparseLu::compile(&p);
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 10.0 + i as f64;
        }
        for i in 1..n {
            a[i] = 1.0 + 0.3 * i as f64;
            a[i * n] = -1.0 - 0.2 * i as f64;
        }
        let x: Vec<f64> = (0..n).map(|i| 1.0 - 0.5 * i as f64).collect();
        let mut b = matvec(&a, &x, n);
        let mut vals = vec![0.0; lu.nnz_filled()];
        lu.factor(&a, &mut vals).unwrap();
        let mut scratch = vec![0.0; n];
        lu.solve(&vals, &mut b, &mut scratch);
        for i in 0..n {
            assert!((b[i] - x[i]).abs() < 1e-12, "i={i}: {} vs {}", b[i], x[i]);
        }
    }

    #[test]
    fn sparse_matches_dense_on_random_patterns() {
        let mut seed = 99u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for n in [2usize, 5, 8, 14] {
            let mut entries = Vec::new();
            for r in 0..n {
                for c in 0..n {
                    if r != c && rng() < 0.35 {
                        entries.push((r, c));
                    }
                }
            }
            let p = CsrPattern::new(n, entries);
            let lu = SparseLu::compile(&p);
            let mut a = vec![0.0; n * n];
            for (r, c) in p.entries() {
                a[r * n + c] = if r == c {
                    n as f64 + 2.0 + rng()
                } else {
                    rng() - 0.5
                };
            }
            let x: Vec<f64> = (0..n).map(|_| rng() * 2.0 - 1.0).collect();
            let b0 = matvec(&a, &x, n);
            let mut bs = b0.clone();
            let mut vals = vec![0.0; lu.nnz_filled()];
            lu.factor(&a, &mut vals).unwrap();
            let mut scratch = vec![0.0; n];
            lu.solve(&vals, &mut bs, &mut scratch);
            let mut bd = b0;
            DenseLu::factor(&a, n).unwrap().solve(&mut bd);
            for i in 0..n {
                assert!((bs[i] - bd[i]).abs() < 1e-8, "n={n} i={i}");
                assert!((bs[i] - x[i]).abs() < 1e-8, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn factor_newton_builds_i_minus_gamma_j() {
        let n = 3;
        let p = CsrPattern::new(n, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
        let lu = SparseLu::compile(&p);
        let jac = [0.5, 2.0, 0.0, -1.0, 0.25, 3.0, 0.0, -2.0, 1.5];
        let gamma = 0.1;
        // Dense reference of I - γJ.
        let mut m = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                m[r * n + c] = -gamma * jac[r * n + c];
            }
            m[r * n + r] += 1.0;
        }
        let x = [1.0, -2.0, 0.5];
        let mut b = matvec(&m, &x, n);
        let mut vals = vec![0.0; lu.nnz_filled()];
        lu.factor_newton(&jac, gamma, &mut vals).unwrap();
        let mut scratch = vec![0.0; n];
        lu.solve(&vals, &mut b, &mut scratch);
        for i in 0..n {
            assert!((b[i] - x[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        let p = CsrPattern::new(2, vec![(0, 1), (1, 0)]);
        let lu = SparseLu::compile(&p);
        let a = [0.0, 1.0, 1.0, 0.0]; // needs pivoting → must error, not lie
        let mut vals = vec![0.0; lu.nnz_filled()];
        assert_eq!(lu.factor(&a, &mut vals).unwrap_err(), Singular);
    }

    #[test]
    fn alpha_chain_pattern_stays_sparse_under_min_degree() {
        // An aprox13-shaped pattern: near-tridiagonal chain plus dense
        // first (He) and last (T) rows/columns. The natural order would
        // fill it completely; minimum degree must keep the factor well
        // below dense and the flop schedule below the dense n³/3 count.
        let n = 14;
        let mut e = Vec::new();
        for i in 1..n - 1 {
            e.push((0, i));
            e.push((i, 0));
            e.push((n - 1, i));
            e.push((i, n - 1));
            if i + 1 < n - 1 {
                e.push((i, i + 1));
                e.push((i + 1, i));
            }
        }
        e.push((0, n - 1));
        e.push((n - 1, 0));
        let p = CsrPattern::new(n, e);
        let lu = SparseLu::compile(&p);
        assert!(
            lu.nnz_filled() < n * n * 2 / 3,
            "filled {} of {} — ordering failed",
            lu.nnz_filled(),
            n * n
        );
        assert!(
            lu.factor_ops() < n * n * n / 6,
            "{} scheduled ops vs dense ~{}",
            lu.factor_ops(),
            n * n * n / 3
        );
    }

    #[test]
    fn batched_factor_solve_is_bit_identical_to_scalar_lanes() {
        // Random lanes through the batched replay must match running each
        // lane through the scalar factor/solve exactly (same operations in
        // the same order ⇒ identical floating point).
        let mut seed = 7u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let n = 9;
        let mut entries = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if r != c && (r + 2 * c) % 3 == 0 {
                    entries.push((r, c));
                }
            }
        }
        let p = CsrPattern::new(n, entries);
        let lu = SparseLu::compile(&p);
        for width in [1usize, 3, 8] {
            let gamma = 0.07;
            let mut jacs = vec![0.0; n * n * width];
            let mut rhs_soa = vec![0.0; n * width];
            let mut lanes_scalar: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
            for l in 0..width {
                let mut jac = vec![0.0; n * n];
                for (r, c) in p.entries() {
                    jac[r * n + c] = rng() - 0.5;
                }
                let b: Vec<f64> = (0..n).map(|_| rng() * 2.0 - 1.0).collect();
                jacs[l * n * n..][..n * n].copy_from_slice(&jac);
                for i in 0..n {
                    rhs_soa[i * width + l] = b[i];
                }
                lanes_scalar.push((jac, b));
            }
            let mut vals = vec![[0.0; LANES]; lu.batch_len(width)];
            let mut sing = vec![true; width];
            lu.factor_newton_batch(&jacs, gamma, width, &mut vals, &mut sing);
            assert!(sing.iter().all(|s| !s), "well-conditioned lanes");
            let mut scratch = vec![[0.0; LANES]; n];
            lu.solve_batch(&vals, width, &mut rhs_soa, &mut scratch);
            for (l, (jac, b)) in lanes_scalar.iter().enumerate() {
                let mut sv = vec![0.0; lu.nnz_filled()];
                lu.factor_newton(jac, gamma, &mut sv).unwrap();
                let mut sb = b.clone();
                let mut ss = vec![0.0; n];
                lu.solve(&sv, &mut sb, &mut ss);
                for i in 0..n {
                    assert_eq!(
                        rhs_soa[i * width + l].to_bits(),
                        sb[i].to_bits(),
                        "width {width} lane {l} component {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_factor_flags_only_the_singular_lane() {
        // γ = 1 with J = I makes I − γJ exactly zero for one lane; the
        // batch must flag that lane and leave its neighbours' factors
        // matching the scalar path.
        let n = 3;
        let p = CsrPattern::new(n, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
        let lu = SparseLu::compile(&p);
        let width = 4;
        let good = [0.5, 2.0, 0.0, -1.0, 0.25, 3.0, 0.0, -2.0, 1.5];
        let mut bad = [0.0; 9];
        for k in 0..n {
            bad[k * n + k] = 1.0; // I − 1·I = 0: structurally singular
        }
        let mut jacs = vec![0.0; n * n * width];
        for l in 0..width {
            let src: &[f64] = if l == 2 { &bad } else { &good };
            jacs[l * n * n..][..n * n].copy_from_slice(src);
        }
        let mut vals = vec![[0.0; LANES]; lu.batch_len(width)];
        let mut sing = vec![false; width];
        lu.factor_newton_batch(&jacs, 1.0, width, &mut vals, &mut sing);
        assert_eq!(sing, vec![false, false, true, false]);
        // Healthy lanes still solve correctly.
        let x = [1.0, -2.0, 0.5];
        let mut m = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                m[r * n + c] = -good[r * n + c];
            }
            m[r * n + r] += 1.0;
        }
        let bref = matvec(&m, &x, n);
        let mut b = vec![0.0; n * width];
        for l in 0..width {
            for i in 0..n {
                b[i * width + l] = bref[i];
            }
        }
        let mut scratch = vec![[0.0; LANES]; n];
        lu.solve_batch(&vals, width, &mut b, &mut scratch);
        for l in [0usize, 1, 3] {
            for i in 0..n {
                assert!(
                    (b[i * width + l] - x[i]).abs() < 1e-12,
                    "lane {l} component {i}"
                );
            }
        }
    }
}
