//! Small dense linear algebra for the stiff-ODE Newton solves.
//!
//! Implicit integration of an `N`-isotope network requires factoring and
//! solving an `(N+1)²` Jacobian system every Newton iteration (§IV-B).
//! This module holds the dense side — [`DenseLu`], LU with partial
//! pivoting (the VODE default); the pattern-specialized sparse LU, and the
//! pattern type networks declare, live in [`crate::sparse`].

/// Row-major dense matrix storage helper: `a[r * n + c]`.
#[inline]
fn idx(n: usize, r: usize, c: usize) -> usize {
    r * n + c
}

/// LU factorization with partial pivoting of a small dense matrix.
#[derive(Clone, Debug)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

/// Error returned when a matrix is numerically singular.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Singular;

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is numerically singular")
    }
}

impl std::error::Error for Singular {}

impl DenseLu {
    /// Factor the row-major `n × n` matrix `a`.
    pub fn factor(a: &[f64], n: usize) -> Result<Self, Singular> {
        assert_eq!(a.len(), n * n);
        let mut lu = a.to_vec();
        let mut piv = vec![0usize; n];
        for k in 0..n {
            // Partial pivot.
            let mut p = k;
            let mut pmax = lu[idx(n, k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[idx(n, r, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = r;
                }
            }
            if pmax == 0.0 || !pmax.is_finite() {
                return Err(Singular);
            }
            piv[k] = p;
            if p != k {
                for c in 0..n {
                    lu.swap(idx(n, k, c), idx(n, p, c));
                }
            }
            let dinv = 1.0 / lu[idx(n, k, k)];
            for r in (k + 1)..n {
                let m = lu[idx(n, r, k)] * dinv;
                lu[idx(n, r, k)] = m;
                if m != 0.0 {
                    for c in (k + 1)..n {
                        lu[idx(n, r, c)] -= m * lu[idx(n, k, c)];
                    }
                }
            }
        }
        Ok(DenseLu { n, lu, piv })
    }

    /// Solve `A x = b` in place: `b` becomes `x`.
    pub fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        // Apply the full permutation first (rows were swapped in whole
        // during factorization, LAPACK-style), then substitute.
        for k in 0..n {
            b.swap(k, self.piv[k]);
        }
        for k in 0..n {
            let bk = b[k];
            if bk != 0.0 {
                for r in (k + 1)..n {
                    b[r] -= self.lu[idx(n, r, k)] * bk;
                }
            }
        }
        for k in (0..n).rev() {
            b[k] /= self.lu[idx(n, k, k)];
            let bk = b[k];
            if bk != 0.0 {
                for r in 0..k {
                    b[r] -= self.lu[idx(n, r, k)] * bk;
                }
            }
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matvec(a: &[f64], x: &[f64], n: usize) -> Vec<f64> {
        (0..n)
            .map(|r| (0..n).map(|c| a[idx(n, r, c)] * x[c]).sum())
            .collect()
    }

    #[test]
    fn dense_lu_solves_known_system() {
        let a = [2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0];
        let lu = DenseLu::factor(&a, 3).unwrap();
        let mut b = [8.0, -11.0, -3.0];
        lu.solve(&mut b);
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
        assert!((b[2] - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn dense_lu_requires_pivoting() {
        // Zero in the (0,0) slot: fails without partial pivoting.
        let a = [0.0, 1.0, 1.0, 0.0];
        let lu = DenseLu::factor(&a, 2).unwrap();
        let mut b = [3.0, 7.0];
        lu.solve(&mut b);
        assert!((b[0] - 7.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dense_lu_detects_singular() {
        let a = [1.0, 2.0, 2.0, 4.0];
        assert_eq!(DenseLu::factor(&a, 2).unwrap_err(), Singular);
    }

    #[test]
    fn dense_lu_random_roundtrip() {
        // Deterministic pseudo-random diagonally dominant matrices.
        let mut seed = 12345u64;
        let mut rng = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for n in [1, 2, 5, 14, 30] {
            let mut a = vec![0.0; n * n];
            for r in 0..n {
                for c in 0..n {
                    a[idx(n, r, c)] = rng();
                }
                a[idx(n, r, r)] += n as f64; // dominance
            }
            let x: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let mut b = matvec(&a, &x, n);
            let lu = DenseLu::factor(&a, n).unwrap();
            lu.solve(&mut b);
            for i in 0..n {
                assert!((b[i] - x[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }
}
