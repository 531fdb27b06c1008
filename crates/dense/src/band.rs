//! Banded matrix storage and band LU factorization.
//!
//! The paper stresses that the multisplitting approach works with *any*
//! sequential direct solver "whether it is dense, band or sparse".  The band
//! solver is the natural choice when the diagonal blocks produced by the band
//! decomposition of Figure 1 are themselves banded (as they are for the
//! generated diagonally dominant matrices and for discretized PDE operators).
//!
//! Storage is the classic LAPACK-style band layout: for a matrix of order `n`
//! with `kl` sub-diagonals and `ku` super-diagonals, entry `(i, j)` with
//! `j - ku <= i <= j + kl` is stored at diagonal row `d = ku + i - j`,
//! column `j`.  The diagonal rows live in **one contiguous buffer**
//! (`data[d * n + j]`) so the factorization and substitution kernels index it
//! directly — the hot loops perform no bounds assertions, no `in_band`
//! branches and no heap allocation, and [`BandLu::solve_into`] works
//! entirely in the caller's buffers.

use crate::matrix::DenseMatrix;
use crate::DenseError;

/// A square banded matrix with `kl` sub-diagonals and `ku` super-diagonals.
#[derive(Debug, Clone, PartialEq)]
pub struct BandMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    /// Flat diagonal-major storage: the entry on diagonal offset `d - ku`
    /// (row `j + d - ku`, column `j`) lives at `data[d * n + j]`.
    data: Vec<f64>,
}

impl BandMatrix {
    /// Creates a zero banded matrix of order `n` with the given bandwidths.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        BandMatrix {
            n,
            kl,
            ku,
            data: vec![0.0; (kl + ku + 1) * n],
        }
    }

    /// Order of the matrix.
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals.
    #[inline]
    pub fn lower_bandwidth(&self) -> usize {
        self.kl
    }

    /// Number of super-diagonals.
    #[inline]
    pub fn upper_bandwidth(&self) -> usize {
        self.ku
    }

    /// Flat index of the in-band entry `(i, j)`.
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        (self.ku + i - j) * self.n + j
    }

    /// Whether `(i, j)` lies inside the band.
    #[inline]
    pub fn in_band(&self, i: usize, j: usize) -> bool {
        (j as isize - i as isize) <= self.ku as isize
            && (i as isize - j as isize) <= self.kl as isize
    }

    /// Returns the entry at `(i, j)` (zero outside the band).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if !self.in_band(i, j) {
            return 0.0;
        }
        self.data[self.idx(i, j)]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    /// Panics if `(i, j)` is outside the band.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        assert!(
            self.in_band(i, j),
            "entry ({i},{j}) outside band kl={} ku={}",
            self.kl,
            self.ku
        );
        let idx = self.idx(i, j);
        self.data[idx] = value;
    }

    /// Builds a banded matrix from a dense matrix, keeping only entries inside
    /// the prescribed band.  Entries of `a` outside the band must be zero.
    pub fn from_dense(a: &DenseMatrix, kl: usize, ku: usize) -> Result<Self, DenseError> {
        if !a.is_square() {
            return Err(DenseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut b = BandMatrix::zeros(n, kl, ku);
        for i in 0..n {
            for j in 0..n {
                let v = a.get(i, j);
                if v != 0.0 {
                    if !b.in_band(i, j) {
                        return Err(DenseError::DimensionMismatch {
                            expected: ku.max(kl),
                            found: i.abs_diff(j),
                        });
                    }
                    b.set(i, j, v);
                }
            }
        }
        Ok(b)
    }

    /// Expands the banded matrix to dense form (used by tests and by the
    /// theory module, which needs explicit iteration matrices).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(self.n, self.n);
        for j in 0..self.n {
            let lo = j.saturating_sub(self.ku);
            let hi = (j + self.kl).min(self.n.saturating_sub(1));
            for i in lo..=hi {
                a.set(i, j, self.get(i, j));
            }
        }
        a
    }

    /// Matrix-vector product `y = A x` exploiting the band structure.
    ///
    /// The product is accumulated diagonal by diagonal: every diagonal row of
    /// the storage is a contiguous slice paired with contiguous slices of `x`
    /// and `y`, so the kernel is three linear streams with no index
    /// arithmetic in the inner loop.
    pub fn gemv(&self, x: &[f64]) -> Result<Vec<f64>, DenseError> {
        if x.len() != self.n {
            return Err(DenseError::DimensionMismatch {
                expected: self.n,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.n];
        let n = self.n;
        for d in 0..=(self.kl + self.ku) {
            // Diagonal offset: row i = j + d - ku.  Bandwidths larger than
            // the order are legal (the outer diagonals are simply empty), so
            // both bounds clamp to [0, n].
            let (j_lo, j_hi) = if d < self.ku {
                ((self.ku - d).min(n), n)
            } else {
                (0, n.saturating_sub(d - self.ku))
            };
            if j_lo >= j_hi {
                continue;
            }
            let i_lo = j_lo + d - self.ku;
            let diag = &self.data[d * n + j_lo..d * n + j_hi];
            let xs = &x[j_lo..j_hi];
            let ys = &mut y[i_lo..i_lo + (j_hi - j_lo)];
            for ((yi, &a), &xj) in ys.iter_mut().zip(diag).zip(xs) {
                *yi += a * xj;
            }
        }
        Ok(y)
    }
}

/// Band LU factorization **without pivoting**.
///
/// Pivoting is omitted on purpose: the diagonal blocks handed to this solver
/// by the multisplitting decomposition are diagonally dominant (that is the
/// convergence hypothesis of Proposition 1), for which LU without pivoting is
/// numerically stable and preserves the bandwidth exactly.  A zero pivot is
/// still detected and reported.
#[derive(Debug, Clone)]
pub struct BandLu {
    factors: BandMatrix,
    flops: u64,
}

impl BandLu {
    /// Factorizes a banded matrix in place (copying it first).
    ///
    /// The elimination runs directly on the flat diagonal-major storage: for
    /// every step `k` the multiplier column and the rank-1 band update are
    /// pure index arithmetic on one buffer (the loop ranges guarantee every
    /// touched entry is inside the band, so no membership test is needed).
    pub fn factorize(a: &BandMatrix) -> Result<Self, DenseError> {
        let n = a.order();
        let kl = a.lower_bandwidth();
        let ku = a.upper_bandwidth();
        let mut f = a.clone();
        let mut flops = 0u64;
        let data = &mut f.data[..];
        for k in 0..n {
            let pivot = data[ku * n + k];
            if pivot == 0.0 {
                return Err(DenseError::SingularPivot {
                    column: k,
                    value: pivot,
                });
            }
            let i_hi = (k + kl).min(n - 1);
            let j_hi = (k + ku).min(n - 1);
            for i in (k + 1)..=i_hi {
                // L entry (i, k) lives on diagonal row ku + i - k.
                let l_idx = (ku + i - k) * n + k;
                let lik = data[l_idx] / pivot;
                data[l_idx] = lik;
                if lik == 0.0 {
                    continue;
                }
                for j in (k + 1)..=j_hi {
                    // (i, j) stays inside the band: i - j <= kl - 1 and
                    // j - i <= ku - 1 over these ranges.
                    data[(ku + i - j) * n + j] -= lik * data[(ku + k - j) * n + j];
                    flops += 2;
                }
            }
            if i_hi > k {
                flops += (i_hi - k) as u64;
            }
        }
        Ok(BandLu { factors: f, flops })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.factors.order()
    }

    /// Flop count of the factorization.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Solves `A x = b` with the stored factors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DenseError> {
        let mut x = b.to_vec();
        self.solve_into(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` fully in place: on entry `x` holds `b`, on exit the
    /// solution.  The band factorization has no pivot permutation, so the
    /// substitution needs no scratch at all — zero heap allocations.
    pub fn solve_into(&self, x: &mut [f64]) -> Result<(), DenseError> {
        let n = self.order();
        if x.len() != n {
            return Err(DenseError::DimensionMismatch {
                expected: n,
                found: x.len(),
            });
        }
        let kl = self.factors.kl;
        let ku = self.factors.ku;
        let data = &self.factors.data[..];
        // Forward substitution with the unit lower factor.
        for i in 0..n {
            let lo = i.saturating_sub(kl);
            let mut acc = x[i];
            for j in lo..i {
                acc -= data[(ku + i - j) * n + j] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution with the upper factor.
        for i in (0..n).rev() {
            let hi = (i + ku).min(n - 1);
            let mut acc = x[i];
            for j in (i + 1)..=hi {
                acc -= data[(ku + i - j) * n + j] * x[j];
            }
            let diag = data[ku * n + i];
            if diag == 0.0 {
                return Err(DenseError::SingularPivot {
                    column: i,
                    value: diag,
                });
            }
            x[i] = acc / diag;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::DenseLu;

    fn tridiagonal(n: usize) -> BandMatrix {
        let mut b = BandMatrix::zeros(n, 1, 1);
        for i in 0..n {
            b.set(i, i, 4.0);
            if i > 0 {
                b.set(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.set(i, i + 1, -1.0);
            }
        }
        b
    }

    #[test]
    fn get_set_and_in_band() {
        let mut b = BandMatrix::zeros(5, 1, 2);
        assert!(b.in_band(0, 2));
        assert!(!b.in_band(0, 3));
        assert!(b.in_band(3, 2));
        assert!(!b.in_band(4, 2));
        b.set(2, 3, 7.0);
        assert_eq!(b.get(2, 3), 7.0);
        assert_eq!(b.get(4, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn set_outside_band_panics() {
        let mut b = BandMatrix::zeros(5, 1, 1);
        b.set(0, 4, 1.0);
    }

    #[test]
    fn dense_round_trip() {
        let b = tridiagonal(6);
        let d = b.to_dense();
        let b2 = BandMatrix::from_dense(&d, 1, 1).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn from_dense_rejects_entries_outside_band() {
        let mut d = DenseMatrix::zeros(4, 4);
        d.set(0, 3, 1.0);
        for i in 0..4 {
            d.set(i, i, 1.0);
        }
        assert!(BandMatrix::from_dense(&d, 1, 1).is_err());
    }

    #[test]
    fn gemv_matches_dense_gemv() {
        let b = tridiagonal(8);
        let d = b.to_dense();
        let x: Vec<f64> = (0..8).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let yb = b.gemv(&x).unwrap();
        let yd = d.gemv(&x).unwrap();
        for (a, c) in yb.iter().zip(yd.iter()) {
            assert!((a - c).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_matches_dense_gemv_asymmetric_bandwidths() {
        let n = 12;
        let mut b = BandMatrix::zeros(n, 3, 1);
        for i in 0..n {
            for j in i.saturating_sub(3)..(i + 2).min(n) {
                b.set(i, j, (1 + (i * 7 + j * 3) % 5) as f64);
            }
        }
        let d = b.to_dense();
        let x: Vec<f64> = (0..n).map(|i| ((i % 4) as f64) - 1.5).collect();
        let yb = b.gemv(&x).unwrap();
        let yd = d.gemv(&x).unwrap();
        for (a, c) in yb.iter().zip(yd.iter()) {
            assert!((a - c).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_handles_bandwidths_exceeding_order() {
        // zeros() accepts any bandwidth; diagonals beyond the order are
        // simply empty and must not trip the index arithmetic.
        let mut b = BandMatrix::zeros(3, 5, 4);
        for i in 0..3 {
            for j in 0..3 {
                b.set(i, j, (1 + i * 3 + j) as f64);
            }
        }
        let x = [1.0, -2.0, 0.5];
        let y = b.gemv(&x).unwrap();
        let yd = b.to_dense().gemv(&x).unwrap();
        for (a, c) in y.iter().zip(yd.iter()) {
            assert!((a - c).abs() < 1e-12);
        }
    }

    #[test]
    fn band_lu_solves_tridiagonal_system() {
        let n = 50;
        let b = tridiagonal(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let rhs = b.gemv(&x_true).unwrap();
        let lu = BandLu::factorize(&b).unwrap();
        let x = lu.solve(&rhs).unwrap();
        for (a, c) in x.iter().zip(x_true.iter()) {
            assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn band_lu_agrees_with_dense_lu() {
        let n = 20;
        let mut b = BandMatrix::zeros(n, 2, 1);
        for i in 0..n {
            b.set(i, i, 10.0 + i as f64);
            if i > 0 {
                b.set(i, i - 1, -2.0);
            }
            if i > 1 {
                b.set(i, i - 2, 1.0);
            }
            if i + 1 < n {
                b.set(i, i + 1, -3.0);
            }
        }
        let d = b.to_dense();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let xb = BandLu::factorize(&b).unwrap().solve(&rhs).unwrap();
        let xd = DenseLu::factorize(&d).unwrap().solve(&rhs).unwrap();
        for (a, c) in xb.iter().zip(xd.iter()) {
            assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_into_matches_solve() {
        let n = 30;
        let b = tridiagonal(n);
        let lu = BandLu::factorize(&b).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| ((i * 5) % 9) as f64 - 4.0).collect();
        let expected = lu.solve(&rhs).unwrap();
        let mut x = rhs.clone();
        lu.solve_into(&mut x).unwrap();
        assert_eq!(x, expected);
        assert!(lu.solve_into(&mut [1.0; 3]).is_err());
    }

    #[test]
    fn singular_band_matrix_detected() {
        let mut b = tridiagonal(4);
        b.set(0, 0, 0.0);
        assert!(matches!(
            BandLu::factorize(&b),
            Err(DenseError::SingularPivot { column: 0, .. })
        ));
    }

    #[test]
    fn flops_scale_with_order() {
        let small = BandLu::factorize(&tridiagonal(10)).unwrap();
        let large = BandLu::factorize(&tridiagonal(100)).unwrap();
        assert!(large.flops() > small.flops());
    }
}
