//! Dense LU factorization with partial pivoting.
//!
//! `DenseLu` is the reference direct solver of the stack: the sparse
//! Gilbert–Peierls solver in `msplit-direct` and the band solver in
//! [`crate::band`] are both validated against it.  A multisplitting solve
//! uses it for its bands only when the caller selects
//! `SolverKind::DenseLu`; nothing selects it automatically.
//!
//! The factorization is one right-looking loop over the columns.  Each row
//! update borrows the pivot row's tail with `split_at_mut`, so the loop
//! allocates nothing beyond the copy of the matrix it factors.

use crate::matrix::DenseMatrix;
use crate::DenseError;

/// Error alias kept for API symmetry with the sparse solver.
pub type LuError = DenseError;

/// LU factorization with partial (row) pivoting of a square dense matrix.
///
/// The factorization satisfies `P A = L U` where `P` is a row permutation,
/// `L` is unit lower triangular and `U` is upper triangular.  Both factors
/// are stored packed in a single matrix: the strictly lower part holds `L`
/// (without its unit diagonal) and the upper part holds `U`.
#[derive(Debug, Clone)]
pub struct DenseLu {
    /// Packed LU factors.
    lu: DenseMatrix,
    /// Row permutation: `perm[i]` is the original row placed at position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), used by [`DenseLu::determinant`].
    perm_sign: f64,
    /// Number of floating-point operations spent in the factorization.
    flops: u64,
}

impl DenseLu {
    /// Factorizes a square matrix with partial pivoting.
    ///
    /// Returns [`DenseError::SingularPivot`] when a column has no nonzero
    /// pivot (the matrix is singular to working precision).
    pub fn factorize(a: &DenseMatrix) -> Result<Self, DenseError> {
        if !a.is_square() {
            return Err(DenseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut flops = 0u64;

        for k in 0..n {
            // Find the pivot row: largest magnitude in column k at or below k.
            let mut piv_row = k;
            let mut piv_val = lu.get(k, k).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k).abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = i;
                }
            }
            if piv_val == 0.0 {
                return Err(DenseError::SingularPivot {
                    column: k,
                    value: lu.get(piv_row, k),
                });
            }
            if piv_row != k {
                lu.swap_rows(piv_row, k);
                perm.swap(piv_row, k);
                perm_sign = -perm_sign;
            }
            // Row update: row_i -= lik * row_k over the trailing columns, for
            // every row below the pivot.  A zero multiplier skips its row.
            let (upper, lower) = lu.as_mut_slice().split_at_mut((k + 1) * n);
            let prow = &upper[k * n..];
            let pivot = prow[k];
            for row in lower.chunks_exact_mut(n) {
                let lik = row[k] / pivot;
                row[k] = lik;
                if lik == 0.0 {
                    continue;
                }
                for (d, &u) in row[k + 1..].iter_mut().zip(&prow[k + 1..]) {
                    *d -= lik * u;
                }
                // One division plus a multiply-subtract per trailing column.
                flops += 2 * (n - k - 1) as u64 + 1;
            }
        }

        Ok(DenseLu {
            lu,
            perm,
            perm_sign,
            flops,
        })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Number of floating point operations performed by the factorization.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// The row permutation applied by pivoting (`perm[i]` = original index of
    /// the row now in position `i`).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// The packed factors (strict lower part `L`, upper part `U`), mainly for
    /// tests that pin the factorization bit for bit.
    pub fn packed_factors(&self) -> &DenseMatrix {
        &self.lu
    }

    /// Solves `A x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DenseError> {
        let n = self.order();
        if b.len() != n {
            return Err(DenseError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        let mut x = b.to_vec();
        let mut work = Vec::new();
        self.solve_into(&mut x, &mut work)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: on entry `x` holds `b`, on exit the
    /// solution.  `work` is a caller-provided scratch buffer (grown to the
    /// system order on first use and reused across calls), so steady-state
    /// calls perform **no heap allocation**.
    pub fn solve_into(&self, x: &mut [f64], work: &mut Vec<f64>) -> Result<(), DenseError> {
        let n = self.order();
        if x.len() != n {
            return Err(DenseError::DimensionMismatch {
                expected: n,
                found: x.len(),
            });
        }
        work.resize(n, 0.0);
        let w = &mut work[..n];
        // Apply the permutation: w = P x.
        for (wi, &p) in w.iter_mut().zip(self.perm.iter()) {
            *wi = x[p];
        }
        // Forward substitution with unit lower triangular L.
        for i in 0..n {
            let row = self.lu.row(i);
            let mut acc = w[i];
            for (j, &lij) in row.iter().enumerate().take(i) {
                acc -= lij * w[j];
            }
            w[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = w[i];
            for (j, &uij) in row.iter().enumerate().skip(i + 1) {
                acc -= uij * w[j];
            }
            let diag = row[i];
            if diag == 0.0 {
                return Err(DenseError::SingularPivot {
                    column: i,
                    value: diag,
                });
            }
            w[i] = acc / diag;
        }
        x.copy_from_slice(w);
        Ok(())
    }

    /// Determinant of the original matrix, computed from the pivots.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.order() {
            det *= self.lu.get(i, i);
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_dd_matrix(n: usize, seed: u64) -> DenseMatrix {
        // Diagonally dominant => nonsingular and well conditioned.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    a.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            a.set(i, i, row_sum + 1.0 + rng.gen_range(0.0..1.0));
        }
        a
    }

    #[test]
    fn factorize_and_solve_2x2() {
        let a = DenseMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let lu = DenseLu::factorize(&a).unwrap();
        let x = lu.solve(&[10.0, 12.0]).unwrap();
        // A x = b => x = [1, 2]
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = DenseLu::factorize(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            DenseLu::factorize(&a),
            Err(DenseError::SingularPivot { .. })
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            DenseLu::factorize(&a),
            Err(DenseError::NotSquare { .. })
        ));
    }

    #[test]
    fn reconstruction_matches_pa() {
        let n = 12;
        let a = random_dd_matrix(n, 7);
        let lu = DenseLu::factorize(&a).unwrap();
        let packed = lu.packed_factors();
        for i in 0..n {
            let orig = lu.permutation()[i];
            for j in 0..n {
                // (L U)[i][j] with L's unit diagonal implicit.
                let lu_ij: f64 = (0..=i.min(j))
                    .map(|k| match k == i {
                        true => packed.get(k, j),
                        false => packed.get(i, k) * packed.get(k, j),
                    })
                    .sum();
                assert!(
                    (lu_ij - a.get(orig, j)).abs() < 1e-10,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn solve_recovers_random_solution() {
        let n = 30;
        let a = random_dd_matrix(n, 42);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.gemv(&x_true).unwrap();
        let lu = DenseLu::factorize(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(x_true.iter()) {
            assert!((xs - xt).abs() < 1e-8);
        }
    }

    #[test]
    fn solve_into_matches_solve_and_reuses_workspace() {
        let a = random_dd_matrix(40, 8);
        let lu = DenseLu::factorize(&a).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.4).cos()).collect();
        let expected = lu.solve(&b).unwrap();
        let mut x = b.clone();
        let mut work = Vec::new();
        lu.solve_into(&mut x, &mut work).unwrap();
        assert_eq!(x, expected);
        // Second call reuses the grown workspace.
        let cap = work.capacity();
        x.copy_from_slice(&b);
        lu.solve_into(&mut x, &mut work).unwrap();
        assert_eq!(x, expected);
        assert_eq!(work.capacity(), cap);
        // Wrong length is rejected.
        assert!(lu.solve_into(&mut [0.0; 3], &mut work).is_err());
    }

    #[test]
    fn determinant_of_known_matrix() {
        let a = DenseMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        let lu = DenseLu::factorize(&a).unwrap();
        assert!((lu.determinant() - 6.0).abs() < 1e-12);
        // Permutation sign must flip the determinant correctly.
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lub = DenseLu::factorize(&b).unwrap();
        assert!((lub.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn flops_counter_grows_with_size() {
        let small = DenseLu::factorize(&random_dd_matrix(5, 1)).unwrap();
        let large = DenseLu::factorize(&random_dd_matrix(40, 1)).unwrap();
        assert!(large.flops() > small.flops());
    }
}
