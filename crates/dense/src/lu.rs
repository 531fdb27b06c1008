//! Dense LU factorization with partial pivoting.
//!
//! `DenseLu` is the reference direct solver of the stack: the sparse
//! Gilbert–Peierls solver in `msplit-direct` and the band solver in
//! [`crate::band`] are both validated against it, and the multisplitting
//! drivers fall back to it when a diagonal block is small or nearly full.
//!
//! # Kernel design
//!
//! The production factorization ([`DenseLu::factorize`]) is a right-looking
//! *blocked* kernel: columns are eliminated in panels of [`LU_PANEL`] columns,
//! and after each panel the trailing submatrix is updated one row at a time in
//! column tiles of [`LU_COL_TILE`] entries so the active row and the panel
//! rows stay cache-resident.  Everything operates on raw row slices obtained
//! with `split_at_mut` — the hot loops perform **no heap allocation** and no
//! per-element bounds arithmetic beyond slice indexing.
//!
//! The pre-optimization kernel is retained verbatim as
//! [`DenseLu::factorize_reference`]: it performs the *same* floating-point
//! operations in the same per-element order, so the blocked kernel is
//! **bitwise identical** to it (factors, permutation, determinant and
//! solutions) — a property the top-level `kernel_equivalence` proptests pin
//! down.  The reference also serves as the "before" baseline of the kernel
//! benchmark suite (`BENCH_kernels.json`).

use crate::matrix::DenseMatrix;
use crate::norms::{inf_norm, matrix_inf_norm};
use crate::DenseError;

/// Error alias kept for API symmetry with the sparse solver.
pub type LuError = DenseError;

/// Panel width of the blocked factorization (columns eliminated per panel).
pub const LU_PANEL: usize = 64;

/// Column tile of the trailing-submatrix update, sized so one tile of the
/// active row plus the matching panel-row tiles fit comfortably in L1/L2.
pub const LU_COL_TILE: usize = 256;

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

/// Updates one trailing row with the multipliers it carries in columns
/// `k0..k1`: `row[k1..] -= Σ_k row[k] * panel_row_k[k1..]`, tiled over
/// columns.  Per element the updates run in increasing `k` order as separate
/// multiply-subtract operations — exactly the order of the reference kernel,
/// which is what makes the blocked factorization bitwise reproducible.
///
/// The panel-row loop is unrolled four ways so each destination element is
/// loaded and stored once per *four* multipliers instead of once per
/// multiplier (the update is store-bound otherwise).  The chain
/// `v -= l0*u0; v -= l1*u1; …` keeps the four subtractions as separate,
/// ordered operations, so the unrolling does not change a single bit.
#[inline]
fn update_trailing_row(row: &mut [f64], panel: &[f64], k0: usize, k1: usize, n: usize) {
    let (head, tail) = row.split_at_mut(k1);
    let mults = &head[k0..k1];
    let nb = k1 - k0;
    let width = n - k1;
    let mut jb = 0;
    while jb < width {
        let je = (jb + LU_COL_TILE).min(width);
        let dst = &mut tail[jb..je];
        let len = dst.len();
        let mut r = 0;
        while r + 8 <= nb {
            let all_nonzero = mults[r..r + 8].iter().all(|&l| l != 0.0);
            if !all_nonzero {
                break;
            }
            let (l0, l1, l2, l3) = (mults[r], mults[r + 1], mults[r + 2], mults[r + 3]);
            let (l4, l5, l6, l7) = (mults[r + 4], mults[r + 5], mults[r + 6], mults[r + 7]);
            let u0 = &panel[r * n + k1 + jb..][..len];
            let u1 = &panel[(r + 1) * n + k1 + jb..][..len];
            let u2 = &panel[(r + 2) * n + k1 + jb..][..len];
            let u3 = &panel[(r + 3) * n + k1 + jb..][..len];
            let u4 = &panel[(r + 4) * n + k1 + jb..][..len];
            let u5 = &panel[(r + 5) * n + k1 + jb..][..len];
            let u6 = &panel[(r + 6) * n + k1 + jb..][..len];
            let u7 = &panel[(r + 7) * n + k1 + jb..][..len];
            for i in 0..len {
                let mut v = dst[i];
                v -= l0 * u0[i];
                v -= l1 * u1[i];
                v -= l2 * u2[i];
                v -= l3 * u3[i];
                v -= l4 * u4[i];
                v -= l5 * u5[i];
                v -= l6 * u6[i];
                v -= l7 * u7[i];
                dst[i] = v;
            }
            r += 8;
        }
        while r + 4 <= nb {
            let (l0, l1, l2, l3) = (mults[r], mults[r + 1], mults[r + 2], mults[r + 3]);
            if l0 != 0.0 && l1 != 0.0 && l2 != 0.0 && l3 != 0.0 {
                let u0 = &panel[r * n + k1 + jb..][..len];
                let u1 = &panel[(r + 1) * n + k1 + jb..][..len];
                let u2 = &panel[(r + 2) * n + k1 + jb..][..len];
                let u3 = &panel[(r + 3) * n + k1 + jb..][..len];
                for i in 0..len {
                    let mut v = dst[i];
                    v -= l0 * u0[i];
                    v -= l1 * u1[i];
                    v -= l2 * u2[i];
                    v -= l3 * u3[i];
                    dst[i] = v;
                }
            } else {
                // A zero multiplier must *skip* its update (exactly like the
                // reference kernel), so this quad takes the scalar path.
                for (off, &lik) in mults[r..r + 4].iter().enumerate() {
                    if lik == 0.0 {
                        continue;
                    }
                    let urow = &panel[(r + off) * n + k1 + jb..][..len];
                    for (d, &u) in dst.iter_mut().zip(urow) {
                        *d -= lik * u;
                    }
                }
            }
            r += 4;
        }
        while r < nb {
            let lik = mults[r];
            if lik != 0.0 {
                let urow = &panel[r * n + k1 + jb..][..len];
                for (d, &u) in dst.iter_mut().zip(urow) {
                    *d -= lik * u;
                }
            }
            r += 1;
        }
        jb = je;
    }
}

/// Elimination flop count recovered from the packed factors: every stored
/// nonzero multiplier `L(i, k)` cost one division plus `2 (n - k - 1)`
/// operations for its row update.  Both kernels report their flops through
/// this single scan so the counters agree bit for bit.
fn elimination_flops(lu: &DenseMatrix) -> u64 {
    let n = lu.rows();
    let mut flops = 0u64;
    for k in 0..n {
        let mut nonzero_multipliers = 0u64;
        for i in (k + 1)..n {
            if lu.get(i, k) != 0.0 {
                nonzero_multipliers += 1;
            }
        }
        flops += nonzero_multipliers * (2 * (n - k - 1) as u64 + 1);
    }
    flops
}

impl DenseLu {
    /// Factorizes a square matrix with partial pivoting.
    ///
    /// Returns [`DenseError::SingularPivot`] when a column has no usable
    /// pivot (the matrix is singular to working precision).
    pub fn factorize(a: &DenseMatrix) -> Result<Self, DenseError> {
        Self::factorize_with_threshold(a, 0.0)
    }

    /// Factorizes with a caller-supplied absolute pivot threshold using the
    /// blocked right-looking kernel (see the module docs).
    ///
    /// A pivot whose magnitude is `<= threshold` is treated as zero.  The
    /// default threshold of `0.0` only rejects exactly zero pivots, which
    /// matches the behaviour of textbook partial pivoting.
    pub fn factorize_with_threshold(a: &DenseMatrix, threshold: f64) -> Result<Self, DenseError> {
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

        {
            let data = lu.as_mut_slice();
            let mut k0 = 0;
            while k0 < n {
                let k1 = (k0 + LU_PANEL).min(n);

                // --- Panel factorization: columns k0..k1, rows k0..n. ---
                // Un-pivoted within the panel in the sense that row swaps are
                // applied to the *full* rows immediately, so no pivot vector
                // has to be replayed over the trailing submatrix later.
                for k in k0..k1 {
                    // Pivot: largest magnitude in column k at or below row k.
                    let mut piv_row = k;
                    let mut piv_val = data[k * n + k].abs();
                    for i in (k + 1)..n {
                        let v = data[i * n + k].abs();
                        if v > piv_val {
                            piv_val = v;
                            piv_row = i;
                        }
                    }
                    if piv_val <= threshold {
                        return Err(DenseError::SingularPivot {
                            column: k,
                            value: data[piv_row * n + k],
                        });
                    }
                    if piv_row != k {
                        let (upper, lower) = data.split_at_mut(piv_row * n);
                        upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                        perm.swap(piv_row, k);
                        perm_sign = -perm_sign;
                    }
                    // Scale column k and update the remaining panel columns of
                    // every row below the pivot.
                    let (upper, lower) = data.split_at_mut((k + 1) * n);
                    let prow = &upper[k * n..(k + 1) * n];
                    let pivot = prow[k];
                    for row in lower.chunks_exact_mut(n) {
                        let lik = row[k] / pivot;
                        row[k] = lik;
                        if lik != 0.0 {
                            for (d, &u) in row[k + 1..k1].iter_mut().zip(&prow[k + 1..k1]) {
                                *d -= lik * u;
                            }
                        }
                    }
                }

                if k1 < n {
                    // --- Row block of U: trailing columns of the panel rows.
                    for k in k0..k1 {
                        let (upper, lower) = data.split_at_mut((k + 1) * n);
                        let prow = &upper[k * n..(k + 1) * n];
                        for row in lower[..(k1 - k - 1) * n].chunks_exact_mut(n) {
                            let lik = row[k];
                            if lik != 0.0 {
                                for (d, &u) in row[k1..].iter_mut().zip(&prow[k1..]) {
                                    *d -= lik * u;
                                }
                            }
                        }
                    }
                    // --- Trailing submatrix update: A22 -= L21 * U12. ---
                    let (upper, trailing) = data.split_at_mut(k1 * n);
                    let panel = &upper[k0 * n..k1 * n];
                    for row in trailing.chunks_exact_mut(n) {
                        update_trailing_row(row, panel, k0, k1, n);
                    }
                }
                k0 = k1;
            }
        }

        let flops = elimination_flops(&lu);
        Ok(DenseLu {
            lu,
            perm,
            perm_sign,
            flops,
        })
    }

    /// The pre-optimization right-looking kernel, retained as the differential
    /// reference: one pivot-row-tail `to_vec` per row update (an O(n²)
    /// allocation pattern) and no blocking.  [`DenseLu::factorize`] is bitwise
    /// identical to this kernel; the kernel benchmark suite uses it as the
    /// "before" baseline.
    pub fn factorize_reference(a: &DenseMatrix) -> Result<Self, DenseError> {
        Self::factorize_reference_with_threshold(a, 0.0)
    }

    /// Reference kernel with an explicit pivot threshold
    /// (see [`DenseLu::factorize_reference`]).
    pub fn factorize_reference_with_threshold(
        a: &DenseMatrix,
        threshold: f64,
    ) -> Result<Self, DenseError> {
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
            if piv_val <= threshold {
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
            let pivot = lu.get(k, k);
            for i in (k + 1)..n {
                let lik = lu.get(i, k) / pivot;
                lu.set(i, k, lik);
                if lik == 0.0 {
                    continue;
                }
                // Row update: row_i -= lik * row_k for the trailing columns.
                // Split borrows: copy the pivot row tail first.
                let tail: Vec<f64> = lu.row(k)[(k + 1)..].to_vec();
                let row_i = lu.row_mut(i);
                for (offset, &ukj) in tail.iter().enumerate() {
                    row_i[k + 1 + offset] -= lik * ukj;
                }
            }
        }

        let flops = elimination_flops(&lu);
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
    /// differential tests comparing two factorization kernels bit for bit.
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

    /// Solves `A X = B` for a batch of right-hand sides in a single pass.
    ///
    /// Unlike calling [`DenseLu::solve`] per column, this applies the stored
    /// pivot sequence once and then streams every factor row across all
    /// columns during the forward and backward substitutions, so each packed
    /// factor row is read exactly once per sweep regardless of batch width.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, DenseError> {
        let mut xs: Vec<Vec<f64>> = rhs.to_vec();
        let mut work = Vec::new();
        self.solve_many_into(&mut xs, &mut work)?;
        Ok(xs)
    }

    /// Batched in-place solve: every column of `cols` holds a right-hand side
    /// on entry and the matching solution on exit.  Like
    /// [`DenseLu::solve_into`] this reuses the caller's scratch buffer, so
    /// repeated batched solves allocate nothing.
    pub fn solve_many_into(
        &self,
        cols: &mut [Vec<f64>],
        work: &mut Vec<f64>,
    ) -> Result<(), DenseError> {
        let n = self.order();
        for b in cols.iter() {
            if b.len() != n {
                return Err(DenseError::DimensionMismatch {
                    expected: n,
                    found: b.len(),
                });
            }
        }
        work.resize(n, 0.0);
        // Apply the pivot permutation to every column up front.
        for col in cols.iter_mut() {
            let w = &mut work[..n];
            for (wi, &p) in w.iter_mut().zip(self.perm.iter()) {
                *wi = col[p];
            }
            col.copy_from_slice(w);
        }
        // Forward substitution with unit lower triangular L, one row pass.
        for i in 0..n {
            let row = self.lu.row(i);
            for x in cols.iter_mut() {
                let mut acc = x[i];
                for (j, &lij) in row.iter().enumerate().take(i) {
                    acc -= lij * x[j];
                }
                x[i] = acc;
            }
        }
        // Backward substitution with U, one row pass.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let diag = row[i];
            if diag == 0.0 {
                return Err(DenseError::SingularPivot {
                    column: i,
                    value: diag,
                });
            }
            for x in cols.iter_mut() {
                let mut acc = x[i];
                for (j, &uij) in row.iter().enumerate().skip(i + 1) {
                    acc -= uij * x[j];
                }
                x[i] = acc / diag;
            }
        }
        Ok(())
    }

    /// Solves for several right-hand sides given as columns of `b`.
    pub fn solve_matrix(&self, b: &DenseMatrix) -> Result<DenseMatrix, DenseError> {
        if b.rows() != self.order() {
            return Err(DenseError::DimensionMismatch {
                expected: self.order(),
                found: b.rows(),
            });
        }
        let mut out = DenseMatrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col: Vec<f64> = (0..b.rows()).map(|i| b.get(i, j)).collect();
            let x = self.solve(&col)?;
            for (i, xi) in x.into_iter().enumerate() {
                out.set(i, j, xi);
            }
        }
        Ok(out)
    }

    /// Reconstructs `L` as an explicit unit lower triangular matrix.
    pub fn l_factor(&self) -> DenseMatrix {
        let n = self.order();
        let mut l = DenseMatrix::identity(n);
        for i in 0..n {
            for j in 0..i {
                l.set(i, j, self.lu.get(i, j));
            }
        }
        l
    }

    /// Reconstructs `U` as an explicit upper triangular matrix.
    pub fn u_factor(&self) -> DenseMatrix {
        let n = self.order();
        let mut u = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                u.set(i, j, self.lu.get(i, j));
            }
        }
        u
    }

    /// Reconstructs `P A` from the factors (used by the property tests).
    pub fn reconstruct_pa(&self) -> DenseMatrix {
        self.l_factor()
            .gemm(&self.u_factor())
            .expect("factor shapes always agree")
    }

    /// Determinant of the original matrix, computed from the pivots.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.order() {
            det *= self.lu.get(i, i);
        }
        det
    }

    /// Crude estimate of the infinity-norm condition number using one
    /// inverse-power step (`||A||_inf * ||A^{-1} e||_inf` for a random-ish
    /// probe vector).  Good enough to flag badly conditioned blocks in the
    /// multisplitting decomposition diagnostics.
    pub fn condition_estimate(&self, a: &DenseMatrix) -> Result<f64, DenseError> {
        let n = self.order();
        let probe: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let y = self.solve(&probe)?;
        let inv_norm_est = inf_norm(&y) / inf_norm(&probe).max(f64::EPSILON);
        Ok(matrix_inf_norm(a) * inv_norm_est)
    }

    /// One step of iterative refinement: given a candidate solution `x`,
    /// returns an improved solution `x + A^{-1}(b - A x)`.
    pub fn refine(&self, a: &DenseMatrix, b: &[f64], x: &[f64]) -> Result<Vec<f64>, DenseError> {
        let ax = a.gemv(x)?;
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, axi)| bi - axi).collect();
        let d = self.solve(&r)?;
        Ok(x.iter().zip(d.iter()).map(|(xi, di)| xi + di).collect())
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
        assert!(matches!(
            DenseLu::factorize_reference(&a),
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
        assert!(matches!(
            DenseLu::factorize_reference(&a),
            Err(DenseError::NotSquare { .. })
        ));
    }

    #[test]
    fn reconstruction_matches_pa() {
        let a = random_dd_matrix(12, 7);
        let lu = DenseLu::factorize(&a).unwrap();
        let pa = lu.reconstruct_pa();
        for i in 0..12 {
            let orig = lu.permutation()[i];
            for j in 0..12 {
                assert!(
                    (pa.get(i, j) - a.get(orig, j)).abs() < 1e-10,
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
    fn blocked_kernel_is_bitwise_identical_to_reference() {
        // Sizes straddling the panel width exercise the partial-panel and
        // multi-panel code paths.
        for &n in &[1usize, 2, 17, LU_PANEL - 1, LU_PANEL, LU_PANEL + 1, 150] {
            let a = random_dd_matrix(n, 1234 + n as u64);
            let blocked = DenseLu::factorize(&a).unwrap();
            let reference = DenseLu::factorize_reference(&a).unwrap();
            assert_eq!(
                blocked.packed_factors(),
                reference.packed_factors(),
                "n={n}"
            );
            assert_eq!(blocked.permutation(), reference.permutation(), "n={n}");
            assert_eq!(blocked.flops(), reference.flops(), "n={n}");
            assert_eq!(
                blocked.determinant().to_bits(),
                reference.determinant().to_bits(),
                "n={n}"
            );
            let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 7) as f64 - 3.0).collect();
            assert_eq!(blocked.solve(&b).unwrap(), reference.solve(&b).unwrap());
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
    fn solve_many_matches_one_at_a_time() {
        let a = random_dd_matrix(25, 9);
        let lu = DenseLu::factorize(&a).unwrap();
        let rhs: Vec<Vec<f64>> = (0..6)
            .map(|k| (0..25).map(|i| ((i + k) as f64 * 0.7).sin()).collect())
            .collect();
        let batch = lu.solve_many(&rhs).unwrap();
        for (b, x_batch) in rhs.iter().zip(batch.iter()) {
            let x_single = lu.solve(b).unwrap();
            // Same arithmetic order per column => bitwise identical results.
            assert_eq!(x_batch, &x_single);
        }
    }

    #[test]
    fn solve_many_rejects_bad_lengths_and_handles_empty_batch() {
        let a = random_dd_matrix(5, 2);
        let lu = DenseLu::factorize(&a).unwrap();
        assert!(lu.solve_many(&[vec![1.0; 4]]).is_err());
        assert!(lu.solve_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = random_dd_matrix(8, 3);
        let lu = DenseLu::factorize(&a).unwrap();
        let b = DenseMatrix::from_fn(8, 2, |i, j| (i + j) as f64);
        let x = lu.solve_matrix(&b).unwrap();
        let ax = a.gemm(&x).unwrap();
        for i in 0..8 {
            for j in 0..2 {
                assert!((ax.get(i, j) - b.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refinement_does_not_degrade_solution() {
        let n = 20;
        let a = random_dd_matrix(n, 11);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.01).collect();
        let b = a.gemv(&x_true).unwrap();
        let lu = DenseLu::factorize(&a).unwrap();
        let x0 = lu.solve(&b).unwrap();
        let x1 = lu.refine(&a, &b, &x0).unwrap();
        let err0 = x0
            .iter()
            .zip(&x_true)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        let err1 = x1
            .iter()
            .zip(&x_true)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(err1 <= err0 * 10.0 + 1e-12);
    }

    #[test]
    fn condition_estimate_is_at_least_one_for_identity() {
        let a = DenseMatrix::identity(5);
        let lu = DenseLu::factorize(&a).unwrap();
        let c = lu.condition_estimate(&a).unwrap();
        assert!(c >= 0.99);
    }

    #[test]
    fn flops_counter_grows_with_size() {
        let small = DenseLu::factorize(&random_dd_matrix(5, 1)).unwrap();
        let large = DenseLu::factorize(&random_dd_matrix(40, 1)).unwrap();
        assert!(large.flops() > small.flops());
    }
}
