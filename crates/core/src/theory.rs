//! Convergence theory: iteration matrices, spectral radii, and the
//! sufficient conditions of Theorem 1 and Propositions 1–3.
//!
//! For each band `l`, the splitting `A = M_l − N_l` uses the block-diagonal
//! `M_l` of Figure 2: the rows of `J_l` keep the diagonal block `ASub_l`,
//! every other row keeps only its diagonal entry.  The synchronous iteration
//! converges when `ρ(M_l⁻¹ N_l) < 1` for every `l`; every asynchronous
//! execution converges when the stronger condition `ρ(|M_l⁻¹ N_l|) < 1`
//! holds (Theorem 1).  Section 5 gives checkable sufficient conditions:
//! diagonal dominance (Proposition 1) and the M-matrix property
//! (Propositions 2–3), which
//! [`msplit_sparse::properties::MatrixProperties::analyze`] evaluates
//! without forming any iteration matrix.
//!
//! Forming `M_l⁻¹ N_l` densely is only feasible for small systems; it is
//! meant for validation and for the ablation studies, not for production
//! solves.

use crate::CoreError;
use msplit_dense::{DenseLu, DenseMatrix};
use msplit_sparse::{BandPartition, CsrMatrix};

/// Estimates the spectral radius of a dense matrix by normalized power
/// iteration, using the geometric mean of the growth factors of the last
/// iterations (robust to complex dominant pairs, which make the plain
/// Rayleigh quotient oscillate).
pub fn dense_spectral_radius(t: &DenseMatrix, iterations: usize) -> f64 {
    assert!(t.is_square(), "spectral radius requires a square matrix");
    let n = t.rows();
    if n == 0 {
        return 0.0;
    }
    let mut x: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.3 * ((i * 2654435761) % 97) as f64 / 97.0)
        .collect();
    let mut growths: Vec<f64> = Vec::new();
    let iters = iterations.max(8);
    for _ in 0..iters {
        let y = t.gemv(&x).expect("square matrix");
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        growths.push(norm / x.iter().map(|v| v * v).sum::<f64>().sqrt());
        x = y.iter().map(|v| v / norm).collect();
    }
    // Average the log growth over the second half of the run (transients gone).
    let tail = &growths[growths.len() / 2..];
    let mean_log: f64 = tail.iter().map(|g| g.ln()).sum::<f64>() / tail.len() as f64;
    mean_log.exp()
}

/// Builds the dense iteration matrix `T_l = M_l⁻¹ N_l` of band `l`.
pub fn iteration_matrix(
    a: &CsrMatrix,
    partition: &BandPartition,
    l: usize,
) -> Result<DenseMatrix, CoreError> {
    if !a.is_square() {
        return Err(CoreError::Decomposition(format!(
            "iteration matrix requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    if n != partition.order() {
        return Err(CoreError::Decomposition(
            "partition order does not match the matrix".to_string(),
        ));
    }
    let range = partition.extended_range(l);

    // M_l: block diagonal of Figure 2 (ASub on the band, diag(A) elsewhere).
    let mut m = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for (j, v) in a.row(i) {
            if (range.contains(&i) && range.contains(&j)) || i == j {
                m.set(i, j, v);
            }
        }
        if m.get(i, i) == 0.0 {
            return Err(CoreError::Decomposition(format!(
                "M_l has a zero diagonal at row {i}; the splitting is singular"
            )));
        }
    }
    // N_l = M_l - A.
    let a_dense = a.to_dense();
    let n_mat = m.sub(&a_dense).expect("shapes match");
    // T = M^{-1} N, column by column.
    let lu = DenseLu::factorize(&m).map_err(msplit_direct::DirectError::from)?;
    let mut t = DenseMatrix::zeros(n, n);
    for j in 0..n {
        let col: Vec<f64> = (0..n).map(|i| n_mat.get(i, j)).collect();
        let x = lu.solve(&col).map_err(msplit_direct::DirectError::from)?;
        for (i, xi) in x.into_iter().enumerate() {
            t.set(i, j, xi);
        }
    }
    Ok(t)
}

/// Spectral analysis of every splitting of a decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct SplittingAnalysis {
    /// Estimated `ρ(M_l⁻¹ N_l)` per band.
    pub radii: Vec<f64>,
    /// Estimated `ρ(|M_l⁻¹ N_l|)` per band.
    pub abs_radii: Vec<f64>,
}

impl SplittingAnalysis {
    /// Computes the spectral radii of every band's iteration matrix (dense —
    /// small systems only).
    pub fn analyze(
        a: &CsrMatrix,
        partition: &BandPartition,
        power_iterations: usize,
    ) -> Result<Self, CoreError> {
        let mut radii = Vec::with_capacity(partition.num_parts());
        let mut abs_radii = Vec::with_capacity(partition.num_parts());
        for l in 0..partition.num_parts() {
            let t = iteration_matrix(a, partition, l)?;
            radii.push(dense_spectral_radius(&t, power_iterations));
            abs_radii.push(dense_spectral_radius(&t.abs(), power_iterations));
        }
        Ok(SplittingAnalysis { radii, abs_radii })
    }

    /// Largest `ρ(M_l⁻¹ N_l)` — the asymptotic contraction factor of the
    /// synchronous iteration.
    pub fn max_radius(&self) -> f64 {
        self.radii.iter().cloned().fold(0.0, f64::max)
    }

    /// Largest `ρ(|M_l⁻¹ N_l|)`.
    pub fn max_abs_radius(&self) -> f64 {
        self.abs_radii.iter().cloned().fold(0.0, f64::max)
    }

    /// Theorem 1, synchronous part: every splitting contracts.
    pub fn synchronous_convergent(&self) -> bool {
        self.max_radius() < 1.0
    }

    /// Theorem 1, asynchronous part: every splitting contracts in absolute
    /// value (implies the synchronous condition).
    pub fn asynchronous_convergent(&self) -> bool {
        self.max_abs_radius() < 1.0
    }

    /// Predicted iteration count to reduce the error by `target` (e.g. 1e-8)
    /// under the synchronous contraction factor.
    pub fn predicted_iterations(&self, target: f64) -> Option<u64> {
        let rho = self.max_radius();
        if rho >= 1.0 || rho <= 0.0 || target <= 0.0 || target >= 1.0 {
            return None;
        }
        Some((target.ln() / rho.ln()).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_sparse::generators::{self, DiagDominantConfig};
    use msplit_sparse::properties::MatrixProperties;

    #[test]
    fn dense_radius_of_diagonal_matrix() {
        let d = DenseMatrix::from_rows(&[&[0.5, 0.0], &[0.0, -0.25]]);
        let r = dense_spectral_radius(&d, 100);
        assert!((r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn dense_radius_of_rotation_like_matrix() {
        // Eigenvalues +-0.8i: plain Rayleigh quotient oscillates, the growth
        // estimate must still land near 0.8.
        let d = DenseMatrix::from_rows(&[&[0.0, -0.8], &[0.8, 0.0]]);
        let r = dense_spectral_radius(&d, 200);
        assert!((r - 0.8).abs() < 0.05, "estimate {r}");
    }

    #[test]
    fn iteration_matrix_rows_outside_band_are_jacobi_rows() {
        let a = generators::tridiagonal(8, 4.0, -1.0);
        let p = BandPartition::uniform(8, 2).unwrap();
        let t = iteration_matrix(&a, &p, 0).unwrap();
        // Row 6 is outside band 0: its M row is just the diagonal, so the
        // T row is the point-Jacobi row: -a_ij / a_ii for j != i.
        assert!((t.get(6, 5) - 0.25).abs() < 1e-12);
        assert!((t.get(6, 7) - 0.25).abs() < 1e-12);
        assert_eq!(t.get(6, 6), 0.0);
        // Rows inside the band have zero coupling to in-band columns
        // (the block is solved exactly): T restricted to the band's columns
        // is zero for in-band rows.
        for i in 0..4 {
            for j in 0..4 {
                assert!(t.get(i, j).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn strongly_dominant_matrix_satisfies_theorem_1() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 40,
            dominance_margin: 0.5,
            seed: 9,
            ..Default::default()
        });
        let p = BandPartition::uniform(40, 4).unwrap();
        let analysis = SplittingAnalysis::analyze(&a, &p, 300).unwrap();
        assert!(analysis.synchronous_convergent());
        assert!(analysis.asynchronous_convergent());
        assert!(analysis.max_abs_radius() >= analysis.max_radius() - 1e-9);
        let props = MatrixProperties::analyze(&a);
        assert!(props.satisfies_proposition_1());
    }

    #[test]
    fn more_parts_give_larger_contraction_factor() {
        // Splitting finer discards more coupling into N_l, so the contraction
        // factor should not decrease.
        let a = generators::spectral_radius_targeted(60, 0.9);
        let p2 = BandPartition::uniform(60, 2).unwrap();
        let p6 = BandPartition::uniform(60, 6).unwrap();
        let r2 = SplittingAnalysis::analyze(&a, &p2, 400)
            .unwrap()
            .max_radius();
        let r6 = SplittingAnalysis::analyze(&a, &p6, 400)
            .unwrap()
            .max_radius();
        assert!(r6 >= r2 - 1e-6, "r2={r2} r6={r6}");
        assert!(r2 < 1.0 && r6 < 1.0);
    }

    #[test]
    fn overlap_reduces_the_contraction_factor() {
        let a = generators::spectral_radius_targeted(60, 0.95);
        let p0 = BandPartition::uniform_with_overlap(60, 3, 0).unwrap();
        let p8 = BandPartition::uniform_with_overlap(60, 3, 8).unwrap();
        let r0 = SplittingAnalysis::analyze(&a, &p0, 400)
            .unwrap()
            .max_radius();
        let r8 = SplittingAnalysis::analyze(&a, &p8, 400)
            .unwrap()
            .max_radius();
        assert!(r8 < r0, "overlap should reduce the radius: {r8} vs {r0}");
    }

    #[test]
    fn predicted_iterations_reasonable() {
        let a = generators::spectral_radius_targeted(50, 0.9);
        let p = BandPartition::uniform(50, 2).unwrap();
        let analysis = SplittingAnalysis::analyze(&a, &p, 400).unwrap();
        let pred = analysis.predicted_iterations(1e-8).unwrap();
        assert!(pred > 5 && pred < 10_000, "prediction {pred}");
        // Non-contractive analysis has no prediction.
        let bad = SplittingAnalysis {
            radii: vec![1.2],
            abs_radii: vec![1.2],
        };
        assert_eq!(bad.predicted_iterations(1e-8), None);
        assert!(!bad.synchronous_convergent());
    }

    #[test]
    fn singular_splitting_is_reported() {
        let mut b = msplit_sparse::TripletBuilder::square(4);
        b.push(0, 0, 1.0).unwrap();
        b.push(1, 1, 1.0).unwrap();
        b.push(2, 2, 1.0).unwrap();
        // row 3 has a zero diagonal
        b.push(3, 2, 1.0).unwrap();
        let a = b.build_csr();
        let p = BandPartition::uniform(4, 2).unwrap();
        assert!(iteration_matrix(&a, &p, 0).is_err());
    }
}
