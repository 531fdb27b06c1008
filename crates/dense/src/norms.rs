//! Vector and matrix norms plus residual helpers.
//!
//! The multisplitting iteration stops when the local solution increment (or
//! the global residual) drops below a tolerance; the paper fixes the accuracy
//! to `1e-8` for every experiment.  These helpers centralize the norm
//! computations used for that test.

use crate::matrix::DenseMatrix;

/// Maximum-magnitude (infinity) norm of a vector.
pub fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Sum-of-magnitudes (1) norm of a vector.
pub fn one_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

/// Euclidean (2) norm of a vector.
pub fn two_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Infinity norm of the residual `b - A x` for a dense matrix.
pub fn residual_inf_norm(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.gemv(x).expect("dimension mismatch in residual");
    b.iter()
        .zip(ax.iter())
        .fold(0.0_f64, |m, (bi, axi)| m.max((bi - axi).abs()))
}

/// Dot product of two vectors.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must have equal length");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_norms() {
        let v = [3.0, -4.0, 0.0];
        assert_eq!(inf_norm(&v), 4.0);
        assert_eq!(one_norm(&v), 7.0);
        assert!((two_norm(&v) - 5.0).abs() < 1e-12);
        assert_eq!(dot(&v, &[1.0, 2.0, 9.0]), 3.0 - 8.0);
    }

    #[test]
    fn empty_vector_norms_are_zero() {
        let v: [f64; 0] = [];
        assert_eq!(inf_norm(&v), 0.0);
        assert_eq!(one_norm(&v), 0.0);
        assert_eq!(two_norm(&v), 0.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = [1.0, 2.0];
        let b = [4.0, 7.0];
        assert!(residual_inf_norm(&a, &x, &b) < 1e-12);
    }
}
