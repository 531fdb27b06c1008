//! Residual helpers for sparse systems.
//!
//! The triangular solves live inside [`crate::gplu::SparseLu`] (they need the
//! pivot bookkeeping); this module measures how well a solution satisfies
//! `A x = b`.

use crate::DirectError;
use msplit_sparse::CsrMatrix;

/// Infinity norm of the residual `b - A x`.
pub fn residual_inf_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> Result<f64, DirectError> {
    let ax = a.spmv(x).map_err(|_| DirectError::DimensionMismatch {
        expected: a.cols(),
        found: x.len(),
    })?;
    check_len(b.len(), ax.len())?;
    Ok(b.iter()
        .zip(ax.iter())
        .fold(0.0f64, |m, (bi, axi)| m.max((bi - axi).abs())))
}

/// Relative residual `||b - A x||_inf / ||b||_inf` (with a floor to avoid
/// dividing by zero for homogeneous systems).
pub fn relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> Result<f64, DirectError> {
    let r = residual_inf_norm(a, x, b)?;
    let bn = b
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    Ok(r / bn)
}

fn check_len(expected: usize, found: usize) -> Result<(), DirectError> {
    if expected != found {
        return Err(DirectError::DimensionMismatch { expected, found });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_sparse::TripletBuilder;

    fn lower_example() -> CsrMatrix {
        let mut b = TripletBuilder::square(3);
        b.push(0, 0, 2.0).unwrap();
        b.push(1, 0, 1.0).unwrap();
        b.push(1, 1, 4.0).unwrap();
        b.push(2, 1, -1.0).unwrap();
        b.push(2, 2, 5.0).unwrap();
        b.build_csr()
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let l = lower_example();
        let x = [1.0, -2.0, 0.5];
        let b = l.spmv(&x).unwrap();
        assert!(residual_inf_norm(&l, &x, &b).unwrap() < 1e-14);
        assert!(relative_residual(&l, &x, &b).unwrap() < 1e-14);
    }

    #[test]
    fn dimension_errors_reported() {
        let l = lower_example();
        assert!(residual_inf_norm(&l, &[1.0], &[1.0, 1.0, 1.0]).is_err());
    }
}
