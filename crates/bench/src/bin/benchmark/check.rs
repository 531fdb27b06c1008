//! Answer checking.  Every operation of every workload passes through
//! [`Tally::record`]; an error, a rejection, a non-converged or a wrong
//! answer is a failure, never a panic.

use msplit_sparse::CsrMatrix;

/// Largest accepted `‖b − A x‖∞ / ‖b‖∞`.
pub const MAX_RELATIVE_RESIDUAL: f64 = 1e-6;

/// `‖b − A x‖∞ / ‖b‖∞`, computed by the harness (`NaN` on a shape mismatch).
pub fn relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let Ok(ax) = a.spmv(x) else {
        return f64::NAN;
    };
    let residual = inf_norm(b.iter().zip(&ax).map(|(bi, axi)| bi - axi));
    residual / inf_norm(b.iter().copied()).max(f64::MIN_POSITIVE)
}

fn inf_norm(values: impl Iterator<Item = f64>) -> f64 {
    // `f64::max` would drop a NaN; a NaN entry must poison the norm.
    values.fold(0.0f64, |m, v| if v.is_nan() { v } else { m.max(v.abs()) })
}

/// What an operation returned, reduced to what the check needs.
pub struct Answer<'a> {
    pub x: &'a [f64],
    pub converged: bool,
}

/// Checks one operation: `Err` carries the reason it counts as a failure.
pub fn check<E: std::fmt::Display>(
    a: &CsrMatrix,
    b: &[f64],
    result: Result<Answer<'_>, E>,
) -> Result<(), String> {
    let answer = result.map_err(|e| format!("operation failed: {e}"))?;
    if !answer.converged {
        return Err("not converged".to_string());
    }
    let residual = relative_residual(a, b, answer.x);
    if residual.is_nan() || residual > MAX_RELATIVE_RESIDUAL {
        return Err(format!("relative residual {residual:e}"));
    }
    Ok(())
}

/// Whether two vectors hold the same bits.
pub fn bitwise_equal(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Operations attempted and failed, with the first few reasons kept.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns whether it passed.
    pub fn record(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(reason) => {
                self.fail_counted(reason);
                false
            }
        }
    }

    /// Counts a failure found after the operation itself was counted (the
    /// bitwise comparison of a served reply with a direct solve).
    pub fn fail_counted(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_serve::{RejectCode, ServeError};
    use msplit_sparse::generators;

    #[test]
    fn a_wrong_answer_is_counted_as_a_failure() {
        let a = generators::tridiagonal(50, 4.0, -1.0);
        let (x, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64 - 2.0);
        let mut tally = Tally::default();
        let right: Result<Answer, String> = Ok(Answer {
            x: &x,
            converged: true,
        });
        assert!(tally.record(check(&a, &b, right)));

        let mut wrong = x.clone();
        wrong[7] += 1e-3;
        let wrong: Result<Answer, String> = Ok(Answer {
            x: &wrong,
            converged: true,
        });
        assert!(!tally.record(check(&a, &b, wrong)));

        let stalled: Result<Answer, String> = Ok(Answer {
            x: &x,
            converged: false,
        });
        assert!(!tally.record(check(&a, &b, stalled)));

        let short: Result<Answer, String> = Ok(Answer {
            x: &x[..10],
            converged: true,
        });
        assert!(!tally.record(check(&a, &b, short)));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn a_reject_is_a_failure_not_a_panic() {
        let a = generators::tridiagonal(10, 4.0, -1.0);
        let b = vec![1.0; 10];
        let reject: Result<Answer, ServeError> = Err(ServeError::Rejected {
            code: RejectCode::QueueFull,
            retry_after_micros: 5000,
            detail: "lane full".to_string(),
        });
        let mut tally = Tally::default();
        assert!(!tally.record(check(&a, &b, reject)));
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.reasons[0].contains("QueueFull"));
    }

    #[test]
    fn bitwise_comparison_sees_the_last_bit() {
        let x = [1.0, 2.0];
        assert!(bitwise_equal(&x, &[1.0, 2.0]));
        assert!(!bitwise_equal(
            &x,
            &[1.0, f64::from_bits(2.0f64.to_bits() + 1)]
        ));
        assert!(!bitwise_equal(&x, &[1.0]));
    }
}
