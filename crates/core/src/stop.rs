//! The stop record: why and when a solve stopped.  Every outcome embeds one
//! [`Stop`]; each execution path decides its [`StopReason`] in one place,
//! and a multi-rank run folds its per-rank stops with [`Stop::merge`].

/// Why a solve (or one rank of it) stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Global convergence was decided.
    Converged,
    /// This rank (or, merged, some rank) ran out of its iteration budget.
    BudgetExhausted,
    /// A peer halted the run (its budget ran out first, or it failed).
    Halted,
    /// This rank died; the launcher re-partitions the bands over the
    /// survivors ([`crate::runtime::FailurePolicy::Redistribute`]).
    Reshape(usize),
}

/// Why and when a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stop {
    /// Why the solve stopped.
    pub reason: StopReason,
    /// Outer iterations performed (merged: the maximum over the ranks).
    pub iterations: u64,
    /// Final value of the stopping quantity the tolerance is compared
    /// against (merged: the maximum over the ranks):
    ///
    /// * stationary and Richardson solves — the sup-norm of the last
    ///   increment of the iterate, `‖x^k − x^{k−1}‖∞` (`INFINITY` before the
    ///   first step; a free-running rank folds in how far its dependencies
    ///   moved);
    /// * FGMRES — the absolute true residual `‖b − A x‖₂`; FGMRES stops once
    ///   it is at most `tolerance · ‖b‖₂` (`tolerance` when `b = 0`).
    pub norm: f64,
}

impl Stop {
    /// A stop for `reason` after `iterations`, at stopping quantity `norm`.
    pub fn new(reason: StopReason, iterations: u64, norm: f64) -> Self {
        Stop {
            reason,
            iterations,
            norm,
        }
    }

    /// Whether global convergence was decided.
    pub fn converged(&self) -> bool {
        self.reason == StopReason::Converged
    }

    /// Folds per-rank stops into the run's: converged if every rank converged
    /// (or there is none), otherwise any reshape (naming the lowest dead
    /// rank), else budget exhausted if any rank's ran out, else halted.
    /// `iterations` and `norm` are the maxima over the ranks.
    pub fn merge(stops: impl IntoIterator<Item = Stop>) -> Stop {
        use StopReason::*;
        stops
            .into_iter()
            .fold(Stop::new(Converged, 0, 0.0), |acc, stop| Stop {
                reason: match (acc.reason, stop.reason) {
                    (Reshape(a), Reshape(b)) => Reshape(a.min(b)),
                    (r @ Reshape(_), _) | (_, r @ Reshape(_)) => r,
                    (BudgetExhausted, _) | (_, BudgetExhausted) => BudgetExhausted,
                    (Halted, _) | (_, Halted) => Halted,
                    (Converged, Converged) => Converged,
                },
                iterations: acc.iterations.max(stop.iterations),
                norm: acc.norm.max(stop.norm),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::StopReason::*;
    use super::*;

    fn merged(reasons: &[StopReason]) -> StopReason {
        Stop::merge(reasons.iter().map(|&r| Stop::new(r, 1, 0.0))).reason
    }

    #[test]
    fn merge_rule_table() {
        let table: &[(&[StopReason], StopReason)] = &[
            (&[], Converged),
            (&[Converged], Converged),
            (&[Converged, Converged, Converged], Converged),
            (&[Converged, Halted], Halted),
            (&[Halted, Halted], Halted),
            (&[Converged, BudgetExhausted], BudgetExhausted),
            (&[Halted, BudgetExhausted, Halted], BudgetExhausted),
            (&[BudgetExhausted, BudgetExhausted], BudgetExhausted),
            (&[Converged, Reshape(2)], Reshape(2)),
            (&[BudgetExhausted, Reshape(2), Halted], Reshape(2)),
            (&[Reshape(3), Reshape(1), Reshape(2)], Reshape(1)),
            (&[Reshape(1), Converged, Reshape(0)], Reshape(0)),
        ];
        for (reasons, want) in table {
            assert_eq!(merged(reasons), *want, "{reasons:?}");
            let mut reversed = reasons.to_vec();
            reversed.reverse();
            assert_eq!(merged(&reversed), *want, "{reversed:?} (reversed)");
        }
    }

    #[test]
    fn merge_takes_the_maxima_of_iterations_and_norm() {
        let stop = Stop::merge([
            Stop::new(Converged, 7, 1e-9),
            Stop::new(Converged, 9, 3e-10),
            Stop::new(Converged, 8, 2e-9),
        ]);
        assert_eq!(stop, Stop::new(Converged, 9, 2e-9));
        assert!(stop.converged());
        assert_eq!(Stop::merge([]), Stop::new(Converged, 0, 0.0));
        assert!(!Stop::new(Halted, 0, 0.0).converged());
    }
}
