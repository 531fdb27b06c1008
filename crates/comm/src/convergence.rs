//! Local convergence detection.
//!
//! Algorithm 1 stops "until global convergence is achieved".  The *global*
//! decision is a message protocol and lives with the drivers (the
//! convergence policies of `msplit_core::runtime`); this module keeps the
//! per-processor half: the increment window behind each rank's local vote,
//! which is also the vote state a checkpoint persists.

/// Tracks *local* convergence of one processor from the per-iteration
/// increment `||x_new − x_old||_inf`.
///
/// The paper fixes the accuracy to `1e-8`; a processor is considered locally
/// converged once its increment has stayed below the tolerance for
/// `stable_iterations` consecutive iterations (one iteration suffices in the
/// synchronous case, the asynchronous case uses a longer window to avoid
/// premature termination while fresher dependency data is still in flight).
#[derive(Debug, Clone)]
pub struct ResidualTracker {
    tolerance: f64,
    stable_iterations: usize,
    consecutive: usize,
    last_increment: f64,
}

impl ResidualTracker {
    /// Creates a tracker with the given tolerance and confirmation window.
    pub fn new(tolerance: f64, stable_iterations: usize) -> Self {
        ResidualTracker {
            tolerance,
            stable_iterations: stable_iterations.max(1),
            consecutive: 0,
            last_increment: f64::INFINITY,
        }
    }

    /// Records the increment of one iteration and returns the local verdict.
    pub fn record(&mut self, increment: f64) -> LocalConvergence {
        self.last_increment = increment;
        if increment <= self.tolerance {
            self.consecutive += 1;
        } else {
            self.consecutive = 0;
        }
        if self.consecutive >= self.stable_iterations {
            LocalConvergence::Converged
        } else {
            LocalConvergence::NotConverged
        }
    }

    /// The most recent increment recorded.
    pub fn last_increment(&self) -> f64 {
        self.last_increment
    }

    /// The configured tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Resets the confirmation window (used when fresh dependency data makes
    /// the local solution move again).
    pub fn reset(&mut self) {
        self.consecutive = 0;
    }

    /// Number of consecutive below-tolerance iterations observed so far —
    /// the confirmation-window progress.  Exposed so a checkpoint can
    /// persist the tracker mid-window and a resumed rank reproduces the
    /// exact same convergence decision sequence.
    pub fn consecutive(&self) -> usize {
        self.consecutive
    }

    /// Restores the confirmation-window state saved by a checkpoint
    /// ([`ResidualTracker::consecutive`] / [`ResidualTracker::last_increment`]).
    pub fn restore(&mut self, consecutive: usize, last_increment: f64) {
        self.consecutive = consecutive;
        self.last_increment = last_increment;
    }
}

/// Local convergence verdict of one processor for one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalConvergence {
    /// The local increment has been below tolerance long enough.
    Converged,
    /// Still iterating.
    NotConverged,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_tracker_requires_consecutive_small_increments() {
        let mut t = ResidualTracker::new(1e-8, 2);
        assert_eq!(t.record(1.0), LocalConvergence::NotConverged);
        assert_eq!(t.record(1e-9), LocalConvergence::NotConverged);
        assert_eq!(t.record(1e-10), LocalConvergence::Converged);
        assert_eq!(t.last_increment(), 1e-10);
        assert_eq!(t.tolerance(), 1e-8);
        // A large increment resets the window.
        assert_eq!(t.record(0.5), LocalConvergence::NotConverged);
        assert_eq!(t.record(1e-9), LocalConvergence::NotConverged);
        t.reset();
        assert_eq!(t.record(1e-9), LocalConvergence::NotConverged);
        assert_eq!(t.record(1e-9), LocalConvergence::Converged);
    }

    #[test]
    fn single_iteration_window_converges_immediately() {
        let mut t = ResidualTracker::new(1e-6, 1);
        assert_eq!(t.record(1e-7), LocalConvergence::Converged);
    }
}
