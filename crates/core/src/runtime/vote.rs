//! Local votes: how one rank turns a [`StepObservation`] into its own
//! convergence verdict.

use super::engine::StepObservation;
use msplit_comm::convergence::{LocalConvergence, ResidualTracker};

/// The local convergence verdict of one rank, derived from a
/// [`StepObservation`].  Implementations are composable — see
/// [`StaleSweepGuard`].
pub trait LocalVote: Send {
    /// Records the observation and returns this rank's vote.
    fn vote(&mut self, obs: &StepObservation) -> bool;

    /// The increment this vote judges — what the run should *report* as its
    /// last increment.  The free-running vote folds dependency movement in
    /// (a rank whose own iterate is stable while its inputs still move has
    /// not converged by that much), so the reported metric stays consistent
    /// with the decision logic.
    fn effective_increment(&self, obs: &StepObservation) -> f64 {
        obs.increment
    }

    /// The persistable convergence-window progress of this vote, captured at
    /// a checkpoint boundary so a resumed rank reproduces the exact same
    /// convergence decision sequence.  Stateless votes return the default.
    fn checkpoint_state(&self) -> VoteState {
        VoteState {
            consecutive: 0,
            last_increment: f64::INFINITY,
        }
    }

    /// Restores window progress captured by [`LocalVote::checkpoint_state`].
    /// A no-op for stateless votes.
    fn restore_state(&mut self, _state: VoteState) {}
}

/// Convergence-window progress of a [`LocalVote`], the policy state a
/// checkpoint persists alongside the engine snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteState {
    /// Consecutive below-tolerance iterations observed so far.
    pub consecutive: u64,
    /// Most recent effective increment recorded.
    pub last_increment: f64,
}

/// Base vote: the iterate increment has stayed below tolerance for a
/// configured window ([`ResidualTracker`]).
pub struct IncrementVote {
    tracker: ResidualTracker,
    include_dep_change: bool,
}

impl IncrementVote {
    /// Lockstep variant: a single below-tolerance increment suffices (the
    /// lockstep wait guarantees the iterate was computed from fresh data).
    pub fn lockstep(tolerance: f64) -> Self {
        IncrementVote {
            tracker: ResidualTracker::new(tolerance, 1),
            include_dep_change: false,
        }
    }

    /// Free-running variant: a 2-iteration stability window over
    /// `max(increment, dep_change)` — with free-running iterations a single
    /// tiny increment can be an artifact of not having received fresh data
    /// yet, and inputs still moving must veto the verdict.
    pub fn free_running(tolerance: f64) -> Self {
        IncrementVote {
            tracker: ResidualTracker::new(tolerance, 2),
            include_dep_change: true,
        }
    }
}

impl LocalVote for IncrementVote {
    fn vote(&mut self, obs: &StepObservation) -> bool {
        let increment = self.effective_increment(obs);
        self.tracker.record(increment) == LocalConvergence::Converged
    }

    fn effective_increment(&self, obs: &StepObservation) -> f64 {
        if self.include_dep_change {
            obs.increment.max(obs.dep_change)
        } else {
            obs.increment
        }
    }

    fn checkpoint_state(&self) -> VoteState {
        VoteState {
            consecutive: self.tracker.consecutive() as u64,
            last_increment: self.tracker.last_increment(),
        }
    }

    fn restore_state(&mut self, state: VoteState) {
        self.tracker
            .restore(state.consecutive as usize, state.last_increment);
    }
}

/// Composable stale-sweep guard: a rank with dependencies may only count a
/// tiny increment as convergence evidence when fresh halo data actually
/// arrived since the previous sweep *and* that data did not move its
/// dependency values — a sweep over in-flight slices recomputes the same
/// iterate, a zero increment that says nothing.  A no-op for ranks without
/// dependencies.
pub struct StaleSweepGuard<V> {
    inner: V,
    tolerance: f64,
}

impl<V: LocalVote> StaleSweepGuard<V> {
    /// Wraps `inner` with the guard at the given dependency-movement
    /// tolerance.
    pub fn new(inner: V, tolerance: f64) -> Self {
        StaleSweepGuard { inner, tolerance }
    }
}

impl<V: LocalVote> LocalVote for StaleSweepGuard<V> {
    fn vote(&mut self, obs: &StepObservation) -> bool {
        // Always advance the inner tracker, even when the guard vetoes.
        let inner = self.inner.vote(obs);
        inner && obs.dep_change <= self.tolerance && (obs.fresh_data || !obs.needs_fresh_data)
    }

    fn effective_increment(&self, obs: &StepObservation) -> f64 {
        self.inner.effective_increment(obs)
    }

    fn checkpoint_state(&self) -> VoteState {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: VoteState) {
        self.inner.restore_state(state);
    }
}
