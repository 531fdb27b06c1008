//! The local vote: how one rank turns a [`StepObservation`] into its own
//! convergence verdict.

use super::engine::StepObservation;

/// Convergence-window progress of a rank's local vote, the state a
/// checkpoint persists alongside the engine snapshot so a resumed rank
/// reproduces the exact same convergence decision sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteState {
    /// Consecutive below-tolerance iterations observed so far.
    pub consecutive: u64,
    /// Most recent effective increment recorded.
    pub last_increment: f64,
}

/// The local vote of one rank: its increment has stayed below tolerance for
/// a window of consecutive iterations.  There is one per execution mode:
///
/// * lockstep ([`Vote::lockstep`]) — a window of one over the increment,
///   guarded against stale sweeps: a rank with dependencies may only count a
///   tiny increment as convergence evidence when fresh halo data actually
///   arrived since the previous sweep *and* that data did not move its
///   dependency values (a sweep over in-flight slices recomputes the same
///   iterate, a zero increment that says nothing);
/// * free-running ([`Vote::free_running`]) — a window of two over
///   `max(increment, dep_change)`: with free-running iterations a single tiny
///   increment can be an artifact of not having received fresh data yet, and
///   inputs still moving must veto the verdict.
pub(crate) struct Vote {
    tolerance: f64,
    free_running: bool,
    state: VoteState,
}

impl Vote {
    /// The guarded window-1 vote of a synchronous rank.  The rank loop and
    /// the pooled lockstep loop both build it here, so the two synchronous
    /// drivers cannot vote differently.
    pub(crate) fn lockstep(tolerance: f64) -> Self {
        Self::new(tolerance, false)
    }

    /// The windowed vote of an asynchronous rank.
    pub(crate) fn free_running(tolerance: f64) -> Self {
        Self::new(tolerance, true)
    }

    fn new(tolerance: f64, free_running: bool) -> Self {
        Vote {
            tolerance,
            free_running,
            state: VoteState {
                consecutive: 0,
                last_increment: f64::INFINITY,
            },
        }
    }

    /// The increment this vote judges — what the run should *report* as its
    /// last increment.  The free-running vote folds dependency movement in
    /// (a rank whose own iterate is stable while its inputs still move has
    /// not converged by that much), so the reported metric stays consistent
    /// with the decision logic.
    pub(crate) fn effective_increment(&self, obs: &StepObservation) -> f64 {
        if self.free_running {
            obs.increment.max(obs.dep_change)
        } else {
            obs.increment
        }
    }

    /// Records the observation and returns this rank's vote.  The window
    /// advances even when the lockstep guard vetoes.
    pub(crate) fn vote(&mut self, obs: &StepObservation) -> bool {
        let increment = self.effective_increment(obs);
        self.state.last_increment = increment;
        if increment <= self.tolerance {
            self.state.consecutive += 1;
        } else {
            self.state.consecutive = 0;
        }
        if self.free_running {
            self.state.consecutive >= 2
        } else {
            self.state.consecutive >= 1
                && obs.dep_change <= self.tolerance
                && (obs.fresh_data || !obs.needs_fresh_data)
        }
    }

    /// The window progress a checkpoint persists.
    pub(crate) fn state(&self) -> VoteState {
        self.state
    }

    /// Restores window progress captured by [`Vote::state`].
    pub(crate) fn restore(&mut self, state: VoteState) {
        self.state = state;
    }
}
