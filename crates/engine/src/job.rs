//! Solve requests, priorities and the handle used to await a job.

use crate::metrics::Metrics;
use crate::EngineError;
use msplit_core::solver::{MultisplittingConfig, SolveOutcome};
use msplit_sparse::CsrMatrix;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Scheduling priority of a job.  Within one priority level jobs run in
/// submission (FIFO) order; a higher level always dequeues first.
///
/// The variants are declared in ascending urgency so the derived `Ord`
/// reads naturally: `Priority::High > Priority::Normal > Priority::Low`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Bulk / background work.
    Low,
    /// The default service level.
    #[default]
    Normal,
    /// Latency-sensitive interactive requests.
    High,
}

impl Priority {
    /// Number of priority levels (= queue lanes).
    pub const COUNT: usize = 3;

    /// Queue lane index: lane 0 is dequeued first.
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// The right-hand side a request wants solved against its matrix.
///
/// One variant: a batch of k right-hand sides is k requests, which spread
/// over every worker.  It stays an enum so that callers naming
/// `RhsPayload::Single` keep compiling.
#[derive(Debug, Clone)]
pub enum RhsPayload {
    /// One right-hand side; served by the prepared system's solve.
    Single(Vec<f64>),
}

/// A solve request submitted to the [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The system matrix.  Shared ownership lets many requests reference the
    /// same operator without copying it through the queue.
    pub matrix: Arc<CsrMatrix>,
    /// Right-hand side to solve for.
    pub rhs: RhsPayload,
    /// Multisplitting configuration; part of the cache key, so requests that
    /// share matrix *and* configuration share one prepared system.
    pub config: MultisplittingConfig,
    /// Scheduling priority.
    pub priority: Priority,
    /// Optional deadline measured from submission: a job still queued when
    /// it elapses fails with [`EngineError::TimedOut`] instead of running.
    pub timeout: Option<Duration>,
}

impl SolveRequest {
    /// A request with the default configuration, normal priority, no timeout.
    pub fn new(matrix: Arc<CsrMatrix>, rhs: RhsPayload) -> Self {
        SolveRequest {
            matrix,
            rhs,
            config: MultisplittingConfig::default(),
            priority: Priority::Normal,
            timeout: None,
        }
    }

    /// Replaces the solve configuration.
    pub fn with_config(mut self, config: MultisplittingConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the queue deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// What a completed job produced.
///
/// One variant, the request's own solve; it stays an enum so that callers
/// naming `JobOutcome::Single` keep compiling.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Outcome of the request's solve.
    Single(SolveOutcome),
}

impl JobOutcome {
    /// Whether the solve converged.
    pub fn converged(&self) -> bool {
        let JobOutcome::Single(o) = self;
        o.stop.converged()
    }
}

#[derive(Debug)]
pub(crate) enum JobState {
    Queued,
    Running,
    Finished(Result<Arc<JobOutcome>, EngineError>),
}

/// How a job reached its terminal state — selects the counters bumped
/// atomically with the state transition, so a waiter woken by `finish`
/// always observes consistent metrics.
pub(crate) enum FinishKind {
    Completed,
    Failed,
    Cancelled,
    TimedOut,
}

pub(crate) struct JobShared {
    pub(crate) state: Mutex<JobState>,
    pub(crate) done: Condvar,
    pub(crate) cancelled: AtomicBool,
    pub(crate) metrics: Arc<Metrics>,
}

impl JobShared {
    pub(crate) fn new(metrics: Arc<Metrics>) -> Arc<Self> {
        Arc::new(JobShared {
            state: Mutex::new(JobState::Queued),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            metrics,
        })
    }

    /// Moves the job to `Finished` unless it already is, bumping the metric
    /// selected by `kind` under the state lock and waking waiters.  Returns
    /// false (and counts nothing) when the job already finished.
    pub(crate) fn finish(
        &self,
        result: Result<Arc<JobOutcome>, EngineError>,
        kind: FinishKind,
    ) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, JobState::Finished(_)) {
            return false;
        }
        match kind {
            FinishKind::Completed => {
                Metrics::add(&self.metrics.jobs_completed, 1);
                Metrics::add(&self.metrics.rhs_served, 1);
            }
            FinishKind::Failed => Metrics::add(&self.metrics.jobs_failed, 1),
            FinishKind::Cancelled => Metrics::add(&self.metrics.jobs_cancelled, 1),
            FinishKind::TimedOut => Metrics::add(&self.metrics.jobs_timed_out, 1),
        }
        *state = JobState::Finished(result);
        drop(state);
        self.done.notify_all();
        true
    }

    /// Cancels the job iff it is still queued, atomically with the state
    /// check (a running job is left alone: the solve is not interrupted).
    pub(crate) fn cancel_queued(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !matches!(*state, JobState::Queued) {
            return false;
        }
        Metrics::add(&self.metrics.jobs_cancelled, 1);
        *state = JobState::Finished(Err(EngineError::Cancelled));
        drop(state);
        self.done.notify_all();
        true
    }

    /// Marks the job as running unless it was already finished (e.g.
    /// cancelled while queued).  Returns false if the job must be skipped.
    pub(crate) fn start(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, JobState::Finished(_)) {
            return false;
        }
        *state = JobState::Running;
        true
    }
}

/// Handle to a submitted job: await, poll or cancel it.
///
/// Handles are cheap to clone; all clones observe the same job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    /// The engine-assigned job id (monotonically increasing per engine).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation.  A job still in the queue is failed with
    /// [`EngineError::Cancelled`] immediately; a job already running
    /// completes normally (the solve itself is not interrupted), and a
    /// finished job is unaffected.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
        self.shared.cancel_queued();
    }

    /// Whether the job has reached a terminal state.
    pub fn is_finished(&self) -> bool {
        matches!(
            *self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            JobState::Finished(_)
        )
    }

    /// Blocks until the job finishes and returns its result.
    pub fn wait(&self) -> Result<Arc<JobOutcome>, EngineError> {
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let JobState::Finished(r) = &*state {
                return r.clone();
            }
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("finished", &self.is_finished())
            .finish()
    }
}
