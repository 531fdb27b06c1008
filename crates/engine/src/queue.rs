//! Bounded multi-priority job queue with blocking backpressure.

use crate::job::{JobShared, Priority, SolveRequest};
use crate::EngineError;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One enqueued job: the request plus the shared completion state.
pub(crate) struct Job {
    pub(crate) request: SolveRequest,
    pub(crate) shared: Arc<JobShared>,
    /// Absolute deadline derived from the request timeout at submission.
    pub(crate) deadline: Option<Instant>,
}

struct QueueState {
    lanes: [VecDeque<Job>; Priority::COUNT],
    len: usize,
    closed: bool,
}

/// A bounded FIFO-within-priority queue.
///
/// * `push_blocking` provides backpressure: it parks the submitter until a
///   slot frees up (or the queue closes).
/// * `try_push` fails fast with [`EngineError::QueueFull`], also when the
///   job's lane already holds the caller's per-lane limit.
/// * `pop` parks workers until a job or shutdown arrives; once the queue is
///   closed, remaining jobs are still drained before `pop` returns `None`.
pub(crate) struct JobQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        JobQueue {
            capacity,
            state: Mutex::new(QueueState {
                lanes: Default::default(),
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len
    }

    /// Jobs waiting per priority lane, highest priority first.
    pub(crate) fn lane_depths(&self) -> [usize; Priority::COUNT] {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        std::array::from_fn(|i| state.lanes[i].len())
    }

    /// Enqueues, blocking while the queue is at capacity.
    pub(crate) fn push_blocking(&self, job: Job) -> Result<(), EngineError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.closed {
                return Err(EngineError::ShuttingDown);
            }
            if state.len < self.capacity {
                let lane = job.request.priority.lane();
                state.lanes[lane].push_back(job);
                state.len += 1;
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Enqueues without blocking, unless the queue is at capacity or the
    /// job's lane already holds `lane_limit` jobs.
    pub(crate) fn try_push(&self, job: Job, lane_limit: usize) -> Result<(), EngineError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Err(EngineError::ShuttingDown);
        }
        let lane = job.request.priority.lane();
        if state.len >= self.capacity || state.lanes[lane].len() >= lane_limit {
            return Err(EngineError::QueueFull);
        }
        state.lanes[lane].push_back(job);
        state.len += 1;
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest job of the highest non-empty priority lane,
    /// blocking while the queue is empty.  Returns `None` only after the
    /// queue was closed *and* fully drained.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.len > 0 {
                for lane in state.lanes.iter_mut() {
                    if let Some(job) = lane.pop_front() {
                        state.len -= 1;
                        drop(state);
                        self.not_full.notify_one();
                        return Some(job);
                    }
                }
                unreachable!("len > 0 but every lane empty");
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: no new submissions; queued jobs still drain.
    pub(crate) fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RhsPayload;
    use msplit_sparse::generators;

    fn job(priority: Priority) -> Job {
        let a = Arc::new(generators::tridiagonal(10, 4.0, -1.0));
        Job {
            request: SolveRequest::new(a, RhsPayload::Single(vec![1.0; 10]))
                .with_priority(priority),
            shared: JobShared::new(Arc::new(crate::metrics::Metrics::default())),
            deadline: None,
        }
    }

    #[test]
    fn pop_respects_priority_then_fifo() {
        let q = JobQueue::new(8);
        q.try_push(job(Priority::Low), usize::MAX).unwrap();
        q.try_push(job(Priority::Normal), usize::MAX).unwrap();
        q.try_push(job(Priority::High), usize::MAX).unwrap();
        q.try_push(job(Priority::High), usize::MAX).unwrap();
        let order: Vec<Priority> = (0..4).map(|_| q.pop().unwrap().request.priority).collect();
        assert_eq!(
            order,
            vec![
                Priority::High,
                Priority::High,
                Priority::Normal,
                Priority::Low
            ]
        );
    }

    #[test]
    fn try_push_reports_full_and_close_drains() {
        let q = JobQueue::new(2);
        q.try_push(job(Priority::Normal), usize::MAX).unwrap();
        q.try_push(job(Priority::Normal), usize::MAX).unwrap();
        assert!(matches!(
            q.try_push(job(Priority::Normal), usize::MAX),
            Err(EngineError::QueueFull)
        ));
        assert_eq!(q.len(), 2);
        q.close();
        assert!(matches!(
            q.try_push(job(Priority::Normal), usize::MAX),
            Err(EngineError::ShuttingDown)
        ));
        // Remaining jobs drain even after close.
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn try_push_bounds_each_lane_by_its_limit() {
        let q = JobQueue::new(8);
        q.try_push(job(Priority::Low), 2).unwrap();
        q.try_push(job(Priority::Low), 2).unwrap();
        assert!(matches!(
            q.try_push(job(Priority::Low), 2),
            Err(EngineError::QueueFull)
        ));
        // A full lane leaves the other lanes their own budget.
        q.try_push(job(Priority::High), 2).unwrap();
        assert_eq!(q.lane_depths(), [1, 0, 2]);
    }

    #[test]
    fn blocking_push_unblocks_when_a_slot_frees() {
        let q = Arc::new(JobQueue::new(1));
        q.try_push(job(Priority::Normal), usize::MAX).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push_blocking(job(Priority::High)));
        // Give the pusher a moment to park, then free the slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(q.pop().is_some());
        pusher.join().unwrap().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().request.priority, Priority::High);
    }
}
