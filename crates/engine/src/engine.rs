//! The persistent solve service: worker pool over the job queue and cache.

use crate::cache::FactorizationCache;
use crate::job::{FinishKind, JobHandle, JobOutcome, JobShared, RhsPayload, SolveRequest};
use crate::key::MatrixKey;
use crate::metrics::{EngineReport, Metrics};
use crate::queue::{Job, JobQueue};
use crate::EngineError;
use msplit_core::PreparedSystem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sizing of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing jobs.  Each worker runs one job at a time.
    /// A synchronous single-RHS solve runs inline on its worker; batches and
    /// asynchronous solves spawn one thread per band, so a few workers
    /// saturate a host.
    pub workers: usize,
    /// Bound of the job queue; submissions beyond it block
    /// ([`Engine::submit`]) or fail fast ([`Engine::try_submit`]).
    pub queue_capacity: usize,
    /// Maximum number of prepared systems kept by the factorization cache.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 8,
        }
    }
}

/// A long-running, multi-tenant solve service.
///
/// Submitting a [`SolveRequest`] enqueues it (bounded, prioritized) and
/// returns a [`JobHandle`].  Workers pop jobs, fetch (or single-flight
/// prepare) the [`PreparedSystem`] for the request's matrix + configuration
/// from the [`FactorizationCache`], and dispatch onto the synchronous or
/// asynchronous driver — batched in a single pass when the request carries
/// multiple right-hand sides.  Dropping the engine closes the queue, drains
/// the remaining jobs and joins the workers.
pub struct Engine {
    cache: Arc<FactorizationCache>,
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Engine {
    /// Starts the service with the given sizing.
    ///
    /// # Panics
    /// Panics if any sizing field is zero.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers > 0, "engine needs at least one worker");
        let cache = Arc::new(FactorizationCache::new(config.cache_capacity));
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let metrics = Arc::new(Metrics::default());
        let workers = (0..config.workers)
            .map(|i| {
                let cache = Arc::clone(&cache);
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("msplit-engine-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &cache, &metrics))
                    .expect("spawning engine worker")
            })
            .collect();
        Engine {
            cache,
            queue,
            metrics,
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    fn validate(request: &SolveRequest) -> Result<(), EngineError> {
        let a = &request.matrix;
        if !a.is_square() {
            return Err(EngineError::InvalidRequest(format!(
                "matrix must be square, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if request.config.parts == 0 {
            return Err(EngineError::InvalidRequest(
                "config.parts must be at least 1".to_string(),
            ));
        }
        if request.config.parts > a.rows() {
            return Err(EngineError::InvalidRequest(format!(
                "cannot split {} rows over {} parts",
                a.rows(),
                request.config.parts
            )));
        }
        for (k, col) in request.rhs.columns().enumerate() {
            if col.len() != a.rows() {
                return Err(EngineError::InvalidRequest(format!(
                    "right-hand side {k} has length {} but the matrix order is {}",
                    col.len(),
                    a.rows()
                )));
            }
        }
        Ok(())
    }

    fn make_job(&self, request: SolveRequest) -> Result<(Job, JobHandle), EngineError> {
        Self::validate(&request)?;
        let shared = JobShared::new(Arc::clone(&self.metrics));
        let handle = JobHandle {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            shared: Arc::clone(&shared),
        };
        let deadline = request.timeout.map(|t| Instant::now() + t);
        Ok((
            Job {
                request,
                shared,
                deadline,
            },
            handle,
        ))
    }

    /// Submits a job, blocking while the queue is at capacity
    /// (backpressure).
    pub fn submit(&self, request: SolveRequest) -> Result<JobHandle, EngineError> {
        let (job, handle) = self.make_job(request)?;
        // Count before the push: once the job is in the queue a worker can
        // complete it, and a report must never show completed > submitted.
        Metrics::add(&self.metrics.jobs_submitted, 1);
        if let Err(e) = self.queue.push_blocking(job) {
            self.metrics.jobs_submitted.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }
        Ok(handle)
    }

    /// Submits a job without blocking; fails with [`EngineError::QueueFull`]
    /// when the queue is at capacity.
    pub fn try_submit(&self, request: SolveRequest) -> Result<JobHandle, EngineError> {
        let (job, handle) = self.make_job(request)?;
        Metrics::add(&self.metrics.jobs_submitted, 1);
        if let Err(e) = self.queue.try_push(job) {
            self.metrics.jobs_submitted.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }
        Ok(handle)
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently waiting per priority lane, highest priority first
    /// (index with [`crate::Priority::lane`]).  Admission-control layers use
    /// this to bound each lane independently of the global capacity.
    pub fn lane_depths(&self) -> [usize; crate::Priority::COUNT] {
        self.queue.lane_depths()
    }

    /// The factorization cache (e.g. to inspect [`FactorizationCache::stats`]).
    pub fn cache(&self) -> &FactorizationCache {
        &self.cache
    }

    /// Snapshot of the service metrics.
    pub fn report(&self) -> EngineReport {
        let cache_stats = self.cache.stats();
        EngineReport {
            jobs_submitted: self.metrics.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.metrics.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.metrics.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: self.metrics.jobs_cancelled.load(Ordering::Relaxed),
            jobs_timed_out: self.metrics.jobs_timed_out.load(Ordering::Relaxed),
            rhs_served: self.metrics.rhs_served.load(Ordering::Relaxed),
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            cache_evictions: cache_stats.evictions,
            single_flight_waits: cache_stats.single_flight_waits,
            single_flight_wait_seconds: cache_stats.single_flight_wait_micros as f64 / 1e6,
            factorizations: cache_stats.factorizations,
            cached_systems: self.cache.len(),
            queue_depth: self.queue.len(),
            factorize_seconds: self.cache.factorize_seconds(),
            solve_seconds: self.metrics.solve_micros.load(Ordering::Relaxed) as f64 / 1e6,
            sparse_fastpath_hits: self.metrics.sparse_fastpath_hits.load(Ordering::Relaxed),
            dense_fallbacks: self.metrics.dense_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Closes the queue and joins the workers after they drain the remaining
    /// jobs.  Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue.len())
            .field("cache", &self.cache)
            .finish()
    }
}

fn worker_loop(queue: &JobQueue, cache: &FactorizationCache, metrics: &Metrics) {
    // The workers already run side by side, one job each: a job that forked
    // its factorization or its sweeps onto the rayon pool would take cores
    // from the jobs beside it (measured on `serve_mixed`: the warm tenant
    // lost 16 % to a cold neighbour's parallel factorization).
    rayon::pool::mark_worker_thread();
    while let Some(job) = queue.pop() {
        run_job(job, cache, metrics);
    }
}

/// Executes one job.  A panic anywhere in preparation or solve is caught and
/// reported as [`EngineError::Solver`] — a long-running service must not let
/// one pathological request hang its handle or kill a worker thread (the
/// cache clears its own in-flight claim on a preparation panic).
fn run_job(job: Job, cache: &FactorizationCache, metrics: &Metrics) {
    // Cancelled while queued: `JobHandle::cancel` normally already finished
    // the job (then `start` refuses below); the flag covers the race where
    // cancel lands between the queue pop and the state transition.
    if job.shared.cancelled.load(Ordering::Relaxed) {
        job.shared
            .finish(Err(EngineError::Cancelled), FinishKind::Cancelled);
        return;
    }
    if let Some(deadline) = job.deadline {
        if Instant::now() >= deadline {
            job.shared
                .finish(Err(EngineError::TimedOut), FinishKind::TimedOut);
            return;
        }
    }
    if !job.shared.start() {
        // Already finished while queued (handle-side cancel counted it).
        return;
    }

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_started_job(&job, cache, metrics)
    }));
    if let Err(payload) = result {
        job.shared.finish(
            Err(EngineError::Solver(format!(
                "job panicked: {}",
                crate::cache::panic_text(&payload)
            ))),
            FinishKind::Failed,
        );
    }
}

/// Folds the per-rank solve-path counters of one completed job into the
/// service metrics.
fn record_solve_paths(reports: &[msplit_core::solver::PartReport], metrics: &Metrics) {
    for report in reports {
        let sp = &report.solve_path;
        Metrics::add(&metrics.sparse_fastpath_hits, sp.sparse_fastpath_hits);
        Metrics::add(&metrics.dense_fallbacks, sp.dense_fallbacks);
    }
}

fn execute_started_job(job: &Job, cache: &FactorizationCache, metrics: &Metrics) {
    let request = &job.request;
    let key = MatrixKey::new(&request.matrix, &request.config);
    let prepared: Result<Arc<PreparedSystem>, EngineError> = cache.get_or_prepare(key, || {
        PreparedSystem::prepare(request.config.clone(), &request.matrix)
            .map_err(|e| EngineError::Solver(e.to_string()))
    });
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => {
            job.shared.finish(Err(e), FinishKind::Failed);
            return;
        }
    };

    let solve_started = Instant::now();
    let outcome = match &request.rhs {
        RhsPayload::Single(b) => prepared.solve(b).map(JobOutcome::Single),
        RhsPayload::Batch(cols) => prepared.solve_many(cols).map(JobOutcome::Batch),
    };
    Metrics::add(
        &metrics.solve_micros,
        solve_started.elapsed().as_micros() as u64,
    );
    match outcome {
        Ok(outcome) => {
            let rhs = outcome.rhs_count() as u64;
            record_solve_paths(outcome.part_reports(), metrics);
            job.shared
                .finish(Ok(Arc::new(outcome)), FinishKind::Completed(rhs));
        }
        Err(e) => {
            job.shared
                .finish(Err(EngineError::Solver(e.to_string())), FinishKind::Failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use msplit_core::solver::MultisplittingConfig;
    use msplit_sparse::generators::{self, DiagDominantConfig};
    use msplit_sparse::CsrMatrix;
    use std::time::Duration;

    fn matrix(n: usize, seed: u64) -> Arc<CsrMatrix> {
        Arc::new(generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        }))
    }

    fn small_config() -> MultisplittingConfig {
        MultisplittingConfig {
            parts: 2,
            tolerance: 1e-9,
            ..Default::default()
        }
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn single_job_round_trip_matches_direct_solve() {
        let a = matrix(150, 3);
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 6) as f64);
        let engine = Engine::new(EngineConfig::default());
        let handle = engine
            .submit(
                SolveRequest::new(Arc::clone(&a), RhsPayload::Single(b))
                    .with_config(small_config()),
            )
            .unwrap();
        let outcome = handle.wait().unwrap();
        assert!(outcome.converged());
        match &*outcome {
            JobOutcome::Single(o) => assert!(max_err(&o.x, &x_true) < 1e-6),
            JobOutcome::Batch(_) => panic!("expected a single outcome"),
        }
        let report = engine.report();
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.rhs_served, 1);
        assert_eq!(report.factorizations, 1);
    }

    #[test]
    fn batch_job_serves_every_rhs() {
        let a = matrix(120, 8);
        let batch: Vec<Vec<f64>> = (0..6u64)
            .map(|s| generators::rhs_for_solution(&a, |i| ((i as u64 + s) % 5) as f64).1)
            .collect();
        let engine = Engine::new(EngineConfig::default());
        let handle = engine
            .submit(
                SolveRequest::new(Arc::clone(&a), RhsPayload::Batch(batch.clone()))
                    .with_config(small_config()),
            )
            .unwrap();
        let outcome = handle.wait().unwrap();
        assert!(outcome.converged());
        assert_eq!(outcome.rhs_count(), 6);
        match &*outcome {
            JobOutcome::Batch(o) => assert!(o.max_residual(&a, &batch) < 1e-6),
            JobOutcome::Single(_) => panic!("expected a batch outcome"),
        }
        assert_eq!(engine.report().rhs_served, 6);
    }

    #[test]
    fn repeated_matrices_share_one_factorization() {
        // N submitters x M matrices flowing through the queue concurrently:
        // the cache's single flight must keep factorizations == M.
        const M: usize = 3;
        const JOBS_PER_MATRIX: usize = 8;
        let mats: Vec<Arc<CsrMatrix>> = (0..M as u64).map(|s| matrix(200, s)).collect();
        let engine = Engine::new(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        });
        let handles: Vec<_> = (0..JOBS_PER_MATRIX)
            .flat_map(|j| {
                mats.iter().map(move |a| {
                    let (_, b) = generators::rhs_for_solution(a, move |i| ((i + j) % 7) as f64);
                    SolveRequest::new(Arc::clone(a), RhsPayload::Single(b))
                        .with_config(small_config())
                })
            })
            .map(|req| engine.submit(req).unwrap())
            .collect();
        for h in &handles {
            assert!(h.wait().unwrap().converged());
        }
        let report = engine.report();
        assert_eq!(report.jobs_completed, (M * JOBS_PER_MATRIX) as u64);
        assert_eq!(
            report.factorizations, M as u64,
            "every distinct matrix must factorize exactly once; report: {report}"
        );
        assert_eq!(
            report.cache_hits + report.cache_misses,
            report.jobs_completed
        );
        assert!(report.cache_hit_rate() > 0.5);
    }

    #[test]
    fn invalid_requests_are_rejected_at_submission() {
        let engine = Engine::new(EngineConfig::default());
        let a = matrix(50, 1);
        // RHS length mismatch.
        let bad_rhs = SolveRequest::new(Arc::clone(&a), RhsPayload::Single(vec![0.0; 49]));
        assert!(matches!(
            engine.submit(bad_rhs),
            Err(EngineError::InvalidRequest(_))
        ));
        // More parts than rows.
        let too_many_parts = SolveRequest::new(Arc::clone(&a), RhsPayload::Single(vec![0.0; 50]))
            .with_config(MultisplittingConfig {
                parts: 51,
                ..Default::default()
            });
        assert!(matches!(
            engine.submit(too_many_parts),
            Err(EngineError::InvalidRequest(_))
        ));
        assert_eq!(engine.report().jobs_submitted, 0);
    }

    #[test]
    fn singular_blocks_fail_the_job_not_the_engine() {
        // A zero row makes a diagonal block singular.
        let mut builder = msplit_sparse::TripletBuilder::square(12);
        for i in 0..12usize {
            if i != 3 {
                builder.push(i, i, 4.0).unwrap();
            }
        }
        let a = Arc::new(builder.build_csr());
        let engine = Engine::new(EngineConfig::default());
        let handle = engine
            .submit(
                SolveRequest::new(Arc::clone(&a), RhsPayload::Single(vec![1.0; 12]))
                    .with_config(small_config()),
            )
            .unwrap();
        assert!(matches!(handle.wait(), Err(EngineError::Solver(_))));
        assert_eq!(engine.report().jobs_failed, 1);
        // The engine still serves good jobs afterwards.
        let good = matrix(40, 2);
        let (_, b) = generators::rhs_for_solution(&good, |i| i as f64);
        let ok = engine
            .submit(SolveRequest::new(good, RhsPayload::Single(b)).with_config(small_config()))
            .unwrap();
        assert!(ok.wait().unwrap().converged());
    }

    /// Submits a job big enough to keep the single worker busy for a while.
    fn occupy_worker(engine: &Engine) -> crate::JobHandle {
        let a = matrix(1500, 99);
        let batch: Vec<Vec<f64>> = (0..4u64)
            .map(|s| generators::rhs_for_solution(&a, move |i| ((i as u64 + s) % 9) as f64).1)
            .collect();
        engine
            .submit(SolveRequest::new(a, RhsPayload::Batch(batch)).with_config(
                MultisplittingConfig {
                    parts: 4,
                    ..Default::default()
                },
            ))
            .unwrap()
    }

    #[test]
    fn queued_jobs_can_be_cancelled() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let busy = occupy_worker(&engine);
        let a = matrix(60, 5);
        let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let victim = engine
            .submit(SolveRequest::new(a, RhsPayload::Single(b)).with_config(small_config()))
            .unwrap();
        victim.cancel();
        assert!(matches!(victim.wait(), Err(EngineError::Cancelled)));
        assert!(victim.is_finished());
        // Cancelling again (or after finish) is a no-op.
        victim.cancel();
        assert!(busy.wait().unwrap().converged());
    }

    #[test]
    fn queue_deadline_times_jobs_out() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let busy = occupy_worker(&engine);
        let a = matrix(60, 6);
        let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let doomed = engine
            .submit(
                SolveRequest::new(a, RhsPayload::Single(b))
                    .with_config(small_config())
                    .with_timeout(Duration::ZERO),
            )
            .unwrap();
        assert!(matches!(doomed.wait(), Err(EngineError::TimedOut)));
        assert!(busy.wait().unwrap().converged());
        assert_eq!(engine.report().jobs_timed_out, 1);
    }

    #[test]
    fn try_submit_applies_backpressure() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 2,
        });
        let busy = occupy_worker(&engine);
        // One slot: first try_submit may land, the next must be rejected.
        let mut saw_full = false;
        for seed in 0..2u64 {
            let a = matrix(40, seed);
            let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
            let req = SolveRequest::new(a, RhsPayload::Single(b))
                .with_config(small_config())
                .with_priority(Priority::Low);
            if matches!(engine.try_submit(req), Err(EngineError::QueueFull)) {
                saw_full = true;
            }
        }
        assert!(saw_full, "bounded queue never reported QueueFull");
        assert!(busy.wait().unwrap().converged());
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let handles: Vec<_> = (0..6u64)
            .map(|s| {
                let a = matrix(80, s);
                let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
                engine
                    .submit(SolveRequest::new(a, RhsPayload::Single(b)).with_config(small_config()))
                    .unwrap()
            })
            .collect();
        engine.shutdown();
        for h in handles {
            assert!(h.wait().unwrap().converged());
        }
    }
}
