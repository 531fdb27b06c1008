//! Service metrics: counters kept by the engine and the report snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters (lock-free, updated by workers and submitters).
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub(crate) jobs_submitted: AtomicU64,
    pub(crate) jobs_completed: AtomicU64,
    pub(crate) jobs_failed: AtomicU64,
    pub(crate) jobs_cancelled: AtomicU64,
    pub(crate) jobs_timed_out: AtomicU64,
    pub(crate) rhs_served: AtomicU64,
    pub(crate) solve_micros: AtomicU64,
    pub(crate) sparse_fastpath_hits: AtomicU64,
    pub(crate) dense_fallbacks: AtomicU64,
}

impl Metrics {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the engine's service metrics, combining the
/// job counters with the factorization-cache counters.
///
/// The split between `factorize_seconds` and `solve_seconds` is the service
/// version of the paper's "factorization time" vs "execution time" columns:
/// a healthy cache drives the former toward zero while requests keep paying
/// only the latter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineReport {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs that finished with a solver outcome.
    pub jobs_completed: u64,
    /// Jobs that failed in preparation or solve.
    pub jobs_failed: u64,
    /// Jobs cancelled before running.
    pub jobs_cancelled: u64,
    /// Jobs whose queue deadline elapsed before a worker started them.
    pub jobs_timed_out: u64,
    /// Total right-hand sides served by completed jobs.
    pub rhs_served: u64,
    /// Cache hits (requests served by an already prepared system).
    pub cache_hits: u64,
    /// Cache misses (requests that claimed a preparation).
    pub cache_misses: u64,
    /// Prepared systems evicted by the LRU policy.
    pub cache_evictions: u64,
    /// Lookups that parked behind another thread's in-flight preparation.
    pub single_flight_waits: u64,
    /// Total seconds spent parked behind in-flight preparations.
    pub single_flight_wait_seconds: f64,
    /// Successful factorizations performed (with single-flight, one per
    /// distinct matrix + configuration).
    pub factorizations: u64,
    /// Prepared systems currently resident in the cache.
    pub cached_systems: usize,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Total seconds spent preparing systems (decomposition + factorization).
    pub factorize_seconds: f64,
    /// Total seconds spent in outer iterations (triangular solves + exchange).
    pub solve_seconds: f64,
    /// Outer iterations skipped because their dependency values were
    /// bitwise unchanged (no assembly, no solve, increment exactly `0.0`).
    pub sparse_fastpath_hits: u64,
    /// Outer iterations that assembled and solved the full local system.
    pub dense_fallbacks: u64,
}

impl EngineReport {
    /// Fraction of cache lookups answered without factorizing, in `[0, 1]`
    /// (zero when no lookup happened yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Completed right-hand sides per second of solve time (zero before any
    /// work was done).
    pub fn rhs_per_solve_second(&self) -> f64 {
        if self.solve_seconds <= 0.0 {
            0.0
        } else {
            self.rhs_served as f64 / self.solve_seconds
        }
    }
}

impl std::fmt::Display for EngineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: {} submitted, {} completed, {} failed, {} cancelled, {} timed out",
            self.jobs_submitted,
            self.jobs_completed,
            self.jobs_failed,
            self.jobs_cancelled,
            self.jobs_timed_out
        )?;
        writeln!(
            f,
            "cache: {:.1}% hit rate ({} hits / {} misses), {} factorizations, {} resident, {} evicted",
            100.0 * self.cache_hit_rate(),
            self.cache_hits,
            self.cache_misses,
            self.factorizations,
            self.cached_systems,
            self.cache_evictions
        )?;
        writeln!(
            f,
            "single flight: {} waits, {:.3}s parked",
            self.single_flight_waits, self.single_flight_wait_seconds
        )?;
        writeln!(
            f,
            "work: {} rhs served, queue depth {}, {:.3}s factorize vs {:.3}s solve",
            self.rhs_served, self.queue_depth, self.factorize_seconds, self.solve_seconds
        )?;
        write!(
            f,
            "solve path: {} sparse fast-path, {} dense",
            self.sparse_fastpath_hits, self.dense_fallbacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> EngineReport {
        EngineReport {
            jobs_submitted: 10,
            jobs_completed: 8,
            jobs_failed: 1,
            jobs_cancelled: 1,
            jobs_timed_out: 0,
            rhs_served: 40,
            cache_hits: 6,
            cache_misses: 2,
            cache_evictions: 1,
            single_flight_waits: 3,
            single_flight_wait_seconds: 0.25,
            factorizations: 2,
            cached_systems: 1,
            queue_depth: 0,
            factorize_seconds: 1.5,
            solve_seconds: 0.5,
            sparse_fastpath_hits: 30,
            dense_fallbacks: 10,
        }
    }

    #[test]
    fn hit_rate_and_throughput() {
        let r = report();
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((r.rhs_per_solve_second() - 80.0).abs() < 1e-12);
        let empty = EngineReport {
            cache_hits: 0,
            cache_misses: 0,
            rhs_served: 0,
            solve_seconds: 0.0,
            ..report()
        };
        assert_eq!(empty.cache_hit_rate(), 0.0);
        assert_eq!(empty.rhs_per_solve_second(), 0.0);
    }

    #[test]
    fn display_mentions_the_headline_numbers() {
        let text = report().to_string();
        assert!(text.contains("75.0% hit rate"));
        assert!(text.contains("40 rhs served"));
        assert!(text.contains("2 factorizations"));
        assert!(text.contains("30 sparse fast-path"));
    }
}
