//! LRU cache of prepared systems with single-flight factorization.

use crate::key::MatrixKey;
use crate::EngineError;
use msplit_core::PreparedSystem;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

enum Entry {
    /// A fully prepared system, ready to serve solves.
    Ready {
        prepared: Arc<PreparedSystem>,
        last_used: u64,
    },
    /// Some thread is preparing this key right now; everyone else waits on
    /// the cache condvar instead of factorizing the same matrix again.
    InFlight,
}

struct State {
    entries: HashMap<MatrixKey, Entry>,
    /// Monotonic use counter driving the LRU policy.
    tick: u64,
}

/// Snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a ready entry.
    pub hits: u64,
    /// Requests that had to prepare (or wait for an in-flight preparation
    /// they then re-checked).
    pub misses: u64,
    /// Ready entries discarded by the LRU policy.
    pub evictions: u64,
    /// Successful factorizations performed — with single-flight this equals
    /// the number of *distinct* (matrix, config) keys prepared, no matter how
    /// many threads raced on them.
    pub factorizations: u64,
    /// Requests that blocked behind another caller's in-flight preparation
    /// of the same key (the single-flight wait path).
    pub single_flight_waits: u64,
    /// Total microseconds requests spent blocked behind in-flight
    /// preparations.  Together with `single_flight_waits` this makes
    /// factorization contention on a shard observable: a hot shard serving
    /// many cold keys shows long waits, a warm one shows none.
    pub single_flight_wait_micros: u64,
}

/// An LRU of [`PreparedSystem`]s keyed by [`MatrixKey`], with single-flight
/// deduplication: when `n` threads concurrently request the same key, exactly
/// one runs the factorization while the others block until it is ready.
///
/// The cached unit is the *whole* prepared state of the multisplitting
/// decomposition — partition, per-block `Factorization`s and send-target
/// maps — so a hit skips everything the paper counts as "factorization
/// time" and goes straight to outer iterations.
pub struct FactorizationCache {
    capacity: usize,
    state: Mutex<State>,
    flight_done: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    factorizations: AtomicU64,
    factorize_micros: AtomicU64,
    single_flight_waits: AtomicU64,
    single_flight_wait_micros: AtomicU64,
}

impl FactorizationCache {
    /// Creates a cache holding at most `capacity` ready systems.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        FactorizationCache {
            capacity,
            state: Mutex::new(State {
                entries: HashMap::new(),
                tick: 0,
            }),
            flight_done: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            factorizations: AtomicU64::new(0),
            factorize_micros: AtomicU64::new(0),
            single_flight_waits: AtomicU64::new(0),
            single_flight_wait_micros: AtomicU64::new(0),
        }
    }

    /// Maximum number of ready systems kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ready systems currently cached (in-flight preparations not
    /// counted).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .values()
            .filter(|e| matches!(e, Entry::Ready { .. }))
            .count()
    }

    /// Whether no ready system is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            factorizations: self.factorizations.load(Ordering::Relaxed),
            single_flight_waits: self.single_flight_waits.load(Ordering::Relaxed),
            single_flight_wait_micros: self.single_flight_wait_micros.load(Ordering::Relaxed),
        }
    }

    /// Total seconds spent inside `prepare` closures (factorize time).
    pub fn factorize_seconds(&self) -> f64 {
        self.factorize_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Returns the prepared system for `key`, preparing it with `prepare` on
    /// a miss.  Concurrent calls with the same key are single-flighted: one
    /// caller runs `prepare`, the rest block and share the result.  If the
    /// preparation fails, the error is returned to the preparing caller and
    /// one of the waiters retries.
    pub fn get_or_prepare<F>(
        &self,
        key: MatrixKey,
        prepare: F,
    ) -> Result<Arc<PreparedSystem>, EngineError>
    where
        F: FnOnce() -> Result<PreparedSystem, EngineError>,
    {
        // Claim the key or wait for whoever holds it.
        enum Action {
            Hit(Arc<PreparedSystem>),
            Wait,
            Claimed,
        }
        {
            let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            // Set once the request first blocks behind an in-flight
            // preparation; the total blocked time is recorded when the
            // request resolves (hit or claim).
            let mut wait_started: Option<Instant> = None;
            let record_wait = |started: Option<Instant>| {
                if let Some(at) = started {
                    self.single_flight_wait_micros
                        .fetch_add(at.elapsed().as_micros() as u64, Ordering::Relaxed);
                }
            };
            loop {
                let action = {
                    let State { entries, tick } = &mut *guard;
                    match entries.get_mut(&key) {
                        Some(Entry::Ready {
                            prepared,
                            last_used,
                        }) => {
                            *tick += 1;
                            *last_used = *tick;
                            Action::Hit(Arc::clone(prepared))
                        }
                        Some(Entry::InFlight) => Action::Wait,
                        None => {
                            entries.insert(key, Entry::InFlight);
                            Action::Claimed
                        }
                    }
                };
                match action {
                    Action::Hit(prepared) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        record_wait(wait_started);
                        return Ok(prepared);
                    }
                    // Re-check after the wakeup: the flight finished (ready
                    // or failed) or another waiter claimed a retry.
                    Action::Wait => {
                        if wait_started.is_none() {
                            wait_started = Some(Instant::now());
                            self.single_flight_waits.fetch_add(1, Ordering::Relaxed);
                        }
                        guard = self
                            .flight_done
                            .wait(guard)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                    Action::Claimed => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        record_wait(wait_started);
                        break;
                    }
                }
            }
        }

        // Prepare outside the lock so other keys keep flowing.  A panic in
        // `prepare` must not leave the `InFlight` claim behind (it would
        // wedge every later request for this key), so it is converted into
        // an error and handled by the failure path below.
        let started = Instant::now();
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(prepare)) {
            Ok(result) => result,
            Err(payload) => Err(EngineError::Solver(format!(
                "preparation panicked: {}",
                panic_text(&payload)
            ))),
        };
        let elapsed_micros = started.elapsed().as_micros() as u64;

        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let out = match result {
            Ok(prepared) => {
                self.factorizations.fetch_add(1, Ordering::Relaxed);
                self.factorize_micros
                    .fetch_add(elapsed_micros, Ordering::Relaxed);
                let prepared = Arc::new(prepared);
                state.tick += 1;
                let tick = state.tick;
                state.entries.insert(
                    key,
                    Entry::Ready {
                        prepared: Arc::clone(&prepared),
                        last_used: tick,
                    },
                );
                self.evict_over_capacity(&mut state, key);
                Ok(prepared)
            }
            Err(e) => {
                // Failed: drop the claim so a waiter can retry (and observe
                // its own error if the matrix really is singular).
                state.entries.remove(&key);
                Err(e)
            }
        };
        drop(state);
        self.flight_done.notify_all();
        out
    }

    /// Evicts least-recently-used ready entries until at most `capacity`
    /// remain.  The entry just inserted (`keep`) is never evicted, and
    /// in-flight claims are never touched.
    fn evict_over_capacity(&self, state: &mut State, keep: MatrixKey) {
        loop {
            let ready_count = state
                .entries
                .values()
                .filter(|e| matches!(e, Entry::Ready { .. }))
                .count();
            if ready_count <= self.capacity {
                return;
            }
            let victim = state
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { last_used, .. } if *k != keep => Some((*k, *last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, used)| used)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    state.entries.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }
}

/// Best-effort rendering of a panic payload.
pub(crate) fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

impl std::fmt::Debug for FactorizationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorizationCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_core::solver::MultisplittingConfig;
    use msplit_sparse::{generators, CsrMatrix};

    fn prepare_for(a: &CsrMatrix, parts: usize) -> Result<PreparedSystem, EngineError> {
        let config = MultisplittingConfig {
            parts,
            ..Default::default()
        };
        PreparedSystem::prepare(config, a).map_err(|e| EngineError::Solver(e.to_string()))
    }

    #[test]
    fn hit_and_miss_counting() {
        let a = generators::tridiagonal(60, 4.0, -1.0);
        let cfg = MultisplittingConfig {
            parts: 2,
            ..Default::default()
        };
        let key = MatrixKey::new(&a, &cfg);
        let cache = FactorizationCache::new(4);
        let first = cache.get_or_prepare(key, || prepare_for(&a, 2)).unwrap();
        let second = cache.get_or_prepare(key, || prepare_for(&a, 2)).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.factorizations, 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.factorize_seconds() >= 0.0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cfg = MultisplittingConfig {
            parts: 2,
            ..Default::default()
        };
        let mats: Vec<CsrMatrix> = (0..3)
            .map(|k| generators::tridiagonal(40 + k, 4.0, -1.0))
            .collect();
        let keys: Vec<MatrixKey> = mats.iter().map(|a| MatrixKey::new(a, &cfg)).collect();
        let cache = FactorizationCache::new(2);
        cache
            .get_or_prepare(keys[0], || prepare_for(&mats[0], 2))
            .unwrap();
        cache
            .get_or_prepare(keys[1], || prepare_for(&mats[1], 2))
            .unwrap();
        // Touch key 0 so key 1 becomes the LRU victim.
        cache
            .get_or_prepare(keys[0], || panic!("must be a hit"))
            .unwrap();
        cache
            .get_or_prepare(keys[2], || prepare_for(&mats[2], 2))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Key 0 must still be cached (hit), key 1 must have been evicted.
        cache
            .get_or_prepare(keys[0], || panic!("key 0 was evicted"))
            .unwrap();
        let refetched = cache.get_or_prepare(keys[1], || prepare_for(&mats[1], 2));
        assert!(refetched.is_ok());
        assert_eq!(cache.stats().factorizations, 4);
    }

    #[test]
    fn failed_preparation_leaves_no_entry() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let cfg = MultisplittingConfig::default();
        let key = MatrixKey::new(&a, &cfg);
        let cache = FactorizationCache::new(2);
        let err = cache.get_or_prepare(key, || {
            Err::<PreparedSystem, _>(EngineError::Solver("boom".to_string()))
        });
        assert!(err.is_err());
        assert_eq!(cache.len(), 0);
        // The key can be prepared again afterwards.
        cache.get_or_prepare(key, || prepare_for(&a, 2)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_preparation_clears_the_claim() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let cfg = MultisplittingConfig::default();
        let key = MatrixKey::new(&a, &cfg);
        let cache = FactorizationCache::new(2);
        let result = cache.get_or_prepare(key, || panic!("pathological request"));
        match result {
            Err(EngineError::Solver(msg)) => assert!(msg.contains("panicked")),
            other => panic!("expected a Solver error, got {other:?}"),
        }
        // The in-flight claim must be gone: a retry prepares normally
        // instead of waiting forever.
        cache.get_or_prepare(key, || prepare_for(&a, 2)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn single_flight_under_contention() {
        // N threads x M matrices, every thread requesting every matrix:
        // exactly one factorization per distinct matrix must happen.
        const THREADS: usize = 8;
        const MATRICES: usize = 4;
        let cfg = MultisplittingConfig {
            parts: 2,
            ..Default::default()
        };
        let mats: Vec<Arc<CsrMatrix>> = (0..MATRICES)
            .map(|k| Arc::new(generators::tridiagonal(300 + k, 4.0, -1.0)))
            .collect();
        let keys: Vec<MatrixKey> = mats.iter().map(|a| MatrixKey::new(a, &cfg)).collect();
        let cache = Arc::new(FactorizationCache::new(MATRICES));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = Arc::clone(&cache);
                let mats = mats.clone();
                let keys = keys.clone();
                scope.spawn(move || {
                    for m in 0..MATRICES {
                        // Stagger the access order per thread to mix races.
                        let m = (m + t) % MATRICES;
                        let prepared = cache
                            .get_or_prepare(keys[m], || prepare_for(&mats[m], 2))
                            .unwrap();
                        assert_eq!(prepared.order(), 300 + m);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.factorizations, MATRICES as u64,
            "single-flight must factorize each distinct matrix exactly once"
        );
        assert_eq!(stats.hits + stats.misses, (THREADS * MATRICES) as u64);
        assert_eq!(cache.len(), MATRICES);
    }
}
