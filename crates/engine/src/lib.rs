//! A persistent multisplitting solve service with factorization caching.
//!
//! The paper's whole premise (Section 2) is that the expensive direct
//! factorization of every diagonal block is performed **once** and then
//! reused by every outer iteration, which only pays cheap triangular solves.
//! A one-shot `solve(a, b)` API throws that asymmetry away: each call
//! re-decomposes and refactorizes.  This crate keeps the factorize-once
//! economics alive *across requests*, the way a long-running grid service
//! would amortize them over a family of systems sharing one operator:
//!
//! * [`MatrixKey`] — a structural + numerical fingerprint of the matrix
//!   (via [`msplit_sparse::CsrMatrix::fingerprint`]) combined with a digest
//!   of the solve configuration, identifying a prepared system exactly;
//! * [`FactorizationCache`] — an LRU of fully prepared systems
//!   ([`msplit_core::PreparedSystem`]: partition + per-block factorizations +
//!   send-target maps) with **single-flight** deduplication, so concurrent
//!   requests for the same matrix factorize exactly once;
//! * [`Engine`] — a bounded job queue plus a worker pool:
//!   [`Engine::submit`] enqueues a [`SolveRequest`] (with priority,
//!   cancellation and per-job timeout) and returns a [`JobHandle`] to await;
//!   workers dispatch onto the existing synchronous/asynchronous drivers;
//! * one right-hand side per job — a batch of k right-hand sides is k
//!   requests, which run side by side on every worker and share one
//!   prepared system through the cache, each answer bitwise its solo
//!   solve;
//! * [`EngineReport`] — service metrics: cache hit rate, queue depth,
//!   factorize-vs-solve seconds, jobs and right-hand sides served.
//!
//! # Quickstart
//!
//! ```
//! use msplit_engine::{Engine, EngineConfig, RhsPayload, SolveRequest};
//! use msplit_sparse::generators;
//! use std::sync::Arc;
//!
//! let a = Arc::new(generators::diag_dominant(&generators::DiagDominantConfig {
//!     n: 200,
//!     ..Default::default()
//! }));
//! let (_, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
//!
//! let engine = Engine::new(EngineConfig::default());
//! let job = engine
//!     .submit(SolveRequest::new(Arc::clone(&a), RhsPayload::Single(b)))
//!     .unwrap();
//! let outcome = job.wait().unwrap();
//! assert!(outcome.converged());
//!
//! // A second request for the same matrix is a cache hit: no factorization.
//! let (_, b2) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
//! engine
//!     .submit(SolveRequest::new(Arc::clone(&a), RhsPayload::Single(b2)))
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//! let report = engine.report();
//! assert_eq!(report.factorizations, 1);
//! assert_eq!(report.cache_hits, 1);
//! ```
//!
//! # Place in the runtime architecture
//!
//! In the engine/policy/adapter architecture documented at the top of
//! [`msplit_core`] (see the diagram in `crates/core/src/lib.rs`), this crate
//! sits *above* the adapters: it owns prepared systems and dispatches jobs
//! onto the threaded drivers ([`msplit_core::runtime`]), amortizing the
//! factorize-once cost across requests the same way the elastic launcher
//! amortizes it across reshapes.

pub mod cache;
pub mod engine;
pub mod job;
pub mod key;
pub mod metrics;
pub(crate) mod queue;

pub use cache::{CacheStats, FactorizationCache};
pub use engine::{Engine, EngineConfig};
pub use job::{JobHandle, JobOutcome, Priority, RhsPayload, SolveRequest};
pub use key::MatrixKey;
pub use metrics::EngineReport;

/// Errors produced by the solve service.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The bounded job queue is full, or under [`Engine::try_submit_within`]
    /// the request's lane is at its limit (returned by [`Engine::try_submit`]).
    QueueFull,
    /// The engine is shutting down and no longer accepts or runs jobs.
    ShuttingDown,
    /// The request failed validation before being enqueued.
    InvalidRequest(String),
    /// The underlying preparation or solve failed.
    Solver(String),
    /// The job was cancelled via [`JobHandle::cancel`] before it ran.
    Cancelled,
    /// The job's deadline elapsed before a worker could start it.
    TimedOut,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::QueueFull => write!(f, "job queue is full"),
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            EngineError::Solver(msg) => write!(f, "solver error: {msg}"),
            EngineError::Cancelled => write!(f, "job was cancelled"),
            EngineError::TimedOut => write!(f, "job timed out in the queue"),
        }
    }
}

impl std::error::Error for EngineError {}
