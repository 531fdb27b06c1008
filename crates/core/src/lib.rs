//! Multisplitting-direct solvers for grid environments.
//!
//! This crate implements the paper's contribution: wrapping *direct* linear
//! solvers (sparse/band/dense LU from `msplit-direct`) in a coarse-grained
//! multisplitting outer iteration so that a network of clusters can solve
//! `Ax = b` with one communication phase per outer iteration instead of the
//! fine-grained synchronization a distributed direct solver needs.
//!
//! The main entry point is [`solver::MultisplittingSolver`]:
//!
//! ```
//! use msplit_core::prelude::*;
//! use msplit_sparse::generators;
//!
//! let a = generators::diag_dominant(&generators::DiagDominantConfig {
//!     n: 400,
//!     ..Default::default()
//! });
//! let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
//!
//! let result = MultisplittingSolver::builder()
//!     .parts(4)
//!     .tolerance(1e-8)
//!     .mode(ExecutionMode::Synchronous)
//!     .build()
//!     .solve(&a, &b)
//!     .unwrap();
//!
//! assert!(result.stop.converged());
//! let err: f64 = result
//!     .x
//!     .iter()
//!     .zip(&x_true)
//!     .fold(0.0, |m, (a, b)| m.max((a - b).abs()));
//! assert!(err < 1e-6);
//! ```
//!
//! # Architecture: engine, policies, adapters
//!
//! Every driver in the workspace is an adapter over the same runtime (see
//! [`runtime`]):
//!
//! ```text
//!                  ┌────────────────────────────────────────────────┐
//!                  │      rank loop: poll(now), never blocks        │
//!                  │  collect → step → fan_out → vote → exchange    │
//!                  │             (+ optional checkpointer)          │
//!                  └──────┬─────────────┬──────────────┬────────────┘
//!                         │             │              │
//!              ┌──────────▼───┐  ┌──────▼───────┐  ┌───▼──────────┐
//!              │  RankEngine  │  │ one concrete │  │ FailurePolicy│
//!              │ (pure state  │  │ stack a mode:│  │ HaltOnDeath /│
//!              │  machine,    │  │ vote + tree +│  │ Redistribute │
//!              │  replayable, │  │ lockstep, or │  │ (heartbeats; │
//!              │  snapshot-   │  │ vote + waves │  │ reshape on a │
//!              │  able)       │  │ + free-run   │  │ dead rank)   │
//!              └──────┬───────┘  └──────┬───────┘  └───┬──────────┘
//!                     │                 │              │
//!              ┌──────▼─────────────────▼──────────────▼───────────┐
//!              │ RankLink over a Transport (in-process or TCP)     │
//!              └───────────────────────────────────────────────────┘
//!
//!   executors of the rank loop: a blocking one — the threaded
//!             adapter behind PreparedSystem (one right-hand side in
//!             either mode) and the multi-process
//!             distributed runtime (distributed::run_rank, spawned by
//!             launcher::Launcher + the msplit-worker binary) — and the
//!             scale simulator's virtual clock
//! ```
//!
//! Because the engine is pure (its only transitions are `ingest` and
//! `step`), the lockstep iterates are bitwise identical across transports,
//! runs can be recorded and replayed ([`runtime::EventLog`]), and the
//! [`checkpoint`] module can snapshot a rank mid-solve and resume it
//! bitwise (`docs/checkpoint-format.md`, `docs/fault-tolerance.md`).
//!
//! Modules:
//!
//! * [`decomposition`] — the band decomposition of the system (Figure 1),
//!   including overlap and heterogeneity-aware band sizing,
//! * [`weighting`] — the weighting-matrix families `E_lk` of Section 4
//!   (block Jacobi, O'Leary–White, Schwarz variants),
//! * [`sequential`] — single-threaded reference iterations (practical form
//!   and the extended fixed-point mapping of Section 3),
//! * [`runtime`] — the unified per-rank runtime: the [`runtime::RankEngine`]
//!   state machine of Algorithm 1, one concrete vote/detection/progress
//!   stack per execution mode, the failure response
//!   ([`runtime::FailurePolicy`]) and the one poll-driven rank loop around
//!   them; every driver below is an adapter over it,
//! * [`scale`] — the in-process scale simulator ([`scale::simulate_ranks`]):
//!   hundreds of production rank loops polled cooperatively in one process
//!   under a virtual clock, with message-load accounting, for protocol
//!   tests at 256–1024 ranks (`docs/scaling.md`),
//! * [`checkpoint`] — versioned, fingerprint-pinned per-rank snapshots for
//!   checkpoint/restart and elastic reshaping,
//! * [`codec`] — the one byte codec of the solver configuration and of a
//!   matrix, and the checksummed envelope of every job-directory file,
//! * [`distributed`] / [`launcher`] — the multi-process runtime: one
//!   [`distributed::run_rank`] per worker process, orchestrated by
//!   [`launcher::Launcher`],
//! * [`krylov`] — Krylov outer iterations (preconditioned Richardson and
//!   restarted flexible GMRES) with the multisplitting sweep as the
//!   preconditioner, selected through [`solver::Method`],
//! * [`solver`] — the user-facing builder tying everything together,
//! * [`stop`] — the one stop record ([`Stop`]) every outcome embeds: why
//!   and after how many iterations a solve stopped, at which norm,
//! * [`theory`] — iteration matrices, spectral radii and the convergence
//!   predicates of Theorem 1 and Propositions 1–3,
//! * [`baseline`] — the distributed-direct (SuperLU_DIST stand-in) and
//!   sequential-direct baselines used for comparison,
//! * [`perf_model`] — replay of solver executions on the modelled clusters,
//! * [`experiment`] — the experiment descriptors that regenerate each table
//!   and figure of the paper.

#![warn(missing_docs)]

pub mod baseline;
pub mod checkpoint;
pub mod codec;
pub mod decomposition;
pub mod distributed;
pub(crate) mod driver_common;
pub mod experiment;
pub mod krylov;
pub mod launcher;
pub mod perf_model;
pub mod prepared;
pub mod runtime;
pub mod scale;
pub mod sequential;
pub mod solver;
pub mod stop;
pub mod theory;
pub mod weighting;

pub use checkpoint::{CheckpointError, Checkpointer, RankCheckpoint};
pub use decomposition::Decomposition;
pub use distributed::{run_rank, CheckpointConfig, RankOptions, RankOutcome};
pub use krylov::{
    FgmresWorkspace, KrylovWorkspace, Preconditioner, SweepBuffers, SweepPreconditioner,
};
pub use launcher::{DistributedOutcome, ElasticOutcome, Launcher, LauncherConfig};
pub use prepared::PreparedSystem;
pub use runtime::{
    EngineEvent, EventLog, FailurePolicy, IterationWorkspace, RankEngine, SolvePathStats,
};
pub use solver::{
    ExecutionMode, Method, MultisplittingConfig, MultisplittingSolver, SolveOutcome, SolverBuilder,
};
pub use stop::{Stop, StopReason};
pub use weighting::WeightingScheme;

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::baseline::{DistributedDirectBaseline, SequentialDirectBaseline};
    pub use crate::decomposition::Decomposition;
    pub use crate::prepared::PreparedSystem;
    pub use crate::solver::{ExecutionMode, Method, MultisplittingSolver, SolveOutcome};
    pub use crate::stop::{Stop, StopReason};
    pub use crate::theory::SplittingAnalysis;
    pub use crate::weighting::WeightingScheme;
    pub use msplit_direct::SolverKind;
}

/// Errors produced by the multisplitting solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The decomposition could not be built (bad shapes, empty parts…).
    Decomposition(String),
    /// A local direct solve failed.
    Direct(msplit_direct::DirectError),
    /// A sparse-matrix operation failed.
    Sparse(msplit_sparse::SparseError),
    /// A communication primitive failed.
    Comm(msplit_comm::CommError),
    /// The grid model rejected the configuration (e.g. not enough memory).
    Grid(msplit_grid::GridError),
    /// A worker thread panicked.
    WorkerPanic(String),
    /// The distributed runtime failed (worker spawn, job shipping, a peer
    /// timing out or dying mid-solve).
    Distributed(String),
    /// A checkpoint operation failed (corrupt snapshot, version or
    /// fingerprint mismatch, I/O).
    Checkpoint(checkpoint::CheckpointError),
    /// Bytes that do not decode ([`codec`]): a truncated, corrupted or
    /// foreign-version blob or job file, or a band file that does not fit
    /// its job.
    Codec(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Decomposition(msg) => write!(f, "decomposition error: {msg}"),
            CoreError::Direct(e) => write!(f, "direct solver error: {e}"),
            CoreError::Sparse(e) => write!(f, "sparse matrix error: {e}"),
            CoreError::Comm(e) => write!(f, "communication error: {e}"),
            CoreError::Grid(e) => write!(f, "grid model error: {e}"),
            CoreError::WorkerPanic(msg) => write!(f, "worker thread panicked: {msg}"),
            CoreError::Distributed(msg) => write!(f, "distributed runtime error: {msg}"),
            CoreError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CoreError::Codec(msg) => write!(f, "decode error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<msplit_direct::DirectError> for CoreError {
    fn from(e: msplit_direct::DirectError) -> Self {
        CoreError::Direct(e)
    }
}

impl From<msplit_sparse::SparseError> for CoreError {
    fn from(e: msplit_sparse::SparseError) -> Self {
        CoreError::Sparse(e)
    }
}

impl From<msplit_comm::CommError> for CoreError {
    fn from(e: msplit_comm::CommError) -> Self {
        CoreError::Comm(e)
    }
}

impl From<msplit_grid::GridError> for CoreError {
    fn from(e: msplit_grid::GridError) -> Self {
        CoreError::Grid(e)
    }
}
