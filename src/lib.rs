//! Multisplitting-direct linear solvers for grid environments.
//!
//! This facade crate re-exports the full stack of the reproduction of
//! *"Parallelization of direct algorithms using multisplitting methods in
//! grid environments"* (Bahi & Couturier, IPPS 2005):
//!
//! * [`dense`] / [`sparse`] — linear-algebra substrates (dense/band LU,
//!   CSR/CSC formats, generators, orderings, structural analysis),
//! * [`direct`] — the sparse Gilbert–Peierls LU solver (SuperLU stand-in)
//!   behind the [`direct::DirectSolver`] abstraction,
//! * [`grid`] — the cluster/network models of the paper's three testbeds and
//!   the cost model used to replay executions on them,
//! * [`comm`] — the communication layer: in-process channels and a TCP
//!   full-mesh transport behind one `Transport` trait, the binary wire
//!   codec, and synchronous/asynchronous convergence detection,
//! * [`core`] — the multisplitting-direct solver itself (decomposition,
//!   weighting schemes, synchronous/asynchronous drivers, theory, baselines,
//!   experiment runners),
//! * [`engine`] — the persistent solve service: factorization caching with
//!   single-flight deduplication, and a prioritized job queue with
//!   backpressure over prepared systems,
//! * [`serve`] — the engine on the network: a sharded solve fleet with
//!   admission control, one engine job per request (so every answer is
//!   bitwise its solo solve) and a consistent-hash routing client.
//!
//! # Quickstart
//!
//! ```
//! use multisplitting::prelude::*;
//! use multisplitting::sparse::generators;
//!
//! // A strictly diagonally dominant system (Proposition 1 guarantees
//! // convergence of the multisplitting iteration).
//! let a = generators::diag_dominant(&generators::DiagDominantConfig {
//!     n: 500,
//!     ..Default::default()
//! });
//! let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 10) as f64);
//!
//! let outcome = MultisplittingSolver::builder()
//!     .parts(4)
//!     .solver_kind(SolverKind::SparseLu)
//!     .tolerance(1e-8)
//!     .build()
//!     .solve(&a, &b)
//!     .expect("the system satisfies the convergence hypotheses");
//!
//! assert!(outcome.stop.converged());
//! let err = outcome
//!     .x
//!     .iter()
//!     .zip(&x_true)
//!     .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
//! assert!(err < 1e-6);
//! ```

pub use msplit_comm as comm;
pub use msplit_core as core;
pub use msplit_dense as dense;
pub use msplit_direct as direct;
pub use msplit_engine as engine;
pub use msplit_grid as grid;
pub use msplit_serve as serve;
pub use msplit_sparse as sparse;

/// One-stop imports for typical usage.
pub mod prelude {
    pub use msplit_core::baseline::{DistributedDirectBaseline, SequentialDirectBaseline};
    pub use msplit_core::experiment::{self, ExperimentConfig};
    pub use msplit_core::launcher::{DistributedOutcome, Launcher, LauncherConfig};
    pub use msplit_core::perf_model::{replay_async, replay_sync, ProblemScaling};
    pub use msplit_core::solver::{
        ExecutionMode, Method, MultisplittingConfig, MultisplittingSolver, SolveOutcome,
    };
    pub use msplit_core::stop::{Stop, StopReason};
    pub use msplit_core::theory::SplittingAnalysis;
    pub use msplit_core::weighting::WeightingScheme;
    pub use msplit_core::{Decomposition, PreparedSystem};
    pub use msplit_direct::{DirectSolver, SolverKind};
    pub use msplit_engine::{
        Engine, EngineConfig, EngineReport, JobHandle, JobOutcome, Priority, RhsPayload,
        SolveRequest,
    };
    pub use msplit_grid::cluster::{cluster1, cluster2, cluster3, Grid};
    pub use msplit_grid::perf::CostModel;
    pub use msplit_serve::{ClientOptions, ServeClient, ServeConfig, ServeSolution, SolveServer};
}
