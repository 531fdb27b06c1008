//! Sparse direct LU solver — the stack's stand-in for SuperLU.
//!
//! The paper builds its multisplitting-direct solvers on top of the
//! *sequential* SuperLU 3.0 library: each processor factorizes its diagonal
//! block once (LU with partial pivoting) and then performs two triangular
//! solves per outer iteration.  This crate reimplements that role from
//! scratch:
//!
//! * [`gplu::SparseLu`] — left-looking Gilbert–Peierls LU with partial
//!   pivoting and an optional fill-reducing column ordering; its symbolic
//!   reach is symmetrically pruned ([`symbolic`]),
//! * [`api::DirectSolver`] / [`api::Factorization`] — the abstract interface
//!   the multisplitting drivers use, with sparse, dense and banded
//!   implementations (the paper: "any sequential direct solver whether it is
//!   dense, band or sparse"),
//! * [`solve`] — sparse triangular solves and iterative refinement,
//! * [`stats`] — fill-in, flop and memory accounting.  The memory estimates
//!   drive the grid model's "not enough memory" verdicts (Table 3 of the
//!   paper) and the factorization-time columns of Tables 1–3.
//!
//! # Place in the runtime architecture
//!
//! In the engine/policy/adapter architecture documented at the top of
//! `msplit-core` (`crates/core/src/lib.rs`), a boxed
//! [`api::Factorization`] is the compute half of each `RankEngine` step:
//! factorized once at preparation time (and once more after a resume or an
//! elastic reshape — snapshots deliberately exclude LU factors, see
//! `docs/checkpoint-format.md`), then reused for two triangular solves per
//! outer iteration.

pub mod api;
pub mod gplu;
pub mod reach;
pub mod solve;
pub mod stats;
pub mod symbolic;

pub use api::{
    BandLuSolver, DenseLuSolver, DirectSolver, Factorization, SolverKind, SparseLuSolver,
};
pub use gplu::{DeltaCache, DeltaOutcome, SolveScratch, SparseLu, SparseLuConfig};
pub use reach::{SolveReach, SparseRhs, SparseSolveReport};
pub use stats::FactorStats;

/// Errors produced by the direct solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectError {
    /// The matrix is structurally or numerically singular.
    Singular { column: usize },
    /// The matrix must be square.
    NotSquare { rows: usize, cols: usize },
    /// The matrix holds a NaN or an infinite entry at `(row, col)`.
    NonFinite { row: usize, col: usize },
    /// Right-hand side or matrix dimension mismatch.
    DimensionMismatch { expected: usize, found: usize },
    /// The requested solver cannot handle the matrix (e.g. band solver on a
    /// matrix whose bandwidth exceeds the configured limit).
    Unsupported(String),
}

impl std::fmt::Display for DirectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectError::Singular { column } => {
                write!(f, "matrix is singular at column {column}")
            }
            DirectError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            DirectError::NonFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not finite")
            }
            DirectError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            DirectError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for DirectError {}

impl From<msplit_dense::DenseError> for DirectError {
    fn from(e: msplit_dense::DenseError) -> Self {
        match e {
            msplit_dense::DenseError::NotSquare { rows, cols } => {
                DirectError::NotSquare { rows, cols }
            }
            msplit_dense::DenseError::DimensionMismatch { expected, found } => {
                DirectError::DimensionMismatch { expected, found }
            }
            msplit_dense::DenseError::SingularPivot { column, .. } => {
                DirectError::Singular { column }
            }
        }
    }
}
