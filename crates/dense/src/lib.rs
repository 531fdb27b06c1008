//! Dense and banded linear algebra kernels used by the multisplitting-direct
//! solver stack.
//!
//! The multisplitting method of Bahi & Couturier wraps a *direct* solver: each
//! processor repeatedly solves `ASub * XSub = BLoc` for its own diagonal
//! block.  The solver is whichever `SolverKind` the configuration names: the
//! sparse LU of `msplit-direct` by default, or the dense or band LU of this
//! crate when selected.  Nothing switches to them automatically.  The dense
//! LU also serves as the reference that the sparse solver is validated
//! against.
//!
//! The crate provides:
//!
//! * [`DenseMatrix`] — a row-major dense matrix with BLAS-like operations
//!   (`gemv`, `gemm`, transpose, slicing),
//! * [`lu::DenseLu`] — LU factorization with partial pivoting,
//! * [`band::BandMatrix`] / [`band::BandLu`] — banded storage and band LU,
//! * [`norms`] — vector and matrix norms plus residual helpers.
//!
//! All kernels operate on `f64`.  They are written for clarity first, with
//! cache-friendly loop orders, and run in the calling thread: the parallelism
//! of the stack is one level up, over the bands (`msplit-core`).
//!
//! # Place in the runtime architecture
//!
//! In the engine/policy/adapter architecture documented at the top of
//! `msplit-core` (`crates/core/src/lib.rs`), these kernels sit inside the
//! per-rank step: when selected, the `RankEngine` pays one [`lu::DenseLu`] or
//! [`band::BandLu`] factorization per band at preparation time, then the two
//! triangular sweeps of its `solve_into` per outer iteration — the
//! factorize-once economics the paper is built on.

pub mod band;
pub mod lu;
pub mod matrix;
pub mod norms;

pub use band::{BandLu, BandMatrix};
pub use lu::{DenseLu, LuError};
pub use matrix::DenseMatrix;
pub use norms::{inf_norm, one_norm, residual_inf_norm, two_norm};

/// Error type shared by dense factorizations and solves.
#[derive(Debug, Clone, PartialEq)]
pub enum DenseError {
    /// The matrix is not square but the operation requires a square matrix.
    NotSquare { rows: usize, cols: usize },
    /// Dimension mismatch between operands.
    DimensionMismatch { expected: usize, found: usize },
    /// A zero (or numerically negligible) pivot was encountered.
    SingularPivot { column: usize, value: f64 },
}

impl std::fmt::Display for DenseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DenseError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            DenseError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            DenseError::SingularPivot { column, value } => {
                write!(f, "singular pivot {value:e} at column {column}")
            }
        }
    }
}

impl std::error::Error for DenseError {}
