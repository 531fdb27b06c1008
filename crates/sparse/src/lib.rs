//! Sparse matrix formats, generators, orderings and structural analysis for
//! the multisplitting-direct solver stack.
//!
//! The paper solves `Ax = b` for large sparse matrices (the `cage` DNA
//! electrophoresis models from the University of Florida collection and
//! synthetically generated diagonally dominant matrices).  This crate supplies
//! everything the rest of the stack needs to describe and manipulate those
//! matrices:
//!
//! * [`CooMatrix`], [`CsrMatrix`], [`CscMatrix`] — the classical triplet,
//!   compressed-sparse-row and compressed-sparse-column formats, with
//!   conversions and arithmetic (SpMV, transpose, add, scale, sub-matrix
//!   extraction),
//! * [`generators`] — synthetic workload generators: cage-like nonsymmetric
//!   banded matrices, strictly diagonally dominant matrices, matrices with a
//!   prescribed block-Jacobi spectral radius, 2-D/3-D Poisson operators,
//! * [`ordering`] — reverse Cuthill–McKee and minimum-degree fill-reducing
//!   orderings plus permutation utilities,
//! * [`graph`] — adjacency structure helpers (BFS levels, pseudo-peripheral
//!   vertices, connected components, irreducibility test),
//! * [`properties`] — diagonal dominance, Z-matrix / M-matrix tests and the
//!   Jacobi spectral radius estimate that backs Proposition 1 of the paper,
//! * [`partition`] — the band decomposition of Figure 1 (`ASub`, `DepLeft`,
//!   `DepRight`, overlap expansion),
//! * [`io`] — MatrixMarket import/export so real collection matrices can be
//!   dropped in when available.
//!
//! # Place in the runtime architecture
//!
//! In the engine/policy/adapter architecture documented at the top of
//! `msplit-core` (`crates/core/src/lib.rs`), this crate feeds the engine
//! its inputs: [`partition`] defines the band split every rank re-derives
//! deterministically, and [`CsrMatrix::fingerprint`] is the identity that
//! pins TCP handshakes, job directories and checkpoint snapshots
//! (`docs/checkpoint-format.md`) to one exact system.

pub mod builder;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod fingerprint;
pub mod generators;
pub mod graph;
pub mod io;
pub mod ordering;
pub mod partition;
pub mod permutation;
pub mod properties;

pub use builder::TripletBuilder;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use partition::{BandPartition, LocalBlocks};
pub use permutation::Permutation;

/// Errors produced by sparse-matrix construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// An index is out of range for the matrix shape.
    IndexOutOfBounds {
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
    },
    /// Operand shapes do not match.
    ShapeMismatch {
        expected: (usize, usize),
        found: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare { rows: usize, cols: usize },
    /// Parsing a MatrixMarket file failed.
    Parse(String),
    /// I/O error wrapper for the MatrixMarket reader/writer.
    Io(String),
    /// A structural requirement (e.g. non-empty diagonal) is violated.
    Structure(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(f, "index ({row},{col}) out of bounds for {rows}x{cols}"),
            SparseError::ShapeMismatch { expected, found } => write!(
                f,
                "shape mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            SparseError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            SparseError::Parse(msg) => write!(f, "parse error: {msg}"),
            SparseError::Io(msg) => write!(f, "io error: {msg}"),
            SparseError::Structure(msg) => write!(f, "structural error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}
