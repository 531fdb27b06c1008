//! Coordinate (triplet) sparse matrix format.
//!
//! The COO format is the assembly format: generators and the MatrixMarket
//! reader produce COO, which is then converted to CSR/CSC for computation.

use crate::csr::CsrMatrix;
use crate::SparseError;

/// A sparse matrix stored as `(row, col, value)` triplets.
///
/// Duplicate entries are allowed; they are summed during conversion to
/// compressed formats, which matches the MatrixMarket convention.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_indices: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty COO matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            row_indices: Vec::new(),
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with preallocated capacity for `nnz` entries.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            row_indices: Vec::with_capacity(nnz),
            col_indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (including duplicates and explicit zeros).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Appends an entry.  Entries may repeat; they are summed on conversion.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.row_indices.push(row);
        self.col_indices.push(col);
        self.values.push(value);
        Ok(())
    }

    /// Iterates over the stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.row_indices
            .iter()
            .zip(self.col_indices.iter())
            .zip(self.values.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicate entries and dropping exact zeros
    /// that result from cancellation.
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_coo(self)
    }

    /// Transposes the matrix (cheap for COO: swap the index vectors).
    pub fn transpose(&self) -> CooMatrix {
        CooMatrix {
            rows: self.cols,
            cols: self.rows,
            row_indices: self.col_indices.clone(),
            col_indices: self.row_indices.clone(),
            values: self.values.clone(),
        }
    }

    /// Internal accessor used by the CSR conversion.
    pub(crate) fn triplets(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_indices, &self.col_indices, &self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iter() {
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 2, -2.0).unwrap();
        assert_eq!(m.nnz(), 2);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 1.0), (1, 2, -2.0)]);
    }

    #[test]
    fn push_out_of_bounds() {
        let mut m = CooMatrix::new(2, 2);
        assert!(matches!(
            m.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            m.push(0, 5, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn transpose_swaps_shape_and_indices() {
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 2, 5.0).unwrap();
        m.push(1, 0, 6.0).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries, vec![(2, 0, 5.0), (0, 1, 6.0)]);
    }

    #[test]
    fn duplicates_summed_in_csr_conversion() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.0).unwrap();
        m.push(0, 0, 2.5).unwrap();
        m.push(1, 1, 4.0).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.get(0, 0), 3.5);
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.nnz(), 2);
    }
}
