//! Compressed sparse column (CSC) matrix.
//!
//! The Gilbert–Peierls sparse LU factorization in `msplit-direct` is
//! column-oriented (it processes one column of `A` at a time and performs
//! sparse triangular solves against the partially built `L`), so it consumes
//! CSC.  The format mirrors [`crate::csr::CsrMatrix`] with rows and columns
//! exchanged.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::SparseError;
use msplit_dense::DenseMatrix;

/// A sparse matrix in compressed sparse column format.
///
/// Invariants: `col_ptr.len() == cols + 1`, row indices strictly increasing
/// within each column, no explicit zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_indices: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Creates an all-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CscMatrix {
            rows,
            cols,
            col_ptr: vec![0; cols + 1],
            row_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            rows: n,
            cols: n,
            col_ptr: (0..=n).collect(),
            row_indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds from raw arrays, validating invariants.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if col_ptr.len() != cols + 1 {
            return Err(SparseError::Structure(format!(
                "col_ptr length {} != cols+1 ({})",
                col_ptr.len(),
                cols + 1
            )));
        }
        if col_ptr[0] != 0 || *col_ptr.last().unwrap() != row_indices.len() {
            return Err(SparseError::Structure(
                "col_ptr must start at 0 and end at nnz".to_string(),
            ));
        }
        if row_indices.len() != values.len() {
            return Err(SparseError::Structure(
                "row_indices and values lengths differ".to_string(),
            ));
        }
        for c in 0..cols {
            if col_ptr[c] > col_ptr[c + 1] {
                return Err(SparseError::Structure(format!(
                    "col_ptr not monotone at column {c}"
                )));
            }
            let mut prev: Option<usize> = None;
            for &r in &row_indices[col_ptr[c]..col_ptr[c + 1]] {
                if r >= rows {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        rows,
                        cols,
                    });
                }
                if let Some(p) = prev {
                    if r <= p {
                        return Err(SparseError::Structure(format!(
                            "row indices not strictly increasing in column {c}"
                        )));
                    }
                }
                prev = Some(r);
            }
        }
        Ok(CscMatrix {
            rows,
            cols,
            col_ptr,
            row_indices,
            values,
        })
    }

    /// Internal constructor used by [`CsrMatrix::to_csc`]: the CSR arrays of
    /// the transpose are exactly the CSC arrays of the original matrix.
    pub(crate) fn from_transposed_csr(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        CscMatrix {
            rows,
            cols,
            col_ptr,
            row_indices,
            values,
        }
    }

    /// Converts a COO matrix (summing duplicates) into CSC.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        CsrMatrix::from_coo(coo).to_csc()
    }

    /// Converts a dense matrix into CSC.
    pub fn from_dense(a: &DenseMatrix) -> Self {
        CsrMatrix::from_dense(a).to_csc()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw column pointer array.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Raw row index array.
    pub fn row_indices(&self) -> &[usize] {
        &self.row_indices
    }

    /// Raw value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over the `(row, value)` pairs of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Entry lookup by binary search within the column.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        match self.row_indices[lo..hi].binary_search(&i) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix-vector product `y = A x` (column-oriented scatter).
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>, SparseError> {
        if x.len() != self.cols {
            return Err(SparseError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (i, v) in self.col(j) {
                y[i] += v * xj;
            }
        }
        Ok(y)
    }

    /// Converts to CSR format.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for j in 0..self.cols {
            for (i, v) in self.col(j) {
                coo.push(i, j, v).expect("indices valid by construction");
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for (i, v) in self.col(j) {
                d.set(i, j, v);
            }
        }
        d
    }

    /// Estimated memory footprint of the stored matrix, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> CsrMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 2, 1.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 0, 4.0).unwrap();
        coo.push(2, 2, 5.0).unwrap();
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn csr_to_csc_round_trip() {
        let csr = sample_csr();
        let csc = csr.to_csc();
        assert_eq!(csc.nnz(), csr.nnz());
        assert_eq!(csc.get(0, 2), 1.0);
        assert_eq!(csc.get(2, 0), 4.0);
        assert_eq!(csc.to_csr(), csr);
    }

    #[test]
    fn col_iteration_is_sorted() {
        let csc = sample_csr().to_csc();
        let col0: Vec<_> = csc.col(0).collect();
        assert_eq!(col0, vec![(0, 2.0), (2, 4.0)]);
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = sample_csr();
        let csc = csr.to_csc();
        let x = [1.0, -2.0, 0.5];
        assert_eq!(csc.spmv(&x).unwrap(), csr.spmv(&x).unwrap());
    }

    #[test]
    fn dense_round_trip() {
        let csc = sample_csr().to_csc();
        let d = csc.to_dense();
        let back = CscMatrix::from_dense(&d);
        assert_eq!(back, csc);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let id = CscMatrix::identity(3);
        for i in 0..3 {
            assert_eq!(id.get(i, i), 1.0);
        }
        assert_eq!(id.nnz(), 3);
    }

    #[test]
    fn from_raw_validates() {
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_raw(2, 1, vec![0, 2], vec![1, 0], vec![1.0, 2.0]).is_err());
        assert!(CscMatrix::from_raw(2, 1, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        let csc = CscMatrix::from_coo(&coo);
        assert_eq!(csc.get(1, 0), 3.0);
        assert_eq!(csc.nnz(), 1);
    }
}
