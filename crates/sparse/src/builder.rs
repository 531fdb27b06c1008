//! Incremental triplet builder.
//!
//! Generators and finite-difference assembly loops want to push entries
//! without worrying about ordering or duplicates.  `TripletBuilder` wraps a
//! [`CooMatrix`]: duplicate `(row, col)` entries are summed
//! (finite-element style), and whole rows and mirrored pairs can be pushed
//! at once.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::SparseError;

/// Incremental sparse matrix builder.
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for a matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates a square builder of order `n`.
    pub fn square(n: usize) -> Self {
        Self::new(n, n)
    }

    /// Number of entries pushed so far (before duplicate resolution).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes a single entry.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Pushes an entry and its mirror `(col, row)`, building a structurally
    /// symmetric matrix (values are mirrored as-is).
    pub fn push_symmetric(
        &mut self,
        row: usize,
        col: usize,
        value: f64,
    ) -> Result<(), SparseError> {
        self.push(row, col, value)?;
        if row != col {
            self.push(col, row, value)?;
        }
        Ok(())
    }

    /// Pushes a whole row given `(col, value)` pairs.
    pub fn push_row(
        &mut self,
        row: usize,
        entries: impl IntoIterator<Item = (usize, f64)>,
    ) -> Result<(), SparseError> {
        for (col, value) in entries {
            self.push(row, col, value)?;
        }
        Ok(())
    }

    /// Finalizes the builder into a COO matrix; duplicates stay separate
    /// entries until [`CooMatrix::to_csr`] sums them.
    pub fn build_coo(self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.entries.len());
        for (r, c, v) in self.entries {
            coo.push(r, c, v).expect("validated on push");
        }
        coo
    }

    /// Finalizes the builder into a CSR matrix.
    pub fn build_csr(self) -> CsrMatrix {
        self.build_coo().to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_policy_accumulates() {
        let mut b = TripletBuilder::square(2);
        b.push(0, 0, 1.0).unwrap();
        b.push(0, 0, 2.0).unwrap();
        b.push(1, 1, 5.0).unwrap();
        let m = b.build_csr();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 5.0);
    }

    #[test]
    fn push_row_and_symmetric() {
        let mut b = TripletBuilder::square(3);
        b.push_row(0, [(0, 2.0), (1, -1.0)]).unwrap();
        b.push_symmetric(1, 2, -0.5).unwrap();
        let m = b.build_csr();
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(1, 2), -0.5);
        assert_eq!(m.get(2, 1), -0.5);
    }

    #[test]
    fn bounds_checked() {
        let mut b = TripletBuilder::new(2, 2);
        assert!(b.push(5, 0, 1.0).is_err());
        assert!(b.is_empty());
        b.push(0, 0, 1.0).unwrap();
        assert_eq!(b.len(), 1);
    }
}
