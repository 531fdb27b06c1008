//! Compressed sparse row (CSR) matrix.
//!
//! CSR is the workhorse format of the stack: the multisplitting drivers use
//! it for the dependency products `DepLeft * XLeft` / `DepRight * XRight`
//! (sparse matrix-vector products over row ranges), and the sparse direct
//! solver converts it to CSC for the column-oriented factorization.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::SparseError;
use msplit_dense::DenseMatrix;

/// A sparse matrix in compressed sparse row format.
///
/// Invariants maintained by every constructor:
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == col_indices.len() == values.len()`,
/// * within each row, column indices are strictly increasing,
/// * no explicit zero values are stored (entries that cancel are dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
}

/// Inner dot product of one CSR row against a dense vector.
///
/// Kept as a free function with `#[inline(always)]` so both SpMV variants
/// (assigning and subtracting) compile down to the same tight
/// gather-multiply-accumulate loop.
#[inline(always)]
fn sparse_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        acc += v * x[c];
    }
    acc
}

impl CsrMatrix {
    /// Creates an empty (all-zero) matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from raw parts, validating the invariants.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != rows + 1 {
            return Err(SparseError::Structure(format!(
                "row_ptr length {} != rows+1 ({})",
                row_ptr.len(),
                rows + 1
            )));
        }
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != col_indices.len() {
            return Err(SparseError::Structure(
                "row_ptr must start at 0 and end at nnz".to_string(),
            ));
        }
        if col_indices.len() != values.len() {
            return Err(SparseError::Structure(
                "col_indices and values lengths differ".to_string(),
            ));
        }
        for r in 0..rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::Structure(format!(
                    "row_ptr not monotone at row {r}"
                )));
            }
            let mut prev: Option<usize> = None;
            for &c in &col_indices[row_ptr[r]..row_ptr[r + 1]] {
                if c >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        rows,
                        cols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::Structure(format!(
                            "column indices not strictly increasing in row {r}"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_indices,
            values,
        })
    }

    /// Converts a COO matrix, summing duplicates and dropping entries that
    /// cancel to exactly zero.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let cols = coo.cols();
        let (ri, ci, vals) = coo.triplets();

        // Count entries per row (including duplicates), then bucket them.
        let mut counts = vec![0usize; rows];
        for &r in ri {
            counts[r] += 1;
        }
        let mut start = vec![0usize; rows + 1];
        for r in 0..rows {
            start[r + 1] = start[r] + counts[r];
        }
        let nnz_in = vals.len();
        let mut cols_buf = vec![0usize; nnz_in];
        let mut vals_buf = vec![0.0f64; nnz_in];
        let mut next = start.clone();
        for k in 0..nnz_in {
            let r = ri[k];
            let dst = next[r];
            cols_buf[dst] = ci[k];
            vals_buf[dst] = vals[k];
            next[r] += 1;
        }

        // Sort each row by column index and merge duplicates.
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_indices = Vec::with_capacity(nnz_in);
        let mut values = Vec::with_capacity(nnz_in);
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            scratch.extend(
                cols_buf[start[r]..start[r + 1]]
                    .iter()
                    .copied()
                    .zip(vals_buf[start[r]..start[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    sum += scratch[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    col_indices.push(c);
                    values.push(sum);
                }
            }
            row_ptr.push(col_indices.len());
        }

        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_indices,
            values,
        }
    }

    /// Builds a CSR matrix from a dense matrix, skipping zero entries.
    pub fn from_dense(a: &DenseMatrix) -> Self {
        let mut coo = CooMatrix::with_capacity(a.rows(), a.cols(), a.rows());
        for i in 0..a.rows() {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 {
                    coo.push(i, j, v).expect("indices in range by construction");
                }
            }
        }
        Self::from_coo(&coo)
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

    /// Number of stored nonzero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Returns the `(column, value)` pairs of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Entry lookup by binary search within the row (O(log row_nnz)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_indices[lo..hi].binary_search(&j) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// The diagonal of the matrix as a vector (missing entries are zero).
    ///
    /// Each row is scanned once (columns are sorted, so the scan stops at the
    /// first column `>= i`) instead of running a binary-search
    /// [`CsrMatrix::get`] per row.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        let mut d = vec![0.0; n];
        for (i, di) in d.iter_mut().enumerate() {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            for (&c, &v) in self.col_indices[lo..hi].iter().zip(&self.values[lo..hi]) {
                if c >= i {
                    if c == i {
                        *di = v;
                    }
                    break;
                }
            }
        }
        d
    }

    /// Sparse matrix-vector product `y = A x`.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>, SparseError> {
        if x.len() != self.cols {
            return Err(SparseError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y)?;
        Ok(y)
    }

    #[inline]
    fn check_spmv_shapes(&self, x: &[f64], y: &[f64]) -> Result<(), SparseError> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(SparseError::ShapeMismatch {
                expected: (self.rows, self.cols),
                found: (y.len(), x.len()),
            });
        }
        Ok(())
    }

    /// Sparse matrix-vector product into a caller-provided buffer.
    ///
    /// The kernel iterates the `row_ptr` windows directly over the raw
    /// column/value slices with the dot product inlined — no iterator
    /// adapters, no per-entry branching, no allocation.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.check_spmv_shapes(x, y)?;
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            *yi = sparse_dot(&self.col_indices[lo..hi], &self.values[lo..hi], x);
        }
        Ok(())
    }

    /// Accumulating product `y -= A x`, the kernel behind
    /// `BLoc = BSub - DepLeft * XLeft - DepRight * XRight` in Algorithm 1.
    pub fn spmv_sub_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.check_spmv_shapes(x, y)?;
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            *yi -= sparse_dot(&self.col_indices[lo..hi], &self.values[lo..hi], x);
        }
        Ok(())
    }

    /// Transpose of the matrix (also serves as CSR→CSC conversion kernel).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols];
        for &c in &self.col_indices {
            counts[c] += 1;
        }
        let mut row_ptr = vec![0usize; self.cols + 1];
        for c in 0..self.cols {
            row_ptr[c + 1] = row_ptr[c] + counts[c];
        }
        let mut col_indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let dst = next[c];
                col_indices[dst] = r;
                values[dst] = v;
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_indices,
            values,
        }
    }

    /// Converts to compressed sparse column format.
    pub fn to_csc(&self) -> CscMatrix {
        let t = self.transpose();
        // The transpose's CSR arrays are exactly the CSC arrays of the original.
        CscMatrix::from_transposed_csr(self.rows, self.cols, t.row_ptr, t.col_indices, t.values)
    }

    /// Converts to a dense matrix (intended for tests and small blocks).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                d.set(i, j, v);
            }
        }
        d
    }

    /// Elementwise sum `A + B`.
    pub fn add(&self, other: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SparseError::ShapeMismatch {
                expected: (self.rows, self.cols),
                found: (other.rows, other.cols),
            });
        }
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz() + other.nnz());
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                coo.push(i, j, v).unwrap();
            }
            for (j, v) in other.row(i) {
                coo.push(i, j, v).unwrap();
            }
        }
        Ok(CsrMatrix::from_coo(&coo))
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &CsrMatrix) -> Result<CsrMatrix, SparseError> {
        let mut neg = other.clone();
        neg.scale(-1.0);
        self.add(&neg)
    }

    /// Scales every stored value by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Returns the matrix of absolute values `|A|`.
    pub fn abs(&self) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = v.abs();
        }
        out
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`
    /// (half-open ranges).  This is the primitive behind the Figure 1
    /// decomposition: `ASub`, `DepLeft` and `DepRight` are all column slices
    /// of a band of rows.
    pub fn sub_matrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> CsrMatrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "column range out of bounds");
        let sub_rows = r1 - r0;
        let sub_cols = c1 - c0;
        let mut row_ptr = Vec::with_capacity(sub_rows + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in r0..r1 {
            for (j, v) in self.row(i) {
                if j >= c0 && j < c1 {
                    col_indices.push(j - c0);
                    values.push(v);
                }
            }
            row_ptr.push(col_indices.len());
        }
        CsrMatrix {
            rows: sub_rows,
            cols: sub_cols,
            row_ptr,
            col_indices,
            values,
        }
    }

    /// Applies a symmetric permutation `P A P^T` for a square matrix, where
    /// `perm[new] = old` (the row/column placed at position `new`).
    pub fn permute_symmetric(&self, perm: &[usize]) -> Result<CsrMatrix, SparseError> {
        if !self.is_square() {
            return Err(SparseError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if perm.len() != self.rows {
            return Err(SparseError::ShapeMismatch {
                expected: (self.rows, 1),
                found: (perm.len(), 1),
            });
        }
        // inverse permutation: old -> new
        let mut inv = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for (new_row, &old_row) in perm.iter().enumerate() {
            for (old_col, v) in self.row(old_row) {
                coo.push(new_row, inv[old_col], v).unwrap();
            }
        }
        Ok(CsrMatrix::from_coo(&coo))
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Estimated memory footprint of the stored matrix, in bytes.
    ///
    /// Used by the grid memory model to decide when a solver "does not fit"
    /// on a machine (the `nem` entries of Table 3 in the paper).
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| self.row(i).map(move |(j, v)| (i, j, v)))
    }

    /// Structural + numerical fingerprint of the matrix.
    ///
    /// A 64-bit FNV-1a hash over the shape, the row pointers, the column
    /// indices and the raw IEEE-754 bits of every stored value.  Two matrices
    /// get the same fingerprint iff they are identical CSR matrices (same
    /// sparsity pattern *and* same value bits), so the fingerprint can key a
    /// factorization cache: permuting the matrix or perturbing a single entry
    /// changes the fingerprint, and a cached factorization keyed by it is
    /// guaranteed to belong to this exact matrix.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = crate::fingerprint::Fnv64::new();
        hash.mix(self.rows as u64);
        hash.mix(self.cols as u64);
        for &p in &self.row_ptr {
            hash.mix(p as u64);
        }
        for &c in &self.col_indices {
            hash.mix(c as u64);
        }
        for &v in &self.values {
            hash.mix(v.to_bits());
        }
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
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
    fn from_coo_builds_sorted_rows() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_ptr(), &[0, 2, 3, 5]);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 2.0), (2, 1.0)]);
    }

    #[test]
    fn get_and_diagonal() {
        let m = sample();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.diagonal(), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, 2.0, 3.0];
        let ys = m.spmv(&x).unwrap();
        let yd = d.gemv(&x).unwrap();
        assert_eq!(ys, yd);
    }

    #[test]
    fn spmv_sub_into_accumulates() {
        let m = sample();
        let x = [1.0, 1.0, 1.0];
        let mut y = vec![10.0, 10.0, 10.0];
        m.spmv_sub_into(&x, &mut y).unwrap();
        assert_eq!(y, vec![10.0 - 3.0, 10.0 - 3.0, 10.0 - 9.0]);
    }

    #[test]
    fn spmv_shape_error() {
        let m = sample();
        assert!(m.spmv(&[1.0, 2.0]).is_err());
        let mut y = vec![0.0; 3];
        assert!(m.spmv_into(&[1.0, 2.0], &mut y).is_err());
    }

    #[test]
    fn diagonal_single_pass_matches_get() {
        // A matrix with rows missing their diagonal and rows whose diagonal
        // is the last stored entry.
        let mut coo = CooMatrix::new(5, 5);
        coo.push(0, 0, 1.5).unwrap();
        coo.push(1, 0, 2.0).unwrap(); // row 1 has no diagonal
        coo.push(2, 1, 3.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        coo.push(3, 4, 5.0).unwrap(); // diagonal missing, entry after it
        coo.push(4, 0, 6.0).unwrap();
        coo.push(4, 4, 7.0).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        let d = m.diagonal();
        let expected: Vec<f64> = (0..5).map(|i| m.get(i, i)).collect();
        assert_eq!(d, expected);
        assert_eq!(d, vec![1.5, 0.0, 4.0, 0.0, 7.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_sub_scale_abs() {
        let m = sample();
        let sum = m.add(&m).unwrap();
        assert_eq!(sum.get(2, 2), 10.0);
        let diff = m.sub(&m).unwrap();
        assert_eq!(diff.nnz(), 0);
        let mut s = m.clone();
        s.scale(-2.0);
        assert_eq!(s.get(0, 0), -4.0);
        assert_eq!(s.abs().get(0, 0), 4.0);
    }

    #[test]
    fn sub_matrix_extracts_block() {
        let m = sample();
        let b = m.sub_matrix(1, 3, 0, 2);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 2);
        assert_eq!(b.get(0, 1), 3.0);
        assert_eq!(b.get(1, 0), 4.0);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn permute_symmetric_reverses_order() {
        let m = sample();
        let p = vec![2usize, 1, 0];
        let pm = m.permute_symmetric(&p).unwrap();
        // new (0,0) is old (2,2)
        assert_eq!(pm.get(0, 0), 5.0);
        assert_eq!(pm.get(0, 2), 4.0);
        assert_eq!(pm.get(2, 0), 1.0);
    }

    #[test]
    fn identity_and_norms() {
        let id = CsrMatrix::identity(4);
        assert_eq!(id.nnz(), 4);
        assert_eq!(id.inf_norm(), 1.0);
        let m = sample();
        assert_eq!(m.inf_norm(), 9.0);
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    fn from_raw_validation() {
        // bad row_ptr length
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // column index out of range
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // valid
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn from_dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(back, m);
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries.len(), 5);
        assert!(entries.contains(&(2, 2, 5.0)));
    }

    #[test]
    fn fingerprint_is_deterministic_and_clone_stable() {
        let m = sample();
        assert_eq!(m.fingerprint(), m.fingerprint());
        assert_eq!(m.clone().fingerprint(), m.fingerprint());
        // A structurally identical rebuild hashes identically too.
        let rebuilt = CsrMatrix::from_dense(&m.to_dense());
        assert_eq!(rebuilt.fingerprint(), m.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_permuted_matrix() {
        let m = sample();
        let permuted = m.permute_symmetric(&[2, 1, 0]).unwrap();
        assert_ne!(permuted.fingerprint(), m.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_perturbed_values() {
        let m = sample();
        let mut coo = CooMatrix::new(3, 3);
        for (i, j, v) in m.iter() {
            // Perturb a single entry by one ULP-scale amount.
            let v = if (i, j) == (2, 2) { v + 1e-12 } else { v };
            coo.push(i, j, v).unwrap();
        }
        let perturbed = CsrMatrix::from_coo(&coo);
        assert_eq!(perturbed.nnz(), m.nnz());
        assert_ne!(perturbed.fingerprint(), m.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_shape_and_pattern() {
        // Same stored values, different shape.
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(4, 3);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same values, different sparsity pattern (entry moved).
        let mut c1 = CooMatrix::new(2, 2);
        c1.push(0, 0, 1.0).unwrap();
        let mut c2 = CooMatrix::new(2, 2);
        c2.push(1, 1, 1.0).unwrap();
        assert_ne!(
            CsrMatrix::from_coo(&c1).fingerprint(),
            CsrMatrix::from_coo(&c2).fingerprint()
        );
        // Signed zero differs in bits from +0.0 only if stored; stored zeros
        // are dropped, so an empty matrix equals itself.
        assert_eq!(
            CsrMatrix::zeros(5, 5).fingerprint(),
            CsrMatrix::zeros(5, 5).fingerprint()
        );
    }
}
