//! Row-major dense matrix with BLAS-like operations.

use crate::DenseError;

/// A dense, row-major matrix of `f64` values.
///
/// The layout is row-major: element `(i, j)` is stored at `data[i * cols + j]`.
/// This matches the access pattern of the forward/back substitution kernels
/// and of the multisplitting dependency products `DepLeft * XLeft`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero-filled matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        DenseMatrix { rows, cols, data }
    }

    /// Creates a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows are not allowed");
            data.extend_from_slice(r);
        }
        DenseMatrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds an `n x n` matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets the element at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major storage, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Swaps rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix-vector product `y = A * x`.
    ///
    /// Returns an error if `x.len() != cols`.
    pub fn gemv(&self, x: &[f64]) -> Result<Vec<f64>, DenseError> {
        if x.len() != self.cols {
            return Err(DenseError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.gemv_into(x, &mut y)?;
        Ok(y)
    }

    /// Matrix-vector product writing into a caller-provided buffer:
    /// `y = A * x`.
    pub fn gemv_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), DenseError> {
        if x.len() != self.cols {
            return Err(DenseError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(DenseError::DimensionMismatch {
                expected: self.rows,
                found: y.len(),
            });
        }
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, &xj) in row.iter().zip(x.iter()) {
                acc += a * xj;
            }
            *yi = acc;
        }
        Ok(())
    }

    /// Matrix-matrix product `C = A * B` using a cache-friendly i-k-j loop
    /// order.
    pub fn gemm(&self, other: &DenseMatrix) -> Result<DenseMatrix, DenseError> {
        if self.cols != other.rows {
            return Err(DenseError::DimensionMismatch {
                expected: self.cols,
                found: other.rows,
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let crow = out.row_mut(i);
                for (c, &bkj) in crow.iter_mut().zip(brow.iter()) {
                    *c += aik * bkj;
                }
            }
        }
        Ok(out)
    }

    /// Elementwise sum `A + B`.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix, DenseError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(DenseError::DimensionMismatch {
                expected: self.rows * self.cols,
                found: other.rows * other.cols,
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference `A - B`.
    pub fn sub(&self, other: &DenseMatrix) -> Result<DenseMatrix, DenseError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(DenseError::DimensionMismatch {
                expected: self.rows * self.cols,
                found: other.rows * other.cols,
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scales the matrix in place by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Returns a matrix whose entries are the absolute values of `self`,
    /// i.e. `|A|` as used by the asynchronous convergence condition
    /// ρ(|M_l⁻¹ N_l|) < 1.
    pub fn abs(&self) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v.abs()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let id = DenseMatrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_get_set() {
        let mut m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        m.set(1, 0, -3.0);
        assert_eq!(m.get(1, 0), -3.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn gemv_matches_manual_computation() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = m.gemv(&[1.0, -1.0]).unwrap();
        assert_eq!(y, vec![-1.0, -1.0]);
    }

    #[test]
    fn gemv_dimension_error() {
        let m = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            m.gemv(&[1.0, 2.0]),
            Err(DenseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn gemm_matches_manual_computation() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.gemm(&b).unwrap();
        assert_eq!(c, DenseMatrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]));
    }

    #[test]
    fn gemm_large_parallel_path_agrees_with_small_path() {
        // Exceed the parallel threshold (2^18 scalar multiplications).
        let n = 70;
        let a = DenseMatrix::from_fn(n, n, |i, j| ((i + 1) * (j + 2) % 7) as f64);
        let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 3 + j) % 5) as f64);
        let c = a.gemm(&b).unwrap();
        // spot-check against a manual dot product
        for &(i, j) in &[(0usize, 0usize), (13, 42), (69, 69)] {
            let manual: f64 = (0..n).map(|k| a.get(i, k) * b.get(k, j)).sum();
            assert!((c.get(i, j) - manual).abs() < 1e-9);
        }
    }

    #[test]
    fn add_sub_scale_abs() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(
            a.add(&b).unwrap(),
            DenseMatrix::from_rows(&[&[2.0, -1.0], &[4.0, -3.0]])
        );
        assert_eq!(
            a.sub(&b).unwrap(),
            DenseMatrix::from_rows(&[&[0.0, -3.0], &[2.0, -5.0]])
        );
        let mut s = a.clone();
        s.scale(2.0);
        assert_eq!(s.get(1, 1), -8.0);
        assert_eq!(a.abs().get(0, 1), 2.0);
    }
}
