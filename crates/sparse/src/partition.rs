//! Band decomposition of the linear system (Figure 1 of the paper).
//!
//! The matrix `A` is split into `L` horizontal bands.  Band `l` owns the
//! rows in `J_l` (a contiguous index range here; Remark 2 covers the
//! non-adjacent case via a prior permutation).  Within its band, the columns
//! matching `J_l` form the square diagonal block `ASub`; the columns before
//! it are the *left dependencies* `DepLeft` and the columns after it the
//! *right dependencies* `DepRight`.  Each multisplitting iteration computes
//!
//! ```text
//! BLoc = BSub − DepLeft · XLeft − DepRight · XRight
//! XSub = DirectSolve(ASub, BLoc)
//! ```
//!
//! The ranges may overlap (`J_l ∩ J_{l+1} ≠ ∅`), which yields the discrete
//! Schwarz variants of Section 4; the overlap size is the parameter studied
//! in Figure 3.

use crate::csr::CsrMatrix;
use crate::SparseError;

/// A partition of `{0, …, n-1}` into `L` contiguous, possibly overlapping
/// bands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandPartition {
    n: usize,
    /// Half-open owned (non-overlapping) ranges, covering `0..n` exactly.
    owned: Vec<(usize, usize)>,
    /// Half-open extended ranges including the overlap on both sides.
    extended: Vec<(usize, usize)>,
    /// Overlap requested (in rows, on each side where a neighbour exists).
    overlap: usize,
}

impl BandPartition {
    /// Splits `0..n` into `parts` contiguous bands of (nearly) equal size with
    /// no overlap.
    pub fn uniform(n: usize, parts: usize) -> Result<Self, SparseError> {
        Self::uniform_with_overlap(n, parts, 0)
    }

    /// Splits `0..n` into `parts` bands of (nearly) equal size, then extends
    /// each band by `overlap` rows into each existing neighbour.
    pub fn uniform_with_overlap(
        n: usize,
        parts: usize,
        overlap: usize,
    ) -> Result<Self, SparseError> {
        if parts == 0 {
            return Err(SparseError::Structure(
                "partition must have at least one part".to_string(),
            ));
        }
        if parts > n {
            return Err(SparseError::Structure(format!(
                "cannot split {n} rows into {parts} non-empty parts"
            )));
        }
        let base = n / parts;
        let rem = n % parts;
        let mut owned = Vec::with_capacity(parts);
        let mut start = 0usize;
        for l in 0..parts {
            let size = base + usize::from(l < rem);
            owned.push((start, start + size));
            start += size;
        }
        Self::from_owned_ranges(n, owned, overlap)
    }

    /// Builds a partition from explicit owned band sizes (useful for
    /// heterogeneity-aware load balancing: faster machines get larger bands).
    pub fn from_sizes(sizes: &[usize], overlap: usize) -> Result<Self, SparseError> {
        if sizes.is_empty() || sizes.contains(&0) {
            return Err(SparseError::Structure(
                "band sizes must be non-empty and positive".to_string(),
            ));
        }
        let n = sizes
            .iter()
            .try_fold(0usize, |n, &s| n.checked_add(s))
            .ok_or_else(|| SparseError::Structure("band sizes overflow the order".to_string()))?;
        let mut owned = Vec::with_capacity(sizes.len());
        let mut start = 0usize;
        for &s in sizes {
            owned.push((start, start + s));
            start += s;
        }
        Self::from_owned_ranges(n, owned, overlap)
    }

    fn from_owned_ranges(
        n: usize,
        owned: Vec<(usize, usize)>,
        overlap: usize,
    ) -> Result<Self, SparseError> {
        let parts = owned.len();
        let mut extended = Vec::with_capacity(parts);
        for (l, &(s, e)) in owned.iter().enumerate() {
            let ext_start = if l == 0 { s } else { s.saturating_sub(overlap) };
            let ext_end = if l + 1 == parts {
                e
            } else {
                e.saturating_add(overlap).min(n)
            };
            if ext_start >= ext_end {
                return Err(SparseError::Structure(format!(
                    "band {l} became empty after overlap expansion"
                )));
            }
            extended.push((ext_start, ext_end));
        }
        Ok(BandPartition {
            n,
            owned,
            extended,
            overlap,
        })
    }

    /// Total number of unknowns.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of bands `L`.
    pub fn num_parts(&self) -> usize {
        self.owned.len()
    }

    /// Overlap requested at construction.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// The owned (exclusive) range of band `l`; owned ranges tile `0..n`.
    pub fn owned_range(&self, l: usize) -> std::ops::Range<usize> {
        let (s, e) = self.owned[l];
        s..e
    }

    /// The extended range of band `l` including overlap (this is `J_l`).
    pub fn extended_range(&self, l: usize) -> std::ops::Range<usize> {
        let (s, e) = self.extended[l];
        s..e
    }

    /// Size of the extended band `l` (the order of its `ASub`).
    pub fn part_size(&self, l: usize) -> usize {
        let (s, e) = self.extended[l];
        e - s
    }

    /// The band that *owns* global index `i`.
    pub fn owner_of(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        // owned ranges are sorted and tile 0..n; binary search on start.
        match self.owned.binary_search_by(|&(s, e)| {
            if i < s {
                std::cmp::Ordering::Greater
            } else if i >= e {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(l) => l,
            Err(_) => unreachable!("owned ranges tile 0..n"),
        }
    }

    /// All bands whose *extended* range contains global index `i` (more than
    /// one in the overlapping case).
    pub fn parts_containing(&self, i: usize) -> Vec<usize> {
        (0..self.num_parts())
            .filter(|&l| self.extended_range(l).contains(&i))
            .collect()
    }

    /// The extended range of every band, in band order.
    pub fn ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.num_parts()).map(move |l| self.extended_range(l))
    }
}

/// The per-band blocks of Figure 1: everything processor `l` needs to run
/// Algorithm 1 locally.
#[derive(Debug, Clone)]
pub struct LocalBlocks {
    /// Index of this band.
    pub part: usize,
    /// First global row of the extended band (the paper's `Offset`).
    pub offset: usize,
    /// Order of `ASub` (the paper's `SizeSub`).
    pub size: usize,
    /// Total system order (the paper's `Size`).
    pub total_size: usize,
    /// The square diagonal block `ASub`.
    pub a_sub: CsrMatrix,
    /// Left dependency block (`size × offset`).
    pub dep_left: CsrMatrix,
    /// Right dependency block (`size × (total_size - offset - size)`).
    pub dep_right: CsrMatrix,
    /// The band's slice of the right-hand side, `BSub`.
    pub b_sub: Vec<f64>,
}

impl LocalBlocks {
    /// Extracts the blocks of band `l` from the global system `(a, b)`.
    pub fn extract(
        a: &CsrMatrix,
        b: &[f64],
        partition: &BandPartition,
        l: usize,
    ) -> Result<Self, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if a.rows() != partition.order() {
            return Err(SparseError::ShapeMismatch {
                expected: (partition.order(), partition.order()),
                found: (a.rows(), a.cols()),
            });
        }
        if b.len() != a.rows() {
            return Err(SparseError::ShapeMismatch {
                expected: (a.rows(), 1),
                found: (b.len(), 1),
            });
        }
        let range = partition.extended_range(l);
        let (offset, end) = (range.start, range.end);
        let size = end - offset;
        let n = a.rows();
        let a_sub = a.sub_matrix(offset, end, offset, end);
        let dep_left = a.sub_matrix(offset, end, 0, offset);
        let dep_right = a.sub_matrix(offset, end, end, n);
        let b_sub = b[offset..end].to_vec();
        Ok(LocalBlocks {
            part: l,
            offset,
            size,
            total_size: n,
            a_sub,
            dep_left,
            dep_right,
            b_sub,
        })
    }

    /// Computes the local right-hand side
    /// `BLoc = BSub − DepLeft · XLeft − DepRight · XRight`
    /// from the *global* solution vector.
    pub fn local_rhs(&self, x_global: &[f64]) -> Result<Vec<f64>, SparseError> {
        self.local_rhs_with(&self.b_sub, x_global)
    }

    /// Like [`LocalBlocks::local_rhs`], but with a caller-supplied `BSub`
    /// replacing the slice captured at extraction time.  This is what lets a
    /// prepared decomposition (blocks + factorizations) be reused across many
    /// right-hand sides: only the `b_sub` slice changes between solves.
    pub fn local_rhs_with(&self, b_sub: &[f64], x_global: &[f64]) -> Result<Vec<f64>, SparseError> {
        let mut rhs = Vec::new();
        self.local_rhs_into(b_sub, x_global, &mut rhs)?;
        Ok(rhs)
    }

    /// Allocation-free form of [`LocalBlocks::local_rhs_with`]: writes
    /// `BLoc = BSub − DepLeft · XLeft − DepRight · XRight` into `out`,
    /// reusing its capacity.  This is the per-iteration kernel of the
    /// multisplitting drivers — with a caller-retained `out` buffer the
    /// steady-state iteration performs no heap allocation here.
    pub fn local_rhs_into(
        &self,
        b_sub: &[f64],
        x_global: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), SparseError> {
        if b_sub.len() != self.size {
            return Err(SparseError::ShapeMismatch {
                expected: (self.size, 1),
                found: (b_sub.len(), 1),
            });
        }
        if x_global.len() != self.total_size {
            return Err(SparseError::ShapeMismatch {
                expected: (self.total_size, 1),
                found: (x_global.len(), 1),
            });
        }
        out.clear();
        out.extend_from_slice(b_sub);
        let x_left = &x_global[..self.offset];
        let x_right = &x_global[self.offset + self.size..];
        if self.offset > 0 {
            self.dep_left.spmv_sub_into(x_left, out)?;
        }
        if !x_right.is_empty() {
            self.dep_right.spmv_sub_into(x_right, out)?;
        }
        Ok(())
    }

    /// The global column indices on which this band actually depends
    /// (nonzero columns of `DepLeft` and `DepRight`).
    pub fn dependency_columns(&self) -> Vec<usize> {
        let mut cols = std::collections::BTreeSet::new();
        for (_, j, _) in self.dep_left.iter() {
            cols.insert(j);
        }
        let right_base = self.offset + self.size;
        for (_, j, _) in self.dep_right.iter() {
            cols.insert(right_base + j);
        }
        cols.into_iter().collect()
    }

    /// Estimated memory footprint of the stored blocks, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.a_sub.memory_bytes()
            + self.dep_left.memory_bytes()
            + self.dep_right.memory_bytes()
            + self.b_sub.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn uniform_partition_tiles_range() {
        let p = BandPartition::uniform(10, 3).unwrap();
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.owned_range(0), 0..4);
        assert_eq!(p.owned_range(1), 4..7);
        assert_eq!(p.owned_range(2), 7..10);
        assert_eq!(p.extended_range(1), 4..7);
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(6), 1);
        assert_eq!(p.owner_of(9), 2);
    }

    #[test]
    fn overlap_expands_interior_bands() {
        let p = BandPartition::uniform_with_overlap(12, 3, 2).unwrap();
        assert_eq!(p.owned_range(1), 4..8);
        assert_eq!(p.extended_range(0), 0..6);
        assert_eq!(p.extended_range(1), 2..10);
        assert_eq!(p.extended_range(2), 6..12);
        assert_eq!(p.part_size(1), 8);
        assert_eq!(p.parts_containing(5), vec![0, 1]);
        assert_eq!(p.overlap(), 2);
    }

    #[test]
    fn invalid_partitions_rejected() {
        assert!(BandPartition::uniform(5, 0).is_err());
        assert!(BandPartition::uniform(3, 5).is_err());
        assert!(BandPartition::from_sizes(&[2, 0, 3], 0).is_err());
        assert!(BandPartition::from_sizes(&[], 0).is_err());
    }

    #[test]
    fn from_sizes_respects_given_sizes() {
        let p = BandPartition::from_sizes(&[3, 5, 2], 0).unwrap();
        assert_eq!(p.order(), 10);
        assert_eq!(p.owned_range(1), 3..8);
        assert_eq!(p.part_size(2), 2);
    }

    #[test]
    fn local_blocks_shapes() {
        let a = generators::tridiagonal(10, 4.0, -1.0);
        let b = vec![1.0; 10];
        let p = BandPartition::uniform(10, 3).unwrap();
        let blocks = LocalBlocks::extract(&a, &b, &p, 1).unwrap();
        assert_eq!(blocks.offset, 4);
        assert_eq!(blocks.size, 3);
        assert_eq!(blocks.a_sub.rows(), 3);
        assert_eq!(blocks.a_sub.cols(), 3);
        assert_eq!(blocks.dep_left.cols(), 4);
        assert_eq!(blocks.dep_right.cols(), 3);
        assert_eq!(blocks.b_sub, vec![1.0; 3]);
    }

    #[test]
    fn blocks_reassemble_row_band() {
        // ASub, DepLeft and DepRight must exactly tile the band's rows.
        let a = generators::cage_like(60, 5);
        let b = vec![0.5; 60];
        let p = BandPartition::uniform(60, 4).unwrap();
        for l in 0..4 {
            let blocks = LocalBlocks::extract(&a, &b, &p, l).unwrap();
            let band_nnz: usize = p.extended_range(l).map(|i| a.row_nnz(i)).sum();
            assert_eq!(
                blocks.a_sub.nnz() + blocks.dep_left.nnz() + blocks.dep_right.nnz(),
                band_nnz
            );
        }
    }

    #[test]
    fn local_rhs_matches_global_residual_identity() {
        // For the exact solution x*, BLoc equals ASub * XSub*, because
        // b = A x* and the band rows split as DepLeft·XLeft + ASub·XSub + DepRight·XRight.
        let a = generators::diag_dominant(&generators::DiagDominantConfig {
            n: 40,
            seed: 2,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.1).cos());
        let p = BandPartition::uniform(40, 4).unwrap();
        for l in 0..4 {
            let blocks = LocalBlocks::extract(&a, &b, &p, l).unwrap();
            let rhs = blocks.local_rhs(&x_true).unwrap();
            let xs = &x_true[blocks.offset..blocks.offset + blocks.size];
            let asub_x = blocks.a_sub.spmv(xs).unwrap();
            for (r, ax) in rhs.iter().zip(asub_x.iter()) {
                assert!((r - ax).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn local_rhs_into_matches_local_rhs_with_and_reuses_buffer() {
        let a = generators::cage_like(40, 7);
        let b: Vec<f64> = (0..40).map(|i| (i as f64) * 0.25).collect();
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).cos()).collect();
        let p = BandPartition::uniform_with_overlap(40, 4, 3).unwrap();
        let mut out = Vec::new();
        for l in 0..4 {
            let blocks = LocalBlocks::extract(&a, &b, &p, l).unwrap();
            let range = p.extended_range(l);
            let expected = blocks.local_rhs_with(&b[range], &x).unwrap();
            let range = p.extended_range(l);
            blocks.local_rhs_into(&b[range], &x, &mut out).unwrap();
            assert_eq!(out, expected);
            // shape validation
            assert!(blocks.local_rhs_into(&[1.0], &x, &mut out).is_err());
        }
    }

    #[test]
    fn extract_validates_shapes() {
        let a = generators::tridiagonal(10, 4.0, -1.0);
        let p = BandPartition::uniform(10, 2).unwrap();
        assert!(LocalBlocks::extract(&a, &[1.0; 9], &p, 0).is_err());
        let p_wrong = BandPartition::uniform(8, 2).unwrap();
        assert!(LocalBlocks::extract(&a, &[1.0; 10], &p_wrong, 0).is_err());
    }
}
