//! Decomposition of the global system into per-processor band problems.
//!
//! A [`Decomposition`] packages the [`BandPartition`] (which rows each
//! processor owns, with optional overlap) together with the extracted
//! [`LocalBlocks`] of every processor.  It also offers heterogeneity-aware
//! band sizing: on cluster2/cluster3 the machines differ by up to a factor
//! 1.5 in speed, and giving the faster machines proportionally larger bands
//! keeps the synchronous iteration balanced.

use crate::CoreError;
use msplit_sparse::{BandPartition, CsrMatrix, LocalBlocks};

/// The per-processor decomposition of one linear system.
#[derive(Debug, Clone)]
pub struct Decomposition {
    partition: BandPartition,
    blocks: Vec<LocalBlocks>,
}

impl Decomposition {
    /// Uniform decomposition into `parts` bands with the given overlap.
    pub fn uniform(
        a: &CsrMatrix,
        b: &[f64],
        parts: usize,
        overlap: usize,
    ) -> Result<Self, CoreError> {
        let partition = BandPartition::uniform_with_overlap(a.rows(), parts, overlap)
            .map_err(|e| CoreError::Decomposition(e.to_string()))?;
        Self::from_partition(a, b, partition)
    }

    /// Decomposition whose band sizes are proportional to the given relative
    /// processor speeds (faster processors get more rows).
    pub fn balanced_for_speeds(
        a: &CsrMatrix,
        b: &[f64],
        speeds: &[f64],
        overlap: usize,
    ) -> Result<Self, CoreError> {
        if speeds.is_empty() || speeds.iter().any(|&s| s.is_nan() || s <= 0.0) {
            return Err(CoreError::Decomposition(
                "relative speeds must be positive".to_string(),
            ));
        }
        let n = a.rows();
        let parts = speeds.len();
        if parts > n {
            return Err(CoreError::Decomposition(format!(
                "cannot split {n} rows over {parts} processors"
            )));
        }
        let total: f64 = speeds.iter().sum();
        // Largest-remainder apportionment of rows proportional to speed.
        let mut sizes: Vec<usize> = speeds
            .iter()
            .map(|s| ((s / total) * n as f64).floor() as usize)
            .collect();
        // Every part needs at least one row.
        for s in sizes.iter_mut() {
            if *s == 0 {
                *s = 1;
            }
        }
        let mut assigned: usize = sizes.iter().sum();
        // Adjust to match n exactly, adding to (removing from) the fastest
        // (slowest) parts first.
        let mut order: Vec<usize> = (0..parts).collect();
        order.sort_by(|&i, &j| speeds[j].partial_cmp(&speeds[i]).unwrap());
        let mut idx = 0;
        while assigned < n {
            sizes[order[idx % parts]] += 1;
            assigned += 1;
            idx += 1;
        }
        let mut idx = 0;
        while assigned > n {
            let candidate = order[parts - 1 - (idx % parts)];
            if sizes[candidate] > 1 {
                sizes[candidate] -= 1;
                assigned -= 1;
            }
            idx += 1;
        }
        let partition = BandPartition::from_sizes(&sizes, overlap)
            .map_err(|e| CoreError::Decomposition(e.to_string()))?;
        Self::from_partition(a, b, partition)
    }

    /// Builds a decomposition from an explicit partition.
    pub fn from_partition(
        a: &CsrMatrix,
        b: &[f64],
        partition: BandPartition,
    ) -> Result<Self, CoreError> {
        if !a.is_square() {
            return Err(CoreError::Decomposition(format!(
                "matrix must be square, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if b.len() != a.rows() {
            return Err(CoreError::Decomposition(format!(
                "right-hand side length {} does not match matrix order {}",
                b.len(),
                a.rows()
            )));
        }
        let blocks = (0..partition.num_parts())
            .map(|l| LocalBlocks::extract(a, b, &partition, l))
            .collect::<Result<Vec<_>, _>>()
            .map_err(CoreError::Sparse)?;
        Ok(Decomposition { partition, blocks })
    }

    /// The underlying partition.
    pub fn partition(&self) -> &BandPartition {
        &self.partition
    }

    /// Number of parts (processors).
    pub fn num_parts(&self) -> usize {
        self.partition.num_parts()
    }

    /// Total system order.
    pub fn order(&self) -> usize {
        self.partition.order()
    }

    /// The blocks of part `l`.
    pub fn blocks(&self, l: usize) -> &LocalBlocks {
        &self.blocks[l]
    }

    /// All blocks.
    pub fn all_blocks(&self) -> &[LocalBlocks] {
        &self.blocks
    }

    /// Consumes the decomposition, returning the blocks (used by the threaded
    /// drivers, which move one block into each worker thread).
    pub fn into_blocks(self) -> (BandPartition, Vec<LocalBlocks>) {
        (self.partition, self.blocks)
    }

    /// For every part, the peers its solution slice must be sent to each
    /// iteration (including overlap coverage): the `DependsOnMe` array of
    /// Algorithm 1, derived from the sparsity pattern.  This is the structural input
    /// of the performance replay in [`crate::perf_model`].
    pub fn send_targets(&self) -> Vec<Vec<usize>> {
        crate::driver_common::compute_send_targets(&self.partition, &self.blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_sparse::generators;

    #[test]
    fn uniform_decomposition_shapes() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let b = vec![1.0; 30];
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        assert_eq!(d.num_parts(), 3);
        assert_eq!(d.order(), 30);
        for l in 0..3 {
            assert_eq!(d.blocks(l).size, 10);
        }
        assert_eq!(d.all_blocks().len(), 3);
    }

    #[test]
    fn depends_on_me_is_symmetric_for_tridiagonal() {
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let b = vec![1.0; 20];
        let d = Decomposition::uniform(&a, &b, 4, 0).unwrap();
        let dom = d.send_targets();
        // part 0's solution is needed by part 1 only, etc.
        assert_eq!(dom[0], vec![1]);
        assert_eq!(dom[1], vec![0, 2]);
        assert_eq!(dom[3], vec![2]);
    }

    #[test]
    fn balanced_decomposition_gives_fast_processors_more_rows() {
        let a = generators::tridiagonal(100, 4.0, -1.0);
        let b = vec![1.0; 100];
        let speeds = [1.0, 1.0, 2.0];
        let d = Decomposition::balanced_for_speeds(&a, &b, &speeds, 0).unwrap();
        assert_eq!(d.num_parts(), 3);
        let sizes: Vec<usize> = (0..3).map(|l| d.partition().owned_range(l).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(sizes[2] > sizes[0]);
        // Proportionality: the fast processor should have roughly twice the rows.
        assert!(sizes[2] >= 45 && sizes[2] <= 55, "sizes = {sizes:?}");
    }

    #[test]
    fn balanced_rejects_bad_speeds() {
        let a = generators::tridiagonal(10, 4.0, -1.0);
        let b = vec![1.0; 10];
        assert!(Decomposition::balanced_for_speeds(&a, &b, &[], 0).is_err());
        assert!(Decomposition::balanced_for_speeds(&a, &b, &[1.0, 0.0], 0).is_err());
        assert!(Decomposition::balanced_for_speeds(&a, &b, &[1.0; 20], 0).is_err());
    }

    #[test]
    fn shape_validation() {
        let a = generators::tridiagonal(10, 4.0, -1.0);
        assert!(Decomposition::uniform(&a, &[1.0; 9], 2, 0).is_err());
        let rect = msplit_sparse::CooMatrix::new(4, 5).to_csr();
        assert!(Decomposition::uniform(&rect, &[1.0; 4], 2, 0).is_err());
    }

    #[test]
    fn overlap_is_propagated_to_blocks() {
        let a = generators::tridiagonal(40, 4.0, -1.0);
        let b = vec![1.0; 40];
        let d = Decomposition::uniform(&a, &b, 4, 3).unwrap();
        assert_eq!(d.partition().overlap(), 3);
        // interior parts are larger than their owned range
        assert!(d.blocks(1).size > d.partition().owned_range(1).len());
    }
}
