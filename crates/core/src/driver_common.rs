//! Shared plumbing of the synchronous and asynchronous drivers.

use crate::weighting::WeightingScheme;
use msplit_direct::SolveScratch;
use msplit_sparse::{BandPartition, LocalBlocks};

/// Latest dependency data received from the other processors, and the logic
/// to turn it into the `XLeft` / `XRight` values a band needs.
///
/// Every processor keeps the most recent extended-range solution slice it has
/// received from each peer.  Before each local solve, the dependency entries
/// of the band (the nonzero columns of `DepLeft` / `DepRight`) are recombined
/// from those slices using the weighting scheme; senders whose data has not
/// arrived yet simply do not contribute (their weight is renormalized away),
/// which is exactly the behaviour the asynchronous model allows.
///
/// The dependency columns and their static weights are computed **once** at
/// construction, so [`NeighborData::fill_dependencies`] — which runs once per
/// outer iteration — performs no heap allocation.
#[derive(Debug, Clone)]
pub struct NeighborData {
    /// `latest[k]` = (offset, values) of the most recent slice from part `k`.
    latest: Vec<Option<(usize, Vec<f64>)>>,
    /// Iteration stamp of the most recent slice from each part.
    stamps: Vec<u64>,
    /// Dependency columns of the owning band that lie *outside* its extended
    /// range (entries inside the range are solved locally).
    dep_cols: Vec<usize>,
    /// Static `(part, weight)` pairs per dependency column, in `dep_cols`
    /// order; renormalization over the senders that have actually supplied
    /// data happens at fill time.
    dep_weights: Vec<Vec<(usize, f64)>>,
}

impl NeighborData {
    /// Builds the halo tracker for `blk` under the given weighting scheme.
    pub fn new(partition: &BandPartition, scheme: WeightingScheme, blk: &LocalBlocks) -> Self {
        let parts = partition.num_parts();
        let my_range = partition.extended_range(blk.part);
        let dep_cols: Vec<usize> = blk
            .dependency_columns()
            .into_iter()
            .filter(|g| !my_range.contains(g))
            .collect();
        let dep_weights = dep_cols
            .iter()
            .map(|&g| scheme.weights_for(partition, g))
            .collect();
        NeighborData {
            latest: vec![None; parts],
            stamps: vec![0; parts],
            dep_cols,
            dep_weights,
        }
    }

    /// Records a received solution slice.  Stale slices (older iteration than
    /// one already stored) are ignored, which matters in asynchronous mode
    /// where messages can be processed out of order.
    ///
    /// Returns whether the slice was actually applied — a discarded stale
    /// duplicate must not count as "fresh data" in the drivers' convergence
    /// guards.
    pub fn update(&mut self, from: usize, iteration: u64, offset: usize, values: Vec<f64>) -> bool {
        if !self.stamp(from, iteration) {
            return false;
        }
        self.latest[from] = Some((offset, values));
        true
    }

    /// [`NeighborData::update`] from a borrowed slice: the stored slice of
    /// `from` is overwritten in place, so once every peer has spoken a
    /// repeated update allocates nothing.
    pub(crate) fn update_from_slice(
        &mut self,
        from: usize,
        iteration: u64,
        offset: usize,
        values: &[f64],
    ) -> bool {
        if !self.stamp(from, iteration) {
            return false;
        }
        match &mut self.latest[from] {
            Some((stored_offset, stored)) => {
                *stored_offset = offset;
                stored.clear();
                stored.extend_from_slice(values);
            }
            slot => *slot = Some((offset, values.to_vec())),
        }
        true
    }

    /// Records `iteration` as the stamp of `from` unless the slice is stale
    /// (older than the stored one) or the sender is out of range; returns
    /// whether the slice is to be stored.
    fn stamp(&mut self, from: usize, iteration: u64) -> bool {
        if from >= self.latest.len() || iteration < self.stamps[from] {
            return false;
        }
        self.stamps[from] = iteration;
        true
    }

    /// Whether any slice from any peer has been recorded.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn has_any_data(&self) -> bool {
        self.latest.iter().any(Option::is_some)
    }

    /// The precomputed dependency columns outside the band's extended range.
    pub fn dependency_columns(&self) -> &[usize] {
        &self.dep_cols
    }

    /// Value available for global index `g` from part `k`, if its stored
    /// slice covers `g`.
    fn value_from(&self, k: usize, g: usize) -> Option<f64> {
        self.latest[k].as_ref().and_then(|(offset, values)| {
            if g >= *offset && g < offset + values.len() {
                Some(values[g - offset])
            } else {
                None
            }
        })
    }

    /// Exports the halo for a checkpoint: per peer, the iteration stamp and
    /// the latest slice (if any).  One entry per part, in rank order.
    pub(crate) fn export_state(&self) -> Vec<crate::runtime::HaloEntry> {
        self.stamps
            .iter()
            .zip(self.latest.iter())
            .map(|(&stamp, slice)| (stamp, slice.clone()))
            .collect()
    }

    /// Restores halo state captured by [`NeighborData::export_state`].
    /// Returns `false` (leaving the halo untouched) when the snapshot was
    /// taken under a different world size.
    pub(crate) fn restore_state(&mut self, state: &[crate::runtime::HaloEntry]) -> bool {
        if state.len() != self.latest.len() {
            return false;
        }
        for (k, (stamp, slice)) in state.iter().enumerate() {
            self.stamps[k] = *stamp;
            self.latest[k] = slice.clone();
        }
        true
    }

    /// Writes the current best estimate of every dependency column of the
    /// owning band into `x_global` (entries inside the band's extended range
    /// are left untouched — the band solves for those itself).
    ///
    /// Allocation-free: the column list and weights were precomputed at
    /// construction.
    pub fn fill_dependencies(&self, x_global: &mut [f64]) {
        for (&g, weights) in self.dep_cols.iter().zip(self.dep_weights.iter()) {
            let mut acc = 0.0;
            let mut total_w = 0.0;
            for &(part, w) in weights {
                if let Some(v) = self.value_from(part, g) {
                    acc += w * v;
                    total_w += w;
                }
            }
            if total_w > 0.0 {
                x_global[g] = acc / total_w;
            }
            // else: no data yet, keep the current (initial-guess) value.
        }
    }
}

/// Per-worker buffers of the driver hot loop, allocated once before the
/// outer iteration starts so every steady-state iteration runs without heap
/// allocation on the solve path (dependency fill → `BLoc` assembly →
/// in-place triangular solve → increment norm).
///
/// [`crate::prepared::PreparedSystem`] pools these across solve requests, so
/// warm engine cache hits reuse fully grown buffers from the first request
/// onwards.
#[derive(Debug, Default)]
pub struct IterationWorkspace {
    /// Current estimate of the full solution vector (dependency columns are
    /// refreshed in place each iteration).
    pub(crate) x_global: Vec<f64>,
    /// `BLoc` buffer; after the in-place solve it holds the new local iterate.
    pub(crate) rhs: Vec<f64>,
    /// Previous local iterate, retained for the increment norm.
    pub(crate) x_sub: Vec<f64>,
    /// Permutation scratch of the direct solver's in-place solve.
    pub(crate) scratch: SolveScratch,
    /// Batched counterparts (only sized when the batch driver runs).
    pub(crate) x_globals: Vec<Vec<f64>>,
    pub(crate) rhs_cols: Vec<Vec<f64>>,
    pub(crate) x_cols: Vec<Vec<f64>>,
}

impl IterationWorkspace {
    /// Creates an empty workspace; buffers grow on first use and are then
    /// retained for the lifetime of the value.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes and zeroes the single-RHS buffers for a solve over `blk`.
    pub(crate) fn prepare_single(&mut self, blk: &LocalBlocks) {
        self.x_global.resize(blk.total_size, 0.0);
        self.x_global.fill(0.0);
        self.x_sub.resize(blk.size, 0.0);
        self.x_sub.fill(0.0);
        // `rhs` is overwritten by `local_rhs_into` each iteration; only its
        // capacity matters.
    }

    /// Sizes and zeroes the batched buffers for an `ncols`-wide solve.
    pub(crate) fn prepare_batch(&mut self, blk: &LocalBlocks, ncols: usize) {
        self.x_globals.resize_with(ncols, Vec::new);
        self.rhs_cols.resize_with(ncols, Vec::new);
        self.x_cols.resize_with(ncols, Vec::new);
        for xg in &mut self.x_globals {
            xg.resize(blk.total_size, 0.0);
            xg.fill(0.0);
        }
        for xc in &mut self.x_cols {
            xc.resize(blk.size, 0.0);
            xc.fill(0.0);
        }
    }
}

/// For every part, the set of peers that need its solution slice — the
/// `DependsOnMe` array of Algorithm 1, including overlap coverage so that
/// averaging weighting schemes receive every contribution they expect.
pub(crate) fn compute_send_targets(
    partition: &BandPartition,
    blocks: &[LocalBlocks],
) -> Vec<Vec<usize>> {
    let parts = partition.num_parts();
    let mut targets = vec![std::collections::BTreeSet::new(); parts];
    for blk in blocks {
        for g in blk.dependency_columns() {
            for covering in partition.parts_containing(g) {
                if covering != blk.part {
                    targets[covering].insert(blk.part);
                }
            }
        }
    }
    targets
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect()
}

/// Maximum absolute difference between two equally long vectors.
pub(crate) fn increment_norm(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_sparse::generators;

    #[test]
    fn send_targets_for_tridiagonal_are_the_neighbours() {
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let b = vec![1.0; 20];
        let partition = BandPartition::uniform(20, 4).unwrap();
        let blocks: Vec<LocalBlocks> = (0..4)
            .map(|l| LocalBlocks::extract(&a, &b, &partition, l).unwrap())
            .collect();
        let targets = compute_send_targets(&partition, &blocks);
        assert_eq!(targets[0], vec![1]);
        assert_eq!(targets[1], vec![0, 2]);
        assert_eq!(targets[3], vec![2]);
    }

    #[test]
    fn neighbor_data_combines_available_slices_only() {
        let a = generators::tridiagonal(12, 4.0, -1.0);
        let b = vec![1.0; 12];
        let partition = BandPartition::uniform(12, 3).unwrap();
        let blk = LocalBlocks::extract(&a, &b, &partition, 1).unwrap();
        let mut nd = NeighborData::new(&partition, WeightingScheme::OwnerTakes, &blk);
        assert!(!nd.has_any_data());
        // band 1 (rows 4..8) depends on columns 3 (left) and 8 (right)
        assert_eq!(nd.dependency_columns(), &[3, 8]);

        let mut x = vec![0.0; 12];
        nd.fill_dependencies(&mut x);
        // no data yet: untouched
        assert!(x.iter().all(|&v| v == 0.0));

        // part 0 sends its extended solution (rows 0..4)
        nd.update(0, 1, 0, vec![10.0, 11.0, 12.0, 13.0]);
        assert!(nd.has_any_data());
        nd.fill_dependencies(&mut x);
        assert_eq!(x[3], 13.0);
        assert_eq!(x[8], 0.0);

        // part 2 sends rows 8..12
        nd.update(2, 1, 8, vec![20.0, 21.0, 22.0, 23.0]);
        nd.fill_dependencies(&mut x);
        assert_eq!(x[8], 20.0);
    }

    #[test]
    fn stale_updates_are_ignored() {
        let a = generators::tridiagonal(10, 4.0, -1.0);
        let b = vec![1.0; 10];
        let partition = BandPartition::uniform(10, 2).unwrap();
        let blk = LocalBlocks::extract(&a, &b, &partition, 0).unwrap();
        let mut nd = NeighborData::new(&partition, WeightingScheme::OwnerTakes, &blk);
        nd.update(0, 5, 0, vec![1.0; 5]);
        nd.update(0, 3, 0, vec![9.0; 5]);
        // value from iteration 5 must survive
        assert_eq!(nd.value_from(0, 0), Some(1.0));
        nd.update(0, 6, 0, vec![2.0; 5]);
        assert_eq!(nd.value_from(0, 0), Some(2.0));
        // out-of-range sender index is ignored silently
        nd.update(99, 1, 0, vec![1.0]);
    }

    #[test]
    fn averaging_scheme_renormalizes_over_available_senders() {
        // Overlapping partition: index 5 is covered by parts 0 and 1.
        let a = generators::tridiagonal(12, 4.0, -1.0);
        let b = vec![1.0; 12];
        let partition = BandPartition::uniform_with_overlap(12, 3, 2).unwrap();
        let blk2 = LocalBlocks::extract(&a, &b, &partition, 2).unwrap();
        let mut nd = NeighborData::new(&partition, WeightingScheme::Average, &blk2);
        let mut x = vec![0.0; 12];
        // Part 2's extended range is 6..12, its left dependency column is 5,
        // covered by parts 0 (ext 0..6) and 1 (ext 2..10).
        nd.update(0, 1, 0, vec![1.0; 6]);
        nd.fill_dependencies(&mut x);
        assert_eq!(x[5], 1.0); // only part 0 available: weight renormalized to 1
        nd.update(1, 1, 2, vec![3.0; 8]);
        nd.fill_dependencies(&mut x);
        assert!((x[5] - 2.0).abs() < 1e-12); // average of 1 and 3
    }

    #[test]
    fn workspace_prepare_sizes_and_zeroes_buffers() {
        let a = generators::tridiagonal(12, 4.0, -1.0);
        let b = vec![1.0; 12];
        let partition = BandPartition::uniform(12, 3).unwrap();
        let blk = LocalBlocks::extract(&a, &b, &partition, 1).unwrap();
        let mut ws = IterationWorkspace::new();
        ws.prepare_single(&blk);
        assert_eq!(ws.x_global.len(), 12);
        assert_eq!(ws.x_sub.len(), 4);
        // Dirty the buffers, re-prepare, and check they are zeroed again.
        ws.x_global.fill(7.0);
        ws.x_sub.fill(7.0);
        ws.prepare_single(&blk);
        assert!(ws.x_global.iter().all(|&v| v == 0.0));
        assert!(ws.x_sub.iter().all(|&v| v == 0.0));
        ws.prepare_batch(&blk, 3);
        assert_eq!(ws.x_globals.len(), 3);
        assert_eq!(ws.x_cols.len(), 3);
        assert!(ws.x_globals.iter().all(|xg| xg.len() == 12));
        ws.prepare_batch(&blk, 1);
        assert_eq!(ws.rhs_cols.len(), 1);
    }

    #[test]
    fn increment_norm_basic() {
        assert_eq!(increment_norm(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(increment_norm(&[], &[]), 0.0);
    }
}
