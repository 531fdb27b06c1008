//! Weighting-matrix families `E_lk` (Section 4 of the paper).
//!
//! The extended fixed-point mapping combines the `L` per-processor solutions
//! through diagonal nonnegative weighting matrices `E_lk` with
//! `Σ_k E_lk = I`.  Different choices reproduce known algorithms:
//!
//! * **Block Jacobi / multisubdomain Schwarz** — each global index is taken
//!   from the processor that *owns* it (`E_ll = I` on `I_l`),
//! * **O'Leary–White multisplitting** — the weights depend only on `k`
//!   (`E_lk = E_k`); with overlapping bands the natural choice is to average
//!   the candidate values with equal weights,
//! * **Additive Schwarz (two or more overlapping subdomains)** — on the
//!   overlap the *lower-numbered* subdomain keeps its value, matching the
//!   `E_11/E_12` construction of §4.2.
//!
//! Implementation-wise a scheme reduces to a table of per-index weights
//! `(part, weight)` with weights summing to one, used (a) by the drivers to
//! blend values received from several overlapping senders and (b) by the
//! final assembly of the global solution.

use msplit_sparse::BandPartition;

/// Choice of weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightingScheme {
    /// Every index is taken from its owning band (the scheme of Algorithm 1
    /// without overlap; with overlap it is the discrete multisubdomain
    /// Schwarz method of §4.3).
    #[default]
    OwnerTakes,
    /// Equal averaging over every band whose extended range covers the index
    /// (O'Leary–White with uniform `E_k`).
    Average,
    /// On overlaps the lowest-numbered covering band wins (additive Schwarz
    /// of §4.2 for two subdomains, generalized to `L`).
    FirstCovering,
}

impl WeightingScheme {
    /// All schemes (used by ablation tests/benches).
    pub fn all() -> [WeightingScheme; 3] {
        [
            WeightingScheme::OwnerTakes,
            WeightingScheme::Average,
            WeightingScheme::FirstCovering,
        ]
    }

    /// The weights `(part, weight)` assigned to global index `i`.
    ///
    /// The returned weights are non-negative and sum to 1 (the row-sum
    /// condition `Σ_k E_lk = I` of the paper, specialized to the diagonal
    /// entry `i`).
    pub fn weights_for(&self, partition: &BandPartition, i: usize) -> Vec<(usize, f64)> {
        let covering = partition.parts_containing(i);
        debug_assert!(!covering.is_empty(), "every index is covered by its owner");
        match self {
            WeightingScheme::OwnerTakes => vec![(partition.owner_of(i), 1.0)],
            WeightingScheme::Average => {
                let w = 1.0 / covering.len() as f64;
                covering.into_iter().map(|p| (p, w)).collect()
            }
            WeightingScheme::FirstCovering => vec![(covering[0], 1.0)],
        }
    }

    /// Builds the full weight table for a partition: `table[i]` lists the
    /// `(part, weight)` pairs for global index `i`.
    pub fn weight_table(&self, partition: &BandPartition) -> Vec<Vec<(usize, f64)>> {
        (0..partition.order())
            .map(|i| self.weights_for(partition, i))
            .collect()
    }

    /// Assembles a global solution from per-part extended-range solutions.
    ///
    /// `local[l]` must hold part `l`'s solution over its *extended* range
    /// (`partition.extended_range(l)`).
    pub fn assemble(&self, partition: &BandPartition, local: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(local.len(), partition.num_parts(), "one solution per part");
        let n = partition.order();
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for (part, w) in self.weights_for(partition, i) {
                let range = partition.extended_range(part);
                debug_assert!(range.contains(&i));
                acc += w * local[part][i - range.start];
            }
            x[i] = acc;
        }
        x
    }

    /// Zero-allocation [`WeightingScheme::assemble`] against a precomputed
    /// [`WeightingScheme::weight_table`].
    ///
    /// The accumulation visits the `(part, weight)` pairs in the exact order
    /// `weights_for` returns them, so the floating-point result is bitwise
    /// identical to `assemble` — the Krylov drivers rely on this to stay on
    /// the proven stationary arithmetic while allocating nothing per sweep.
    /// `local[l]` is part `l`'s solution over its extended range, as a
    /// `Vec<f64>` or anything else that lends one out.
    pub fn assemble_into<V: AsRef<[f64]>>(
        partition: &BandPartition,
        table: &[Vec<(usize, f64)>],
        local: &[V],
        out: &mut [f64],
    ) {
        debug_assert_eq!(local.len(), partition.num_parts());
        debug_assert_eq!(table.len(), partition.order());
        debug_assert_eq!(out.len(), partition.order());
        for (i, (xi, weights)) in out.iter_mut().zip(table.iter()).enumerate() {
            let mut acc = 0.0;
            for &(part, w) in weights {
                let range = partition.extended_range(part);
                debug_assert!(range.contains(&i));
                acc += w * local[part].as_ref()[i - range.start];
            }
            *xi = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlapped_partition() -> BandPartition {
        // 12 unknowns, 3 parts, overlap 2:
        //   owned:    [0..4), [4..8), [8..12)
        //   extended: [0..6), [2..10), [6..12)
        BandPartition::uniform_with_overlap(12, 3, 2).unwrap()
    }

    #[test]
    fn weights_always_sum_to_one() {
        let p = overlapped_partition();
        for scheme in WeightingScheme::all() {
            for i in 0..12 {
                let w: f64 = scheme.weights_for(&p, i).iter().map(|&(_, w)| w).sum();
                assert!((w - 1.0).abs() < 1e-12, "{scheme:?} index {i}");
            }
        }
    }

    #[test]
    fn owner_takes_uses_owned_ranges() {
        let p = overlapped_partition();
        let s = WeightingScheme::OwnerTakes;
        assert_eq!(s.weights_for(&p, 3), vec![(0, 1.0)]);
        assert_eq!(s.weights_for(&p, 4), vec![(1, 1.0)]);
        assert_eq!(s.weights_for(&p, 11), vec![(2, 1.0)]);
    }

    #[test]
    fn average_splits_overlap_indices() {
        let p = overlapped_partition();
        let s = WeightingScheme::Average;
        // index 5 is covered by parts 0 and 1
        let w = s.weights_for(&p, 5);
        assert_eq!(w.len(), 2);
        assert!(w.iter().all(|&(_, wi)| (wi - 0.5).abs() < 1e-12));
        // a non-overlap index has a single unit weight
        assert_eq!(s.weights_for(&p, 0), vec![(0, 1.0)]);
    }

    #[test]
    fn first_covering_prefers_lower_numbered_part() {
        let p = overlapped_partition();
        let s = WeightingScheme::FirstCovering;
        assert_eq!(s.weights_for(&p, 5), vec![(0, 1.0)]);
        assert_eq!(s.weights_for(&p, 9), vec![(1, 1.0)]);
    }

    #[test]
    fn assemble_recovers_exact_solution_when_parts_agree() {
        let p = overlapped_partition();
        let truth: Vec<f64> = (0..12).map(|i| i as f64 * 0.5).collect();
        let local: Vec<Vec<f64>> = (0..3)
            .map(|l| {
                let r = p.extended_range(l);
                truth[r].to_vec()
            })
            .collect();
        for scheme in WeightingScheme::all() {
            let x = scheme.assemble(&p, &local);
            for (a, b) in x.iter().zip(truth.iter()) {
                assert!((a - b).abs() < 1e-12, "{scheme:?}");
            }
        }
    }

    #[test]
    fn assemble_blends_disagreeing_overlap_values() {
        let p = overlapped_partition();
        // Part 0 says 1.0 everywhere, part 1 says 3.0, part 2 says 5.0.
        let local: Vec<Vec<f64>> = (0..3)
            .map(|l| vec![(2 * l + 1) as f64; p.part_size(l)])
            .collect();
        let avg = WeightingScheme::Average.assemble(&p, &local);
        // index 5 covered by parts 0 and 1 -> (1 + 3)/2 = 2
        assert!((avg[5] - 2.0).abs() < 1e-12);
        let owner = WeightingScheme::OwnerTakes.assemble(&p, &local);
        // index 5 owned by part 1 -> 3
        assert!((owner[5] - 3.0).abs() < 1e-12);
        let first = WeightingScheme::FirstCovering.assemble(&p, &local);
        // part 0 covers index 5 -> 1
        assert!((first[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assemble_into_is_bitwise_assemble() {
        let p = overlapped_partition();
        let local: Vec<Vec<f64>> = (0..3)
            .map(|l| {
                let r = p.extended_range(l);
                r.map(|i| (i as f64).sin() * 3.7 + l as f64 * 0.13)
                    .collect()
            })
            .collect();
        for scheme in WeightingScheme::all() {
            let reference = scheme.assemble(&p, &local);
            let table = scheme.weight_table(&p);
            let mut out = vec![0.0; 12];
            WeightingScheme::assemble_into(&p, &table, &local, &mut out);
            for (a, b) in out.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{scheme:?}");
            }
        }
    }

    #[test]
    fn weight_table_covers_every_index() {
        let p = overlapped_partition();
        let table = WeightingScheme::Average.weight_table(&p);
        assert_eq!(table.len(), 12);
        assert!(table.iter().all(|w| !w.is_empty()));
    }
}
