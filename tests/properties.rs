//! Property-based integration tests (proptest) on the core invariants of the
//! stack: format round-trips, factorization correctness, partition/weighting
//! algebra, and the multisplitting fixed point.

use multisplitting::direct::SparseLu;
use multisplitting::prelude::*;
use multisplitting::sparse::{
    generators, generators::DiagDominantConfig, BandPartition, CsrMatrix,
};
use proptest::prelude::*;

fn arb_dd_matrix() -> impl Strategy<Value = CsrMatrix> {
    (20usize..120, 1u64..500, 1usize..6).prop_map(|(n, seed, offdiag)| {
        generators::diag_dominant(&DiagDominantConfig {
            n,
            offdiag_per_row: offdiag,
            half_bandwidth: 8,
            dominance_margin: 0.2,
            seed,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_dense_round_trip(a in arb_dd_matrix()) {
        let dense = a.to_dense();
        let back = CsrMatrix::from_dense(&dense);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn csr_csc_round_trip_preserves_spmv(a in arb_dd_matrix(), scale in -2.0f64..2.0) {
        let x: Vec<f64> = (0..a.cols()).map(|i| scale * (i as f64 * 0.37).sin()).collect();
        let via_csr = a.spmv(&x).unwrap();
        let via_csc = a.to_csc().spmv(&x).unwrap();
        for (p, q) in via_csr.iter().zip(via_csc.iter()) {
            prop_assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn sparse_lu_solves_generated_systems(a in arb_dd_matrix()) {
        let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        let lu = SparseLu::factorize(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (p, q) in x.iter().zip(x_true.iter()) {
            prop_assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn partition_owned_ranges_tile_and_weights_sum_to_one(
        n in 10usize..200,
        parts in 1usize..8,
        overlap in 0usize..5,
    ) {
        prop_assume!(parts <= n);
        let partition = BandPartition::uniform_with_overlap(n, parts, overlap).unwrap();
        // Owned ranges tile 0..n exactly.
        let mut covered = vec![0usize; n];
        for l in 0..partition.num_parts() {
            for i in partition.owned_range(l) {
                covered[i] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
        // Every weighting scheme produces weights summing to 1 at every index.
        for scheme in WeightingScheme::all() {
            for i in 0..n {
                let total: f64 = scheme
                    .weights_for(&partition, i)
                    .iter()
                    .map(|&(_, w)| w)
                    .sum();
                prop_assert!((total - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn multisplitting_fixed_point_is_the_true_solution(
        a in arb_dd_matrix(),
        parts in 2usize..5,
        overlap in 0usize..3,
    ) {
        prop_assume!(parts * 2 <= a.rows());
        let (x_true, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 5) as f64);
        let outcome = MultisplittingSolver::builder()
            .parts(parts)
            .overlap(overlap)
            .tolerance(1e-10)
            .max_iterations(20_000)
            .build()
            .solve(&a, &b)
            .unwrap();
        prop_assert!(outcome.stop.converged());
        for (p, q) in outcome.x.iter().zip(x_true.iter()) {
            prop_assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn assembled_solution_is_independent_of_scheme_when_parts_agree(
        n in 20usize..100,
        parts in 2usize..5,
        overlap in 0usize..4,
    ) {
        prop_assume!(parts * 3 <= n);
        let partition = BandPartition::uniform_with_overlap(n, parts, overlap).unwrap();
        let truth: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let locals: Vec<Vec<f64>> = (0..parts)
            .map(|l| partition.extended_range(l).map(|g| truth[g]).collect())
            .collect();
        for scheme in WeightingScheme::all() {
            let x = scheme.assemble(&partition, &locals);
            for (p, q) in x.iter().zip(truth.iter()) {
                prop_assert!((p - q).abs() < 1e-12);
            }
        }
    }
}
