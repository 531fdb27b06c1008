//! Scale-protocol properties: the fan-in of the lockstep vote tree is bitwise
//! invisible to the iteration — flat voting (fan-in `P − 1`, the root
//! collects every vote), the production fan-in and every arity in between
//! compute the same bits, and those bits are the retained sequential
//! reference's.
//!
//! The tests drive the in-process scale simulator
//! (`msplit_core::scale::simulate_ranks`), which runs the production
//! `RankEngine` + policy objects cooperatively under a seeded random sweep
//! schedule.

use multisplitting::core::runtime::VOTE_TREE_ARITY;
use multisplitting::core::scale::{simulate_ranks, Protocol, ScaleConfig};
use multisplitting::core::sequential::solve_sequential_decomposed;
use multisplitting::prelude::*;
use multisplitting::sparse::generators;
use proptest::prelude::*;

/// Runs one simulated solve and returns (x, iterations, converged).
fn run(ranks: usize, rows_per_rank: usize, protocol: Protocol, seed: u64) -> (Vec<f64>, u64, bool) {
    let report = simulate_ranks(&ScaleConfig {
        ranks,
        rows_per_rank,
        protocol,
        seed,
        ..Default::default()
    })
    .expect("simulation must not error");
    (report.x, report.stop.iterations, report.stop.converged())
}

proptest! {
    // Each case runs four full multi-rank solves; keep the count moderate so
    // the suite stays in CI budget while still sweeping schedules.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // At arities 2, 4 and 8, under random rank counts, band widths and
    // delivery schedules, the tree-aggregated lockstep produces **bitwise**
    // the iterates of the flat lockstep.
    #[test]
    fn tree_votes_are_bitwise_identical_to_flat_lockstep(
        ranks in 8usize..40,
        rows_per_rank in 2usize..5,
        seed in 1u64..u64::MAX,
    ) {
        let (x_flat, it_flat, ok_flat) =
            run(ranks, rows_per_rank, Protocol::flat(ranks), seed);
        prop_assert!(ok_flat, "flat lockstep failed to converge");
        for arity in [2usize, 4, 8] {
            // A different schedule seed for the tree run makes the claim
            // stronger: lockstep iterates are schedule-independent, so the
            // tree must match the flat run even under a different delivery
            // order.
            let (x_tree, it_tree, ok_tree) = run(
                ranks,
                rows_per_rank,
                Protocol::Tree { arity },
                seed.rotate_left(arity as u32),
            );
            prop_assert!(ok_tree, "tree arity {} failed to converge", arity);
            prop_assert!(it_flat == it_tree, "arity {} changed iterations", arity);
            prop_assert!(x_flat == x_tree, "arity {} changed iterates", arity);
        }
    }
}

/// The same bitwise claim at a fixed larger world, where the arity-k tree is
/// several levels deep (128 ranks: 7 levels at arity 2, 2 at the production
/// fan-in).
#[test]
fn deep_trees_stay_bitwise_identical_at_128_ranks() {
    let (x_flat, it_flat, ok_flat) = run(128, 3, Protocol::flat(128), 11);
    assert!(ok_flat);
    for arity in [2usize, 4, 8, VOTE_TREE_ARITY] {
        let (x_tree, it_tree, ok_tree) = run(128, 3, Protocol::Tree { arity }, 97);
        assert!(ok_tree, "arity {arity} failed to converge");
        assert_eq!(
            it_flat, it_tree,
            "arity {arity} changed the iteration count"
        );
        assert_eq!(x_flat, x_tree, "arity {arity} changed the iterates");
    }
}

/// The reference is the retained oracle, not a sibling protocol: on the
/// simulator's own tridiagonal system the two-level production tree stops
/// after `k` iterations on exactly the bits `k` sweeps of
/// `solve_sequential_decomposed` produce.
#[test]
fn production_tree_is_bitwise_the_sequential_reference() {
    let (ranks, rows_per_rank) = (VOTE_TREE_ARITY + 2, 3);
    let report = simulate_ranks(&ScaleConfig {
        ranks,
        rows_per_rank,
        seed: 23,
        ..Default::default()
    })
    .expect("simulation must not error");
    assert!(report.stop.converged());
    assert_eq!(
        report.protocol,
        Protocol::Tree {
            arity: VOTE_TREE_ARITY
        },
        "the simulator's default is the production fan-in"
    );

    let a = generators::tridiagonal(ranks * rows_per_rank, 4.0, -1.0);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
    let d = Decomposition::uniform(&a, &b, ranks, 0).unwrap();
    // tolerance < 0 forces the reference to run exactly `iterations` sweeps.
    let seq = solve_sequential_decomposed(
        &d,
        WeightingScheme::OwnerTakes,
        SolverKind::SparseLu,
        -1.0,
        report.stop.iterations,
    )
    .unwrap();
    assert_eq!(report.x, seq.x);
}
