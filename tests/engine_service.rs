//! Integration tests of the persistent solve service through the facade:
//! cache correctness (a cached prepared system must be indistinguishable
//! from cold solves), single-flight factorization under concurrent
//! submission, and batched serving.

use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use multisplitting::sparse::CsrMatrix;
use proptest::prelude::*;
use std::sync::Arc;

fn service_config(parts: usize) -> MultisplittingConfig {
    MultisplittingConfig {
        parts,
        tolerance: 1e-9,
        ..Default::default()
    }
}

fn arb_system() -> impl Strategy<Value = (CsrMatrix, usize)> {
    (40usize..160, 1u64..300, 2usize..5).prop_map(|(n, seed, parts)| {
        (
            generators::diag_dominant(&DiagDominantConfig {
                n,
                seed,
                ..Default::default()
            }),
            parts,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // A cached `PreparedSystem` must produce bitwise-identical solutions to
    // a cold solve: same decomposition, same factorization bits, same
    // deterministic synchronous iteration.
    #[test]
    fn cached_prepared_system_is_bitwise_identical_to_cold_solve(
        sys in arb_system(),
        rhs_seed in 0u64..50,
    ) {
        let (a, parts) = sys;
        let cfg = service_config(parts);
        let (_, b) = generators::rhs_for_solution(
            &a,
            |i| ((i as u64 + rhs_seed) % 11) as f64 - 5.0,
        );
        let cold = MultisplittingSolver::new(cfg.clone()).solve(&a, &b).unwrap();
        let prepared = PreparedSystem::prepare(cfg, &a).unwrap();
        let warm_first = prepared.solve(&b).unwrap();
        let warm_again = prepared.solve(&b).unwrap();
        prop_assert!(cold.stop.converged());
        prop_assert_eq!(&cold.x, &warm_first.x);
        prop_assert_eq!(&warm_first.x, &warm_again.x);
        prop_assert_eq!(cold.stop, warm_first.stop);
        prop_assert_eq!(cold.stop.norm.to_bits(), warm_first.stop.norm.to_bits());
    }

    // Batched serving must agree with per-column serving to solver accuracy.
    #[test]
    fn batched_serving_matches_column_by_column(
        sys in arb_system(),
        ncols in 2usize..6,
    ) {
        let (a, parts) = sys;
        let cfg = service_config(parts);
        let prepared = PreparedSystem::prepare(cfg, &a).unwrap();
        let batch: Vec<Vec<f64>> = (0..ncols as u64)
            .map(|s| generators::rhs_for_solution(&a, move |i| ((i as u64 + s) % 7) as f64).1)
            .collect();
        let out = prepared.solve_many(&batch).unwrap();
        prop_assert!(out.stop.converged());
        prop_assert_eq!(out.num_rhs(), ncols);
        for (b, x_batch) in batch.iter().zip(out.columns.iter()) {
            let single = prepared.solve(b).unwrap();
            for (p, q) in x_batch.iter().zip(single.x.iter()) {
                prop_assert!((p - q).abs() < 1e-8);
            }
        }
    }
}

#[test]
fn engine_single_flights_concurrent_submissions() {
    // N submitter threads x M matrices, all racing through one engine:
    // the factorization count must equal the number of distinct matrices.
    const THREADS: usize = 6;
    const MATRICES: usize = 3;
    let mats: Vec<Arc<CsrMatrix>> = (0..MATRICES as u64)
        .map(|s| {
            Arc::new(generators::diag_dominant(&DiagDominantConfig {
                n: 250,
                seed: 100 + s,
                ..Default::default()
            }))
        })
        .collect();
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    }));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            let mats = mats.clone();
            scope.spawn(move || {
                for (m, a) in mats.iter().enumerate() {
                    let (_, b) = generators::rhs_for_solution(a, move |i| ((i + t + m) % 9) as f64);
                    let handle = engine
                        .submit(
                            SolveRequest::new(Arc::clone(a), RhsPayload::Single(b))
                                .with_config(service_config(3)),
                        )
                        .unwrap();
                    assert!(handle.wait().unwrap().converged());
                }
            });
        }
    });
    let report = engine.report();
    assert_eq!(report.jobs_completed, (THREADS * MATRICES) as u64);
    assert_eq!(
        report.factorizations, MATRICES as u64,
        "single-flight must factorize each distinct matrix exactly once: {report}"
    );
    assert_eq!(report.cached_systems, MATRICES);
    assert_eq!(report.jobs_failed, 0);
}

#[test]
fn engine_batch_answers_match_the_true_solution() {
    let a = Arc::new(generators::diag_dominant(&DiagDominantConfig {
        n: 300,
        seed: 7,
        ..Default::default()
    }));
    let solutions: Vec<(Vec<f64>, Vec<f64>)> = (0..8u64)
        .map(|s| generators::rhs_for_solution(&a, move |i| ((i as u64 + 3 * s) % 10) as f64))
        .collect();
    let batch: Vec<Vec<f64>> = solutions.iter().map(|(_, b)| b.clone()).collect();
    let engine = Engine::new(EngineConfig::default());
    let handle = engine
        .submit(
            SolveRequest::new(Arc::clone(&a), RhsPayload::Batch(batch))
                .with_config(service_config(4)),
        )
        .unwrap();
    let outcome = handle.wait().unwrap();
    assert!(outcome.converged());
    match &*outcome {
        JobOutcome::Batch(out) => {
            for ((x_true, _), x) in solutions.iter().zip(out.columns.iter()) {
                let err = x
                    .iter()
                    .zip(x_true.iter())
                    .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
                assert!(err < 1e-6, "batch column error {err}");
            }
        }
        JobOutcome::Single(_) => panic!("expected batch outcome"),
    }
    let report = engine.report();
    assert_eq!(report.rhs_served, 8);
    assert!(report.solve_seconds > 0.0);
}
