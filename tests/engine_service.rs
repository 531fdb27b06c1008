//! Integration tests of the persistent solve service through the facade:
//! cache correctness (a cached prepared system must be indistinguishable
//! from cold solves), single-flight factorization under concurrent
//! submission, and batched serving (a batch is its columns' solo solves,
//! and in the engine a batch of k right-hand sides is k jobs).

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

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
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

    // Batched serving is per-column serving: every column returns the bits
    // and the stop record of its solo solve.
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
        prop_assert_eq!(out.len(), ncols);
        for (b, col) in batch.iter().zip(out.iter()) {
            let single = prepared.solve(b).unwrap();
            prop_assert!(col.stop.converged());
            prop_assert_eq!(bits(&col.x), bits(&single.x));
            prop_assert_eq!(col.stop, single.stop);
            prop_assert_eq!(col.stop.norm.to_bits(), single.stop.norm.to_bits());
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

/// Submits every right-hand side of `batch` as its own job and waits for
/// all of them, in order.
fn submit_all(
    engine: &Engine,
    a: &Arc<CsrMatrix>,
    config: &MultisplittingConfig,
    batch: &[Vec<f64>],
) -> Vec<Arc<JobOutcome>> {
    let handles: Vec<JobHandle> = batch
        .iter()
        .map(|b| {
            engine
                .submit(
                    SolveRequest::new(Arc::clone(a), RhsPayload::Single(b.clone()))
                        .with_config(config.clone()),
                )
                .unwrap()
        })
        .collect();
    handles.iter().map(|h| h.wait().unwrap()).collect()
}

/// Asserts that `outcome` is bitwise `solo`: `x`, stop reason, iteration
/// count and norm.
fn assert_is_solo(outcome: &JobOutcome, solo: &SolveOutcome, what: &str) {
    let JobOutcome::Single(o) = outcome;
    assert_eq!(o.stop.reason, solo.stop.reason, "{what}");
    assert_eq!(o.stop.iterations, solo.stop.iterations, "{what}");
    assert_eq!(o.stop.norm.to_bits(), solo.stop.norm.to_bits(), "{what}");
    assert_eq!(bits(&o.x), bits(&solo.x), "{what}");
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
    let config = service_config(4);
    let outcomes = submit_all(&engine, &a, &config, &batch);
    let prepared = PreparedSystem::prepare(config, &a).unwrap();
    for (c, (outcome, (x_true, b))) in outcomes.iter().zip(&solutions).enumerate() {
        assert!(outcome.converged());
        assert_is_solo(outcome, &prepared.solve(b).unwrap(), &format!("job {c}"));
        let JobOutcome::Single(o) = &**outcome;
        let err =
            o.x.iter()
                .zip(x_true.iter())
                .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(err < 1e-6, "job {c} error {err}");
    }
    let report = engine.report();
    assert_eq!(report.rhs_served, 8);
    assert!(report.solve_seconds > 0.0);
}

/// Right-hand sides that stop for different reasons: the zero one converges
/// at once, the one scaled by 1e12 cannot within a small budget.  Each job
/// is still exactly its solo solve — `x` bits and the whole stop record —
/// with and without halos.
#[test]
fn a_mixed_batch_answers_each_column_as_its_solo_solve() {
    let a = Arc::new(generators::diag_dominant(&DiagDominantConfig {
        n: 120,
        seed: 11,
        ..Default::default()
    }));
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64 + 1.0);
    let batch = vec![vec![0.0; a.rows()], b.iter().map(|v| v * 1e12).collect()];
    let engine = Engine::new(EngineConfig::default());
    for method in [Method::Stationary, Method::Richardson { inner_sweeps: 1 }] {
        for parts in [1, 3] {
            // One band is a direct solve: its second sweep repeats the
            // first bit for bit and converges, so it gets a single sweep.
            let config = MultisplittingConfig {
                max_iterations: if parts == 1 { 1 } else { 5 },
                method,
                ..service_config(parts)
            };
            let outcomes = submit_all(&engine, &a, &config, &batch);
            let prepared = PreparedSystem::prepare(config, &a).unwrap();
            for (c, (outcome, b)) in outcomes.iter().zip(&batch).enumerate() {
                let solo = prepared.solve(b).unwrap();
                assert_is_solo(outcome, &solo, &format!("{method:?}, P = {parts}, job {c}"));
            }
            assert!(outcomes[0].converged(), "{method:?}, P = {parts}");
            let JobOutcome::Single(scaled) = &*outcomes[1];
            assert_eq!(
                scaled.stop.reason,
                StopReason::BudgetExhausted,
                "{method:?}, P = {parts}"
            );
            assert!(!outcomes[1].converged());
        }
    }
}
