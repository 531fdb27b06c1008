//! Bench of the persistent solve service: cold one-shot solves vs warm
//! cache-hit batched serving on a cage-scale matrix.
//!
//! The printed requests/sec line quantifies what the factorization cache
//! buys a serving workload: a cold request pays decomposition +
//! factorization + iteration, a warm batched request only pays iterations —
//! and amortizes even those over the whole batch through the single-pass
//! `solve_many` path.

use criterion::{criterion_group, criterion_main, Criterion};
use msplit_core::solver::MultisplittingConfig;
use msplit_core::solver::MultisplittingSolver;
use msplit_core::PreparedSystem;
use msplit_engine::{Engine, EngineConfig, RhsPayload, SolveRequest};
use msplit_sparse::generators;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 2_000;
const BATCH: usize = 16;

fn config() -> MultisplittingConfig {
    MultisplittingConfig {
        parts: 4,
        tolerance: 1e-8,
        ..Default::default()
    }
}

fn bench_engine_throughput(c: &mut Criterion) {
    let a = Arc::new(generators::cage_like(N, 10));
    let rhs: Vec<Vec<f64>> = (0..BATCH as u64)
        .map(|s| generators::rhs_for_solution(&a, move |i| ((i as u64 + s) % 11) as f64 - 5.0).1)
        .collect();

    // Requests/sec headline: cold one-shot serving vs warm batched serving.
    let solver = MultisplittingSolver::new(config());
    let started = Instant::now();
    for b in rhs.iter() {
        assert!(solver.solve(&a, b).expect("cold solve").stop.converged());
    }
    let cold_rps = BATCH as f64 / started.elapsed().as_secs_f64();

    let engine = Engine::new(EngineConfig::default());
    let warm = engine
        .submit(
            SolveRequest::new(Arc::clone(&a), RhsPayload::Single(rhs[0].clone()))
                .with_config(config()),
        )
        .expect("submit");
    assert!(warm.wait().expect("warmup").converged());
    let started = Instant::now();
    let job = engine
        .submit(
            SolveRequest::new(Arc::clone(&a), RhsPayload::Batch(rhs.clone())).with_config(config()),
        )
        .expect("submit");
    assert!(job.wait().expect("batch").converged());
    let warm_rps = BATCH as f64 / started.elapsed().as_secs_f64();
    println!(
        "engine_throughput: n = {N}, batch = {BATCH}: cold {cold_rps:.1} req/s vs warm cache-hit batch {warm_rps:.1} req/s ({:.1}x)",
        warm_rps / cold_rps
    );
    println!("{}", engine.report());

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    group.bench_function("cold_single_solve", |bench| {
        let solver = MultisplittingSolver::new(config());
        bench.iter(|| solver.solve(&a, &rhs[0]).expect("cold solve"))
    });
    group.bench_function("warm_single_solve", |bench| {
        let prepared = PreparedSystem::prepare(config(), &a).expect("prepare");
        bench.iter(|| prepared.solve(&rhs[0]).expect("warm solve"))
    });
    group.bench_function("warm_batched_solve_many", |bench| {
        let prepared = PreparedSystem::prepare(config(), &a).expect("prepare");
        bench.iter(|| prepared.solve_many(&rhs).expect("warm batch"))
    });
    group.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
