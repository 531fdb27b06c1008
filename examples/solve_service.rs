//! Serving workloads with the persistent solve engine.
//!
//! The paper factorizes every diagonal block once and then reuses the
//! factors on every outer iteration.  The `msplit-engine` service keeps that
//! economics alive *across requests*: the first job for a matrix pays the
//! factorization, every following job — including whole batches of
//! right-hand sides — is a cache hit that goes straight to outer iterations.
//!
//! This demo measures exactly that amortization on one cage-scale matrix:
//!
//! 1. 32 independent cold `MultisplittingSolver::solve` calls (the one-shot
//!    API: decompose + factorize + solve, every time),
//! 2. one warm engine batch of the same 32 right-hand sides served by a
//!    cached prepared system in a single pass.
//!
//! Run with:
//! ```text
//! cargo run --release --example solve_service
//! ```

use multisplitting::prelude::*;
use multisplitting::sparse::generators;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 3_000;
    let parts = 4;
    let batch_size = 32;
    let a = Arc::new(generators::cage_like(n, 10));
    println!(
        "matrix: cage-like, n = {n}, nnz = {}, parts = {parts}, batch = {batch_size} rhs",
        a.nnz()
    );

    let config = MultisplittingConfig {
        parts,
        tolerance: 1e-8,
        ..Default::default()
    };
    let rhs_batch: Vec<Vec<f64>> = (0..batch_size as u64)
        .map(|s| generators::rhs_for_solution(&a, move |i| ((i as u64 + s) % 13) as f64 - 6.0).1)
        .collect();

    // Baseline: 32 independent cold solves through the one-shot API.
    let solver = MultisplittingSolver::new(config.clone());
    let cold_started = Instant::now();
    for b in &rhs_batch {
        let outcome = solver.solve(&a, b).expect("cold solve failed");
        assert!(outcome.stop.converged());
    }
    let cold_seconds = cold_started.elapsed().as_secs_f64();
    println!("cold: {batch_size} one-shot solves (refactorizing each time): {cold_seconds:.3}s");

    // Service: warm the cache with one job, then serve the batch from it.
    let engine = Engine::new(EngineConfig::default());
    let warmup = engine
        .submit(
            SolveRequest::new(Arc::clone(&a), RhsPayload::Single(rhs_batch[0].clone()))
                .with_config(config.clone()),
        )
        .expect("submit failed");
    assert!(warmup.wait().expect("warmup job failed").converged());

    let warm_started = Instant::now();
    let job = engine
        .submit(
            SolveRequest::new(Arc::clone(&a), RhsPayload::Batch(rhs_batch.clone()))
                .with_config(config)
                .with_priority(Priority::High),
        )
        .expect("submit failed");
    let outcome = job.wait().expect("batch job failed");
    let warm_seconds = warm_started.elapsed().as_secs_f64();
    assert!(outcome.converged());
    assert_eq!(outcome.rhs_count(), batch_size);
    println!("warm: 1 cache-hit batch job serving all {batch_size} rhs:    {warm_seconds:.3}s");

    let speedup = cold_seconds / warm_seconds;
    println!("speedup (cold / warm): {speedup:.1}x");

    println!("\nengine report:\n{}", engine.report());

    assert!(
        speedup >= 5.0,
        "warm cache-hit batch should be at least 5x faster than cold solves, got {speedup:.1}x"
    );
}
