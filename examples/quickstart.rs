//! Quickstart: solve a diagonally dominant sparse system with the
//! multisplitting-direct solver in both execution modes.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use multisplitting::sparse::properties::MatrixProperties;

fn main() {
    // A strictly diagonally dominant nonsymmetric matrix: Proposition 1 of the
    // paper guarantees convergence of both the synchronous and asynchronous
    // multisplitting-direct iterations.
    let n = 4_000;
    let a = generators::diag_dominant(&DiagDominantConfig {
        n,
        offdiag_per_row: 6,
        half_bandwidth: 50,
        dominance_margin: 0.1,
        seed: 42,
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.01).sin());

    let props = MatrixProperties::analyze(&a);
    println!(
        "matrix: n = {n}, nnz = {}, strictly dominant = {}, rho(|J|) ~= {:.3}",
        props.nnz, props.strictly_dominant, props.jacobi_radius
    );
    println!(
        "convergence guaranteed by the paper's sufficient conditions: {}",
        props.convergence_guaranteed()
    );

    for mode in [ExecutionMode::Synchronous, ExecutionMode::Asynchronous] {
        let outcome = MultisplittingSolver::builder()
            .parts(8)
            .solver_kind(SolverKind::SparseLu)
            .tolerance(1e-8)
            .mode(mode)
            .build()
            .solve(&a, &b)
            .expect("solve failed");

        let per_part: Vec<u64> = outcome.part_reports.iter().map(|r| r.iterations).collect();
        let err = outcome
            .x
            .iter()
            .zip(&x_true)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        println!(
            "{mode:?}: converged = {}, iterations = {} (per part: {:?}), \
             residual = {:.2e}, error vs exact = {:.2e}, wall = {:.3}s, \
             factorization (max over parts) = {:.4}s",
            outcome.stop.converged(),
            outcome.stop.iterations,
            per_part,
            outcome.residual(&a, &b),
            err,
            outcome.wall_seconds,
            outcome.max_factor_seconds(),
        );
    }
}
