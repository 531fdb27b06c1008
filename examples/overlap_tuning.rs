//! Overlap tuning: reproduce the trade-off of Figure 3 on a single machine.
//!
//! Overlapping the bands (discrete Schwarz) reduces the number of outer
//! iterations but makes every diagonal block — and therefore its one-off
//! factorization — larger.  The best overlap balances the two effects.
//!
//! Run with:
//! ```text
//! cargo run --release --example overlap_tuning
//! ```

use multisplitting::prelude::*;
use multisplitting::sparse::generators;

fn main() {
    // A matrix whose point-Jacobi spectral radius is close to 1: plain block
    // Jacobi needs many iterations, which is exactly when overlap pays off.
    let n = 6_000;
    let a = generators::spectral_radius_targeted(n, 0.99);
    let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 3) as f64);
    let parts = 8;

    println!(
        "{:>8}  {:>10}  {:>12}  {:>12}  {:>10}",
        "overlap", "iters", "factor(s)", "total(s)", "residual"
    );
    for overlap in [0usize, 25, 50, 100, 200, 300, 400] {
        let outcome = MultisplittingSolver::builder()
            .parts(parts)
            .overlap(overlap)
            .weighting(WeightingScheme::OwnerTakes)
            .solver_kind(SolverKind::SparseLu)
            .tolerance(1e-8)
            .max_iterations(100_000)
            .build()
            .solve(&a, &b)
            .expect("solve failed");
        println!(
            "{:>8}  {:>10}  {:>12.4}  {:>12.4}  {:>10.2e}",
            overlap,
            outcome.stop.iterations,
            outcome.max_factor_seconds(),
            outcome.wall_seconds,
            outcome.residual(&a, &b),
        );
    }
    println!();
    println!(
        "The iteration count falls as the overlap grows while the factorization cost rises;\n\
         the paper's Figure 3 finds the optimum total time at an intermediate overlap (2500 rows\n\
         for its 100000-unknown matrix)."
    );
}
