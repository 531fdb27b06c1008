//! Shared helpers for the benchmark harness.
//!
//! The `reproduce` binary needs a common experiment scale: small enough that
//! a run completes in minutes, large enough that the measured work profiles
//! are not dominated by fixed overheads.
//!
//! # Place in the runtime architecture
//!
//! In the engine/policy/adapter architecture documented at the top of
//! [`msplit_core`] (see the diagram in `crates/core/src/lib.rs`), this crate
//! stands outside the runtime proper: it scales the
//! [`msplit_core::experiment`] descriptors so the `reproduce` binary
//! exercises every adapter at a CI-friendly size.

use msplit_core::experiment::ExperimentConfig;
use msplit_dense::BandMatrix;

/// Diagonally dominant pentadiagonal band matrix (kl = ku = 2), the band
/// kernel workload of `perf-report`.
pub fn penta_band(n: usize) -> BandMatrix {
    let mut b = BandMatrix::zeros(n, 2, 2);
    for i in 0..n {
        b.set(i, i, 8.0);
        for d in 1..=2usize {
            if i >= d {
                b.set(i, i - d, -1.0);
            }
            if i + d < n {
                b.set(i, i + d, -1.0);
            }
        }
    }
    b
}

/// Experiment configuration used by the `reproduce` binary by default.
pub fn reproduce_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.05,
        min_n: 500,
        tolerance: 1e-8,
        max_iterations: 50_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_workloads_are_well_formed() {
        let b = penta_band(10);
        assert_eq!(b.order(), 10);
        assert_eq!(b.get(0, 0), 8.0);
        assert_eq!(b.get(2, 0), -1.0);
    }

    #[test]
    fn configs_are_scaled_down_but_not_degenerate() {
        let repro = reproduce_config();
        assert!(repro.scale < 1.0);
        assert!(repro.min_n >= 100);
        assert_eq!(repro.tolerance, 1e-8);
    }
}
