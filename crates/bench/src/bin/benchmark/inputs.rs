//! Seeded inputs.  `--seed` reaches only this module: the program under test
//! receives generated matrices and vectors, never the seed or a workload name.

use msplit_core::solver::{ExecutionMode, Method, MultisplittingConfig};
use msplit_core::WeightingScheme;
use msplit_direct::SolverKind;
use msplit_sparse::generators::{self, ConvectionDiffusionConfig, DiagDominantConfig};
use msplit_sparse::CsrMatrix;

/// SplitMix64: a seeded stream for right-hand sides and key sequences.
pub struct Rng(u64);

impl Rng {
    /// A stream of its own for every `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The paper's cage-type matrix.
pub fn cage(n: usize, seed: u64) -> CsrMatrix {
    generators::cage_like(n, seed)
}

/// The nonsymmetric convection–diffusion system of order `k²` on which the
/// iteration path, not the factorization, sets the time.
pub fn convection_diffusion(k: usize, seed: u64) -> CsrMatrix {
    generators::convection_diffusion(&ConvectionDiffusionConfig {
        k,
        skew: 0.1,
        seed,
        ..Default::default()
    })
}

/// The banded strictly dominant matrix the serve workloads send.
pub fn diag_dominant(n: usize, seed: u64) -> CsrMatrix {
    generators::diag_dominant(&DiagDominantConfig {
        n,
        seed,
        ..Default::default()
    })
}

/// `count` right-hand sides `b = A x*` with `x*` uniform in `[-1, 1)`.
pub fn rhs_pool(a: &CsrMatrix, rng: &mut Rng, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| {
            let x: Vec<f64> = (0..a.cols()).map(|_| rng.unit()).collect();
            a.spmv(&x).expect("x has one entry per column")
        })
        .collect()
}

/// The configuration every workload solves with: the paper's tolerance,
/// owner-takes weighting, no overlap, synchronous mode.
pub fn solve_config(parts: usize, solver_kind: SolverKind, method: Method) -> MultisplittingConfig {
    MultisplittingConfig {
        parts,
        overlap: 0,
        weighting: WeightingScheme::OwnerTakes,
        solver_kind,
        tolerance: 1e-8,
        mode: ExecutionMode::Synchronous,
        method,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = diag_dominant(200, 9);
        assert_eq!(a.fingerprint(), diag_dominant(200, 9).fingerprint());
        assert_ne!(a.fingerprint(), diag_dominant(200, 10).fingerprint());
        let pool = |seed| rhs_pool(&a, &mut Rng::new(seed, 1), 2);
        assert_eq!(pool(5), pool(5));
        assert_ne!(pool(5), pool(6));
        assert_ne!(pool(5)[0], pool(5)[1]);
        let mut rng = Rng::new(1, 2);
        assert!((0..1000).all(|_| (-1.0..1.0).contains(&rng.unit())));
    }
}
