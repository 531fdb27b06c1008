//! Synthetic workload generators.
//!
//! The paper's experiments use two families of matrices:
//!
//! 1. the `cage10/11/12` DNA-electrophoresis matrices from the University of
//!    Florida sparse matrix collection (nonsymmetric, irreducibly diagonally
//!    dominant, a handful of nonzeros per row), and
//! 2. matrices produced by the authors' own generator of diagonally dominant
//!    matrices, one of which is tuned so that the block-Jacobi spectral radius
//!    is "close to 1" to study the effect of overlapping (Figure 3).
//!
//! The collection is not redistributable inside this repository, so
//! [`cage_like`] generates matrices with the same qualitative properties
//! (structure, dominance, nonsymmetry) at any size, and
//! [`spectral_radius_targeted`] reproduces the "ρ close to 1" regime
//! explicitly.  Real MatrixMarket files can still be used through
//! [`crate::io::read_matrix_market`].

use crate::builder::TripletBuilder;
use crate::csr::CsrMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tridiagonal matrix with constant diagonal `diag` and off-diagonal `off`.
pub fn tridiagonal(n: usize, diag: f64, off: f64) -> CsrMatrix {
    let mut b = TripletBuilder::square(n);
    for i in 0..n {
        b.push(i, i, diag).unwrap();
        if i > 0 {
            b.push(i, i - 1, off).unwrap();
        }
        if i + 1 < n {
            b.push(i, i + 1, off).unwrap();
        }
    }
    b.build_csr()
}

/// Standard 5-point 2-D Poisson (Laplacian) operator on a `k x k` grid.
///
/// The resulting matrix has order `k²`, is symmetric, irreducibly diagonally
/// dominant and an M-matrix — the canonical member of the "important class of
/// linear systems" of Section 5 of the paper.
pub fn poisson_2d(k: usize) -> CsrMatrix {
    let n = k * k;
    let mut b = TripletBuilder::square(n);
    let idx = |i: usize, j: usize| i * k + j;
    for i in 0..k {
        for j in 0..k {
            let row = idx(i, j);
            b.push(row, row, 4.0).unwrap();
            if i > 0 {
                b.push(row, idx(i - 1, j), -1.0).unwrap();
            }
            if i + 1 < k {
                b.push(row, idx(i + 1, j), -1.0).unwrap();
            }
            if j > 0 {
                b.push(row, idx(i, j - 1), -1.0).unwrap();
            }
            if j + 1 < k {
                b.push(row, idx(i, j + 1), -1.0).unwrap();
            }
        }
    }
    b.build_csr()
}

/// Parameters for the random diagonally dominant generator.
#[derive(Debug, Clone)]
pub struct DiagDominantConfig {
    /// Matrix order.
    pub n: usize,
    /// Number of off-diagonal entries per row (clamped to `n - 1`).
    pub offdiag_per_row: usize,
    /// Half-bandwidth within which the off-diagonal entries are placed.
    /// Keeping the entries near the diagonal mirrors the banded structure of
    /// the paper's generated matrices and keeps the band decomposition's
    /// dependency blocks small.
    pub half_bandwidth: usize,
    /// Dominance margin: the diagonal is set to
    /// `(1 + margin) * (sum of |off-diagonal|)` so that rows are strictly
    /// diagonally dominant for any `margin > 0`.
    pub dominance_margin: f64,
    /// RNG seed (generation is fully deterministic for a given config).
    pub seed: u64,
}

impl Default for DiagDominantConfig {
    fn default() -> Self {
        DiagDominantConfig {
            n: 1000,
            offdiag_per_row: 6,
            half_bandwidth: 50,
            dominance_margin: 0.1,
            seed: 0x5eed,
        }
    }
}

/// Generates a strictly diagonally dominant nonsymmetric sparse matrix.
///
/// This mirrors the authors' generator for the `500000` and `100000`
/// matrices: banded structure, a few nonzeros per row, strict dominance so
/// that Proposition 1 guarantees convergence of the multisplitting iteration.
pub fn diag_dominant(config: &DiagDominantConfig) -> CsrMatrix {
    let n = config.n;
    let k = config.offdiag_per_row.min(n.saturating_sub(1));
    let hb = config.half_bandwidth.max(1);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut b = TripletBuilder::square(n);
    for i in 0..n {
        let mut row_sum = 0.0;
        let mut used = std::collections::BTreeSet::new();
        used.insert(i);
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < k && attempts < 20 * k {
            attempts += 1;
            let lo = i.saturating_sub(hb);
            let hi = (i + hb).min(n - 1);
            let j = rng.gen_range(lo..=hi);
            if used.contains(&j) {
                continue;
            }
            used.insert(j);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let v = if v == 0.0 { 0.5 } else { v };
            b.push(i, j, v).unwrap();
            row_sum += v.abs();
            placed += 1;
        }
        let diag = (1.0 + config.dominance_margin) * row_sum.max(1.0);
        b.push(i, i, diag).unwrap();
    }
    b.build_csr()
}

/// Generates a "cage-like" matrix: a nonsymmetric, irreducibly diagonally
/// dominant banded matrix resembling the `cageXX` DNA-electrophoresis models
/// (roughly 8–17 nonzeros per row, positive diagonal, mixed-sign off-diagonal
/// couplings along a few regular stencils).
///
/// The cage matrices are transition matrices of a Markov chain model of DNA
/// electrophoresis: every row sums to a positive diagonal that dominates the
/// off-diagonal magnitudes.  We reproduce that dominance and the banded,
/// multi-stencil structure; the guaranteed irreducibility comes from always
/// connecting `i ↔ i+1`.
pub fn cage_like(n: usize, seed: u64) -> CsrMatrix {
    assert!(n >= 2, "cage_like requires n >= 2");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TripletBuilder::square(n);
    // A handful of fixed stencil offsets plus two long-range offsets reproduce
    // the ~8-17 nnz/row of the cage family.  The long-range offsets are capped
    // so that the bandwidth (and therefore the direct-solver fill) stays
    // bounded as n grows, keeping paper-scale instances tractable for the
    // benchmark harness.
    let long1 = (n / 13).clamp(2, 150);
    let long2 = (n / 7).clamp(3, 400);
    let offsets: [isize; 8] = [
        -1,
        1,
        -2,
        2,
        -(long1 as isize),
        long1 as isize,
        -(long2 as isize),
        long2 as isize,
    ];
    for i in 0..n {
        let mut row_sum = 0.0;
        let mut used = std::collections::BTreeSet::new();
        used.insert(i);
        for &off in &offsets {
            let j = i as isize + off;
            if j < 0 || j >= n as isize {
                continue;
            }
            let j = j as usize;
            if used.contains(&j) {
                continue;
            }
            used.insert(j);
            // Nonsymmetric: magnitude depends on direction and position.
            let magnitude: f64 = rng.gen_range(0.05..0.6);
            let sign = if rng.gen_bool(0.8) { -1.0 } else { 1.0 };
            let v = sign * magnitude;
            b.push(i, j, v).unwrap();
            row_sum += v.abs();
        }
        // Weak rows are allowed as long as at least one row is strict and the
        // matrix is irreducible; we keep every row strictly dominant with a
        // small margin, matching the measured dominance of the cage family.
        let diag = row_sum * (1.0 + rng.gen_range(0.02..0.3)) + 0.1;
        b.push(i, i, diag).unwrap();
    }
    b.build_csr()
}

/// Parameters for the convection–diffusion generator.
#[derive(Debug, Clone)]
pub struct ConvectionDiffusionConfig {
    /// Grid dimension: the matrix has order `k²`.
    pub k: usize,
    /// Cell Péclet number in `[0, 1)`.  `0` recovers the symmetric Poisson
    /// operator; any positive value makes the east/west couplings lopsided
    /// and the operator genuinely nonsymmetric, which rules out
    /// symmetric-Krylov shortcuts and is the regime the flexible (FGMRES)
    /// acceleration in the core crate's `krylov` module targets.
    pub peclet: f64,
    /// Relative amplitude of a seeded random perturbation applied to the
    /// off-diagonal couplings (`0.0` disables it).  The perturbation breaks
    /// the constant-stencil structure without touching the dominance margin,
    /// so the generated operators stay safely solvable while being less
    /// friendly to the band decomposition than a pure stencil.
    pub skew: f64,
    /// RNG seed used when `skew > 0` (generation is deterministic).
    pub seed: u64,
}

impl Default for ConvectionDiffusionConfig {
    fn default() -> Self {
        ConvectionDiffusionConfig {
            k: 32,
            peclet: 0.9,
            skew: 0.0,
            seed: 0xd1ff,
        }
    }
}

/// Upwinded 2-D convection–diffusion operator on a `k x k` grid.
///
/// The 5-point stencil is the Poisson operator with the horizontal couplings
/// biased by the cell Péclet number `p = peclet`:
///
/// ```text
/// west  = -(1 + p)      east  = -(1 - p)
/// north = -1            south = -1        diag = 4
/// ```
///
/// Every row still sums to a nonnegative value (`|west| + |east| = 2` exactly,
/// independent of `p`), so the matrix remains weakly diagonally dominant with
/// strict dominance on the boundary rows, irreducible (the grid graph is
/// connected) — hence irreducibly diagonally dominant and covered by the
/// paper's Proposition 1.
///
/// Two knobs make it a stress test for the stationary multisplitting sweep:
///
/// * **Mesh refinement (`k`)** drives the ill-conditioning.  The band
///   decomposition cuts between grid rows, and the north/south couplings
///   that cross those cuts shrink relative to the spectrum as `k` grows, so
///   the block-Jacobi spectral radius climbs toward 1 — with thin bands
///   (few grid rows per part) the stationary sweep takes hundreds to
///   thousands of iterations.
/// * **Péclet (`p`)** controls nonsymmetry.  The convection runs *along*
///   the bands, so it does not rescue the cross-band contraction (measured:
///   moderate Péclet keeps the stationary count within a small factor of
///   the Poisson worst case) while making the operator far from symmetric.
///
/// This is the workload the `perf-report` `krylov` table uses to demonstrate
/// the FGMRES outer-iteration advantage.
pub fn convection_diffusion(config: &ConvectionDiffusionConfig) -> CsrMatrix {
    let k = config.k;
    let p = config.peclet;
    assert!(k >= 2, "convection_diffusion requires k >= 2");
    assert!(
        (0.0..1.0).contains(&p),
        "peclet must lie in [0, 1), got {p}"
    );
    assert!(
        (0.0..1.0).contains(&config.skew),
        "skew must lie in [0, 1), got {}",
        config.skew
    );
    let n = k * k;
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut b = TripletBuilder::square(n);
    let idx = |i: usize, j: usize| i * k + j;
    // Scales a coupling by a seeded factor in [1 - skew, 1].  Shrinking (never
    // growing) magnitudes preserves weak row dominance unconditionally.
    let mut perturb = |v: f64| {
        if config.skew == 0.0 {
            v
        } else {
            v * (1.0 - rng.gen_range(0.0..config.skew))
        }
    };
    for i in 0..k {
        for j in 0..k {
            let row = idx(i, j);
            b.push(row, row, 4.0).unwrap();
            if i > 0 {
                b.push(row, idx(i - 1, j), perturb(-1.0)).unwrap();
            }
            if i + 1 < k {
                b.push(row, idx(i + 1, j), perturb(-1.0)).unwrap();
            }
            if j > 0 {
                b.push(row, idx(i, j - 1), perturb(-(1.0 + p))).unwrap();
            }
            if j + 1 < k {
                b.push(row, idx(i, j + 1), perturb(-(1.0 - p))).unwrap();
            }
        }
    }
    b.build_csr()
}

/// Generates a symmetric-structure matrix whose **point-Jacobi** spectral
/// radius is (approximately) the prescribed `rho`.
///
/// Construction: start from the tridiagonal stencil `[-1, 2, -1]` whose
/// Jacobi iteration matrix has spectral radius `cos(π/(n+1))`, then scale the
/// diagonal so that the radius becomes exactly `rho` for the point-Jacobi
/// splitting: with diagonal `d` and off-diagonal `-1`, the Jacobi matrix is
/// `(1/d) * |offdiag pattern|`, whose radius is `2 cos(π/(n+1)) / d`.
///
/// Matrices with `rho` close to 1 need many block-Jacobi iterations, which is
/// exactly the regime where the overlapping study of Figure 3 is interesting.
pub fn spectral_radius_targeted(n: usize, rho: f64) -> CsrMatrix {
    assert!(n >= 2, "need n >= 2");
    assert!(rho > 0.0 && rho < 1.0, "rho must lie in (0, 1)");
    let lambda_max = 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
    let d = lambda_max / rho;
    tridiagonal(n, d, -1.0)
}

/// Builds a right-hand side `b = A x*` for the prescribed exact solution
/// `x*[i] = f(i)`, so tests can verify the solver reproduces `x*`.
pub fn rhs_for_solution(a: &CsrMatrix, f: impl Fn(usize) -> f64) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..a.cols()).map(f).collect();
    let b = a.spmv(&x).expect("square matrix has matching dimensions");
    (x, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn tridiagonal_shape_and_values() {
        let a = tridiagonal(5, 2.0, -1.0);
        assert_eq!(a.rows(), 5);
        assert_eq!(a.nnz(), 5 + 2 * 4);
        assert_eq!(a.get(2, 2), 2.0);
        assert_eq!(a.get(2, 3), -1.0);
    }

    #[test]
    fn poisson_2d_is_m_matrix_like() {
        let a = poisson_2d(4);
        assert_eq!(a.rows(), 16);
        assert!(properties::is_z_matrix(&a));
        assert!(properties::is_weakly_diagonally_dominant(&a));
        assert!(properties::is_irreducibly_diagonally_dominant(&a));
    }

    #[test]
    fn diag_dominant_is_strictly_dominant() {
        let a = diag_dominant(&DiagDominantConfig {
            n: 200,
            offdiag_per_row: 5,
            half_bandwidth: 20,
            dominance_margin: 0.2,
            seed: 42,
        });
        assert_eq!(a.rows(), 200);
        assert!(properties::is_strictly_diagonally_dominant(&a));
    }

    #[test]
    fn diag_dominant_is_deterministic() {
        let cfg = DiagDominantConfig {
            n: 50,
            seed: 7,
            ..Default::default()
        };
        assert_eq!(diag_dominant(&cfg), diag_dominant(&cfg));
    }

    #[test]
    fn cage_like_has_expected_properties() {
        let a = cage_like(300, 1);
        assert_eq!(a.rows(), 300);
        assert!(properties::is_strictly_diagonally_dominant(&a));
        assert!(crate::graph::is_irreducible(&a));
        // nnz per row in the cage-ish range (structure has up to 9 entries/row)
        let avg = a.nnz() as f64 / 300.0;
        assert!(avg > 4.0 && avg < 17.0, "avg nnz/row = {avg}");
        // nonsymmetric in values
        let t = a.transpose();
        assert_ne!(a, t);
    }

    #[test]
    fn convection_diffusion_zero_peclet_is_poisson() {
        let a = convection_diffusion(&ConvectionDiffusionConfig {
            k: 6,
            peclet: 0.0,
            skew: 0.0,
            ..Default::default()
        });
        assert_eq!(a, poisson_2d(6));
    }

    #[test]
    fn convection_diffusion_is_irreducibly_dominant_and_nonsymmetric() {
        for &peclet in &[0.3, 0.9, 0.99] {
            let a = convection_diffusion(&ConvectionDiffusionConfig {
                k: 12,
                peclet,
                skew: 0.0,
                ..Default::default()
            });
            assert_eq!(a.rows(), 144);
            assert!(properties::is_weakly_diagonally_dominant(&a));
            assert!(properties::is_irreducibly_diagonally_dominant(&a));
            assert!(crate::graph::is_irreducible(&a));
            assert_ne!(a, a.transpose(), "peclet {peclet} must break symmetry");
        }
    }

    #[test]
    fn convection_diffusion_upwind_couplings() {
        let cfg = ConvectionDiffusionConfig {
            k: 8,
            peclet: 0.75,
            skew: 0.0,
            ..Default::default()
        };
        let a = convection_diffusion(&cfg);
        // Interior row (i = j = 4): west is strengthened, east weakened.
        let row = 4 * 8 + 4;
        assert_eq!(a.get(row, row), 4.0);
        assert_eq!(a.get(row, row - 1), -1.75);
        assert_eq!(a.get(row, row + 1), -0.25);
        assert_eq!(a.get(row, row - 8), -1.0);
        assert_eq!(a.get(row, row + 8), -1.0);
    }

    #[test]
    fn convection_diffusion_skew_keeps_dominance_and_determinism() {
        let cfg = ConvectionDiffusionConfig {
            k: 10,
            peclet: 0.8,
            skew: 0.35,
            seed: 99,
        };
        let a = convection_diffusion(&cfg);
        assert!(properties::is_irreducibly_diagonally_dominant(&a));
        assert!(crate::graph::is_irreducible(&a));
        assert_eq!(a, convection_diffusion(&cfg));
        // The perturbation must actually change something.
        let unskewed = convection_diffusion(&ConvectionDiffusionConfig { skew: 0.0, ..cfg });
        assert_ne!(a, unskewed);
    }

    #[test]
    fn spectral_radius_targeted_hits_target() {
        let rho = 0.95;
        let a = spectral_radius_targeted(100, rho);
        let est = properties::jacobi_spectral_radius(&a, 2000, 1e-10);
        assert!(
            (est - rho).abs() < 0.01,
            "estimated rho {est} differs from target {rho}"
        );
    }

    #[test]
    fn rhs_for_solution_round_trip() {
        let a = tridiagonal(10, 4.0, -1.0);
        let (x, b) = rhs_for_solution(&a, |i| i as f64);
        assert_eq!(x.len(), 10);
        assert_eq!(b.len(), 10);
        // b[0] = 4*0 - 1*1 = -1
        assert_eq!(b[0], -1.0);
    }
}
