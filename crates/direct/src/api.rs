//! Abstract direct-solver interface used by the multisplitting drivers.
//!
//! Section 2 of the paper stresses that the multisplitting wrapper can use
//! *any* sequential direct solver — dense, band or sparse.  The drivers in
//! `msplit-core` therefore talk to the trait-object interface defined here
//! and the concrete solver is chosen per experiment:
//!
//! * [`SparseLuSolver`] — the Gilbert–Peierls sparse LU (SuperLU stand-in),
//! * [`DenseLuSolver`] — dense LU with partial pivoting, for small blocks,
//! * [`BandLuSolver`] — band LU for banded diagonal blocks.
//!
//! A [`Factorization`] is produced once per diagonal block (the expensive
//! step measured by the "factorization time" column of the tables) and reused
//! for every outer iteration's triangular solves.

use crate::gplu::{SolveScratch, SparseLu, SparseLuConfig};
use crate::stats::FactorStats;
use crate::DirectError;
use msplit_dense::{BandLu, BandMatrix, DenseLu};
use msplit_sparse::ordering::bandwidth;
use msplit_sparse::CsrMatrix;

/// A reusable factorization of a square matrix.
pub trait Factorization: Send + Sync {
    /// Order of the factored matrix.
    fn order(&self) -> usize;

    /// Solves `A x = b` for one right-hand side.
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DirectError>;

    /// Solves `A x = b` in place: on entry `b` holds the right-hand side, on
    /// exit the solution.  `scratch` is a caller-retained workspace
    /// ([`SolveScratch`]), so with a warm scratch the solve performs **no
    /// heap allocation** — this is the per-iteration kernel of the
    /// multisplitting drivers.  The result is bitwise identical to
    /// [`Factorization::solve`].
    ///
    /// The default implementation falls back to [`Factorization::solve`] and
    /// copies the result back; the sparse, dense and band factorizations all
    /// override it with genuinely in-place kernels.
    fn solve_into(&self, b: &mut [f64], scratch: &mut SolveScratch) -> Result<(), DirectError> {
        let _ = scratch;
        let x = self.solve(b)?;
        b.copy_from_slice(&x);
        Ok(())
    }

    /// The underlying [`SparseLu`], when this factorization is the sparse
    /// kind — the test hook `tests/kernel_equivalence.rs` uses to compare
    /// pooled and serial factors entry by entry.  `None` for dense and band
    /// factorizations.
    fn as_sparse_lu(&self) -> Option<&SparseLu> {
        None
    }

    /// Factorization statistics (fill, flops, timing, memory).
    fn stats(&self) -> &FactorStats;
}

/// A direct solver: something that can factorize a sparse matrix.
pub trait DirectSolver: Send + Sync {
    /// Human-readable solver name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Factorizes `a`, producing a reusable [`Factorization`].
    fn factorize(&self, a: &CsrMatrix) -> Result<Box<dyn Factorization>, DirectError>;
}

/// Declarative choice of direct solver, serializable into experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Sparse Gilbert–Peierls LU with the default configuration.
    #[default]
    SparseLu,
    /// Dense LU with partial pivoting.
    DenseLu,
    /// Band LU (fails with [`DirectError::Unsupported`] if the bandwidth
    /// exceeds a quarter of the matrix order, where dense is the better call).
    BandLu,
}

impl SolverKind {
    /// Instantiates the chosen solver.
    pub fn build(self) -> Box<dyn DirectSolver> {
        match self {
            SolverKind::SparseLu => Box::new(SparseLuSolver::default()),
            SolverKind::DenseLu => Box::new(DenseLuSolver),
            SolverKind::BandLu => Box::new(BandLuSolver::default()),
        }
    }

    /// All available kinds (used by ablation benches).
    pub fn all() -> [SolverKind; 3] {
        [
            SolverKind::SparseLu,
            SolverKind::DenseLu,
            SolverKind::BandLu,
        ]
    }
}

// ---------------------------------------------------------------------------
// Sparse LU
// ---------------------------------------------------------------------------

/// Sparse Gilbert–Peierls LU solver.
#[derive(Debug, Clone, Default)]
pub struct SparseLuSolver {
    /// Factorization configuration (ordering, pivot threshold, dropping).
    pub config: SparseLuConfig,
}

impl SparseLuSolver {
    /// Creates a solver with an explicit configuration.
    pub fn new(config: SparseLuConfig) -> Self {
        SparseLuSolver { config }
    }
}

impl DirectSolver for SparseLuSolver {
    fn name(&self) -> &'static str {
        "sparse-lu"
    }

    fn factorize(&self, a: &CsrMatrix) -> Result<Box<dyn Factorization>, DirectError> {
        let lu = SparseLu::factorize_with(a, &self.config)?;
        Ok(Box::new(SparseLuFactorization { lu }))
    }
}

struct SparseLuFactorization {
    lu: SparseLu,
}

impl Factorization for SparseLuFactorization {
    fn order(&self) -> usize {
        self.lu.order()
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DirectError> {
        self.lu.solve(b)
    }

    fn solve_into(&self, b: &mut [f64], scratch: &mut SolveScratch) -> Result<(), DirectError> {
        self.lu.solve_into(b, scratch)
    }

    fn as_sparse_lu(&self) -> Option<&SparseLu> {
        Some(&self.lu)
    }

    fn stats(&self) -> &FactorStats {
        self.lu.stats()
    }
}

// ---------------------------------------------------------------------------
// Dense LU
// ---------------------------------------------------------------------------

/// Dense LU solver (partial pivoting).  Appropriate for small or nearly-full
/// diagonal blocks; memory grows as `n²`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseLuSolver;

impl DirectSolver for DenseLuSolver {
    fn name(&self) -> &'static str {
        "dense-lu"
    }

    fn factorize(&self, a: &CsrMatrix) -> Result<Box<dyn Factorization>, DirectError> {
        if !a.is_square() {
            return Err(DirectError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let start = std::time::Instant::now();
        let dense = a.to_dense();
        let lu = DenseLu::factorize(&dense)?;
        let n = a.rows();
        let stats = FactorStats {
            n,
            nnz_a: a.nnz(),
            // Dense factors store the full triangles.
            nnz_l: n * (n + 1) / 2,
            nnz_u: n * (n + 1) / 2,
            flops: lu.flops(),
            symbolic_edges: 0,
            factor_seconds: start.elapsed().as_secs_f64(),
        };
        Ok(Box::new(DenseLuFactorization { lu, stats }))
    }
}

struct DenseLuFactorization {
    lu: DenseLu,
    stats: FactorStats,
}

impl Factorization for DenseLuFactorization {
    fn order(&self) -> usize {
        self.lu.order()
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DirectError> {
        Ok(self.lu.solve(b)?)
    }

    fn solve_into(&self, b: &mut [f64], scratch: &mut SolveScratch) -> Result<(), DirectError> {
        Ok(self.lu.solve_into(b, scratch.raw())?)
    }

    fn stats(&self) -> &FactorStats {
        &self.stats
    }
}

// ---------------------------------------------------------------------------
// Band LU
// ---------------------------------------------------------------------------

/// Band LU solver.  The bandwidth is detected from the sparsity pattern; the
/// solver refuses matrices whose bandwidth makes band storage wasteful.
#[derive(Debug, Clone, Copy)]
pub struct BandLuSolver {
    /// Maximum accepted ratio `bandwidth / n`; beyond it the band storage is
    /// denser than useful and the solver reports [`DirectError::Unsupported`].
    pub max_bandwidth_fraction: f64,
}

impl Default for BandLuSolver {
    fn default() -> Self {
        BandLuSolver {
            max_bandwidth_fraction: 0.25,
        }
    }
}

impl DirectSolver for BandLuSolver {
    fn name(&self) -> &'static str {
        "band-lu"
    }

    fn factorize(&self, a: &CsrMatrix) -> Result<Box<dyn Factorization>, DirectError> {
        if !a.is_square() {
            return Err(DirectError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let bw = bandwidth(a);
        if n > 8 && (bw as f64) > self.max_bandwidth_fraction * n as f64 {
            return Err(DirectError::Unsupported(format!(
                "bandwidth {bw} too large for band storage of order {n}"
            )));
        }
        let start = std::time::Instant::now();
        let mut band = BandMatrix::zeros(n, bw, bw);
        for (i, j, v) in a.iter() {
            band.set(i, j, v);
        }
        let lu = BandLu::factorize(&band)?;
        // Band factors store (kl + ku + 1) * n entries at most.
        let stored = (2 * bw + 1) * n;
        let stats = FactorStats {
            n,
            nnz_a: a.nnz(),
            nnz_l: stored / 2 + n / 2,
            nnz_u: stored - stored / 2,
            flops: lu.flops(),
            symbolic_edges: 0,
            factor_seconds: start.elapsed().as_secs_f64(),
        };
        Ok(Box::new(BandLuFactorization { lu, stats }))
    }
}

struct BandLuFactorization {
    lu: BandLu,
    stats: FactorStats,
}

impl Factorization for BandLuFactorization {
    fn order(&self) -> usize {
        self.lu.order()
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DirectError> {
        Ok(self.lu.solve(b)?)
    }

    fn solve_into(&self, b: &mut [f64], _scratch: &mut SolveScratch) -> Result<(), DirectError> {
        // The band factorization has no pivot permutation: fully in place.
        Ok(self.lu.solve_into(b)?)
    }

    fn stats(&self) -> &FactorStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_sparse::generators;

    fn check_kind(kind: SolverKind, a: &CsrMatrix, tol: f64) {
        let (x_true, b) = generators::rhs_for_solution(a, |i| 1.0 + (i % 5) as f64);
        let solver = kind.build();
        let factor = solver.factorize(a).unwrap();
        assert_eq!(factor.order(), a.rows());
        let x = factor.solve(&b).unwrap();
        let err = x
            .iter()
            .zip(x_true.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(err < tol, "{}: error {err} exceeds {tol}", solver.name());
        assert!(factor.stats().flops > 0 || kind == SolverKind::SparseLu);
    }

    #[test]
    fn all_kinds_solve_a_banded_dominant_system() {
        let a = generators::tridiagonal(50, 4.0, -1.0);
        for kind in SolverKind::all() {
            check_kind(kind, &a, 1e-9);
        }
    }

    #[test]
    fn sparse_and_dense_solve_cage_like() {
        let a = generators::cage_like(120, 7);
        check_kind(SolverKind::SparseLu, &a, 1e-8);
        check_kind(SolverKind::DenseLu, &a, 1e-8);
    }

    #[test]
    fn band_solver_rejects_wide_bandwidth() {
        // cage_like has long-range couplings (~n/7), beyond the 25% limit? not
        // necessarily; build an explicitly wide matrix instead.
        let mut b = msplit_sparse::TripletBuilder::square(40);
        for i in 0..40 {
            b.push(i, i, 2.0).unwrap();
        }
        b.push(0, 39, -1.0).unwrap();
        let a = b.build_csr();
        let solver = BandLuSolver::default();
        assert!(matches!(
            solver.factorize(&a),
            Err(DirectError::Unsupported(_))
        ));
    }

    #[test]
    fn solver_names_are_distinct() {
        let names: Vec<&str> = SolverKind::all().iter().map(|k| k.build().name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"sparse-lu"));
        assert!(names.contains(&"dense-lu"));
        assert!(names.contains(&"band-lu"));
    }

    #[test]
    fn factorizations_are_reusable_across_rhs() {
        let a = generators::poisson_2d(6);
        let solver = SolverKind::SparseLu.build();
        let factor = solver.factorize(&a).unwrap();
        for seed in 0..3 {
            let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i + seed) % 4) as f64);
            let x = factor.solve(&b).unwrap();
            let err = x
                .iter()
                .zip(x_true.iter())
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(err < 1e-9);
        }
    }

    #[test]
    fn solve_into_matches_solve_for_all_kinds() {
        let a = generators::tridiagonal(60, 4.0, -1.0);
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..60).map(|i| ((i + 2 * k) % 9) as f64 - 4.0).collect())
            .collect();
        for kind in SolverKind::all() {
            let factor = kind.build().factorize(&a).unwrap();
            let mut scratch = SolveScratch::new();
            // Single in-place solve, scratch reused across calls.
            for b in &rhs {
                let expected = factor.solve(b).unwrap();
                let mut x = b.clone();
                factor.solve_into(&mut x, &mut scratch).unwrap();
                assert_eq!(x, expected, "{kind:?} solve_into != solve");
            }
        }
    }

    #[test]
    fn dense_stats_reflect_quadratic_storage() {
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let factor = DenseLuSolver.factorize(&a).unwrap();
        assert_eq!(factor.stats().factor_nnz(), 20 * 21);
        assert!(factor.stats().factor_memory_bytes() > a.memory_bytes());
    }

    #[test]
    fn non_square_rejected_by_all() {
        let coo = msplit_sparse::CooMatrix::new(3, 4);
        let a = coo.to_csr();
        for kind in SolverKind::all() {
            assert!(kind.build().factorize(&a).is_err());
        }
    }
}
