//! User-facing multisplitting solver: configuration, builder and results.
//!
//! [`MultisplittingSolver`] ties together the decomposition, the weighting
//! scheme, the per-block direct solver and the execution mode (synchronous
//! MPI-style or asynchronous AIAC-style), and returns a [`SolveOutcome`]
//! containing the solution, the convergence history and the per-processor
//! work profiles consumed by the grid performance model.

use crate::decomposition::Decomposition;
use crate::prepared::PreparedSystem;
use crate::runtime;
use crate::runtime::SolvePathStats;
use crate::stop::Stop;
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_comm::transport::Transport;
use msplit_direct::{FactorStats, SolverKind};
use msplit_grid::perf::WorkProfile;
use msplit_sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Instant;

/// Synchronous (iteration-lockstep, MPI-like) or asynchronous (free-running,
/// AIAC / Corba-like) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// All processors exchange data and test convergence at iteration
    /// boundaries (Algorithm 1, synchronous variant).
    #[default]
    Synchronous,
    /// Every processor iterates at its own pace with the most recent data it
    /// has received; convergence is detected with a confirmation window
    /// (Algorithm 1, asynchronous variant).
    Asynchronous,
}

/// Outer iteration driving the multisplitting sweep.
///
/// The paper's Algorithm 1 is the pure stationary iteration: every outer
/// step *is* one multisplitting sweep.  The Krylov methods instead treat the
/// sweep as a preconditioner `M⁻¹ ≈ A⁻¹` (see [`crate::krylov`]): the outer
/// loop is a preconditioned Richardson or a restarted flexible GMRES, and on
/// ill-conditioned systems the Krylov outer loop reaches the tolerance in far
/// fewer sweeps than the stationary scheme (see `docs/krylov.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Pure stationary multisplitting (Algorithm 1).  The default, and the
    /// only method served by the threaded/TCP/distributed drivers.
    #[default]
    Stationary,
    /// Preconditioned Richardson: `x ← x + M⁻¹(b − A x)` realized as
    /// `inner_sweeps` multisplitting sweeps per outer step.  With
    /// `inner_sweeps = 1` this is arithmetically — bitwise — the stationary
    /// iteration; it exists as the equivalence anchor for the Krylov path.
    Richardson {
        /// Multisplitting sweeps per outer application of the preconditioner.
        inner_sweeps: u64,
    },
    /// Restarted flexible GMRES, FGMRES(m), right-preconditioned by
    /// `inner_sweeps` multisplitting sweeps per Arnoldi step.  Flexible
    /// because the preconditioner application is itself an iteration and may
    /// vary between outer steps.
    Fgmres {
        /// Restart length `m` (Krylov basis size kept between restarts).
        restart: usize,
        /// Multisplitting sweeps per preconditioner application.
        inner_sweeps: u64,
    },
}

/// Configuration of a multisplitting solve.
#[derive(Debug, Clone)]
pub struct MultisplittingConfig {
    /// Number of bands / processors `L`.
    pub parts: usize,
    /// Overlap (rows) added on each interior band boundary.
    pub overlap: usize,
    /// Weighting scheme combining overlapping solutions.
    pub weighting: WeightingScheme,
    /// Direct solver used for every diagonal block.
    pub solver_kind: SolverKind,
    /// Convergence tolerance on the per-iteration increment (the paper fixes
    /// `1e-8` for all experiments).
    pub tolerance: f64,
    /// Maximum number of outer iterations per processor.
    pub max_iterations: u64,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Consecutive all-converged observations required before the
    /// asynchronous detection declares global convergence.
    pub async_confirmations: u64,
    /// Relative processor speeds for heterogeneity-aware band sizing
    /// (empty = uniform bands).
    pub relative_speeds: Vec<f64>,
    /// Outer iteration method (stationary sweep, preconditioned Richardson,
    /// or FGMRES with the sweep as a flexible preconditioner).
    pub method: Method,
}

impl MultisplittingConfig {
    /// Builds the band decomposition this configuration asks for: uniform
    /// bands, or bands sized by `relative_speeds` (one speed per part).
    pub(crate) fn decompose(&self, a: &CsrMatrix, b: &[f64]) -> Result<Decomposition, CoreError> {
        if self.relative_speeds.is_empty() {
            return Decomposition::uniform(a, b, self.parts, self.overlap);
        }
        if self.relative_speeds.len() != self.parts {
            return Err(CoreError::Decomposition(format!(
                "{} relative speeds given for {} parts",
                self.relative_speeds.len(),
                self.parts
            )));
        }
        Decomposition::balanced_for_speeds(a, b, &self.relative_speeds, self.overlap)
    }
}

impl Default for MultisplittingConfig {
    fn default() -> Self {
        MultisplittingConfig {
            parts: 2,
            overlap: 0,
            weighting: WeightingScheme::OwnerTakes,
            solver_kind: SolverKind::SparseLu,
            tolerance: 1e-8,
            max_iterations: 10_000,
            mode: ExecutionMode::Synchronous,
            async_confirmations: 3,
            relative_speeds: Vec::new(),
            method: Method::Stationary,
        }
    }
}

/// Per-processor report of a multisplitting run.
#[derive(Debug, Clone)]
pub struct PartReport {
    /// Band index (= processor rank).
    pub part: usize,
    /// Statistics of the one-off factorization of `ASub`.
    pub factor_stats: FactorStats,
    /// Outer iterations performed by this processor.
    pub iterations: u64,
    /// Bytes sent by this processor per outer iteration.
    pub bytes_sent_per_iteration: usize,
    /// Messages sent by this processor per outer iteration.
    pub messages_per_iteration: usize,
    /// Flops spent per outer iteration (dependency products + triangular solves).
    pub flops_per_iteration: u64,
    /// Estimated peak working set in bytes (blocks + factors + vectors).
    pub memory_bytes: usize,
    /// Host wall-clock seconds spent by this processor thread.
    pub wall_seconds: f64,
    /// Which solve path (unchanged-halo skip vs. assembly + solve) each
    /// outer iteration of this processor took.
    pub solve_path: SolvePathStats,
}

impl PartReport {
    /// Converts the report into the grid model's work profile.
    pub fn work_profile(&self) -> WorkProfile {
        WorkProfile {
            factor_flops: self.factor_stats.flops,
            per_iteration_flops: self.flops_per_iteration,
            per_iteration_send_bytes: self.bytes_sent_per_iteration,
            per_iteration_messages: self.messages_per_iteration,
            memory_bytes: self.memory_bytes,
        }
    }
}

/// Result of a multisplitting solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The assembled global solution.
    pub x: Vec<f64>,
    /// Why and when the solve stopped (merged over the processors; each
    /// processor's own count is in its [`PartReport::iterations`]).
    pub stop: Stop,
    /// Mirror of `stop.converged()`; deleted once the benchmark reads `stop`.
    pub converged: bool,
    /// Mirror of `stop.iterations`; deleted once the benchmark reads `stop`.
    pub iterations: u64,
    /// Per-processor reports (work profiles for the grid model).
    pub part_reports: Vec<PartReport>,
    /// Host wall-clock seconds for the whole solve.
    pub wall_seconds: f64,
    /// Execution mode that produced this outcome.
    pub mode: ExecutionMode,
}

impl SolveOutcome {
    /// The outcome of a solve that stopped on `stop` (fills the mirrors).
    pub fn new(
        x: Vec<f64>,
        stop: Stop,
        part_reports: Vec<PartReport>,
        wall_seconds: f64,
        mode: ExecutionMode,
    ) -> Self {
        SolveOutcome {
            x,
            stop,
            converged: stop.converged(),
            iterations: stop.iterations,
            part_reports,
            wall_seconds,
            mode,
        }
    }

    /// Infinity norm of the residual `b - A x` for the returned solution.
    pub fn residual(&self, a: &CsrMatrix, b: &[f64]) -> f64 {
        let ax = a.spmv(&self.x).expect("solution length matches the matrix");
        b.iter()
            .zip(ax.iter())
            .fold(0.0f64, |m, (bi, axi)| m.max((bi - axi).abs()))
    }

    /// Total factorization time (the maximum over processors, which is the
    /// quantity the paper reports since factorizations run concurrently).
    pub fn max_factor_seconds(&self) -> f64 {
        self.part_reports
            .iter()
            .map(|r| r.factor_stats.factor_seconds)
            .fold(0.0, f64::max)
    }
}

/// Result of a batched multi-RHS multisplitting solve (see
/// [`crate::prepared::PreparedSystem::solve_many`]).
///
/// All right-hand sides of the batch iterate in lockstep through one outer
/// iteration loop, so there is a single stop record for the whole batch:
/// `stop.converged()` means every column reached the tolerance.
#[derive(Debug, Clone)]
pub struct BatchSolveOutcome {
    /// One assembled global solution per right-hand side, in request order.
    pub columns: Vec<Vec<f64>>,
    /// Per column: the outer iteration at which a **solo** lockstep solve of
    /// that right-hand side would have stopped, or `None` when the column
    /// never converged on its own within the budget.  Columns with
    /// `Some(k)` are bitwise-identical to the solo solve (see
    /// `msplit_core::runtime::ColumnBoard`), which is what lets a serving
    /// layer coalesce independent requests into one batch without changing
    /// any answer.
    pub column_converged_at: Vec<Option<u64>>,
    /// Why and when the batch stopped (merged over the processors; the norm
    /// is the largest increment over the columns too).
    pub stop: Stop,
    /// Per-processor reports (work profiles for the grid model).
    pub part_reports: Vec<PartReport>,
    /// Host wall-clock seconds for the whole batched solve.
    pub wall_seconds: f64,
}

impl BatchSolveOutcome {
    /// Number of right-hand sides served.
    pub fn num_rhs(&self) -> usize {
        self.columns.len()
    }

    /// Whether column `c` converged on its own (its solo-equivalent stopping
    /// iteration is known), as opposed to merely riding along in a batch
    /// that exhausted its budget.
    pub fn column_converged(&self, c: usize) -> bool {
        self.column_converged_at.get(c).is_some_and(|k| k.is_some())
    }

    /// Maximum residual infinity norm over all columns of the batch.
    pub fn max_residual(&self, a: &CsrMatrix, rhs: &[Vec<f64>]) -> f64 {
        self.columns
            .iter()
            .zip(rhs.iter())
            .map(|(x, b)| {
                let ax = a.spmv(x).expect("solution length matches the matrix");
                b.iter()
                    .zip(ax.iter())
                    .fold(0.0f64, |m, (bi, axi)| m.max((bi - axi).abs()))
            })
            .fold(0.0f64, f64::max)
    }
}

/// Builder for [`MultisplittingSolver`].
#[derive(Debug, Clone, Default)]
pub struct SolverBuilder {
    config: MultisplittingConfig,
}

impl SolverBuilder {
    /// Number of bands / processors.
    pub fn parts(mut self, parts: usize) -> Self {
        self.config.parts = parts;
        self
    }

    /// Overlap rows on each interior boundary.
    pub fn overlap(mut self, overlap: usize) -> Self {
        self.config.overlap = overlap;
        self
    }

    /// Weighting scheme for overlapping solutions.
    pub fn weighting(mut self, weighting: WeightingScheme) -> Self {
        self.config.weighting = weighting;
        self
    }

    /// Direct solver used on every diagonal block.
    pub fn solver_kind(mut self, kind: SolverKind) -> Self {
        self.config.solver_kind = kind;
        self
    }

    /// Convergence tolerance.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.config.tolerance = tol;
        self
    }

    /// Maximum outer iterations.
    pub fn max_iterations(mut self, max: u64) -> Self {
        self.config.max_iterations = max;
        self
    }

    /// Execution mode.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Confirmation window of the asynchronous convergence detection.
    pub fn async_confirmations(mut self, confirmations: u64) -> Self {
        self.config.async_confirmations = confirmations;
        self
    }

    /// Relative processor speeds for heterogeneity-aware band sizing.
    pub fn relative_speeds(mut self, speeds: Vec<f64>) -> Self {
        self.config.relative_speeds = speeds;
        self
    }

    /// Outer iteration method (stationary, Richardson or FGMRES).
    pub fn method(mut self, method: Method) -> Self {
        self.config.method = method;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> MultisplittingSolver {
        MultisplittingSolver {
            config: self.config,
        }
    }
}

/// The multisplitting-direct solver.
#[derive(Debug, Clone)]
pub struct MultisplittingSolver {
    config: MultisplittingConfig,
}

impl MultisplittingSolver {
    /// Starts building a solver.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// Creates a solver from an explicit configuration.
    pub fn new(config: MultisplittingConfig) -> Self {
        MultisplittingSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MultisplittingConfig {
        &self.config
    }

    /// Builds the decomposition for a given system.
    pub fn decompose(&self, a: &CsrMatrix, b: &[f64]) -> Result<Decomposition, CoreError> {
        self.config.decompose(a, b)
    }

    /// Prepares the system once — decomposition, per-block factorizations and
    /// send-target maps — so that any number of right-hand sides can be
    /// served afterwards without refactorizing (the paper's factorize-once
    /// observation, lifted to an API boundary).
    pub fn prepare(&self, a: &CsrMatrix) -> Result<PreparedSystem, CoreError> {
        PreparedSystem::prepare(self.config.clone(), a)
    }

    /// Solves `A x = b` in this process: one [`PreparedSystem::prepare`]
    /// followed by one [`PreparedSystem::solve`] (a synchronous stationary
    /// solve runs on the `rayon` pool, with no thread spawned and no
    /// message).  The reported `wall_seconds` includes the factorization.
    pub fn solve(&self, a: &CsrMatrix, b: &[f64]) -> Result<SolveOutcome, CoreError> {
        self.solve_on(a, b, None)
    }

    /// Solves `A x = b` over an explicit transport (e.g. a
    /// [`msplit_comm::DelayedTransport`] modelling a distant cluster): one
    /// [`PreparedSystem::prepare`] followed by one
    /// [`PreparedSystem::solve_with_transport`], so a cold solve is bitwise
    /// the warm one.  The reported `wall_seconds` includes the factorization.
    ///
    /// The Krylov methods run their outer loop in the calling thread and
    /// ignore `transport` (see [`PreparedSystem::solve_with_transport`]).
    pub fn solve_with_transport(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        transport: Arc<dyn Transport>,
    ) -> Result<SolveOutcome, CoreError> {
        self.solve_on(a, b, Some(transport))
    }

    fn solve_on(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        transport: Option<Arc<dyn Transport>>,
    ) -> Result<SolveOutcome, CoreError> {
        let start = Instant::now();
        if let (Some(transport), Method::Stationary) = (&transport, self.config.method) {
            // A mis-sized transport fails before the expensive factorizations.
            runtime::check_transport_ranks(self.config.parts, transport)?;
        }
        let prepared = PreparedSystem::prepare(self.config.clone(), a)?;
        let mut outcome = prepared.solve_on(b, transport)?;
        outcome.wall_seconds = start.elapsed().as_secs_f64();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_field() {
        let solver = MultisplittingSolver::builder()
            .parts(5)
            .overlap(7)
            .weighting(WeightingScheme::Average)
            .solver_kind(SolverKind::DenseLu)
            .tolerance(1e-6)
            .max_iterations(123)
            .mode(ExecutionMode::Asynchronous)
            .async_confirmations(9)
            .relative_speeds(vec![1.0, 2.0, 1.0, 1.0, 1.0])
            .method(Method::Fgmres {
                restart: 30,
                inner_sweeps: 2,
            })
            .build();
        let c = solver.config();
        assert_eq!(c.parts, 5);
        assert_eq!(c.overlap, 7);
        assert_eq!(c.weighting, WeightingScheme::Average);
        assert_eq!(c.solver_kind, SolverKind::DenseLu);
        assert_eq!(c.tolerance, 1e-6);
        assert_eq!(c.max_iterations, 123);
        assert_eq!(c.mode, ExecutionMode::Asynchronous);
        assert_eq!(c.async_confirmations, 9);
        assert_eq!(c.relative_speeds.len(), 5);
        assert_eq!(
            c.method,
            Method::Fgmres {
                restart: 30,
                inner_sweeps: 2
            }
        );
    }

    #[test]
    fn default_config_matches_the_paper_accuracy() {
        let c = MultisplittingConfig::default();
        assert_eq!(c.tolerance, 1e-8);
        assert_eq!(c.mode, ExecutionMode::Synchronous);
    }

    #[test]
    fn decompose_rejects_mismatched_speed_vector() {
        let a = msplit_sparse::generators::tridiagonal(20, 4.0, -1.0);
        let b = vec![1.0; 20];
        let solver = MultisplittingSolver::builder()
            .parts(4)
            .relative_speeds(vec![1.0, 2.0])
            .build();
        assert!(solver.decompose(&a, &b).is_err());
    }

    #[test]
    fn part_report_converts_to_work_profile() {
        let report = PartReport {
            part: 0,
            factor_stats: FactorStats {
                n: 10,
                nnz_a: 30,
                nnz_l: 40,
                nnz_u: 40,
                flops: 500,
                symbolic_edges: 0,
                factor_seconds: 0.1,
            },
            iterations: 7,
            bytes_sent_per_iteration: 800,
            messages_per_iteration: 2,
            flops_per_iteration: 160,
            memory_bytes: 4096,
            wall_seconds: 0.5,
            solve_path: SolvePathStats::default(),
        };
        let profile = report.work_profile();
        assert_eq!(profile.factor_flops, 500);
        assert_eq!(profile.per_iteration_flops, 160);
        assert_eq!(profile.per_iteration_send_bytes, 800);
        assert_eq!(profile.per_iteration_messages, 2);
        assert_eq!(profile.memory_bytes, 4096);
    }
}
