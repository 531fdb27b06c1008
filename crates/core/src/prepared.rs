//! A fully prepared multisplitting system, reusable across right-hand sides.
//!
//! The paper's central economics are that the expensive direct factorization
//! of every diagonal block is paid **once**, while each outer iteration only
//! performs cheap triangular solves.  [`PreparedSystem`] turns that
//! observation into an API boundary: [`PreparedSystem::prepare`] performs the
//! decomposition (Figure 1), factorizes every `ASub` — as one parallel loop
//! over the blocks on the `rayon` pool, unless the calling thread is itself
//! one of several parallel workers (see [`crate::runtime::factorize_blocks`])
//! — and pre-computes the send-target maps of Algorithm 1; the resulting value
//! can then serve any number of right-hand sides — one at a time with
//! [`PreparedSystem::solve`], or a batch of them, each column its own solve,
//! with [`PreparedSystem::solve_many`] — without ever touching the
//! factorizations again.  This is the unit cached by the `msplit-engine` service crate: for
//! families of systems sharing one operator, every solve after the first is
//! pure iteration.

use crate::driver_common::{compute_send_targets, IterationWorkspace};
use crate::krylov::{self, KrylovWorkspace, SweepPreconditioner};
use crate::solver::{ExecutionMode, Method, MultisplittingConfig, PartReport, SolveOutcome};
use crate::{runtime, CoreError};
use msplit_comm::transport::Transport;
use msplit_direct::api::Factorization;
use msplit_sparse::{BandPartition, CsrMatrix, LocalBlocks};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Upper bound on pooled per-worker workspace sets retained by a
/// [`PreparedSystem`]: enough for a handful of concurrent solves to each get
/// warm buffers without the pool growing with peak concurrency forever.
const MAX_POOLED_WORKSPACE_SETS: usize = 8;

/// A decomposed and factorized system, ready to serve right-hand sides.
///
/// Unlike [`crate::solver::MultisplittingSolver::solve`], which rebuilds the
/// decomposition and refactorizes on every call, a `PreparedSystem` is
/// immutable shared state: all solve methods take `&self`, so one prepared
/// system can serve concurrent requests (it is `Send + Sync`).
pub struct PreparedSystem {
    pub(crate) config: MultisplittingConfig,
    pub(crate) partition: BandPartition,
    pub(crate) blocks: Vec<LocalBlocks>,
    pub(crate) factors: Vec<Arc<dyn Factorization>>,
    pub(crate) send_targets: Vec<Vec<usize>>,
    fingerprint: u64,
    factor_seconds: f64,
    /// Pool of per-worker workspace sets (one [`IterationWorkspace`] per
    /// part), reused across solve requests: after the first solve the buffers
    /// are fully grown, so every later request — the warm engine cache-hit
    /// path — iterates without any heap allocation on the solve path.
    workspace_pool: Mutex<Vec<Vec<IterationWorkspace>>>,
    /// Retained copy of the operator, kept only when the prepared method
    /// needs matvecs (FGMRES); `None` for the stationary/Richardson paths.
    matrix: Option<CsrMatrix>,
    /// Precomputed `E_lk` weight table: the Krylov sweeps blend with it and
    /// the pooled lockstep loop assembles its solution with it.
    pub(crate) weight_table: Vec<Vec<(usize, f64)>>,
    /// Pool of Krylov workspaces, mirroring `workspace_pool`: warm
    /// Richardson/FGMRES solves allocate nothing on the outer path.
    krylov_pool: Mutex<Vec<KrylovWorkspace>>,
}

impl PreparedSystem {
    /// Decomposes and factorizes `a` according to `config`.
    ///
    /// This is the expensive step (the "factorization time" column of the
    /// paper's tables); everything downstream of it only reads the produced
    /// state.
    pub fn prepare(config: MultisplittingConfig, a: &CsrMatrix) -> Result<Self, CoreError> {
        let start = Instant::now();
        let fingerprint = a.fingerprint();
        // The blocks capture a zero RHS; every solve passes its own
        // right-hand side to the drivers.
        let decomposition = config.decompose(a, &vec![0.0f64; a.rows()])?;
        match config.method {
            Method::Stationary => {}
            Method::Richardson { inner_sweeps } => {
                if inner_sweeps == 0 {
                    return Err(CoreError::Decomposition(
                        "Richardson needs at least one inner sweep".into(),
                    ));
                }
            }
            Method::Fgmres {
                restart,
                inner_sweeps,
            } => {
                if restart == 0 || inner_sweeps == 0 {
                    return Err(CoreError::Decomposition(
                        "FGMRES needs a positive restart length and at least one inner sweep"
                            .into(),
                    ));
                }
            }
        }
        let (partition, blocks) = decomposition.into_blocks();
        let factors = runtime::factorize_blocks(&blocks, &config)?;
        let send_targets = compute_send_targets(&partition, &blocks);
        let matrix = matches!(config.method, Method::Fgmres { .. }).then(|| a.clone());
        let weight_table = config.weighting.weight_table(&partition);
        Ok(PreparedSystem {
            config,
            partition,
            blocks,
            factors,
            send_targets,
            fingerprint,
            factor_seconds: start.elapsed().as_secs_f64(),
            workspace_pool: Mutex::new(Vec::new()),
            matrix,
            weight_table,
            krylov_pool: Mutex::new(Vec::new()),
        })
    }

    /// Pops a pooled workspace set, or builds a fresh one for the first few
    /// concurrent solves.
    fn acquire_workspaces(&self) -> Vec<IterationWorkspace> {
        let mut pool = self
            .workspace_pool
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        pool.pop()
            .unwrap_or_else(|| runtime::fresh_workspaces(self.num_parts()))
    }

    /// Returns a workspace set to the pool (bounded, so peak concurrency does
    /// not pin memory forever).
    fn release_workspaces(&self, set: Vec<IterationWorkspace>) {
        let mut pool = self
            .workspace_pool
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if pool.len() < MAX_POOLED_WORKSPACE_SETS {
            pool.push(set);
        }
    }

    /// The configuration the system was prepared with.
    pub fn config(&self) -> &MultisplittingConfig {
        &self.config
    }

    /// The band partition of the prepared decomposition.
    pub fn partition(&self) -> &BandPartition {
        &self.partition
    }

    /// Order of the prepared system.
    pub fn order(&self) -> usize {
        self.partition.order()
    }

    /// Number of parts (processors).
    pub fn num_parts(&self) -> usize {
        self.partition.num_parts()
    }

    /// Fingerprint of the matrix the system was prepared from
    /// (see [`CsrMatrix::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Wall-clock seconds spent preparing (decomposition + factorizations).
    pub fn factor_seconds(&self) -> f64 {
        self.factor_seconds
    }

    /// Estimated resident bytes of the prepared state (blocks + factors).
    pub fn memory_bytes(&self) -> usize {
        let blocks: usize = self.blocks.iter().map(|b| b.memory_bytes()).sum();
        let factors: usize = self
            .factors
            .iter()
            .map(|f| f.stats().factor_memory_bytes())
            .sum();
        blocks + factors
    }

    fn check_rhs(&self, b: &[f64]) -> Result<(), CoreError> {
        if b.len() != self.order() {
            return Err(CoreError::Decomposition(format!(
                "right-hand side length {} does not match system order {}",
                b.len(),
                self.order()
            )));
        }
        Ok(())
    }

    /// Solves `A x = b` with the prepared factorizations in this process,
    /// honouring the prepared configuration's execution mode and method.
    ///
    /// A synchronous stationary solve runs in the calling thread: every
    /// outer iteration steps all bands as one parallel loop on the `rayon`
    /// pool and copies the halos in memory, with no thread spawned and no
    /// message built.  It stops on the same iteration with the same bits as
    /// [`PreparedSystem::solve_with_transport`] over an
    /// [`msplit_comm::InProcTransport`].  An asynchronous solve runs one
    /// thread per band over a fresh in-process transport.
    pub fn solve(&self, b: &[f64]) -> Result<SolveOutcome, CoreError> {
        self.solve_on(b, None)
    }

    /// Solves `A x = b` over an explicit transport: one thread per band,
    /// every halo and vote a message through `transport`.
    ///
    /// The Krylov methods ([`Method::Richardson`], [`Method::Fgmres`]) run
    /// the outer loop in the calling thread — their parallelism lives inside
    /// the preconditioner sweep — and send no message, so they refuse a
    /// transport with [`CoreError::Decomposition`] rather than ignore it;
    /// so does a transport whose rank count is not the part count.
    pub fn solve_with_transport(
        &self,
        b: &[f64],
        transport: Arc<dyn Transport>,
    ) -> Result<SolveOutcome, CoreError> {
        self.solve_on(b, Some(transport))
    }

    /// The one solve route: the method, the execution mode and whether the
    /// caller passed a transport pick the driver.
    pub(crate) fn solve_on(
        &self,
        b: &[f64],
        transport: Option<Arc<dyn Transport>>,
    ) -> Result<SolveOutcome, CoreError> {
        self.check_rhs(b)?;
        if let Some(transport) = &transport {
            runtime::check_transport(self.config.method, self.num_parts(), transport)?;
        }
        let start = Instant::now();
        match self.config.method {
            Method::Stationary => {}
            Method::Richardson { inner_sweeps } => {
                return self.solve_krylov(b, None, inner_sweeps, start)
            }
            Method::Fgmres {
                restart,
                inner_sweeps,
            } => return self.solve_krylov(b, Some(restart), inner_sweeps, start),
        }
        let mut workspaces = self.acquire_workspaces();
        let result = match (transport, self.config.mode) {
            (None, ExecutionMode::Synchronous) => {
                runtime::run_single_pooled(self, b, &mut workspaces, start)
            }
            (transport, _) => {
                let transport = transport
                    .unwrap_or_else(|| msplit_comm::InProcTransport::new(self.num_parts()));
                runtime::run_single(self, b, transport, &mut workspaces, start)
            }
        };
        self.release_workspaces(workspaces);
        result
    }

    /// Pops a pooled Krylov workspace (or builds a cold one).
    fn acquire_krylov(&self) -> KrylovWorkspace {
        let mut pool = self
            .krylov_pool
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        pool.pop().unwrap_or_default()
    }

    /// Returns a Krylov workspace to its bounded pool.
    fn release_krylov(&self, ws: KrylovWorkspace) {
        let mut pool = self
            .krylov_pool
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if pool.len() < MAX_POOLED_WORKSPACE_SETS {
            pool.push(ws);
        }
    }

    /// The Krylov outer loops: Richardson when `restart` is `None`, FGMRES
    /// otherwise, both preconditioned by `inner_sweeps` multisplitting
    /// sweeps over the prepared blocks/factors.
    fn solve_krylov(
        &self,
        b: &[f64],
        restart: Option<usize>,
        inner_sweeps: u64,
        start: Instant,
    ) -> Result<SolveOutcome, CoreError> {
        let n = self.order();
        let table = &self.weight_table;
        let mut ws = self.acquire_krylov();
        ws.prepare(n);
        // Block-scoped so the preconditioner's borrow of `ws.sweep` ends
        // before the workspace is released back to the pool.
        let result = {
            let mut precond = SweepPreconditioner::new(
                &self.partition,
                &self.blocks,
                &self.factors,
                table,
                inner_sweeps,
                &mut ws.sweep,
            );
            match restart {
                None => krylov::richardson(
                    &mut precond,
                    self.config.tolerance,
                    self.config.max_iterations,
                    b,
                    &mut ws.x,
                    &mut ws.x_prev,
                ),
                Some(m) => {
                    let a = self
                        .matrix
                        .as_ref()
                        .expect("prepare() retains the operator for FGMRES");
                    krylov::fgmres(
                        a,
                        &mut precond,
                        m,
                        self.config.tolerance,
                        self.config.max_iterations,
                        b,
                        &mut ws.x,
                        &mut ws.fgmres,
                    )
                }
            }
        };
        let outcome = result.map(|stop| {
            let wall_seconds = start.elapsed().as_secs_f64();
            SolveOutcome::new(
                ws.x.clone(),
                stop,
                self.krylov_part_reports(stop.iterations, wall_seconds),
                wall_seconds,
                self.config.mode,
            )
        });
        self.release_krylov(ws);
        outcome
    }

    /// Work profiles of a Krylov solve: per part, one triangular solve plus
    /// the dependency products per outer iteration (times `inner_sweeps`,
    /// folded into the iteration count by the caller's interpretation), no
    /// messages (the outer loop is in-process).
    fn krylov_part_reports(&self, iterations: u64, wall_seconds: f64) -> Vec<PartReport> {
        self.blocks
            .iter()
            .zip(self.factors.iter())
            .map(|(blk, factor)| {
                let factor_stats = factor.stats().clone();
                let dep_flops = 2 * (blk.dep_left.nnz() + blk.dep_right.nnz()) as u64;
                let flops_per_iteration = dep_flops + factor_stats.solve_flops();
                let memory_bytes = blk.memory_bytes() + factor_stats.factor_memory_bytes();
                PartReport {
                    part: blk.part,
                    factor_stats,
                    iterations,
                    bytes_sent_per_iteration: 0,
                    messages_per_iteration: 0,
                    flops_per_iteration,
                    memory_bytes,
                    wall_seconds,
                    solve_path: runtime::SolvePathStats::default(),
                }
            })
            .collect()
    }

    /// Solves `A X = B` for a batch of right-hand sides: each column runs
    /// through [`PreparedSystem::solve`], in order, so column `c` of the
    /// result is bitwise the solo solve of `rhs[c]` — same `x`, same
    /// [`crate::Stop`], same configured method and execution mode.  Every
    /// column's length is checked before any is solved.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<SolveOutcome>, CoreError> {
        for b in rhs {
            self.check_rhs(b)?;
        }
        rhs.iter().map(|b| self.solve_on(b, None)).collect()
    }
}

impl std::fmt::Debug for PreparedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedSystem")
            .field("order", &self.order())
            .field("parts", &self.num_parts())
            .field("fingerprint", &self.fingerprint)
            .field("factor_seconds", &self.factor_seconds)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{ExecutionMode, MultisplittingSolver};
    use crate::weighting::WeightingScheme;
    use msplit_direct::SolverKind;
    use msplit_sparse::generators::{self, DiagDominantConfig};

    fn config(parts: usize, mode: ExecutionMode) -> MultisplittingConfig {
        MultisplittingConfig {
            parts,
            overlap: 0,
            weighting: WeightingScheme::OwnerTakes,
            solver_kind: SolverKind::SparseLu,
            tolerance: 1e-10,
            max_iterations: 5000,
            mode,
            async_confirmations: 3,
            relative_speeds: Vec::new(),
            method: Method::Stationary,
        }
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn prepared_solve_is_bitwise_identical_to_cold_solve() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 240,
            seed: 33,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 11) as f64) - 5.0);
        let cfg = config(4, ExecutionMode::Synchronous);
        let cold = MultisplittingSolver::new(cfg.clone())
            .solve(&a, &b)
            .unwrap();
        let prepared = PreparedSystem::prepare(cfg, &a).unwrap();
        let warm1 = prepared.solve(&b).unwrap();
        let warm2 = prepared.solve(&b).unwrap();
        assert!(cold.stop.converged() && warm1.stop.converged() && warm2.stop.converged());
        // The synchronous iteration is deterministic and the factorizations
        // are identical, so the results agree bitwise.
        assert_eq!(cold.x, warm1.x);
        assert_eq!(warm1.x, warm2.x);
        assert_eq!(cold.stop.iterations, warm1.stop.iterations);
    }

    #[test]
    fn prepared_serves_multiple_rhs_without_refactorizing() {
        let a = generators::cage_like(200, 31);
        let cfg = config(3, ExecutionMode::Synchronous);
        let prepared = PreparedSystem::prepare(cfg, &a).unwrap();
        assert_eq!(prepared.order(), 200);
        assert_eq!(prepared.num_parts(), 3);
        assert_eq!(prepared.fingerprint(), a.fingerprint());
        assert!(prepared.memory_bytes() > 0);
        for seed in 0..3u64 {
            let (x_true, b) =
                generators::rhs_for_solution(&a, |i| ((i as u64 + seed) % 7) as f64 - 3.0);
            let out = prepared.solve(&b).unwrap();
            assert!(out.stop.converged());
            assert!(max_err(&out.x, &x_true) < 1e-7, "seed {seed}");
        }
    }

    #[test]
    fn prepared_async_solve_converges() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 200,
            seed: 9,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
        let mut cfg = config(4, ExecutionMode::Asynchronous);
        cfg.max_iterations = 50_000;
        let prepared = PreparedSystem::prepare(cfg, &a).unwrap();
        let out = prepared.solve(&b).unwrap();
        assert!(out.stop.converged());
        assert!(max_err(&out.x, &x_true) < 1e-6);
    }

    #[test]
    fn solve_many_matches_per_rhs_solves() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 180,
            seed: 4,
            ..Default::default()
        });
        let cfg = config(3, ExecutionMode::Synchronous);
        let prepared = PreparedSystem::prepare(cfg, &a).unwrap();
        let batch: Vec<Vec<f64>> = (0..5u64)
            .map(|seed| generators::rhs_for_solution(&a, |i| ((i as u64 + seed) % 9) as f64).1)
            .collect();
        let out = prepared.solve_many(&batch).unwrap();
        assert_eq!(out.len(), 5);
        for (c, (b, col)) in batch.iter().zip(out.iter()).enumerate() {
            let single = prepared.solve(b).unwrap();
            assert!(col.stop.converged());
            assert!(col.residual(&a, b) < 1e-6);
            // Each column is its own solve, so it equals the lone solve
            // bitwise, stop record included.
            assert_eq!(col.x, single.x, "column {c}");
            assert_eq!(col.stop, single.stop, "column {c}");
        }
    }

    #[test]
    fn solve_many_empty_batch_is_trivially_converged() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let prepared = PreparedSystem::prepare(config(3, ExecutionMode::Synchronous), &a).unwrap();
        assert!(prepared.solve_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn rhs_shape_validation() {
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let prepared = PreparedSystem::prepare(config(2, ExecutionMode::Synchronous), &a).unwrap();
        assert!(prepared.solve(&[1.0; 19]).is_err());
        assert!(prepared.solve_many(&[vec![1.0; 20], vec![1.0; 3]]).is_err());
    }

    #[test]
    fn prepare_validates_speed_vector() {
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let mut cfg = config(4, ExecutionMode::Synchronous);
        cfg.relative_speeds = vec![1.0, 2.0];
        assert!(PreparedSystem::prepare(cfg, &a).is_err());
    }

    #[test]
    fn prepared_system_is_shareable_across_threads() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 150,
            seed: 17,
            ..Default::default()
        });
        let prepared =
            Arc::new(PreparedSystem::prepare(config(3, ExecutionMode::Synchronous), &a).unwrap());
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 4) as f64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let prepared = Arc::clone(&prepared);
                let b = b.clone();
                std::thread::spawn(move || prepared.solve(&b).unwrap())
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            assert!(out.stop.converged());
            assert!(max_err(&out.x, &x_true) < 1e-7);
        }
    }
}
