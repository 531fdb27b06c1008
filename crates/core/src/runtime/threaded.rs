//! The threaded adapter: one thread per rank over a shared transport, for
//! one right-hand side (either execution mode) or a lockstep batch.

use super::drive::{
    drive, mode_policies, receive_sources, ColumnBoard, ColumnTracker, DriveHooks, RankLoop,
    RankRun,
};
use super::engine::RankEngine;
use super::failure::{FailurePolicy, RankLink};
use crate::driver_common::IterationWorkspace;
use crate::prepared::PreparedSystem;
use crate::solver::{
    BatchSolveOutcome, ExecutionMode, MultisplittingConfig, PartReport, SolveOutcome,
};
use crate::CoreError;
use msplit_comm::transport::Transport;
use msplit_direct::api::Factorization;
use msplit_sparse::LocalBlocks;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lockstep peer timeout of the threaded adapter.  The pre-runtime barrier
/// waited indefinitely for slow (but live) peers, so this is deliberately
/// generous — genuinely *dead* peers are caught within ~1 s by the
/// [`FailurePolicy::HaltOnDeath`] heartbeat probes, which is the real guard;
/// the timeout only backstops a livelock nothing else can detect.
const THREADED_PEER_TIMEOUT: Duration = Duration::from_secs(3600);

/// What the ranks of one threaded solve iterate on.
enum Rhs<'a> {
    /// One right-hand side, under the configured execution mode.
    Single(&'a [f64]),
    /// A batch marching in lockstep — always synchronous, whatever the
    /// configured mode — with the board its per-column freezes go through.
    Batch(&'a [Vec<f64>], Arc<ColumnBoard>),
}

/// Output of one worker thread.
struct WorkerOutput {
    part: usize,
    /// This rank's local iterate per solution column (exactly one for
    /// [`Rhs::Single`]).
    x_columns: Vec<Vec<f64>>,
    /// Per batch column: the iteration a solo run of that right-hand side
    /// would have stopped at (`None` when it never converged on its own; see
    /// [`ColumnTracker`]).  Identical across parts by construction; empty
    /// for [`Rhs::Single`].
    column_converged_at: Vec<Option<u64>>,
    iterations: u64,
    last_increment: f64,
    converged: bool,
    report: PartReport,
}

/// Factorizes every diagonal block of `blocks` (shared by
/// [`crate::prepared::PreparedSystem`] and the scale simulator).  The blocks
/// are independent, so they are factorized as one parallel loop on the
/// `rayon` pool: from an ordinary thread an in-process `prepare` costs about
/// the sum of the block factorizations divided by the cores; from a thread
/// that is itself one of several parallel workers (an `msplit-engine` worker)
/// the loop runs inline and costs the sum.  Each factor is bitwise what a
/// serial loop produces, and of several failing blocks the lowest index is
/// reported.
/// (Distributed workers factorize one block each, in their own processes.)
/// Failures surface before any worker thread starts exchanging messages.
pub fn factorize_blocks(
    blocks: &[LocalBlocks],
    config: &MultisplittingConfig,
) -> Result<Vec<Arc<dyn Factorization>>, CoreError> {
    let solver = config.solver_kind.build();
    blocks
        .par_iter()
        .map(|blk| {
            solver
                .factorize(&blk.a_sub)
                .map(Arc::<dyn Factorization>::from)
                .map_err(CoreError::Direct)
        })
        .collect()
}

/// Validates that the transport's rank count matches the decomposition (the
/// cold solve checks it before the expensive factorizations, so
/// misconfiguration fails fast).
pub(crate) fn check_transport_ranks(
    parts: usize,
    transport: &Arc<dyn Transport>,
) -> Result<(), CoreError> {
    if transport.num_ranks() != parts {
        return Err(CoreError::Decomposition(format!(
            "transport has {} ranks but the decomposition has {} parts",
            transport.num_ranks(),
            parts
        )));
    }
    Ok(())
}

/// Allocates one fresh [`IterationWorkspace`] per part (prepared systems
/// pool these and reuse them across solves).
pub(crate) fn fresh_workspaces(parts: usize) -> Vec<IterationWorkspace> {
    (0..parts).map(|_| IterationWorkspace::new()).collect()
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Per-part static work profile of one rank (flops, memory, message sizes).
pub(super) fn part_report(
    blk: &LocalBlocks,
    factor: &dyn Factorization,
    engine: &RankEngine,
    run: &RankRun,
    targets: &[usize],
    ncols: usize,
    wall_seconds: f64,
) -> PartReport {
    let factor_stats = factor.stats().clone();
    let dep_flops = 2 * (blk.dep_left.nnz() + blk.dep_right.nnz()) as u64;
    let flops_per_iteration = (dep_flops + factor_stats.solve_flops()) * ncols as u64;
    let memory_bytes = blk.memory_bytes() + factor_stats.factor_memory_bytes();
    let bytes_sent_per_iteration = if run.iterations > 0 && !targets.is_empty() {
        engine.outgoing_encoded_len() * targets.len()
    } else {
        0
    };
    PartReport {
        part: blk.part,
        factor_stats,
        iterations: run.iterations,
        bytes_sent_per_iteration,
        messages_per_iteration: targets.len(),
        flops_per_iteration,
        memory_bytes,
        wall_seconds,
        solve_path: engine.path_stats(),
    }
}

/// The one worker of the threaded adapter: builds rank `part`'s engine for
/// the right-hand side shape, picks the policy stack of the execution mode
/// and drives it to completion.
fn rank_worker(
    system: &PreparedSystem,
    part: usize,
    senders_to_me: &[usize],
    rhs: &Rhs,
    transport: &dyn Transport,
    ws: &mut IterationWorkspace,
) -> Result<WorkerOutput, CoreError> {
    let t0 = Instant::now();
    let config = &system.config;
    let (blk, factor) = (&system.blocks[part], system.factors[part].as_ref());
    let targets = &system.send_targets[part];
    let range = system.partition.extended_range(part);
    let (engine, hooks, mode, ncols) = match rhs {
        Rhs::Single(b) => (
            RankEngine::single(
                &system.partition,
                blk,
                &b[range],
                factor,
                config.weighting,
                ws,
            ),
            DriveHooks::default(),
            config.mode,
            1,
        ),
        Rhs::Batch(columns, board) => {
            let ncols = columns.len();
            let b_cols: Vec<&[f64]> = columns.iter().map(|b| &b[range.clone()]).collect();
            let hooks = DriveHooks {
                columns: Some(ColumnTracker::new(
                    Arc::clone(board),
                    config.tolerance,
                    ncols,
                )),
                ..DriveHooks::default()
            };
            (
                RankEngine::batch(&system.partition, blk, b_cols, factor, config.weighting, ws),
                hooks,
                ExecutionMode::Synchronous,
                ncols,
            )
        }
    };
    let link = RankLink::new(transport, part, targets, senders_to_me);
    let policies = mode_policies(
        mode,
        config,
        part,
        link.world(),
        THREADED_PEER_TIMEOUT,
        FailurePolicy::default(),
    );
    let mut rank = RankLoop::new(engine, link, policies, config.max_iterations, hooks);
    let run = drive(&mut rank)?;
    let report = part_report(
        blk,
        factor,
        &rank.engine,
        &run,
        targets,
        ncols,
        t0.elapsed().as_secs_f64(),
    );
    let (x_columns, column_converged_at) = match rank.hooks.columns.take() {
        Some(tracker) => tracker.into_columns(rank.engine.x_columns()),
        None => (vec![rank.engine.x_local().to_vec()], Vec::new()),
    };
    Ok(WorkerOutput {
        part,
        x_columns,
        column_converged_at,
        iterations: run.iterations,
        last_increment: run.last_increment,
        converged: run.converged,
        report,
    })
}

/// Spawns one [`rank_worker`] thread per part over `transport`, joins them
/// all, and assembles one global solution per column with the weighting
/// scheme.  Blocks and factorizations are only *read*, so the same prepared
/// system serves any number of solves; `workspaces` supplies one
/// [`IterationWorkspace`] per part (pooled, already grown buffers, so warm
/// solves allocate nothing in the iteration loop).
fn run_workers(
    system: &PreparedSystem,
    rhs: &Rhs,
    transport: &Arc<dyn Transport>,
    workspaces: &mut [IterationWorkspace],
    start: Instant,
) -> Result<BatchSolveOutcome, CoreError> {
    let parts = system.num_parts();
    debug_assert_eq!(workspaces.len(), parts);
    let senders = receive_sources(&system.send_targets);

    let outputs: Vec<Result<WorkerOutput, CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = senders
            .iter()
            .zip(workspaces.iter_mut())
            .enumerate()
            .map(|(part, (senders_to_me, ws))| {
                scope.spawn(move || {
                    rank_worker(system, part, senders_to_me, rhs, transport.as_ref(), ws)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|p| Err(CoreError::WorkerPanic(panic_message(&p))))
            })
            .collect()
    });

    let mut per_part_columns: Vec<Vec<Vec<f64>>> = vec![Vec::new(); parts];
    let mut reports = Vec::with_capacity(parts);
    let mut iterations_per_part = vec![0u64; parts];
    let mut converged = true;
    let mut last_increment = 0.0f64;
    let mut column_converged_at = Vec::new();
    for out in outputs {
        let out = out?;
        iterations_per_part[out.part] = out.iterations;
        converged &= out.converged;
        last_increment = last_increment.max(out.last_increment);
        per_part_columns[out.part] = out.x_columns;
        if out.part == 0 {
            column_converged_at = out.column_converged_at;
        }
        reports.push(out.report);
    }
    reports.sort_by_key(|r| r.part);
    let ncols = per_part_columns.first().map_or(0, Vec::len);
    let columns = (0..ncols)
        .map(|c| {
            let locals: Vec<Vec<f64>> = per_part_columns
                .iter_mut()
                .map(|cols| std::mem::take(&mut cols[c]))
                .collect();
            system.config.weighting.assemble(&system.partition, &locals)
        })
        .collect();
    let iterations = iterations_per_part.iter().copied().max().unwrap_or(0);
    Ok(BatchSolveOutcome {
        columns,
        column_converged_at,
        converged,
        iterations,
        iterations_per_part,
        last_increment,
        part_reports: reports,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Threaded solve of one right-hand side over a prepared system, in the
/// configured execution mode.
pub(crate) fn run_single(
    system: &PreparedSystem,
    rhs: &[f64],
    transport: Arc<dyn Transport>,
    workspaces: &mut [IterationWorkspace],
    start: Instant,
) -> Result<SolveOutcome, CoreError> {
    check_transport_ranks(system.num_parts(), &transport)?;
    let mut out = run_workers(system, &Rhs::Single(rhs), &transport, workspaces, start)?;
    Ok(SolveOutcome {
        x: out.columns.pop().expect("a single solve has one column"),
        converged: out.converged,
        iterations: out.iterations,
        iterations_per_part: out.iterations_per_part,
        last_increment: out.last_increment,
        part_reports: out.part_reports,
        wall_seconds: out.wall_seconds,
        mode: system.config.mode,
    })
}

/// Synchronous multi-RHS solve over a prepared system: every outer
/// iteration performs ONE batched triangular-solve pass and ONE message
/// exchange for all columns, so the whole batch is answered in a single pass
/// of Algorithm 1 instead of once per right-hand side.
pub(crate) fn run_batch(
    system: &PreparedSystem,
    rhs_columns: &[Vec<f64>],
    transport: Arc<dyn Transport>,
    workspaces: &mut [IterationWorkspace],
    start: Instant,
) -> Result<BatchSolveOutcome, CoreError> {
    let parts = system.num_parts();
    check_transport_ranks(parts, &transport)?;
    if rhs_columns.is_empty() {
        return Ok(BatchSolveOutcome {
            columns: Vec::new(),
            column_converged_at: Vec::new(),
            converged: true,
            iterations: 0,
            iterations_per_part: vec![0; parts],
            last_increment: 0.0,
            part_reports: Vec::new(),
            wall_seconds: start.elapsed().as_secs_f64(),
        });
    }
    let board = ColumnBoard::new(parts, rhs_columns.len());
    run_workers(
        system,
        &Rhs::Batch(rhs_columns, board),
        &transport,
        workspaces,
        start,
    )
}
