//! The threaded adapter: one thread per rank over a shared transport, for
//! one right-hand side in either execution mode.

use super::drive::{drive, mode_policies, receive_sources, RankLoop};
use super::engine::RankEngine;
use super::failure::{FailurePolicy, RankLink};
use crate::driver_common::IterationWorkspace;
use crate::prepared::PreparedSystem;
use crate::solver::{Method, MultisplittingConfig, PartReport, SolveOutcome};
use crate::stop::Stop;
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

/// Output of one worker thread.
struct WorkerOutput {
    part: usize,
    /// This rank's local iterate.
    x_local: Vec<f64>,
    stop: Stop,
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

/// Refuses a transport the solve cannot run over: one handed to a Krylov
/// method, whose outer loop runs in the calling thread and sends no message,
/// or one whose rank count does not match the decomposition.  The cold solve
/// checks it before the expensive factorizations, so misconfiguration fails
/// fast.
pub(crate) fn check_transport(
    method: Method,
    parts: usize,
    transport: &Arc<dyn Transport>,
) -> Result<(), CoreError> {
    if method != Method::Stationary {
        return Err(CoreError::Decomposition(format!(
            "a transport carries Method::Stationary only, not {method:?}; the Krylov outer \
             loop runs in the calling thread, so solve without one"
        )));
    }
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
    iterations: u64,
    targets: &[usize],
    wall_seconds: f64,
) -> PartReport {
    let factor_stats = factor.stats().clone();
    let dep_flops = 2 * (blk.dep_left.nnz() + blk.dep_right.nnz()) as u64;
    let flops_per_iteration = dep_flops + factor_stats.solve_flops();
    let memory_bytes = blk.memory_bytes() + factor_stats.factor_memory_bytes();
    let bytes_sent_per_iteration = if iterations > 0 && !targets.is_empty() {
        engine.outgoing_encoded_len() * targets.len()
    } else {
        0
    };
    PartReport {
        part: blk.part,
        factor_stats,
        iterations,
        bytes_sent_per_iteration,
        messages_per_iteration: targets.len(),
        flops_per_iteration,
        memory_bytes,
        wall_seconds,
        solve_path: engine.path_stats(),
    }
}

/// The one worker of the threaded adapter: builds rank `part`'s engine,
/// picks the policy stack of the execution mode and drives it to
/// completion.
fn rank_worker(
    system: &PreparedSystem,
    part: usize,
    senders_to_me: &[usize],
    rhs: &[f64],
    transport: &dyn Transport,
    ws: &mut IterationWorkspace,
) -> Result<WorkerOutput, CoreError> {
    let t0 = Instant::now();
    let config = &system.config;
    let (blk, factor) = (&system.blocks[part], system.factors[part].as_ref());
    let targets = &system.send_targets[part];
    let engine = RankEngine::single(
        &system.partition,
        blk,
        &rhs[system.partition.extended_range(part)],
        factor,
        config.weighting,
        ws,
    );
    let link = RankLink::new(transport, part, targets, senders_to_me);
    let policies = mode_policies(
        config.mode,
        config,
        part,
        link.world(),
        THREADED_PEER_TIMEOUT,
        FailurePolicy::default(),
    );
    let mut rank = RankLoop::new(engine, link, policies, config.max_iterations, None);
    let stop = drive(&mut rank)?;
    let report = part_report(
        blk,
        factor,
        &rank.engine,
        stop.iterations,
        targets,
        t0.elapsed().as_secs_f64(),
    );
    Ok(WorkerOutput {
        part,
        x_local: rank.engine.x_local().to_vec(),
        stop,
        report,
    })
}

/// Threaded solve of one right-hand side over a prepared system, in the
/// configured execution mode: spawns one [`rank_worker`] thread per part
/// over `transport`, joins them all, and assembles the global solution with
/// the weighting scheme.  Blocks and factorizations are only *read*, so the
/// same prepared system serves any number of solves; `workspaces` supplies
/// one [`IterationWorkspace`] per part (pooled, already grown buffers, so
/// warm solves allocate nothing in the iteration loop).
pub(crate) fn run_single(
    system: &PreparedSystem,
    rhs: &[f64],
    transport: Arc<dyn Transport>,
    workspaces: &mut [IterationWorkspace],
    start: Instant,
) -> Result<SolveOutcome, CoreError> {
    let parts = system.num_parts();
    debug_assert_eq!(workspaces.len(), parts);
    let senders = receive_sources(&system.send_targets);
    let transport = transport.as_ref();

    let outputs: Vec<Result<WorkerOutput, CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = senders
            .iter()
            .zip(workspaces.iter_mut())
            .enumerate()
            .map(|(part, (senders_to_me, ws))| {
                scope.spawn(move || rank_worker(system, part, senders_to_me, rhs, transport, ws))
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

    let mut locals: Vec<Vec<f64>> = vec![Vec::new(); parts];
    let mut reports = Vec::with_capacity(parts);
    let mut stops = Vec::with_capacity(parts);
    for out in outputs {
        let out = out?;
        stops.push(out.stop);
        locals[out.part] = out.x_local;
        reports.push(out.report);
    }
    reports.sort_by_key(|r| r.part);
    Ok(SolveOutcome::new(
        system.config.weighting.assemble(&system.partition, &locals),
        Stop::merge(stops),
        reports,
        start.elapsed().as_secs_f64(),
        system.config.mode,
    ))
}
