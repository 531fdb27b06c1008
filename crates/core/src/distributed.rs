//! Per-rank multisplitting driver for multi-process execution — an adapter
//! over the unified [`crate::runtime`].
//!
//! [`run_rank`] drives the same [`crate::runtime::RankEngine`] the threaded
//! adapters use, over any [`Transport`] (the multi-process runtime passes a
//! [`msplit_comm::TcpTransport`] endpoint):
//!
//! * **synchronous** — the tree vote protocol (`TreeVotes`) + the lockstep
//!   progress rule: each iteration every rank's vote
//!   aggregates up the vote tree to rank 0 ([`Message::VoteAggregate`]) and
//!   the rank then blocks until it has both the decision for that iteration
//!   ([`Message::ConvergenceVote`], forwarded down the same tree) and the
//!   solution slices of every peer it depends on; the vote wait *is* the
//!   barrier and the decision broadcast *is* the allreduce, so the iterates
//!   are bitwise-identical to the threaded adapter's (which runs the very
//!   same code over an in-process transport),
//! * **asynchronous** — confirmation waves (`ConfirmationWaves`) + the
//!   free-running progress rule: ranks free-run and send votes to
//!   rank 0 on verdict changes; rank 0 runs a confirmation-wave vote board
//!   and broadcasts
//!   [`Message::GlobalConverged`] once every rank has re-confirmed its
//!   converged vote for the configured number of waves.
//!
//! There is one detection protocol per mode and no knob to pick another;
//! `runtime::mode_policies` is the single place that maps the mode to its
//! stack.  The rank loop over that stack runs on this thread under
//! the runtime's blocking executor, the same one the threaded adapter
//! uses.
//!
//! A rank that exhausts its iteration budget (or hits a transport error)
//! broadcasts [`Message::Halt`] so no peer spins forever; a rank observed
//! dead mid-lockstep (heartbeat probe hitting
//! [`msplit_comm::CommError::Disconnected`]) downgrades to a halt broadcast
//! and a prompt error instead of a hang — see
//! [`crate::runtime::FailurePolicy`].

use crate::checkpoint::{self, Checkpointer};
use crate::runtime::{
    drive, mode_policies, EventLog, FailurePolicy, IterationWorkspace, RankEngine, RankLink,
    RankLoop,
};
use crate::solver::MultisplittingConfig;
use crate::stop::Stop;
use crate::CoreError;
#[allow(unused_imports)] // doc links
use msplit_comm::message::Message;
use msplit_comm::transport::Transport;
use msplit_sparse::{BandPartition, LocalBlocks};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::runtime::receive_sources;

/// Result of one rank's participation in a distributed solve.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// This rank (= band index).
    pub rank: usize,
    /// The rank's solution over its *extended* range.
    pub x_local: Vec<f64>,
    /// Why and when this rank stopped; a reshape names the dead rank so the
    /// launcher can re-partition the bands over the survivors
    /// ([`FailurePolicy::Redistribute`]).
    pub stop: Stop,
    /// Wall-clock seconds spent in the iteration loop (factorization
    /// included).
    pub wall_seconds: f64,
    /// Recorded engine transitions, when [`RankOptions::record_events`] was
    /// set — replayable with [`crate::runtime::RankEngine::replay`].
    pub event_log: Option<EventLog>,
}

/// Periodic checkpointing of a distributed rank (see [`crate::checkpoint`]).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory snapshots are written into (the shared job directory).
    pub dir: PathBuf,
    /// Snapshot period in outer iterations.
    pub every: u64,
    /// Fingerprint of the system matrix — pins every snapshot so a resumed
    /// run cannot mix state from a different system.
    pub fingerprint: u64,
}

/// Options of a distributed rank run that are not part of the numerical
/// configuration.
#[derive(Debug, Clone)]
pub struct RankOptions {
    /// How long a blocking wait (lockstep votes, peer slices) may stall
    /// before the run is abandoned with an error.
    pub peer_timeout: Duration,
    /// How a rank death observed mid-solve is handled.
    pub failure: FailurePolicy,
    /// Record every engine transition for deterministic offline replay.
    pub record_events: bool,
    /// Write periodic snapshots for checkpoint/restart.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from the snapshot of this iteration (requires `checkpoint`
    /// for the directory and fingerprint).
    pub resume_at: Option<u64>,
    /// Warm-start the iterate from this global initial guess (length =
    /// system order) instead of zero — how a redistributed solve carries
    /// over pre-reshape progress.
    pub initial_guess: Option<Vec<f64>>,
}

impl Default for RankOptions {
    fn default() -> Self {
        RankOptions {
            peer_timeout: Duration::from_secs(60),
            failure: FailurePolicy::default(),
            record_events: false,
            checkpoint: None,
            resume_at: None,
            initial_guess: None,
        }
    }
}

/// Runs one rank of the distributed multisplitting solve over `transport`.
///
/// * `partition` / `blk` — the global band partition and this rank's blocks
///   (the rank is `blk.part`); the factorization of `blk.a_sub` happens
///   here, so singularity surfaces before any message is exchanged,
/// * `send_targets` — the peers this rank's slice must be sent to each
///   iteration (row `blk.part` of [`crate::Decomposition::send_targets`]),
/// * `senders_to_me` — the peers whose slices this rank waits for in
///   lockstep mode (every `t` with `blk.part ∈ send_targets[t]`),
/// * `transport` — any [`Transport`]; the multi-process runtime passes a
///   [`msplit_comm::TcpTransport`] endpoint whose local rank is `blk.part`.
pub fn run_rank(
    partition: &BandPartition,
    blk: &LocalBlocks,
    send_targets: &[usize],
    senders_to_me: &[usize],
    config: &MultisplittingConfig,
    transport: Arc<dyn Transport>,
    options: &RankOptions,
) -> Result<RankOutcome, CoreError> {
    let start = Instant::now();
    let world = partition.num_parts();
    let rank = blk.part;
    if transport.num_ranks() != world {
        return Err(CoreError::Decomposition(format!(
            "transport has {} ranks but the decomposition has {world} parts",
            transport.num_ranks()
        )));
    }
    let solver = config.solver_kind.build();
    let factor = solver.factorize(&blk.a_sub).map_err(CoreError::Direct)?;

    let mut ws = IterationWorkspace::new();
    let mut engine = RankEngine::single(
        partition,
        blk,
        &blk.b_sub,
        factor.as_ref(),
        config.weighting,
        &mut ws,
    );
    if let Some(x0) = &options.initial_guess {
        engine.warm_start(x0)?;
    }
    // Resume from a pinned snapshot *before* any recording starts, so an
    // event log captures only the post-resume transitions.
    let restored_vote = match (&options.checkpoint, options.resume_at) {
        (Some(ck), Some(iteration)) => {
            let path = ck.dir.join(checkpoint::checkpoint_file(rank, iteration));
            let snapshot = checkpoint::load_pinned(&path, ck.fingerprint)?;
            if snapshot.world != world || snapshot.rank != rank {
                return Err(CoreError::Distributed(format!(
                    "rank {rank}: snapshot {} is for rank {} of {} — expected rank {rank} of {world}",
                    path.display(),
                    snapshot.rank,
                    snapshot.world,
                )));
            }
            Some(snapshot.restore_into(&mut engine)?)
        }
        (None, Some(_)) => {
            return Err(CoreError::Distributed(format!(
                "rank {rank}: resume_at requires a checkpoint directory and fingerprint"
            )));
        }
        _ => None,
    };
    if options.record_events {
        engine.record_events();
    }
    let checkpointer = options.checkpoint.as_ref().map(|ck| Checkpointer {
        dir: ck.dir.clone(),
        every: ck.every,
        fingerprint: ck.fingerprint,
        world,
    });
    let link = RankLink::new(transport.as_ref(), rank, send_targets, senders_to_me);
    let (mut vote, stack) = mode_policies(
        config.mode,
        config,
        rank,
        world,
        options.peer_timeout,
        options.failure,
    );
    if let Some(state) = restored_vote {
        vote.restore(state);
    }
    let mut rank_loop = RankLoop::new(
        engine,
        link,
        (vote, stack),
        config.max_iterations,
        checkpointer,
    );
    let stop = drive(&mut rank_loop)?;
    Ok(RankOutcome {
        rank,
        x_local: rank_loop.engine.x_local().to_vec(),
        stop,
        wall_seconds: start.elapsed().as_secs_f64(),
        event_log: rank_loop.engine.take_event_log(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;
    use crate::solver::{ExecutionMode, MultisplittingConfig};
    use crate::stop::StopReason;
    use crate::weighting::WeightingScheme;
    use msplit_comm::InProcTransport;
    use msplit_direct::SolverKind;
    use msplit_sparse::generators::{self, DiagDominantConfig};

    fn config(parts: usize, mode: ExecutionMode) -> MultisplittingConfig {
        MultisplittingConfig {
            parts,
            overlap: 0,
            weighting: WeightingScheme::OwnerTakes,
            solver_kind: SolverKind::SparseLu,
            tolerance: 1e-10,
            max_iterations: 20_000,
            mode,
            async_confirmations: 3,
            relative_speeds: Vec::new(),
            method: crate::solver::Method::Stationary,
        }
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
    }

    /// Runs `run_rank` for every rank but `dead` in its own thread over one
    /// in-process transport — the multi-process topology without the
    /// processes.  `dead`, if any, is closed on the transport up front, like
    /// a worker process that is already gone.
    fn run_ranks_except(
        dead: Option<usize>,
        a: &msplit_sparse::CsrMatrix,
        b: &[f64],
        cfg: &MultisplittingConfig,
        options: &RankOptions,
    ) -> (BandPartition, Vec<Result<RankOutcome, CoreError>>) {
        let d = Decomposition::uniform(a, b, cfg.parts, cfg.overlap).unwrap();
        let targets = d.send_targets();
        let sources = receive_sources(&targets);
        let (partition, blocks) = d.into_blocks();
        let transport = InProcTransport::new(cfg.parts);
        if let Some(dead) = dead {
            transport.close_rank(dead).unwrap();
        }
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .iter()
                .filter(|blk| Some(blk.part) != dead)
                .map(|blk| {
                    let transport: Arc<dyn Transport> = transport.clone();
                    let (partition, targets, sources) = (&partition, &targets, &sources);
                    scope.spawn(move || {
                        run_rank(
                            partition,
                            blk,
                            &targets[blk.part],
                            &sources[blk.part],
                            cfg,
                            transport,
                            options,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (partition, results)
    }

    /// Runs every rank to completion and assembles the global solution.
    fn run_all_ranks(
        a: &msplit_sparse::CsrMatrix,
        b: &[f64],
        cfg: &MultisplittingConfig,
        options: &RankOptions,
    ) -> (Vec<f64>, Vec<RankOutcome>) {
        let (partition, results) = run_ranks_except(None, a, b, cfg, options);
        let outcomes: Vec<RankOutcome> = results.into_iter().map(Result::unwrap).collect();
        let locals: Vec<Vec<f64>> = outcomes.iter().map(|o| o.x_local.clone()).collect();
        let x = cfg.weighting.assemble(&partition, &locals);
        (x, outcomes)
    }

    /// What the survivors of rank 1's death must report: at least one typed
    /// error naming it; everyone else stopped cleanly, unconverged, by a
    /// survivor's Halt broadcast.
    fn assert_halted_by_death_of_rank_1(results: Vec<Result<RankOutcome, CoreError>>) {
        let mut death_errors = 0;
        for result in results {
            match result {
                Err(CoreError::Distributed(msg)) => {
                    assert!(msg.contains("rank 1 "), "unexpected message: {msg}");
                    death_errors += 1;
                }
                Ok(outcome) => assert_eq!(outcome.stop.reason, StopReason::Halted),
                Err(other) => panic!("unexpected error kind: {other:?}"),
            }
        }
        assert!(death_errors >= 1, "no rank reported the death");
    }

    #[test]
    fn distributed_sync_matches_threaded_sync() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 240,
            seed: 15,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 9) as f64) - 4.0);
        let cfg = config(3, ExecutionMode::Synchronous);
        let (x, outcomes) = run_all_ranks(&a, &b, &cfg, &RankOptions::default());
        assert!(outcomes.iter().all(|o| o.stop.converged()));
        // Lockstep: every rank performs the same number of iterations.
        let iters: Vec<u64> = outcomes.iter().map(|o| o.stop.iterations).collect();
        assert!(iters.iter().all(|&i| i == iters[0]), "iters {iters:?}");
        assert!(max_err(&x, &x_true) < 1e-7);

        let threaded = crate::solver::MultisplittingSolver::new(cfg)
            .solve(&a, &b)
            .unwrap();
        assert!(threaded.stop.converged());
        // Same engine, same policies: identical iterates and counts.
        assert_eq!(threaded.stop.iterations, iters[0]);
        assert_eq!(x, threaded.x);
    }

    #[test]
    fn distributed_async_converges_to_the_solution() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 300,
            seed: 8,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
        let cfg = config(4, ExecutionMode::Asynchronous);
        let (x, outcomes) = run_all_ranks(&a, &b, &cfg, &RankOptions::default());
        assert!(outcomes.iter().all(|o| o.stop.converged()));
        assert!(max_err(&x, &x_true) < 1e-6);
    }

    #[test]
    fn tree_detection_matches_flat_lockstep_bitwise() {
        // One rank more than the root can parent makes the production vote
        // tree two levels deep.  Run it through `run_rank` under real thread
        // scheduling and compare with the simulator's flat vote (fan-in
        // P − 1) on the same system: the fan-in must not perturb a bit.
        use crate::runtime::VOTE_TREE_ARITY;
        use crate::scale::{simulate_ranks, Protocol, ScaleConfig};
        let world = VOTE_TREE_ARITY + 2;
        let rows_per_rank = 4;
        let a = generators::tridiagonal(world * rows_per_rank, 4.0, -1.0);
        let (_, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
        let cfg = config(world, ExecutionMode::Synchronous);
        let (x_tree, tree) = run_all_ranks(&a, &b, &cfg, &RankOptions::default());
        assert!(tree.iter().all(|o| o.stop.converged()));
        let flat = simulate_ranks(&ScaleConfig {
            ranks: world,
            rows_per_rank,
            tolerance: cfg.tolerance,
            max_iterations: cfg.max_iterations,
            protocol: Protocol::flat(world),
            ..Default::default()
        })
        .unwrap();
        assert!(flat.stop.converged());
        assert!(tree
            .iter()
            .all(|o| o.stop.iterations == flat.stop.iterations));
        assert_eq!(x_tree, flat.x, "tree votes must not perturb the iterates");
    }

    #[test]
    fn budget_exhaustion_halts_every_rank() {
        let a = generators::spectral_radius_targeted(120, 0.995);
        let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let mut cfg = config(3, ExecutionMode::Asynchronous);
        cfg.max_iterations = 5;
        let (_, outcomes) = run_all_ranks(&a, &b, &cfg, &RankOptions::default());
        // Free-running: a rank either spends its own budget or is halted by
        // a peer that spent its budget first.
        assert!(outcomes.iter().all(|o| matches!(
            o.stop.reason,
            StopReason::BudgetExhausted | StopReason::Halted
        )));
        assert!(outcomes.iter().all(|o| o.stop.iterations <= 5));
        let merged = Stop::merge(outcomes.iter().map(|o| o.stop));
        assert_eq!(merged.reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn lockstep_budget_exhaustion_is_reported_by_every_rank() {
        // Lockstep ranks all run out at the same iteration, so every rank,
        // and the merged stop, says the budget ran out — never "halted".
        let a = generators::spectral_radius_targeted(120, 0.995);
        let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let mut cfg = config(3, ExecutionMode::Synchronous);
        cfg.max_iterations = 3;
        let (_, outcomes) = run_all_ranks(&a, &b, &cfg, &RankOptions::default());
        for o in &outcomes {
            assert_eq!(
                o.stop.reason,
                StopReason::BudgetExhausted,
                "rank {}",
                o.rank
            );
            assert_eq!(o.stop.iterations, 3);
        }
        let merged = Stop::merge(outcomes.iter().map(|o| o.stop));
        assert_eq!(merged.reason, StopReason::BudgetExhausted);
        assert_eq!(merged.iterations, 3);
    }

    #[test]
    fn receive_sources_transposes_targets() {
        let targets = vec![vec![1], vec![0, 2], vec![1]];
        assert_eq!(
            receive_sources(&targets),
            vec![vec![1], vec![0, 2], vec![1]]
        );
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let b = vec![1.0; 30];
        let cfg = config(3, ExecutionMode::Synchronous);
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let partition = d.partition().clone();
        let blk = d.blocks(0).clone();
        let transport: Arc<dyn Transport> = InProcTransport::new(2);
        assert!(matches!(
            run_rank(
                &partition,
                &blk,
                &[1],
                &[1],
                &cfg,
                transport,
                &RankOptions::default()
            ),
            Err(CoreError::Decomposition(_))
        ));
    }

    #[test]
    fn recorded_rank_replays_bitwise() {
        // The engine is pure: replaying the recorded ingest/step sequence
        // onto a freshly prepared engine reproduces the live run bitwise.
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 180,
            seed: 23,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 8) as f64) - 3.0);
        let cfg = config(3, ExecutionMode::Synchronous);
        let options = RankOptions {
            record_events: true,
            ..Default::default()
        };
        let (_, outcomes) = run_all_ranks(&a, &b, &cfg, &options);

        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let solver = cfg.solver_kind.build();
        for outcome in &outcomes {
            let log = outcome.event_log.as_ref().expect("recording was enabled");
            assert!(!log.events.is_empty());
            let blk = &blocks[outcome.rank];
            let factor = solver.factorize(&blk.a_sub).unwrap();
            let mut ws = IterationWorkspace::new();
            let mut twin = RankEngine::single(
                &partition,
                blk,
                &blk.b_sub,
                factor.as_ref(),
                cfg.weighting,
                &mut ws,
            );
            twin.replay(log).unwrap();
            assert_eq!(twin.iterations(), outcome.stop.iterations);
            assert_eq!(twin.x_local(), outcome.x_local.as_slice());
        }
    }

    #[test]
    fn lockstep_rank_death_downgrades_to_halt_not_hang() {
        // Three ranks; rank 1 is dead from the start (closed).  Rank 0 only
        // *receives* from rank 1, so no data send surfaces the death — the
        // heartbeat probe must.  Rank 2 neither sends to nor receives from
        // rank 1; it must be stopped by rank 0's Halt broadcast instead of
        // timing out.
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let b = vec![1.0; 30];
        let mut cfg = config(3, ExecutionMode::Synchronous);
        cfg.max_iterations = 100_000;
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let transport = InProcTransport::new(3);
        transport.close_rank(1).unwrap();
        let options = RankOptions {
            peer_timeout: Duration::from_secs(30),
            failure: FailurePolicy::HaltOnDeath {
                heartbeat: Duration::from_millis(150),
            },
            ..Default::default()
        };
        let started = Instant::now();
        let (r0, r2) = std::thread::scope(|scope| {
            let t0: Arc<dyn Transport> = transport.clone();
            let t2: Arc<dyn Transport> = transport.clone();
            let partition = &partition;
            let blocks = &blocks;
            let options = &options;
            let cfg = &cfg;
            let h0 = scope.spawn(move || {
                // Rank 0 waits on slices from rank 1 (and rank 2's vote).
                run_rank(partition, &blocks[0], &[2], &[1], cfg, t0, options)
            });
            let h2 =
                scope.spawn(move || run_rank(partition, &blocks[2], &[0], &[0], cfg, t2, options));
            (h0.join().unwrap(), h2.join().unwrap())
        });
        // The death was detected through a heartbeat probe well inside the
        // 30 s peer timeout.  Both survivors probe, so either may be the one
        // that observes the disconnect and errors; the other is stopped by
        // the resulting Halt broadcast (cleanly, without error).
        assert!(started.elapsed() < Duration::from_secs(10), "hung too long");
        assert_halted_by_death_of_rank_1(vec![r0, r2]);
    }

    #[test]
    fn interior_tree_rank_death_halts_the_run_promptly() {
        // The two-level world of `tree_detection_matches_flat_lockstep_bitwise`
        // with rank 1 — the interior node that aggregates rank 17's vote —
        // dead from the start.  Its parent waits on its aggregate, its
        // child's vote and its neighbours' slices go nowhere: every survivor
        // must come back well inside heartbeat + grace with a typed result,
        // nobody hangs until the 30 s peer timeout.
        let world = crate::runtime::VOTE_TREE_ARITY + 2;
        let a = generators::tridiagonal(world * 4, 4.0, -1.0);
        let b = vec![1.0; world * 4];
        let mut cfg = config(world, ExecutionMode::Synchronous);
        cfg.max_iterations = 100_000;
        let options = RankOptions {
            peer_timeout: Duration::from_secs(30),
            failure: FailurePolicy::HaltOnDeath {
                heartbeat: Duration::from_millis(150),
            },
            ..Default::default()
        };
        let started = Instant::now();
        let (_, results) = run_ranks_except(Some(1), &a, &b, &cfg, &options);
        assert!(started.elapsed() < Duration::from_secs(10), "hung too long");
        assert_eq!(results.len(), world - 1);
        assert_halted_by_death_of_rank_1(results);
    }

    #[test]
    fn halt_racing_global_converged_still_reports_convergence() {
        // Regression for the converged-peer-exit race: a rank whose inbox
        // holds Halt *before* GlobalConverged (any interleaving is possible
        // across senders) must still report convergence — Halt handling is
        // idempotent and the grace drain lets the convergence notice win.
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let b = vec![1.0; 20];
        let mut cfg = config(2, ExecutionMode::Asynchronous);
        cfg.max_iterations = 100_000;
        let d = Decomposition::uniform(&a, &b, 2, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let transport = InProcTransport::new(2);
        // Rank 1's inbox: Halt first, then the convergence broadcast.
        transport.send(0, 1, Message::Halt).unwrap();
        transport
            .send(0, 1, Message::GlobalConverged { iteration: 7 })
            .unwrap();
        let outcome = run_rank(
            &partition,
            &blocks[1],
            &[0],
            &[0],
            &cfg,
            transport,
            &RankOptions::default(),
        )
        .unwrap();
        assert_eq!(
            outcome.stop.reason,
            StopReason::Converged,
            "GlobalConverged must win over Halt"
        );

        // And a lone Halt (no convergence notice racing it) still halts.
        let transport2 = InProcTransport::new(2);
        transport2.send(0, 1, Message::Halt).unwrap();
        let halted = run_rank(
            &partition,
            &blocks[1],
            &[0],
            &[0],
            &cfg,
            transport2,
            &RankOptions::default(),
        )
        .unwrap();
        assert_eq!(halted.stop.reason, StopReason::Halted);
    }

    #[test]
    fn free_running_tolerates_converged_peer_exit() {
        // Satellite regression: the converged-peer-exit rule lives in the
        // ConfirmationWaves protocol (DeathRule::Tolerate) — a slice sent to a
        // rank that already exited must be skipped, not fatal, because its
        // GlobalConverged is already queued.
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let b = vec![1.0; 20];
        let mut cfg = config(2, ExecutionMode::Asynchronous);
        cfg.max_iterations = 25;
        let d = Decomposition::uniform(&a, &b, 2, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();

        // Rank 0 already exited with its convergence notice queued: the
        // notice wins before any send can observe the death.
        let transport = InProcTransport::new(2);
        transport
            .send(0, 1, Message::GlobalConverged { iteration: 3 })
            .unwrap();
        transport.close_rank(0).unwrap();
        let outcome = run_rank(
            &partition,
            &blocks[1],
            &[0],
            &[0],
            &cfg,
            transport,
            &RankOptions::default(),
        )
        .unwrap();
        assert!(outcome.stop.converged());

        // Rank 0 exited with nothing queued: no convergence notice can ever
        // arrive, so the death must surface as a prompt error under the
        // default HaltOnDeath policy — not be tolerated silently until the
        // budget runs out (the pre-fix behaviour this test regressed on).
        let transport2 = InProcTransport::new(2);
        transport2.close_rank(0).unwrap();
        let started = Instant::now();
        let outcome2 = run_rank(
            &partition,
            &blocks[1],
            &[0],
            &[0],
            &cfg,
            transport2,
            &RankOptions::default(),
        );
        assert!(started.elapsed() < Duration::from_secs(10), "hung too long");
        match outcome2 {
            Err(CoreError::Distributed(msg)) => {
                assert!(msg.contains("rank 0"), "unexpected message: {msg}");
            }
            other => panic!("expected a prompt death error, got {other:?}"),
        }
    }

    #[test]
    fn free_running_redistribute_surfaces_a_reshape_request() {
        // Under Redistribute a dead peer is not fatal: the rank returns
        // cleanly with a reshape request naming the dead rank, so the
        // launcher can re-partition the bands over the survivors.
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let b = vec![1.0; 20];
        let mut cfg = config(2, ExecutionMode::Asynchronous);
        cfg.max_iterations = 100_000;
        let d = Decomposition::uniform(&a, &b, 2, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let transport = InProcTransport::new(2);
        transport.close_rank(0).unwrap();
        let options = RankOptions {
            failure: FailurePolicy::Redistribute {
                heartbeat: Duration::from_millis(100),
            },
            ..Default::default()
        };
        let started = Instant::now();
        let outcome = run_rank(
            &partition,
            &blocks[1],
            &[0],
            &[0],
            &cfg,
            transport,
            &options,
        )
        .unwrap();
        assert!(started.elapsed() < Duration::from_secs(10), "hung too long");
        assert_eq!(outcome.stop.reason, StopReason::Reshape(0));
    }

    #[test]
    fn sync_resume_from_checkpoint_matches_uninterrupted_run() {
        // The in-process version of the kill-and-resume e2e: run a lockstep
        // solve to completion, then re-run it with checkpoints enabled, stop
        // it early (budget), resume every rank from the max common snapshot
        // and check the resumed solution is bitwise-identical.
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 240,
            seed: 41,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 11) as f64) - 5.0);
        let cfg = config(3, ExecutionMode::Synchronous);
        let (x_full, full) = run_all_ranks(&a, &b, &cfg, &RankOptions::default());
        assert!(full.iter().all(|o| o.stop.converged()));
        let full_iters = full[0].stop.iterations;
        assert!(full_iters > 8, "need room to interrupt: {full_iters}");

        let dir = std::env::temp_dir().join(format!(
            "msplit_ckpt_test_{}_{:x}",
            std::process::id(),
            full_iters
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let fingerprint = a.fingerprint();
        let ckpt = CheckpointConfig {
            dir: dir.clone(),
            every: 2,
            fingerprint,
        };

        // Interrupted run: budget expires mid-solve, snapshots remain.
        let mut cut = cfg.clone();
        cut.max_iterations = full_iters / 2;
        let options = RankOptions {
            checkpoint: Some(ckpt.clone()),
            ..Default::default()
        };
        let (_, partial) = run_all_ranks(&a, &b, &cut, &options);
        assert!(partial
            .iter()
            .all(|o| o.stop.reason == StopReason::BudgetExhausted));

        let resume_at = checkpoint::max_common_iteration(&dir, 3)
            .unwrap()
            .expect("snapshots were written");
        assert!(resume_at > 0 && resume_at <= cut.max_iterations);

        let resumed_options = RankOptions {
            checkpoint: Some(ckpt),
            resume_at: Some(resume_at),
            ..Default::default()
        };
        let (x_resumed, resumed) = run_all_ranks(&a, &b, &cfg, &resumed_options);
        assert!(resumed.iter().all(|o| o.stop.converged()));
        // Same lockstep trajectory: the resumed ranks pick up at the
        // snapshot iteration and land on the very same bits.
        assert_eq!(resumed[0].stop.iterations, full_iters);
        assert_eq!(x_resumed, x_full);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_checkpoint_config_is_rejected() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let b = vec![1.0; 30];
        let cfg = config(3, ExecutionMode::Synchronous);
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let partition = d.partition().clone();
        let blk = d.blocks(0).clone();
        let transport: Arc<dyn Transport> = InProcTransport::new(3);
        let options = RankOptions {
            resume_at: Some(4),
            ..Default::default()
        };
        assert!(matches!(
            run_rank(&partition, &blk, &[1], &[1], &cfg, transport, &options),
            Err(CoreError::Distributed(_))
        ));
    }
}
