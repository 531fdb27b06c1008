use super::*;
use crate::decomposition::Decomposition;
use crate::distributed::{run_rank, RankOptions};
use crate::solver::{ExecutionMode, MultisplittingConfig, MultisplittingSolver, SolveOutcome};
use crate::stop::{Stop, StopReason};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_comm::message::Message;
use msplit_comm::transport::Transport;
use msplit_comm::InProcTransport;
use msplit_direct::SolverKind;
use msplit_sparse::generators;
use std::time::Duration;

#[test]
fn vote_board_requires_full_confirmation_waves() {
    let mut b = VoteBoard::new(2, 2);
    assert!(!b.record(0, true));
    assert!(!b.record(1, true)); // all true -> wave 1 starts, rank1 confirmed
    assert!(!b.record(0, true)); // wave 1 complete
    assert!(!b.record(1, true));
    assert!(b.record(0, true)); // wave 2 complete -> global
    assert!(b.is_global());
    // Latched: later dissent is ignored.
    assert!(b.record(1, false));
}

#[test]
fn vote_board_resets_on_dissent() {
    let mut b = VoteBoard::new(2, 1);
    b.record(0, true);
    b.record(1, true); // wave started, rank1 confirmed
    b.record(1, false); // dissent resets everything
    assert!(!b.is_global());
    b.record(1, true);
    assert!(!b.is_global()); // fresh wave: rank1 confirmed, rank0 pending
    assert!(b.record(0, true));
}

#[test]
fn increment_vote_windows() {
    let obs = |increment: f64, dep_change: f64| StepObservation {
        iteration: 1,
        increment,
        dep_change,
        fresh_data: true,
        needs_fresh_data: true,
    };
    // Lockstep: one below-tolerance increment suffices; dep_change is
    // not folded in.
    let mut lock = IncrementVote::lockstep(1e-8);
    assert!(!lock.vote(&obs(1.0, 0.0)));
    assert!(lock.vote(&obs(1e-9, 5.0)));
    // Free-running: 2-iteration window over max(increment, dep_change).
    let mut free = IncrementVote::free_running(1e-8);
    assert!(!free.vote(&obs(1e-9, 0.0)));
    assert!(free.vote(&obs(1e-9, 0.0)));
    assert!(!free.vote(&obs(1e-9, 1.0))); // moving inputs reset the window
    assert!(!free.vote(&obs(1e-9, 0.0)));
    assert!(free.vote(&obs(1e-9, 0.0)));
}

#[test]
fn stale_sweep_guard_vetoes_without_fresh_data() {
    let mut guarded = StaleSweepGuard::new(IncrementVote::lockstep(1e-8), 1e-8);
    let mut obs = StepObservation {
        iteration: 1,
        increment: 1e-9,
        dep_change: 0.0,
        fresh_data: false,
        needs_fresh_data: true,
    };
    // Tiny increment but no fresh data: a sweep over in-flight slices.
    assert!(!guarded.vote(&obs));
    obs.fresh_data = true;
    assert!(guarded.vote(&obs));
    // Moving dependency values veto too.
    obs.dep_change = 1.0;
    assert!(!guarded.vote(&obs));
    // A rank without dependencies converges without ever receiving data.
    obs.dep_change = 0.0;
    obs.fresh_data = false;
    obs.needs_fresh_data = false;
    assert!(guarded.vote(&obs));
}

#[test]
fn broadcast_halt_is_idempotent_and_death_tolerant() {
    let transport = InProcTransport::new(3);
    transport.close_rank(1).unwrap();
    let targets = [1usize, 2usize];
    let mut link = RankLink::new(transport.as_ref(), 0, &targets, &[]);
    // Two broadcasts with one peer dead: no error, no panic, and the
    // live peer sees at most the two halts.
    link.broadcast_halt();
    link.broadcast_halt();
    assert_eq!(transport.try_recv(2).unwrap(), Some(Message::Halt));
    assert_eq!(transport.try_recv(2).unwrap(), Some(Message::Halt));
    assert_eq!(transport.try_recv(2).unwrap(), None);
    // Tolerate: a data send to the dead rank is skipped silently.
    link.send_ruled(1, Message::Halt, DeathRule::Tolerate)
        .unwrap();
}

#[test]
fn reshape_raised_by_a_fan_out_failure_ends_the_iteration_that_raised_it() {
    // Two lockstep ranks under Redistribute.  Rank 0 already queued its
    // iteration-1 slice and decision for rank 1, then died.  Rank 1's
    // iteration-1 fan-out to rank 0 fails and raises the reshape; the
    // iteration-1 wait still completes from the queued traffic, so the drive
    // loop must honor the reshape right there.  Waiting for the next probe
    // instead would time out on iteration 2, because the heartbeat is far
    // above the peer timeout.
    let a = generators::tridiagonal(20, 4.0, -1.0);
    let b = vec![1.0; 20];
    let cfg = adapter_config(2, 0, ExecutionMode::Synchronous);
    let d = Decomposition::uniform(&a, &b, 2, 0).unwrap();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let solver = SolverKind::SparseLu.build();
    let factor = solver.factorize(&blocks[0].a_sub).unwrap();
    let mut ws = IterationWorkspace::new();
    let mut rank0 = RankEngine::single(
        &partition,
        &blocks[0],
        &blocks[0].b_sub,
        factor.as_ref(),
        cfg.weighting,
        &mut ws,
    );
    rank0.step().unwrap();
    let transport = InProcTransport::new(2);
    transport.send(0, 1, rank0.outgoing()).unwrap();
    let decision = Message::ConvergenceVote {
        from: 0,
        iteration: 1,
        converged: false,
    };
    transport.send(0, 1, decision).unwrap();
    transport.close_rank(0).unwrap();
    let options = RankOptions {
        peer_timeout: Duration::from_millis(500),
        failure: FailurePolicy::Redistribute {
            heartbeat: Duration::from_secs(600),
        },
        ..Default::default()
    };
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
    assert_eq!(outcome.stop.reason, StopReason::Reshape(0));
    assert_eq!(outcome.stop.iterations, 1);
}

// ----- deadlines of the rank loop, driven by hand-fed clock values: no
// ----- sleeps, no threads; the test plays rank 0 through the transport.

/// Rank 1 of a two-band system, built for hand-polling over a transport
/// the test keeps.
struct PollFixture {
    partition: msplit_sparse::BandPartition,
    blocks: Vec<msplit_sparse::LocalBlocks>,
    factor: Box<dyn msplit_direct::api::Factorization>,
    ws: IterationWorkspace,
}

impl PollFixture {
    fn new() -> Self {
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let b = vec![1.0; 20];
        let d = Decomposition::uniform(&a, &b, 2, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let factor = SolverKind::SparseLu
            .build()
            .factorize(&blocks[1].a_sub)
            .unwrap();
        PollFixture {
            partition,
            blocks,
            factor,
            ws: IterationWorkspace::new(),
        }
    }

    /// Rank 1's loop in `mode`, exchanging with rank 0 only.
    fn rank1<'a>(
        &'a mut self,
        transport: &'a InProcTransport,
        mode: ExecutionMode,
        peer_timeout: Duration,
        failure: FailurePolicy,
    ) -> RankLoop<'a> {
        let cfg = adapter_config(2, 0, mode);
        let engine = RankEngine::single(
            &self.partition,
            &self.blocks[1],
            &self.blocks[1].b_sub,
            self.factor.as_ref(),
            cfg.weighting,
            &mut self.ws,
        );
        let link = RankLink::new(transport, 1, &[0], &[0]);
        let policies = mode_policies(mode, &cfg, 1, 2, peer_timeout, failure);
        RankLoop::new(engine, link, policies, 1_000, DriveHooks::default())
    }

    /// Rank 0's slice for `iteration`, as rank 1 receives it.
    fn slice(&self, iteration: u64) -> Message {
        Message::Solution {
            from: 0,
            iteration,
            offset: 0,
            values: vec![0.0; self.blocks[0].size],
        }
    }
}

/// Heartbeats rank 1 has sent to rank 0 (rank 0's inbox is drained).
fn heartbeats_at_rank0(transport: &InProcTransport) -> usize {
    std::iter::from_fn(|| transport.try_recv(0).unwrap())
        .filter(|m| matches!(m, Message::Heartbeat { from: 1 }))
        .count()
}

fn ms(millis: f64) -> Duration {
    Duration::from_secs_f64(millis / 1e3)
}

fn assert_pending(poll: Poll<Result<Stop, CoreError>>, wake_at: Duration) {
    match poll {
        Poll::Pending {
            wake_at: at,
            on_message: true,
        } => assert_eq!(at, wake_at),
        Poll::Pending { .. } => panic!("expected a wait on messages"),
        Poll::Ready(run) => panic!("expected pending, got {run:?}"),
    }
}

#[test]
fn halt_grace_lets_global_converged_win_until_20ms() {
    let mode = ExecutionMode::Asynchronous;
    let (timeout, failure) = (Duration::from_secs(60), FailurePolicy::default());
    // Halt first, convergence notice at 19 ms: convergence wins.
    let mut fx = PollFixture::new();
    let transport = InProcTransport::new(2);
    transport.send(0, 1, Message::Halt).unwrap();
    let mut rank = fx.rank1(&transport, mode, timeout, failure);
    assert_pending(rank.poll(ms(0.0)), ms(20.0));
    assert_pending(rank.poll(ms(10.0)), ms(20.0));
    transport
        .send(0, 1, Message::GlobalConverged { iteration: 3 })
        .unwrap();
    match rank.poll(ms(19.0)) {
        Poll::Ready(Ok(stop)) => {
            assert_eq!(stop, Stop::new(StopReason::Converged, 0, f64::INFINITY))
        }
        other => panic!("expected convergence, got {other:?}"),
    }
    // Nothing by 20 ms: halted exactly then, and not one poll earlier.
    let mut fx = PollFixture::new();
    let transport = InProcTransport::new(2);
    transport.send(0, 1, Message::Halt).unwrap();
    let mut rank = fx.rank1(&transport, mode, timeout, failure);
    for t in [0.0, 5.0, 10.0, 15.0, 19.999] {
        assert_pending(rank.poll(ms(t)), ms(20.0));
    }
    match rank.poll(ms(20.0)) {
        Poll::Ready(Ok(stop)) => assert_eq!(stop.reason, StopReason::Halted),
        other => panic!("expected a halt, got {other:?}"),
    }
}

#[test]
fn lockstep_times_out_exactly_at_the_peer_deadline() {
    // Rank 0 never sends: the wait that starts with the step at 7 ms fails
    // with the typed timeout when `now` reaches 7 + 50 ms.
    let mut fx = PollFixture::new();
    let transport = InProcTransport::new(2);
    let mode = ExecutionMode::Synchronous;
    let mut rank = fx.rank1(&transport, mode, ms(50.0), FailurePolicy::default());
    assert_pending(rank.poll(ms(7.0)), ms(57.0));
    assert_eq!(rank.engine.iterations(), 1);
    assert_pending(rank.poll(ms(30.0)), ms(57.0));
    assert_pending(rank.poll(ms(56.999)), ms(57.0));
    match rank.poll(ms(57.0)) {
        Poll::Ready(Err(CoreError::Distributed(msg))) => assert!(
            msg.contains("timed out waiting for lockstep traffic of iteration 1"),
            "unexpected message: {msg}"
        ),
        other => panic!("expected the lockstep timeout, got {other:?}"),
    }
}

#[test]
fn lockstep_probes_when_the_interval_passes_while_traffic_flows() {
    // A 10 ms heartbeat whose clock restarts at every wait.  Each iteration
    // rank 1 steps, then rank 0's slice and decision arrive and release the
    // wait in one poll — the inbox is never found empty — and a heartbeat
    // goes out exactly when that poll comes 10 ms or more after the wait
    // began.
    let mut fx = PollFixture::new();
    let slices: Vec<Message> = (1..=4).map(|k| fx.slice(k)).collect();
    let transport = InProcTransport::new(2);
    let failure = FailurePolicy::HaltOnDeath {
        heartbeat: ms(10.0),
    };
    let mode = ExecutionMode::Synchronous;
    let mut rank = fx.rank1(&transport, mode, Duration::from_secs(60), failure);
    let mut t = 0.0;
    let schedule = [(12.0, 1), (5.0, 0), (10.0, 1), (9.999, 0)];
    for (slice, (delay, probes)) in slices.into_iter().zip(schedule) {
        assert_pending(rank.poll(ms(t)), ms(t + 10.0));
        let iteration = rank.engine.iterations();
        assert_eq!(heartbeats_at_rank0(&transport), 0, "iteration {iteration}");
        transport.send(0, 1, slice).unwrap();
        let decision = Message::ConvergenceVote {
            from: 0,
            iteration,
            converged: false,
        };
        transport.send(0, 1, decision).unwrap();
        t += delay;
        assert!(matches!(
            rank.poll(ms(t)),
            Poll::Pending {
                on_message: false,
                ..
            }
        ));
        assert_eq!(
            heartbeats_at_rank0(&transport),
            probes,
            "iteration {iteration}"
        );
    }
}

#[test]
fn free_running_backoff_is_timed_from_after_the_step() {
    // Rank 1 hears nothing from rank 0, so its third sweep is its second
    // with unchanged inputs and its vote turns stable: it backs off.  The
    // poll that took that step read `now` before the step, so it yields at
    // once, and the 100 us backoff runs from the next poll's reading.
    let mut fx = PollFixture::new();
    let transport = InProcTransport::new(2);
    let mode = ExecutionMode::Asynchronous;
    let mut rank = fx.rank1(
        &transport,
        mode,
        Duration::from_secs(60),
        FailurePolicy::default(),
    );
    let yielded = |poll: Poll<Result<Stop, CoreError>>, at: Duration| matches!(poll, Poll::Pending { wake_at, on_message: false } if wake_at == at);
    for _ in 0..3 {
        assert!(yielded(rank.poll(ms(0.0)), ms(0.0)));
    }
    assert_eq!(rank.engine.iterations(), 3);
    let until = ms(7.0) + Duration::from_micros(100);
    assert!(yielded(rank.poll(ms(7.0)), until));
    assert!(yielded(rank.poll(ms(7.05)), until));
    assert_eq!(rank.engine.iterations(), 3);
    assert!(yielded(rank.poll(until), until));
    assert!(yielded(rank.poll(until), until));
    assert_eq!(rank.engine.iterations(), 4);
}

#[test]
fn single_part_engine_matches_direct_solve() {
    // One band, no dependencies: the engine's first step is the direct
    // solve, bitwise.
    let a = generators::tridiagonal(40, 4.0, -1.0);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
    let d = Decomposition::uniform(&a, &b, 1, 0).unwrap();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let solver = SolverKind::SparseLu.build();
    let factor = solver.factorize(&blocks[0].a_sub).unwrap();
    let mut ws = IterationWorkspace::new();
    let mut engine = RankEngine::single(
        &partition,
        &blocks[0],
        &blocks[0].b_sub,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut ws,
    );
    let obs = engine.step().unwrap();
    assert_eq!(obs.iteration, 1);
    assert!(!obs.needs_fresh_data);
    let direct = factor.solve(&blocks[0].b_sub).unwrap();
    assert_eq!(engine.x_local(), direct.as_slice());
}

#[test]
fn engine_replay_reproduces_ingest_and_steps() {
    let a = generators::tridiagonal(30, 4.0, -1.0);
    let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
    let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let solver = SolverKind::SparseLu.build();
    let blk = &blocks[1];
    let factor = solver.factorize(&blk.a_sub).unwrap();
    let slice = Message::Solution {
        from: 0,
        iteration: 1,
        offset: 0,
        values: vec![0.25; blocks[0].size],
    };

    let mut ws = IterationWorkspace::new();
    let mut live = RankEngine::single(
        &partition,
        blk,
        &blk.b_sub,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut ws,
    );
    live.record_events();
    live.step().unwrap();
    assert!(live.ingest(slice.clone()));
    live.step().unwrap();
    let log = live.take_event_log().unwrap();
    assert_eq!(log.events.len(), 3);
    let live_x = live.x_local().to_vec();

    let mut ws2 = IterationWorkspace::new();
    let mut twin = RankEngine::single(
        &partition,
        blk,
        &blk.b_sub,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut ws2,
    );
    twin.replay(&log).unwrap();
    assert_eq!(twin.iterations(), 2);
    assert_eq!(twin.x_local(), live_x.as_slice());
}

#[test]
fn outgoing_encoded_len_matches_the_codec() {
    let a = generators::tridiagonal(30, 4.0, -1.0);
    let b = vec![1.0; 30];
    let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let solver = SolverKind::SparseLu.build();
    let blk = &blocks[1];
    let factor = solver.factorize(&blk.a_sub).unwrap();
    let mut ws = IterationWorkspace::new();
    let engine = RankEngine::single(
        &partition,
        blk,
        &blk.b_sub,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut ws,
    );
    assert_eq!(
        engine.outgoing_encoded_len(),
        engine.outgoing().encoded_len()
    );
    let mut ws2 = IterationWorkspace::new();
    let cols: Vec<&[f64]> = vec![&blk.b_sub, &blk.b_sub];
    let batch = RankEngine::batch(
        &partition,
        blk,
        cols,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut ws2,
    );
    assert_eq!(batch.outgoing_encoded_len(), batch.outgoing().encoded_len());
}

#[test]
fn stale_slices_are_not_fresh_data() {
    let a = generators::tridiagonal(30, 4.0, -1.0);
    let b = vec![1.0; 30];
    let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let solver = SolverKind::SparseLu.build();
    let blk = &blocks[1];
    let factor = solver.factorize(&blk.a_sub).unwrap();
    let mut ws = IterationWorkspace::new();
    let mut engine = RankEngine::single(
        &partition,
        blk,
        &blk.b_sub,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut ws,
    );
    let slice = |iter: u64| Message::Solution {
        from: 0,
        iteration: iter,
        offset: 0,
        values: vec![1.0; blocks[0].size],
    };
    assert!(engine.ingest(slice(5)));
    // Older than what is already stored: discarded, not fresh.
    assert!(!engine.ingest(slice(3)));
    // Control messages are never fresh data.
    assert!(!engine.ingest(Message::Halt));
}

// ----- threaded-adapter behavior (moved here from the deprecated
// ----- sync_driver / async_driver shim modules when they were removed)

fn adapter_config(parts: usize, overlap: usize, mode: ExecutionMode) -> MultisplittingConfig {
    MultisplittingConfig {
        parts,
        overlap,
        tolerance: 1e-10,
        max_iterations: if mode == ExecutionMode::Asynchronous {
            50_000
        } else {
            2000
        },
        mode,
        ..Default::default()
    }
}

fn solve(
    a: &msplit_sparse::CsrMatrix,
    b: &[f64],
    cfg: &MultisplittingConfig,
) -> Result<SolveOutcome, CoreError> {
    MultisplittingSolver::new(cfg.clone()).solve(a, b)
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

#[test]
fn sync_solve_matches_true_solution() {
    let a = generators::diag_dominant(&generators::DiagDominantConfig {
        n: 300,
        seed: 12,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 13) as f64) - 6.0);
    let cfg = adapter_config(4, 0, ExecutionMode::Synchronous);
    let out = solve(&a, &b, &cfg).unwrap();
    assert!(out.stop.converged());
    assert!(max_err(&out.x, &x_true) < 1e-7, "error too large");
    assert!(out.residual(&a, &b) < 1e-6);
    assert_eq!(out.part_reports.len(), 4);
    assert!(out.stop.iterations >= 2);
    // every part ran the same number of iterations in synchronous mode
    assert!(out
        .part_reports
        .iter()
        .all(|r| r.iterations == out.stop.iterations));
}

#[test]
fn sync_solve_agrees_with_sequential_reference() {
    let a = generators::cage_like(200, 31);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.3).sin());
    let cfg = adapter_config(3, 0, ExecutionMode::Synchronous);
    let threaded = solve(&a, &b, &cfg).unwrap();
    let sequential = crate::sequential::solve_sequential(
        &a,
        &b,
        3,
        0,
        WeightingScheme::OwnerTakes,
        SolverKind::SparseLu,
        1e-10,
        2000,
    )
    .unwrap();
    assert!(threaded.stop.converged() && sequential.stop.converged());
    assert!(max_err(&threaded.x, &sequential.x) < 1e-8);
    // The threaded Jacobi sweep and the sequential Jacobi sweep perform
    // the same iteration, so the counts should be very close.
    assert!(
        (threaded.stop.iterations as i64 - sequential.stop.iterations as i64).abs() <= 2,
        "threaded {} vs sequential {}",
        threaded.stop.iterations,
        sequential.stop.iterations
    );
}

#[test]
fn sync_solve_with_overlap_and_every_scheme() {
    let a = generators::spectral_radius_targeted(240, 0.9);
    let (x_true, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 4) as f64);
    for scheme in WeightingScheme::all() {
        let mut cfg = adapter_config(3, 8, ExecutionMode::Synchronous);
        cfg.weighting = scheme;
        let out = solve(&a, &b, &cfg).unwrap();
        assert!(out.stop.converged(), "{scheme:?}");
        assert!(max_err(&out.x, &x_true) < 1e-6, "{scheme:?}");
    }
}

#[test]
fn sync_reports_non_convergence_within_budget() {
    let a = generators::spectral_radius_targeted(100, 0.99);
    let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
    let mut cfg = adapter_config(4, 0, ExecutionMode::Synchronous);
    cfg.max_iterations = 3;
    let out = solve(&a, &b, &cfg).unwrap();
    assert_eq!(out.stop.reason, StopReason::BudgetExhausted);
    assert_eq!(out.stop.iterations, 3);
    // The threaded adapter's ranks all run out at iteration 3 too, and its
    // merged stop is the pooled loop's, norm bits included.
    let threaded = MultisplittingSolver::new(cfg)
        .solve_with_transport(&a, &b, InProcTransport::new(4))
        .unwrap();
    assert_eq!(threaded.stop, out.stop);
    assert_eq!(threaded.stop.norm.to_bits(), out.stop.norm.to_bits());
    assert!(threaded.part_reports.iter().all(|r| r.iterations == 3));
}

/// A 12×12 system whose row 5 is empty, so the middle of three diagonal
/// blocks is singular.
fn singular_system() -> (msplit_sparse::CsrMatrix, Vec<f64>) {
    let mut builder = msplit_sparse::TripletBuilder::square(12);
    for i in 0..12usize {
        if i != 5 {
            builder.push(i, i, 4.0).unwrap();
            if i > 0 {
                builder.push(i, i - 1, -1.0).unwrap();
            }
        }
    }
    (builder.build_csr(), vec![1.0; 12])
}

#[test]
fn transport_rank_mismatch_is_rejected() {
    // The mismatch is reported before any factorization: on a system whose
    // factorization fails, the error is still the mismatch.
    let (a, b) = singular_system();
    let cfg = adapter_config(3, 0, ExecutionMode::Synchronous);
    let transport = InProcTransport::new(2);
    assert!(matches!(
        MultisplittingSolver::new(cfg).solve_with_transport(&a, &b, transport),
        Err(CoreError::Decomposition(_))
    ));
}

#[test]
fn singular_block_fails_before_any_communication() {
    let (a, b) = singular_system();
    let cfg = adapter_config(3, 0, ExecutionMode::Synchronous);
    assert!(matches!(solve(&a, &b, &cfg), Err(CoreError::Direct(_))));
}

#[test]
fn heterogeneous_band_sizes_still_converge() {
    let a = generators::diag_dominant(&generators::DiagDominantConfig {
        n: 250,
        seed: 77,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 6) as f64);
    let mut cfg = adapter_config(4, 0, ExecutionMode::Synchronous);
    cfg.relative_speeds = vec![1.0, 1.5, 1.2, 1.0];
    let out = solve(&a, &b, &cfg).unwrap();
    assert!(out.stop.converged());
    assert!(max_err(&out.x, &x_true) < 1e-7);
}

#[test]
fn async_solve_matches_true_solution() {
    let a = generators::diag_dominant(&generators::DiagDominantConfig {
        n: 300,
        seed: 21,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 10) as f64) - 5.0);
    let cfg = adapter_config(4, 0, ExecutionMode::Asynchronous);
    let out = solve(&a, &b, &cfg).unwrap();
    assert!(out.stop.converged(), "async run did not converge");
    assert!(max_err(&out.x, &x_true) < 1e-6);
    assert!(out.residual(&a, &b) < 1e-5);
    assert_eq!(out.mode, ExecutionMode::Asynchronous);
}

#[test]
fn async_agrees_with_sync_result() {
    let a = generators::cage_like(250, 41);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.2).cos());
    let async_cfg = adapter_config(3, 0, ExecutionMode::Asynchronous);
    let async_out = solve(&a, &b, &async_cfg).unwrap();
    let sync_cfg = adapter_config(3, 0, ExecutionMode::Synchronous);
    let sync_out = solve(&a, &b, &sync_cfg).unwrap();
    assert!(async_out.stop.converged() && sync_out.stop.converged());
    assert!(max_err(&async_out.x, &sync_out.x) < 1e-6);
}

#[test]
fn async_tolerates_modelled_wan_delays() {
    // Run the asynchronous solver over a transport that injects (scaled)
    // cluster3 WAN delays; it must still converge to the right answer.
    let a = generators::diag_dominant(&generators::DiagDominantConfig {
        n: 200,
        seed: 5,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
    let cfg = adapter_config(10, 0, ExecutionMode::Asynchronous);
    let inner = InProcTransport::new(10);
    let delayed = msplit_comm::DelayedTransport::new(inner, msplit_grid::cluster::cluster3(), 1e-3);
    let out = MultisplittingSolver::new(cfg)
        .solve_with_transport(&a, &b, delayed)
        .unwrap();
    assert!(out.stop.converged());
    assert!(max_err(&out.x, &x_true) < 1e-6);
}

#[test]
fn async_respects_iteration_budget() {
    let a = generators::spectral_radius_targeted(150, 0.995);
    let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
    let mut cfg = adapter_config(3, 0, ExecutionMode::Asynchronous);
    cfg.max_iterations = 5;
    let out = solve(&a, &b, &cfg).unwrap();
    assert_eq!(out.stop.reason, StopReason::BudgetExhausted);
    assert!(out.stop.iterations <= 5);
}

#[test]
fn async_with_overlap_and_averaging_converges() {
    let a = generators::spectral_radius_targeted(300, 0.9);
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
    let mut cfg = adapter_config(3, 10, ExecutionMode::Asynchronous);
    cfg.weighting = WeightingScheme::Average;
    let out = solve(&a, &b, &cfg).unwrap();
    assert!(out.stop.converged());
    assert!(max_err(&out.x, &x_true) < 1e-6);
}
