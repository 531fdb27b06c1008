use super::*;
use crate::decomposition::Decomposition;
use crate::distributed::{run_rank, RankOptions};
use crate::solver::{ExecutionMode, MultisplittingConfig, MultisplittingSolver, SolveOutcome};
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
    assert_eq!(outcome.reshape, Some(0));
    assert_eq!(outcome.iterations, 1);
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

// ----- the tripped-reach memo of the halo-delta step: a memoised engine is
// ----- bitwise the same engine searching every reach again

/// Bits of an engine's iterate and last increment after one step.
type StepBits = (Vec<u64>, u64);

/// Every `SolvePathStats` field as bits, so the reach sum compares exactly.
fn stats_bits(s: &SolvePathStats) -> [u64; 4] {
    [
        s.sparse_fastpath_hits,
        s.dense_fallbacks,
        s.reach_fraction_sum.to_bits(),
        s.reach_samples,
    ]
}

fn step_bits(engine: &mut RankEngine, memo: bool) -> StepBits {
    if !memo {
        engine.forget_tripped();
    }
    engine.step().unwrap();
    let x = engine.x_local().iter().map(|v| v.to_bits()).collect();
    (x, engine.last_increment().to_bits())
}

/// Small coupled banded system: each band's boundary grid row reaches most
/// of its block, so the halo-delta step trips the reach threshold.
fn coupled_band_system() -> msplit_sparse::CsrMatrix {
    generators::convection_diffusion(&generators::ConvectionDiffusionConfig {
        k: 12,
        ..Default::default()
    })
}

/// Decoupled 4-wide diagonal blocks: a halo delta reaches three rows, so
/// the delta applies.
fn block_diagonal_system() -> msplit_sparse::CsrMatrix {
    let n = 126;
    let mut builder = msplit_sparse::TripletBuilder::square(n);
    for i in 0..n {
        let blk = i / 4;
        for j in (blk * 4)..((blk * 4 + 4).min(n)) {
            builder
                .push(i, j, if i == j { 10.0 } else { -1.0 })
                .unwrap();
        }
    }
    builder.build_csr()
}

/// Both bands of a two-band split of `a` stepped in lockstep, exchanging
/// their `outgoing` slices; per band the step trace and the path stats.
fn lockstep_pair(
    a: &msplit_sparse::CsrMatrix,
    steps: usize,
    memo: bool,
) -> Vec<(Vec<StepBits>, SolvePathStats)> {
    let (_, b) = generators::rhs_for_solution(a, |i| ((i % 7) as f64) - 3.0);
    let d = Decomposition::uniform(a, &b, 2, 0).unwrap();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let solver = SolverKind::SparseLu.build();
    let factors: Vec<_> = blocks
        .iter()
        .map(|blk| solver.factorize(&blk.a_sub).unwrap())
        .collect();
    let mut workspaces = [IterationWorkspace::new(), IterationWorkspace::new()];
    let mut engines: Vec<RankEngine> = blocks
        .iter()
        .zip(&factors)
        .zip(workspaces.iter_mut())
        .map(|((blk, factor), ws)| {
            RankEngine::single(
                &partition,
                blk,
                &blk.b_sub,
                factor.as_ref(),
                WeightingScheme::OwnerTakes,
                ws,
            )
        })
        .collect();
    let mut traces = vec![Vec::new(), Vec::new()];
    for _ in 0..steps {
        for (engine, trace) in engines.iter_mut().zip(traces.iter_mut()) {
            trace.push(step_bits(engine, memo));
        }
        let slices: Vec<Message> = engines.iter().map(RankEngine::outgoing).collect();
        engines[0].ingest(slices[1].clone());
        engines[1].ingest(slices[0].clone());
    }
    traces
        .into_iter()
        .zip(engines.iter().map(RankEngine::path_stats))
        .collect()
}

/// Band 0 of a two-band split of `a` on the caller's workspace: one cold
/// step, then one step after each crafted slice from band 1, whose entry
/// `j` at step `t` is `halo(t, j)`.
fn crafted_band0(
    a: &msplit_sparse::CsrMatrix,
    ws: &mut IterationWorkspace,
    steps: usize,
    memo: bool,
    halo: impl Fn(usize, usize) -> f64,
) -> (Vec<StepBits>, SolvePathStats) {
    let (_, b) = generators::rhs_for_solution(a, |i| ((i % 5) as f64) - 2.0);
    let d = Decomposition::uniform(a, &b, 2, 0).unwrap();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let factor = SolverKind::SparseLu
        .build()
        .factorize(&blocks[0].a_sub)
        .unwrap();
    let mut engine = RankEngine::single(
        &partition,
        &blocks[0],
        &blocks[0].b_sub,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        ws,
    );
    let mut trace = vec![step_bits(&mut engine, memo)];
    for t in 1..=steps {
        engine.ingest(Message::Solution {
            from: 1,
            iteration: t as u64,
            offset: blocks[1].offset,
            values: (0..blocks[1].size).map(|j| halo(t, j)).collect(),
        });
        trace.push(step_bits(&mut engine, memo));
    }
    let stats = engine.path_stats();
    (trace, stats)
}

fn assert_same_run(
    label: &str,
    memo: &(Vec<StepBits>, SolvePathStats),
    searched: &(Vec<StepBits>, SolvePathStats),
) {
    assert_eq!(memo.0, searched.0, "{label}: iterates or increments differ");
    assert_eq!(
        stats_bits(&memo.1),
        stats_bits(&searched.1),
        "{label}: path stats differ: {:?} vs {:?}",
        memo.1,
        searched.1
    );
}

#[test]
fn tripped_reach_memo_is_bitwise_the_searching_engine_on_a_coupled_band() {
    let a = coupled_band_system();
    let memo = lockstep_pair(&a, 40, true);
    let searched = lockstep_pair(&a, 40, false);
    for (band, (m, s)) in memo.iter().zip(&searched).enumerate() {
        assert_same_run(&format!("band {band}"), m, s);
        // Every delta attempt trips the threshold, so the memo is hit.
        assert!(m.1.reach_samples > 10, "band {band}: {:?}", m.1);
        assert_eq!(m.1.sparse_fastpath_hits, 0, "band {band}: {:?}", m.1);
    }
}

#[test]
fn tripped_reach_memo_misses_on_alternating_seed_sets() {
    // Even halo slots change every step, odd ones every other step, so the
    // set of changed slots alternates and no step repeats the last trip.
    let a = coupled_band_system();
    let halo = |t: usize, j: usize| {
        let clock = if j.is_multiple_of(2) {
            t
        } else {
            t.div_ceil(2)
        };
        0.5 + j as f64 * 0.01 + clock as f64 * 1e-3
    };
    let memo = crafted_band0(&a, &mut IterationWorkspace::new(), 24, true, halo);
    let searched = crafted_band0(&a, &mut IterationWorkspace::new(), 24, false, halo);
    assert_same_run("alternating seed sets", &memo, &searched);
    assert_eq!(memo.1.reach_samples, 24, "{:?}", memo.1);
}

#[test]
fn tripped_reach_memo_leaves_an_applied_delta_alone() {
    let a = block_diagonal_system();
    let memo = lockstep_pair(&a, 30, true);
    let searched = lockstep_pair(&a, 30, false);
    for (band, (m, s)) in memo.iter().zip(&searched).enumerate() {
        assert_same_run(&format!("band {band}"), m, s);
        assert!(m.1.sparse_fastpath_hits > 0, "band {band}: {:?}", m.1);
        assert_eq!(m.1.dense_fallbacks, 1, "band {band}: {:?}", m.1);
    }
}

#[test]
fn tripped_reach_memo_does_not_follow_a_workspace_to_another_band() {
    // Only halo slots 0..3 move after the first slice: on the coupled band
    // they feed block rows 60, 61 and 62 — exactly the seed rows the
    // block-diagonal band's one halo column feeds.  A memo that survived
    // the hand-over would send that band's first delta to the dense solve.
    let a = coupled_band_system();
    let mut ws = IterationWorkspace::new();
    let moving = |t: usize, j: usize| {
        let clock = if j < 3 { t } else { 0 };
        0.5 + j as f64 * 0.01 + clock as f64 * 1e-3
    };
    let (_, stats) = crafted_band0(&a, &mut ws, 6, true, moving);
    assert_eq!(ws.incr.tripped, [60, 61, 62], "{stats:?}");

    let block_diag = block_diagonal_system();
    let slice = |t: usize, j: usize| 0.25 + j as f64 * 0.01 + t as f64 * 1e-3;
    let reused = crafted_band0(&block_diag, &mut ws, 12, true, slice);
    let fresh = crafted_band0(&block_diag, &mut IterationWorkspace::new(), 12, true, slice);
    assert_same_run("reused workspace", &reused, &fresh);
    assert_eq!(fresh.1.dense_fallbacks, 1, "{:?}", fresh.1);
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
    assert!(out.converged);
    assert!(max_err(&out.x, &x_true) < 1e-7, "error too large");
    assert!(out.residual(&a, &b) < 1e-6);
    assert_eq!(out.part_reports.len(), 4);
    assert!(out.iterations >= 2);
    // every part ran the same number of iterations in synchronous mode
    assert!(out.iterations_per_part.iter().all(|&i| i == out.iterations));
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
    assert!(threaded.converged && sequential.converged);
    assert!(max_err(&threaded.x, &sequential.x) < 1e-8);
    // The threaded Jacobi sweep and the sequential Jacobi sweep perform
    // the same iteration, so the counts should be very close.
    assert!(
        (threaded.iterations as i64 - sequential.iterations as i64).abs() <= 2,
        "threaded {} vs sequential {}",
        threaded.iterations,
        sequential.iterations
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
        assert!(out.converged, "{scheme:?}");
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
    assert!(!out.converged);
    assert_eq!(out.iterations, 3);
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
    assert!(out.converged);
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
    assert!(out.converged, "async run did not converge");
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
    assert!(async_out.converged && sync_out.converged);
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
    assert!(out.converged);
    assert!(max_err(&out.x, &x_true) < 1e-6);
}

#[test]
fn async_respects_iteration_budget() {
    let a = generators::spectral_radius_targeted(150, 0.995);
    let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
    let mut cfg = adapter_config(3, 0, ExecutionMode::Asynchronous);
    cfg.max_iterations = 5;
    let out = solve(&a, &b, &cfg).unwrap();
    assert!(!out.converged);
    assert!(out.iterations <= 5);
}

#[test]
fn async_with_overlap_and_averaging_converges() {
    let a = generators::spectral_radius_targeted(300, 0.9);
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
    let mut cfg = adapter_config(3, 10, ExecutionMode::Asynchronous);
    cfg.weighting = WeightingScheme::Average;
    let out = solve(&a, &b, &cfg).unwrap();
    assert!(out.converged);
    assert!(max_err(&out.x, &x_true) < 1e-6);
}
