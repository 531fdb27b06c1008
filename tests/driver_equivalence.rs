//! Driver-equivalence matrix: the unified `RankEngine` behind every adapter
//! is the retained sequential reference, bitwise.
//!
//! Four layers of evidence:
//!
//! 1. **Engine-level** — stepping the per-rank engines by hand in a lockstep
//!    schedule (step all, exchange all slices, repeat) reproduces the
//!    sequential Jacobi sweep of `solve_sequential` **bitwise**, iterate by
//!    iterate.  No policies involved: this pins the numeric state machine
//!    itself.
//! 2. **Adapter-level** — the threaded {sync, batch} adapters produce
//!    bitwise-identical solutions over an in-process transport and over real
//!    TCP loopback sockets (the lockstep protocol makes the iterates
//!    transport-independent), agree with the sequential reference to solver
//!    tolerance, and the free-running async adapter lands on the same
//!    solution over both transports.
//! 3. **Krylov** — Richardson with one inner sweep is the stationary
//!    iteration, bitwise, against the reference and the threaded driver.
//! 4. **Pooled lockstep** — `PreparedSystem::solve`'s in-process loop, which
//!    steps the same engines on the `rayon` pool and copies halos in memory,
//!    is the threaded adapter over an explicit `InProcTransport`: same bits,
//!    same stopping iteration, same per-part reports.  The tests that reach
//!    the threaded adapter pass that transport explicitly.

use multisplitting::comm::tcp::{LoopbackMesh, TcpOptions};
use multisplitting::comm::InProcTransport;
use multisplitting::core::runtime::{IterationWorkspace, RankEngine};
use multisplitting::core::sequential::solve_sequential_decomposed;
use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use proptest::prelude::*;

/// A stop record with its norm as bits, so that comparing two is bitwise.
fn stop_bits(stop: &Stop) -> (StopReason, u64, u64) {
    (stop.reason, stop.iterations, stop.norm.to_bits())
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

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

/// Steps every rank's engine `k` times in a lockstep schedule, exchanging
/// the produced slices between steps, and returns the assembled solution.
fn simulate_engines(
    a: &multisplitting::sparse::CsrMatrix,
    b: &[f64],
    parts: usize,
    k: u64,
) -> Vec<f64> {
    simulate_engines_with_path(a, b, parts, k, true).0
}

/// Like [`simulate_engines`], but with the unchanged-halo skip toggled
/// explicitly; also returns the per-rank solve-path counters.
fn simulate_engines_with_path(
    a: &multisplitting::sparse::CsrMatrix,
    b: &[f64],
    parts: usize,
    k: u64,
    incremental: bool,
) -> (Vec<f64>, Vec<multisplitting::core::SolvePathStats>) {
    let d = Decomposition::uniform(a, b, parts, 0).unwrap();
    let send_targets = d.send_targets();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let solver = SolverKind::SparseLu.build();
    let factors: Vec<_> = blocks
        .iter()
        .map(|blk| solver.factorize(&blk.a_sub).unwrap())
        .collect();
    let mut workspaces: Vec<IterationWorkspace> =
        (0..parts).map(|_| IterationWorkspace::new()).collect();
    let mut engines: Vec<RankEngine> = blocks
        .iter()
        .zip(factors.iter())
        .zip(workspaces.iter_mut())
        .map(|((blk, factor), ws)| {
            let mut engine = RankEngine::single(
                &partition,
                blk,
                &blk.b_sub,
                factor.as_ref(),
                WeightingScheme::OwnerTakes,
                ws,
            );
            engine.set_incremental(incremental);
            engine
        })
        .collect();

    for _ in 0..k {
        for engine in engines.iter_mut() {
            engine.step().unwrap();
        }
        let outgoing: Vec<_> = engines.iter().map(|e| e.outgoing()).collect();
        for (sender, msg) in outgoing.into_iter().enumerate() {
            for &to in &send_targets[sender] {
                engines[to].ingest(msg.clone());
            }
        }
    }
    let locals: Vec<Vec<f64>> = engines.iter().map(|e| e.x_local().to_vec()).collect();
    let stats = engines.iter().map(|e| e.path_stats()).collect();
    (
        WeightingScheme::OwnerTakes.assemble(&partition, &locals),
        stats,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Layer 1: the engine *is* the sequential sweep, bitwise, at every
    // iterate depth.
    #[test]
    fn rank_engine_lockstep_is_bitwise_the_sequential_sweep(
        n in 60usize..140,
        parts in 2usize..5,
        seed in 0u64..1000,
        k in 1u64..8,
    ) {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        let engine_x = simulate_engines(&a, &b, parts, k);
        // tolerance < 0 forces the reference to run exactly k sweeps.
        let d = Decomposition::uniform(&a, &b, parts, 0).unwrap();
        let seq = solve_sequential_decomposed(
            &d,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            -1.0,
            k,
        )
        .unwrap();
        prop_assert_eq!(seq.stop.iterations, k);
        prop_assert_eq!(&engine_x, &seq.x);
    }

    // The skipping engine and the always-dense engine are the same state
    // machine bit for bit, iterate by iterate.
    #[test]
    fn incremental_engine_is_bitwise_the_dense_engine(
        n in 60usize..140,
        parts in 2usize..5,
        seed in 0u64..1000,
        k in 2u64..10,
    ) {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        let (inc_x, inc_stats) = simulate_engines_with_path(&a, &b, parts, k, true);
        let (dense_x, dense_stats) = simulate_engines_with_path(&a, &b, parts, k, false);
        let inc_bits: Vec<u64> = inc_x.iter().map(|v| v.to_bits()).collect();
        let dense_bits: Vec<u64> = dense_x.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(inc_bits, dense_bits);
        // The dense engine solves densely every step; the incremental one
        // accounts every step to exactly one of the two paths.  (In lockstep
        // every halo moves each round, so the skip rarely fires here — it
        // is pinned deterministically in
        // `skip_engages_when_a_round_delivers_nothing`.)
        for stats in &dense_stats {
            prop_assert_eq!(stats.sparse_fastpath_hits, 0);
            prop_assert_eq!(stats.dense_fallbacks, k);
        }
        let fast: u64 = inc_stats.iter().map(|s| s.sparse_fastpath_hits).sum();
        let dense: u64 = inc_stats.iter().map(|s| s.dense_fallbacks).sum();
        prop_assert_eq!(fast + dense, k * parts as u64);
    }

    // The same bitwise contract under *asynchronous-style* schedules: each
    // round only a pseudo-random subset of the produced slices is delivered,
    // so engines step on partially stale halos, see single-peer updates, and
    // take the SKIP path for real.  Replaying the identical schedule through
    // the dense engine must give the same bits at every rank — this is the
    // property the free-running adapter relies on.
    #[test]
    fn incremental_engine_is_bitwise_the_dense_engine_under_partial_delivery(
        n in 60usize..140,
        parts in 2usize..5,
        seed in 0u64..1000,
        sched_seed in 0u64..1000,
        k in 4u64..16,
    ) {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        let inc_x = simulate_engines_partial(&a, &b, parts, k, sched_seed, true);
        let dense_x = simulate_engines_partial(&a, &b, parts, k, sched_seed, false);
        prop_assert_eq!(
            inc_x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            dense_x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// Like [`simulate_engines_with_path`], but each round delivers each
/// produced slice to each target only when a seeded hash says so — a
/// deterministic stand-in for free-running message timing.  Returns the
/// concatenated per-rank local iterates (not an assembly) so divergence at
/// any rank is visible even where weighting would mask it.
fn simulate_engines_partial(
    a: &multisplitting::sparse::CsrMatrix,
    b: &[f64],
    parts: usize,
    k: u64,
    sched_seed: u64,
    incremental: bool,
) -> Vec<f64> {
    let d = Decomposition::uniform(a, b, parts, 0).unwrap();
    let send_targets = d.send_targets();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let solver = SolverKind::SparseLu.build();
    let factors: Vec<_> = blocks
        .iter()
        .map(|blk| solver.factorize(&blk.a_sub).unwrap())
        .collect();
    let mut workspaces: Vec<IterationWorkspace> =
        (0..parts).map(|_| IterationWorkspace::new()).collect();
    let mut engines: Vec<RankEngine> = blocks
        .iter()
        .zip(factors.iter())
        .zip(workspaces.iter_mut())
        .map(|((blk, factor), ws)| {
            let mut engine = RankEngine::single(
                &partition,
                blk,
                &blk.b_sub,
                factor.as_ref(),
                WeightingScheme::OwnerTakes,
                ws,
            );
            engine.set_incremental(incremental);
            engine
        })
        .collect();

    for round in 0..k {
        for engine in engines.iter_mut() {
            engine.step().unwrap();
        }
        let outgoing: Vec<_> = engines.iter().map(|e| e.outgoing()).collect();
        for (sender, msg) in outgoing.into_iter().enumerate() {
            for &to in &send_targets[sender] {
                // Deterministic coin per (round, edge): delivered ~60% of the
                // time, so every engine repeatedly steps on a halo where only
                // some peers (often none, often one) have moved.
                let h = round
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add((sender as u64) << 32)
                    .wrapping_add(to as u64)
                    .wrapping_add(sched_seed.wrapping_mul(0xd1b54a32d192ed03));
                if h % 5 < 3 {
                    engines[to].ingest(msg.clone());
                }
            }
        }
    }
    let mut all = Vec::new();
    for e in &engines {
        all.extend_from_slice(e.x_local());
    }
    all
}

/// What one engine reported after one lockstep round: the increment and
/// iterate bits, and the path counters so far.
type RoundRecord = (u64, Vec<u64>, multisplitting::core::SolvePathStats);

/// Two bands stepped in lockstep for `k` rounds, exchanging slices after
/// every round except round `quiet`, which delivers nothing to rank 1.
/// Returns one `[rank 0, rank 1]` record per round.
fn two_bands_with_a_quiet_round(
    a: &multisplitting::sparse::CsrMatrix,
    b: &[f64],
    k: usize,
    quiet: usize,
    incremental: bool,
) -> Vec<[RoundRecord; 2]> {
    let d = Decomposition::uniform(a, b, 2, 0).unwrap();
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
            let mut engine = RankEngine::single(
                &partition,
                blk,
                &blk.b_sub,
                factor.as_ref(),
                WeightingScheme::OwnerTakes,
                ws,
            );
            engine.set_incremental(incremental);
            engine
        })
        .collect();
    let step = |engine: &mut RankEngine| -> RoundRecord {
        let obs = engine.step().unwrap();
        let x = engine.x_local().iter().map(|v| v.to_bits()).collect();
        (obs.increment.to_bits(), x, engine.path_stats())
    };
    let mut rounds = Vec::new();
    for round in 0..k {
        rounds.push([step(&mut engines[0]), step(&mut engines[1])]);
        let slices: Vec<_> = engines.iter().map(RankEngine::outgoing).collect();
        engines[0].ingest(slices[1].clone());
        if round != quiet {
            engines[1].ingest(slices[0].clone());
        }
    }
    rounds
}

/// A round that delivers nothing to rank 1 leaves its dependency values
/// bitwise unchanged, so its next step must take the skip: counted as a
/// fast-path hit, with an increment of exactly `0.0` — and the whole run
/// must still be bitwise the always-dense engine's.
#[test]
fn skip_engages_when_a_round_delivers_nothing() {
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 80,
        seed: 5,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
    let (k, quiet) = (8, 3);
    let skipping = two_bands_with_a_quiet_round(&a, &b, k, quiet, true);
    let dense = two_bands_with_a_quiet_round(&a, &b, k, quiet, false);

    let before = &skipping[quiet][1].2;
    let (increment, _, after) = &skipping[quiet + 1][1];
    assert_eq!(
        after.sparse_fastpath_hits,
        before.sparse_fastpath_hits + 1,
        "rank 1 did not skip after the quiet round: {before:?} -> {after:?}"
    );
    assert_eq!(after.dense_fallbacks, before.dense_fallbacks);
    assert_eq!(*increment, 0.0f64.to_bits(), "a skip reports exactly +0.0");

    for (round, (s, d)) in skipping.iter().zip(&dense).enumerate() {
        for rank in 0..2 {
            assert_eq!(s[rank].0, d[rank].0, "round {round} rank {rank}: increment");
            assert_eq!(s[rank].1, d[rank].1, "round {round} rank {rank}: iterate");
            assert_eq!(d[rank].2.sparse_fastpath_hits, 0);
            let path = s[rank].2;
            assert_eq!(
                path.sparse_fastpath_hits + path.dense_fallbacks,
                round as u64 + 1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Layer 2: the adapter matrix {sync, async} x {InProc, TCP}, plus a
    // batch, whose columns are in-process solves.
    #[test]
    fn adapter_matrix_agrees_across_modes_and_transports(
        n in 60usize..120,
        parts in 2usize..4,
        seed in 0u64..1000,
    ) {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 9) as f64) - 4.0);
        let d = Decomposition::uniform(&a, &b, parts, 0).unwrap();
        let seq = solve_sequential_decomposed(
            &d,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            1e-10,
            5000,
        )
        .unwrap();
        prop_assert!(seq.stop.converged());

        // Threaded sync: InProc and TCP-loopback are bitwise identical (the
        // lockstep protocol makes the iterates transport-independent) and
        // within tolerance of the sequential reference.
        let sync_cfg = config(parts, ExecutionMode::Synchronous);
        let solver = MultisplittingSolver::new(sync_cfg.clone());
        let sync_inproc = solver
            .solve_with_transport(&a, &b, InProcTransport::new(parts))
            .unwrap();
        let mesh = LoopbackMesh::new(parts, TcpOptions::default()).unwrap();
        let sync_tcp = solver.solve_with_transport(&a, &b, mesh).unwrap();
        prop_assert!(sync_inproc.stop.converged() && sync_tcp.stop.converged());
        prop_assert_eq!(&sync_inproc.x, &sync_tcp.x);
        prop_assert_eq!(stop_bits(&sync_inproc.stop), stop_bits(&sync_tcp.stop));
        prop_assert!(max_err(&sync_inproc.x, &seq.x) < 1e-8);

        // A batch through a prepared system: each column is its own
        // in-process solve, so the column of `b` is bitwise both threaded
        // runs above.
        let prepared = PreparedSystem::prepare(sync_cfg, &a).unwrap();
        let (_, b2) = generators::rhs_for_solution(&a, |i| (i % 4) as f64);
        let batch = prepared.solve_many(&[b.clone(), b2]).unwrap();
        prop_assert!(batch.iter().all(|col| col.stop.converged()));
        prop_assert_eq!(&batch[0].x, &sync_tcp.x);
        prop_assert_eq!(stop_bits(&batch[0].stop), stop_bits(&sync_tcp.stop));

        // Free-running async over both transports: timing-dependent iterate
        // mixing, so equivalence is to solver tolerance.
        let mut async_cfg = config(parts, ExecutionMode::Asynchronous);
        async_cfg.max_iterations = 100_000;
        let asolver = MultisplittingSolver::new(async_cfg);
        let async_inproc = asolver.solve(&a, &b).unwrap();
        let mesh = LoopbackMesh::new(parts, TcpOptions::default()).unwrap();
        let async_tcp = asolver.solve_with_transport(&a, &b, mesh).unwrap();
        prop_assert!(async_inproc.stop.converged() && async_tcp.stop.converged());
        prop_assert!(max_err(&async_inproc.x, &seq.x) < 1e-6);
        prop_assert!(max_err(&async_tcp.x, &seq.x) < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Layer 3: Richardson with one inner sweep *is* the stationary iteration
    // — the Krylov layer's preconditioner application replays the exact
    // floating-point operation sequence of the sequential sweep, so forcing
    // both to the same depth must agree bitwise, across every weighting
    // scheme and overlap.
    #[test]
    fn richardson_single_sweep_is_bitwise_the_stationary_reference(
        n in 60usize..140,
        parts in 2usize..5,
        overlap in 0usize..3,
        scheme_idx in 0usize..3,
        seed in 0u64..1000,
        k in 1u64..8,
    ) {
        let scheme = [
            WeightingScheme::OwnerTakes,
            WeightingScheme::Average,
            WeightingScheme::FirstCovering,
        ][scheme_idx];
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        // tolerance < 0 forces both sides to run exactly k outer steps.
        let cfg = MultisplittingConfig {
            parts,
            overlap,
            weighting: scheme,
            tolerance: -1.0,
            max_iterations: k,
            method: Method::Richardson { inner_sweeps: 1 },
            ..config(parts, ExecutionMode::Synchronous)
        };
        let rich = PreparedSystem::prepare(cfg, &a).unwrap().solve(&b).unwrap();
        prop_assert_eq!(rich.stop.iterations, k);
        let d = Decomposition::uniform(&a, &b, parts, overlap).unwrap();
        let seq =
            solve_sequential_decomposed(&d, scheme, SolverKind::SparseLu, -1.0, k).unwrap();
        prop_assert_eq!(stop_bits(&rich.stop), stop_bits(&seq.stop));
        prop_assert_eq!(
            rich.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            seq.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    // The same identity against the *threaded* stationary driver: run the
    // stationary adapter to convergence, then force Richardson(1 sweep) to
    // the depth the driver reports.  The lockstep protocol makes the threaded
    // iterate equal to the sequential sweep, so the chain is closed end to
    // end: threaded stationary ≡ sequential ≡ Richardson(1).
    #[test]
    fn richardson_single_sweep_matches_the_threaded_driver_bitwise(
        n in 60usize..120,
        parts in 2usize..4,
        seed in 0u64..1000,
    ) {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 9) as f64) - 4.0);
        let threaded = MultisplittingSolver::new(config(parts, ExecutionMode::Synchronous))
            .solve_with_transport(&a, &b, InProcTransport::new(parts))
            .unwrap();
        prop_assert!(threaded.stop.converged());
        let cfg = MultisplittingConfig {
            tolerance: -1.0,
            max_iterations: threaded.stop.iterations,
            method: Method::Richardson { inner_sweeps: 1 },
            ..config(parts, ExecutionMode::Synchronous)
        };
        let rich = PreparedSystem::prepare(cfg, &a).unwrap().solve(&b).unwrap();
        prop_assert_eq!(rich.stop.iterations, threaded.stop.iterations);
        prop_assert_eq!(
            rich.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            threaded.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// The guard of the whole refactor in one deterministic assertion: threaded
/// sync, distributed-style per-rank execution and the sequential reference
/// agree on a fixed system (bitwise for the two lockstep forms).
#[test]
fn unified_runtime_smoke_fixed_system() {
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 180,
        seed: 99,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 11) as f64) - 5.0);
    let cfg = config(3, ExecutionMode::Synchronous);
    let threaded = MultisplittingSolver::new(cfg.clone())
        .solve_with_transport(&a, &b, InProcTransport::new(3))
        .unwrap();
    assert!(threaded.stop.converged());
    assert!(max_err(&threaded.x, &x_true) < 1e-7);
    // Engine simulation at the converged depth reproduces the threaded
    // iterate bitwise.
    let engine_x = simulate_engines(&a, &b, 3, threaded.stop.iterations);
    assert_eq!(engine_x, threaded.x);
}

/// The automatic fan-in under real thread scheduling: one rank more than the
/// root can parent makes the vote tree two levels deep (rank 1 aggregates
/// rank 17), which no solve at the paper's world sizes exercises.  The
/// threaded adapter must still stop on exactly the bits of the sequential
/// sweep, and a batch returns each column's solo solve, which stops on the
/// sequential sweep's bits too.
#[test]
fn two_level_vote_tree_is_bitwise_the_sequential_sweep() {
    use multisplitting::core::runtime::VOTE_TREE_ARITY;
    let parts = VOTE_TREE_ARITY + 2;
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 8 * parts,
        seed: 5,
        ..Default::default()
    });
    let rhs: Vec<Vec<f64>> = (0..3usize)
        .map(|c| generators::rhs_for_solution(&a, |i| ((i + c) % 7) as f64 - 3.0).1)
        .collect();
    // tolerance < 0 forces the reference to run exactly k sweeps.
    let sequential = |b: &[f64], k: u64| {
        let d = Decomposition::uniform(&a, b, parts, 0).unwrap();
        solve_sequential_decomposed(
            &d,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            -1.0,
            k,
        )
        .unwrap()
        .x
    };

    let prepared = PreparedSystem::prepare(config(parts, ExecutionMode::Synchronous), &a).unwrap();
    let single = prepared
        .solve_with_transport(&rhs[0], InProcTransport::new(parts))
        .unwrap();
    assert!(single.stop.converged());
    assert!(
        single.stop.iterations > 2,
        "trivial solve: {}",
        single.stop.iterations
    );
    assert_eq!(single.x, sequential(&rhs[0], single.stop.iterations));

    let batch = prepared.solve_many(&rhs).unwrap();
    for (c, (b, col)) in rhs.iter().zip(&batch).enumerate() {
        assert!(col.stop.converged(), "column {c}");
        assert_eq!(col.x, sequential(b, col.stop.iterations), "column {c}");
    }
    assert_eq!(batch[0].x, single.x);
    assert_eq!(stop_bits(&batch[0].stop), stop_bits(&single.stop));
}

/// Asserts that a pooled and a threaded solve of one system agree: every bit
/// of `x`, the whole stop record (reason, iteration, norm bits) and every
/// per-part report field except the host wall clock.
fn assert_pooled_is_threaded(pooled: &SolveOutcome, threaded: &SolveOutcome, case: &str) {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&pooled.x), bits(&threaded.x), "{case}: x");
    assert_eq!(
        stop_bits(&pooled.stop),
        stop_bits(&threaded.stop),
        "{case}: stop"
    );
    assert_eq!(pooled.part_reports.len(), threaded.part_reports.len());
    for (p, t) in pooled.part_reports.iter().zip(&threaded.part_reports) {
        let part = p.part;
        assert_eq!(p.part, t.part, "{case}: part order");
        assert_eq!(p.factor_stats, t.factor_stats, "{case}: part {part} factor");
        assert_eq!(p.iterations, t.iterations, "{case}: part {part} iterations");
        assert_eq!(
            p.bytes_sent_per_iteration, t.bytes_sent_per_iteration,
            "{case}: part {part} bytes"
        );
        assert_eq!(
            p.messages_per_iteration, t.messages_per_iteration,
            "{case}: part {part} messages"
        );
        assert_eq!(
            p.flops_per_iteration, t.flops_per_iteration,
            "{case}: part {part} flops"
        );
        assert_eq!(p.memory_bytes, t.memory_bytes, "{case}: part {part} memory");
        assert_eq!(p.solve_path, t.solve_path, "{case}: part {part} solve path");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Layer 4: the in-process lockstep loop on the pool (`solve`) is the
    // threaded adapter over an in-process transport, bit for bit and report
    // for report: at the natural tolerance, forced to a fixed depth
    // (tolerance < 0 exhausts the budget with `converged == false`), and
    // with no budget at all.  P = VOTE_TREE_ARITY + 2 gives the threaded
    // side a two-level vote tree.
    #[test]
    fn pooled_lockstep_is_bitwise_the_threaded_adapter(
        parts_idx in 0usize..5,
        overlap_idx in 0usize..2,
        scheme_idx in 0usize..3,
        kind_idx in 0usize..3,
        seed in 0u64..1000,
        depth in 1u64..6,
    ) {
        use multisplitting::core::runtime::VOTE_TREE_ARITY;
        let parts = [1, 2, 3, 8, VOTE_TREE_ARITY + 2][parts_idx];
        let overlap = [0, 2][overlap_idx];
        let weighting = [
            WeightingScheme::OwnerTakes,
            WeightingScheme::Average,
            WeightingScheme::FirstCovering,
        ][scheme_idx];
        let solver_kind = [SolverKind::SparseLu, SolverKind::DenseLu, SolverKind::BandLu][kind_idx];
        // A narrow band keeps every block inside BandLu's bandwidth limit.
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: (12 * parts).max(48),
            seed,
            half_bandwidth: 2,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 9) as f64) - 4.0);
        let base = MultisplittingConfig {
            overlap,
            weighting,
            solver_kind,
            ..config(parts, ExecutionMode::Synchronous)
        };
        let budgets = [
            ("natural", base.tolerance, base.max_iterations),
            ("forced", -1.0, depth),
            ("no budget", base.tolerance, 0),
        ];
        for (label, tolerance, max_iterations) in budgets {
            let cfg = MultisplittingConfig {
                tolerance,
                max_iterations,
                ..base.clone()
            };
            let prepared = PreparedSystem::prepare(cfg, &a).unwrap();
            let pooled = prepared.solve(&b).unwrap();
            let threaded = prepared
                .solve_with_transport(&b, InProcTransport::new(parts))
                .unwrap();
            let case = format!("{label}: P={parts} overlap={overlap} {weighting:?} {solver_kind:?}");
            assert_pooled_is_threaded(&pooled, &threaded, &case);
            match label {
                "natural" => prop_assert!(pooled.stop.converged(), "{}", case),
                "forced" => {
                    prop_assert_eq!(pooled.stop.iterations, depth);
                    prop_assert!(!pooled.stop.converged());
                }
                _ => prop_assert_eq!(pooled.stop.iterations, 0),
            }
        }
    }
}
