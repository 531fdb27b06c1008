//! `perf-report` — regenerates `BENCH_kernels.json` at the repository root.
//!
//! Times the numeric hot-path kernels (dense LU factorization blocked vs the
//! retained pre-optimization reference, sparse LU factorization pruned vs the
//! retained unpruned reference, band triangular solve, CSR SpMV, and
//! cold-vs-warm `PreparedSystem::solve_many` serving) plus the **transport**
//! layer (in-process vs TCP-loopback message round-trip latency, and the
//! bytes each synchronous outer iteration puts on the links, from
//! `LinkStats`), the driver-dispatch overhead, and the **serving** fleet
//! (cold vs warm vs coalesced request throughput through a live
//! `msplit-serve` shard, with queue-latency percentiles), and the **krylov**
//! outer loops (stationary sweep vs FGMRES over the same sweep as a
//! preconditioner, on well- and ill-conditioned systems), and the **rayon
//! pool** (every parallel loop of the workspace, serial vs pooled), and writes the
//! results as a small JSON document so successive PRs accumulate a perf
//! trajectory.
//!
//! In `--check` mode every acceptance gate is evaluated; failures are
//! aggregated and reported together, and the process exits non-zero only
//! after the whole report has printed.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin perf-report            # full run, writes JSON
//! cargo run --release --bin perf-report -- --check # tiny sizes, no file
//! ```

use msplit_bench::{dense_dd, penta_band};
use msplit_comm::tcp::{LoopbackMesh, TcpOptions};
use msplit_comm::{InProcTransport, Message, Transport};
use msplit_core::krylov::{Preconditioner, SerialSweepOracle, SweepBuffers, SweepPreconditioner};
use msplit_core::runtime::{factorize_blocks, IterationWorkspace, NeighborData, RankEngine};
use msplit_core::solver::{ExecutionMode, MultisplittingConfig};
use msplit_core::{Decomposition, MultisplittingSolver, PreparedSystem, WeightingScheme};
use msplit_dense::{BandLu, DenseLu};
use msplit_direct::{SolveScratch, SolverKind, SparseLu, SparseLuConfig};
use msplit_engine::EngineConfig;
use msplit_serve::{ClientOptions, ServeClient, ServeConfig, SolveServer};
use msplit_sparse::{generators, CsrMatrix};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Allowed per-iteration dispatch overhead of the unified `RankEngine` over
/// the hand-inlined loop body (the pre-refactor driver kernel sequence):
/// 2 %, plus a small absolute slack absorbing timer noise on µs-scale steps.
const MAX_DISPATCH_OVERHEAD_PCT: f64 = 2.0;
const DISPATCH_SLACK_US: f64 = 0.5;

/// Serving acceptance gate: warm coalesced throughput must beat cold
/// (factorize-per-request) throughput by at least this factor.  Cold pays a
/// factorization per request; warm coalesced pays one cached triangular
/// sweep per *batch*, so well below 3x means coalescing or the cache broke.
const MIN_COALESCED_OVER_COLD: f64 = 3.0;

/// Sparse-factorization acceptance gate: on `cage_like(3000, 1)` (the shape
/// of one `grid_factor` band) the pruned, allocation-free Gilbert–Peierls
/// kernel must beat the retained unpruned reference by at least this factor.
const MIN_SPARSE_LU_SPEEDUP: f64 = 2.0;

/// Convergence-protocol acceptance gate: at P = 1024 simulated ranks the
/// tree-aggregated lockstep coordinator must handle at least this many times
/// fewer control messages per decision than the flat coordinator (flat is
/// 2·(P−1) per decision; an arity-4 tree is 2·arity, so the real ratio is
/// ~256x — the gate just guards against the tree silently degenerating).
const MIN_TREE_COORDINATOR_REDUCTION: f64 = 4.0;

/// Krylov acceptance gate: on the ill-conditioned convection–diffusion
/// system (n = 4096: a 64×64 grid in single-grid-row bands, Péclet 0.9),
/// FGMRES over the multisplitting-sweep preconditioner must need at least
/// this many times fewer outer iterations than the stationary sweep.
const MIN_FGMRES_ITERATION_ADVANTAGE: f64 = 2.0;

/// Pool acceptance gate: on two or more cores one multisplitting sweep over
/// eight bands (`convection_diffusion`, k = 96) on the `rayon` pool must
/// beat the same sweep run serially in the calling thread by at least this
/// factor, for the sparse and for the band factors.  Skipped on one core,
/// where the pool has no helper and both sides are the same code.
const MIN_POOLED_SWEEP_SPEEDUP: f64 = 1.4;

/// Fewest and most passes over the pool rows.  On a shared host the second
/// core can be taken away for hundreds of milliseconds at a time, during which
/// every pooled sample reads like a serial one; the samples of a row are
/// therefore spread over passes that lie seconds apart, and each side keeps
/// its best (see `pool_table`).
const POOL_PASSES: std::ops::Range<usize> = 3..12;

/// Best-of-`reps` wall-clock milliseconds for `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct KernelRecord {
    name: &'static str,
    n: usize,
    /// Milliseconds of the retained pre-optimization kernel, when one exists.
    before_ms: Option<f64>,
    after_ms: f64,
}

impl KernelRecord {
    fn speedup(&self) -> Option<f64> {
        self.before_ms.map(|b| b / self.after_ms)
    }
}

/// One row of the transport table (in-proc vs TCP loopback).
struct TransportRecord {
    name: &'static str,
    world: usize,
    value: f64,
    unit: &'static str,
}

/// One row of the driver-dispatch table: the same per-iteration work through
/// the old inlined loop body vs the unified `RankEngine` adapter path.
struct DriverRecord {
    name: &'static str,
    n: usize,
    inlined_us: f64,
    engine_us: f64,
}

impl DriverRecord {
    fn overhead_pct(&self) -> f64 {
        (self.engine_us - self.inlined_us) / self.inlined_us * 100.0
    }

    /// The row's JSON object; an unmeasured (NaN) inlined side prints as
    /// `null`, and so does its overhead.
    fn json(&self) -> String {
        let num = |v: f64, digits: usize| {
            if v.is_nan() {
                "null".to_string()
            } else {
                format!("{v:.digits$}")
            }
        };
        format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"inlined_us_per_iteration\": {}, \"engine_us_per_iteration\": {:.3}, \"overhead_pct\": {}}}",
            self.name,
            self.n,
            num(self.inlined_us, 3),
            self.engine_us,
            num(self.overhead_pct(), 2)
        )
    }
}

/// One row of the convergence table: a scale-simulated protocol run.
struct ConvergenceRecord {
    protocol: &'static str,
    world: usize,
    converged: bool,
    iterations: u64,
    coordinator_inbox_peak: usize,
    coordinator_msgs_per_decision: f64,
    messages_per_iteration: f64,
}

/// Runs the in-process scale simulator over P ∈ {64, 256, 1024} × three
/// rows — lockstep votes at the flat fan-in (`P − 1`) and at the production
/// fan-in (`VOTE_TREE_ARITY`), and the confirmation waves — and returns the
/// rows plus the tree-vs-flat coordinator-load reduction at P = 1024 (the
/// gated claim).
fn convergence_table() -> (Vec<ConvergenceRecord>, f64) {
    use msplit_core::runtime::VOTE_TREE_ARITY;
    use msplit_core::scale::{simulate_ranks, Protocol, ScaleConfig};
    let mut rows: Vec<ConvergenceRecord> = Vec::new();
    for world in [64usize, 256, 1024] {
        let protocols = [
            ("flat", Protocol::flat(world)),
            (
                "tree",
                Protocol::Tree {
                    arity: VOTE_TREE_ARITY,
                },
            ),
            ("waves", Protocol::Waves { confirmations: 3 }),
        ];
        for (label, protocol) in protocols {
            let report = simulate_ranks(&ScaleConfig {
                ranks: world,
                protocol,
                ..Default::default()
            })
            .expect("scale simulation");
            rows.push(ConvergenceRecord {
                protocol: label,
                world,
                converged: report.stop.converged(),
                iterations: report.stop.iterations,
                coordinator_inbox_peak: report.coordinator_inbox_peak,
                coordinator_msgs_per_decision: report.coordinator_msgs_per_decision(),
                messages_per_iteration: report.messages_per_iteration(),
            });
        }
    }
    let load_at_1024 = |label: &str| {
        rows.iter()
            .find(|r| r.world == 1024 && r.protocol == label)
            .expect("the table has a P = 1024 row per protocol")
            .coordinator_msgs_per_decision
    };
    let reduction = load_at_1024("flat") / load_at_1024("tree");
    (rows, reduction)
}

/// Measures the per-iteration cost of one rank's Algorithm 1 loop body two
/// ways on the same decomposed system: hand-inlined (the exact kernel
/// sequence the pre-refactor drivers ran: dependency refresh → BLoc assembly
/// → in-place triangular solve → increment norm → iterate copy) and through
/// [`RankEngine::step`].  The difference is the dispatch cost the runtime
/// refactor added.
fn driver_dispatch_overhead(n: usize, steps_per_rep: usize, reps: usize) -> DriverRecord {
    let a = generators::diag_dominant(&generators::DiagDominantConfig {
        n,
        seed: 17,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
    let d = Decomposition::uniform(&a, &b, 4, 0).expect("decomposition");
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    // Part 1: an interior band with both a left and a right neighbour.
    let blk = &blocks[1];
    let solver = SolverKind::SparseLu.build();
    let factor = solver.factorize(&blk.a_sub).expect("factorize");
    let src: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.1 - 0.5).collect();
    let ingest_sources = |neighbor: &mut NeighborData| {
        for part in [0usize, 2usize] {
            let range = partition.extended_range(part);
            neighbor.update(part, 1, range.start, src[range].to_vec());
        }
    };

    // Inlined baseline: the exact kernel sequence the pre-refactor drivers
    // ran each iteration (halo fill → dependency-movement tracking → BLoc
    // assembly → in-place solve → increment norm → iterate copy), on
    // retained buffers with direct calls — no engine, no policy dispatch.
    let mut neighbor = NeighborData::new(&partition, WeightingScheme::OwnerTakes, blk);
    ingest_sources(&mut neighbor);
    let mut x_global = vec![0.0f64; n];
    let mut prev_deps = vec![0.0f64; neighbor.dependency_columns().len()];
    let mut rhs = Vec::new();
    let mut x_sub = vec![0.0f64; blk.size];
    let mut scratch = SolveScratch::new();
    let mut run_inlined = || {
        for _ in 0..steps_per_rep {
            neighbor.fill_dependencies(&mut x_global);
            let mut dep_change = 0.0f64;
            for (slot, &g) in neighbor.dependency_columns().iter().enumerate() {
                dep_change = dep_change.max((x_global[g] - prev_deps[slot]).abs());
                prev_deps[slot] = x_global[g];
            }
            std::hint::black_box(dep_change);
            blk.local_rhs_into(&blk.b_sub, &x_global, &mut rhs)
                .expect("local_rhs_into");
            factor
                .solve_into(&mut rhs, &mut scratch)
                .expect("solve_into");
            let mut inc = 0.0f64;
            for (a, b) in rhs.iter().zip(x_sub.iter()) {
                inc = inc.max((a - b).abs());
            }
            std::hint::black_box(inc);
            x_sub.copy_from_slice(&rhs);
        }
    };

    // Engine path: same system, same factorization, slices ingested once so
    // the dependency fill does equivalent work.
    let mut ws = IterationWorkspace::new();
    let mut engine = RankEngine::single(
        &partition,
        blk,
        &blk.b_sub,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut ws,
    );
    // This row isolates *dispatch* overhead: the engine must run the same
    // assembly + solve as the inlined body, so the unchanged-halo skip
    // (which would skip every step after the first here, the dependency
    // values never move) is disabled.
    engine.set_incremental(false);
    for part in [0usize, 2usize] {
        let range = partition.extended_range(part);
        engine.ingest(Message::Solution {
            from: part,
            iteration: 1,
            offset: range.start,
            values: src[range.clone()].to_vec(),
        });
    }
    let mut run_engine = || {
        for _ in 0..steps_per_rep {
            std::hint::black_box(engine.step().expect("engine step"));
        }
    };

    // Interleave the reps (inlined, engine, inlined, engine, …) so clock
    // drift, frequency scaling or a background process biases both sides
    // equally instead of whichever phase ran second; best-of keeps the
    // cleanest rep of each.
    let mut inlined_ms = f64::INFINITY;
    let mut engine_ms = f64::INFINITY;
    run_inlined();
    run_engine();
    for _ in 0..reps {
        let t0 = Instant::now();
        run_inlined();
        inlined_ms = inlined_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        run_engine();
        engine_ms = engine_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    DriverRecord {
        name: "algorithm1_iteration_body",
        n,
        inlined_us: inlined_ms * 1e3 / steps_per_rep as f64,
        engine_us: engine_ms * 1e3 / steps_per_rep as f64,
    }
}

/// One row of the krylov table: one (system, method) measurement.
struct KrylovRecord {
    system: &'static str,
    method: &'static str,
    n: usize,
    outer_iterations: u64,
    wall_ms: f64,
    converged: bool,
}

/// Measures outer-iteration counts and wall clock of the stationary sweep vs
/// FGMRES(m) over the same sweep as a preconditioner, on a well-conditioned
/// system (where the stationary sweep is already fine and FGMRES must merely
/// not embarrass itself) and on the ill-conditioned convection–diffusion
/// system (where the iteration advantage is the gated claim).
///
/// The ill-conditioned size stays at n = 4096 even in `--check`: the gate is
/// an asymptotic claim about the block-Jacobi spectral radius approaching 1,
/// and small grids would not exhibit the contraction collapse.
fn krylov_table(check_mode: bool) -> (Vec<KrylovRecord>, f64) {
    use msplit_core::solver::Method;
    use msplit_sparse::generators::ConvectionDiffusionConfig;

    let mut rows = Vec::new();
    let mut run = |system: &'static str,
                   a: &CsrMatrix,
                   b: &[f64],
                   parts: usize,
                   method: Method,
                   label: &'static str|
     -> u64 {
        let config = MultisplittingConfig {
            parts,
            tolerance: 1e-10,
            max_iterations: 50_000,
            method,
            ..Default::default()
        };
        let prepared = PreparedSystem::prepare(config, a).expect("prepare");
        let mut iterations = 0;
        let mut converged = false;
        let wall_ms = time_ms(2, || {
            let out = prepared.solve(b).expect("krylov-table solve");
            iterations = out.stop.iterations;
            converged = out.stop.converged();
            out
        });
        rows.push(KrylovRecord {
            system,
            method: label,
            n: a.rows(),
            outer_iterations: iterations,
            wall_ms,
            converged,
        });
        iterations
    };

    // Well conditioned: the banded strictly dominant generator the stationary
    // driver was built for.  Informational — both methods converge quickly.
    let well_n = if check_mode { 500 } else { 2_000 };
    let a = generators::diag_dominant(&generators::DiagDominantConfig {
        n: well_n,
        seed: 11,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
    run("diag_dominant", &a, &b, 8, Method::Stationary, "stationary");
    run(
        "diag_dominant",
        &a,
        &b,
        8,
        Method::Fgmres {
            restart: 30,
            inner_sweeps: 1,
        },
        "fgmres(30)",
    );

    // Ill conditioned: 64x64 convection–diffusion in single-grid-row bands.
    // The block-Jacobi spectral radius sits close to 1 here, so this is the
    // regime the Krylov layer exists for — and the gated claim.
    let a = generators::convection_diffusion(&ConvectionDiffusionConfig {
        k: 64,
        peclet: 0.9,
        skew: 0.0,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 13) as f64) - 6.0);
    let stationary_iters = run(
        "convection_diffusion",
        &a,
        &b,
        64,
        Method::Stationary,
        "stationary",
    );
    let fgmres_iters = run(
        "convection_diffusion",
        &a,
        &b,
        64,
        Method::Fgmres {
            restart: 60,
            inner_sweeps: 1,
        },
        "fgmres(60)",
    );
    (rows, stationary_iters as f64 / fgmres_iters.max(1) as f64)
}

/// One row of the serving table (the networked fleet in `msplit-serve`).
struct ServingRecord {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Measures the solve fleet three ways against one in-process shard: cold
/// requests (distinct matrices, each paying a factorization), warm solo
/// requests (same matrix, strictly sequential, so nothing coalesces), and
/// warm coalesced requests (concurrent clients on the same matrix sharing
/// multi-RHS sweeps).  Queue-latency percentiles come from the
/// `queue_micros` every `SolveResult` carries.
fn serving_table(check_mode: bool) -> (Vec<ServingRecord>, f64, f64) {
    let n = if check_mode { 200 } else { 600 };
    let cold_matrices = if check_mode { 3u64 } else { 6 };
    let warm_reqs = if check_mode { 10 } else { 40 };
    let (threads, solves_per_thread) = if check_mode { (8, 4) } else { (16, 8) };

    let config = MultisplittingConfig {
        parts: 2,
        tolerance: 1e-8,
        ..Default::default()
    };
    let server = SolveServer::start(
        "127.0.0.1:0",
        ServeConfig {
            coalesce_window: std::time::Duration::from_millis(2),
            engine: EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start serving shard");
    let addrs = vec![server.local_addr().to_string()];
    let client = ServeClient::new(&addrs, ClientOptions::default()).expect("serve client");

    // Cold: every request is a matrix the shard has never seen, so each one
    // pays decode + factorize + solve.
    let t0 = Instant::now();
    for seed in 0..cold_matrices {
        let a = generators::diag_dominant(&generators::DiagDominantConfig {
            n,
            seed: 1000 + seed,
            ..Default::default()
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
        client.solve(&a, &config, &b).expect("cold solve");
    }
    let cold_rps = cold_matrices as f64 / t0.elapsed().as_secs_f64();

    // Warm solo: one matrix, strictly sequential requests — the cache is hot
    // but each request still waits out its own coalescing window.
    let a = generators::diag_dominant(&generators::DiagDominantConfig {
        n,
        seed: 2000,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 5) as f64) - 2.0);
    client.solve(&a, &config, &b).expect("warming solve");
    let t0 = Instant::now();
    for _ in 0..warm_reqs {
        client.solve(&a, &config, &b).expect("warm solve");
    }
    let warm_solo_rps = warm_reqs as f64 / t0.elapsed().as_secs_f64();

    // Warm coalesced: concurrent clients hammering the same matrix, so
    // requests landing in the same window share one multi-RHS sweep.
    let a = std::sync::Arc::new(a);
    let config = std::sync::Arc::new(config);
    let addrs = std::sync::Arc::new(addrs);
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let a = std::sync::Arc::clone(&a);
            let config = std::sync::Arc::clone(&config);
            let addrs = std::sync::Arc::clone(&addrs);
            std::thread::spawn(move || {
                let client =
                    ServeClient::new(&addrs, ClientOptions::default()).expect("tenant client");
                let mut queue_us = Vec::with_capacity(solves_per_thread);
                let mut coalesced = 0u64;
                for k in 0..solves_per_thread {
                    let (_, b) = generators::rhs_for_solution(&a, move |i| {
                        ((i + t * solves_per_thread + k) % 6) as f64
                    });
                    let sol = client.solve(&a, &config, &b).expect("coalesced solve");
                    queue_us.push(sol.queue_micros);
                    if sol.coalesced > 1 {
                        coalesced += 1;
                    }
                }
                (queue_us, coalesced)
            })
        })
        .collect();
    let mut queue_us: Vec<u64> = Vec::new();
    let mut coalesced_requests = 0u64;
    for w in workers {
        let (q, c) = w.join().expect("tenant thread");
        queue_us.extend(q);
        coalesced_requests += c;
    }
    let total = (threads * solves_per_thread) as f64;
    let warm_coalesced_rps = total / t0.elapsed().as_secs_f64();
    server.shutdown();

    queue_us.sort_unstable();
    let pct = |p: f64| queue_us[((queue_us.len() - 1) as f64 * p) as usize] as f64;
    let records = vec![
        ServingRecord {
            name: "cold_requests_per_s",
            value: cold_rps,
            unit: "req/s",
        },
        ServingRecord {
            name: "warm_solo_requests_per_s",
            value: warm_solo_rps,
            unit: "req/s",
        },
        ServingRecord {
            name: "warm_coalesced_requests_per_s",
            value: warm_coalesced_rps,
            unit: "req/s",
        },
        ServingRecord {
            name: "coalesced_request_share",
            value: coalesced_requests as f64 / total,
            unit: "fraction",
        },
        ServingRecord {
            name: "queue_latency_p50",
            value: pct(0.50),
            unit: "us",
        },
        ServingRecord {
            name: "queue_latency_p99",
            value: pct(0.99),
            unit: "us",
        },
    ];
    (records, cold_rps, warm_coalesced_rps)
}

/// Mean microseconds per message round trip between ranks 0 and 1 of
/// `transport`: rank 1 echoes every solution slice back.
fn roundtrip_us(transport: Arc<dyn Transport>, rounds: usize, payload: usize) -> f64 {
    let echo_side = Arc::clone(&transport);
    let echo = std::thread::spawn(move || {
        for _ in 0..rounds {
            let msg = echo_side.recv(1).expect("echo recv");
            echo_side.send(1, 0, msg).expect("echo send");
        }
    });
    let msg = Message::Solution {
        from: 0,
        iteration: 1,
        offset: 0,
        values: vec![0.5; payload],
    };
    let t0 = Instant::now();
    for _ in 0..rounds {
        transport.send(0, 1, msg.clone()).expect("ping send");
        transport.recv(0).expect("ping recv");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    echo.join().expect("echo thread");
    elapsed * 1e6 / rounds as f64
}

/// Bytes per outer iteration a synchronous solve puts on the links of the
/// given transport (total `LinkStats` bytes over the iteration count).
fn sync_bytes_per_iteration(
    a: &msplit_sparse::CsrMatrix,
    b: &[f64],
    parts: usize,
    transport: Arc<dyn Transport>,
    stats_bytes: impl Fn() -> usize,
) -> f64 {
    let config = MultisplittingConfig {
        parts,
        tolerance: 1e-8,
        mode: ExecutionMode::Synchronous,
        ..Default::default()
    };
    let out = MultisplittingSolver::new(config)
        .solve_with_transport(a, b, transport)
        .expect("sync solve");
    stats_bytes() as f64 / out.stop.iterations.max(1) as f64
}

/// Best-of-`rounds` milliseconds of `serial` and of `pooled`, measured in
/// alternation so that a disturbance of the host falls on both.
fn alternate_ms(rounds: usize, mut serial: impl FnMut(), mut pooled: impl FnMut()) -> (f64, f64) {
    let (mut best_serial, mut best_pooled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        best_serial = best_serial.min(time_ms(1, &mut serial));
        best_pooled = best_pooled.min(time_ms(1, &mut pooled));
    }
    (best_serial, best_pooled)
}

/// [`alternate_ms`] of one piece of code against itself: `pooled` is `f` on
/// this thread, `serial` is `f` on a thread that has declared itself a
/// worker, whose parallel loops therefore run inline.
fn inline_vs_pooled_ms(rounds: usize, f: impl Fn() + Sync) -> (f64, f64) {
    let (mut best_serial, mut best_pooled) = (f64::INFINITY, f64::INFINITY);
    std::thread::scope(|scope| {
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let (report, result) = std::sync::mpsc::channel::<f64>();
        let f = &f;
        scope.spawn(move || {
            rayon::pool::mark_worker_thread();
            while wait.recv().is_ok() {
                report
                    .send(time_ms(1, f))
                    .expect("the measuring thread waits");
            }
        });
        for _ in 0..rounds {
            go.send(())
                .expect("the inline thread runs until `go` drops");
            best_serial = best_serial.min(result.recv().expect("inline timing"));
            best_pooled = best_pooled.min(time_ms(1, f));
        }
    });
    (best_serial, best_pooled)
}

/// One pass over the `rayon` pool rows: every parallel loop of the
/// workspace, serial (`before_ms`) against pooled (`after_ms`).  The sweep
/// and the block factorization run at the size of the `krylov_*` workloads of
/// the end-to-end benchmark (`convection_diffusion`, k = 96, eight bands);
/// `par_spmv_into` runs where it begins to fork (`PAR_SPMV_MIN_NNZ` stored
/// entries: poisson_2d(82)) and well above.
fn pool_pass() -> Vec<KernelRecord> {
    let mut rows = Vec::new();
    for grid in [82, 200] {
        let a = generators::poisson_2d(grid);
        assert!(a.nnz() >= msplit_sparse::csr::PAR_SPMV_MIN_NNZ);
        let n = a.rows();
        let xv: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) * 0.25 - 2.0).collect();
        let (mut y_seq, mut y_par) = (vec![0.0; n], vec![0.0; n]);
        let (seq_ms, par_ms) = alternate_ms(
            40,
            || a.spmv_into(&xv, &mut y_seq).expect("spmv"),
            || a.par_spmv_into(&xv, &mut y_par).expect("par_spmv"),
        );
        rows.push(KernelRecord {
            name: "par_spmv_into",
            n,
            before_ms: Some(seq_ms),
            after_ms: par_ms,
        });
    }

    let a = generators::convection_diffusion(&generators::ConvectionDiffusionConfig {
        k: 96,
        skew: 0.1,
        ..Default::default()
    });
    let n = a.rows();
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 13) as f64) - 6.0);
    let (partition, blocks) = Decomposition::uniform(&a, &b, 8, 0)
        .expect("decomposition")
        .into_blocks();
    let table = WeightingScheme::OwnerTakes.weight_table(&partition);
    for (kind, sweep_row, factor_row) in [
        (SolverKind::SparseLu, "sweep_apply", "factorize_blocks"),
        (
            SolverKind::BandLu,
            "sweep_apply_band",
            "factorize_blocks_band",
        ),
    ] {
        let config = MultisplittingConfig {
            parts: 8,
            solver_kind: kind,
            ..Default::default()
        };
        let rounds = if kind == SolverKind::BandLu { 2 } else { 8 };
        let (serial_ms, pooled_ms) = inline_vs_pooled_ms(rounds, || {
            std::hint::black_box(factorize_blocks(&blocks, &config).expect("factorize"));
        });
        rows.push(KernelRecord {
            name: factor_row,
            n,
            before_ms: Some(serial_ms),
            after_ms: pooled_ms,
        });

        let factors = factorize_blocks(&blocks, &config).expect("factorize");
        let (mut serial_bufs, mut pooled_bufs) = (SweepBuffers::new(), SweepBuffers::new());
        let bind = |bufs| SweepPreconditioner::new(&partition, &blocks, &factors, &table, 1, bufs);
        let mut serial = SerialSweepOracle(bind(&mut serial_bufs));
        let mut pooled = bind(&mut pooled_bufs);
        let (mut z_serial, mut z_pooled) = (vec![0.0; n], vec![0.0; n]);
        // Five applications per sample: back to back, like the steps of one
        // solve, so that a sample pays one helper wake-up, not five.
        let (serial_ms, pooled_ms) = alternate_ms(
            20,
            || (0..5).for_each(|_| serial.apply(&b, &mut z_serial).expect("serial sweep")),
            || (0..5).for_each(|_| pooled.apply(&b, &mut z_pooled).expect("pooled sweep")),
        );
        assert!(
            z_serial
                .iter()
                .zip(&z_pooled)
                .all(|(s, p)| s.to_bits() == p.to_bits()),
            "{sweep_row}: the pooled sweep is not bitwise the serial sweep"
        );
        rows.push(KernelRecord {
            name: sweep_row,
            n,
            before_ms: Some(serial_ms / 5.0),
            after_ms: pooled_ms / 5.0,
        });
    }
    rows
}

/// The `rayon` pool rows, each side the best of its passes, and the smaller
/// of the two sweep speed-ups (the gated claim).  At least
/// `POOL_PASSES.start` passes run; while the gated claim is not met, more
/// follow, up to `POOL_PASSES.end`: interference only ever slows a sample,
/// so more passes move both sides of a row toward their undisturbed times.
fn pool_table() -> (Vec<KernelRecord>, f64) {
    let mut rows = pool_pass();
    for pass in 1..POOL_PASSES.end {
        let sweep_speedup = gated_sweep_speedup(&rows);
        if pass >= POOL_PASSES.start && sweep_speedup >= MIN_POOLED_SWEEP_SPEEDUP {
            break;
        }
        for (row, again) in rows.iter_mut().zip(pool_pass()) {
            row.before_ms = row.before_ms.zip(again.before_ms).map(|(a, b)| a.min(b));
            row.after_ms = row.after_ms.min(again.after_ms);
        }
    }
    let sweep_speedup = gated_sweep_speedup(&rows);
    (rows, sweep_speedup)
}

/// The smaller speed-up of the `sweep_apply*` rows.
fn gated_sweep_speedup(rows: &[KernelRecord]) -> f64 {
    rows.iter()
        .filter(|row| row.name.starts_with("sweep_apply"))
        .filter_map(KernelRecord::speedup)
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("perf-report: regenerate BENCH_kernels.json at the repo root");
        println!("  --check   run tiny problem sizes and skip the JSON write");
        return;
    }

    let mut records: Vec<KernelRecord> = Vec::new();

    // --- Dense LU factorization: blocked production kernel vs the retained
    // reference (the exact pre-optimization algorithm). ---
    let dense_sizes: &[usize] = if check_mode { &[64] } else { &[128, 512, 1024] };
    for &n in dense_sizes {
        let a = dense_dd(n, 42);
        let reps = if n >= 1024 { 2 } else { 3 };
        let after_ms = time_ms(reps, || DenseLu::factorize(&a).expect("factorize"));
        let before_ms = time_ms(reps, || {
            DenseLu::factorize_reference(&a).expect("factorize")
        });
        records.push(KernelRecord {
            name: "dense_lu_factorize",
            n,
            before_ms: Some(before_ms),
            after_ms,
        });
    }

    // --- Sparse LU factorization: pruned production kernel vs the retained
    // unpruned reference.  n = 3000 in --check too: the gate is about the
    // symbolic reach, whose share of the work grows with the fill. ---
    let sparse_lu_n = 3_000;
    let a = generators::cage_like(sparse_lu_n, 1);
    let lu_config = SparseLuConfig::default();
    let mut sparse_lu_edges = (0u64, 0u64);
    let after_ms = time_ms(3, || {
        let lu = SparseLu::factorize_with(&a, &lu_config).expect("factorize");
        sparse_lu_edges.1 = lu.stats().symbolic_edges;
        lu
    });
    let before_ms = time_ms(3, || {
        let lu = SparseLu::factorize_reference(&a, &lu_config).expect("factorize");
        sparse_lu_edges.0 = lu.stats().symbolic_edges;
        lu
    });
    let sparse_lu_speedup = before_ms / after_ms;
    records.push(KernelRecord {
        name: "sparse_lu_factorize",
        n: sparse_lu_n,
        before_ms: Some(before_ms),
        after_ms,
    });

    // --- Band triangular solve (in place). ---
    let band_n = if check_mode { 2_000 } else { 20_000 };
    let band = penta_band(band_n);
    let lu = BandLu::factorize(&band).expect("band factorize");
    let rhs: Vec<f64> = (0..band_n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut x = rhs.clone();
    let after_ms = time_ms(10, || {
        x.copy_from_slice(&rhs);
        lu.solve_into(&mut x).expect("solve_into");
    });
    records.push(KernelRecord {
        name: "band_solve_into",
        n: band_n,
        before_ms: None,
        after_ms,
    });

    // --- CSR SpMV (the row-parallel kernel is a pool row, below). ---
    let grid = if check_mode { 40 } else { 200 };
    let a = generators::poisson_2d(grid);
    let n = a.rows();
    let xv: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) * 0.25 - 2.0).collect();
    let mut y = vec![0.0; n];
    let seq_ms = time_ms(10, || a.spmv_into(&xv, &mut y).expect("spmv"));
    records.push(KernelRecord {
        name: "spmv_into",
        n,
        before_ms: None,
        after_ms: seq_ms,
    });

    // --- The rayon pool: `par_spmv_into`, one sweep's bands and
    // `factorize_blocks`, serial vs pooled.  The sizes are the end-to-end
    // benchmark's in --check too: the gate is about loops of that size. ---
    let (pool_records, pooled_sweep_speedup) = pool_table();
    records.extend(pool_records);

    // --- Cold vs warm batched serving through a prepared system. ---
    let serve_n = if check_mode { 300 } else { 1_200 };
    let batch = 8usize;
    let a = generators::cage_like(serve_n, 10);
    let config = MultisplittingConfig {
        parts: 4,
        tolerance: 1e-8,
        ..Default::default()
    };
    let rhs_cols: Vec<Vec<f64>> = (0..batch as u64)
        .map(|s| generators::rhs_for_solution(&a, move |i| ((i as u64 + s) % 11) as f64 - 5.0).1)
        .collect();
    let cold_ms = time_ms(3, || {
        let prepared = PreparedSystem::prepare(config.clone(), &a).expect("prepare");
        prepared.solve_many(&rhs_cols).expect("solve_many")
    });
    let prepared = PreparedSystem::prepare(config, &a).expect("prepare");
    let warm_ms = time_ms(3, || prepared.solve_many(&rhs_cols).expect("solve_many"));
    records.push(KernelRecord {
        name: "prepared_solve_many_cold",
        n: serve_n,
        before_ms: None,
        after_ms: cold_ms,
    });
    records.push(KernelRecord {
        name: "prepared_solve_many_warm",
        n: serve_n,
        before_ms: Some(cold_ms),
        after_ms: warm_ms,
    });

    // --- Transport: in-proc vs TCP loopback. ---
    let mut transport_records: Vec<TransportRecord> = Vec::new();
    let (rounds, payload) = if check_mode { (200, 64) } else { (2_000, 256) };
    let inproc_rtt = roundtrip_us(InProcTransport::new(2), rounds, payload);
    let mesh = LoopbackMesh::new(2, TcpOptions::default()).expect("loopback mesh");
    let tcp_rtt = roundtrip_us(mesh, rounds, payload);
    transport_records.push(TransportRecord {
        name: "roundtrip_inproc",
        world: 2,
        value: inproc_rtt,
        unit: "us",
    });
    transport_records.push(TransportRecord {
        name: "roundtrip_tcp_loopback",
        world: 2,
        value: tcp_rtt,
        unit: "us",
    });

    let net_n = if check_mode { 200 } else { 800 };
    let parts = 4usize;
    let a = generators::cage_like(net_n, 13);
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
    let inproc = InProcTransport::new(parts);
    let inproc_bytes = {
        let stats_handle = inproc.clone();
        sync_bytes_per_iteration(&a, &b, parts, inproc, move || {
            stats_handle.stats().total_bytes()
        })
    };
    let mesh = LoopbackMesh::new(parts, TcpOptions::default()).expect("loopback mesh");
    let tcp_bytes = {
        let stats_handle = mesh.clone();
        sync_bytes_per_iteration(&a, &b, parts, mesh, move || {
            stats_handle.stats().total_bytes()
        })
    };
    transport_records.push(TransportRecord {
        name: "sync_bytes_per_iteration_inproc",
        world: parts,
        value: inproc_bytes,
        unit: "bytes",
    });
    transport_records.push(TransportRecord {
        name: "sync_bytes_per_iteration_tcp_loopback",
        world: parts,
        value: tcp_bytes,
        unit: "bytes",
    });

    // --- Driver dispatch: old inlined loop body vs the RankEngine adapter
    // path, plus the end-to-end per-iteration cost of the threaded sync
    // adapter and of the pooled loop (informational). ---
    let (disp_n, disp_steps, disp_reps) = if check_mode {
        (256, 200, 5)
    } else {
        (1024, 400, 7)
    };
    let dispatch = driver_dispatch_overhead(disp_n, disp_steps, disp_reps);
    let e2e_n = if check_mode { 240 } else { 960 };
    let a = generators::cage_like(e2e_n, 9);
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 6) as f64) - 2.0);
    let sync_solver = MultisplittingSolver::new(MultisplittingConfig {
        parts: 4,
        tolerance: 1e-8,
        mode: ExecutionMode::Synchronous,
        ..Default::default()
    });
    // The same cold solve through the threaded adapter over an explicit
    // in-process transport, and through the pooled loop `solve` takes.
    let mut e2e_iters = 1u64;
    let mut e2e_record = |name, pooled: bool| {
        let ms = time_ms(3, || {
            let out = if pooled {
                sync_solver.solve(&a, &b)
            } else {
                sync_solver.solve_with_transport(&a, &b, InProcTransport::new(4))
            };
            let out = out.expect("sync solve");
            e2e_iters = out.stop.iterations.max(1);
            out
        });
        DriverRecord {
            name,
            n: e2e_n,
            inlined_us: f64::NAN,
            engine_us: ms * 1e3 / e2e_iters as f64,
        }
    };
    let e2e_records = [
        e2e_record("threaded_sync_adapter_end_to_end", false),
        e2e_record("pooled_sync_end_to_end", true),
    ];

    // --- Serving: the networked fleet, cold vs warm vs coalesced. ---
    let (serving_records, cold_rps, coalesced_rps) = serving_table(check_mode);

    // --- Convergence protocols at scale (in-process simulation; the full
    // P = 1024 sweep runs in --check too — the gate is the point). ---
    let (convergence_records, tree_reduction_1024) = convergence_table();

    // --- Krylov outer loops: stationary sweep vs FGMRES over the same sweep
    // as a preconditioner (the n = 4096 ill-conditioned gate runs in --check
    // too — the gate is the point). ---
    let (krylov_records, fgmres_advantage) = krylov_table(check_mode);

    // --- Report. ---
    let mut json = String::new();
    json.push_str("{\n  \"suite\": \"kernel_suite\",\n  \"unit\": \"ms (best of reps)\",\n");
    let _ = writeln!(
        json,
        "  \"note\": \"before = retained pre-optimization kernel where one exists (dense reference LU; unpruned reference sparse LU; cold prepare for warm serving; the serial loop for the pool rows sweep_apply*, factorize_blocks*, par_spmv_into)\",",
    );
    json.push_str("  \"kernels\": [\n");
    for (i, r) in records.iter().enumerate() {
        let before = r
            .before_ms
            .map_or("null".to_string(), |v| format!("{v:.3}"));
        let speedup = r
            .speedup()
            .map_or("null".to_string(), |v| format!("{v:.2}"));
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"n\": {}, \"before_ms\": {}, \"after_ms\": {:.3}, \"speedup\": {}}}{}",
            r.name, r.n, before, r.after_ms, speedup, comma
        );
    }
    json.push_str("  ],\n  \"transport\": [\n");
    for (i, t) in transport_records.iter().enumerate() {
        let comma = if i + 1 == transport_records.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"world\": {}, \"value\": {:.3}, \"unit\": \"{}\"}}{}",
            t.name, t.world, t.value, t.unit, comma
        );
    }
    json.push_str("  ],\n  \"driver\": [\n");
    let driver_rows: Vec<String> = std::iter::once(&dispatch)
        .chain(&e2e_records)
        .map(DriverRecord::json)
        .collect();
    json.push_str(&driver_rows.join(",\n"));
    json.push('\n');
    json.push_str("  ],\n  \"serving\": [\n");
    for (i, s) in serving_records.iter().enumerate() {
        let comma = if i + 1 == serving_records.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"value\": {:.3}, \"unit\": \"{}\"}}{}",
            s.name, s.value, s.unit, comma
        );
    }
    json.push_str("  ],\n  \"krylov\": [\n");
    for (i, k) in krylov_records.iter().enumerate() {
        let comma = if i + 1 == krylov_records.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{\"system\": \"{}\", \"method\": \"{}\", \"n\": {}, \
             \"outer_iterations\": {}, \"wall_ms\": {:.3}, \"converged\": {}}}{}",
            k.system, k.method, k.n, k.outer_iterations, k.wall_ms, k.converged, comma
        );
    }
    json.push_str("  ],\n  \"convergence\": [\n");
    for (i, c) in convergence_records.iter().enumerate() {
        let comma = if i + 1 == convergence_records.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{\"protocol\": \"{}\", \"world\": {}, \"converged\": {}, \"iterations\": {}, \
             \"coordinator_inbox_peak\": {}, \"coordinator_msgs_per_decision\": {:.2}, \
             \"messages_per_iteration\": {:.2}}}{}",
            c.protocol,
            c.world,
            c.converged,
            c.iterations,
            c.coordinator_inbox_peak,
            c.coordinator_msgs_per_decision,
            c.messages_per_iteration,
            comma
        );
    }
    json.push_str("  ]\n}\n");

    println!("{json}");
    for r in &records {
        if let Some(s) = r.speedup() {
            println!(
                "# {} n={}: {:.3} ms -> {:.3} ms ({s:.2}x)",
                r.name,
                r.n,
                r.before_ms.unwrap(),
                r.after_ms
            );
        }
    }
    println!(
        "# transport: inproc rtt {inproc_rtt:.1} us vs tcp loopback rtt {tcp_rtt:.1} us; \
         sync solve puts {inproc_bytes:.0} (inproc) vs {tcp_bytes:.0} (tcp) bytes/iteration on the links"
    );
    println!(
        "# driver dispatch: inlined {:.3} us/iter vs RankEngine {:.3} us/iter ({:+.2}%); \
         sync end-to-end {:.1} us/iter threaded vs {:.1} us/iter pooled over {} iterations",
        dispatch.inlined_us,
        dispatch.engine_us,
        dispatch.overhead_pct(),
        e2e_records[0].engine_us,
        e2e_records[1].engine_us,
        e2e_iters
    );
    // Acceptance gates.  Every gate is evaluated; failures are collected and
    // reported together at the end, and --check (CI) exits non-zero only
    // after the full report has printed — one run surfaces every broken
    // budget instead of stopping at the first.  A regeneration run still
    // writes the JSON below either way so measurements can be inspected.
    let mut gate_failures: Vec<String> = Vec::new();

    // The runtime-unification acceptance gate: the adapter path may cost at
    // most MAX_DISPATCH_OVERHEAD_PCT per iteration over the inlined body
    // (a small absolute slack absorbs timer noise on µs-scale steps).
    let budget_us =
        dispatch.inlined_us * (1.0 + MAX_DISPATCH_OVERHEAD_PCT / 100.0) + DISPATCH_SLACK_US;
    if dispatch.engine_us > budget_us {
        gate_failures.push(format!(
            "driver dispatch: measured {:.3} us/iter, budget {:.3} us/iter \
             ({MAX_DISPATCH_OVERHEAD_PCT}% over the inlined body)",
            dispatch.engine_us, budget_us
        ));
    } else {
        println!(
            "# driver dispatch within budget: {:.3} <= {:.3} us/iter",
            dispatch.engine_us, budget_us
        );
    }
    println!(
        "# serving: cold {cold_rps:.1} req/s, coalesced {coalesced_rps:.1} req/s \
         ({:.1}x); queue p50/p99 in the serving table",
        coalesced_rps / cold_rps
    );
    // The sparse-factorization acceptance gate, with the exact symbolic work
    // counts behind it (entries of L the reach examined).
    println!(
        "# sparse_lu_factorize n={sparse_lu_n}: symbolic_edges {} (unpruned reference) -> {} (pruned)",
        sparse_lu_edges.0, sparse_lu_edges.1
    );
    if sparse_lu_speedup < MIN_SPARSE_LU_SPEEDUP {
        gate_failures.push(format!(
            "sparse_lu_factorize: measured {sparse_lu_speedup:.2}x speedup over the unpruned \
             reference, below the {MIN_SPARSE_LU_SPEEDUP}x acceptance gate"
        ));
    } else {
        println!(
            "# sparse_lu_factorize within budget: {sparse_lu_speedup:.2}x >= {MIN_SPARSE_LU_SPEEDUP}x"
        );
    }

    // The pool acceptance gate: with a second core, the bands of one sweep
    // must really run at the same time.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("# pooled sweep gate skipped: one core, the pool has no helper");
    } else if pooled_sweep_speedup < MIN_POOLED_SWEEP_SPEEDUP {
        gate_failures.push(format!(
            "the pooled sweep is only {pooled_sweep_speedup:.2}x faster than the serial sweep on \
             {cores} cores, below the {MIN_POOLED_SWEEP_SPEEDUP}x acceptance gate"
        ));
    } else {
        println!(
            "# pooled sweep gate passed: {pooled_sweep_speedup:.2}x over the serial sweep on \
             {cores} cores (>= {MIN_POOLED_SWEEP_SPEEDUP}x)"
        );
    }

    // The serving acceptance gate: a multi-tenant fleet only earns its keep
    // if coalesced warm traffic beats factorize-per-request cold traffic by
    // a wide margin.
    if coalesced_rps < MIN_COALESCED_OVER_COLD * cold_rps {
        gate_failures.push(format!(
            "serving: measured warm coalesced {coalesced_rps:.1} req/s, \
             required {MIN_COALESCED_OVER_COLD}x cold ({:.1} req/s)",
            MIN_COALESCED_OVER_COLD * cold_rps
        ));
    } else {
        println!(
            "# serving within budget: {coalesced_rps:.1} >= {:.1} req/s",
            MIN_COALESCED_OVER_COLD * cold_rps
        );
    }

    // The convergence acceptance gate: every protocol converges at every
    // simulated scale, and the tree keeps the coordinator off the hot path.
    let all_converged = convergence_records.iter().all(|c| c.converged);
    if !all_converged {
        gate_failures.push(
            "convergence: a protocol failed to converge in the scale simulation, \
             required all protocols at all scales"
                .to_string(),
        );
    }
    println!(
        "# convergence: tree coordinator reduction at P=1024 is {tree_reduction_1024:.1}x \
         vs flat votes"
    );
    if tree_reduction_1024 < MIN_TREE_COORDINATOR_REDUCTION {
        gate_failures.push(format!(
            "tree coordinator: measured {tree_reduction_1024:.1}x reduction at P=1024, \
             required {MIN_TREE_COORDINATOR_REDUCTION}x"
        ));
    } else {
        println!(
            "# convergence within budget: {tree_reduction_1024:.1}x >= \
             {MIN_TREE_COORDINATOR_REDUCTION}x"
        );
    }

    // The Krylov acceptance gate: on the ill-conditioned convection–diffusion
    // system with single-grid-row bands, FGMRES over the multisplitting sweep
    // must converge in at most 1/MIN_FGMRES_ITERATION_ADVANTAGE of the
    // stationary outer iterations — the headline claim of the acceleration.
    if let Some(k) = krylov_records.iter().find(|k| !k.converged) {
        gate_failures.push(format!(
            "krylov: {} on {} (n={}) did not converge, required all rows converged",
            k.method, k.system, k.n
        ));
    }
    println!(
        "# krylov: FGMRES iteration advantage on ill-conditioned system is {fgmres_advantage:.2}x"
    );
    if fgmres_advantage < MIN_FGMRES_ITERATION_ADVANTAGE {
        gate_failures.push(format!(
            "krylov: measured {fgmres_advantage:.2}x FGMRES iteration advantage, \
             required {MIN_FGMRES_ITERATION_ADVANTAGE}x"
        ));
    } else {
        println!(
            "# krylov within budget: {fgmres_advantage:.2}x >= \
             {MIN_FGMRES_ITERATION_ADVANTAGE}x"
        );
    }

    // Aggregate verdict: every gate has been evaluated; report every broken
    // budget together so one CI run surfaces the full damage.
    if gate_failures.is_empty() {
        println!("# all acceptance gates passed");
    } else {
        eprintln!("# {} acceptance gate(s) FAILED:", gate_failures.len());
        for failure in &gate_failures {
            eprintln!("#   FAIL {failure}");
        }
        if check_mode {
            std::process::exit(1);
        }
    }

    if check_mode {
        println!("# --check: JSON not written");
        return;
    }
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_kernels.json");
    std::fs::write(&path, json).expect("write BENCH_kernels.json");
    println!("# wrote {}", path.display());
}
