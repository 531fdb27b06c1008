//! Per-layer measurements of the traced run.  Every layer is measured from
//! outside, by timing calls into public functions of the crates under a span;
//! the outer loop is re-enacted in one thread so that what the layers do not
//! explain — waits, wake-ups, votes — is left as a named remainder.

use crate::metrics::Values;
use crate::solve::{Path, Spec, State, Timed};
use crate::stats;
use crate::trace::Recorder;
use crate::{host, inputs};
use msplit_comm::tcp::{LoopbackMesh, TcpOptions};
use msplit_comm::{wire, InProcTransport, Message, Transport};
use msplit_core::launcher::load_rank_result;
use msplit_core::solver::{Method, MultisplittingConfig};
use msplit_core::{
    Decomposition, IterationWorkspace, Launcher, LauncherConfig, Preconditioner, PreparedSystem,
    RankEngine, SweepBuffers, SweepPreconditioner, WeightingScheme,
};
use msplit_dense::{BandLu, BandMatrix};
use msplit_direct::{Factorization, SolveScratch, SolverKind};
use msplit_sparse::ordering::bandwidth;
use msplit_sparse::{BandPartition, CsrMatrix, LocalBlocks};
use std::sync::Arc;

/// Median duration in seconds of `f` under spans called `name`: one untimed
/// call, then one timed call and as many more as fit in 0.2 s, at most eight.
pub fn median_seconds(
    rec: &mut Recorder,
    name: &'static str,
    count: u64,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let ((), first) = rec.time(name, count, &mut f);
    let more = ((0.2 / first.max(1e-9)) as usize).min(8);
    let mut seconds = vec![first];
    seconds.extend((0..more).map(|_| rec.time(name, count, &mut f).1));
    stats::median(&seconds)
}

/// Median duration in microseconds over all closed spans called `name`.
pub fn span_median_us(rec: &Recorder, name: &str) -> f64 {
    let us: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
        .collect();
    if us.is_empty() {
        0.0
    } else {
        stats::median(&us)
    }
}

/// A system decomposed and factorized by the harness itself, band by band.
pub struct Kernels {
    partition: BandPartition,
    blocks: Vec<LocalBlocks>,
    send_targets: Vec<Vec<usize>>,
    factors: Vec<Arc<dyn Factorization>>,
    prepared: PreparedSystem,
}

/// The kernels under every workload: `msplit-sparse` products and
/// fingerprint, decomposition, per-band factorization and triangular solve
/// (`msplit-direct`, and `msplit-dense` directly under `BandLu`), `prepare`.
pub fn kernel_layers(
    a: &CsrMatrix,
    b: &[f64],
    config: &MultisplittingConfig,
    rec: &mut Recorder,
    values: &mut Values,
) -> Result<Kernels, String> {
    let mut y = vec![0.0; a.rows()];
    let spmv = median_seconds(rec, "sparse.spmv", a.nnz() as u64, || {
        a.spmv_into(b, &mut y).expect("square system");
    });
    values.insert("sparse.spmv_us", spmv * 1e6);
    // Computed, not measured: values and column indices once, row pointers,
    // x read and y written once each.
    let spmv_bytes = 16 * a.nnz() + 8 * (a.rows() + 1) + 16 * a.rows();
    values.insert("sparse.spmv_bytes", spmv_bytes as f64);
    let fingerprint = median_seconds(rec, "sparse.fingerprint", a.nnz() as u64, || {
        std::hint::black_box(a.fingerprint());
    });
    values.insert("sparse.fingerprint_us", fingerprint * 1e6);

    let decompose = || {
        let d = Decomposition::uniform(a, b, config.parts, 0)?;
        let send_targets = d.send_targets();
        let (partition, blocks) = d.into_blocks();
        Ok::<_, msplit_core::CoreError>((partition, blocks, send_targets))
    };
    let (partition, blocks, send_targets) = decompose().map_err(|e| e.to_string())?;
    let seconds = median_seconds(rec, "core.decompose", a.nnz() as u64, || {
        std::hint::black_box(decompose().is_ok());
    });
    values.insert("core.decompose_ms", seconds * 1e3);

    let solver = config.solver_kind.build();
    let mut factors: Vec<Arc<dyn Factorization>> = Vec::new();
    let mut factor_ms = Vec::new();
    let (mut trsv_us, mut band_factor_ms, mut band_solve_us) = (0.0, 0.0, 0.0);
    let mut scratch = SolveScratch::new();
    for blk in &blocks {
        let factor = solver.factorize(&blk.a_sub).map_err(|e| e.to_string())?;
        let seconds = median_seconds(rec, "direct.factorize", blk.a_sub.nnz() as u64, || {
            std::hint::black_box(solver.factorize(&blk.a_sub).is_ok());
        });
        factor_ms.push(seconds * 1e3);
        let mut x = blk.b_sub.clone();
        let nnz = factor.stats().factor_nnz() as u64;
        trsv_us += 1e6
            * median_seconds(rec, "direct.trsv", nnz, || {
                factor.solve_into(&mut x, &mut scratch).expect("trsv");
            });
        if config.solver_kind == SolverKind::BandLu {
            let bw = bandwidth(&blk.a_sub);
            let mut band = BandMatrix::zeros(blk.size, bw, bw);
            for (i, j, v) in blk.a_sub.iter() {
                band.set(i, j, v);
            }
            let lu = BandLu::factorize(&band).map_err(|e| e.to_string())?;
            band_factor_ms += 1e3
                * median_seconds(rec, "dense.band_factor", blk.size as u64, || {
                    std::hint::black_box(BandLu::factorize(&band).is_ok());
                });
            band_solve_us += 1e6
                * median_seconds(rec, "dense.band_solve", blk.size as u64, || {
                    lu.solve_into(&mut x).expect("band solve");
                });
        }
        factors.push(Arc::from(factor));
    }
    values.insert("direct.factorize_ms_sum", factor_ms.iter().sum());
    values.insert(
        "direct.factorize_ms_max",
        factor_ms.iter().copied().fold(0.0, f64::max),
    );
    let factor_nnz: usize = factors.iter().map(|f| f.stats().factor_nnz()).sum();
    let factor_flops: u64 = factors.iter().map(|f| f.stats().flops).sum();
    values.insert("direct.factor_nnz", factor_nnz as f64);
    values.insert("direct.factor_flops", factor_flops as f64);
    values.insert("direct.trsv_us", trsv_us);
    values.insert("dense.band_factor_ms", band_factor_ms);
    values.insert("dense.band_solve_us", band_solve_us);

    let prepare = || PreparedSystem::prepare(config.clone(), a);
    let prepared = prepare().map_err(|e| e.to_string())?;
    let seconds = median_seconds(rec, "core.prepare", a.nnz() as u64, || {
        std::hint::black_box(prepare().is_ok());
    });
    values.insert("core.prepare_ms", seconds * 1e3);
    values.insert("core.prepared_bytes", prepared.memory_bytes() as f64);
    Ok(Kernels {
        partition,
        blocks,
        send_targets,
        factors,
        prepared,
    })
}

/// Median microseconds per round trip of `msg` between ranks 0 and 1.
fn roundtrip_us(
    rec: &mut Recorder,
    name: &'static str,
    transport: Arc<dyn Transport>,
    msg: &Message,
) -> Result<f64, String> {
    const ROUNDS: usize = 300;
    let echo_side = Arc::clone(&transport);
    // Echoes every slice until told to halt (or the link breaks).
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = echo_side.recv(1) {
            if matches!(msg, Message::Halt) || echo_side.send(1, 0, msg).is_err() {
                return;
            }
        }
    });
    let mut result = Ok(());
    for _ in 0..ROUNDS {
        let (round, _) = rec.time(name, msg.encoded_len() as u64, || {
            transport.send(0, 1, msg.clone())?;
            transport.recv(0)
        });
        if let Err(e) = round {
            result = Err(format!("{name}: {e}"));
            break;
        }
    }
    let _ = transport.send(0, 1, Message::Halt);
    echo.join()
        .map_err(|_| format!("{name}: echo thread panicked"))?;
    result.map(|()| span_median_us(rec, name))
}

/// `msplit-comm` on a halo-sized slice: round trips in process and through a
/// socket, the frame codec, mesh formation, and the traffic of one solve.
fn comm_layers(
    k: &Kernels,
    b: &[f64],
    tcp: bool,
    rec: &mut Recorder,
    values: &mut Values,
) -> Result<u64, String> {
    let parts = k.blocks.len();
    let halo = Message::Solution {
        from: 0,
        iteration: 1,
        offset: 0,
        values: vec![0.5; k.blocks[0].size],
    };
    let inproc = roundtrip_us(rec, "comm.inproc_roundtrip", InProcTransport::new(2), &halo)?;
    values.insert("comm.inproc_roundtrip_us", inproc);
    let pair = LoopbackMesh::new(2, TcpOptions::default()).map_err(|e| e.to_string())?;
    let tcp_us = roundtrip_us(rec, "comm.tcp_roundtrip", pair, &halo)?;
    values.insert("comm.tcp_roundtrip_us", tcp_us);

    let bytes = halo.encoded_len() as u64;
    let frame = wire::encode_frame(0, &halo);
    let encode = median_seconds(rec, "comm.frame_encode", bytes, || {
        std::hint::black_box(wire::encode_frame(0, &halo));
    });
    let decode = median_seconds(rec, "comm.frame_decode", bytes, || {
        std::hint::black_box(wire::decode_frame(&frame).is_ok());
    });
    values.insert("comm.frame_encode_us", encode * 1e6);
    values.insert("comm.frame_decode_us", decode * 1e6);
    let connect = median_seconds(rec, "comm.mesh_connect", parts as u64, || {
        std::hint::black_box(LoopbackMesh::new(parts, TcpOptions::default()).is_ok());
    });
    values.insert("comm.mesh_connect_ms", connect * 1e3);

    // Traffic of one solve over the workload's transport, from `LinkStats`.
    let (outcome, stats) = if tcp {
        let mesh = LoopbackMesh::new(parts, TcpOptions::default()).map_err(|e| e.to_string())?;
        let outcome = k.prepared.solve_with_transport(b, mesh.clone());
        (outcome, mesh.stats())
    } else {
        let transport = InProcTransport::new(parts);
        let outcome = k.prepared.solve_with_transport(b, transport.clone());
        (outcome, transport.stats())
    };
    let iterations = outcome.map_err(|e| e.to_string())?.iterations.max(1);
    values.insert(
        "comm.msgs_per_iter",
        stats.total_messages() as f64 / iterations as f64,
    );
    values.insert(
        "comm.bytes_per_iter",
        stats.total_bytes() as f64 / iterations as f64,
    );
    Ok(iterations)
}

/// A slice on its way between two re-enacted ranks.
enum InFlight {
    Message(Message),
    Frame(Vec<u8>),
}

/// Re-enacts `iterations` outer iterations of the stationary solve in one
/// thread, `solves` times: P engines take turns, each ingesting what its
/// sources sent the iteration before, stepping, and handing its slice to its
/// targets (through the wire codec when `framed`, as on the TCP path).
/// Returns the explained microseconds per iteration: the slowest rank, or
/// all ranks' work shared among the cores when that is longer.
fn reenact_ranks(
    k: &Kernels,
    iterations: u64,
    framed: bool,
    solves: usize,
    rec: &mut Recorder,
) -> Result<f64, String> {
    let parts = k.blocks.len();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get().min(parts));
    let mut explained_us = Vec::new();
    for _ in 0..solves {
        let mut workspaces: Vec<IterationWorkspace> =
            (0..parts).map(|_| IterationWorkspace::new()).collect();
        let mut engines: Vec<RankEngine> = k
            .blocks
            .iter()
            .zip(&k.factors)
            .zip(workspaces.iter_mut())
            .map(|((blk, factor), ws)| {
                let scheme = WeightingScheme::OwnerTakes;
                RankEngine::single(&k.partition, blk, &blk.b_sub, factor.as_ref(), scheme, ws)
            })
            .collect();
        let mut inbox: Vec<Vec<InFlight>> = (0..parts).map(|_| Vec::new()).collect();
        let mut outbox: Vec<Vec<InFlight>> = (0..parts).map(|_| Vec::new()).collect();
        let op = rec.next_op();
        let root = rec.open("reenact.solve", op, None);
        let mut explained = 0.0;
        for _ in 0..iterations {
            let mut rank_seconds = vec![0.0; parts];
            for (rank, engine) in engines.iter_mut().enumerate() {
                let turn = rec.open("reenact.rank_turn", op, Some(root));
                for slice in inbox[rank].drain(..) {
                    let id = rec.open("core.ingest", op, Some(turn));
                    let msg = match slice {
                        InFlight::Message(msg) => msg,
                        InFlight::Frame(frame) => {
                            wire::decode_frame(&frame).map_err(|e| e.to_string())?.1
                        }
                    };
                    engine.ingest(msg);
                    rec.close(id, 1);
                }
                let id = rec.open("core.step", op, Some(turn));
                engine.step().map_err(|e| e.to_string())?;
                rec.close(id, 1);
                let id = rec.open("core.outgoing", op, Some(turn));
                let msg = engine.outgoing();
                rec.close(id, msg.encoded_len() as u64);
                let id = rec.open("core.send", op, Some(turn));
                for &target in &k.send_targets[rank] {
                    outbox[target].push(if framed {
                        InFlight::Frame(wire::encode_frame(rank, &msg))
                    } else {
                        InFlight::Message(msg.clone())
                    });
                }
                rec.close(id, k.send_targets[rank].len() as u64);
                rec.close(turn, 0);
                rank_seconds[rank] = rec.seconds(turn);
            }
            std::mem::swap(&mut inbox, &mut outbox);
            let slowest = rank_seconds.iter().copied().fold(0.0, f64::max);
            let shared = rank_seconds.iter().sum::<f64>() / cores as f64;
            explained += slowest.max(shared);
        }
        rec.close(root, iterations);
        explained_us.push(explained * 1e6 / iterations.max(1) as f64);
    }
    Ok(stats::median(&explained_us))
}

/// Re-enacts the arithmetic of `iterations` FGMRES steps, `solves` times:
/// one sweep-preconditioner application and one product per step.
fn reenact_krylov(
    k: &Kernels,
    a: &CsrMatrix,
    b: &[f64],
    iterations: u64,
    solves: usize,
    rec: &mut Recorder,
) -> Result<(), String> {
    let table = WeightingScheme::OwnerTakes.weight_table(&k.partition);
    let mut buffers = SweepBuffers::new();
    let mut sweep =
        SweepPreconditioner::new(&k.partition, &k.blocks, &k.factors, &table, 1, &mut buffers);
    let (mut z, mut w) = (vec![0.0; b.len()], vec![0.0; b.len()]);
    for _ in 0..solves {
        let op = rec.next_op();
        let root = rec.open("reenact.solve", op, None);
        for _ in 0..iterations {
            let id = rec.open("core.sweep_apply", op, Some(root));
            sweep.apply(b, &mut z).map_err(|e| e.to_string())?;
            rec.close(id, 1);
            let id = rec.open("sparse.spmv_step", op, Some(root));
            a.spmv_into(&z, &mut w).map_err(|e| e.to_string())?;
            rec.close(id, a.nnz() as u64);
        }
        rec.close(root, iterations);
    }
    Ok(())
}

/// `Launcher::solve` wall time minus the slowest rank's own wall time, with
/// the job directories kept so that each rank's report can be read: job
/// files, spawn, load, mesh handshake and gather.  Returns the medians of
/// the remainder and of the slowest rank's time, in seconds.
fn launch_overhead(state: &State, rec: &mut Recorder) -> Result<(f64, f64), String> {
    let job_root = host::out_dir().join(format!("jobs-kept-{}", std::process::id()));
    std::fs::create_dir_all(&job_root).map_err(|e| e.to_string())?;
    let launcher = Launcher::new(LauncherConfig {
        job_root: Some(job_root.clone()),
        keep_job_dir: true,
        ..Default::default()
    });
    let (mut overhead, mut rank_wall) = (Vec::new(), Vec::new());
    for i in 0..3 {
        let (outcome, wall) = rec.time("core.launch", 1, || {
            launcher.solve(&state.a, state.rhs_of(i), &state.config)
        });
        outcome.map_err(|e| e.to_string())?;
        let mut slowest = 0.0f64;
        for entry in std::fs::read_dir(&job_root).map_err(|e| e.to_string())? {
            let dir = entry.map_err(|e| e.to_string())?.path();
            for rank in 0..state.config.parts {
                let (meta, _) = load_rank_result(&dir, rank).map_err(|e| e.to_string())?;
                slowest = slowest.max(meta.wall_seconds);
            }
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        overhead.push(wall - slowest);
        rank_wall.push(slowest);
    }
    std::fs::remove_dir_all(&job_root).map_err(|e| e.to_string())?;
    Ok((stats::median(&overhead), stats::median(&rank_wall)))
}

/// All per-layer values of a solve workload, and the report of how the
/// layers add up to the end-to-end median.
pub fn solve_layers(
    spec: &Spec,
    state: &State,
    p50_ms: f64,
    timed: &Timed,
    rec: &mut Recorder,
    values: &mut Values,
) -> Result<(), String> {
    let (a, b, config) = (&state.a, state.rhs_of(0), &state.config);
    let k = kernel_layers(a, b, config, rec, values)?;
    let iterations = stats::median(&timed.iterations);
    let p50_us = p50_ms * 1e3;
    values.insert("core.outer_iterations", iterations);
    let path = &timed.solve_path;
    let steps = path.sparse_fastpath_hits + path.dense_fallbacks;
    if steps > 0 {
        values.insert(
            "core.fastpath_share",
            path.sparse_fastpath_hits as f64 / steps as f64,
        );
    }
    values.insert("core.reach_share", path.mean_reach_fraction());

    if config.method != Method::Stationary {
        reenact_krylov(&k, a, b, iterations as u64, 5, rec)?;
        let iter_us = p50_us / iterations;
        let sweep = span_median_us(rec, "core.sweep_apply");
        let spmv = span_median_us(rec, "sparse.spmv_step");
        values.insert("core.iter_us", iter_us);
        values.insert("core.sweep_apply_us", sweep);
        values.insert("core.explained_iter_us", sweep + spmv);
        values.insert("core.krylov_overhead_us", iter_us - sweep - spmv);
        values.insert("harness.layer_sum_share", (sweep + spmv) / iter_us);
        println!(
            "budget: solve p50 {p50_us:.1} us = {iterations} iterations x (sweep apply {sweep:.2} \
             + spmv {spmv:.2} + core.krylov_overhead_us {:.2})",
            iter_us - sweep - spmv
        );
        return Ok(());
    }

    let tcp = spec.path == Path::PreparedTcp;
    comm_layers(&k, b, tcp, rec, values)?;
    let sequential = median_seconds(rec, "core.sequential", 1, || {
        let kind = config.solver_kind;
        let scheme = WeightingScheme::OwnerTakes;
        let solved = msplit_core::sequential::solve_sequential(
            a,
            b,
            config.parts,
            0,
            scheme,
            kind,
            config.tolerance,
            config.max_iterations,
        );
        std::hint::black_box(solved.is_ok());
    });
    values.insert("core.sequential_ms", sequential * 1e3);

    let explained = reenact_ranks(&k, iterations as u64, tcp, 5, rec)?;
    for (value, span) in [
        ("core.step_us", "core.step"),
        ("core.ingest_us", "core.ingest"),
        ("core.outgoing_us", "core.outgoing"),
        ("core.send_us", "core.send"),
    ] {
        values.insert(value, span_median_us(rec, span));
    }
    values.insert("core.explained_iter_us", explained);

    if spec.path == Path::Launcher {
        // Each rank's clock covers its factorization and its loop.  The loop
        // is a few per cent of it, less than the factorization differs from
        // process to process, so the ranks' time is not split further here.
        let (launch, rank_wall) = launch_overhead(state, rec)?;
        let factor_ms = values["direct.factorize_ms_max"];
        let explained_ms = factor_ms + explained * iterations * 1e-3;
        values.insert("core.launch_overhead_s", launch);
        values.insert("harness.layer_sum_share", explained_ms / p50_ms);
        println!(
            "budget: solve p50 {:.1} ms ~ core.launch_overhead_s {:.1} ms + slowest rank {:.1} ms; \
             re-enacted, a rank takes {factor_ms:.1} ms to factorize its band + {iterations} \
             iterations x {explained:.1} us",
            p50_ms,
            launch * 1e3,
            rank_wall * 1e3
        );
        return Ok(());
    }

    // The per-solve cost that does not grow with iterations: a solve of the
    // same system capped at one iteration.
    let capped = MultisplittingConfig {
        max_iterations: 1,
        ..inputs::solve_config(config.parts, config.solver_kind, config.method)
    };
    let capped = PreparedSystem::prepare(capped, a).map_err(|e| e.to_string())?;
    let mut fixed_us = Vec::new();
    for _ in 0..20 {
        let mesh = state.mesh()?;
        let ((), seconds) = rec.time("core.solve_fixed", 1, || {
            let solved = match mesh {
                Some(mesh) => capped.solve_with_transport(b, mesh),
                None => capped.solve(b),
            };
            std::hint::black_box(solved.is_ok());
        });
        fixed_us.push(seconds * 1e6);
    }
    let fixed = stats::median(&fixed_us);
    let iter_us = p50_us / iterations;
    values.insert("core.solve_fixed_us", fixed);
    values.insert("core.iter_us", iter_us);
    values.insert("core.driver_overhead_us", iter_us - explained);
    values.insert("harness.layer_sum_share", explained / iter_us);
    println!(
        "budget: solve p50 {p50_us:.1} us = {iterations} iterations x (explained {explained:.2} us \
         + core.driver_overhead_us {:.2} us); one capped iteration alone costs {fixed:.1} us",
        iter_us - explained
    );
    Ok(())
}
