//! `msplit-worker` — one rank of a distributed multisplitting solve.
//!
//! Spawned by [`multisplitting::core::Launcher`] (or by hand) with a job
//! directory and a rank:
//!
//! ```text
//! msplit-worker --job /tmp/msplit-job-1234-0 --rank 2
//! ```
//!
//! The worker loads the shipped system (`system.mtx` + `rhs.vec`), rebuilds
//! the same deterministic band decomposition every other rank builds,
//! extracts its own blocks, joins the TCP mesh described by `job.cfg` (the
//! handshake pins the matrix fingerprint) and runs the per-rank distributed
//! driver.  Its extended-range solution slice and run metadata land back in
//! the job directory for the launcher to gather.

use multisplitting::comm::tcp::{BoundTcpTransport, TcpOptions};
use multisplitting::core::distributed::{receive_sources, run_rank, CheckpointConfig, RankOptions};
use multisplitting::core::launcher::{self, JobSpec, RankMeta};
use multisplitting::core::{CoreError, Decomposition, MultisplittingSolver};
use multisplitting::sparse::io as sparse_io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    job: PathBuf,
    rank: usize,
    resume_at: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut job = None;
    let mut rank = None;
    let mut resume_at = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--job" => job = Some(PathBuf::from(it.next().ok_or("--job needs a path")?)),
            "--rank" => {
                rank = Some(
                    it.next()
                        .ok_or("--rank needs a number")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad rank: {e}"))?,
                )
            }
            "--resume-at" => {
                resume_at = Some(
                    it.next()
                        .ok_or("--resume-at needs an iteration")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad resume iteration: {e}"))?,
                )
            }
            "--help" | "-h" => {
                println!(
                    "msplit-worker: one rank of a distributed multisplitting solve\n\
                     usage: msplit-worker --job <job-dir> --rank <rank> [--resume-at <iter>]\n\
                     The job directory must contain job.cfg, system.mtx and rhs.vec\n\
                     (written by the Launcher; see the `distributed_loopback` example).\n\
                     With --resume-at the worker restores its snapshot of that outer\n\
                     iteration (ckpt_r<rank>_i<iter>.bin in the job directory) before\n\
                     iterating — see docs/fault-tolerance.md."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        job: job.ok_or("missing --job <dir>")?,
        rank: rank.ok_or("missing --rank <rank>")?,
        resume_at,
    })
}

fn run(job_dir: &Path, rank: usize, resume_at: Option<u64>) -> Result<(), CoreError> {
    let spec = JobSpec::load(job_dir)?;
    let world = spec.world_size();
    if rank >= world {
        return Err(CoreError::Distributed(format!(
            "rank {rank} out of range for a {world}-rank job"
        )));
    }
    if spec.config.parts != world {
        return Err(CoreError::Distributed(format!(
            "job.cfg declares {} parts but {} addresses",
            spec.config.parts, world
        )));
    }

    // Load and verify the shipped system: the fingerprint guards against a
    // torn or stale matrix file before any socket opens.
    let a = sparse_io::read_matrix_market(job_dir.join(launcher::job_files::MATRIX))
        .map_err(CoreError::Sparse)?;
    let b = sparse_io::read_vector_file(job_dir.join(launcher::job_files::RHS))
        .map_err(CoreError::Sparse)?;
    if a.fingerprint() != spec.fingerprint {
        return Err(CoreError::Distributed(format!(
            "matrix fingerprint {:#x} does not match job fingerprint {:#x}",
            a.fingerprint(),
            spec.fingerprint
        )));
    }

    // Rebuild the deterministic decomposition every rank agrees on, keep
    // only this rank's blocks.
    let solver = MultisplittingSolver::new(spec.config.clone());
    let decomposition: Decomposition = solver.decompose(&a, &b)?;
    let send_targets = decomposition.send_targets();
    let sources = receive_sources(&send_targets);
    let partition = decomposition.partition().clone();
    let (_, mut blocks) = decomposition.into_blocks();
    let blk = blocks.swap_remove(rank);
    drop(blocks);

    // Join the mesh: bind this rank's listener, then full-mesh connect with
    // the fingerprint-pinned handshake.
    let bound = BoundTcpTransport::bind(rank, &spec.addrs[rank]).map_err(CoreError::Comm)?;
    let transport = bound
        .connect(
            &spec.addrs,
            TcpOptions {
                fingerprint: spec.fingerprint,
                connect_timeout: spec.peer_timeout,
                delay: spec.link_delay()?,
                ..Default::default()
            },
        )
        .map_err(CoreError::Comm)?;
    println!(
        "worker rank {rank}/{world}: joined mesh, band rows {:?}, {} send targets",
        partition.extended_range(rank),
        send_targets[rank].len()
    );

    arm_die_at_drill(job_dir, rank);

    // Fault-tolerance wiring from the job spec: periodic snapshots (also
    // needed to resume), an optional global warm start shipped as x0.vec,
    // and the configured failure policy.
    let checkpoint = (spec.checkpoint_every > 0 || resume_at.is_some()).then(|| CheckpointConfig {
        dir: job_dir.to_path_buf(),
        every: spec.checkpoint_every,
        fingerprint: spec.fingerprint,
    });
    let x0_path = job_dir.join(launcher::job_files::INITIAL_GUESS);
    let initial_guess = if x0_path.exists() {
        Some(sparse_io::read_vector_file(&x0_path).map_err(CoreError::Sparse)?)
    } else {
        None
    };
    if let Some(iteration) = resume_at {
        println!("worker rank {rank}/{world}: resuming from snapshot of iteration {iteration}");
    }

    let outcome = run_rank(
        &partition,
        &blk,
        &send_targets[rank],
        &sources[rank],
        &spec.config,
        transport,
        &RankOptions {
            peer_timeout: spec.peer_timeout,
            failure: spec.failure,
            checkpoint,
            resume_at,
            initial_guess,
            ..Default::default()
        },
    )?;

    launcher::store_rank_result(
        job_dir,
        rank,
        &RankMeta {
            iterations: outcome.iterations,
            converged: outcome.converged,
            last_increment: outcome.last_increment,
            wall_seconds: outcome.wall_seconds,
            reshape: outcome.reshape,
        },
        &outcome.x_local,
    )?;
    println!(
        "worker rank {rank}/{world}: {} after {} iterations (last increment {:.3e}, {:.3}s)",
        if outcome.converged {
            "converged"
        } else if let Some(dead) = outcome.reshape {
            println!("worker rank {rank}/{world}: requesting reshape, rank {dead} died");
            "stopped for reshape"
        } else {
            "did NOT converge"
        },
        outcome.iterations,
        outcome.last_increment,
        outcome.wall_seconds
    );
    Ok(())
}

/// Fault-injection drill: `MSPLIT_DIE_AT=<rank>:<iteration>` makes that rank
/// abort (as if its machine died) once its own snapshots reach the given
/// outer iteration.  The watchdog reads the published `ckpt_r<rank>_i*.bin`
/// files, so the drill needs `checkpoint_every > 0`; the abort leaves no
/// result files behind — exactly what a SIGKILL mid-solve looks like to the
/// launcher and the surviving ranks.  See docs/fault-tolerance.md.
fn arm_die_at_drill(job_dir: &Path, rank: usize) {
    let Ok(spec) = std::env::var("MSPLIT_DIE_AT") else {
        return;
    };
    let Some((die_rank, die_iter)) = spec.split_once(':') else {
        eprintln!("worker rank {rank}: ignoring malformed MSPLIT_DIE_AT '{spec}'");
        return;
    };
    let (Ok(die_rank), Ok(die_iter)) = (die_rank.parse::<usize>(), die_iter.parse::<u64>()) else {
        eprintln!("worker rank {rank}: ignoring malformed MSPLIT_DIE_AT '{spec}'");
        return;
    };
    if die_rank != rank {
        return;
    }
    let dir = job_dir.to_path_buf();
    std::thread::spawn(move || loop {
        if let Ok(by_rank) = multisplitting::core::checkpoint::scan(&dir) {
            if let Some(&latest) = by_rank.get(&rank).and_then(|iters| iters.last()) {
                if latest >= die_iter {
                    eprintln!(
                        "worker rank {rank}: MSPLIT_DIE_AT drill aborting at snapshot {latest}"
                    );
                    std::process::abort();
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("msplit-worker: {msg} (try --help)");
            return ExitCode::from(2);
        }
    };
    match run(&args.job, args.rank, args.resume_at) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("msplit-worker rank {}: {e}", args.rank);
            ExitCode::FAILURE
        }
    }
}
