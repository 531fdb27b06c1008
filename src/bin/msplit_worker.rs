//! `msplit-worker` — one rank of a distributed multisplitting solve.
//!
//! Spawned by [`multisplitting::core::Launcher`] (or by hand) with a job
//! directory and a rank:
//!
//! ```text
//! msplit-worker --job /tmp/msplit-job-1234-0 --rank 2
//! ```
//!
//! The worker reads the job file (`job.bin`: configuration, fingerprint,
//! band partition, timeouts, failure policy, optional initial guess) and
//! only its own band (`band_<rank>.bin`: `ASub`, `DepLeft`, `DepRight`,
//! `BSub` and its halo peers), refuses a band that does not fit the job,
//! joins the TCP mesh at the addresses listed one per line in `addrs` (the
//! handshake pins the matrix fingerprint) and runs the per-rank distributed
//! driver.  Its stop record and extended-range solution slice land back in
//! the job directory as `result_<rank>.bin` for the launcher to gather.

use multisplitting::comm::tcp::{BoundTcpTransport, TcpOptions};
use multisplitting::core::distributed::{run_rank, CheckpointConfig, RankOptions};
use multisplitting::core::launcher::{self, JobSpec, RankBand, RankMeta};
use multisplitting::core::{CoreError, StopReason};
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
                     The job directory must contain job.bin, addrs and band_<rank>.bin\n\
                     (written by the Launcher; see the `distributed_loopback` example).\n\
                     addrs lists every rank's listen address, one per line: edit it\n\
                     to place ranks on other hosts.\n\
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
    // The job file refuses a non-stationary method; the band file is checked
    // against the job (rank, fingerprint, rows, block shapes) before any
    // socket opens.
    let mut spec = JobSpec::load(job_dir)?;
    let world = spec.world_size();
    let band = RankBand::load(job_dir, &spec, rank)?;
    let addrs = launcher::load_addrs(job_dir, world)?;

    // Join the mesh: bind this rank's listener, then full-mesh connect with
    // the fingerprint-pinned handshake.
    let bound = BoundTcpTransport::bind(rank, &addrs[rank]).map_err(CoreError::Comm)?;
    let transport = bound
        .connect(
            &addrs,
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
        spec.partition.extended_range(rank),
        band.send_targets.len()
    );

    arm_die_at_drill(job_dir, rank);

    // Fault-tolerance wiring from the job spec: periodic snapshots (also
    // needed to resume), the optional global warm start and the configured
    // failure policy.
    let checkpoint = (spec.checkpoint_every > 0 || resume_at.is_some()).then(|| CheckpointConfig {
        dir: job_dir.to_path_buf(),
        every: spec.checkpoint_every,
        fingerprint: spec.fingerprint,
    });
    if let Some(iteration) = resume_at {
        println!("worker rank {rank}/{world}: resuming from snapshot of iteration {iteration}");
    }

    let outcome = run_rank(
        &spec.partition,
        &band.blocks,
        &band.send_targets,
        &band.senders_to_me,
        &spec.config,
        transport,
        &RankOptions {
            peer_timeout: spec.peer_timeout,
            failure: spec.failure,
            checkpoint,
            resume_at,
            initial_guess: spec.initial_guess.take(),
            ..Default::default()
        },
    )?;

    launcher::store_rank_result(
        job_dir,
        rank,
        &RankMeta {
            stop: outcome.stop,
            wall_seconds: outcome.wall_seconds,
        },
        &outcome.x_local,
    )?;
    let verdict = match outcome.stop.reason {
        StopReason::Converged => "converged".to_string(),
        StopReason::BudgetExhausted => "did NOT converge (budget exhausted)".to_string(),
        StopReason::Halted => "did NOT converge (halted by a peer)".to_string(),
        StopReason::Reshape(dead) => format!("stopped for reshape, rank {dead} died"),
    };
    println!(
        "worker rank {rank}/{world}: {verdict} after {} iterations (norm {:.3e}, {:.3}s)",
        outcome.stop.iterations, outcome.stop.norm, outcome.wall_seconds
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
