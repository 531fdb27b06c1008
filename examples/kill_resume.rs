//! Kill-and-resume drill over real worker processes.
//!
//! A four-process synchronous job writes a snapshot every five outer
//! iterations; the `MSPLIT_DIE_AT` fault-injection hook makes rank 1 abort
//! (a stand-in for `kill -9` or a machine death) once its snapshots pass
//! iteration 10.  The surviving ranks detect the death by heartbeat and fail
//! the job promptly; the drill then *resumes* the kept job directory from
//! the highest snapshot every rank shares and compares the result against an
//! uninterrupted run of the same job — lockstep iterates are deterministic,
//! so the two solutions must match **bitwise**.
//!
//! CI's `distributed-smoke` job runs this drill under a hard timeout and
//! greps for the `KILL_RESUME_OK` line printed on success.  The ops story
//! behind it is documented in `docs/fault-tolerance.md`.
//!
//! ```text
//! cargo build --release --bin msplit-worker
//! cargo run --release --example kill_resume
//! ```

use multisplitting::core::launcher::{Launcher, LauncherConfig};
use multisplitting::core::FailurePolicy;
use multisplitting::prelude::*;
use multisplitting::sparse::generators;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    const WORKERS: usize = 4;

    let a = generators::spectral_radius_targeted(300, 0.9);
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 13) as f64) - 6.0);
    let config = MultisplittingConfig {
        parts: WORKERS,
        overlap: 0,
        weighting: WeightingScheme::OwnerTakes,
        solver_kind: SolverKind::SparseLu,
        tolerance: 1e-10,
        max_iterations: 30_000,
        mode: ExecutionMode::Synchronous,
        async_confirmations: 3,
        relative_speeds: Vec::new(),
        method: Method::Stationary,
    };

    let root =
        std::env::temp_dir().join(format!("msplit-kill-resume-drill-{}", std::process::id()));
    if std::fs::create_dir_all(&root).is_err() {
        eprintln!("FAIL: could not create {}", root.display());
        return ExitCode::FAILURE;
    }

    // Phase 1: the doomed run.  Rank 1 aborts once its snapshots reach
    // iteration 10; HaltOnDeath makes the survivors fail the job promptly
    // instead of hanging, and keep_job_dir preserves the snapshots.
    let doomed = Launcher::new(LauncherConfig {
        timeout: Duration::from_secs(120),
        job_root: Some(root.clone()),
        keep_job_dir: true,
        checkpoint_every: 5,
        failure: FailurePolicy::HaltOnDeath {
            heartbeat: Duration::from_millis(200),
        },
        worker_env: vec![("MSPLIT_DIE_AT".into(), "1:10".into())],
        ..Default::default()
    });
    match doomed.solve(&a, &b, &config) {
        Err(e) => println!("doomed run failed as intended: {e}"),
        Ok(_) => {
            eprintln!("FAIL: the armed worker survived to convergence");
            return ExitCode::FAILURE;
        }
    }

    let Some(job_dir) = std::fs::read_dir(&root).ok().and_then(|entries| {
        entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.is_dir())
    }) else {
        eprintln!("FAIL: no job directory was kept under {}", root.display());
        return ExitCode::FAILURE;
    };

    // Phase 2: resume from the highest common snapshot and run to
    // convergence, then an uninterrupted baseline of the identical job.
    let clean = Launcher::new(LauncherConfig {
        timeout: Duration::from_secs(120),
        ..Default::default()
    });
    let resumed = match clean.resume(&job_dir) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("FAIL: resume: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match clean.solve(&a, &b, &config) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("FAIL: baseline solve: {e}");
            return ExitCode::FAILURE;
        }
    };
    std::fs::remove_dir_all(&root).ok();

    let residual = resumed.residual(&a, &b);
    println!(
        "resumed:  converged={} iterations/rank={:?} residual={residual:.3e}",
        resumed.stop.converged(),
        resumed.iterations_per_rank
    );
    println!(
        "baseline: converged={} iterations/rank={:?} residual={:.3e}",
        baseline.stop.converged(),
        baseline.iterations_per_rank,
        baseline.residual(&a, &b)
    );

    if !resumed.stop.converged() || !baseline.stop.converged() {
        eprintln!("FAIL: a run did not converge");
        return ExitCode::FAILURE;
    }
    if resumed.x != baseline.x || resumed.iterations() != baseline.iterations() {
        eprintln!("FAIL: resumed run is not bitwise identical to the uninterrupted run");
        return ExitCode::FAILURE;
    }
    println!("KILL_RESUME_OK residual={residual:.3e} (bitwise match after kill at iteration 10)");
    ExitCode::SUCCESS
}
