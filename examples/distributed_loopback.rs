//! End-to-end distributed solve over real TCP sockets.
//!
//! Spawns four `msplit-worker` **processes** on 127.0.0.1, each owning one
//! band of a diagonally dominant system.  The workers form a full TCP mesh
//! with a fingerprint-pinned handshake and run the asynchronous
//! multisplitting driver; every per-link send additionally sleeps a scaled
//! fraction of the paper's two-site WAN delay model, so the loopback
//! interface behaves like two LANs joined by a slow Internet link — the
//! environment the asynchronous algorithm is designed to tolerate.
//!
//! The run is compared against the in-process asynchronous driver on the
//! identical system; both must reach the same residual tolerance.  CI's
//! `distributed-smoke` job runs this example under a hard timeout and greps
//! for the `DISTRIBUTED_SMOKE_OK` line printed on success.
//!
//! ```text
//! cargo build --release --bin msplit-worker
//! cargo run --release --example distributed_loopback
//! ```

use multisplitting::core::launcher::{GridSpec, Launcher, LauncherConfig, LinkDelaySpec};
use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    const WORKERS: usize = 4;
    const TOLERANCE: f64 = 1e-10;
    const RESIDUAL_BUDGET: f64 = 1e-6;

    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 600,
        seed: 42,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 11) as f64) - 5.0);

    let config = MultisplittingConfig {
        parts: WORKERS,
        overlap: 0,
        weighting: WeightingScheme::OwnerTakes,
        solver_kind: SolverKind::SparseLu,
        tolerance: TOLERANCE,
        max_iterations: 50_000,
        mode: ExecutionMode::Asynchronous,
        async_confirmations: 3,
        relative_speeds: Vec::new(),
        method: Method::Stationary,
    };

    // Reference: the in-process asynchronous driver on the identical system.
    let solver = MultisplittingSolver::new(config.clone());
    let inproc = match solver.solve(&a, &b) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("in-process reference solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let inproc_residual = inproc.residual(&a, &b);
    println!(
        "in-process async: converged={} iterations={} residual={inproc_residual:.3e}",
        inproc.stop.converged(),
        inproc.stop.iterations
    );

    // Distributed: four worker processes over real sockets, with the
    // two-site WAN delay model realized on every send (2 + 2 machines, so
    // ranks 0-1 and ranks 2-3 sit on different "sites").
    let launcher = Launcher::new(LauncherConfig {
        timeout: Duration::from_secs(180),
        peer_timeout: Duration::from_secs(60),
        delay: Some(LinkDelaySpec {
            grid: GridSpec::TwoSite {
                site_a: WORKERS / 2,
                site_b: WORKERS - WORKERS / 2,
            },
            time_scale: 1e-3,
        }),
        ..Default::default()
    });
    let outcome = match launcher.solve(&a, &b, &config) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("distributed solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let residual = outcome.residual(&a, &b);
    let err_vs_truth = outcome
        .x
        .iter()
        .zip(&x_true)
        .fold(0.0f64, |m, (xi, ti)| m.max((xi - ti).abs()));
    println!(
        "distributed async over TCP ({WORKERS} processes): converged={} iterations/rank={:?} \
         residual={residual:.3e} max|x - x*|={err_vs_truth:.3e} wall={:.2}s",
        outcome.stop.converged(),
        outcome.iterations_per_rank,
        outcome.wall_seconds
    );

    // The acceptance bar: the distributed run must converge and land within
    // the same residual budget as the in-process driver.
    if !outcome.stop.converged() {
        eprintln!("FAIL: distributed run did not converge");
        return ExitCode::FAILURE;
    }
    if residual > RESIDUAL_BUDGET || inproc_residual > RESIDUAL_BUDGET {
        eprintln!(
            "FAIL: residual budget {RESIDUAL_BUDGET:.1e} exceeded \
             (distributed {residual:.3e}, in-process {inproc_residual:.3e})"
        );
        return ExitCode::FAILURE;
    }
    println!("DISTRIBUTED_SMOKE_OK residual={residual:.3e} budget={RESIDUAL_BUDGET:.1e}");
    ExitCode::SUCCESS
}
