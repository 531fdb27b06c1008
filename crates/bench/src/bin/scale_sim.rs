//! The `scale-sim` CI lane: 512 simulated ranks through both convergence
//! protocols, asserted in-process.
//!
//! Runs the in-process scale simulator (`msplit_core::scale::simulate_ranks`)
//! at 512 ranks for three rows — lockstep votes at the flat fan-in
//! (`P − 1`: the root collects every vote), lockstep votes at the production
//! fan-in (`VOTE_TREE_ARITY`, what every driver runs), and the free-running
//! confirmation waves — and asserts:
//!
//! 1. both lockstep rows converge, and their solutions are **bitwise
//!    identical**;
//! 2. at the production fan-in the coordinator handles ≥ 4× fewer control
//!    messages per decision than at the flat one (and its inbox never backs
//!    up deeper);
//! 3. the confirmation waves converge;
//! 4. every converged solution matches the known model-problem solution.
//!
//! On success the last line printed is `SCALE_SIM_OK` (the CI lane greps for
//! it); each run's summary is appended to `SCALE_SIM_summary.txt` next to
//! the workspace root so a failing lane can upload what the simulator saw.
//!
//! Usage: `scale-sim [ranks]` (default 512).

use msplit_core::runtime::VOTE_TREE_ARITY;
use msplit_core::scale::{simulate_ranks, Protocol, ScaleConfig, ScaleReport};
use std::io::Write;

const TOLERANCE: f64 = 1e-8;
/// Exact-solution error ceiling: the model problem is solved to `TOLERANCE`
/// on the increment, which leaves the iterate this close to `x[i] = i % 7`.
const MAX_SOLUTION_ERR: f64 = 1e-6;
/// The vote tree's coordinator-load claim, also gated by `perf-report
/// --check` at P = 1024.
const MIN_TREE_COORDINATOR_REDUCTION: f64 = 4.0;

fn summary_path() -> std::path::PathBuf {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join("SCALE_SIM_summary.txt")
}

fn run(label: &str, ranks: usize, protocol: Protocol, out: &mut impl Write) -> ScaleReport {
    let report = simulate_ranks(&ScaleConfig {
        ranks,
        protocol,
        tolerance: TOLERANCE,
        record_events: protocol == Protocol::flat(ranks),
        ..Default::default()
    })
    .unwrap_or_else(|e| panic!("{label} simulation failed: {e}"));
    println!(
        "{label:>6}: converged={} iterations={} sweeps={} coordinator msgs/decision={:.2} inbox peak={}",
        report.stop.converged(),
        report.stop.iterations,
        report.sweeps,
        report.coordinator_msgs_per_decision(),
        report.coordinator_inbox_peak
    );
    let _ = writeln!(out, "{}", report.event_summary());
    report
}

fn max_err(x: &[f64]) -> f64 {
    x.iter()
        .enumerate()
        .fold(0.0f64, |m, (i, &v)| m.max((v - (i % 7) as f64).abs()))
}

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("ranks must be an integer"))
        .unwrap_or(512);
    println!("scale-sim: {ranks} simulated ranks per protocol");
    let mut summary = std::fs::File::create(summary_path()).expect("create summary file");

    let flat = run("flat", ranks, Protocol::flat(ranks), &mut summary);
    let tree = run(
        "tree",
        ranks,
        Protocol::Tree {
            arity: VOTE_TREE_ARITY,
        },
        &mut summary,
    );
    let waves = run(
        "waves",
        ranks,
        Protocol::Waves { confirmations: 3 },
        &mut summary,
    );

    // (1) lockstep: both fan-ins converge, bitwise identical.
    assert!(flat.stop.converged(), "flat lockstep did not converge");
    assert!(tree.stop.converged(), "tree lockstep did not converge");
    assert_eq!(
        flat.stop.iterations, tree.stop.iterations,
        "the fan-in changed the lockstep iteration count"
    );
    assert_eq!(
        flat.x, tree.x,
        "the fan-in must leave the lockstep iterates bitwise unchanged"
    );

    // (2) coordinator load: the reduction the tree exists for.
    let reduction = flat.coordinator_msgs_per_decision() / tree.coordinator_msgs_per_decision();
    assert!(
        reduction >= MIN_TREE_COORDINATOR_REDUCTION,
        "tree coordinator reduction {reduction:.1}x < {MIN_TREE_COORDINATOR_REDUCTION}x \
         (flat {:.1}, tree {:.1})",
        flat.coordinator_msgs_per_decision(),
        tree.coordinator_msgs_per_decision()
    );
    assert!(
        tree.coordinator_inbox_peak <= flat.coordinator_inbox_peak,
        "tree inbox peak {} exceeds flat {}",
        tree.coordinator_inbox_peak,
        flat.coordinator_inbox_peak
    );

    // (3)+(4) free-running: converges; every row lands on the known solution.
    assert!(waves.stop.converged(), "waves did not converge");
    assert!(
        max_err(&flat.x) < MAX_SOLUTION_ERR,
        "flat err {}",
        max_err(&flat.x)
    );
    assert!(
        max_err(&waves.x) < MAX_SOLUTION_ERR,
        "waves err {}",
        max_err(&waves.x)
    );

    println!(
        "tree coordinator reduction at P={ranks}: {reduction:.1}x \
         (flat {:.1} msgs/decision, tree {:.1})",
        flat.coordinator_msgs_per_decision(),
        tree.coordinator_msgs_per_decision()
    );
    println!("SCALE_SIM_OK");
}
