//! Distant-cluster scenario: run the multisplitting solver over a transport
//! that injects the modelled delays of the paper's two-site cluster3, then
//! replay the measured work on the grid cost model to estimate what the run
//! would cost on the real testbed — with and without perturbing background
//! traffic (the scenario of Tables 3 and 4).
//!
//! Run with:
//! ```text
//! cargo run --release --example distant_clusters
//! ```

use multisplitting::comm::{DelayedTransport, InProcTransport};
use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};

fn main() {
    let grid = cluster3();
    let parts = grid.num_machines();

    let n = 5_000;
    let a = generators::diag_dominant(&DiagDominantConfig {
        n,
        offdiag_per_row: 5,
        half_bandwidth: 30,
        dominance_margin: 0.15,
        seed: 7,
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 9) as f64);

    // Heterogeneity-aware band sizes: faster machines get more rows.
    let solver = MultisplittingSolver::builder()
        .parts(parts)
        .relative_speeds(grid.relative_speeds())
        .solver_kind(SolverKind::SparseLu)
        .tolerance(1e-8)
        .mode(ExecutionMode::Asynchronous)
        .build();

    // Execute over a transport that injects (scaled) cluster3 link delays so
    // the asynchronous interleavings of a real WAN run are exercised.
    let transport = DelayedTransport::new(InProcTransport::new(parts), grid.clone(), 1e-3);
    let outcome = solver
        .solve_with_transport(&a, &b, transport)
        .expect("solve failed");
    let per_part: Vec<u64> = outcome.part_reports.iter().map(|r| r.iterations).collect();
    println!(
        "asynchronous run over modelled WAN: converged = {}, iterations per part = {:?}, residual = {:.2e}",
        outcome.stop.converged(),
        per_part,
        outcome.residual(&a, &b)
    );

    // Replay the measured work on cluster3, quiet and with 10 perturbing
    // background flows on the inter-site link.
    let decomposition = solver.decompose(&a, &b).unwrap();
    let targets = decomposition.send_targets();
    let scaling = ProblemScaling {
        run_n: n,
        target_n: 500_000,
    };
    for flows in [0usize, 1, 5, 10] {
        let model = CostModel::new(grid.clone().with_perturbing_flows(flows));
        let sync = replay_sync(
            &outcome.part_reports,
            &targets,
            outcome.stop.iterations,
            &model,
            scaling,
        )
        .unwrap();
        let asynchronous = replay_async(
            &outcome.part_reports,
            &targets,
            outcome.stop.iterations,
            &model,
            scaling,
        )
        .unwrap();
        println!(
            "perturbing flows = {flows:>2}: modelled sync = {:>8.2}s, modelled async = {:>8.2}s",
            sync.total_seconds, asynchronous.total_seconds
        );
    }
}
