//! End-to-end integration tests: every generator family × weighting scheme ×
//! execution mode solved through the public facade API.

use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use multisplitting::sparse::CsrMatrix;

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

fn workloads() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        (
            "diag-dominant",
            generators::diag_dominant(&DiagDominantConfig {
                n: 600,
                seed: 101,
                ..Default::default()
            }),
        ),
        ("cage-like", generators::cage_like(600, 202)),
        ("poisson-2d", generators::poisson_2d(24)),
        (
            "rho-targeted",
            generators::spectral_radius_targeted(600, 0.9),
        ),
    ]
}

#[test]
fn every_workload_solves_synchronously_with_every_scheme() {
    for (name, a) in workloads() {
        let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 13) as f64) - 6.0);
        for scheme in WeightingScheme::all() {
            let outcome = MultisplittingSolver::builder()
                .parts(4)
                .overlap(4)
                .weighting(scheme)
                .solver_kind(SolverKind::SparseLu)
                .tolerance(1e-9)
                .max_iterations(50_000)
                .mode(ExecutionMode::Synchronous)
                .build()
                .solve(&a, &b)
                .unwrap_or_else(|e| panic!("{name}/{scheme:?}: {e}"));
            assert!(
                outcome.stop.converged(),
                "{name}/{scheme:?} did not converge"
            );
            assert!(
                max_err(&outcome.x, &x_true) < 1e-6,
                "{name}/{scheme:?}: solution inaccurate"
            );
        }
    }
}

#[test]
fn every_workload_solves_asynchronously() {
    for (name, a) in workloads() {
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.05).cos());
        let outcome = MultisplittingSolver::builder()
            .parts(4)
            .solver_kind(SolverKind::SparseLu)
            .tolerance(1e-9)
            .max_iterations(200_000)
            .mode(ExecutionMode::Asynchronous)
            .build()
            .solve(&a, &b)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            outcome.stop.converged(),
            "{name} did not converge asynchronously"
        );
        assert!(
            max_err(&outcome.x, &x_true) < 1e-5,
            "{name}: asynchronous solution inaccurate"
        );
    }
}

#[test]
fn every_direct_solver_kind_works_inside_the_multisplitting_wrapper() {
    let a = generators::tridiagonal(800, 5.0, -1.0);
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 6) as f64);
    for kind in SolverKind::all() {
        let outcome = MultisplittingSolver::builder()
            .parts(5)
            .solver_kind(kind)
            .tolerance(1e-10)
            .build()
            .solve(&a, &b)
            .unwrap();
        assert!(outcome.stop.converged(), "{kind:?}");
        assert!(max_err(&outcome.x, &x_true) < 1e-7, "{kind:?}");
    }
}

#[test]
fn processor_count_sweep_preserves_the_solution() {
    let a = generators::cage_like(900, 77);
    let (x_true, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 4) as f64);
    for parts in [1usize, 2, 3, 5, 8, 12] {
        let outcome = MultisplittingSolver::builder()
            .parts(parts)
            .tolerance(1e-10)
            .build()
            .solve(&a, &b)
            .unwrap();
        assert!(outcome.stop.converged(), "{parts} parts");
        assert!(max_err(&outcome.x, &x_true) < 1e-6, "{parts} parts");
        assert_eq!(outcome.part_reports.len(), parts);
    }
}

#[test]
fn multisplitting_agrees_with_the_direct_baselines() {
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 500,
        seed: 9,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 8) as f64);

    let msplit = MultisplittingSolver::builder()
        .parts(5)
        .tolerance(1e-10)
        .build()
        .solve(&a, &b)
        .unwrap();

    let seq = SequentialDirectBaseline::new(multisplitting::grid::cluster::single_machine(2048))
        .run(&a, &b, ProblemScaling::identity(500))
        .unwrap();
    let dist = DistributedDirectBaseline::new(cluster1().take_machines(4).unwrap(), 4)
        .unwrap()
        .run(&a, &b, ProblemScaling::identity(500))
        .unwrap();

    let seq_x = seq.solution.unwrap();
    let dist_x = dist.solution.unwrap();
    assert!(max_err(&msplit.x, &seq_x) < 1e-6);
    assert!(max_err(&seq_x, &dist_x) < 1e-10);
}

#[test]
fn theory_predictions_match_observed_convergence() {
    // A contractive decomposition must converge, and the predicted iteration
    // count from the spectral radius must be within a small factor of the
    // measured one.
    let a = generators::spectral_radius_targeted(240, 0.9);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
    let decomposition = Decomposition::uniform(&a, &b, 3, 0).unwrap();
    let analysis = SplittingAnalysis::analyze(&a, decomposition.partition(), 400).unwrap();
    assert!(analysis.synchronous_convergent());

    let outcome = MultisplittingSolver::builder()
        .parts(3)
        .tolerance(1e-8)
        .build()
        .solve(&a, &b)
        .unwrap();
    assert!(outcome.stop.converged());
    let predicted = analysis.predicted_iterations(1e-8).unwrap();
    let measured = outcome.stop.iterations;
    assert!(
        measured as f64 <= 4.0 * predicted as f64 + 10.0,
        "measured {measured} far above prediction {predicted}"
    );
    assert!(
        (predicted as f64) <= 10.0 * measured as f64 + 10.0,
        "prediction {predicted} far above measured {measured}"
    );
}

#[test]
fn async_mode_survives_modelled_wan_transport() {
    use multisplitting::comm::{DelayedTransport, InProcTransport};
    let grid = cluster3();
    let parts = grid.num_machines();
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 400,
        seed: 33,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
    let transport = DelayedTransport::new(InProcTransport::new(parts), grid, 1e-3);
    let outcome = MultisplittingSolver::builder()
        .parts(parts)
        .tolerance(1e-9)
        .mode(ExecutionMode::Asynchronous)
        .max_iterations(200_000)
        .build()
        .solve_with_transport(&a, &b, transport)
        .unwrap();
    assert!(outcome.stop.converged());
    assert!(max_err(&outcome.x, &x_true) < 1e-5);
}
