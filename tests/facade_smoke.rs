//! Workspace smoke test: fails fast, with a clear message, if a manifest or
//! re-export regression removes anything the integration tests (and the
//! README quickstart) rely on from the facade.
//!
//! Every assertion here is intentionally trivial — if this file stops
//! *compiling*, the facade's public surface changed; if an assertion fails,
//! a re-exported type changed behavior. Either way the failure points at the
//! crate wiring rather than at solver math.

use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};

/// The prelude must expose the solver builder and the solver-kind enum.
#[test]
fn prelude_exposes_solver_builder_and_kinds() {
    // Constructing a builder through the prelude names alone proves the
    // `multisplitting::prelude -> msplit_core/msplit_direct` wiring.
    let solver = MultisplittingSolver::builder()
        .parts(2)
        .solver_kind(SolverKind::SparseLu)
        .tolerance(1e-8)
        .build();
    // The builder must round-trip into a usable solver (not just typecheck).
    let a = generators::tridiagonal(40, 4.0, -1.0);
    let (x_true, b) = generators::rhs_for_solution(&a, |i| i as f64);
    let outcome = solver
        .solve(&a, &b)
        .expect("prelude-built solver failed on a trivially dominant system");
    assert!(
        outcome.stop.converged(),
        "prelude-built solver did not converge on a tridiagonal system"
    );
    let err = outcome
        .x
        .iter()
        .zip(&x_true)
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    assert!(err < 1e-6, "solution error {err:e} exceeds 1e-6");
}

/// Every `SolverKind` the facade advertises must be constructible.
#[test]
fn all_solver_kinds_are_buildable() {
    let kinds = SolverKind::all();
    assert!(
        !kinds.is_empty(),
        "SolverKind::all() is empty — direct-crate re-export broken?"
    );
    for kind in kinds {
        let _solver = kind.build();
    }
}

/// The generator families used by `tests/end_to_end.rs` must stay reachable
/// through `multisplitting::sparse::generators`.
#[test]
fn generator_families_are_reachable_and_sane() {
    let n = 60;
    let matrices = [
        (
            "diag_dominant",
            generators::diag_dominant(&DiagDominantConfig {
                n,
                seed: 7,
                ..Default::default()
            }),
        ),
        ("cage_like", generators::cage_like(n, 9)),
        ("tridiagonal", generators::tridiagonal(n, 4.0, -1.0)),
        (
            "spectral_radius_targeted",
            generators::spectral_radius_targeted(n, 0.9),
        ),
    ];
    for (name, a) in matrices {
        assert_eq!(a.rows(), n, "generator {name} produced the wrong size");
        assert_eq!(a.cols(), n, "generator {name} produced a non-square matrix");
    }
    // poisson_2d takes a grid side, not a matrix size.
    let p = generators::poisson_2d(6);
    assert_eq!(p.rows(), 36, "poisson_2d(6) must be 36x36");
    // rhs_for_solution must agree with the requested exact solution shape.
    let a = generators::tridiagonal(n, 4.0, -1.0);
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 3) as f64);
    assert_eq!(x_true.len(), n);
    assert_eq!(b.len(), n);
}

/// Grid models and the cost model must stay reachable through the prelude.
#[test]
fn grid_models_are_reachable() {
    for (name, grid) in [
        ("cluster1", cluster1()),
        ("cluster2", cluster2()),
        ("cluster3", cluster3()),
    ] {
        assert!(
            grid.num_machines() > 0,
            "grid model {name} has no machines — msplit-grid re-export broken?"
        );
    }
    let _model = CostModel::new(cluster1());
}

/// The experiment descriptors used by the bench crate must stay reachable.
#[test]
fn experiment_config_is_reachable() {
    let cfg = ExperimentConfig {
        scale: 0.01,
        min_n: 100,
        tolerance: 1e-6,
        max_iterations: 1_000,
    };
    assert!(cfg.scale > 0.0);
}
