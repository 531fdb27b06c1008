//! Engine workers do not fork onto the rayon pool.  Alone in its process:
//! `pool::loops_forked` counts every loop of the process, and no other test
//! may fork one while this one watches the counter.

use msplit_core::solver::{Method, MultisplittingConfig};
use msplit_core::PreparedSystem;
use msplit_engine::{Engine, EngineConfig, JobOutcome, RhsPayload, SolveRequest};
use msplit_sparse::generators::{self, DiagDominantConfig};
use rayon::pool;
use std::sync::Arc;

#[test]
fn a_cold_submit_forks_no_loop_while_a_direct_prepare_does() {
    let a = Arc::new(generators::diag_dominant(&DiagDominantConfig {
        n: 400,
        seed: 4,
        ..Default::default()
    }));
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 7) as f64) - 3.0);
    // Both parallel loops of the core sit on this path: `factorize_blocks`
    // in the cold prepare, the sweep in every FGMRES step.
    let config = MultisplittingConfig {
        parts: 4,
        method: Method::Fgmres {
            restart: 20,
            inner_sweeps: 1,
        },
        ..Default::default()
    };

    let engine = Engine::new(EngineConfig::default());
    let served = engine
        .submit(
            SolveRequest::new(Arc::clone(&a), RhsPayload::Single(b.clone()))
                .with_config(config.clone()),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert!(served.converged());
    assert_eq!(engine.report().factorizations, 1, "the submit was cold");
    assert_eq!(pool::loops_forked(), 0, "an engine worker forked a loop");

    let direct = PreparedSystem::prepare(config, &a)
        .unwrap()
        .solve(&b)
        .unwrap();
    let JobOutcome::Single(served) = &*served;
    assert_eq!(served.x, direct.x, "inline and pooled answers differ");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        assert!(
            pool::loops_forked() > 0,
            "prepare from a plain thread did not fork"
        );
    } else {
        assert_eq!(pool::helpers_started(), 0);
    }
}
