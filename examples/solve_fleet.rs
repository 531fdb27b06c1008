//! A three-shard solve fleet under concurrent multi-tenant load.
//!
//! Starts three in-process [`SolveServer`] shards (the `msplit-server`
//! binary wraps the same type), speculatively warms the fleet for the
//! matrices the tenants are about to use, then runs 16 concurrent client
//! threads that each submit a stream of solves.  Every response is checked
//! **bitwise** against a direct [`PreparedSystem`] solve of the same system:
//! the fleet must return exactly the bytes a dedicated solver would.  Midway through, one shard is shut down to demonstrate
//! ring-retry: the surviving shards absorb its fingerprints with zero wrong
//! answers.
//!
//! The CI serve-smoke lane greps this example's final `SERVE_SMOKE_OK`
//! line.  Run it with:
//!
//! ```text
//! cargo run --release --example solve_fleet
//! ```

use multisplitting::prelude::*;
use multisplitting::serve::ClientOptions;
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use multisplitting::sparse::CsrMatrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TENANTS: usize = 16;
const SOLVES_PER_TENANT: usize = 6;
const MATRICES: usize = 4;
const N: usize = 160;

fn fleet_config(shard: usize) -> ServeConfig {
    ServeConfig {
        shard,
        engine: EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn solver_config() -> MultisplittingConfig {
    MultisplittingConfig {
        parts: 2,
        tolerance: 1e-9,
        ..MultisplittingConfig::default()
    }
}

fn main() {
    // Three shards on ephemeral loopback ports.
    let servers: Vec<SolveServer> = (0..3)
        .map(|s| SolveServer::start("127.0.0.1:0", fleet_config(s)).expect("start shard"))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    println!("fleet: {addrs:?}");

    // The tenants share a small set of matrices, so the sharded caches stay
    // hot.
    let config = solver_config();
    let matrices: Vec<Arc<CsrMatrix>> = (0..MATRICES as u64)
        .map(|seed| {
            Arc::new(generators::diag_dominant(&DiagDominantConfig {
                n: N,
                seed,
                ..Default::default()
            }))
        })
        .collect();
    // Reference answers straight from the solver stack, once per (matrix,
    // rhs) pair — the fleet must reproduce these bit for bit.
    let references: Vec<Vec<Vec<f64>>> = matrices
        .iter()
        .map(|a| {
            let prepared = PreparedSystem::prepare(config.clone(), a).expect("prepare");
            (0..SOLVES_PER_TENANT)
                .map(|k| {
                    let (_, b) = generators::rhs_for_solution(a, move |i| ((i + k) % 7) as f64);
                    prepared.solve(&b).expect("direct solve").x
                })
                .collect()
        })
        .collect();

    // Speculative warming: primary + ring successor for every matrix.
    let warm_client = ServeClient::new(&addrs, ClientOptions::default()).expect("client");
    for a in &matrices {
        let warmed = warm_client.warm(a, &config).expect("warm fleet");
        println!(
            "warmed fingerprint {:#018x} on {warmed} shards",
            a.fingerprint()
        );
    }

    let solves_done = Arc::new(AtomicU64::new(0));
    let addrs = Arc::new(addrs);
    let matrices = Arc::new(matrices);
    let references = Arc::new(references);
    let config = Arc::new(config);

    let tenants: Vec<_> = (0..TENANTS)
        .map(|t| {
            let addrs = Arc::clone(&addrs);
            let matrices = Arc::clone(&matrices);
            let references = Arc::clone(&references);
            let config = Arc::clone(&config);
            let solves_done = Arc::clone(&solves_done);
            std::thread::spawn(move || {
                let client =
                    ServeClient::new(&addrs, ClientOptions::default()).expect("tenant client");
                for k in 0..SOLVES_PER_TENANT {
                    let m = (t + k) % matrices.len();
                    let a = &matrices[m];
                    let (_, b) = generators::rhs_for_solution(a, move |i| ((i + k) % 7) as f64);
                    let solution = client.solve(a, &config, &b).expect("fleet solve");
                    assert_eq!(
                        solution.x, references[m][k],
                        "tenant {t} solve {k}: fleet answer differs from the direct solve"
                    );
                    solves_done.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Kill one shard while the tenants are still submitting: its keys must
    // remap to the survivors without a single wrong (or lost) answer.
    std::thread::sleep(Duration::from_millis(60));
    let mut servers = servers;
    let victim = servers.remove(0);
    println!("killing shard 0 mid-run");
    victim.shutdown();

    for t in tenants {
        t.join().expect("tenant thread");
    }
    drop(servers);

    let total = solves_done.load(Ordering::Relaxed);
    assert_eq!(total as usize, TENANTS * SOLVES_PER_TENANT);
    println!(
        "{total} solves bitwise-identical to direct solves, \
         shard death absorbed by ring-retry"
    );
    println!("SERVE_SMOKE_OK");
}
