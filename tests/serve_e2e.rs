//! End-to-end tests for the networked solve fleet: a three-shard
//! [`SolveServer`] fleet under 16 concurrent tenants, every response checked
//! bitwise against a direct [`PreparedSystem`] solve, a mid-run shard kill
//! absorbed by ring-retry, deterministic admission-control rejections, and a
//! proptest that batch coalescing can never change an answer.

use multisplitting::prelude::*;
use multisplitting::serve::{ClientOptions, ServeError};
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use multisplitting::sparse::CsrMatrix;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn solver_config(parts: usize) -> MultisplittingConfig {
    MultisplittingConfig {
        parts,
        tolerance: 1e-9,
        ..MultisplittingConfig::default()
    }
}

fn serve_config(shard: usize) -> ServeConfig {
    ServeConfig {
        shard,
        coalesce_window: Duration::from_millis(6),
        engine: EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn start_fleet(shards: usize) -> (Vec<SolveServer>, Vec<String>) {
    let servers: Vec<SolveServer> = (0..shards)
        .map(|s| SolveServer::start("127.0.0.1:0", serve_config(s)).expect("start shard"))
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    (servers, addrs)
}

/// The tentpole acceptance test: 3 shards, 16 concurrent tenants, a shard
/// killed mid-run, and **every** fleet answer bitwise-identical to the
/// direct solve of the same system.
#[test]
fn sharded_fleet_serves_bitwise_answers_through_a_shard_kill() {
    const TENANTS: usize = 16;
    const SOLVES_PER_TENANT: usize = 4;
    const MATRICES: usize = 3;

    let (servers, addrs) = start_fleet(3);
    let config = solver_config(2);
    let matrices: Vec<Arc<CsrMatrix>> = (0..MATRICES as u64)
        .map(|seed| {
            Arc::new(generators::diag_dominant(&DiagDominantConfig {
                n: 120,
                seed,
                ..Default::default()
            }))
        })
        .collect();
    // Ground truth once per (matrix, rhs) pair, straight from the solver
    // stack the fleet wraps.
    let references: Vec<Vec<Vec<f64>>> = matrices
        .iter()
        .map(|a| {
            let prepared = PreparedSystem::prepare(config.clone(), a).expect("prepare");
            (0..SOLVES_PER_TENANT)
                .map(|k| {
                    let (_, b) = generators::rhs_for_solution(a, move |i| ((i + k) % 5) as f64);
                    prepared.solve(&b).expect("direct solve").x
                })
                .collect()
        })
        .collect();

    // Speculatively warm primary + ring successor so the first wave of
    // tenant solves hits prepared factorizations.
    let warm_client = ServeClient::new(&addrs, ClientOptions::default()).expect("client");
    for a in &matrices {
        assert!(warm_client.warm(a, &config).expect("warm") >= 1);
    }

    let coalesced_hits = Arc::new(AtomicU64::new(0));
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
            let coalesced_hits = Arc::clone(&coalesced_hits);
            std::thread::spawn(move || {
                let client =
                    ServeClient::new(&addrs, ClientOptions::default()).expect("tenant client");
                for k in 0..SOLVES_PER_TENANT {
                    let m = (t + k) % matrices.len();
                    let (_, b) =
                        generators::rhs_for_solution(&matrices[m], move |i| ((i + k) % 5) as f64);
                    let solution = client
                        .solve(&matrices[m], &config, &b)
                        .expect("fleet solve");
                    assert_eq!(
                        solution.x, references[m][k],
                        "tenant {t} solve {k}: fleet answer differs from direct solve"
                    );
                    if solution.coalesced > 1 {
                        coalesced_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // Kill one shard while tenants are still submitting: its fingerprints
    // must remap to the survivors with zero wrong or lost answers.
    std::thread::sleep(Duration::from_millis(40));
    let mut servers = servers;
    let victim = servers.remove(0);
    victim.shutdown();

    for t in tenants {
        t.join().expect("tenant thread");
    }
    // Shared matrices + a coalescing window mean at least some requests must
    // have shared a sweep under 16 concurrent tenants.
    assert!(
        coalesced_hits.load(Ordering::Relaxed) > 0,
        "no request was ever coalesced under 16 concurrent tenants"
    );
    drop(servers);
}

/// Admission control is load-shedding, not blocking: with a zero-depth lane
/// budget every submit is rejected immediately with a typed, retryable code
/// and a retry-after hint equal to the coalescing window.
#[test]
fn zero_lane_budget_sheds_load_with_typed_retryable_rejections() {
    let mut cfg = serve_config(0);
    cfg.lane_limits = [0; 3];
    let server = SolveServer::start("127.0.0.1:0", cfg).expect("start shard");
    let addrs = vec![server.local_addr().to_string()];
    let client = ServeClient::new(&addrs, ClientOptions::default()).expect("client");

    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 60,
        seed: 5,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
    match client.solve(&a, &solver_config(2), &b) {
        Err(ServeError::Rejected {
            code,
            retry_after_micros,
            ..
        }) => {
            assert_eq!(code, multisplitting::comm::RejectCode::QueueFull);
            assert!(code.is_retryable());
            assert!(
                retry_after_micros > 0,
                "QueueFull must carry a retry-after hint"
            );
        }
        other => panic!("expected a QueueFull rejection, got {other:?}"),
    }
    server.shutdown();
}

/// `ServerStats` reports the work a shard actually did: completions, batch
/// counts, and the engine's cache/single-flight counters.
#[test]
fn server_stats_reflect_completed_and_coalesced_work() {
    let (servers, addrs) = start_fleet(1);
    let client = ServeClient::new(&addrs, ClientOptions::default()).expect("client");
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 80,
        seed: 9,
        ..Default::default()
    });
    let config = solver_config(2);
    for k in 0..3usize {
        let (_, b) = generators::rhs_for_solution(&a, move |i| ((i + k) % 4) as f64);
        let solution = client.solve(&a, &config, &b).expect("solve");
        assert!(solution.iterations > 0);
    }

    let stats = client.stats();
    assert_eq!(stats.len(), 1, "one shard must answer the stats query");
    match &stats[0] {
        multisplitting::comm::Message::ServerStats {
            shard,
            completed,
            batches,
            sparse_fastpath_hits,
            dense_fallbacks,
            mean_reach_ppm,
            queue_depths,
            ..
        } => {
            assert_eq!(*shard, 0);
            assert!(*completed >= 3, "3 solves completed, stats say {completed}");
            assert!(*batches >= 1, "every solve runs inside a dispatched batch");
            assert!(
                *sparse_fastpath_hits + *dense_fallbacks > 0,
                "completed solves must account for their solve paths"
            );
            assert_eq!(*mean_reach_ppm, 0, "the reach field is reserved");
            assert_eq!(queue_depths.len(), 3);
        }
        other => panic!("expected ServerStats, got {other:?}"),
    }
    drop(servers);
}

/// A batch runs the stationary lockstep driver, so Krylov requests must never
/// be coalesced: two FGMRES requests that arrive inside one (long) window are
/// each served alone, by FGMRES, bitwise the direct solve.
#[test]
fn concurrent_krylov_requests_are_never_coalesced() {
    let server = SolveServer::start(
        "127.0.0.1:0",
        ServeConfig {
            coalesce_window: Duration::from_millis(400),
            ..serve_config(0)
        },
    )
    .expect("start shard");
    let addrs = vec![server.local_addr().to_string()];
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 100,
        seed: 3,
        ..Default::default()
    });
    let config = MultisplittingConfig {
        method: Method::Fgmres {
            restart: 30,
            inner_sweeps: 1,
        },
        ..solver_config(2)
    };
    let prepared = PreparedSystem::prepare(config.clone(), &a).expect("prepare");
    let rhs: Vec<Vec<f64>> = (0..2usize)
        .map(|k| generators::rhs_for_solution(&a, move |i| ((i + k) % 5) as f64).1)
        .collect();
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = rhs
            .iter()
            .map(|b| {
                let (addrs, a, config) = (&addrs, &a, &config);
                scope.spawn(move || {
                    let client = ServeClient::new(addrs, ClientOptions::default()).expect("client");
                    client.solve(a, config, b).expect("solve")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (b, reply) in rhs.iter().zip(&replies) {
        let direct = prepared.solve(b).expect("direct solve");
        assert_eq!(reply.coalesced, 1, "a Krylov request joined a batch");
        assert_eq!(reply.iterations, direct.stop.iterations);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reply.x), bits(&direct.x));
    }
    drop(server);
}

/// A request pinned to a matrix the shard has never seen (empty matrix blob
/// on a fresh connection) is rejected as non-retryable `Invalid`, telling
/// the client to resend with the matrix — the recovery path `ServeClient`
/// exercises automatically after a shard restart.
#[test]
fn unknown_fingerprint_without_matrix_blob_is_a_non_retryable_reject() {
    use multisplitting::comm::wire::{read_frame, write_frame, Handshake};
    use multisplitting::comm::{Message, RejectCode};

    let (servers, addrs) = start_fleet(1);
    let mut stream = std::net::TcpStream::connect(&addrs[0]).expect("connect");
    // A serve connection: world_size 0, not pinned to any fingerprint.
    Handshake {
        rank: 0,
        world_size: 0,
        fingerprint: 0,
    }
    .write_to(&mut stream)
    .expect("handshake out");
    Handshake::read_from(&mut stream).expect("handshake echo");

    write_frame(
        &mut stream,
        0,
        &Message::SubmitSolve {
            request_id: 42,
            fingerprint: 0xDEAD_BEEF,
            priority: 1,
            queue_deadline_micros: 0,
            config: multisplitting::serve::codec::encode_config(&solver_config(2)),
            matrix: Vec::new(),
            rhs: vec![1.0; 8],
        },
    )
    .expect("submit");
    let (_, reply) = read_frame(&mut stream).expect("reply");
    match reply {
        Message::Reject {
            request_id, code, ..
        } => {
            assert_eq!(request_id, 42);
            assert_eq!(code, RejectCode::Invalid);
            assert!(!code.is_retryable());
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    drop(servers);
}

/// Hostile input: a matrix with a NaN (or an infinite) entry in a diagonal
/// block fails `PreparedSystem::prepare` with the typed, positioned
/// `DirectError::NonFinite` instead of producing a factor full of NaNs, and
/// the serve path turns that into a non-retryable `Invalid` reject; the
/// shard keeps serving afterwards.
#[test]
fn non_finite_matrix_entry_is_a_typed_prepare_error_and_a_reject() {
    use multisplitting::comm::RejectCode;
    use multisplitting::core::CoreError;
    use multisplitting::direct::DirectError;
    use multisplitting::sparse::CooMatrix;

    let clean = generators::diag_dominant(&DiagDominantConfig {
        n: 60,
        seed: 5,
        ..Default::default()
    });
    let (servers, addrs) = start_fleet(1);
    let client = ServeClient::new(&addrs, ClientOptions::default()).expect("client");
    let config = solver_config(2);
    let b = vec![1.0; 60];

    for bad in [f64::NAN, f64::INFINITY] {
        let mut coo = CooMatrix::new(60, 60);
        for (i, j, v) in clean.iter() {
            coo.push(i, j, if (i, j) == (7, 7) { bad } else { v })
                .unwrap();
        }
        let poisoned = coo.to_csr();

        match PreparedSystem::prepare(config.clone(), &poisoned) {
            Err(CoreError::Direct(DirectError::NonFinite { row: 7, col: 7 })) => {}
            Err(other) => panic!("expected NonFinite at (7, 7), got {other:?}"),
            Ok(_) => panic!("prepare accepted a matrix holding {bad}"),
        }
        match client.solve(&poisoned, &config, &b) {
            Err(ServeError::Rejected { code, .. }) => {
                assert_eq!(code, RejectCode::Invalid);
                assert!(!code.is_retryable());
            }
            other => panic!("expected an Invalid reject, got {other:?}"),
        }
    }

    let healthy = client
        .solve(&clean, &config, &b)
        .expect("shard still serves");
    assert!(healthy.x.iter().all(|v| v.is_finite()));
    drop(servers);
}

proptest! {
    // Each case runs several full multisplitting solves; a handful of cases
    // keeps the test inside tier-1 budget while still varying system size,
    // seed, partition count, and batch width.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The coalescing-equivalence property the whole serving design leans
    // on: for any batch of right-hand sides, every column of `solve_many`
    // is **bitwise** the solo `solve` of that column, and its frozen-column
    // iteration equals the solo iteration count.
    #[test]
    fn coalesced_batches_are_bitwise_identical_to_solo_solves(
        n in 40usize..120,
        seed in 0u64..1000,
        parts in 2usize..4,
        ncols in 2usize..5,
    ) {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n,
            seed,
            ..Default::default()
        });
        let prepared = PreparedSystem::prepare(solver_config(parts), &a).expect("prepare");
        let batch: Vec<Vec<f64>> = (0..ncols)
            .map(|k| generators::rhs_for_solution(&a, move |i| ((i * (k + 1)) % 7) as f64).1)
            .collect();
        let out = prepared.solve_many(&batch).expect("batch solve");
        prop_assert!(out.stop.converged());
        for (c, b) in batch.iter().enumerate() {
            let solo = prepared.solve(b).expect("solo solve");
            prop_assert_eq!(&out.columns[c], &solo.x);
            prop_assert_eq!(out.column_converged_at[c], Some(solo.stop.iterations));
        }
    }
}
