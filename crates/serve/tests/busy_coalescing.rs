//! The shard's coalescing rule: a request that finds a worker idle is
//! dispatched at once, and requests that find every worker busy gather into
//! batches that a completing job flushes.  These tests drive a real
//! `SolveServer` over loopback TCP; the CI serve-smoke lane also runs them
//! in release mode, where a race in the in-flight accounting would show.
//! They run one at a time: the idle-shard test times its requests, and a
//! saturating test beside it on a small host would slow them for nothing.

use msplit_comm::wire::{read_frame, write_frame, Handshake};
use msplit_comm::{Message, RejectCode};
use msplit_core::solver::MultisplittingConfig;
use msplit_core::PreparedSystem;
use msplit_engine::EngineConfig;
use msplit_serve::{codec, ClientOptions, ServeClient, ServeConfig, SolveServer};
use msplit_sparse::generators::{self, DiagDominantConfig};
use msplit_sparse::CsrMatrix;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn solver_config() -> MultisplittingConfig {
    MultisplittingConfig {
        parts: 2,
        tolerance: 1e-9,
        ..MultisplittingConfig::default()
    }
}

fn shard(workers: usize) -> SolveServer {
    let config = ServeConfig {
        engine: EngineConfig {
            workers,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    };
    SolveServer::start("127.0.0.1:0", config).expect("start shard")
}

fn matrix(n: usize, seed: u64) -> CsrMatrix {
    generators::diag_dominant(&DiagDominantConfig {
        n,
        seed,
        ..Default::default()
    })
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// A tridiagonal-band matrix of order `n`: cheap per row, and at the orders
/// used here slow enough to factorize that a shard stays busy with it.
fn banded(n: usize, seed: u64) -> CsrMatrix {
    generators::diag_dominant(&DiagDominantConfig {
        n,
        offdiag_per_row: 2,
        half_bandwidth: 2,
        dominance_margin: 1.0,
        seed,
    })
}

/// Opens a raw serve connection (handshake with `world_size == 0`).
fn raw_connection(server: &SolveServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    Handshake {
        rank: 0,
        world_size: 0,
        fingerprint: 0,
    }
    .write_to(&mut stream)
    .expect("handshake");
    Handshake::read_from(&mut stream).expect("handshake echo");
    stream
}

/// A submit that ships its matrix along.
fn submit(request_id: u64, a: &CsrMatrix, config: &MultisplittingConfig, rhs: &[f64]) -> Message {
    Message::SubmitSolve {
        request_id,
        fingerprint: a.fingerprint(),
        priority: 1,
        queue_deadline_micros: 0,
        config: codec::encode_config(config),
        matrix: codec::encode_matrix(a),
        rhs: rhs.to_vec(),
    }
}

/// One worker, eight concurrent clients, eight requests each on one matrix:
/// the worker is busy nearly all the time, so requests gather into groups
/// that only a completing job can flush.  Every request must come back
/// bitwise the direct solve, some must have shared a job, and nothing may
/// be left waiting in a group or the engine queue afterwards.
#[test]
fn a_saturated_shard_strands_no_request() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 8;

    let _serial = serial();
    let server = shard(1);
    let addrs = vec![server.local_addr().to_string()];
    let a = matrix(400, 17);
    let config = solver_config();
    let prepared = PreparedSystem::prepare(config.clone(), &a).expect("prepare");
    let rhs: Vec<Vec<f64>> = (0..REQUESTS)
        .map(|k| generators::rhs_for_solution(&a, move |i| ((i + 3 * k) % 7) as f64).1)
        .collect();
    let references: Vec<Vec<f64>> = rhs
        .iter()
        .map(|b| prepared.solve(b).expect("direct solve").x)
        .collect();

    // Detached clients reporting over a channel: a stranded request would
    // block its client forever, and the deadline turns that into a failure.
    let shared = Arc::new((addrs.clone(), a, config, rhs, references));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let (done_tx, done_rx) = mpsc::channel();
    for c in 0..CLIENTS {
        let (shared, barrier, done_tx) =
            (Arc::clone(&shared), Arc::clone(&barrier), done_tx.clone());
        std::thread::spawn(move || {
            let (addrs, a, config, rhs, references) = &*shared;
            let client = ServeClient::new(addrs, ClientOptions::default()).expect("client");
            barrier.wait();
            for k in 0..REQUESTS {
                let k = (k + c) % REQUESTS;
                let reply = client.solve(a, config, &rhs[k]).expect("solve");
                assert_eq!(
                    bits(&reply.x),
                    bits(&references[k]),
                    "client {c} request {k}: served answer differs from the direct solve"
                );
            }
            done_tx.send(c).expect("report");
        });
    }
    drop(done_tx);
    let deadline = Instant::now() + Duration::from_secs(120);
    for _ in 0..CLIENTS {
        let left = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(left) {
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => panic!("a request was never answered"),
            Err(RecvTimeoutError::Disconnected) => panic!("a client failed"),
        }
    }

    let client = ServeClient::new(&addrs, ClientOptions::default()).expect("client");
    match client.stats().as_slice() {
        [Message::ServerStats {
            completed,
            coalesced,
            queue_depths,
            ..
        }] => {
            assert_eq!(*completed, (CLIENTS * REQUESTS) as u64);
            assert!(
                *coalesced > 0,
                "{CLIENTS} clients on one busy worker never shared a job"
            );
            assert_eq!(*queue_depths, [0, 0, 0], "requests left waiting");
        }
        other => panic!("expected one ServerStats, got {other:?}"),
    }
    server.shutdown();
}

/// An idle shard holds nothing back: each request of a strictly sequential
/// client finds both workers idle and is dispatched at once, so its queue
/// time is the hand-off to the engine, not a coalescing wait.
#[test]
fn an_idle_shard_dispatches_at_once() {
    let _serial = serial();
    let server = shard(2);
    let addrs = vec![server.local_addr().to_string()];
    let client = ServeClient::new(&addrs, ClientOptions::default()).expect("client");
    let a = matrix(200, 5);
    let config = solver_config();
    client.warm(&a, &config).expect("warm");
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);

    let mut queue_micros: Vec<u64> = (0..20)
        .map(|_| {
            let reply = client.solve(&a, &config, &b).expect("solve");
            assert_eq!(reply.coalesced, 1, "a lone request was batched");
            reply.queue_micros
        })
        .collect();
    queue_micros.sort_unstable();
    let median = queue_micros[queue_micros.len() / 2];
    assert!(
        median < 2_000,
        "median queue time {median} us on an idle shard (all: {queue_micros:?})"
    );
    server.shutdown();
}

/// A client that pipelines requests and never reads its replies fills its
/// socket, and the shard's writes to it block.  That must hold up only its
/// own answers: a second client on the same one-worker shard, solving
/// another matrix, is still answered, because a job gives its worker slot
/// back when its outcome is in, before its replies are written.
#[test]
fn a_client_that_stops_reading_holds_up_no_one_else() {
    // 24 replies of 320 kB each: far more than a loopback socket buffers.
    const STALLED: u64 = 24;
    const N: usize = 40_000;

    let _serial = serial();
    let server = shard(1);
    let addrs = vec![server.local_addr().to_string()];
    let config = solver_config();
    let stalled_matrix = banded(N, 31);
    let (_, b) = generators::rhs_for_solution(&stalled_matrix, |i| (i % 3) as f64);
    let mut stalled = raw_connection(&server);
    for request_id in 0..STALLED {
        let mut frame = submit(request_id, &stalled_matrix, &config, &b);
        if let Message::SubmitSolve { matrix, .. } = &mut frame {
            if request_id > 0 {
                matrix.clear();
            }
        }
        write_frame(&mut stalled, 0, &frame).expect("pipelined submit");
    }

    // Wait until every pipelined request has left the shard's queues: the
    // solves are then running or done, and their replies sit in, or wait to
    // enter, the full socket.
    let probe = ServeClient::new(&addrs, ClientOptions::default()).expect("client");
    let settle = Instant::now() + Duration::from_secs(20);
    while Instant::now() < settle {
        match probe.stats().as_slice() {
            [Message::ServerStats {
                completed,
                queue_depths,
                ..
            }] if *completed > 0 && *queue_depths == [0, 0, 0] => break,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    let other = banded(N, 32);
    let prepared = PreparedSystem::prepare(config.clone(), &other).expect("prepare");
    let (_, c) = generators::rhs_for_solution(&other, |i| (i % 5) as f64);
    let reference = prepared.solve(&c).expect("direct solve").x;
    let (done_tx, done_rx) = mpsc::channel();
    let (solve_addrs, solve_config) = (addrs.clone(), config.clone());
    std::thread::spawn(move || {
        let client = ServeClient::new(&solve_addrs, ClientOptions::default()).expect("client");
        let _ = done_tx.send(client.solve(&other, &solve_config, &c).map(|r| r.x));
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(x) => assert_eq!(
            bits(&x.expect("solve")),
            bits(&reference),
            "served answer differs from the direct solve"
        ),
        Err(_) => panic!("a client that stops reading starved another client's request"),
    }
    // Closing the stalled socket fails the blocked writes, so the shard's
    // threads wind down.
    drop(stalled);
    server.shutdown();
}

/// A group whose members stop for different reasons.  On a one-worker
/// shard held busy by a large cold request, a zero right-hand side and one
/// scaled by 1e12 — same matrix, same five-iteration budget — gather into
/// one group and run as one job.  Each member is answered from its own
/// column: the zero one gets its solo `SolveResult` (bitwise `x`, the solo
/// iteration count, coalesced 2), the other a `Reject`.
#[test]
fn a_mixed_group_answers_each_member_by_its_own_solve() {
    let _serial = serial();
    let server = shard(1);
    let config = MultisplittingConfig {
        max_iterations: 5,
        ..solver_config()
    };
    let a = matrix(200, 9);
    let zero = vec![0.0; a.rows()];
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64 + 1.0);
    let scaled: Vec<f64> = b.iter().map(|v| v * 1e12).collect();
    let prepared = PreparedSystem::prepare(config.clone(), &a).expect("prepare");
    let solo = prepared.solve(&zero).expect("solo solve");
    assert!(solo.stop.converged());
    assert!(!prepared
        .solve(&scaled)
        .expect("solo solve")
        .stop
        .converged());

    // Pipelined on one connection, so the shard admits them in order: the
    // cold blocker finds the worker idle and is dispatched; the other two
    // find it busy and join one group, which its completion flushes.
    let blocker = banded(40_000, 41);
    let (_, blocker_rhs) = generators::rhs_for_solution(&blocker, |i| (i % 3) as f64);
    let mut stream = raw_connection(&server);
    for frame in [
        submit(0, &blocker, &solver_config(), &blocker_rhs),
        submit(1, &a, &config, &zero),
        submit(2, &a, &config, &scaled),
    ] {
        write_frame(&mut stream, 0, &frame).expect("pipelined submit");
    }
    let mut replies = HashMap::new();
    for _ in 0..3 {
        let (_, reply) = read_frame(&mut stream).expect("reply");
        let id = match &reply {
            Message::SolveResult { request_id, .. } | Message::Reject { request_id, .. } => {
                *request_id
            }
            other => panic!("unexpected reply {other:?}"),
        };
        replies.insert(id, reply);
    }
    match &replies[&1] {
        Message::SolveResult {
            iterations,
            coalesced,
            x,
            ..
        } => {
            assert_eq!(*coalesced, 2, "the two requests did not share a job");
            assert_eq!(*iterations, solo.stop.iterations);
            assert_eq!(bits(x), bits(&solo.x));
        }
        other => panic!("the converging member got {other:?}"),
    }
    match &replies[&2] {
        Message::Reject { code, .. } => assert_eq!(*code, RejectCode::Invalid),
        other => panic!("the diverging member got {other:?}"),
    }
    server.shutdown();
}
