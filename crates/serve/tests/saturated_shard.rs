//! A shard submits every admitted request to its engine as its own job, at
//! once: queueing, priority order and the queue deadline are the engine's,
//! and admission bounds each lane by the engine's queue depth.  These tests
//! drive a real `SolveServer` over loopback TCP; the CI serve-smoke lane also
//! runs them in release mode, where a race in admission would show.  They
//! run one at a time: the idle-shard test times its requests, and a
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
    shard_with_limits(workers, ServeConfig::default().lane_limits)
}

fn shard_with_limits(workers: usize, lane_limits: [usize; 3]) -> SolveServer {
    let config = ServeConfig {
        lane_limits,
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

/// Reads `count` replies off `stream`, keyed by request id.
fn read_replies(stream: &mut TcpStream, count: usize) -> HashMap<u64, Message> {
    (0..count)
        .map(|_| {
            let (_, reply) = read_frame(stream).expect("reply");
            match &reply {
                Message::SolveResult { request_id, .. } | Message::Reject { request_id, .. } => {
                    (*request_id, reply)
                }
                other => panic!("unexpected reply {other:?}"),
            }
        })
        .collect()
}

/// A one-worker shard with the given lane limits, held busy by a large cold
/// request (id 0) on the returned connection.  Returns once the shard's
/// stats show the blocker dispatched and popped off the engine queue, so
/// the next request on any lane waits behind it.
fn blocked_shard(lane_limits: [usize; 3]) -> (SolveServer, TcpStream) {
    let server = shard_with_limits(1, lane_limits);
    // About 0.2 s cold in release on one core: far longer than pipelining
    // the few dozen small requests the tests queue behind it.
    let blocker = banded(200_000, 41);
    let (_, blocker_rhs) = generators::rhs_for_solution(&blocker, |i| (i % 3) as f64);
    let mut stream = raw_connection(&server);
    let frame = submit(0, &blocker, &solver_config(), &blocker_rhs);
    write_frame(&mut stream, 0, &frame).expect("blocker submit");
    let probe = ServeClient::new(&[server.local_addr().to_string()], ClientOptions::default())
        .expect("client");
    let settle = Instant::now() + Duration::from_secs(20);
    loop {
        match probe.stats().as_slice() {
            [Message::ServerStats {
                batches: 1,
                completed: 0,
                queue_depths: [0, 0, 0],
                ..
            }] => break,
            _ if Instant::now() < settle => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("the blocker never started: {other:?}"),
        }
    }
    (server, stream)
}

/// One worker, eight concurrent clients, eight requests each on one matrix:
/// the worker is busy nearly all the time, so requests wait in the engine
/// queue.  Every request must come back bitwise the direct solve, as its
/// own job, and nothing may be left waiting in the engine queue afterwards.
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
                assert_eq!(reply.coalesced, 1, "client {c} request {k} shared a job");
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
            assert_eq!(*coalesced, 0, "the coalesced counter is reserved");
            assert_eq!(*queue_depths, [0, 0, 0], "requests left waiting");
        }
        other => panic!("expected one ServerStats, got {other:?}"),
    }
    server.shutdown();
}

/// An idle shard holds nothing back: each request of a strictly sequential
/// client is dispatched at once and finds a worker idle, so its queue time
/// is the hand-off to the engine.
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
/// another matrix, is still answered, because each job's reply is written
/// by its own waiter thread, not by the engine worker.
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

    // Wait until every pipelined request has left the engine queue: the
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

/// Each request stops for its own reason.  A zero right-hand side and one
/// scaled by 1e12 — same matrix, same five-iteration budget — are pipelined
/// on one connection: the zero one gets its solo `SolveResult` (bitwise `x`,
/// the solo iteration count, coalesced 1), the lone non-converging one a
/// `Reject{Invalid}`.
#[test]
fn a_lone_non_converging_request_is_rejected_as_invalid() {
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

    let mut stream = raw_connection(&server);
    for frame in [
        submit(1, &a, &config, &zero),
        submit(2, &a, &config, &scaled),
    ] {
        write_frame(&mut stream, 0, &frame).expect("pipelined submit");
    }
    let replies = read_replies(&mut stream, 2);
    match &replies[&1] {
        Message::SolveResult {
            iterations,
            coalesced,
            x,
            ..
        } => {
            assert_eq!(*coalesced, 1);
            assert_eq!(*iterations, solo.stop.iterations);
            assert_eq!(bits(x), bits(&solo.x));
        }
        other => panic!("the converging request got {other:?}"),
    }
    match &replies[&2] {
        Message::Reject { code, .. } => assert_eq!(*code, RejectCode::Invalid),
        other => panic!("the non-converging request got {other:?}"),
    }
    server.shutdown();
}

/// A lane holds at most its limit.  Behind a running blocker on a one-worker
/// shard whose normal lane admits 2, five pipelined normal requests: the
/// first two queue and are answered, exactly three are shed with
/// `QueueFull` and a retry-after hint.
#[test]
fn a_lane_at_its_limit_sheds_exactly_the_overflow() {
    let _serial = serial();
    let (server, mut stream) = blocked_shard([16, 2, 64]);
    let config = solver_config();
    let a = matrix(200, 13);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 4) as f64);
    let reference = PreparedSystem::prepare(config.clone(), &a)
        .expect("prepare")
        .solve(&b)
        .expect("direct solve")
        .x;
    for request_id in 1..=5 {
        let frame = submit(request_id, &a, &config, &b);
        write_frame(&mut stream, 0, &frame).expect("pipelined submit");
    }
    let replies = read_replies(&mut stream, 6);
    let mut shed = Vec::new();
    for request_id in 1..=5 {
        match &replies[&request_id] {
            Message::SolveResult { x, .. } => assert_eq!(bits(x), bits(&reference)),
            Message::Reject {
                code: RejectCode::QueueFull,
                retry_after_micros,
                ..
            } => {
                assert!(*retry_after_micros > 0, "QueueFull without a retry hint");
                shed.push(request_id);
            }
            other => panic!("request {request_id} got {other:?}"),
        }
    }
    assert_eq!(
        shed,
        [3, 4, 5],
        "the lane limit of 2 shed the wrong requests"
    );
    server.shutdown();
}

/// Each lane has its own budget.  Behind a running blocker on a one-worker
/// shard with the default lane limits, the low lane is filled to its limit
/// of 64, which is also the default engine queue capacity; one more low
/// request is shed with `QueueFull`, and a high request after it is still
/// admitted and answered bitwise.
#[test]
fn a_full_low_lane_does_not_shed_a_high_request() {
    let _serial = serial();
    let lane_limits = ServeConfig::default().lane_limits;
    let low_limit = lane_limits[2] as u64;
    assert_eq!(low_limit as usize, EngineConfig::default().queue_capacity);
    let (server, mut stream) = blocked_shard(lane_limits);
    let config = solver_config();
    let a = matrix(200, 23);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
    let reference = PreparedSystem::prepare(config.clone(), &a)
        .expect("prepare")
        .solve(&b)
        .expect("direct solve")
        .x;
    let high = low_limit + 2;
    for request_id in 1..=high {
        let mut frame = submit(request_id, &a, &config, &b);
        if let Message::SubmitSolve {
            priority, matrix, ..
        } = &mut frame
        {
            *priority = if request_id == high { 0 } else { 2 };
            if request_id > 1 {
                matrix.clear();
            }
        }
        write_frame(&mut stream, 0, &frame).expect("pipelined submit");
    }
    let replies = read_replies(&mut stream, high as usize + 1);
    for request_id in (1..=low_limit).chain([high]) {
        match &replies[&request_id] {
            Message::SolveResult { x, .. } => assert_eq!(bits(x), bits(&reference)),
            other => panic!("request {request_id} got {other:?}"),
        }
    }
    match &replies[&(low_limit + 1)] {
        Message::Reject { code, .. } => assert_eq!(*code, RejectCode::QueueFull),
        other => panic!("the low request over its lane limit got {other:?}"),
    }
    server.shutdown();
}

/// The queue deadline is the engine's job timeout: a request with a 1 ms
/// deadline waiting behind a running blocker is rejected with
/// `DeadlineExpired` and a retry-after hint, and the next request on the
/// same connection is answered.
#[test]
fn a_queue_deadline_expires_through_the_engine_timeout() {
    let _serial = serial();
    let (server, mut stream) = blocked_shard(ServeConfig::default().lane_limits);
    let config = solver_config();
    let a = matrix(200, 21);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 6) as f64);
    let reference = PreparedSystem::prepare(config.clone(), &a)
        .expect("prepare")
        .solve(&b)
        .expect("direct solve")
        .x;
    let mut doomed = submit(1, &a, &config, &b);
    if let Message::SubmitSolve {
        queue_deadline_micros,
        ..
    } = &mut doomed
    {
        *queue_deadline_micros = 1_000;
    }
    write_frame(&mut stream, 0, &doomed).expect("submit");
    write_frame(&mut stream, 0, &submit(2, &a, &config, &b)).expect("submit");
    let replies = read_replies(&mut stream, 3);
    match &replies[&1] {
        Message::Reject {
            code,
            retry_after_micros,
            ..
        } => {
            assert_eq!(*code, RejectCode::DeadlineExpired);
            assert!(
                *retry_after_micros > 0,
                "DeadlineExpired without a retry hint"
            );
        }
        other => panic!("the expired request got {other:?}"),
    }
    match &replies[&2] {
        Message::SolveResult { x, .. } => assert_eq!(bits(x), bits(&reference)),
        other => panic!("the request after it got {other:?}"),
    }
    server.shutdown();
}
