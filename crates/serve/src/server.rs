//! One shard of the solve fleet: listener, admission control, dispatch.
//!
//! A [`SolveServer`] accepts serve-protocol connections (handshakes with
//! `world_size == 0`), admits [`Message::SubmitSolve`] requests against
//! per-lane queue limits, and submits every admitted request to the
//! embedded [`msplit_engine::Engine`] as its own job, at once.  Queueing,
//! priority order and the queue deadline are the engine's: its bounded
//! FIFO-within-priority queue and [`SolveRequest::with_timeout`].  The
//! factorize-once reuse across requests is the engine's single-flight
//! factorization cache, so each answer is the request's own
//! `PreparedSystem::solve`, bit for bit.
//!
//! Everything here load-sheds instead of blocking: a full lane, an expired
//! queue deadline or a full engine queue produce a typed [`Message::Reject`]
//! with a retry-after hint, and the connection stays usable.

use crate::codec;
use crate::ServeError;
use msplit_comm::wire::{read_frame, write_frame, Handshake};
use msplit_comm::{CommError, Message, RejectCode};
use msplit_engine::{
    Engine, EngineConfig, EngineError, JobOutcome, Priority, RhsPayload, SolveRequest,
};
use msplit_sparse::CsrMatrix;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Sizing and policy of one serve shard.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard index reported in [`Message::ServerStats`] and used as the
    /// `from` rank of response frames.
    pub shard: usize,
    /// Admission limit per priority lane (highest priority first): a
    /// submit whose lane already holds this many queued requests (warm ones
    /// included) is rejected with [`RejectCode::QueueFull`] instead of
    /// blocking.  Each lane has its own budget: the shard sizes its engine
    /// queue to hold every lane at its limit at once.
    pub lane_limits: [usize; Priority::COUNT],
    /// Sizing of the embedded engine (workers, queue, cache).  Every
    /// admitted request is one engine job; the workers run them side by
    /// side, most urgent lane first.  `queue_capacity` is raised to the sum
    /// of `lane_limits` if it is smaller.
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shard: 0,
            lane_limits: [16, 32, 64],
            engine: EngineConfig::default(),
        }
    }
}

/// Counters the server keeps on top of the engine's own report.
#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
}

struct Inner {
    config: ServeConfig,
    engine: Engine,
    /// Matrices this shard has decoded before, keyed by fingerprint, so a
    /// warmed client can submit with an empty matrix blob.
    known: Mutex<HashMap<u64, Arc<CsrMatrix>>>,
    counters: Counters,
    shutdown: AtomicBool,
}

/// A serialized writer for one client connection (reader and dispatch
/// threads both respond on it).
struct ConnHandle {
    stream: Mutex<TcpStream>,
    shard: usize,
}

impl ConnHandle {
    fn send(&self, msg: &Message) -> Result<(), CommError> {
        use std::io::Write;
        let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        write_frame(&mut *stream, self.shard, msg)?;
        stream
            .flush()
            .map_err(|e| CommError::Io(format!("response flush failed: {e}")))
    }
}

/// A running serve shard.  Dropping it (or calling [`SolveServer::shutdown`])
/// closes the listener and joins the accept thread; jobs already submitted
/// still run and are answered.
pub struct SolveServer {
    inner: Arc<Inner>,
    local_addr: std::net::SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl SolveServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    pub fn start(addr: &str, config: ServeConfig) -> Result<SolveServer, ServeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Io(format!("bind {addr} failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr failed: {e}")))?;
        // Room for every lane at its limit at once: a full low lane must not
        // take the queue slots a high request is admitted to.
        let engine = Engine::new(EngineConfig {
            queue_capacity: (config.engine.queue_capacity)
                .max(config.lane_limits.iter().sum::<usize>()),
            ..config.engine.clone()
        });
        let inner = Arc::new(Inner {
            config,
            engine,
            known: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name(format!("msplit-serve-accept-{}", inner.config.shard))
            .spawn(move || accept_loop(&listener, &accept_inner))
            .map_err(|e| ServeError::Io(format!("spawning accept thread: {e}")))?;
        Ok(SolveServer {
            inner,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the shard is listening on.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the accept thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SolveServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_inner = Arc::clone(inner);
        let _ = std::thread::Builder::new()
            .name(format!("msplit-serve-conn-{}", inner.config.shard))
            .spawn(move || {
                let _ = serve_connection(stream, &conn_inner);
            });
    }
}

/// Handles one client connection: handshake, then a request loop.
fn serve_connection(mut stream: TcpStream, inner: &Arc<Inner>) -> Result<(), CommError> {
    stream
        .set_nodelay(true)
        .map_err(|e| CommError::Io(format!("socket setup: {e}")))?;
    let hello = Handshake::read_from(&mut stream)?;
    if hello.world_size != 0 {
        // A mesh rank dialed a serve port: refuse loudly at connect time.
        return Err(CommError::Codec(format!(
            "serve port received a mesh handshake (world_size {})",
            hello.world_size
        )));
    }
    // Echo the handshake with this shard's identity; a nonzero fingerprint
    // pins the connection to that matrix.
    let pinned = (hello.fingerprint != 0).then_some(hello.fingerprint);
    Handshake {
        rank: inner.config.shard,
        world_size: 0,
        fingerprint: hello.fingerprint,
    }
    .write_to(&mut stream)?;

    let reader = stream
        .try_clone()
        .map_err(|e| CommError::Io(format!("stream clone failed: {e}")))?;
    let conn = Arc::new(ConnHandle {
        stream: Mutex::new(stream),
        shard: inner.config.shard,
    });
    let mut reader = reader;
    loop {
        let (_, msg) = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(CommError::Disconnected { .. }) => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            Message::SubmitSolve {
                request_id,
                fingerprint,
                priority,
                queue_deadline_micros,
                config,
                matrix,
                rhs,
            } => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    reject(
                        inner,
                        &conn,
                        request_id,
                        RejectCode::ShuttingDown,
                        0,
                        "shard is shutting down",
                    );
                    continue;
                }
                if let Some(pin) = pinned {
                    if fingerprint != pin {
                        reject(
                            inner,
                            &conn,
                            request_id,
                            RejectCode::Invalid,
                            0,
                            &format!("connection is pinned to fingerprint {pin:#x}"),
                        );
                        continue;
                    }
                }
                handle_submit(
                    inner,
                    &conn,
                    request_id,
                    fingerprint,
                    priority,
                    queue_deadline_micros,
                    &config,
                    matrix,
                    rhs,
                );
            }
            Message::StatsQuery => {
                let _ = conn.send(&server_stats(inner));
            }
            Message::Halt => return Ok(()),
            other => {
                return Err(CommError::Codec(format!(
                    "unexpected frame on a serve connection: {other:?}"
                )))
            }
        }
    }
}

fn reject(
    inner: &Inner,
    conn: &ConnHandle,
    request_id: u64,
    code: RejectCode,
    retry_after_micros: u64,
    detail: &str,
) {
    inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
    let _ = conn.send(&Message::Reject {
        request_id,
        code,
        retry_after_micros,
        detail: detail.to_string(),
    });
}

fn server_stats(inner: &Inner) -> Message {
    let report = inner.engine.report();
    let depths = inner.engine.lane_depths();
    Message::ServerStats {
        shard: inner.config.shard as u64,
        completed: inner.counters.completed.load(Ordering::Relaxed),
        rejected: inner.counters.rejected.load(Ordering::Relaxed),
        coalesced: 0,
        batches: inner.counters.batches.load(Ordering::Relaxed),
        cache_evictions: report.cache_evictions,
        single_flight_waits: report.single_flight_waits,
        single_flight_wait_micros: (report.single_flight_wait_seconds * 1e6) as u64,
        sparse_fastpath_hits: report.sparse_fastpath_hits,
        dense_fallbacks: report.dense_fallbacks,
        mean_reach_ppm: 0,
        queue_depths: depths.map(|d| d as u64),
    }
}

/// Admission and dispatch of one submit.
#[allow(clippy::too_many_arguments)]
fn handle_submit(
    inner: &Arc<Inner>,
    conn: &Arc<ConnHandle>,
    request_id: u64,
    fingerprint: u64,
    priority: u8,
    queue_deadline_micros: u64,
    config_blob: &[u8],
    matrix_blob: Vec<u8>,
    rhs: Vec<f64>,
) {
    let config = match codec::decode_config(config_blob) {
        Ok(c) => c,
        Err(e) => {
            reject(
                inner,
                conn,
                request_id,
                RejectCode::Invalid,
                0,
                &format!("{e}"),
            );
            return;
        }
    };
    let priority = match priority {
        0 => Priority::High,
        1 => Priority::Normal,
        2 => Priority::Low,
        other => {
            reject(
                inner,
                conn,
                request_id,
                RejectCode::Invalid,
                0,
                &format!("unknown priority lane {other}"),
            );
            return;
        }
    };

    // Resolve the matrix: an empty blob means "you have seen this
    // fingerprint before"; a non-empty blob is decoded, checked against the
    // announced fingerprint and remembered.
    let matrix: Arc<CsrMatrix> = if matrix_blob.is_empty() {
        match inner
            .known
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&fingerprint)
        {
            Some(a) => Arc::clone(a),
            None => {
                reject(
                    inner,
                    conn,
                    request_id,
                    RejectCode::Invalid,
                    0,
                    "unknown matrix: resend with the matrix blob",
                );
                return;
            }
        }
    } else {
        let a = match codec::decode_matrix(&matrix_blob) {
            Ok(a) => a,
            Err(e) => {
                reject(
                    inner,
                    conn,
                    request_id,
                    RejectCode::Invalid,
                    0,
                    &format!("{e}"),
                );
                return;
            }
        };
        if a.fingerprint() != fingerprint {
            reject(
                inner,
                conn,
                request_id,
                RejectCode::Invalid,
                0,
                &format!(
                    "announced fingerprint {fingerprint:#x} but the matrix hashes to {:#x}",
                    a.fingerprint()
                ),
            );
            return;
        }
        let a = Arc::new(a);
        inner
            .known
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(fingerprint)
            .or_insert_with(|| Arc::clone(&a));
        a
    };

    let warm = rhs.is_empty();
    if !warm && rhs.len() != matrix.rows() {
        reject(
            inner,
            conn,
            request_id,
            RejectCode::Invalid,
            0,
            &format!(
                "right-hand side has {} entries, the matrix order is {}",
                rhs.len(),
                matrix.rows()
            ),
        );
        return;
    }

    // A warm request solves a zero right-hand side: its job's work is the
    // factorization, and its answer is not sent.
    let b = if warm { vec![0.0; matrix.rows()] } else { rhs };
    let mut request = SolveRequest::new(matrix, RhsPayload::Single(b))
        .with_config(config)
        .with_priority(priority);
    if !warm && queue_deadline_micros > 0 {
        request = request.with_timeout(Duration::from_micros(queue_deadline_micros));
    }
    let admitted_at = Instant::now();
    // Admission control: the lane budget covers the lane's queued jobs, and
    // the engine checks it and enqueues in one step.
    let lane = priority.lane();
    let limit = inner.config.lane_limits[lane];
    let handle = match inner.engine.try_submit_within(request, limit) {
        Ok(handle) => handle,
        Err(e) => {
            let (code, retry) = map_engine_error(inner, &e);
            let detail = match e {
                EngineError::QueueFull => format!("lane {lane} is at its {limit} request limit"),
                e => format!("{e}"),
            };
            reject(inner, conn, request_id, code, retry, &detail);
            return;
        }
    };
    if !warm {
        inner.counters.batches.fetch_add(1, Ordering::Relaxed);
    }
    // A thread per job waits for it and writes the reply: a client that
    // stops reading stalls only its own answers.
    let (inner, conn) = (Arc::clone(inner), Arc::clone(conn));
    let _ = std::thread::Builder::new()
        .name("msplit-serve-dispatch".to_string())
        .spawn(move || {
            let outcome = handle.wait();
            reply(&inner, &conn, request_id, warm, admitted_at, outcome);
        });
}

fn map_engine_error(inner: &Inner, e: &EngineError) -> (RejectCode, u64) {
    match e {
        EngineError::QueueFull => (RejectCode::QueueFull, retry_after_micros(inner)),
        EngineError::ShuttingDown => (RejectCode::ShuttingDown, 0),
        EngineError::TimedOut => (RejectCode::DeadlineExpired, retry_after_micros(inner)),
        EngineError::Cancelled | EngineError::InvalidRequest(_) | EngineError::Solver(_) => {
            (RejectCode::Invalid, 0)
        }
    }
}

/// The retry-after hint of a load-shedding reject: the engine's mean time
/// per completed job (solve plus factorization), at least 1 µs.
fn retry_after_micros(inner: &Inner) -> u64 {
    let report = inner.engine.report();
    let busy_seconds = report.solve_seconds + report.factorize_seconds;
    let per_job = busy_seconds * 1e6 / report.jobs_completed.max(1) as f64;
    (per_job as u64).max(1)
}

/// Answers one request from its job's outcome.
fn reply(
    inner: &Inner,
    conn: &ConnHandle,
    request_id: u64,
    warm: bool,
    admitted_at: Instant,
    outcome: Result<Arc<JobOutcome>, EngineError>,
) {
    let solved = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            let (code, retry) = map_engine_error(inner, &e);
            reject(inner, conn, request_id, code, retry, &format!("{e}"));
            return;
        }
    };
    let JobOutcome::Single(o) = &*solved;
    let (iterations, x, solve_seconds) = if warm {
        (0, &[][..], 0.0)
    } else {
        (o.stop.iterations, &o.x[..], o.wall_seconds)
    };
    if !warm && !o.stop.converged() {
        reject(
            inner,
            conn,
            request_id,
            RejectCode::Invalid,
            0,
            &format!("did not converge within {iterations} iterations"),
        );
        return;
    }
    // Queue latency = admission to completion minus the request's own
    // solve: the engine queue wait and any factorization count against it.
    let total_micros = admitted_at.elapsed().as_micros() as u64;
    let solve_micros = (solve_seconds * 1e6) as u64;
    inner.counters.completed.fetch_add(1, Ordering::Relaxed);
    let _ = conn.send(&Message::SolveResult {
        request_id,
        iterations,
        coalesced: 1,
        queue_micros: total_micros.saturating_sub(solve_micros),
        x: x.to_vec(),
    });
}
