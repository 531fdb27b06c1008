//! One shard of the solve fleet: listener, admission control, coalescer.
//!
//! A [`SolveServer`] accepts serve-protocol connections (handshakes with
//! `world_size == 0`), admits [`Message::SubmitSolve`] requests against
//! per-lane queue limits, and hands them to the embedded
//! [`msplit_engine::Engine`].  Compatible single-RHS stationary requests —
//! same matrix fingerprint *and* identical solver configuration, i.e. the
//! same [`MatrixKey`] — that arrive within one coalescing window are merged
//! into a single batched sweep (a Krylov request is dispatched alone at
//! once).  The batch driver freezes every column at the exact
//! iteration a solo run of that column would stop (see
//! `msplit_core::runtime::ColumnBoard`), so a coalesced response is bitwise
//! identical to the response the request would have received alone; the
//! merge changes latency, never bits.
//!
//! Everything here load-sheds instead of blocking: a full lane, an expired
//! queue deadline or a full engine queue produce a typed [`Message::Reject`]
//! with a retry-after hint, and the connection stays usable.

use crate::codec;
use crate::ServeError;
use msplit_comm::wire::{read_frame, write_frame, Handshake};
use msplit_comm::{CommError, Message, RejectCode};
use msplit_core::solver::Method;
use msplit_engine::{
    Engine, EngineConfig, EngineError, JobOutcome, MatrixKey, Priority, RhsPayload, SolveRequest,
};
use msplit_sparse::CsrMatrix;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizing and policy of one serve shard.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard index reported in [`Message::ServerStats`] and used as the
    /// `from` rank of response frames.
    pub shard: usize,
    /// Admission limit per priority lane (highest priority first): a
    /// submit whose lane already holds this many queued-or-pending requests
    /// is rejected with [`RejectCode::QueueFull`] instead of blocking.
    pub lane_limits: [usize; Priority::COUNT],
    /// How long the coalescer holds the first request of a [`MatrixKey`]
    /// group open for compatible requests to join it.
    pub coalesce_window: Duration,
    /// Maximum requests merged into one sweep; a group at this size flushes
    /// immediately.
    pub max_batch: usize,
    /// Sizing of the embedded engine (workers, queue, cache).
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shard: 0,
            lane_limits: [16, 32, 64],
            coalesce_window: Duration::from_millis(5),
            max_batch: 32,
            engine: EngineConfig::default(),
        }
    }
}

/// One queued request waiting in a coalescing group.
struct Member {
    request_id: u64,
    conn: Arc<ConnHandle>,
    rhs: Vec<f64>,
    admitted_at: Instant,
    deadline: Option<Instant>,
}

/// Requests for one [`MatrixKey`] collected during a coalescing window.
struct Group {
    matrix: Arc<CsrMatrix>,
    config: msplit_core::solver::MultisplittingConfig,
    priority: Priority,
    members: Vec<Member>,
    opened_at: Instant,
}

#[derive(Default)]
struct PendingState {
    groups: HashMap<MatrixKey, Group>,
}

impl PendingState {
    fn lane_count(&self, lane: usize) -> usize {
        self.groups
            .values()
            .filter(|g| g.priority.lane() == lane)
            .map(|g| g.members.len())
            .sum()
    }
}

/// Counters the server keeps on top of the engine's own report.
#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    rejected: AtomicU64,
    coalesced: AtomicU64,
    batches: AtomicU64,
}

struct Inner {
    config: ServeConfig,
    engine: Engine,
    pending: Mutex<PendingState>,
    pending_changed: Condvar,
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
        let mut stream = self.stream.lock();
        write_frame(&mut *stream, self.shard, msg)?;
        stream
            .flush()
            .map_err(|e| CommError::Io(format!("response flush failed: {e}")))
    }
}

/// A running serve shard.  Dropping it (or calling [`SolveServer::shutdown`])
/// closes the listener, drains in-flight work and joins every thread.
pub struct SolveServer {
    inner: Arc<Inner>,
    local_addr: std::net::SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    coalescer_thread: Option<std::thread::JoinHandle<()>>,
}

impl SolveServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    pub fn start(addr: &str, config: ServeConfig) -> Result<SolveServer, ServeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Io(format!("bind {addr} failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr failed: {e}")))?;
        let engine = Engine::new(config.engine.clone());
        let inner = Arc::new(Inner {
            config,
            engine,
            pending: Mutex::new(PendingState::default()),
            pending_changed: Condvar::new(),
            known: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name(format!("msplit-serve-accept-{}", inner.config.shard))
            .spawn(move || accept_loop(&listener, &accept_inner))
            .map_err(|e| ServeError::Io(format!("spawning accept thread: {e}")))?;
        let coalescer_inner = Arc::clone(&inner);
        let coalescer_thread = std::thread::Builder::new()
            .name(format!("msplit-serve-coalescer-{}", inner.config.shard))
            .spawn(move || coalescer_loop(&coalescer_inner))
            .map_err(|e| ServeError::Io(format!("spawning coalescer thread: {e}")))?;
        Ok(SolveServer {
            inner,
            local_addr,
            accept_thread: Some(accept_thread),
            coalescer_thread: Some(coalescer_thread),
        })
    }

    /// The address the shard is listening on.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops accepting, flushes pending groups and joins the threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.pending_changed.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.coalescer_thread.take() {
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
        coalesced: inner.counters.coalesced.load(Ordering::Relaxed),
        batches: inner.counters.batches.load(Ordering::Relaxed),
        cache_evictions: report.cache_evictions,
        single_flight_waits: report.single_flight_waits,
        single_flight_wait_micros: (report.single_flight_wait_seconds * 1e6) as u64,
        sparse_fastpath_hits: report.sparse_fastpath_hits,
        dense_fallbacks: report.dense_fallbacks,
        mean_reach_ppm: 0,
        queue_depths: {
            let pending = inner.pending.lock();
            [
                (depths[0] + pending.lane_count(0)) as u64,
                (depths[1] + pending.lane_count(1)) as u64,
                (depths[2] + pending.lane_count(2)) as u64,
            ]
        },
    }
}

/// Admission + coalescing for one submit.
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
    let window_micros = inner.config.coalesce_window.as_micros() as u64;
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
        match inner.known.lock().get(&fingerprint) {
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
            .entry(fingerprint)
            .or_insert_with(|| Arc::clone(&a));
        a
    };

    // A warm request prepares the factorization and returns immediately;
    // it bypasses the coalescer (there is nothing to merge).
    if rhs.is_empty() {
        let request = SolveRequest::new(Arc::clone(&matrix), RhsPayload::Batch(Vec::new()))
            .with_config(config)
            .with_priority(priority);
        match inner.engine.try_submit(request) {
            Ok(handle) => {
                let inner = Arc::clone(inner);
                let conn = Arc::clone(conn);
                let started = Instant::now();
                let _ = std::thread::Builder::new()
                    .name("msplit-serve-warm".to_string())
                    .spawn(move || match handle.wait() {
                        Ok(_) => {
                            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
                            let _ = conn.send(&Message::SolveResult {
                                request_id,
                                iterations: 0,
                                coalesced: 1,
                                queue_micros: started.elapsed().as_micros() as u64,
                                x: Vec::new(),
                            });
                        }
                        Err(e) => {
                            let (code, retry) = map_engine_error(&e, window_micros);
                            reject(&inner, &conn, request_id, code, retry, &format!("{e}"));
                        }
                    });
            }
            Err(e) => {
                let (code, retry) = map_engine_error(&e, window_micros);
                reject(inner, conn, request_id, code, retry, &format!("{e}"));
            }
        }
        return;
    }

    if rhs.len() != matrix.rows() {
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

    let key = MatrixKey::new(&matrix, &config);
    let now = Instant::now();
    let deadline =
        (queue_deadline_micros > 0).then(|| now + Duration::from_micros(queue_deadline_micros));
    let member = Member {
        request_id,
        conn: Arc::clone(conn),
        rhs,
        admitted_at: now,
        deadline,
    };

    let lane = priority.lane();
    let mut pending = inner.pending.lock();
    // Re-check shutdown *under the pending lock*: the coalescer's exit
    // decision (`shutdown && groups.is_empty()`) runs under this same lock,
    // so a group inserted here is guaranteed to still have a live coalescer
    // to flush it.  Without this, a submit racing `shutdown()` could park a
    // member in a group nobody will ever dispatch, and its client would
    // block forever waiting for a reply.
    if inner.shutdown.load(Ordering::SeqCst) {
        drop(pending);
        reject(
            inner,
            conn,
            request_id,
            RejectCode::ShuttingDown,
            0,
            "shard is shutting down",
        );
        return;
    }
    // Admission control: the lane budget covers both the engine's queued
    // jobs and the requests still sitting in coalescing groups.
    let occupied = inner.engine.lane_depths()[lane] + pending.lane_count(lane);
    if occupied >= inner.config.lane_limits[lane] {
        drop(pending);
        reject(
            inner,
            conn,
            request_id,
            RejectCode::QueueFull,
            window_micros.max(1),
            &format!(
                "lane {lane} is at its {} request limit",
                inner.config.lane_limits[lane]
            ),
        );
        return;
    }
    // A batch runs the stationary lockstep driver whatever the method, so a
    // Krylov request skips the coalescer and is solved alone, by its method.
    let group = Group {
        matrix,
        config,
        priority,
        members: Vec::new(),
        opened_at: now,
    };
    if !matches!(group.config.method, Method::Stationary) {
        drop(pending);
        let members = vec![member];
        return dispatch_group(inner, Group { members, ..group });
    }
    let group = pending.groups.entry(key).or_insert(group);
    // Requests can only coalesce when every batched column stops exactly
    // where its solo run would (the ColumnBoard guarantee); the group's
    // priority is raised to the most urgent member so merging never delays
    // a high-priority request behind a low lane.
    if priority > group.priority {
        group.priority = priority;
    }
    group.members.push(member);
    let full = group.members.len() >= inner.config.max_batch;
    drop(pending);
    inner.pending_changed.notify_all();
    if full {
        flush_due_groups(inner, true);
    }
}

fn map_engine_error(e: &EngineError, window_micros: u64) -> (RejectCode, u64) {
    match e {
        EngineError::QueueFull => (RejectCode::QueueFull, window_micros.max(1)),
        EngineError::ShuttingDown => (RejectCode::ShuttingDown, 0),
        EngineError::TimedOut => (RejectCode::DeadlineExpired, window_micros.max(1)),
        EngineError::Cancelled | EngineError::InvalidRequest(_) | EngineError::Solver(_) => {
            (RejectCode::Invalid, 0)
        }
    }
}

/// The coalescer: wakes when a group opens (or the window elapses), flushes
/// every group whose window closed or that reached the batch cap.
fn coalescer_loop(inner: &Arc<Inner>) {
    loop {
        {
            let mut pending = inner.pending.lock();
            if inner.shutdown.load(Ordering::SeqCst) && pending.groups.is_empty() {
                return;
            }
            let window = inner.config.coalesce_window;
            let next_due = pending.groups.values().map(|g| g.opened_at + window).min();
            match next_due {
                Some(due) => {
                    let now = Instant::now();
                    if due > now {
                        inner.pending_changed.wait_for(&mut pending, due - now);
                    }
                }
                None => {
                    inner
                        .pending_changed
                        .wait_for(&mut pending, Duration::from_millis(50));
                }
            }
        }
        flush_due_groups(inner, false);
    }
}

/// Removes and dispatches every group that is due (window elapsed or batch
/// cap reached); with `force` every group flushes regardless of age.
fn flush_due_groups(inner: &Arc<Inner>, force: bool) {
    let window = inner.config.coalesce_window;
    let max_batch = inner.config.max_batch;
    let due: Vec<Group> = {
        let mut pending = inner.pending.lock();
        let force = force || inner.shutdown.load(Ordering::SeqCst);
        let keys: Vec<MatrixKey> = pending
            .groups
            .iter()
            .filter(|(_, g)| {
                force || g.opened_at.elapsed() >= window || g.members.len() >= max_batch
            })
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .filter_map(|k| pending.groups.remove(&k))
            .collect()
    };
    for group in due {
        dispatch_group(inner, group);
    }
}

/// Submits one flushed group to the engine and demultiplexes the answer.
fn dispatch_group(inner: &Arc<Inner>, group: Group) {
    let window_micros = inner.config.coalesce_window.as_micros() as u64;
    let now = Instant::now();
    // Queue-deadline rejection: members whose budget elapsed while the group
    // was open are shed here, before any solve work is spent on them.
    let (live, expired): (Vec<Member>, Vec<Member>) = group
        .members
        .into_iter()
        .partition(|m| m.deadline.is_none_or(|d| d > now));
    for m in expired {
        reject(
            inner,
            &m.conn,
            m.request_id,
            RejectCode::DeadlineExpired,
            window_micros.max(1),
            "queue deadline expired before the solve started",
        );
    }
    if live.is_empty() {
        return;
    }

    let payload = if live.len() == 1 {
        RhsPayload::Single(live[0].rhs.clone())
    } else {
        RhsPayload::Batch(live.iter().map(|m| m.rhs.clone()).collect())
    };
    let request = SolveRequest::new(Arc::clone(&group.matrix), payload)
        .with_config(group.config.clone())
        .with_priority(group.priority);
    let handle = match inner.engine.try_submit(request) {
        Ok(h) => h,
        Err(e) => {
            let (code, retry) = map_engine_error(&e, window_micros);
            for m in &live {
                reject(inner, &m.conn, m.request_id, code, retry, &format!("{e}"));
            }
            return;
        }
    };
    inner.counters.batches.fetch_add(1, Ordering::Relaxed);
    if live.len() > 1 {
        inner
            .counters
            .coalesced
            .fetch_add(live.len() as u64, Ordering::Relaxed);
    }

    let inner = Arc::clone(inner);
    let _ = std::thread::Builder::new()
        .name("msplit-serve-dispatch".to_string())
        .spawn(move || {
            let coalesced = live.len() as u64;
            match handle.wait() {
                Ok(outcome) => match &*outcome {
                    JobOutcome::Single(o) => {
                        let m = &live[0];
                        finish_member(
                            &inner,
                            m,
                            o.stop.converged(),
                            o.stop.iterations,
                            coalesced,
                            o.wall_seconds,
                            &o.x,
                        );
                    }
                    JobOutcome::Batch(o) => {
                        for (c, m) in live.iter().enumerate() {
                            // Report the iteration the column froze at — the
                            // count a solo run would have reported — rather
                            // than the sweep count of the whole batch.
                            let iterations = o
                                .column_converged_at
                                .get(c)
                                .copied()
                                .flatten()
                                .unwrap_or(o.stop.iterations);
                            finish_member(
                                &inner,
                                m,
                                o.column_converged(c),
                                iterations,
                                coalesced,
                                o.wall_seconds,
                                &o.columns[c],
                            );
                        }
                    }
                },
                Err(e) => {
                    let (code, retry) = map_engine_error(&e, window_micros);
                    for m in &live {
                        reject(&inner, &m.conn, m.request_id, code, retry, &format!("{e}"));
                    }
                }
            }
        });
}

fn finish_member(
    inner: &Inner,
    m: &Member,
    converged: bool,
    iterations: u64,
    coalesced: u64,
    solve_seconds: f64,
    x: &[f64],
) {
    if !converged {
        reject(
            inner,
            &m.conn,
            m.request_id,
            RejectCode::Invalid,
            0,
            &format!("did not converge within {iterations} iterations"),
        );
        return;
    }
    // Queue latency = admission to completion minus the solve itself; the
    // coalescing hold and the engine queue wait both count against it.
    let total_micros = m.admitted_at.elapsed().as_micros() as u64;
    let solve_micros = (solve_seconds * 1e6) as u64;
    inner.counters.completed.fetch_add(1, Ordering::Relaxed);
    let _ = m.conn.send(&Message::SolveResult {
        request_id: m.request_id,
        iterations,
        coalesced,
        queue_micros: total_micros.saturating_sub(solve_micros),
        x: x.to_vec(),
    });
}
