//! One shard of the solve fleet: listener, admission control, coalescing.
//!
//! A [`SolveServer`] accepts serve-protocol connections (handshakes with
//! `world_size == 0`), admits [`Message::SubmitSolve`] requests against
//! per-lane queue limits, and hands them to the embedded
//! [`msplit_engine::Engine`].  The shard batches only while it is busy: a
//! stationary single-RHS request that finds fewer of the shard's jobs in
//! flight than engine workers is dispatched at once, alone; one that finds
//! every worker busy joins the pending group of compatible requests — same
//! matrix fingerprint *and* identical solver configuration, i.e. the same
//! [`MatrixKey`] — and each completing job hands its slot to the most urgent,
//! then oldest, group, which runs as one engine job (a Krylov request is
//! dispatched alone at once).  The job solves each member's right-hand side
//! with its own `PreparedSystem::solve`, one after another, so a coalesced
//! response is the response the request would have received alone, bit for
//! bit and with the same iteration count; the merge changes latency, never
//! bits.
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
    Engine, EngineConfig, EngineError, JobHandle, JobOutcome, MatrixKey, Priority, RhsPayload,
    SolveRequest,
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
    /// submit whose lane already holds this many queued-or-pending requests
    /// is rejected with [`RejectCode::QueueFull`] instead of blocking.
    pub lane_limits: [usize; Priority::COUNT],
    /// Maximum requests merged into one job; a group at this size flushes
    /// immediately, busy workers or not.
    pub max_batch: usize,
    /// Sizing of the embedded engine (workers, queue, cache).  Its worker
    /// count is also the number of jobs the shard keeps in flight before
    /// requests start to gather into batches.
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shard: 0,
            lane_limits: [16, 32, 64],
            max_batch: 32,
            engine: EngineConfig::default(),
        }
    }
}

/// One admitted request.  A warm request carries an empty right-hand side.
struct Member {
    request_id: u64,
    conn: Arc<ConnHandle>,
    rhs: Vec<f64>,
    admitted_at: Instant,
    deadline: Option<Instant>,
}

/// Requests for one [`MatrixKey`], dispatched as one engine job.
struct Group {
    matrix: Arc<CsrMatrix>,
    config: msplit_core::solver::MultisplittingConfig,
    priority: Priority,
    members: Vec<Member>,
    opened_at: Instant,
}

#[derive(Default)]
struct PendingState {
    /// Stationary requests gathered while every worker was busy.
    groups: HashMap<MatrixKey, Group>,
    /// The shard's jobs whose outcome is not in yet, one per live [`Slot`]
    /// (the engine's queue depth would race its workers' pops).  While
    /// `groups` is non-empty this is at least the worker count.
    in_flight: usize,
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
    /// Matrices this shard has decoded before, keyed by fingerprint, so a
    /// warmed client can submit with an empty matrix blob.
    known: Mutex<HashMap<u64, Arc<CsrMatrix>>>,
    counters: Counters,
    /// Set under the `pending` lock, so no request joins a group after the
    /// shutdown flush.
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
/// closes the listener, dispatches every pending group and joins the accept
/// thread.
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
        let engine = Engine::new(config.engine.clone());
        let inner = Arc::new(Inner {
            config,
            engine,
            pending: Mutex::new(PendingState::default()),
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

    /// Stops accepting, dispatches pending groups and joins the accept thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        let groups: Vec<Group> = {
            let mut pending = self.inner.lock_pending();
            self.inner.shutdown.store(true, Ordering::SeqCst);
            pending.in_flight += pending.groups.len();
            pending.groups.drain().map(|(_, g)| g).collect()
        };
        for group in groups {
            dispatch(Slot(Arc::clone(&self.inner)), group);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Inner {
    fn lock_pending(&self) -> std::sync::MutexGuard<'_, PendingState> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
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
            let pending = inner.lock_pending();
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

    let now = Instant::now();
    let deadline = (!warm && queue_deadline_micros > 0)
        .then(|| now + Duration::from_micros(queue_deadline_micros));
    let member = Member {
        request_id,
        conn: Arc::clone(conn),
        rhs,
        admitted_at: now,
        deadline,
    };

    let lane = priority.lane();
    let mut pending = inner.lock_pending();
    // Re-check shutdown under the pending lock: the shutdown flush takes
    // the groups under this same lock, so a request admitted here is either
    // dispatched by that flush or by a job completion, never stranded.
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
    // jobs and the requests still waiting in groups.  A warm request is
    // not counted against it.
    let occupied = inner.engine.lane_depths()[lane] + pending.lane_count(lane);
    if !warm && occupied >= inner.config.lane_limits[lane] {
        drop(pending);
        reject(
            inner,
            conn,
            request_id,
            RejectCode::QueueFull,
            retry_after_micros(inner),
            &format!(
                "lane {lane} is at its {} request limit",
                inner.config.lane_limits[lane]
            ),
        );
        return;
    }
    // A warm request has nothing to merge: it is dispatched at once.  So is
    // a Krylov request, alone.  A batch would solve it by its own method
    // too, each column its own solve; the rule only keeps Krylov requests
    // off the group path.
    let due = if warm || !matches!(config.method, Method::Stationary) {
        Some(Group {
            matrix,
            config,
            priority,
            members: vec![member],
            opened_at: now,
        })
    } else {
        let key = MatrixKey::new(&matrix, &config);
        let group = pending.groups.entry(key).or_insert_with(|| Group {
            matrix,
            config,
            priority,
            members: Vec::new(),
            opened_at: now,
        });
        // The group runs at its most urgent member's priority, so merging
        // never delays a high-priority request behind a low lane.
        group.priority = group.priority.max(priority);
        group.members.push(member);
        let full = group.members.len() >= inner.config.max_batch;
        // An idle worker takes the request now (the group then holds only
        // it); otherwise it waits for a job of this shard to complete.
        if full || pending.in_flight < inner.config.engine.workers {
            pending.groups.remove(&key)
        } else {
            None
        }
    };
    if let Some(group) = due {
        pending.in_flight += 1;
        drop(pending);
        dispatch(Slot(Arc::clone(inner)), group);
    }
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

/// One of the shard's `in_flight` jobs, counted by whoever makes it.  Once
/// the outcome is in, or the job never ran or its thread failed, dropping it
/// hands the slot to the most urgent, then oldest, due group, if any.
struct Slot(Arc<Inner>);

impl Drop for Slot {
    fn drop(&mut self) {
        // A group that cannot run passes the slot on in turn.
        while let Some(group) = next_group(&self.0) {
            if let Some(job) = submit(&self.0, group) {
                run(job, Slot(Arc::clone(&self.0)));
                return;
            }
        }
    }
}

/// Frees one slot and, if that leaves a worker for it, takes the slot back
/// for the most urgent, then oldest, pending group.
fn next_group(inner: &Inner) -> Option<Group> {
    let mut pending = inner.lock_pending();
    pending.in_flight -= 1;
    if pending.in_flight >= inner.config.engine.workers {
        return None;
    }
    let key = pending
        .groups
        .iter()
        .max_by_key(|(_, g)| (g.priority, std::cmp::Reverse(g.opened_at)))
        .map(|(k, _)| *k)?;
    pending.in_flight += 1;
    pending.groups.remove(&key)
}

/// Runs `group` on `slot`; a group that cannot run drops the slot.
fn dispatch(slot: Slot, group: Group) {
    if let Some(job) = submit(&slot.0, group) {
        run(job, slot);
    }
}

/// Gives `job` a thread that waits for it and releases the slot before it
/// writes the replies: a client that stops reading stalls only its answers.
fn run(job: Job, slot: Slot) {
    let _ = std::thread::Builder::new()
        .name("msplit-serve-dispatch".to_string())
        .spawn(move || {
            let outcome = job.handle.wait();
            let inner = Arc::clone(&slot.0);
            drop(slot);
            reply(&inner, &job.members, outcome);
        });
}

/// An engine job and the requests its outcome answers.
struct Job {
    handle: JobHandle,
    members: Vec<Member>,
}

fn submit(inner: &Inner, group: Group) -> Option<Job> {
    let now = Instant::now();
    // Queue-deadline rejection: members whose budget elapsed while they
    // waited are shed here, before any solve work is spent on them.
    let (mut live, expired): (Vec<Member>, Vec<Member>) = group
        .members
        .into_iter()
        .partition(|m| m.deadline.is_none_or(|d| d > now));
    for m in expired {
        reject(
            inner,
            &m.conn,
            m.request_id,
            RejectCode::DeadlineExpired,
            retry_after_micros(inner),
            "queue deadline expired before the solve started",
        );
    }
    if live.is_empty() {
        return None;
    }

    // A warm request contributes no column: its job only prepares the
    // factorization.
    let mut columns: Vec<Vec<f64>> = live
        .iter_mut()
        .map(|m| std::mem::take(&mut m.rhs))
        .filter(|b| !b.is_empty())
        .collect();
    let solves = !columns.is_empty();
    let payload = if columns.len() == 1 {
        RhsPayload::Single(columns.swap_remove(0))
    } else {
        RhsPayload::Batch(columns)
    };
    let request = SolveRequest::new(group.matrix, payload)
        .with_config(group.config)
        .with_priority(group.priority);
    let handle = match inner.engine.try_submit(request) {
        Ok(h) => h,
        Err(e) => {
            let (code, retry) = map_engine_error(inner, &e);
            for m in &live {
                reject(inner, &m.conn, m.request_id, code, retry, &format!("{e}"));
            }
            return None;
        }
    };
    if solves {
        inner.counters.batches.fetch_add(1, Ordering::Relaxed);
    }
    if live.len() > 1 {
        inner
            .counters
            .coalesced
            .fetch_add(live.len() as u64, Ordering::Relaxed);
    }
    Some(Job {
        handle,
        members: live,
    })
}

/// Answers every member of a job on its own connection.
fn reply(inner: &Inner, members: &[Member], outcome: Result<Arc<JobOutcome>, EngineError>) {
    let coalesced = members.len() as u64;
    match outcome {
        Ok(outcome) => {
            let solved = outcome.outcomes();
            if solved.is_empty() {
                // A warm request: its job only prepared the factorization.
                for m in members {
                    finish_member(inner, m, true, 0, coalesced, 0.0, &[]);
                }
            }
            // Each member is answered from its own column's solve.
            for (m, o) in members.iter().zip(solved) {
                finish_member(
                    inner,
                    m,
                    o.stop.converged(),
                    o.stop.iterations,
                    coalesced,
                    o.wall_seconds,
                    &o.x,
                );
            }
        }
        Err(e) => {
            let (code, retry) = map_engine_error(inner, &e);
            for m in members {
                reject(inner, &m.conn, m.request_id, code, retry, &format!("{e}"));
            }
        }
    }
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
    // Queue latency = admission to completion minus the request's own
    // solve; the wait in a group, the engine queue wait and the solves of
    // the other members of its job all count against it.
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
