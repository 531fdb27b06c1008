//! Fleet client: fingerprint routing, ring-retry, speculative warming.
//!
//! A [`ServeClient`] holds one multiplexed connection per shard.  Requests
//! route by the matrix fingerprint on a consistent-hash ring, so every
//! client sends a given matrix to the same shard — which is what makes the
//! server-side [`FactorizationCache`](msplit_engine::FactorizationCache)
//! sharding effective.  When a shard dies
//! or sheds load, the client walks the ring to the next distinct shard and
//! retries; because the routing is a ring (not a modulo), the death of one
//! shard only remaps the fingerprints that shard owned.

use crate::codec;
use crate::ServeError;
use msplit_comm::wire::{read_frame, write_frame, Handshake};
use msplit_comm::{CommError, Message, RejectCode};
use msplit_core::solver::MultisplittingConfig;
use msplit_sparse::fingerprint::Fnv64;
use msplit_sparse::CsrMatrix;
use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// Virtual points each shard contributes to the ring: enough that removing
/// one shard spreads its keys roughly evenly over the survivors.
const RING_REPLICAS: usize = 17;

/// A successful serve response.
#[derive(Debug, Clone)]
pub struct ServeSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Outer iterations the solve took.
    pub iterations: u64,
    /// Requests served by the job that produced this answer: always 1,
    /// since every request is its own engine job.
    pub coalesced: u64,
    /// Microseconds spent queued (admission to solve, excluding the solve).
    pub queue_micros: u64,
    /// Index of the shard that answered.
    pub shard: usize,
}

/// Knobs of a [`ServeClient`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Scheduling lane requested for solves (0 = highest priority).
    pub priority: u8,
    /// Queue-deadline budget attached to every request (None = unbounded).
    pub queue_deadline: Option<Duration>,
    /// Budget for dialing one shard.
    pub connect_timeout: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            priority: 1,
            queue_deadline: None,
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// One multiplexed connection to a shard: requests are written under a lock
/// and a reader thread routes responses back to waiters by request id, so
/// many threads can have solves in flight on the same socket.
struct NodeConn {
    writer: Mutex<TcpStream>,
    waiters: Arc<Mutex<HashMap<u64, mpsc::SyncSender<Message>>>>,
    alive: Arc<AtomicBool>,
    shard: usize,
}

impl NodeConn {
    fn open(addr: &str, timeout: Duration) -> Result<NodeConn, ServeError> {
        let sock_addr: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| ServeError::Io(format!("bad shard address {addr}: {e}")))?;
        let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
            .map_err(|e| ServeError::Io(format!("connect {addr} failed: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| ServeError::Io(format!("socket setup: {e}")))?;
        // Serve-connection handshake: world_size 0, unpinned (fingerprint 0)
        // so one connection can carry requests for many matrices.
        Handshake {
            rank: 0,
            world_size: 0,
            fingerprint: 0,
        }
        .write_to(&mut stream)
        .map_err(ServeError::Comm)?;
        let echo = Handshake::read_from(&mut stream).map_err(ServeError::Comm)?;
        let shard = echo.rank;

        let waiters: Arc<Mutex<HashMap<u64, mpsc::SyncSender<Message>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let alive = Arc::new(AtomicBool::new(true));
        let mut reader = stream
            .try_clone()
            .map_err(|e| ServeError::Io(format!("stream clone failed: {e}")))?;
        {
            let waiters = Arc::clone(&waiters);
            let alive = Arc::clone(&alive);
            std::thread::Builder::new()
                .name(format!("msplit-serve-client-reader-{shard}"))
                .spawn(move || loop {
                    match read_frame(&mut reader) {
                        Ok((_, msg)) => {
                            let slot = match &msg {
                                Message::SolveResult { request_id, .. }
                                | Message::Reject { request_id, .. } => *request_id,
                                // Stats replies use the reserved id 0 slot.
                                Message::ServerStats { .. } => 0,
                                _ => continue,
                            };
                            let waiter = waiters
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .remove(&slot);
                            if let Some(tx) = waiter {
                                let _ = tx.send(msg);
                            }
                        }
                        Err(_) => {
                            alive.store(false, Ordering::SeqCst);
                            // Fail every outstanding waiter so ring-retry can
                            // move on instead of hanging.
                            waiters
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .clear();
                            return;
                        }
                    }
                })
                .map_err(|e| ServeError::Io(format!("spawning reader thread: {e}")))?;
        }
        Ok(NodeConn {
            writer: Mutex::new(stream),
            waiters,
            alive,
            shard,
        })
    }

    /// Sends `msg` and waits for the response routed to `wait_id`.
    fn round_trip(&self, wait_id: u64, msg: &Message) -> Result<Message, ServeError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.waiters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(wait_id, tx);
        let send_result = {
            use std::io::Write;
            let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            write_frame(&mut *writer, 0, msg).and_then(|()| {
                writer
                    .flush()
                    .map_err(|e| CommError::Io(format!("request flush failed: {e}")))
            })
        };
        if let Err(e) = send_result {
            self.waiters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&wait_id);
            self.alive.store(false, Ordering::SeqCst);
            return Err(ServeError::Comm(e));
        }
        match rx.recv() {
            Ok(reply) => Ok(reply),
            // The reader thread dropped the sender: the connection died.
            Err(_) => Err(ServeError::Io(format!(
                "shard {} connection lost mid-request",
                self.shard
            ))),
        }
    }
}

/// A client of a sharded solve fleet.
pub struct ServeClient {
    addrs: Vec<String>,
    /// Sorted (hash, node index) ring points.
    ring: Vec<(u64, usize)>,
    conns: Mutex<HashMap<usize, Arc<NodeConn>>>,
    /// `(node, fingerprint)` pairs whose matrix bytes a shard already holds,
    /// so repeat solves skip the matrix blob.
    sent_matrices: Mutex<HashSet<(usize, u64)>>,
    next_request: AtomicU64,
    options: ClientOptions,
}

fn ring_hash(addr: &str, replica: usize) -> u64 {
    let mut h = Fnv64::new();
    for b in addr.bytes() {
        h.mix(b as u64);
    }
    h.mix(replica as u64);
    h.finish()
}

impl ServeClient {
    /// Builds a client over the given shard addresses (`host:port`).
    pub fn new(addrs: &[String], options: ClientOptions) -> Result<ServeClient, ServeError> {
        if addrs.is_empty() {
            return Err(ServeError::Protocol("no shard addresses given".to_string()));
        }
        let mut ring = Vec::with_capacity(addrs.len() * RING_REPLICAS);
        for (i, addr) in addrs.iter().enumerate() {
            for r in 0..RING_REPLICAS {
                ring.push((ring_hash(addr, r), i));
            }
        }
        ring.sort_unstable();
        Ok(ServeClient {
            addrs: addrs.to_vec(),
            ring,
            conns: Mutex::new(HashMap::new()),
            sent_matrices: Mutex::new(HashSet::new()),
            next_request: AtomicU64::new(1),
            options,
        })
    }

    /// The distinct node indices to try for `fingerprint`, primary first,
    /// then ring successors.
    fn route(&self, fingerprint: u64) -> Vec<usize> {
        let start = self
            .ring
            .iter()
            .position(|&(h, _)| h >= fingerprint)
            .unwrap_or(0);
        let mut order = Vec::with_capacity(self.addrs.len());
        for k in 0..self.ring.len() {
            let (_, node) = self.ring[(start + k) % self.ring.len()];
            if !order.contains(&node) {
                order.push(node);
                if order.len() == self.addrs.len() {
                    break;
                }
            }
        }
        order
    }

    fn connection(&self, node: usize) -> Result<Arc<NodeConn>, ServeError> {
        let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(conn) = conns.get(&node) {
            if conn.alive.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
            conns.remove(&node);
            // The connection died; anything the shard learned may be gone
            // with it (process death), so forget what we sent it.
            self.sent_matrices
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .retain(|(n, _)| *n != node);
        }
        let conn = Arc::new(NodeConn::open(
            &self.addrs[node],
            self.options.connect_timeout,
        )?);
        conns.insert(node, Arc::clone(&conn));
        Ok(conn)
    }

    fn drop_connection(&self, node: usize) {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&node);
        self.sent_matrices
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(n, _)| *n != node);
    }

    fn submit_message(
        &self,
        request_id: u64,
        a: &CsrMatrix,
        fingerprint: u64,
        config: &MultisplittingConfig,
        rhs: &[f64],
        include_matrix: bool,
    ) -> Message {
        Message::SubmitSolve {
            request_id,
            fingerprint,
            priority: self.options.priority,
            queue_deadline_micros: self
                .options
                .queue_deadline
                .map_or(0, |d| d.as_micros() as u64),
            config: codec::encode_config(config),
            matrix: if include_matrix {
                codec::encode_matrix(a)
            } else {
                Vec::new()
            },
            rhs: rhs.to_vec(),
        }
    }

    /// One request/response attempt against `node`; `rhs` empty = warm.
    fn attempt(
        &self,
        node: usize,
        a: &CsrMatrix,
        fingerprint: u64,
        config: &MultisplittingConfig,
        rhs: &[f64],
    ) -> Result<ServeSolution, ServeError> {
        let conn = self.connection(node)?;
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let already_sent = self
            .sent_matrices
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&(node, fingerprint));
        let msg = self.submit_message(request_id, a, fingerprint, config, rhs, !already_sent);
        let mut reply = conn.round_trip(request_id, &msg)?;
        if let Message::Reject {
            code: RejectCode::Invalid,
            ref detail,
            ..
        } = reply
        {
            // The shard restarted and lost the matrix: resend it once.
            if already_sent && detail.contains("unknown matrix") {
                self.sent_matrices
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&(node, fingerprint));
                let retry_id = self.next_request.fetch_add(1, Ordering::Relaxed);
                let msg = self.submit_message(retry_id, a, fingerprint, config, rhs, true);
                reply = conn.round_trip(retry_id, &msg)?;
            }
        }
        match reply {
            Message::SolveResult {
                iterations,
                coalesced,
                queue_micros,
                x,
                ..
            } => {
                self.sent_matrices
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert((node, fingerprint));
                Ok(ServeSolution {
                    x,
                    iterations,
                    coalesced,
                    queue_micros,
                    shard: conn.shard,
                })
            }
            Message::Reject {
                code,
                retry_after_micros,
                detail,
                ..
            } => Err(ServeError::Rejected {
                code,
                retry_after_micros,
                detail,
            }),
            other => Err(ServeError::Protocol(format!(
                "unexpected reply to a solve: {other:?}"
            ))),
        }
    }

    /// Solves `a x = rhs`, routing by fingerprint and walking the ring on
    /// shard death or load shedding.  The answer is bitwise identical to a
    /// direct [`PreparedSystem::solve`](msplit_core::PreparedSystem) with the
    /// same configuration.
    pub fn solve(
        &self,
        a: &CsrMatrix,
        config: &MultisplittingConfig,
        rhs: &[f64],
    ) -> Result<ServeSolution, ServeError> {
        let fingerprint = a.fingerprint();
        let mut last_err = None;
        for node in self.route(fingerprint) {
            match self.attempt(node, a, fingerprint, config, rhs) {
                Ok(solution) => return Ok(solution),
                // Shard gone or shedding: walk the ring.
                Err(e @ (ServeError::Io(_) | ServeError::Comm(_))) => {
                    self.drop_connection(node);
                    last_err = Some(e);
                }
                Err(
                    e @ ServeError::Rejected {
                        code: RejectCode::QueueFull | RejectCode::ShuttingDown,
                        ..
                    },
                ) => last_err = Some(e),
                // Invalid / deadline-expired will not improve elsewhere.
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| ServeError::Protocol("no shard reachable".to_string())))
    }

    /// Speculatively warms the factorization of `(a, config)` on the shard
    /// that owns the fingerprint *and* its ring successor, so that a later
    /// solve is a cache hit even if the owner dies in between.  Errors are
    /// reported but non-fatal to subsequent solves.
    pub fn warm(&self, a: &CsrMatrix, config: &MultisplittingConfig) -> Result<usize, ServeError> {
        let fingerprint = a.fingerprint();
        let order = self.route(fingerprint);
        let mut warmed = 0usize;
        let mut last_err = None;
        for node in order.into_iter().take(2) {
            match self.attempt(node, a, fingerprint, config, &[]) {
                Ok(_) => warmed += 1,
                Err(e) => {
                    self.drop_connection(node);
                    last_err = Some(e);
                }
            }
        }
        if warmed == 0 {
            Err(last_err.unwrap_or_else(|| ServeError::Protocol("no shard reachable".to_string())))
        } else {
            Ok(warmed)
        }
    }

    /// Fetches a stats snapshot from every reachable shard.
    pub fn stats(&self) -> Vec<Message> {
        let mut out = Vec::new();
        for node in 0..self.addrs.len() {
            let Ok(conn) = self.connection(node) else {
                continue;
            };
            if let Ok(reply @ Message::ServerStats { .. }) =
                conn.round_trip(0, &Message::StatsQuery)
            {
                out.push(reply);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(addrs: &[&str]) -> ServeClient {
        let addrs: Vec<String> = addrs.iter().map(|s| s.to_string()).collect();
        ServeClient::new(&addrs, ClientOptions::default()).unwrap()
    }

    #[test]
    fn route_is_deterministic_and_covers_every_node() {
        let c = client(&["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]);
        for fp in [0u64, 1, 99, u64::MAX, 0xDEAD_BEEF] {
            let order = c.route(fp);
            assert_eq!(order.len(), 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert_eq!(order, c.route(fp), "routing must be deterministic");
        }
    }

    #[test]
    fn ring_spreads_fingerprints_over_shards() {
        let c = client(&["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]);
        let mut counts = [0usize; 3];
        for i in 0..3000u64 {
            // Spread probes over the hash space rather than clustering at
            // small integers.
            let mut h = Fnv64::new();
            h.mix(i);
            counts[c.route(h.finish())[0]] += 1;
        }
        for (i, &n) in counts.iter().enumerate() {
            assert!(
                n > 300,
                "shard {i} owns only {n}/3000 fingerprints; ring is badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_remaps_its_own_keys() {
        let three = client(&["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]);
        let two = client(&["127.0.0.1:7001", "127.0.0.1:7002"]);
        let mut moved = 0usize;
        let mut total = 0usize;
        for i in 0..2000u64 {
            let mut h = Fnv64::new();
            h.mix(i);
            let fp = h.finish();
            let before = three.route(fp)[0];
            if before == 2 {
                continue; // owned by the removed shard; must remap
            }
            total += 1;
            if two.route(fp)[0] != before {
                moved += 1;
            }
        }
        assert!(
            moved * 10 < total,
            "{moved}/{total} surviving keys moved; consistent hashing should keep them put"
        );
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(ServeClient::new(&[], ClientOptions::default()).is_err());
    }
}
