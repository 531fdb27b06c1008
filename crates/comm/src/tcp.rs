//! TCP transport: the wire-capable counterpart of [`crate::InProcTransport`].
//!
//! Every rank owns one endpoint.  An endpoint binds a listener, then forms a
//! full mesh with its peers: for each ordered pair `(i, j)` rank `i` opens
//! one connection to rank `j`'s listener and uses it exclusively for `i → j`
//! traffic, so each rank ends up with `world − 1` outgoing streams (writes)
//! and `world − 1` incoming streams (reads).  Connection establishment runs a
//! deterministic [`Handshake`] — rank, world size, job fingerprint — so a
//! mis-wired address list or a mismatched partition fails at connect time.
//!
//! Outgoing messages are framed ([`crate::wire`]) and queued on a **bounded
//! per-peer outbox** drained by a dedicated writer thread: a slow or dead
//! peer exerts backpressure on its own queue instead of blocking the solver
//! on a socket write.  Incoming frames are decoded by per-stream reader
//! threads feeding the same single-inbox abstraction the in-process
//! transport uses, so the drivers cannot tell the difference.
//!
//! A [`LinkDelay`] maps the grid model's [`LinkSpec`] costs onto real socket
//! sends: the writer thread sleeps a scaled fraction of the modelled
//! transfer time before each write, which is how the loopback examples make
//! 127.0.0.1 behave like the paper's two-site WAN.
//!
//! [`Handshake`]: crate::wire::Handshake
//! [`LinkSpec`]: msplit_grid::LinkSpec

use crate::message::Message;
use crate::transport::{LinkStats, Transport};
use crate::wire::{encode_frame, read_frame, Handshake};
use crate::CommError;
use msplit_grid::Grid;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError,
};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Realizes the grid model's link delays on real socket sends: before each
/// write, the writer thread sleeps `time_scale` times the modelled transfer
/// seconds of the `(from, to)` link for the frame's byte count.
#[derive(Debug, Clone)]
pub struct LinkDelay {
    /// Grid whose network model prices each link.
    pub grid: Grid,
    /// Fraction of the modelled delay actually slept (`1e-3` makes a 10 ms
    /// WAN latency cost 10 µs of real time — enough to reorder traffic,
    /// cheap enough for CI).
    pub time_scale: f64,
}

impl LinkDelay {
    fn sleep_for(&self, from: usize, to: usize, bytes: usize) -> Duration {
        match self.grid.transfer_seconds(from, to, bytes) {
            Ok(seconds) => Duration::from_secs_f64((seconds * self.time_scale).max(0.0)),
            Err(_) => Duration::ZERO,
        }
    }
}

/// Tuning knobs of a [`TcpTransport`] mesh.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Job fingerprint exchanged in the handshake (the matrix fingerprint in
    /// the distributed solver); all ranks must agree.
    pub fingerprint: u64,
    /// Budget for forming the full mesh (listen + connect + handshakes).
    pub connect_timeout: Duration,
    /// Capacity of each per-peer outbox; sends block once a peer falls this
    /// many messages behind.
    pub outbox_capacity: usize,
    /// Optional modelled per-link delay realized on sends.
    pub delay: Option<LinkDelay>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            fingerprint: 0,
            connect_timeout: Duration::from_secs(20),
            outbox_capacity: 1024,
            delay: None,
        }
    }
}

/// A bound-but-unconnected endpoint.  Binding first and connecting second
/// lets a launcher collect every rank's actual address (ephemeral ports)
/// before any rank starts dialing.
pub struct BoundTcpTransport {
    local_rank: usize,
    listener: TcpListener,
}

impl BoundTcpTransport {
    /// Binds rank `local_rank`'s listener on `listen_addr`
    /// (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(local_rank: usize, listen_addr: &str) -> Result<Self, CommError> {
        let listener = TcpListener::bind(listen_addr)
            .map_err(|e| CommError::Io(format!("rank {local_rank}: bind {listen_addr}: {e}")))?;
        Ok(BoundTcpTransport {
            local_rank,
            listener,
        })
    }

    /// The address the listener actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<String, CommError> {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .map_err(|e| CommError::Io(format!("local_addr: {e}")))
    }

    /// Forms the full mesh: connects to every peer in `addrs` (indexed by
    /// rank; `addrs[local_rank]` is ignored) and accepts every peer's
    /// incoming connection, handshaking both directions.
    pub fn connect(
        self,
        addrs: &[String],
        opts: TcpOptions,
    ) -> Result<Arc<TcpTransport>, CommError> {
        let world = addrs.len();
        let local_rank = self.local_rank;
        if local_rank >= world {
            return Err(CommError::UnknownRank {
                rank: local_rank,
                total: world,
            });
        }
        if let Some(delay) = &opts.delay {
            if delay.grid.num_machines() < world {
                return Err(CommError::Io(format!(
                    "delay grid has {} machines but the mesh has {world} ranks",
                    delay.grid.num_machines()
                )));
            }
        }
        let deadline = Instant::now() + opts.connect_timeout;
        let local_hello = Handshake {
            rank: local_rank,
            world_size: world,
            fingerprint: opts.fingerprint,
        };

        // Accept in a dedicated thread so dialing out and accepting in make
        // progress concurrently (two ranks dialing each other would deadlock
        // otherwise).
        let acceptor = {
            let listener = self.listener;
            let hello = local_hello;
            std::thread::spawn(move || accept_peers(&listener, hello, deadline))
        };

        // Dial every peer; retry while their listener is still coming up.
        let mut outboxes: Vec<Option<SyncSender<OutFrame>>> = (0..world).map(|_| None).collect();
        let mut writer_handles = Vec::new();
        for (peer, addr) in addrs.iter().enumerate() {
            if peer == local_rank {
                continue;
            }
            let stream = dial_peer(local_rank, peer, addr, local_hello, deadline)?;
            // At least one slot: a zero-capacity std channel is a rendezvous.
            let (tx, rx) = sync_channel::<OutFrame>(opts.outbox_capacity.max(1));
            outboxes[peer] = Some(tx);
            writer_handles.push(std::thread::spawn(move || writer_loop(stream, rx)));
        }

        let accepted = acceptor
            .join()
            .unwrap_or_else(|_| Err(CommError::Io("acceptor thread panicked".to_string())))?;

        let (inbox_tx, inbox_rx) = channel::<Message>();
        let live_readers = Arc::new(std::sync::atomic::AtomicUsize::new(accepted.len()));
        for (peer, stream) in accepted {
            let tx = inbox_tx.clone();
            let live = Arc::clone(&live_readers);
            std::thread::spawn(move || {
                reader_loop(peer, stream, tx);
                live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            });
        }

        Ok(Arc::new(TcpTransport {
            local_rank,
            world,
            outboxes: Mutex::new(outboxes),
            inbox_tx,
            inbox_rx: Mutex::new(inbox_rx),
            live_readers,
            stats: Mutex::new(LinkStats::default()),
            delay: opts.delay,
            writer_handles: Mutex::new(writer_handles),
        }))
    }
}

/// One frame queued for a peer, with the modelled delay to realize before
/// the write.
struct OutFrame {
    bytes: Vec<u8>,
    delay: Duration,
}

fn accept_peers(
    listener: &TcpListener,
    hello: Handshake,
    deadline: Instant,
) -> Result<Vec<(usize, TcpStream)>, CommError> {
    let world = hello.world_size;
    let expected = world - 1;
    let mut accepted: Vec<(usize, TcpStream)> = Vec::with_capacity(expected);
    let mut last_error: Option<CommError> = None;
    listener
        .set_nonblocking(true)
        .map_err(|e| CommError::Io(format!("listener nonblocking: {e}")))?;
    while accepted.len() < expected {
        match listener.accept() {
            Ok((stream, _)) => match greet_incoming(stream, hello, &accepted) {
                Ok(pair) => accepted.push(pair),
                // A stray or misconfigured connection must not take the mesh
                // down; remember the reason in case the deadline expires.
                Err(e) => last_error = Some(e),
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    let detail = last_error
                        .map(|e| format!(" (last handshake failure: {e})"))
                        .unwrap_or_default();
                    return Err(CommError::Io(format!(
                        "rank {}: timed out with {}/{expected} incoming connections{detail}",
                        hello.rank,
                        accepted.len()
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(CommError::Io(format!("accept failed: {e}"))),
        }
    }
    Ok(accepted)
}

/// How long the acceptor waits for one incoming connection's handshake.
/// Kept short: while this read blocks, legitimate peers queue behind a
/// silent stray (e.g. a port scanner), and their own handshake-ack waits
/// keep ticking.
const INCOMING_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

fn greet_incoming(
    mut stream: TcpStream,
    hello: Handshake,
    accepted: &[(usize, TcpStream)],
) -> Result<(usize, TcpStream), CommError> {
    stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_read_timeout(Some(INCOMING_HANDSHAKE_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| CommError::Io(format!("incoming socket setup: {e}")))?;
    let peer = Handshake::read_from(&mut stream)?;
    if peer.world_size != hello.world_size {
        return Err(CommError::Codec(format!(
            "peer expects a {}-rank world, local world is {}",
            peer.world_size, hello.world_size
        )));
    }
    if peer.fingerprint != hello.fingerprint {
        return Err(CommError::Codec(format!(
            "peer fingerprint {:#x} does not match local {:#x}",
            peer.fingerprint, hello.fingerprint
        )));
    }
    if peer.rank >= hello.world_size || peer.rank == hello.rank {
        return Err(CommError::UnknownRank {
            rank: peer.rank,
            total: hello.world_size,
        });
    }
    if accepted.iter().any(|(r, _)| *r == peer.rank) {
        return Err(CommError::Codec(format!(
            "duplicate incoming connection from rank {}",
            peer.rank
        )));
    }
    hello.write_to(&mut stream)?;
    stream
        .set_read_timeout(None)
        .map_err(|e| CommError::Io(format!("incoming socket setup: {e}")))?;
    Ok((peer.rank, stream))
}

/// One connect + handshake attempt against a peer.  An `Io` failure is
/// transient (listener not up yet, ack delayed behind a stray connection the
/// acceptor is busy timing out) and worth retrying; a `Codec`/`UnknownRank`
/// failure is a real misconfiguration and aborts immediately.
fn try_dial_peer(peer: usize, addr: &str, hello: Handshake) -> Result<TcpStream, CommError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| CommError::Io(format!("connect {addr}: {e}")))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| CommError::Io(format!("outgoing socket setup: {e}")))?;
    hello.write_to(&mut stream)?;
    let ack = Handshake::read_from(&mut stream)?;
    if ack.rank != peer {
        return Err(CommError::Codec(format!(
            "dialed {addr} expecting rank {peer}, found rank {} (mis-wired address list?)",
            ack.rank
        )));
    }
    if ack.world_size != hello.world_size || ack.fingerprint != hello.fingerprint {
        return Err(CommError::Codec(format!(
            "rank {peer} at {addr} disagrees on world/fingerprint"
        )));
    }
    stream
        .set_read_timeout(None)
        .map_err(|e| CommError::Io(format!("outgoing socket setup: {e}")))?;
    Ok(stream)
}

fn dial_peer(
    local_rank: usize,
    peer: usize,
    addr: &str,
    hello: Handshake,
    deadline: Instant,
) -> Result<TcpStream, CommError> {
    loop {
        match try_dial_peer(peer, addr, hello) {
            Ok(stream) => return Ok(stream),
            // Genuine protocol mismatches never heal with a retry.
            Err(e @ (CommError::Codec(_) | CommError::UnknownRank { .. })) => return Err(e),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(CommError::Io(format!(
                        "rank {local_rank}: could not reach rank {peer} at {addr} before the deadline: {e}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Drains one peer's outbox onto its socket, realizing modelled delays.
/// Exits when the outbox closes (transport dropped) or the write fails
/// (peer died) — the closed channel is what turns later sends into
/// [`CommError::Disconnected`].
fn writer_loop(stream: TcpStream, rx: Receiver<OutFrame>) {
    let mut writer = std::io::BufWriter::new(stream);
    while let Ok(frame) = rx.recv() {
        if !frame.delay.is_zero() {
            std::thread::sleep(frame.delay);
        }
        if writer.write_all(&frame.bytes).is_err() || writer.flush().is_err() {
            return;
        }
    }
    let _ = writer.flush();
}

/// Decodes frames from one incoming stream into the shared inbox.  Exits on
/// EOF, a torn frame, or a frame whose envelope names a sender other than
/// the peer the handshake pinned to this stream; such a frame never reaches
/// the inbox.  Every delivered message names that peer as its sender.  A
/// clean disconnect (peer finished and closed) is silent; anything else — a
/// torn frame, a version mismatch, a mid-frame crash, a forged envelope —
/// is reported on stderr so worker logs name the cause instead of the rank
/// just timing out later.
fn reader_loop(peer: usize, stream: TcpStream, inbox: Sender<Message>) {
    let mut reader = std::io::BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok((header, _)) if header.from as usize != peer => {
                eprintln!(
                    "msplit-comm: stream from rank {peer} failed: frame envelope names rank {}",
                    header.from
                );
                return;
            }
            Ok((_, mut msg)) => {
                // The runtime files a halo or a vote under the body's
                // sender, and this stream speaks only for `peer`.  A body
                // naming another rank is stamped rather than refused: no
                // rank relays another's frame, but an echo that sends a
                // received halo straight back (a round-trip probe) would.
                msg.set_sender(peer);
                if inbox.send(msg).is_err() {
                    return;
                }
            }
            Err(CommError::Disconnected { .. }) => return,
            Err(e) => {
                eprintln!("msplit-comm: stream from rank {peer} failed: {e}");
                return;
            }
        }
    }
}

/// A connected TCP endpoint for one rank of the mesh.
///
/// Implements [`Transport`] from this single rank's point of view: `send`
/// must originate from the local rank and `recv`/`try_recv`/`recv_timeout`
/// only serve the local inbox; addressing any other rank's inbox returns
/// [`CommError::UnknownRank`].  For a whole-mesh view inside one process
/// (every rank's endpoint behind one `Transport`), see [`LoopbackMesh`].
pub struct TcpTransport {
    local_rank: usize,
    world: usize,
    outboxes: Mutex<Vec<Option<SyncSender<OutFrame>>>>,
    inbox_tx: Sender<Message>,
    /// Only the local rank receives; the mutex lends the single-consumer
    /// receiver to `&self`, uncontended.
    inbox_rx: Mutex<Receiver<Message>>,
    /// Reader threads still attached to live peer streams.  The transport
    /// holds its own `inbox_tx` (for self-sends), so the channel alone can
    /// never observe "every peer is gone" — this counter is what lets the
    /// blocking receives report [`CommError::Disconnected`] on a dead mesh
    /// instead of hanging, matching the in-process transport's contract.
    live_readers: Arc<std::sync::atomic::AtomicUsize>,
    stats: Mutex<LinkStats>,
    delay: Option<LinkDelay>,
    writer_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TcpTransport {
    /// This endpoint's rank.
    pub fn local_rank(&self) -> usize {
        self.local_rank
    }

    /// A snapshot of the traffic sent by this endpoint.
    pub fn stats(&self) -> LinkStats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Closes the outboxes and waits for the writer threads to drain and
    /// exit, guaranteeing queued frames (e.g. a final `Halt` broadcast) hit
    /// the sockets.  Called automatically on drop.
    pub fn shutdown(&self) {
        for slot in self
            .outboxes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter_mut()
        {
            *slot = None;
        }
        let handles: Vec<_> = self
            .writer_handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpTransport {
    fn num_ranks(&self) -> usize {
        self.world
    }

    fn send(&self, from: usize, to: usize, msg: Message) -> Result<(), CommError> {
        if from != self.local_rank {
            return Err(CommError::UnknownRank {
                rank: from,
                total: self.world,
            });
        }
        if to >= self.world {
            return Err(CommError::UnknownRank {
                rank: to,
                total: self.world,
            });
        }
        // Fail loudly here rather than desync the peer's stream: a frame the
        // receiver would reject as corrupt must never leave the sender.
        crate::wire::check_frame_size(&msg)?;
        let bytes = msg.encoded_len();
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(from, to, bytes);
        if to == self.local_rank {
            return self
                .inbox_tx
                .send(msg)
                .map_err(|_| CommError::Disconnected { rank: to });
        }
        let delay = self
            .delay
            .as_ref()
            .map_or(Duration::ZERO, |d| d.sleep_for(from, to, bytes));
        let frame = OutFrame {
            bytes: encode_frame(from, &msg),
            delay,
        };
        let outbox = self.outboxes.lock().unwrap_or_else(PoisonError::into_inner)[to].clone();
        match outbox {
            Some(tx) => tx
                .send(frame)
                .map_err(|_| CommError::Disconnected { rank: to }),
            None => Err(CommError::Disconnected { rank: to }),
        }
    }

    fn recv(&self, rank: usize) -> Result<Message, CommError> {
        // Wait in slices so a dead mesh surfaces as a disconnect.
        loop {
            match self.recv_timeout(rank, DEAD_MESH_POLL) {
                Err(CommError::Timeout { .. }) => {}
                other => return other,
            }
        }
    }

    fn try_recv(&self, rank: usize) -> Result<Option<Message>, CommError> {
        self.check_local(rank)?;
        match self
            .inbox_rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .try_recv()
        {
            Ok(msg) => Ok(Some(msg)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CommError::Disconnected { rank }),
        }
    }

    fn recv_timeout(&self, rank: usize, timeout: Duration) -> Result<Message, CommError> {
        self.check_local(rank)?;
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout { rank });
            }
            match self
                .inbox_rx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .recv_timeout(DEAD_MESH_POLL.min(deadline - now))
            {
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => {
                    // Queued messages drain before this branch can hit, so a
                    // dead mesh with an empty inbox is a genuine disconnect.
                    if self.mesh_dead() {
                        return Err(CommError::Disconnected { rank });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { rank })
                }
            }
        }
    }
}

/// Poll granularity at which blocked receives re-check mesh liveness.
const DEAD_MESH_POLL: Duration = Duration::from_millis(50);

impl TcpTransport {
    /// Every peer's incoming stream is gone (their processes died or shut
    /// down).  Meaningless for a 1-rank world, which has no peers.
    fn mesh_dead(&self) -> bool {
        self.world > 1 && self.live_readers.load(std::sync::atomic::Ordering::SeqCst) == 0
    }

    fn check_local(&self, rank: usize) -> Result<(), CommError> {
        if rank != self.local_rank {
            return Err(CommError::UnknownRank {
                rank,
                total: self.world,
            });
        }
        Ok(())
    }
}

/// Every rank's TCP endpoint of one mesh, inside one process, behind the
/// whole-world [`Transport`] interface the threaded drivers expect.
///
/// This is what lets the existing synchronous and asynchronous drivers run
/// **unchanged** over real sockets: `send(from, to, …)` routes through rank
/// `from`'s endpoint and `recv(rank)` reads rank `rank`'s inbox, while every
/// byte genuinely crosses a TCP connection on the loopback interface.
///
/// One semantic difference from [`crate::InProcTransport`]: a send completes
/// when the frame is *queued*, not when it is delivered, so a message can
/// arrive after a barrier the sender has already passed.  The drivers
/// tolerate late slices by construction (stamped, stale-tolerant dependency
/// data), but the synchronous driver's iterates are no longer bitwise
/// reproducible against the in-process transport; multi-process lockstep is
/// provided by the message-based protocol in `msplit_core::distributed`.
pub struct LoopbackMesh {
    endpoints: Vec<Arc<TcpTransport>>,
}

impl LoopbackMesh {
    /// Builds a `world`-rank mesh over ephemeral 127.0.0.1 ports.
    pub fn new(world: usize, opts: TcpOptions) -> Result<Arc<Self>, CommError> {
        if world == 0 {
            return Err(CommError::Io("a mesh needs at least one rank".to_string()));
        }
        let mut bound = Vec::with_capacity(world);
        let mut addrs = Vec::with_capacity(world);
        for rank in 0..world {
            let b = BoundTcpTransport::bind(rank, "127.0.0.1:0")?;
            addrs.push(b.local_addr()?);
            bound.push(b);
        }
        // All endpoints must dial concurrently — each blocks until its
        // incoming side is complete.
        let addrs = Arc::new(addrs);
        let handles: Vec<_> = bound
            .into_iter()
            .map(|b| {
                let addrs = Arc::clone(&addrs);
                let opts = opts.clone();
                std::thread::spawn(move || b.connect(&addrs, opts))
            })
            .collect();
        let mut endpoints = Vec::with_capacity(world);
        for handle in handles {
            endpoints.push(handle.join().unwrap_or_else(|_| {
                Err(CommError::Io("mesh connect thread panicked".to_string()))
            })?);
        }
        Ok(Arc::new(LoopbackMesh { endpoints }))
    }

    /// Rank `rank`'s endpoint (e.g. to hand to a worker thread).
    pub fn endpoint(&self, rank: usize) -> Arc<TcpTransport> {
        Arc::clone(&self.endpoints[rank])
    }

    /// Merged traffic statistics over every endpoint.
    pub fn stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for ep in &self.endpoints {
            let s = ep.stats();
            for (&(f, t), &m) in &s.messages {
                *total.messages.entry((f, t)).or_default() += m;
            }
            for (&(f, t), &b) in &s.bytes {
                *total.bytes.entry((f, t)).or_default() += b;
            }
        }
        total
    }
}

impl Transport for LoopbackMesh {
    fn num_ranks(&self) -> usize {
        self.endpoints.len()
    }

    fn send(&self, from: usize, to: usize, msg: Message) -> Result<(), CommError> {
        if from >= self.endpoints.len() {
            return Err(CommError::UnknownRank {
                rank: from,
                total: self.endpoints.len(),
            });
        }
        self.endpoints[from].send(from, to, msg)
    }

    fn recv(&self, rank: usize) -> Result<Message, CommError> {
        self.check_rank(rank)?;
        self.endpoints[rank].recv(rank)
    }

    fn try_recv(&self, rank: usize) -> Result<Option<Message>, CommError> {
        self.check_rank(rank)?;
        self.endpoints[rank].try_recv(rank)
    }

    fn recv_timeout(&self, rank: usize, timeout: Duration) -> Result<Message, CommError> {
        self.check_rank(rank)?;
        self.endpoints[rank].recv_timeout(rank, timeout)
    }
}

impl LoopbackMesh {
    fn check_rank(&self, rank: usize) -> Result<(), CommError> {
        if rank >= self.endpoints.len() {
            return Err(CommError::UnknownRank {
                rank,
                total: self.endpoints.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solution(from: usize, iteration: u64, n: usize) -> Message {
        Message::Solution {
            from,
            iteration,
            offset: 3,
            values: (0..n).map(|i| i as f64 * 0.5 - 1.0).collect(),
        }
    }

    #[test]
    fn two_rank_mesh_exchanges_messages_both_ways() {
        let mesh = LoopbackMesh::new(2, TcpOptions::default()).unwrap();
        let (a, b) = (mesh.endpoint(0), mesh.endpoint(1));
        a.send(0, 1, solution(0, 1, 8)).unwrap();
        b.send(1, 0, Message::Halt).unwrap();
        assert_eq!(
            b.recv_timeout(1, Duration::from_secs(5)).unwrap(),
            solution(0, 1, 8)
        );
        assert_eq!(
            a.recv_timeout(0, Duration::from_secs(5)).unwrap(),
            Message::Halt
        );
    }

    #[test]
    fn per_link_order_is_preserved() {
        let mesh = LoopbackMesh::new(2, TcpOptions::default()).unwrap();
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        for iter in 1..=50u64 {
            a.send(0, 1, solution(0, iter, 4)).unwrap();
        }
        for iter in 1..=50u64 {
            let got = b.recv_timeout(1, Duration::from_secs(5)).unwrap();
            assert_eq!(got, solution(0, iter, 4), "iteration {iter}");
        }
    }

    #[test]
    fn endpoint_rejects_foreign_ranks() {
        let mesh = LoopbackMesh::new(2, TcpOptions::default()).unwrap();
        let a = mesh.endpoint(0);
        assert!(matches!(
            a.send(1, 0, Message::Halt),
            Err(CommError::UnknownRank { rank: 1, .. })
        ));
        assert!(matches!(
            a.send(0, 7, Message::Halt),
            Err(CommError::UnknownRank { rank: 7, .. })
        ));
        assert!(a.recv_timeout(1, Duration::from_millis(1)).is_err());
        assert!(a.try_recv(1).is_err());
        assert_eq!(a.local_rank(), 0);
        assert_eq!(a.num_ranks(), 2);
    }

    #[test]
    fn self_send_loops_back_through_the_inbox() {
        let mesh = LoopbackMesh::new(2, TcpOptions::default()).unwrap();
        let a = mesh.endpoint(0);
        a.send(0, 0, Message::Halt).unwrap();
        assert_eq!(a.try_recv(0).unwrap(), Some(Message::Halt));
    }

    #[test]
    fn stats_account_sent_traffic() {
        let mesh = LoopbackMesh::new(3, TcpOptions::default()).unwrap();
        let a = mesh.endpoint(0);
        let msg = solution(0, 1, 10);
        let expected = msg.encoded_len();
        a.send(0, 1, msg.clone()).unwrap();
        a.send(0, 2, msg).unwrap();
        let stats = a.stats();
        assert_eq!(stats.total_messages(), 2);
        assert_eq!(stats.bytes[&(0, 1)], expected);
        let merged = mesh.stats();
        assert_eq!(merged.total_messages(), 2);
    }

    #[test]
    fn send_to_dead_peer_returns_disconnected() {
        // Build the two endpoints by hand (LoopbackMesh would keep the dead
        // rank's endpoint alive through its own Arc).
        let b0 = BoundTcpTransport::bind(0, "127.0.0.1:0").unwrap();
        let b1 = BoundTcpTransport::bind(1, "127.0.0.1:0").unwrap();
        let addrs = vec![b0.local_addr().unwrap(), b1.local_addr().unwrap()];
        let addrs2 = addrs.clone();
        let h = std::thread::spawn(move || b1.connect(&addrs2, TcpOptions::default()).unwrap());
        let a = b0.connect(&addrs, TcpOptions::default()).unwrap();
        let b = h.join().unwrap();
        // Kill rank 1's endpoint entirely: writers, inbox and sockets close.
        drop(b);
        // Rank 0's writer discovers the death on a failed write; the send
        // that observes the closed outbox reports Disconnected.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match a.send(0, 1, solution(0, 1, 64)) {
                Err(CommError::Disconnected { rank: 1 }) => break,
                Ok(()) => {
                    assert!(Instant::now() < deadline, "send never observed the death");
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn blocking_recv_on_a_dead_mesh_returns_disconnected() {
        let b0 = BoundTcpTransport::bind(0, "127.0.0.1:0").unwrap();
        let b1 = BoundTcpTransport::bind(1, "127.0.0.1:0").unwrap();
        let addrs = vec![b0.local_addr().unwrap(), b1.local_addr().unwrap()];
        let addrs2 = addrs.clone();
        let h = std::thread::spawn(move || b1.connect(&addrs2, TcpOptions::default()).unwrap());
        let a = b0.connect(&addrs, TcpOptions::default()).unwrap();
        let b = h.join().unwrap();
        b.send(1, 0, Message::Halt).unwrap();
        // The peer dies; its shutdown flushes the queued frame first.
        drop(b);
        // Queued traffic still drains...
        assert_eq!(a.recv(0).unwrap(), Message::Halt);
        // ...then the dead mesh surfaces as Disconnected instead of a hang.
        assert!(matches!(
            a.recv(0),
            Err(CommError::Disconnected { rank: 0 })
        ));
        assert!(matches!(
            a.recv_timeout(0, Duration::from_secs(30)),
            Err(CommError::Disconnected { .. })
        ));
    }

    #[test]
    fn mismatched_fingerprints_fail_the_handshake() {
        let b0 = BoundTcpTransport::bind(0, "127.0.0.1:0").unwrap();
        let b1 = BoundTcpTransport::bind(1, "127.0.0.1:0").unwrap();
        let addrs = vec![b0.local_addr().unwrap(), b1.local_addr().unwrap()];
        let short = Duration::from_millis(1500);
        let addrs2 = addrs.clone();
        let h = std::thread::spawn(move || {
            b1.connect(
                &addrs2,
                TcpOptions {
                    fingerprint: 2,
                    connect_timeout: short,
                    ..Default::default()
                },
            )
        });
        let r0 = b0.connect(
            &addrs,
            TcpOptions {
                fingerprint: 1,
                connect_timeout: short,
                ..Default::default()
            },
        );
        let r1 = h.join().unwrap();
        assert!(r0.is_err() || r1.is_err());
    }

    #[test]
    fn delayed_mesh_still_delivers() {
        let mesh = LoopbackMesh::new(
            2,
            TcpOptions {
                delay: Some(LinkDelay {
                    grid: msplit_grid::cluster::cluster3(),
                    time_scale: 1e-4,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let a = mesh.endpoint(0);
        let b = mesh.endpoint(1);
        a.send(0, 1, solution(0, 1, 100)).unwrap();
        assert_eq!(
            b.recv_timeout(1, Duration::from_secs(5)).unwrap(),
            solution(0, 1, 100)
        );
    }
}
