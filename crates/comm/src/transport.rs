//! Message transports: the in-process channel transport and a
//! delay-modelling wrapper.
//!
//! Every multisplitting "processor" is a thread; an [`InProcTransport`] gives
//! each rank an unbounded `std::sync::mpsc` inbox.  The
//! [`DelayedTransport`] wrapper prices every message with a
//! [`msplit_grid::Grid`] link model and *realizes* a scaled fraction of the
//! modelled delay with a real sleep, which is how the tests
//! exercise the asynchronous driver's tolerance to slow links without waiting
//! for actual WAN round-trips.

use crate::message::Message;
use crate::CommError;
use msplit_grid::Grid;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A message transport connecting `num_ranks` endpoints.
pub trait Transport: Send + Sync {
    /// Number of ranks connected by this transport.
    fn num_ranks(&self) -> usize;

    /// Sends a message from `from` to `to`.
    fn send(&self, from: usize, to: usize, msg: Message) -> Result<(), CommError>;

    /// Blocking receive on `rank`'s inbox.
    fn recv(&self, rank: usize) -> Result<Message, CommError>;

    /// Non-blocking receive on `rank`'s inbox.
    fn try_recv(&self, rank: usize) -> Result<Option<Message>, CommError>;

    /// Blocking receive with a timeout.
    fn recv_timeout(&self, rank: usize, timeout: Duration) -> Result<Message, CommError>;
}

/// Per-link traffic statistics (messages and bytes), indexed by
/// `(from, to)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Number of messages sent per (from, to) pair.
    pub messages: std::collections::BTreeMap<(usize, usize), usize>,
    /// Number of payload bytes sent per (from, to) pair.
    pub bytes: std::collections::BTreeMap<(usize, usize), usize>,
}

impl LinkStats {
    /// Total number of messages.
    pub fn total_messages(&self) -> usize {
        self.messages.values().sum()
    }

    /// Total number of bytes.
    pub fn total_bytes(&self) -> usize {
        self.bytes.values().sum()
    }

    pub(crate) fn record(&mut self, from: usize, to: usize, bytes: usize) {
        *self.messages.entry((from, to)).or_default() += 1;
        *self.bytes.entry((from, to)).or_default() += bytes;
    }
}

/// Poll granularity at which blocked in-process receives re-check whether
/// their rank has been closed (see [`InProcTransport::close_rank`]).
const CLOSED_RANK_POLL: Duration = Duration::from_millis(50);

/// In-process transport: one unbounded channel per rank.
///
/// # Endpoint lifetime
///
/// The transport owns **both** halves of every rank's channel, so as long as
/// the `Arc` is alive the channel layer can never observe a disconnect on its
/// own — a worker thread exiting does not drop its receiver.  Rank death is
/// therefore modelled explicitly with [`InProcTransport::close_rank`]: sends
/// to (and receives on) a closed rank return [`CommError::Disconnected`]
/// instead of queueing into (or blocking on) a mailbox nobody will ever
/// drain.  This mirrors what the TCP transport reports when a peer process
/// dies, keeping error handling transport-generic.
pub struct InProcTransport {
    senders: Vec<Sender<Message>>,
    /// Only rank `r` receives on `receivers[r]`; the mutex lends the
    /// single-consumer receiver to `&self`, uncontended.
    receivers: Vec<Mutex<Receiver<Message>>>,
    /// Ranks explicitly marked dead via [`InProcTransport::close_rank`].
    closed: Vec<std::sync::atomic::AtomicBool>,
    stats: Mutex<LinkStats>,
}

impl InProcTransport {
    /// Creates a transport connecting `num_ranks` endpoints.
    pub fn new(num_ranks: usize) -> Arc<Self> {
        let mut senders = Vec::with_capacity(num_ranks);
        let mut receivers = Vec::with_capacity(num_ranks);
        for _ in 0..num_ranks {
            let (s, r) = channel();
            senders.push(s);
            receivers.push(Mutex::new(r));
        }
        Arc::new(InProcTransport {
            senders,
            receivers,
            closed: (0..num_ranks)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
            stats: Mutex::new(LinkStats::default()),
        })
    }

    /// A snapshot of the per-link traffic statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Marks `rank` as dead: subsequent sends to it and receives on it
    /// return [`CommError::Disconnected`].  Queued messages are dropped.
    pub fn close_rank(&self, rank: usize) -> Result<(), CommError> {
        self.check_rank(rank)?;
        self.closed[rank].store(true, std::sync::atomic::Ordering::SeqCst);
        let inbox = self.receivers[rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while inbox.try_recv().is_ok() {}
        Ok(())
    }

    fn check_rank(&self, rank: usize) -> Result<(), CommError> {
        if rank >= self.senders.len() {
            return Err(CommError::UnknownRank {
                rank,
                total: self.senders.len(),
            });
        }
        Ok(())
    }

    fn check_open(&self, rank: usize) -> Result<(), CommError> {
        self.check_rank(rank)?;
        if self.closed[rank].load(std::sync::atomic::Ordering::SeqCst) {
            return Err(CommError::Disconnected { rank });
        }
        Ok(())
    }
}

impl Transport for InProcTransport {
    fn num_ranks(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, from: usize, to: usize, msg: Message) -> Result<(), CommError> {
        self.check_rank(from)?;
        self.check_open(to)?;
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(from, to, msg.encoded_len());
        self.senders[to]
            .send(msg)
            .map_err(|_| CommError::Disconnected { rank: to })
    }

    fn recv(&self, rank: usize) -> Result<Message, CommError> {
        // Wait in slices so a concurrent `close_rank` wakes this thread up:
        // the transport holds both channel halves, so the channel itself can
        // never signal the disconnect.
        loop {
            match self.recv_timeout(rank, CLOSED_RANK_POLL) {
                Err(CommError::Timeout { .. }) => {}
                other => return other,
            }
        }
    }

    fn try_recv(&self, rank: usize) -> Result<Option<Message>, CommError> {
        self.check_open(rank)?;
        match self.receivers[rank]
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
        let deadline = std::time::Instant::now() + timeout;
        loop {
            self.check_open(rank)?;
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout { rank });
            }
            let inbox = self.receivers[rank]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match inbox.recv_timeout(CLOSED_RANK_POLL.min(deadline - now)) {
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { rank })
                }
            }
        }
    }
}

/// A transport wrapper that models (and optionally realizes) link delays
/// according to a grid description.
pub struct DelayedTransport {
    inner: Arc<InProcTransport>,
    grid: Grid,
    /// Fraction of the modelled delay actually slept before delivery.  `0.0`
    /// delivers at once; `1.0` reproduces the delay in real time; the
    /// async-robustness tests use a small scale (e.g. `1e-3`).
    time_scale: f64,
}

impl DelayedTransport {
    /// Wraps an in-process transport with the link model of `grid`.
    ///
    /// # Panics
    /// Panics if the grid has fewer machines than the transport has ranks.
    pub fn new(inner: Arc<InProcTransport>, grid: Grid, time_scale: f64) -> Arc<Self> {
        assert!(
            grid.num_machines() >= inner.num_ranks(),
            "grid has {} machines but the transport has {} ranks",
            grid.num_machines(),
            inner.num_ranks()
        );
        Arc::new(DelayedTransport {
            inner,
            grid,
            time_scale,
        })
    }

    /// Traffic statistics of the underlying transport.
    pub fn stats(&self) -> LinkStats {
        self.inner.stats()
    }

    /// The grid backing the delay model.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }
}

impl Transport for DelayedTransport {
    fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }

    fn send(&self, from: usize, to: usize, msg: Message) -> Result<(), CommError> {
        let bytes = msg.encoded_len();
        let delay =
            self.grid
                .transfer_seconds(from, to, bytes)
                .map_err(|_| CommError::UnknownRank {
                    rank: from.max(to),
                    total: self.num_ranks(),
                })?;
        if self.time_scale > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay * self.time_scale));
        }
        self.inner.send(from, to, msg)
    }

    fn recv(&self, rank: usize) -> Result<Message, CommError> {
        self.inner.recv(rank)
    }

    fn try_recv(&self, rank: usize) -> Result<Option<Message>, CommError> {
        self.inner.try_recv(rank)
    }

    fn recv_timeout(&self, rank: usize, timeout: Duration) -> Result<Message, CommError> {
        self.inner.recv_timeout(rank, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_grid::cluster::cluster1;

    fn solution_msg(from: usize, n: usize) -> Message {
        Message::Solution {
            from,
            iteration: 1,
            offset: 0,
            values: vec![1.0; n],
        }
    }

    #[test]
    fn send_and_receive_in_order() {
        let t = InProcTransport::new(2);
        t.send(0, 1, solution_msg(0, 3)).unwrap();
        t.send(0, 1, Message::Halt).unwrap();
        assert_eq!(t.recv(1).unwrap(), solution_msg(0, 3));
        assert_eq!(t.recv(1).unwrap(), Message::Halt);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let t = InProcTransport::new(2);
        assert_eq!(t.try_recv(0).unwrap(), None);
        t.send(1, 0, Message::Halt).unwrap();
        assert_eq!(t.try_recv(0).unwrap(), Some(Message::Halt));
    }

    #[test]
    fn recv_timeout_times_out() {
        let t = InProcTransport::new(1);
        let err = t.recv_timeout(0, Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, CommError::Timeout { rank: 0 }));
    }

    #[test]
    fn unknown_ranks_rejected() {
        let t = InProcTransport::new(2);
        assert!(t.send(0, 5, Message::Halt).is_err());
        assert!(t.send(7, 0, Message::Halt).is_err());
        assert!(t.recv(9).is_err());
        assert!(t.try_recv(9).is_err());
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let t = InProcTransport::new(3);
        t.send(0, 1, solution_msg(0, 10)).unwrap();
        t.send(0, 1, solution_msg(0, 10)).unwrap();
        t.send(2, 0, Message::Halt).unwrap();
        let stats = t.stats();
        assert_eq!(stats.total_messages(), 3);
        assert_eq!(stats.messages[&(0, 1)], 2);
        assert!(stats.total_bytes() > 2 * 80);
    }

    #[test]
    fn cross_thread_delivery() {
        let t = InProcTransport::new(2);
        let t2 = Arc::clone(&t);
        let handle = std::thread::spawn(move || t2.recv(1).unwrap());
        std::thread::sleep(Duration::from_millis(5));
        t.send(0, 1, solution_msg(0, 4)).unwrap();
        assert_eq!(handle.join().unwrap(), solution_msg(0, 4));
    }

    #[test]
    #[should_panic]
    fn delayed_transport_requires_enough_machines() {
        let inner = InProcTransport::new(25);
        let _ = DelayedTransport::new(inner, cluster1(), 0.0);
    }

    #[test]
    fn send_to_closed_rank_is_disconnected_not_a_panic() {
        // Regression: the transport owns both channel halves, so a dead rank
        // used to accept sends forever (its mailbox just grew); callers that
        // assumed channel-layer disconnection would panic on unwrap paths.
        // close_rank models the death explicitly.
        let t = InProcTransport::new(3);
        t.send(0, 2, Message::Halt).unwrap();
        t.close_rank(2).unwrap();
        assert_eq!(
            t.send(0, 2, Message::Halt),
            Err(CommError::Disconnected { rank: 2 })
        );
        assert_eq!(
            t.recv_timeout(2, Duration::from_millis(1)),
            Err(CommError::Disconnected { rank: 2 })
        );
        assert_eq!(t.try_recv(2), Err(CommError::Disconnected { rank: 2 }));
        // Other ranks keep working.
        t.send(0, 1, Message::Halt).unwrap();
        assert_eq!(t.recv(1).unwrap(), Message::Halt);
        assert!(t.close_rank(9).is_err());
    }

    #[test]
    fn close_rank_wakes_a_blocked_recv() {
        let t = InProcTransport::new(2);
        let t2 = Arc::clone(&t);
        let blocked = std::thread::spawn(move || t2.recv(1));
        std::thread::sleep(Duration::from_millis(20));
        t.close_rank(1).unwrap();
        // The blocked receiver must observe the close instead of hanging.
        assert_eq!(
            blocked.join().unwrap(),
            Err(CommError::Disconnected { rank: 1 })
        );
    }

    #[test]
    fn drop_order_audit_sender_outlives_worker_exit() {
        // A worker thread that exits (normally or by panic) does not drop
        // the transport's channel endpoints: sends to that rank stay Ok
        // until the rank is closed explicitly, and never panic.
        let t = InProcTransport::new(2);
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            let _ = t2.recv(1); // worker exits immediately after one recv
        });
        t.send(0, 1, Message::Halt).unwrap();
        // The worker is gone; sending again must still be a clean Ok (the
        // transport holds the receiver), not a panic in the channel layer.
        t.send(0, 1, Message::Halt).unwrap();
        t.close_rank(1).unwrap();
        assert!(matches!(
            t.send(0, 1, Message::Halt),
            Err(CommError::Disconnected { rank: 1 })
        ));
    }
}
