//! Message-passing layer for the multisplitting drivers.
//!
//! The paper implements its synchronous solver over MPI and its asynchronous
//! solver over Corba, running on machines spread across two sites.  This
//! crate provides both halves of that story: the in-process transport used
//! when every "processor" is a thread, and a TCP transport used when every
//! processor is a separate OS process on a real network:
//!
//! * [`message::Message`] — the wire messages (solution slices, convergence
//!   votes, termination), with a compact binary encoding so message sizes can
//!   be accounted against the grid's bandwidth model,
//! * [`codec`] — the bounds-checked little-endian [`codec::Reader`] that
//!   decodes every binary format of the workspace (messages, frames, serve
//!   blobs, checkpoint files),
//! * [`wire`] — length-prefixed framing and the connection handshake used by
//!   the socket transport,
//! * [`transport`] — the [`transport::Transport`] trait plus the in-process
//!   channel transport and a delay-modelling wrapper,
//! * [`tcp`] — the [`tcp::TcpTransport`] per-rank socket endpoint, and the
//!   [`tcp::LoopbackMesh`] that runs the unchanged threaded drivers over
//!   real sockets.
//!
//! Convergence detection is not here: the local vote and both global
//! detection protocols live with the rank loop in `msplit_core::runtime`,
//! and only their messages are this crate's.
//!
//! # Place in the runtime architecture
//!
//! In the engine/stack/adapter architecture documented at the top of
//! `msplit-core` (`crates/core/src/lib.rs`), this crate is the bottom box:
//! every driver funnels its traffic through a `RankLink` over a
//! [`transport::Transport`] from here, and the [`message::Message`] enum is
//! the complete protocol vocabulary (data slices, convergence votes, halts,
//! heartbeats and reshape notices for the fault-tolerance layer of
//! `docs/fault-tolerance.md`).

pub mod codec;
pub mod message;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use message::{Message, RejectCode};
pub use tcp::{BoundTcpTransport, LinkDelay, LoopbackMesh, TcpOptions, TcpTransport};
pub use transport::{DelayedTransport, InProcTransport, LinkStats, Transport};

/// Errors produced by the communication layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// The destination or source rank does not exist.
    UnknownRank { rank: usize, total: usize },
    /// The peer endpoint is gone (its thread exited, its process died, or
    /// its socket closed).
    Disconnected { rank: usize },
    /// A blocking receive timed out.
    Timeout { rank: usize },
    /// A message or frame could not be decoded.
    Codec(String),
    /// A socket operation failed (bind, connect, handshake, read, write).
    Io(String),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::UnknownRank { rank, total } => {
                write!(f, "rank {rank} out of range (communicator has {total})")
            }
            CommError::Disconnected { rank } => write!(f, "rank {rank} disconnected"),
            CommError::Timeout { rank } => write!(f, "receive on rank {rank} timed out"),
            CommError::Codec(msg) => write!(f, "codec error: {msg}"),
            CommError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for CommError {}
