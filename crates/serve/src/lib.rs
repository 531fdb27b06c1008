//! # msplit-serve — the networked multi-tenant solve service
//!
//! The engine crate turned the multisplitting solver into an in-process
//! service (cache, queue, workers).  This crate puts that service on the
//! network and scales it out:
//!
//! * **[`SolveServer`]** — one shard: a TCP listener speaking the
//!   `msplit-comm` frame protocol (serve connections are handshakes with
//!   `world_size == 0`), per-lane admission control over the engine's
//!   3-lane priority queue, and **one request, one engine job**: every
//!   admitted request is submitted at once as its own job, and the engine's
//!   single-flight factorization cache gives requests for the same
//!   [`MatrixKey`](msplit_engine::MatrixKey) the factorize-once reuse.  Each
//!   answer is the request's own solve, so it is exactly the bytes a
//!   dedicated solve would have produced.
//! * **[`ServeClient`]** — routes requests over a consistent-hash ring of
//!   shards by matrix fingerprint, walks the ring on shard death or load
//!   shedding, and speculatively warms the ring successor's cache so a
//!   failover lands on a prepared factorization.
//!
//! Overload never blocks a connection: a full lane or an expired queue
//! deadline produces a typed `Reject` frame with a retry-after hint.  See
//! `docs/serving.md` for the operational picture and
//! `examples/solve_fleet.rs` for a complete three-shard fleet.

pub mod client;
pub mod codec;
pub mod server;

pub use client::{ClientOptions, ServeClient, ServeSolution};
pub use msplit_comm::RejectCode;
pub use server::{ServeConfig, SolveServer};

/// Errors surfaced by the serve layer.
#[derive(Debug)]
pub enum ServeError {
    /// A transport-level failure (connect, frame read/write, handshake).
    Comm(msplit_comm::CommError),
    /// A socket or thread operation failed.
    Io(String),
    /// A malformed or unexpected frame / blob.
    Protocol(String),
    /// The fleet answered with a typed rejection.
    Rejected {
        /// Why the request was rejected.
        code: RejectCode,
        /// Suggested microseconds to wait before retrying (0 = no hint).
        retry_after_micros: u64,
        /// Server-side detail.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Comm(e) => write!(f, "transport error: {e}"),
            ServeError::Io(msg) => write!(f, "io error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Rejected {
                code,
                retry_after_micros,
                detail,
            } => write!(
                f,
                "rejected ({code:?}, retry after {retry_after_micros}us): {detail}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<msplit_comm::CommError> for ServeError {
    fn from(e: msplit_comm::CommError) -> Self {
        ServeError::Comm(e)
    }
}
