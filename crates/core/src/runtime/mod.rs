//! The unified per-rank runtime: one Algorithm 1 state machine behind every
//! driver.
//!
//! Every driver — the threaded adapter, the distributed rank loop, the scale
//! simulator — is an adapter over the same pieces:
//!
//! * [`RankEngine`] — the *pure* numeric state machine of one rank.  Its only
//!   transitions are `ingest(Message)` (update the halo data) and `step()`
//!   (fill dependencies → assemble `BLoc` → in-place triangular solve →
//!   observe the increment).  It never touches a transport, clock or thread,
//!   which is what makes deterministic record/replay ([`EventLog`]) possible
//!   and keeps the zero-allocation steady state of the kernels intact (all
//!   buffers live in a caller-retained [`IterationWorkspace`]).
//! * the local vote — one type with one constructor per mode: the guarded
//!   window-1 increment vote of a lockstep rank, the window-2 vote over
//!   `max(increment, dep_change)` of a free-running one.  Its window
//!   progress is the [`VoteState`] a checkpoint persists.
//! * one concrete stack per execution mode, built by `mode_policies` and
//!   nothing else — there is nothing to plug in:
//!   * synchronous: `TreeVotes` (per-iteration vote collection up a
//!     reduction tree of fan-in [`VOTE_TREE_ARITY`] — the message-based
//!     equivalent of barrier + allreduce) with `Lockstep` (the
//!     barrier-equivalent wait for every dependency slice of the current
//!     iteration plus the decision; a peer may run at most one iteration
//!     ahead);
//!   * asynchronous: `ConfirmationWaves` (rank 0 runs a confirmation-wave
//!     `VoteBoard`) with `FreeRunning` (drain-what-arrived, AIAC style).
//!
//! One rank's outer loop over them is a resumable state machine,
//! `RankLoop`: its `poll(now)` performs at most one engine step, receives
//! only through its `RankLink`, and never blocks, sleeps or reads a
//! clock — the lockstep peer timeout, the heartbeat probes, the halt and
//! death grace drains and the free-running idle backoff are deadlines
//! compared against the `now` it is given.  Two executors run that one loop:
//! a blocking one (`drive`: wait on the link or sleep until the wake-up the
//! poll asked for), which the threaded adapter runs over the caller's
//! transport (one thread per rank) and the distributed runtime over TCP, and
//! the scale simulator ([`simulate_ranks`]), which polls hundreds of ranks
//! under a virtual clock.  The threaded and distributed runs therefore
//! compute bitwise-identical lockstep iterates, which
//! `tests/driver_equivalence.rs` asserts against the retained sequential
//! reference.
//!
//! A synchronous in-process solve with no caller transport needs no
//! messages: the pooled loop steps the same engines with the same local vote
//! as one fork-join per iteration on the `rayon` pool, copying halos in
//! memory, and stops on the threaded adapter's iteration with its bits.
//! Asynchronous solves still run the threaded adapter over an in-process
//! transport.
//!
//! Failure handling has exactly two choices; both probe
//! silent peers with [`Message::Heartbeat`] during lockstep waits and between
//! free-running sweeps.  Under [`FailurePolicy::HaltOnDeath`] a dead rank
//! (surfaced as [`msplit_comm::CommError::Disconnected`]) downgrades to a
//! [`Message::Halt`] broadcast and a prompt error instead of a hang.  Under
//! [`FailurePolicy::Redistribute`] it surfaces as [`crate::StopReason::Reshape`] naming the
//! dead rank — the only cause of a reshape — so the launcher can re-partition
//! the bands over the survivors and resume from the latest checkpoint
//! ([`crate::checkpoint`]) instead of failing the job.
//!
//! Layout: `engine` (state machine), `vote` (the local vote), `failure`
//! (death rules and the `RankLink`), `convergence` (the two detection
//! protocols), `progress` (the two progress rules as resumable phases),
//! `drive` (the rank loop, its blocking executor and `mode_policies`),
//! `threaded` (the thread-per-rank adapter), `pooled` (the in-process
//! lockstep loop on the pool).

#[allow(unused_imports)] // doc links
use msplit_comm::message::Message;

mod convergence;
mod drive;
mod engine;
mod failure;
mod pooled;
mod progress;
mod threaded;
mod vote;

#[cfg(test)]
mod tests;

pub use crate::driver_common::{IterationWorkspace, NeighborData};
pub use crate::scale::{simulate_ranks, Protocol, ScaleConfig, ScaleReport};
pub(crate) use convergence::TreeVotes;
pub use convergence::VOTE_TREE_ARITY;
pub use drive::receive_sources;
pub(crate) use drive::{drive, mode_policies, RankLoop, Stack};
pub use engine::{
    EngineEvent, EngineSnapshot, EventLog, HaloEntry, RankEngine, SolvePathStats, StepObservation,
};
pub use failure::FailurePolicy;
pub(crate) use failure::RankLink;
pub(crate) use pooled::run_single_pooled;
pub(crate) use progress::Poll;
pub use threaded::factorize_blocks;
pub(crate) use threaded::{check_transport, fresh_workspaces, run_single};
pub use vote::VoteState;
