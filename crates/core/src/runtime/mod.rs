//! The unified per-rank runtime: one Algorithm 1 state machine behind every
//! driver.
//!
//! Every driver — the threaded adapter, the distributed rank loop, the scale
//! simulator — is an adapter over three orthogonal pieces:
//!
//! * [`RankEngine`] — the *pure* numeric state machine of one rank.  Its only
//!   transitions are `ingest(Message)` (update the halo data) and `step()`
//!   (fill dependencies → assemble `BLoc` → in-place triangular solve →
//!   observe the increment).  It never touches a transport, clock or thread,
//!   which is what makes deterministic record/replay ([`EventLog`]) possible
//!   and keeps the zero-allocation steady state of the kernels intact (all
//!   buffers live in a caller-retained [`IterationWorkspace`]).
//! * [`ConvergencePolicy`] — how local votes become a global decision.  There
//!   is one protocol per execution mode: [`TreeVotes`] (per-iteration vote
//!   collection up a reduction tree of fan-in [`VOTE_TREE_ARITY`] — the
//!   message-based equivalent of barrier + allreduce) for synchronous runs,
//!   [`ConfirmationWaves`] (free-running confirmation-wave protocol over a
//!   [`VoteBoard`]) for asynchronous ones; [`mode_policies`] picks the stack.
//!   The local voting rule itself is a composable [`LocalVote`] chain
//!   ([`IncrementVote`], [`StaleSweepGuard`]).
//! * [`ProgressPolicy`] — when messages move: [`Lockstep`] (the
//!   barrier-equivalent wait for every dependency slice of the current
//!   iteration plus the convergence decision) or [`FreeRunning`]
//!   (drain-what-arrived, AIAC style).
//!
//! [`drive_with_hooks`] is the single outer loop that pumps them wherever
//! there is a transport.  The threaded adapter runs it over the caller's
//! transport (one thread per rank), the distributed runtime runs the *same*
//! loop over TCP; both therefore compute bitwise-identical lockstep iterates,
//! which `tests/driver_equivalence.rs` asserts against the retained
//! sequential reference.
//!
//! A synchronous in-process solve with no caller transport needs no
//! messages: the pooled loop steps the same engines with the same local vote
//! as one fork-join per iteration on the `rayon` pool, copying halos in
//! memory, and stops on the threaded adapter's iteration with its bits.
//! Asynchronous solves and batches still run the threaded adapter over an
//! in-process transport.
//!
//! Failure handling is a policy too, with exactly two choices; both probe
//! silent peers with [`Message::Heartbeat`] during lockstep waits and between
//! free-running sweeps.  Under [`FailurePolicy::HaltOnDeath`] a dead rank
//! (surfaced as [`msplit_comm::CommError::Disconnected`]) downgrades to a
//! [`Message::Halt`] broadcast and a prompt error instead of a hang.  Under
//! [`FailurePolicy::Redistribute`] it surfaces as [`Flow::Reshape`] naming the
//! dead rank — the only cause of a reshape — so the launcher can re-partition
//! the bands over the survivors and resume from the latest checkpoint
//! ([`crate::checkpoint`]) instead of failing the job.
//!
//! Layout: `engine` (state machine), `vote` (local votes), `failure` (death
//! rules and the [`RankLink`]), `convergence`, `progress`, `drive` (the loop,
//! its policy stacks and hooks), `threaded` (the thread-per-rank adapter),
//! `pooled` (the in-process lockstep loop on the pool).

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
pub use convergence::{
    ConfirmationWaves, ConvergencePolicy, TreeVotes, VoteBoard, VOTE_TREE_ARITY,
};
pub use drive::{
    drive_with_hooks, mode_policies, receive_sources, ColumnBoard, ColumnTracker, DriveHooks,
    PolicyStack, RankRun,
};
pub use engine::{
    EngineEvent, EngineSnapshot, EventLog, HaloEntry, RankEngine, SolvePathStats, StepObservation,
};
pub use failure::{DeathRule, FailurePolicy, Flow, RankLink};
pub(crate) use pooled::run_single_pooled;
pub(crate) use progress::{data_meta, mark_slice};
pub use progress::{FreeRunning, Lockstep, ProgressPolicy};
pub use threaded::factorize_blocks;
pub(crate) use threaded::{check_transport_ranks, fresh_workspaces, run_batch, run_single};
pub use vote::{IncrementVote, LocalVote, StaleSweepGuard, VoteState};
