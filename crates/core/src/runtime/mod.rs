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
//!   [`VoteBoard`]) for asynchronous ones; `mode_policies` picks the stack.
//!   The local voting rule itself is a composable [`LocalVote`] chain
//!   ([`IncrementVote`], [`StaleSweepGuard`]).
//! * the progress policy — when messages move: `Lockstep` (the
//!   barrier-equivalent wait for every dependency slice of the current
//!   iteration plus the convergence decision) or `FreeRunning`
//!   (drain-what-arrived, AIAC style).  Crate-internal, picked with the rest
//!   of the stack by `mode_policies`.
//!
//! One rank's outer loop over them is a resumable state machine,
//! `RankLoop`: its `poll(now)` performs at most one engine step, receives
//! only through [`RankLink::try_recv`], and never blocks, sleeps or reads a
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
//! Failure handling is a policy too, with exactly two choices; both probe
//! silent peers with [`Message::Heartbeat`] during lockstep waits and between
//! free-running sweeps.  Under [`FailurePolicy::HaltOnDeath`] a dead rank
//! (surfaced as [`msplit_comm::CommError::Disconnected`]) downgrades to a
//! [`Message::Halt`] broadcast and a prompt error instead of a hang.  Under
//! [`FailurePolicy::Redistribute`] it surfaces as [`crate::StopReason::Reshape`] naming the
//! dead rank — the only cause of a reshape — so the launcher can re-partition
//! the bands over the survivors and resume from the latest checkpoint
//! ([`crate::checkpoint`]) instead of failing the job.
//!
//! Layout: `engine` (state machine), `vote` (local votes), `failure` (death
//! rules and the [`RankLink`]), `convergence`, `progress` (the two progress
//! policies as resumable phases), `drive` (the rank loop, its blocking
//! executor and policy stacks), `threaded` (the thread-per-rank adapter),
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
pub use drive::receive_sources;
pub(crate) use drive::{drive, mode_policies, RankLoop};
pub use engine::{
    EngineEvent, EngineSnapshot, EventLog, HaloEntry, RankEngine, SolvePathStats, StepObservation,
};
pub use failure::{DeathRule, FailurePolicy, Flow, RankLink};
pub(crate) use pooled::run_single_pooled;
pub(crate) use progress::Poll;
pub use threaded::factorize_blocks;
pub(crate) use threaded::{check_transport_ranks, fresh_workspaces, run_single};
pub use vote::{IncrementVote, LocalVote, StaleSweepGuard, VoteState};
