//! The unified per-rank runtime: one Algorithm 1 state machine behind every
//! driver.
//!
//! Before this module existed the paper's Algorithm 1 lived in five
//! near-copies (sequential reference, threaded sync, threaded batch, threaded
//! async, and the distributed sync/async rank loops).  They are now all
//! adapters over three orthogonal pieces:
//!
//! * [`RankEngine`] — the *pure* numeric state machine of one rank.  Its only
//!   transitions are `ingest(Message)` (update the halo data) and `step()`
//!   (fill dependencies → assemble `BLoc` → in-place triangular solve →
//!   observe the increment).  It never touches a transport, clock or thread,
//!   which is what makes deterministic record/replay ([`EventLog`]) possible
//!   and keeps the zero-allocation steady state of the kernels intact (all
//!   buffers live in a caller-retained [`IterationWorkspace`]).
//! * [`ConvergencePolicy`] — how local votes become a global decision:
//!   [`LockstepVotes`] (per-iteration centralized vote collection — the
//!   message-based equivalent of barrier + allreduce) or
//!   [`ConfirmationWaves`] (free-running confirmation-wave protocol over a
//!   [`VoteBoard`]).  The local voting rule itself is a composable
//!   [`LocalVote`] chain ([`IncrementVote`], [`StaleSweepGuard`]).
//! * [`ProgressPolicy`] — when messages move: [`Lockstep`] (the
//!   barrier-equivalent wait for every dependency slice of the current
//!   iteration plus the convergence decision) or [`FreeRunning`]
//!   (drain-what-arrived, AIAC style).
//!
//! The threaded drivers pump the engine over an in-process transport (one
//! thread per rank), the distributed runtime pumps the *same* engine over
//! TCP; both therefore compute bitwise-identical lockstep iterates, which
//! `tests/driver_equivalence.rs` asserts against the retained sequential
//! reference.
//!
//! Failure handling is a policy too: [`FailurePolicy::HaltOnDeath`] probes
//! silent peers with [`Message::Heartbeat`] during lockstep waits (and, since
//! the elastic-grid work, between free-running sweeps), so a dead rank
//! (surfaced as [`msplit_comm::CommError::Disconnected`]) downgrades to a
//! [`Message::Halt`] broadcast and a prompt error instead of a hang.
//! [`FailurePolicy::Redistribute`] goes one step further: a detected death
//! surfaces as [`Flow::Reshape`] so the launcher can re-partition the bands
//! over the survivors and resume from the latest checkpoint
//! ([`crate::checkpoint`]) instead of failing the job.

use crate::driver_common::increment_norm;
use crate::solver::{
    BatchSolveOutcome, ExecutionMode, MultisplittingConfig, PartReport, SolveOutcome,
};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_comm::convergence::{LocalConvergence, ResidualTracker};
use msplit_comm::message::Message;
use msplit_comm::transport::Transport;
use msplit_comm::CommError;
use msplit_direct::api::Factorization;
use msplit_direct::DeltaOutcome;
use msplit_sparse::{BandPartition, LocalBlocks};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::driver_common::{IterationWorkspace, NeighborData};
pub use crate::scale::{simulate_ranks, Protocol, ScaleConfig, ScaleReport};

/// Poll granularity of blocking lockstep waits.
const WAIT_SLICE: Duration = Duration::from_millis(100);

/// How often (in iterations) a free-running rank re-sends an unchanged
/// *not-converged* vote to the coordinator (liveness only; converged votes
/// re-send every iteration because confirmation waves advance on them).
const VOTE_REFRESH_ITERATIONS: u64 = 25;

/// How long a rank that received [`Message::Halt`] keeps draining its inbox
/// for a [`Message::GlobalConverged`] racing the halt (a budget-exhausted
/// peer halting at the same instant the coordinator declares convergence
/// must not turn a converged run into a failed one).
const HALT_GRACE: Duration = Duration::from_millis(20);

/// How long a free-running rank that detected a peer death keeps draining
/// its inbox for a racing [`Message::GlobalConverged`] before treating the
/// death as real.  Longer than [`HALT_GRACE`] because the convergence notice
/// of a legitimately exited peer may still be in flight over TCP when the
/// heartbeat probe observes the closed socket.
const DEATH_GRACE: Duration = Duration::from_millis(250);

/// Lockstep peer timeout of the threaded adapters.  The pre-runtime barrier
/// waited indefinitely for slow (but live) peers, so this is deliberately
/// generous — genuinely *dead* peers are caught within ~1 s by the
/// [`FailurePolicy::HaltOnDeath`] heartbeat probes, which is the real guard;
/// the timeout only backstops a livelock nothing else can detect.
const THREADED_PEER_TIMEOUT: Duration = Duration::from_secs(3600);

/// Idle backoff of a free-running rank that is locally stable and received
/// no fresh data (avoids flooding the network with identical slices).
const IDLE_BACKOFF: Duration = Duration::from_micros(100);

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// What one [`RankEngine::step`] observed — the inputs of the local vote.
#[derive(Debug, Clone, Copy)]
pub struct StepObservation {
    /// Outer-iteration counter after this step (1-based).
    pub iteration: u64,
    /// Infinity norm of the local iterate increment.
    pub increment: f64,
    /// Maximum movement of any dependency value since the previous step.
    pub dep_change: f64,
    /// Whether any new halo slice was ingested since the previous step.
    pub fresh_data: bool,
    /// Whether this rank has dependencies at all (a single-band system has
    /// none and must be allowed to converge without ever receiving data).
    pub needs_fresh_data: bool,
}

/// One recorded engine transition (see [`EventLog`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A message was ingested into the halo state.
    Ingest(Message),
    /// One local solve step was performed.
    Step,
}

/// A recorded sequence of engine transitions.
///
/// Because [`RankEngine`] is pure and single-threaded per rank, replaying the
/// ingested message sequence (with the step boundaries interleaved) onto a
/// freshly prepared engine reproduces the live run **bitwise** — the
/// deterministic replay harness used to debug distributed executions offline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    /// The transitions, in execution order.
    pub events: Vec<EngineEvent>,
}

/// Data layout of the engine: one right-hand side or a lockstep batch.
enum EngineShape {
    Single,
    Batch(usize),
}

/// Which solve paths a [`RankEngine`]'s steps took — the fast-path/fallback
/// counters surfaced through [`crate::solver::PartReport`], the engine
/// metrics and the serve `ServerStats` frame.
///
/// Every step ends in exactly one bucket: `sparse_fastpath_hits` (the
/// incremental path skipped or delta-solved the step) or `dense_fallbacks`
/// (a full dense assembly + solve ran — including the always-dense first
/// iteration, batch steps, and reach-threshold fallbacks).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolvePathStats {
    /// Steps served by the incremental path (bitwise-identical skip or
    /// reach-limited delta solve).
    pub sparse_fastpath_hits: u64,
    /// Steps that ran the full dense assembly + solve.
    pub dense_fallbacks: u64,
    /// Sum of the reach fractions of all delta-solve attempts (applied or
    /// fallen back), for the mean; skips compute no reach and are excluded.
    pub reach_fraction_sum: f64,
    /// Number of delta-solve attempts behind `reach_fraction_sum`.
    pub reach_samples: u64,
}

impl SolvePathStats {
    /// Mean reach fraction over all delta-solve attempts (`0.0` when none
    /// ran).
    pub fn mean_reach_fraction(&self) -> f64 {
        if self.reach_samples == 0 {
            0.0
        } else {
            self.reach_fraction_sum / self.reach_samples as f64
        }
    }

    /// Folds another engine's counters into this one (driver aggregation).
    pub fn merge(&mut self, other: &SolvePathStats) {
        self.sparse_fastpath_hits += other.sparse_fastpath_hits;
        self.dense_fallbacks += other.dense_fallbacks;
        self.reach_fraction_sum += other.reach_fraction_sum;
        self.reach_samples += other.reach_samples;
    }
}

/// The pure per-rank state machine of Algorithm 1.
///
/// All mutable numeric state lives in the caller-retained
/// [`IterationWorkspace`] (pooled by [`crate::prepared::PreparedSystem`]), so
/// a warm engine performs **zero heap allocations** per [`RankEngine::step`]
/// — asserted by `tests/zero_alloc.rs`.
pub struct RankEngine<'a> {
    rank: usize,
    blk: &'a LocalBlocks,
    factor: &'a dyn Factorization,
    ws: &'a mut IterationWorkspace,
    shape: EngineShape,
    b_single: &'a [f64],
    b_cols: Vec<&'a [f64]>,
    /// One halo tracker per solution column.
    neighbors: Vec<NeighborData>,
    /// Previous dependency values, `ncols × dep_cols` in column-major blocks.
    prev_deps: Vec<f64>,
    dep_cols_per_neighbor: usize,
    needs_fresh_data: bool,
    fresh_since_step: bool,
    iterations: u64,
    last_increment: f64,
    /// Per-column increment norms of the most recent batch step (empty in
    /// single shape) — what a solo run of that column would have observed.
    col_increments: Vec<f64>,
    /// Per-column dependency movement of the most recent batch step (empty
    /// in single shape).
    col_dep_changes: Vec<f64>,
    /// Whether the incremental (halo-delta) solve path may run.  Results are
    /// bitwise identical either way; disabling forces every step dense
    /// (benchmarks, equivalence tests).
    incremental: bool,
    path_stats: SolvePathStats,
    recorder: Option<EventLog>,
}

impl<'a> RankEngine<'a> {
    /// Engine for a single right-hand side (`b_sub` is the band-local slice).
    pub fn single(
        partition: &BandPartition,
        blk: &'a LocalBlocks,
        b_sub: &'a [f64],
        factor: &'a dyn Factorization,
        scheme: WeightingScheme,
        ws: &'a mut IterationWorkspace,
    ) -> Self {
        ws.prepare_single(blk);
        let neighbor = NeighborData::new(partition, scheme, blk);
        let dep_cols = neighbor.dependency_columns().len();
        RankEngine {
            rank: blk.part,
            blk,
            factor,
            ws,
            shape: EngineShape::Single,
            b_single: b_sub,
            b_cols: Vec::new(),
            needs_fresh_data: dep_cols > 0,
            prev_deps: vec![0.0; dep_cols],
            dep_cols_per_neighbor: dep_cols,
            neighbors: vec![neighbor],
            fresh_since_step: false,
            iterations: 0,
            last_increment: f64::INFINITY,
            col_increments: Vec::new(),
            col_dep_changes: Vec::new(),
            incremental: true,
            path_stats: SolvePathStats::default(),
            recorder: None,
        }
    }

    /// Engine for a batch of right-hand sides marching in lockstep (one
    /// band-local slice per column).
    pub fn batch(
        partition: &BandPartition,
        blk: &'a LocalBlocks,
        b_cols: Vec<&'a [f64]>,
        factor: &'a dyn Factorization,
        scheme: WeightingScheme,
        ws: &'a mut IterationWorkspace,
    ) -> Self {
        let ncols = b_cols.len();
        ws.prepare_batch(blk, ncols);
        let neighbors: Vec<NeighborData> = (0..ncols)
            .map(|_| NeighborData::new(partition, scheme, blk))
            .collect();
        let dep_cols = neighbors
            .first()
            .map_or(0, |n| n.dependency_columns().len());
        RankEngine {
            rank: blk.part,
            blk,
            factor,
            ws,
            shape: EngineShape::Batch(ncols),
            b_single: &[],
            b_cols,
            needs_fresh_data: dep_cols > 0,
            prev_deps: vec![0.0; ncols * dep_cols],
            dep_cols_per_neighbor: dep_cols,
            neighbors,
            fresh_since_step: false,
            iterations: 0,
            last_increment: f64::INFINITY,
            col_increments: vec![f64::INFINITY; ncols],
            col_dep_changes: vec![0.0; ncols],
            // The batch driver always assembles and solves densely.
            incremental: false,
            path_stats: SolvePathStats::default(),
            recorder: None,
        }
    }

    /// This engine's rank (= band index).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Outer iterations performed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Infinity norm of the most recent iterate increment.
    pub fn last_increment(&self) -> f64 {
        self.last_increment
    }

    /// Enables or disables the incremental halo-delta solve path.  Both
    /// settings produce bitwise-identical iterates; this is purely a
    /// performance knob (and a test hook for pinning that equivalence).
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
        if !on {
            self.ws.incr.invalidate();
        }
    }

    /// Counters describing which solve path each [`RankEngine::step`] took.
    pub fn path_stats(&self) -> SolvePathStats {
        self.path_stats
    }

    /// Starts recording every `ingest`/`step` transition for later
    /// [`RankEngine::replay`].
    pub fn record_events(&mut self) {
        self.recorder = Some(EventLog::default());
    }

    /// Takes the recorded transition log, if recording was enabled.
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.recorder.take()
    }

    /// Ingests one message into the halo state.  Returns whether it carried
    /// *fresh* data (a stale or non-data message returns `false`).  Control
    /// messages are not engine business — route them to the policies.
    pub fn ingest(&mut self, msg: Message) -> bool {
        if let Some(log) = &mut self.recorder {
            log.events.push(EngineEvent::Ingest(msg.clone()));
        }
        let fresh = match msg {
            Message::Solution {
                from,
                iteration,
                offset,
                values,
            } => self.neighbors[0].update(from, iteration, offset, values),
            Message::SolutionBatch {
                from,
                iteration,
                offset,
                columns,
            } => {
                let mut fresh = false;
                for (c, col) in columns.into_iter().enumerate() {
                    if let Some(neighbor) = self.neighbors.get_mut(c) {
                        fresh |= neighbor.update(from, iteration, offset, col);
                    }
                }
                fresh
            }
            _ => false,
        };
        self.fresh_since_step |= fresh;
        fresh
    }

    /// Performs one Algorithm 1 sweep: refresh the dependency values from the
    /// halo state, assemble `BLoc` into the retained buffer, solve it in
    /// place, and observe the increment.  Allocation-free once the workspace
    /// is warm.
    pub fn step(&mut self) -> Result<StepObservation, CoreError> {
        if let Some(log) = &mut self.recorder {
            log.events.push(EngineEvent::Step);
        }
        self.iterations += 1;
        let fresh_data = std::mem::take(&mut self.fresh_since_step);
        let mut dep_change = 0.0f64;
        match self.shape {
            EngineShape::Single => {
                let IterationWorkspace {
                    x_global,
                    rhs,
                    x_sub,
                    scratch,
                    incr,
                    ..
                } = &mut *self.ws;
                let neighbor = &self.neighbors[0];
                neighbor.fill_dependencies(x_global);
                incr.changed_slots.clear();
                for (slot, &g) in neighbor.dependency_columns().iter().enumerate() {
                    let v = x_global[g];
                    dep_change = dep_change.max((v - self.prev_deps[slot]).abs());
                    if v.to_bits() != self.prev_deps[slot].to_bits() {
                        incr.changed_slots.push(slot);
                    }
                    self.prev_deps[slot] = v;
                }
                // The incremental fast path replays exactly the dense
                // assemble-and-solve arithmetic on the subset of rows and
                // unknowns that can differ, so every branch below is bitwise
                // identical to the `local_rhs_into` + `solve_into` fallback.
                // `valid` is cleared up front and only re-set on a fully
                // completed update, so an `?`-error leaves the state
                // self-invalidating.
                let was_valid = incr.valid;
                incr.valid = false;
                let mut handled = false;
                if self.incremental && was_valid {
                    if incr.changed_slots.is_empty() {
                        // No dependency bit moved: b_loc and therefore the
                        // solve output are unchanged, so the increment is
                        // exactly zero for any deterministic kernel.
                        self.last_increment = 0.0;
                        self.path_stats.sparse_fastpath_hits += 1;
                        incr.valid = true;
                        handled = true;
                    } else if let Some(lu) = self.factor.as_sparse_lu() {
                        // Collect the BLoc rows touched by the changed halo
                        // columns and recompute them with the same
                        // subtract-a-dot-product arithmetic as
                        // `local_rhs_into`.
                        if incr.row_stamp == u32::MAX {
                            incr.row_mark.fill(0);
                            incr.row_stamp = 0;
                        }
                        incr.row_stamp += 1;
                        let stamp = incr.row_stamp;
                        incr.seeds.clear();
                        let dep_cols = neighbor.dependency_columns();
                        let offset = self.blk.offset;
                        let size = self.blk.size;
                        let x_left = &x_global[..offset];
                        let x_right = &x_global[offset + size..];
                        for &slot in &incr.changed_slots {
                            let g = dep_cols[slot];
                            let rows = if g < offset {
                                incr.left_cols.rows_in(g)
                            } else {
                                incr.right_cols.rows_in(g - offset - size)
                            };
                            for &i in rows {
                                if incr.row_mark[i] == stamp {
                                    continue;
                                }
                                incr.row_mark[i] = stamp;
                                let mut v = self.b_single[i];
                                if offset > 0 {
                                    v -= self.blk.dep_left.row_dot(i, x_left);
                                }
                                if !x_right.is_empty() {
                                    v -= self.blk.dep_right.row_dot(i, x_right);
                                }
                                if v.to_bits() != incr.b_loc[i].to_bits() {
                                    incr.b_loc[i] = v;
                                    incr.seeds.push(i);
                                }
                            }
                        }
                        if incr.seeds.is_empty() {
                            // Dependency values moved but every recomputed
                            // BLoc row landed on the same bits: same RHS,
                            // same solution, zero increment.
                            self.last_increment = 0.0;
                            self.path_stats.sparse_fastpath_hits += 1;
                            incr.valid = true;
                            handled = true;
                        } else {
                            let mut inc = 0.0f64;
                            let outcome = lu.solve_delta_into(
                                &incr.seeds,
                                &incr.b_loc,
                                &mut incr.cache,
                                scratch,
                                |idx, val| {
                                    inc = inc.max((val - x_sub[idx]).abs());
                                    x_sub[idx] = val;
                                },
                            )?;
                            match outcome {
                                DeltaOutcome::Applied { reach_fraction } => {
                                    self.last_increment = inc;
                                    self.path_stats.sparse_fastpath_hits += 1;
                                    self.path_stats.reach_fraction_sum += reach_fraction;
                                    self.path_stats.reach_samples += 1;
                                    incr.valid = true;
                                    handled = true;
                                }
                                DeltaOutcome::Fallback { reach_fraction } => {
                                    // b_loc is already fully up to date
                                    // bitwise, so reuse it as the dense RHS
                                    // and refresh the delta cache for the
                                    // next step.
                                    self.path_stats.reach_fraction_sum += reach_fraction;
                                    self.path_stats.reach_samples += 1;
                                    rhs.clear();
                                    rhs.extend_from_slice(&incr.b_loc);
                                    lu.solve_into_cached(rhs, scratch, &mut incr.cache)?;
                                    self.last_increment = increment_norm(rhs, x_sub);
                                    x_sub.copy_from_slice(rhs);
                                    self.path_stats.dense_fallbacks += 1;
                                    incr.valid = true;
                                    handled = true;
                                }
                            }
                        }
                    }
                }
                if !handled {
                    self.blk.local_rhs_into(self.b_single, x_global, rhs)?;
                    if self.incremental {
                        if let Some(lu) = self.factor.as_sparse_lu() {
                            incr.b_loc.clear();
                            incr.b_loc.extend_from_slice(rhs);
                            lu.solve_into_cached(rhs, scratch, &mut incr.cache)?;
                        } else {
                            // Non-sparse factors still benefit from the
                            // unchanged-dependency skip; b_loc stays stale
                            // but is never read on that path.
                            self.factor.solve_into(rhs, scratch)?;
                        }
                        incr.valid = true;
                    } else {
                        self.factor.solve_into(rhs, scratch)?;
                    }
                    self.last_increment = increment_norm(rhs, x_sub);
                    x_sub.copy_from_slice(rhs);
                    self.path_stats.dense_fallbacks += 1;
                }
            }
            EngineShape::Batch(ncols) => {
                let IterationWorkspace {
                    x_globals,
                    rhs_cols,
                    x_cols,
                    scratch,
                    ..
                } = &mut *self.ws;
                for ((c, neighbor), x_global) in
                    self.neighbors.iter().enumerate().zip(x_globals.iter_mut())
                {
                    neighbor.fill_dependencies(x_global);
                    // Track dependency movement per column as well as the
                    // batch-wide maximum: a solo run of column `c` observes
                    // only its own dependency values, and the per-column
                    // convergence bits ([`ColumnTracker`]) must reproduce
                    // that observation exactly.
                    let mut col_dep = 0.0f64;
                    for (slot, &g) in neighbor.dependency_columns().iter().enumerate() {
                        let prev = &mut self.prev_deps[c * self.dep_cols_per_neighbor + slot];
                        col_dep = col_dep.max((x_global[g] - *prev).abs());
                        *prev = x_global[g];
                    }
                    self.col_dep_changes[c] = col_dep;
                    dep_change = dep_change.max(col_dep);
                }
                for (x_global, (rhs, b_col)) in x_globals
                    .iter()
                    .zip(rhs_cols.iter_mut().zip(self.b_cols.iter()))
                {
                    self.blk.local_rhs_into(b_col, x_global, rhs)?;
                }
                self.factor.solve_many_into(rhs_cols, scratch)?;
                for (c, (n, o)) in rhs_cols.iter().zip(x_cols.iter()).enumerate() {
                    self.col_increments[c] = increment_norm(n, o);
                }
                self.last_increment = self.col_increments.iter().copied().fold(0.0f64, f64::max);
                for (xc, rc) in x_cols.iter_mut().zip(rhs_cols.iter()) {
                    xc.copy_from_slice(rc);
                }
                self.path_stats.dense_fallbacks += 1;
                debug_assert_eq!(ncols, x_cols.len());
            }
        }
        Ok(StepObservation {
            iteration: self.iterations,
            increment: self.last_increment,
            dep_change,
            fresh_data,
            needs_fresh_data: self.needs_fresh_data,
        })
    }

    /// Builds the outbound solution message of the current iterate (the
    /// payload clone is the communication cost, not part of the solve path).
    pub fn outgoing(&self) -> Message {
        match self.shape {
            EngineShape::Single => Message::Solution {
                from: self.rank,
                iteration: self.iterations,
                offset: self.blk.offset,
                values: self.ws.x_sub.clone(),
            },
            EngineShape::Batch(_) => Message::SolutionBatch {
                from: self.rank,
                iteration: self.iterations,
                offset: self.blk.offset,
                columns: self.ws.x_cols.clone(),
            },
        }
    }

    /// Encoded size of [`RankEngine::outgoing`] in bytes, without building
    /// the message (mirrors [`Message::encoded_len`]; the unit tests pin the
    /// two against each other).
    pub fn outgoing_encoded_len(&self) -> usize {
        match self.shape {
            EngineShape::Single => 1 + 8 + 8 + 8 + 8 + 8 * self.ws.x_sub.len(),
            EngineShape::Batch(_) => {
                let payload: usize = self.ws.x_cols.iter().map(|c| 8 + 8 * c.len()).sum();
                1 + 8 + 8 + 8 + 8 + payload
            }
        }
    }

    /// The current local iterate (single-RHS shape).
    pub fn x_local(&self) -> &[f64] {
        &self.ws.x_sub
    }

    /// The current local iterate columns (batch shape).
    pub fn x_columns(&self) -> &[Vec<f64>] {
        &self.ws.x_cols
    }

    /// Per-column increment norms of the most recent batch step — entry `c`
    /// is exactly what a solo [`RankEngine::single`] run of column `c` would
    /// have reported as [`StepObservation::increment`].  Empty in single
    /// shape.
    pub fn column_increments(&self) -> &[f64] {
        &self.col_increments
    }

    /// Per-column dependency movement of the most recent batch step — entry
    /// `c` is exactly what a solo run of column `c` would have reported as
    /// [`StepObservation::dep_change`].  Empty in single shape.
    pub fn column_dep_changes(&self) -> &[f64] {
        &self.col_dep_changes
    }

    /// Replays a recorded transition sequence onto this (freshly prepared)
    /// engine.  Applying the same log to an engine prepared from the same
    /// blocks and factorization reproduces the live run bitwise.
    pub fn replay(&mut self, log: &EventLog) -> Result<(), CoreError> {
        for event in &log.events {
            match event {
                EngineEvent::Ingest(msg) => {
                    self.ingest(msg.clone());
                }
                EngineEvent::Step => {
                    self.step()?;
                }
            }
        }
        Ok(())
    }

    /// Captures the complete mutable state of this (single-RHS) engine for a
    /// checkpoint.  Because [`RankEngine::step`] reads nothing but the halo,
    /// `x_sub` and `prev_deps` (the dependency columns of `x_global` are
    /// refilled from the halo every sweep), restoring this snapshot into a
    /// freshly prepared engine and continuing is bitwise-identical to never
    /// having stopped.
    pub fn snapshot(&self) -> Result<EngineSnapshot, CoreError> {
        match self.shape {
            EngineShape::Single => Ok(EngineSnapshot {
                iterations: self.iterations,
                last_increment: self.last_increment,
                fresh_since_step: self.fresh_since_step,
                x_sub: self.ws.x_sub.clone(),
                prev_deps: self.prev_deps.clone(),
                halo: self.neighbors[0].export_state(),
            }),
            EngineShape::Batch(_) => Err(CoreError::Checkpoint(
                crate::checkpoint::CheckpointError::ShapeMismatch(
                    "checkpointing supports the single right-hand-side engine shape only"
                        .to_string(),
                ),
            )),
        }
    }

    /// Restores a snapshot captured by [`RankEngine::snapshot`] into this
    /// freshly prepared engine.  The snapshot must come from the same block
    /// shape (extended-range size, dependency columns, world size) or a
    /// typed [`crate::checkpoint::CheckpointError::ShapeMismatch`] is
    /// returned with the engine untouched.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), CoreError> {
        let shape_err = |msg: String| {
            CoreError::Checkpoint(crate::checkpoint::CheckpointError::ShapeMismatch(msg))
        };
        if !matches!(self.shape, EngineShape::Single) {
            return Err(shape_err(
                "checkpointing supports the single right-hand-side engine shape only".to_string(),
            ));
        }
        if snap.x_sub.len() != self.ws.x_sub.len() {
            return Err(shape_err(format!(
                "snapshot iterate has {} entries, band expects {}",
                snap.x_sub.len(),
                self.ws.x_sub.len()
            )));
        }
        if snap.prev_deps.len() != self.prev_deps.len() {
            return Err(shape_err(format!(
                "snapshot has {} dependency values, band expects {}",
                snap.prev_deps.len(),
                self.prev_deps.len()
            )));
        }
        if !self.neighbors[0].restore_state(&snap.halo) {
            return Err(shape_err(format!(
                "snapshot halo covers {} peers, transport has a different world",
                snap.halo.len()
            )));
        }
        self.ws.x_sub.copy_from_slice(&snap.x_sub);
        self.prev_deps.copy_from_slice(&snap.prev_deps);
        self.iterations = snap.iterations;
        self.last_increment = snap.last_increment;
        self.fresh_since_step = snap.fresh_since_step;
        // The restored iterate invalidates every cached solve intermediate;
        // the next step re-assembles and solves densely.
        self.ws.incr.invalidate();
        Ok(())
    }

    /// Seeds a freshly prepared (single-RHS) engine with a global initial
    /// guess instead of the all-zero default — the warm start of a
    /// redistributed solve, assembled from the pre-reshape checkpoints.
    /// Dependency columns with halo data are overwritten at the next sweep;
    /// columns whose sender has not spoken yet keep the warm-start value.
    pub fn warm_start(&mut self, x0: &[f64]) -> Result<(), CoreError> {
        if !matches!(self.shape, EngineShape::Single) || x0.len() != self.ws.x_global.len() {
            return Err(CoreError::Checkpoint(
                crate::checkpoint::CheckpointError::ShapeMismatch(format!(
                    "warm start of {} entries does not fit a system of order {}",
                    x0.len(),
                    self.ws.x_global.len()
                )),
            ));
        }
        self.ws.x_global.copy_from_slice(x0);
        let offset = self.blk.offset;
        let size = self.ws.x_sub.len();
        self.ws.x_sub.copy_from_slice(&x0[offset..offset + size]);
        self.ws.incr.invalidate();
        Ok(())
    }
}

/// The complete mutable state of a single-RHS [`RankEngine`], as captured by
/// [`RankEngine::snapshot`] and persisted by [`crate::checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Outer iterations performed.
    pub iterations: u64,
    /// Infinity norm of the most recent iterate increment.
    pub last_increment: f64,
    /// Whether fresh halo data arrived after the last step.
    pub fresh_since_step: bool,
    /// The local iterate over the band's extended range.
    pub x_sub: Vec<f64>,
    /// Previous dependency values (dependency-movement observation state).
    pub prev_deps: Vec<f64>,
    /// Per-peer halo state: iteration stamp and latest slice, one entry per
    /// rank of the world.
    pub halo: Vec<HaloEntry>,
}

/// One peer's halo state in an [`EngineSnapshot`]: the iteration stamp of
/// the latest slice received from that peer and, when one arrived, its
/// `(global offset, values)`.
pub type HaloEntry = (u64, Option<(usize, Vec<f64>)>);

// ---------------------------------------------------------------------------
// Local votes
// ---------------------------------------------------------------------------

/// The local convergence verdict of one rank, derived from a
/// [`StepObservation`].  Implementations are composable — see
/// [`StaleSweepGuard`].
pub trait LocalVote: Send {
    /// Records the observation and returns this rank's vote.
    fn vote(&mut self, obs: &StepObservation) -> bool;

    /// The increment this vote judges — what the run should *report* as its
    /// last increment.  The free-running vote folds dependency movement in
    /// (a rank whose own iterate is stable while its inputs still move has
    /// not converged by that much), so the reported metric stays consistent
    /// with the decision logic.
    fn effective_increment(&self, obs: &StepObservation) -> f64 {
        obs.increment
    }

    /// The persistable convergence-window progress of this vote, captured at
    /// a checkpoint boundary so a resumed rank reproduces the exact same
    /// convergence decision sequence.  Stateless votes return the default.
    fn checkpoint_state(&self) -> VoteState {
        VoteState {
            consecutive: 0,
            last_increment: f64::INFINITY,
        }
    }

    /// Restores window progress captured by [`LocalVote::checkpoint_state`].
    /// A no-op for stateless votes.
    fn restore_state(&mut self, _state: VoteState) {}
}

/// Convergence-window progress of a [`LocalVote`], the policy state a
/// checkpoint persists alongside the engine snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteState {
    /// Consecutive below-tolerance iterations observed so far.
    pub consecutive: u64,
    /// Most recent effective increment recorded.
    pub last_increment: f64,
}

/// Base vote: the iterate increment has stayed below tolerance for a
/// configured window ([`ResidualTracker`]).
pub struct IncrementVote {
    tracker: ResidualTracker,
    include_dep_change: bool,
}

impl IncrementVote {
    /// Lockstep variant: a single below-tolerance increment suffices (the
    /// lockstep wait guarantees the iterate was computed from fresh data).
    pub fn lockstep(tolerance: f64) -> Self {
        IncrementVote {
            tracker: ResidualTracker::new(tolerance, 1),
            include_dep_change: false,
        }
    }

    /// Free-running variant: a 2-iteration stability window over
    /// `max(increment, dep_change)` — with free-running iterations a single
    /// tiny increment can be an artifact of not having received fresh data
    /// yet, and inputs still moving must veto the verdict.
    pub fn free_running(tolerance: f64) -> Self {
        IncrementVote {
            tracker: ResidualTracker::new(tolerance, 2),
            include_dep_change: true,
        }
    }
}

impl LocalVote for IncrementVote {
    fn vote(&mut self, obs: &StepObservation) -> bool {
        let increment = self.effective_increment(obs);
        self.tracker.record(increment) == LocalConvergence::Converged
    }

    fn effective_increment(&self, obs: &StepObservation) -> f64 {
        if self.include_dep_change {
            obs.increment.max(obs.dep_change)
        } else {
            obs.increment
        }
    }

    fn checkpoint_state(&self) -> VoteState {
        VoteState {
            consecutive: self.tracker.consecutive() as u64,
            last_increment: self.tracker.last_increment(),
        }
    }

    fn restore_state(&mut self, state: VoteState) {
        self.tracker
            .restore(state.consecutive as usize, state.last_increment);
    }
}

/// Composable stale-sweep guard: a rank with dependencies may only count a
/// tiny increment as convergence evidence when fresh halo data actually
/// arrived since the previous sweep *and* that data did not move its
/// dependency values — a sweep over in-flight slices recomputes the same
/// iterate, a zero increment that says nothing.  A no-op for ranks without
/// dependencies.
pub struct StaleSweepGuard<V> {
    inner: V,
    tolerance: f64,
}

impl<V: LocalVote> StaleSweepGuard<V> {
    /// Wraps `inner` with the guard at the given dependency-movement
    /// tolerance.
    pub fn new(inner: V, tolerance: f64) -> Self {
        StaleSweepGuard { inner, tolerance }
    }
}

impl<V: LocalVote> LocalVote for StaleSweepGuard<V> {
    fn vote(&mut self, obs: &StepObservation) -> bool {
        // Always advance the inner tracker, even when the guard vetoes.
        let inner = self.inner.vote(obs);
        inner && obs.dep_change <= self.tolerance && (obs.fresh_data || !obs.needs_fresh_data)
    }

    fn effective_increment(&self, obs: &StepObservation) -> f64 {
        self.inner.effective_increment(obs)
    }

    fn checkpoint_state(&self) -> VoteState {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: VoteState) {
        self.inner.restore_state(state);
    }
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

/// Why a run is asking the launcher for a new band layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshapeReason {
    /// The given rank died permanently; survivors need its rows.
    RankDeath(usize),
    /// Observed per-rank iteration speeds drifted beyond the configured
    /// threshold; the same rows deserve new splitting weights.
    SpeedDrift,
}

/// Control-flow outcome of a policy interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep iterating.
    Continue,
    /// Global convergence was decided.
    Converged,
    /// A peer halted the run (budget exhaustion or failure elsewhere).
    Halted,
    /// The run must stop so the launcher can re-partition the bands
    /// ([`FailurePolicy::Redistribute`] / speed-drift rebalancing).
    Reshape(ReshapeReason),
}

/// What a send to a disconnected peer means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathRule {
    /// Propagate the transport error (strict).
    Fatal,
    /// Broadcast [`Message::Halt`] to the surviving peers and abort the run
    /// with a descriptive error — the lockstep failure response.
    Halt,
    /// Mark the peer dead and skip it — the free-running rule: a peer that
    /// reached global convergence exits while slower ranks still send to it,
    /// and the `GlobalConverged` it flushed on the way out is already queued
    /// or in flight (see [`ConfirmationWaves`]).
    Tolerate,
    /// Mark the peer dead, broadcast [`Message::Reshape`] to the survivors
    /// and surface [`Flow::Reshape`] from the drive loop — the elastic
    /// failure response of [`FailurePolicy::Redistribute`].
    Reshape,
}

/// How the runtime reacts to a rank death observed mid-solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Surface the raw transport error to the caller.
    FailFast,
    /// Probe silent peers with [`Message::Heartbeat`] every `heartbeat`
    /// during blocking waits; on [`CommError::Disconnected`] broadcast
    /// [`Message::Halt`] and fail fast instead of hanging until the peer
    /// timeout.
    HaltOnDeath {
        /// Probe interval.
        heartbeat: Duration,
    },
    /// Probe like [`FailurePolicy::HaltOnDeath`], but treat a detected death
    /// as a request to reshape: the drive loop returns
    /// [`Flow::Reshape`]`(`[`ReshapeReason::RankDeath`]`)` so the launcher
    /// can re-derive band ownership over the survivors and resume from the
    /// latest checkpoints instead of failing the job.
    Redistribute {
        /// Probe interval.
        heartbeat: Duration,
    },
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy::HaltOnDeath {
            heartbeat: Duration::from_secs(1),
        }
    }
}

impl FailurePolicy {
    fn death_rule(self) -> DeathRule {
        match self {
            FailurePolicy::FailFast => DeathRule::Fatal,
            FailurePolicy::HaltOnDeath { .. } => DeathRule::Halt,
            FailurePolicy::Redistribute { .. } => DeathRule::Reshape,
        }
    }

    /// The heartbeat probe interval, when this policy probes at all.
    fn heartbeat(self) -> Option<Duration> {
        match self {
            FailurePolicy::FailFast => None,
            FailurePolicy::HaltOnDeath { heartbeat }
            | FailurePolicy::Redistribute { heartbeat } => Some(heartbeat),
        }
    }
}

/// The per-rank communication surface the policies act through: transport
/// endpoint, fan-out targets, expected senders and the dead-peer set.
pub struct RankLink<'a> {
    transport: &'a dyn Transport,
    rank: usize,
    world: usize,
    send_targets: &'a [usize],
    senders_to_me: &'a [usize],
    dead: Vec<bool>,
    /// A reshape request raised by a [`DeathRule::Reshape`] send failure,
    /// consumed by the drive loop via [`RankLink::take_reshape`].
    pending_reshape: Option<ReshapeReason>,
    /// Latest observed per-rank step times in microseconds (0 = unknown),
    /// fed by [`Message::SpeedReport`] on rank 0.
    speeds: Vec<u64>,
}

impl<'a> RankLink<'a> {
    /// Builds the link for `rank` over `transport`.
    pub fn new(
        transport: &'a dyn Transport,
        rank: usize,
        send_targets: &'a [usize],
        senders_to_me: &'a [usize],
    ) -> Self {
        let world = transport.num_ranks();
        RankLink {
            transport,
            rank,
            world,
            send_targets,
            senders_to_me,
            dead: vec![false; world],
            pending_reshape: None,
            speeds: vec![0; world],
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// The peers whose slices this rank waits for in lockstep mode.
    pub fn senders_to_me(&self) -> &[usize] {
        self.senders_to_me
    }

    /// Sends `msg` to `to` under the given death rule.
    pub fn send_ruled(
        &mut self,
        to: usize,
        msg: Message,
        rule: DeathRule,
    ) -> Result<(), CoreError> {
        if self.dead[to] {
            return Ok(());
        }
        match self.transport.send(self.rank, to, msg) {
            Ok(()) => Ok(()),
            Err(CommError::Disconnected { .. }) => {
                self.dead[to] = true;
                match rule {
                    DeathRule::Fatal => Err(CoreError::Comm(CommError::Disconnected { rank: to })),
                    DeathRule::Tolerate => Ok(()),
                    DeathRule::Halt => {
                        self.broadcast_halt();
                        Err(CoreError::Distributed(format!(
                            "rank {}: peer rank {to} disconnected mid-solve; halted the run",
                            self.rank
                        )))
                    }
                    DeathRule::Reshape => {
                        self.raise_reshape(ReshapeReason::RankDeath(to));
                        Ok(())
                    }
                }
            }
            Err(e) => Err(CoreError::Comm(e)),
        }
    }

    /// Records a reshape request and announces it to the surviving peers
    /// (best effort, first request wins).
    fn raise_reshape(&mut self, reason: ReshapeReason) {
        if self.pending_reshape.is_some() {
            return;
        }
        self.pending_reshape = Some(reason);
        let note = Message::Reshape {
            from: self.rank,
            dead_rank: match reason {
                ReshapeReason::RankDeath(r) => Some(r),
                ReshapeReason::SpeedDrift => None,
            },
        };
        for to in 0..self.world {
            if to != self.rank && !self.dead[to] {
                if let Err(CommError::Disconnected { .. }) =
                    self.transport.send(self.rank, to, note.clone())
                {
                    self.dead[to] = true;
                }
            }
        }
    }

    /// Consumes a pending reshape request raised by a failed send or a
    /// liveness probe under [`DeathRule::Reshape`].
    pub fn take_reshape(&mut self) -> Option<ReshapeReason> {
        self.pending_reshape.take()
    }

    /// Records an observed step time for `rank` (rank 0's rebalancing input).
    pub fn note_speed(&mut self, rank: usize, step_micros: u64) {
        if rank < self.speeds.len() {
            self.speeds[rank] = step_micros;
        }
    }

    /// Latest observed per-rank step times in microseconds (0 = unknown).
    pub fn observed_speeds(&self) -> &[u64] {
        &self.speeds
    }

    /// Number of peers observed dead so far.
    pub fn dead_count(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }

    /// The ranks observed dead so far.
    pub fn dead_ranks(&self) -> Vec<usize> {
        (0..self.world).filter(|&r| self.dead[r]).collect()
    }

    /// Fans `msg` out to every send target.
    pub fn fan_out(&mut self, msg: Message, rule: DeathRule) -> Result<(), CoreError> {
        // Iterate over a copied target list so `send_ruled` can borrow self.
        for i in 0..self.send_targets.len() {
            let to = self.send_targets[i];
            self.send_ruled(to, msg.clone(), rule)?;
        }
        Ok(())
    }

    /// Best-effort [`Message::Halt`] to every live peer.  Idempotent and
    /// death-tolerant by construction: errors are swallowed and disconnected
    /// peers (e.g. a converged rank that already exited) are skipped.
    pub fn broadcast_halt(&mut self) {
        for to in 0..self.world {
            if to != self.rank && !self.dead[to] {
                if let Err(CommError::Disconnected { .. }) =
                    self.transport.send(self.rank, to, Message::Halt)
                {
                    self.dead[to] = true;
                }
            }
        }
    }

    /// Probes every live peer with a heartbeat; a disconnected peer triggers
    /// the failure response of `rule` (halt-and-abort for lockstep
    /// [`FailurePolicy::HaltOnDeath`], a pending reshape for
    /// [`FailurePolicy::Redistribute`], silent marking for the free-running
    /// tolerate-then-verify path).
    fn probe_liveness(&mut self, rule: DeathRule) -> Result<(), CoreError> {
        for to in 0..self.world {
            if to != self.rank && !self.dead[to] {
                let probe = Message::Heartbeat { from: self.rank };
                self.send_ruled(to, probe, rule)?;
            }
        }
        Ok(())
    }

    /// Non-blocking receive on this rank's inbox.
    pub fn try_recv(&self) -> Result<Option<Message>, CommError> {
        self.transport.try_recv(self.rank)
    }

    /// Blocking receive with a timeout on this rank's inbox.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, CommError> {
        self.transport.recv_timeout(self.rank, timeout)
    }
}

// ---------------------------------------------------------------------------
// Convergence policies
// ---------------------------------------------------------------------------

/// How local votes become a global convergence decision.
///
/// A policy is a message-level protocol state machine: it may emit protocol
/// traffic through the [`RankLink`] and observes inbound control messages.
pub trait ConvergencePolicy: Send {
    /// Submits this rank's local vote for `iteration`.
    fn submit(
        &mut self,
        iteration: u64,
        vote: bool,
        link: &mut RankLink,
    ) -> Result<Flow, CoreError>;

    /// Observes an inbound control message.
    fn observe(&mut self, msg: &Message, link: &mut RankLink) -> Result<Flow, CoreError>;

    /// Whether the policy still awaits protocol traffic for `iteration`
    /// (lockstep: until the decision is known; free-running: never).
    fn waiting(&self, iteration: u64) -> bool;

    /// Whether a known decision makes the remaining dependency slices of the
    /// current iteration irrelevant (a converged lockstep decision does).
    fn skip_pending_data(&self) -> bool;

    /// Resolves `iteration` once [`ConvergencePolicy::waiting`] is false;
    /// the lockstep coordinator broadcasts its decision here.
    fn resolve(&mut self, iteration: u64, link: &mut RankLink) -> Result<Flow, CoreError>;

    /// Budget exhausted: notify peers so nobody spins forever.
    fn abandon(&mut self, link: &mut RankLink);

    /// The dead-peer rule of this protocol (see [`DeathRule`]).
    fn death_rule(&self) -> DeathRule;
}

/// Centralized per-iteration vote collection — the message-based equivalent
/// of the barrier + allreduce the paper's MPI implementation used.  Rank 0
/// collects every rank's [`Message::ConvergenceVote`] for the iteration and
/// broadcasts the AND decision; the vote wait *is* the barrier and the
/// decision broadcast *is* the allreduce, so the iterates are identical over
/// any transport.
pub struct LockstepVotes {
    rank: usize,
    world: usize,
    failure: FailurePolicy,
    /// Coordinator: votes and receipt flags of the current iteration.
    votes: Vec<bool>,
    vote_seen: Vec<bool>,
    /// Peer: the coordinator's decision for the current iteration.
    decision: Option<bool>,
    current: u64,
}

impl LockstepVotes {
    /// Builds the policy for `rank` in a `world`-rank run.
    pub fn new(rank: usize, world: usize, failure: FailurePolicy) -> Self {
        LockstepVotes {
            rank,
            world,
            failure,
            votes: vec![false; world],
            vote_seen: vec![false; world],
            decision: None,
            current: 0,
        }
    }

    fn is_coordinator(&self) -> bool {
        self.rank == 0
    }
}

impl ConvergencePolicy for LockstepVotes {
    fn submit(
        &mut self,
        iteration: u64,
        vote: bool,
        link: &mut RankLink,
    ) -> Result<Flow, CoreError> {
        self.current = iteration;
        if self.is_coordinator() {
            self.votes.iter_mut().for_each(|v| *v = false);
            self.vote_seen.iter_mut().for_each(|v| *v = false);
            self.votes[0] = vote;
            self.vote_seen[0] = true;
        } else {
            self.decision = None;
            link.send_ruled(
                0,
                Message::ConvergenceVote {
                    from: self.rank,
                    iteration,
                    converged: vote,
                },
                self.death_rule(),
            )?;
        }
        Ok(Flow::Continue)
    }

    fn observe(&mut self, msg: &Message, _link: &mut RankLink) -> Result<Flow, CoreError> {
        match msg {
            Message::ConvergenceVote {
                from,
                iteration,
                converged,
            } if *iteration == self.current => {
                if self.is_coordinator() {
                    if *from < self.world {
                        self.votes[*from] = *converged;
                        self.vote_seen[*from] = true;
                    }
                } else if *from == 0 {
                    self.decision = Some(*converged);
                }
                Ok(Flow::Continue)
            }
            Message::GlobalConverged { .. } => Ok(Flow::Converged),
            Message::Halt => Ok(Flow::Halted),
            _ => Ok(Flow::Continue),
        }
    }

    fn waiting(&self, iteration: u64) -> bool {
        debug_assert_eq!(iteration, self.current);
        if self.is_coordinator() {
            !self.vote_seen.iter().all(|&v| v)
        } else {
            self.decision.is_none()
        }
    }

    fn skip_pending_data(&self) -> bool {
        // A converged decision makes the pending slices of this iteration
        // irrelevant; the coordinator only knows its decision in `resolve`.
        !self.is_coordinator() && self.decision == Some(true)
    }

    fn resolve(&mut self, iteration: u64, link: &mut RankLink) -> Result<Flow, CoreError> {
        if self.is_coordinator() {
            let decision = self.votes.iter().all(|&v| v);
            let note = Message::ConvergenceVote {
                from: 0,
                iteration,
                converged: decision,
            };
            let rule = self.death_rule();
            for to in 1..self.world {
                link.send_ruled(to, note.clone(), rule)?;
            }
            Ok(if decision {
                Flow::Converged
            } else {
                Flow::Continue
            })
        } else {
            Ok(match self.decision {
                Some(true) => Flow::Converged,
                _ => Flow::Continue,
            })
        }
    }

    fn abandon(&mut self, _link: &mut RankLink) {
        // Lockstep budget exhaustion is synchronized: every rank runs out at
        // the same iteration, so no halt broadcast is needed.
    }

    fn death_rule(&self) -> DeathRule {
        self.failure.death_rule()
    }
}

/// Tree-structured per-iteration vote collection: the same barrier +
/// allreduce semantics as [`LockstepVotes`], but votes aggregate up a
/// configurable-arity reduction tree rooted at rank 0 and the decision
/// broadcasts back down the same tree, so the coordinator handles
/// `arity` inbound [`Message::VoteAggregate`] frames per decision instead of
/// `P - 1` flat votes — O(arity · log P) coordinator load.
///
/// The decision each iteration is the AND over every rank's vote, exactly as
/// in the flat protocol, and every rank forwards the decision to its children
/// only in [`ConvergencePolicy::resolve`] — after its own wait loop fully
/// completed — which preserves the flat protocol's ordering invariant (no
/// iteration-`i+1` traffic can reach a node whose current iteration is still
/// `i`).  The iterates are therefore **bitwise identical** to
/// [`LockstepVotes`] on the same schedule.
pub struct TreeVotes {
    rank: usize,
    world: usize,
    failure: FailurePolicy,
    /// Direct children of this rank in the arity-`k` tree (`k·r + 1 ..=
    /// k·r + k`, clipped to the world).
    children: Vec<usize>,
    /// Parent of this rank (`(r - 1) / k`); `None` for the root.
    parent: Option<usize>,
    /// Ranks in this rank's subtree, this rank included — carried in the
    /// upward aggregate so a dropped subtree is detectable.
    subtree_count: u64,
    /// AND of this rank's own vote and every child aggregate received for
    /// the current iteration.
    agg: bool,
    /// Ranks folded into `agg` so far this iteration.
    agg_count: u64,
    /// Child aggregates still outstanding for the current iteration.
    pending_children: usize,
    /// The decision received from the parent (non-root ranks).
    decision: Option<bool>,
    current: u64,
}

impl TreeVotes {
    /// Builds the policy for `rank` in a `world`-rank run with the given
    /// reduction-tree arity (clamped to at least 2).
    pub fn new(rank: usize, world: usize, arity: usize, failure: FailurePolicy) -> Self {
        let arity = arity.max(2);
        let children: Vec<usize> = (arity * rank + 1..=arity * rank + arity)
            .filter(|&c| c < world)
            .collect();
        // Subtree size of `rank`: walk their descendants breadth-first; the
        // tree is static, so this runs once at construction.
        let mut subtree_count = 1u64;
        let mut frontier = children.clone();
        while let Some(node) = frontier.pop() {
            subtree_count += 1;
            frontier.extend((arity * node + 1..=arity * node + arity).filter(|&c| c < world));
        }
        TreeVotes {
            rank,
            world,
            failure,
            children,
            parent: (rank > 0).then(|| (rank - 1) / arity),
            subtree_count,
            agg: false,
            agg_count: 0,
            pending_children: 0,
            decision: None,
            current: 0,
        }
    }

    fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// Sends this rank's completed subtree aggregate to its parent.
    fn send_up(&mut self, iteration: u64, link: &mut RankLink) -> Result<(), CoreError> {
        debug_assert_eq!(self.agg_count, self.subtree_count);
        if let Some(parent) = self.parent {
            link.send_ruled(
                parent,
                Message::VoteAggregate {
                    from: self.rank,
                    iteration,
                    converged: self.agg,
                    count: self.agg_count,
                },
                self.death_rule(),
            )?;
        }
        Ok(())
    }

    /// Forwards the known decision for `iteration` down to the children.
    fn send_down(
        &mut self,
        iteration: u64,
        decision: bool,
        link: &mut RankLink,
    ) -> Result<(), CoreError> {
        let rule = self.death_rule();
        let note = Message::ConvergenceVote {
            from: self.rank,
            iteration,
            converged: decision,
        };
        // Iterate over a copy so `send_ruled` can borrow the link.
        for i in 0..self.children.len() {
            let child = self.children[i];
            link.send_ruled(child, note.clone(), rule)?;
        }
        Ok(())
    }
}

impl ConvergencePolicy for TreeVotes {
    fn submit(
        &mut self,
        iteration: u64,
        vote: bool,
        link: &mut RankLink,
    ) -> Result<Flow, CoreError> {
        self.current = iteration;
        self.decision = None;
        self.agg = vote;
        self.agg_count = 1;
        self.pending_children = self.children.len();
        if self.pending_children == 0 {
            // A leaf's subtree is itself: its aggregate goes up immediately.
            self.send_up(iteration, link)?;
        }
        Ok(Flow::Continue)
    }

    fn observe(&mut self, msg: &Message, link: &mut RankLink) -> Result<Flow, CoreError> {
        match msg {
            Message::VoteAggregate {
                from,
                iteration,
                converged,
                count,
            } if *iteration == self.current => {
                if self.pending_children > 0 && self.children.contains(from) {
                    self.agg &= *converged;
                    self.agg_count += *count;
                    self.pending_children -= 1;
                    if self.pending_children == 0 {
                        self.send_up(*iteration, link)?;
                    }
                }
                Ok(Flow::Continue)
            }
            Message::ConvergenceVote {
                from,
                iteration,
                converged,
            } if *iteration == self.current && Some(*from) == self.parent => {
                self.decision = Some(*converged);
                Ok(Flow::Continue)
            }
            Message::GlobalConverged { .. } => Ok(Flow::Converged),
            Message::Halt => Ok(Flow::Halted),
            _ => Ok(Flow::Continue),
        }
    }

    fn waiting(&self, iteration: u64) -> bool {
        debug_assert_eq!(iteration, self.current);
        if self.is_root() {
            self.pending_children > 0
        } else {
            // The parent's decision can only arrive after this rank's own
            // aggregate went up, so it subsumes the child wait.
            self.decision.is_none()
        }
    }

    fn skip_pending_data(&self) -> bool {
        !self.is_root() && self.decision == Some(true)
    }

    fn resolve(&mut self, iteration: u64, link: &mut RankLink) -> Result<Flow, CoreError> {
        let decision = if self.is_root() {
            // Every subtree reported: the AND over all `world` votes.
            debug_assert_eq!(self.agg_count, self.world as u64);
            self.agg
        } else {
            // `waiting` held the exchange loop until the parent's decision
            // arrived.
            self.decision.unwrap_or(false)
        };
        // Forwarding *here* — after the wait loop fully completed — mirrors
        // the flat coordinator's broadcast-in-resolve and keeps children from
        // advancing while this node still waits on iteration traffic.
        self.send_down(iteration, decision, link)?;
        Ok(if decision {
            Flow::Converged
        } else {
            Flow::Continue
        })
    }

    fn abandon(&mut self, _link: &mut RankLink) {
        // Synchronized budget, as in `LockstepVotes`: no halt needed.
    }

    fn death_rule(&self) -> DeathRule {
        self.failure.death_rule()
    }
}

/// Coordinator-side vote board of the confirmation-wave protocol: global
/// convergence is declared only after every rank has re-sent a "converged"
/// vote `required` times *after* the all-converged state was first observed,
/// and any "not converged" vote resets the pending waves (the decentralized
/// detection scheme the paper cites, with rank 0 as coordinator).
#[derive(Debug)]
pub struct VoteBoard {
    votes: Vec<bool>,
    /// Count of `true` entries in `votes` — makes `record` O(1) per vote
    /// instead of an O(P) rescan, which is what lets the coordinator
    /// batch-drain a full sweep's votes at high rank counts.
    votes_true: usize,
    confirmed: Vec<bool>,
    confirmed_count: usize,
    in_wave: bool,
    waves_done: u64,
    required: u64,
    global: bool,
}

impl VoteBoard {
    /// Board for `world` ranks requiring `required` confirmation waves.
    pub fn new(world: usize, required: u64) -> Self {
        VoteBoard {
            votes: vec![false; world],
            votes_true: 0,
            confirmed: vec![false; world],
            confirmed_count: 0,
            in_wave: false,
            waves_done: 0,
            required: required.max(1),
            global: false,
        }
    }

    /// Records a vote; returns `true` once global convergence is latched.
    pub fn record(&mut self, from: usize, converged: bool) -> bool {
        if self.global || from >= self.votes.len() {
            return self.global;
        }
        if !converged {
            if self.votes[from] {
                self.votes[from] = false;
                self.votes_true -= 1;
            }
            self.in_wave = false;
            self.waves_done = 0;
            return false;
        }
        if !self.votes[from] {
            self.votes[from] = true;
            self.votes_true += 1;
        }
        if self.votes_true < self.votes.len() {
            return false;
        }
        if !self.in_wave {
            self.in_wave = true;
            self.confirmed.iter_mut().for_each(|c| *c = false);
            self.confirmed_count = 0;
        }
        if !self.confirmed[from] {
            self.confirmed[from] = true;
            self.confirmed_count += 1;
        }
        if self.confirmed_count == self.confirmed.len() {
            self.waves_done += 1;
            if self.waves_done >= self.required {
                self.global = true;
            } else {
                self.confirmed.iter_mut().for_each(|c| *c = false);
                self.confirmed_count = 0;
            }
        }
        self.global
    }

    /// Whether global convergence has been latched.
    pub fn is_global(&self) -> bool {
        self.global
    }
}

/// Free-running confirmation-wave convergence: peers send votes to rank 0 on
/// verdict changes (refreshed periodically), rank 0 runs a [`VoteBoard`] and
/// broadcasts [`Message::GlobalConverged`] once the configured number of
/// waves completes.
///
/// This policy owns the converged-peer-exit rule ([`DeathRule::Tolerate`]):
/// a rank that reached global convergence exits while slower ranks are still
/// sending to it.  That race is benign — the `GlobalConverged` it flushed on
/// the way out is already queued or in flight — so a disconnected peer is
/// skipped rather than fatal, and [`Message::Halt`] handling is idempotent: a
/// halt racing a convergence broadcast never turns a converged run into a
/// failed one (see [`FreeRunning`]'s grace drain).
pub struct ConfirmationWaves {
    rank: usize,
    world: usize,
    /// Coordinator state (rank 0 only).
    board: Option<VoteBoard>,
    /// Coordinator: votes observed since the last sweep, folded into the
    /// board in one batch per [`ConvergencePolicy::submit`].  Observing a
    /// vote is then a single push instead of board work per message, so a
    /// coordinator drowning in votes at high rank counts does O(votes)
    /// buffering while it drains its inbox and adjudicates once per sweep.
    pending_votes: Vec<(usize, bool)>,
    last_vote_sent: Option<bool>,
}

impl ConfirmationWaves {
    /// Builds the policy for `rank`; `confirmations` is the number of
    /// complete waves required before global convergence is declared.
    pub fn new(rank: usize, world: usize, confirmations: u64) -> Self {
        ConfirmationWaves {
            rank,
            world,
            board: (rank == 0).then(|| VoteBoard::new(world, confirmations)),
            pending_votes: Vec::new(),
            last_vote_sent: None,
        }
    }

    fn broadcast_converged(
        &mut self,
        iteration: u64,
        link: &mut RankLink,
    ) -> Result<Flow, CoreError> {
        let note = Message::GlobalConverged { iteration };
        for to in 1..self.world {
            link.send_ruled(to, note.clone(), DeathRule::Tolerate)?;
        }
        Ok(Flow::Converged)
    }
}

impl ConvergencePolicy for ConfirmationWaves {
    fn submit(
        &mut self,
        iteration: u64,
        vote: bool,
        link: &mut RankLink,
    ) -> Result<Flow, CoreError> {
        if let Some(board) = &mut self.board {
            // Batch-drain the votes buffered since the last sweep (arrival
            // order preserved — wave semantics depend on it), then fold in
            // the coordinator's own verdict.
            let mut latched = false;
            for (from, converged) in self.pending_votes.drain(..) {
                latched |= board.record(from, converged);
            }
            latched |= board.record(0, vote);
            if latched {
                return self.broadcast_converged(iteration, link);
            }
        } else if self.last_vote_sent != Some(vote)
            // A stable *converged* verdict re-sends every iteration: the
            // confirmation waves advance only on converged votes, and a
            // ~26-byte vote is negligible next to the solution slice this
            // rank already sends each iteration (the shared in-process board
            // this protocol replaced saw every verdict every iteration, so
            // anything rarer would inflate async iteration counts).  An
            // unchanged *not-converged* verdict only refreshes periodically
            // — it carries no wave progress, just coordinator liveness.
            || vote
            || iteration.is_multiple_of(VOTE_REFRESH_ITERATIONS)
        {
            link.send_ruled(
                0,
                Message::ConvergenceVote {
                    from: self.rank,
                    iteration,
                    converged: vote,
                },
                DeathRule::Tolerate,
            )?;
            self.last_vote_sent = Some(vote);
        }
        Ok(Flow::Continue)
    }

    fn observe(&mut self, msg: &Message, _link: &mut RankLink) -> Result<Flow, CoreError> {
        match msg {
            Message::ConvergenceVote {
                from, converged, ..
            } => {
                if self.board.is_some() {
                    // Buffered, not adjudicated: the board runs once per
                    // sweep (see `submit`) so a vote flood costs a push per
                    // message instead of a board pass per message.
                    self.pending_votes.push((*from, *converged));
                }
                Ok(Flow::Continue)
            }
            Message::GlobalConverged { .. } => Ok(Flow::Converged),
            Message::Halt => Ok(Flow::Halted),
            _ => Ok(Flow::Continue),
        }
    }

    fn waiting(&self, _iteration: u64) -> bool {
        false
    }

    fn skip_pending_data(&self) -> bool {
        false
    }

    fn resolve(&mut self, _iteration: u64, _link: &mut RankLink) -> Result<Flow, CoreError> {
        Ok(Flow::Continue)
    }

    fn abandon(&mut self, link: &mut RankLink) {
        // Budget exhausted: tell the peers so nobody spins forever.
        link.broadcast_halt();
    }

    fn death_rule(&self) -> DeathRule {
        DeathRule::Tolerate
    }
}

/// Coordinator-free convergence detection in the pseudo-periodic AIAC style
/// (Zhang, Luo & Zhu, arXiv:1410.3197): every rank keeps a **local stability
/// counter** — consecutive iterations its own verdict stayed "converged" —
/// and broadcasts a [`Message::StabilitySummary`] whenever the counter
/// crosses the stability window or resets (refreshed periodically for
/// liveness).  Any rank whose own window is satisfied *and* whose last
/// summary from every peer also reports a satisfied window declares global
/// convergence and broadcasts [`Message::GlobalConverged`] itself — there is
/// no central [`VoteBoard`] and no coordinator round-trip on the critical
/// path.
///
/// A missing or stale summary counts as *not* stable, so convergence is
/// never declared before every rank's window was reported satisfied at least
/// once (no false positives under partial delivery); the stability window
/// plays the role of [`ConfirmationWaves`]' confirmation count in absorbing
/// votes that a late slice would have flipped.
pub struct DecentralizedWaves {
    rank: usize,
    world: usize,
    /// Consecutive locally-converged iterations required before this rank
    /// considers its own window (or a peer's claimed window) satisfied.
    stability_period: u64,
    /// This rank's consecutive locally-converged iteration count.
    local_stable: u64,
    /// Last claim received from each peer (own slot mirrors `local_stable`).
    peer_stable: Vec<u64>,
    /// The satisfied-bit of the last summary broadcast, for change detection.
    last_sent_satisfied: Option<bool>,
    declared: bool,
}

impl DecentralizedWaves {
    /// Builds the policy for `rank`; `stability_period` is the number of
    /// consecutive locally-converged iterations a rank must observe before
    /// its window counts as satisfied (clamped to at least 1).
    pub fn new(rank: usize, world: usize, stability_period: u64) -> Self {
        DecentralizedWaves {
            rank,
            world,
            stability_period: stability_period.max(1),
            local_stable: 0,
            peer_stable: vec![0; world],
            last_sent_satisfied: None,
            declared: false,
        }
    }

    /// Whether this rank's view says every rank's window is satisfied.
    fn all_windows_satisfied(&self) -> bool {
        self.peer_stable.iter().all(|&s| s >= self.stability_period)
    }

    /// Declares global convergence: broadcast to every live peer and stop.
    fn declare(&mut self, iteration: u64, link: &mut RankLink) -> Result<Flow, CoreError> {
        self.declared = true;
        let note = Message::GlobalConverged { iteration };
        for to in 0..self.world {
            if to != self.rank {
                link.send_ruled(to, note.clone(), DeathRule::Tolerate)?;
            }
        }
        Ok(Flow::Converged)
    }
}

impl ConvergencePolicy for DecentralizedWaves {
    fn submit(
        &mut self,
        iteration: u64,
        vote: bool,
        link: &mut RankLink,
    ) -> Result<Flow, CoreError> {
        self.local_stable = if vote { self.local_stable + 1 } else { 0 };
        self.peer_stable[self.rank] = self.local_stable;
        let satisfied = self.local_stable >= self.stability_period;
        if satisfied && self.all_windows_satisfied() {
            return self.declare(iteration, link);
        }
        // Pseudo-periodic summaries: broadcast when the satisfied-bit flips
        // (a window completing or a reset tearing one down) and refresh
        // periodically so peers that missed a frame re-learn the state.
        if self.last_sent_satisfied != Some(satisfied)
            || iteration.is_multiple_of(VOTE_REFRESH_ITERATIONS)
        {
            let note = Message::StabilitySummary {
                from: self.rank,
                iteration,
                stable: self.local_stable,
            };
            for to in 0..self.world {
                if to != self.rank {
                    link.send_ruled(to, note.clone(), DeathRule::Tolerate)?;
                }
            }
            self.last_sent_satisfied = Some(satisfied);
        }
        Ok(Flow::Continue)
    }

    fn observe(&mut self, msg: &Message, link: &mut RankLink) -> Result<Flow, CoreError> {
        match msg {
            Message::StabilitySummary {
                from,
                iteration,
                stable,
            } => {
                if *from < self.world {
                    self.peer_stable[*from] = *stable;
                }
                if !self.declared
                    && self.local_stable >= self.stability_period
                    && self.all_windows_satisfied()
                {
                    return self.declare(*iteration, link);
                }
                Ok(Flow::Continue)
            }
            Message::GlobalConverged { .. } => Ok(Flow::Converged),
            Message::Halt => Ok(Flow::Halted),
            _ => Ok(Flow::Continue),
        }
    }

    fn waiting(&self, _iteration: u64) -> bool {
        false
    }

    fn skip_pending_data(&self) -> bool {
        false
    }

    fn resolve(&mut self, _iteration: u64, _link: &mut RankLink) -> Result<Flow, CoreError> {
        Ok(Flow::Continue)
    }

    fn abandon(&mut self, link: &mut RankLink) {
        link.broadcast_halt();
    }

    fn death_rule(&self) -> DeathRule {
        DeathRule::Tolerate
    }
}

// ---------------------------------------------------------------------------
// Progress policies
// ---------------------------------------------------------------------------

/// When messages move between the transport and the engine.
pub trait ProgressPolicy: Send {
    /// Pre-step intake: deliver whatever inbound data the policy allows.
    fn collect(
        &mut self,
        engine: &mut RankEngine,
        link: &mut RankLink,
        conv: &mut dyn ConvergencePolicy,
    ) -> Result<Flow, CoreError>;

    /// Post-step exchange: for lockstep, the barrier-equivalent wait for this
    /// iteration's dependency slices and the convergence decision; for
    /// free-running, the idle backoff.
    fn exchange(
        &mut self,
        engine: &mut RankEngine,
        link: &mut RankLink,
        conv: &mut dyn ConvergencePolicy,
        obs: &StepObservation,
        vote: bool,
    ) -> Result<Flow, CoreError>;
}

pub(crate) fn data_meta(msg: &Message) -> Option<(usize, u64)> {
    match msg {
        Message::Solution {
            from, iteration, ..
        }
        | Message::SolutionBatch {
            from, iteration, ..
        } => Some((*from, *iteration)),
        _ => None,
    }
}

/// Marks a pending dependency slice as delivered when its iteration stamp
/// matches the current lockstep iteration.
pub(crate) fn mark_slice(
    senders: &[usize],
    pending: &mut [bool],
    from: usize,
    iteration: u64,
    current: u64,
) {
    if iteration == current {
        if let Some(slot) = senders.iter().position(|&s| s == from) {
            pending[slot] = false;
        }
    }
}

/// Barrier-equivalent progress: after each step, wait until every dependency
/// slice stamped with the current iteration has arrived and the convergence
/// decision is known.  Slices stamped with a *future* iteration — a fast peer
/// that already received the continue decision may deliver its next slice
/// early — are parked until the wait of the iteration they belong to, which
/// is what keeps the lockstep iterates identical over asynchronous-delivery
/// transports (TCP).
pub struct Lockstep {
    peer_timeout: Duration,
    failure: FailurePolicy,
    deferred: Vec<Message>,
}

impl Lockstep {
    /// Builds the policy with the given overall wait deadline per iteration
    /// and failure response.
    pub fn new(peer_timeout: Duration, failure: FailurePolicy) -> Self {
        Lockstep {
            peer_timeout,
            failure,
            deferred: Vec::new(),
        }
    }
}

impl ProgressPolicy for Lockstep {
    fn collect(
        &mut self,
        _engine: &mut RankEngine,
        _link: &mut RankLink,
        _conv: &mut dyn ConvergencePolicy,
    ) -> Result<Flow, CoreError> {
        // All intake happens in the post-step wait.
        Ok(Flow::Continue)
    }

    fn exchange(
        &mut self,
        engine: &mut RankEngine,
        link: &mut RankLink,
        conv: &mut dyn ConvergencePolicy,
        obs: &StepObservation,
        _vote: bool,
    ) -> Result<Flow, CoreError> {
        let iteration = obs.iteration;
        let deadline = Instant::now() + self.peer_timeout;
        let mut pending: Vec<bool> = vec![true; link.senders_to_me().len()];
        for msg in std::mem::take(&mut self.deferred) {
            if let Some((from, iter)) = data_meta(&msg) {
                if iter > iteration {
                    self.deferred.push(msg);
                    continue;
                }
                mark_slice(link.senders_to_me(), &mut pending, from, iter, iteration);
                engine.ingest(msg);
            }
        }
        let mut last_probe = Instant::now();
        loop {
            let waiting_conv = conv.waiting(iteration);
            let waiting_slices = pending.iter().any(|&p| p) && !conv.skip_pending_data();
            if !waiting_conv && !waiting_slices {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CoreError::Distributed(format!(
                    "rank {}: timed out waiting for lockstep traffic of iteration {iteration}",
                    link.rank()
                )));
            }
            match link.recv_timeout(WAIT_SLICE.min(deadline - now)) {
                Ok(msg) => match data_meta(&msg) {
                    Some((from, iter)) => {
                        if iter > iteration {
                            self.deferred.push(msg);
                        } else {
                            mark_slice(link.senders_to_me(), &mut pending, from, iter, iteration);
                            engine.ingest(msg);
                        }
                    }
                    None => match msg {
                        Message::Heartbeat { .. } => continue,
                        Message::Reshape { dead_rank, .. } => {
                            return Ok(Flow::Reshape(match dead_rank {
                                Some(r) => ReshapeReason::RankDeath(r),
                                None => ReshapeReason::SpeedDrift,
                            }));
                        }
                        Message::SpeedReport {
                            from, step_micros, ..
                        } => link.note_speed(from, step_micros),
                        msg => match conv.observe(&msg, link)? {
                            Flow::Continue => {}
                            flow => return Ok(flow),
                        },
                    },
                },
                Err(CommError::Timeout { .. }) => {
                    if let Some(heartbeat) = self.failure.heartbeat() {
                        if last_probe.elapsed() >= heartbeat {
                            last_probe = Instant::now();
                            link.probe_liveness(self.failure.death_rule())?;
                            if let Some(reason) = link.take_reshape() {
                                return Ok(Flow::Reshape(reason));
                            }
                        }
                    }
                }
                Err(e) => return Err(CoreError::Comm(e)),
            }
        }
        conv.resolve(iteration, link)
    }
}

/// Free-running progress: drain whatever has arrived before each step, and
/// back off briefly when locally stable with nothing new (AIAC style — slow
/// links delay *data freshness* instead of blocking the computation).
///
/// A dead peer is detected *between* sweeps too: every `heartbeat` interval
/// of the failure policy the peers are probed, and any death observed (by a
/// probe or by a tolerated data send) is verified with a `DEATH_GRACE`
/// drain — a peer that exited because the run converged has a
/// [`Message::GlobalConverged`] queued or in flight, which wins.  Only a
/// death with no convergence notice behind it triggers the failure response,
/// so async-mode rank death no longer spins until budget exhaustion.
pub struct FreeRunning {
    idle_backoff: Duration,
    failure: FailurePolicy,
    last_probe: Instant,
    /// Deaths already adjudicated (index = rank), plus a count for a cheap
    /// nothing-new early-out in the per-iteration check.
    reported_dead: Vec<bool>,
    reported_count: usize,
}

impl FreeRunning {
    /// Builds the policy with the default idle backoff and the given failure
    /// response for detected peer deaths.
    pub fn new(failure: FailurePolicy) -> Self {
        FreeRunning {
            idle_backoff: IDLE_BACKOFF,
            failure,
            last_probe: Instant::now(),
            reported_dead: Vec::new(),
            reported_count: 0,
        }
    }
}

impl Default for FreeRunning {
    fn default() -> Self {
        Self::new(FailurePolicy::default())
    }
}

impl FreeRunning {
    /// A halt or death racing a convergence or reshape broadcast: keep
    /// draining briefly so a queued or in-flight [`Message::GlobalConverged`]
    /// (or a peer's [`Message::Reshape`], which names the rank that
    /// *actually* died) wins — this is what keeps halt handling race-free
    /// when a converged or reshaping peer has already exited.
    fn drain_for_converged(link: &mut RankLink, grace: Duration) -> Flow {
        let deadline = Instant::now() + grace;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Flow::Halted;
            }
            match link.recv_timeout(deadline - now) {
                Ok(Message::GlobalConverged { .. }) => return Flow::Converged,
                Ok(Message::Reshape { dead_rank, .. }) => {
                    return Flow::Reshape(match dead_rank {
                        Some(r) => ReshapeReason::RankDeath(r),
                        None => ReshapeReason::SpeedDrift,
                    })
                }
                Ok(_) => continue,
                Err(_) => return Flow::Halted,
            }
        }
    }

    /// Adjudicates peers newly observed dead (by a probe or a tolerated
    /// send): a racing convergence notice wins, otherwise the failure policy
    /// decides between halting the run and requesting a reshape.
    /// [`FailurePolicy::FailFast`] keeps the historical free-running
    /// behavior of tolerating exits silently.
    fn handle_new_deaths(&mut self, link: &mut RankLink) -> Result<Flow, CoreError> {
        if link.dead_count() == self.reported_count {
            return Ok(Flow::Continue);
        }
        if self.reported_dead.len() != link.world() {
            self.reported_dead = vec![false; link.world()];
        }
        let newly: Vec<usize> = link
            .dead_ranks()
            .into_iter()
            .filter(|&r| !self.reported_dead[r])
            .collect();
        for &r in &newly {
            self.reported_dead[r] = true;
            self.reported_count += 1;
        }
        let Some(&first) = newly.first() else {
            return Ok(Flow::Continue);
        };
        match Self::drain_for_converged(link, DEATH_GRACE) {
            Flow::Converged => return Ok(Flow::Converged),
            // A peer already adjudicated this death and told us who it was —
            // its notice beats our own guess, which may name a survivor that
            // merely exited first while reshaping.
            Flow::Reshape(reason) => return Ok(Flow::Reshape(reason)),
            _ => {}
        }
        match self.failure {
            FailurePolicy::FailFast => Ok(Flow::Continue),
            FailurePolicy::HaltOnDeath { .. } => {
                link.broadcast_halt();
                Err(CoreError::Distributed(format!(
                    "rank {}: peer rank {first} disconnected mid-solve with no convergence \
                     notice in flight; halted the run",
                    link.rank()
                )))
            }
            FailurePolicy::Redistribute { .. } => {
                let reason = ReshapeReason::RankDeath(first);
                // Tell the survivors who died before exiting, so they report
                // the same reason instead of blaming this rank's own exit.
                link.raise_reshape(reason);
                Ok(Flow::Reshape(reason))
            }
        }
    }
}

impl ProgressPolicy for FreeRunning {
    fn collect(
        &mut self,
        engine: &mut RankEngine,
        link: &mut RankLink,
        conv: &mut dyn ConvergencePolicy,
    ) -> Result<Flow, CoreError> {
        loop {
            match link.try_recv() {
                Ok(Some(msg)) => {
                    if data_meta(&msg).is_some() {
                        engine.ingest(msg);
                    } else {
                        match msg {
                            Message::Heartbeat { .. } => {}
                            Message::Reshape { dead_rank, .. } => {
                                return Ok(Flow::Reshape(match dead_rank {
                                    Some(r) => ReshapeReason::RankDeath(r),
                                    None => ReshapeReason::SpeedDrift,
                                }));
                            }
                            Message::SpeedReport {
                                from, step_micros, ..
                            } => link.note_speed(from, step_micros),
                            msg => match conv.observe(&msg, link)? {
                                Flow::Continue => {}
                                Flow::Halted => {
                                    return Ok(Self::drain_for_converged(link, HALT_GRACE))
                                }
                                flow => return Ok(flow),
                            },
                        }
                    }
                }
                Ok(None) => return Ok(Flow::Continue),
                Err(e) => return Err(CoreError::Comm(e)),
            }
        }
    }

    fn exchange(
        &mut self,
        _engine: &mut RankEngine,
        link: &mut RankLink,
        _conv: &mut dyn ConvergencePolicy,
        obs: &StepObservation,
        vote: bool,
    ) -> Result<Flow, CoreError> {
        if vote && (!obs.fresh_data || obs.increment == 0.0) && !self.idle_backoff.is_zero() {
            // Locally stable and this step produced nothing new for the
            // peers — either nothing arrived, or what arrived left the
            // iterate bitwise unchanged (the incremental engine's SKIP path
            // makes such steps near-free, so without this pacing a stable
            // rank would re-send identical slices at network rate and its
            // vote cadence would outrun the data still in flight).  Yield
            // briefly instead of flooding the mesh.
            std::thread::sleep(self.idle_backoff);
        }
        let Some(heartbeat) = self.failure.heartbeat() else {
            return Ok(Flow::Continue);
        };
        if self.last_probe.elapsed() >= heartbeat {
            self.last_probe = Instant::now();
            // Probe under Tolerate: a closed peer is only *marked* here; the
            // adjudication below decides whether the death is benign.
            link.probe_liveness(DeathRule::Tolerate)?;
        }
        self.handle_new_deaths(link)
    }
}

/// The lockstep policy stack of the synchronous adapters: guarded increment
/// vote + centralized per-iteration votes + barrier-equivalent wait.  One
/// constructor, so the threaded, batched and distributed sync paths cannot
/// drift apart — their bitwise transport-independence depends on running the
/// exact same policies.
pub fn lockstep_policies(
    rank: usize,
    world: usize,
    tolerance: f64,
    peer_timeout: Duration,
    failure: FailurePolicy,
) -> (StaleSweepGuard<IncrementVote>, LockstepVotes, Lockstep) {
    (
        StaleSweepGuard::new(IncrementVote::lockstep(tolerance), tolerance),
        LockstepVotes::new(rank, world, failure),
        Lockstep::new(peer_timeout, failure),
    )
}

/// The free-running policy stack of the asynchronous adapters (threaded and
/// distributed).  `failure` decides what a heartbeat-detected peer death
/// does: halt the run, request a reshape, or (historically) tolerate it.
pub fn free_running_policies(
    rank: usize,
    world: usize,
    tolerance: f64,
    confirmations: u64,
    failure: FailurePolicy,
) -> (IncrementVote, ConfirmationWaves, FreeRunning) {
    (
        IncrementVote::free_running(tolerance),
        ConfirmationWaves::new(rank, world, confirmations),
        FreeRunning::new(failure),
    )
}

/// The tree-structured lockstep policy stack: identical to
/// [`lockstep_policies`] except that votes aggregate up an `arity`-ary
/// reduction tree ([`TreeVotes`]) instead of flooding rank 0 — same local
/// vote, same barrier-equivalent wait, bitwise-identical iterates.
pub fn tree_policies(
    rank: usize,
    world: usize,
    arity: usize,
    tolerance: f64,
    peer_timeout: Duration,
    failure: FailurePolicy,
) -> (StaleSweepGuard<IncrementVote>, TreeVotes, Lockstep) {
    (
        StaleSweepGuard::new(IncrementVote::lockstep(tolerance), tolerance),
        TreeVotes::new(rank, world, arity, failure),
        Lockstep::new(peer_timeout, failure),
    )
}

/// The coordinator-free free-running policy stack: identical to
/// [`free_running_policies`] except that convergence is detected by the
/// decentralized stability-window protocol ([`DecentralizedWaves`]) instead
/// of rank 0's [`VoteBoard`]; `stability_period` is the consecutive
/// locally-converged iteration count required per rank.
pub fn decentralized_policies(
    rank: usize,
    world: usize,
    tolerance: f64,
    stability_period: u64,
    failure: FailurePolicy,
) -> (IncrementVote, DecentralizedWaves, FreeRunning) {
    (
        IncrementVote::free_running(tolerance),
        DecentralizedWaves::new(rank, world, stability_period),
        FreeRunning::new(failure),
    )
}

// ---------------------------------------------------------------------------
// The unified drive loop
// ---------------------------------------------------------------------------

/// Result of driving one rank to completion.
#[derive(Debug, Clone, Copy)]
pub struct RankRun {
    /// Outer iterations performed.
    pub iterations: u64,
    /// Last observed increment norm.
    pub last_increment: f64,
    /// Whether global convergence was reached.
    pub converged: bool,
    /// Set when the run stopped to let the launcher re-partition the bands
    /// (rank death under [`FailurePolicy::Redistribute`] or speed drift).
    pub reshape: Option<ReshapeReason>,
}

/// Per-rank step-speed observer: keeps an exponential moving average of the
/// outer-iteration wall time, periodically reports it to rank 0
/// ([`Message::SpeedReport`]), and — on rank 0 — requests a reshape when the
/// slowest rank's step time exceeds the fastest's by more than
/// `drift_threshold` (the online-rebalancing hook; the check runs at
/// checkpoint boundaries so the repartitioned job resumes from fresh
/// snapshots).
pub struct SpeedHook {
    /// Reporting period in outer iterations.
    pub report_every: u64,
    /// Max/min step-time ratio above which rank 0 requests a reshape
    /// (values ≤ 1 disable the drift check; reporting still happens).
    pub drift_threshold: f64,
    ema_micros: f64,
}

impl SpeedHook {
    /// Builds the hook with the given reporting period and drift threshold.
    pub fn new(report_every: u64, drift_threshold: f64) -> Self {
        SpeedHook {
            report_every: report_every.max(1),
            drift_threshold,
            ema_micros: 0.0,
        }
    }

    /// Folds one observed step time into the moving average.
    fn observe(&mut self, micros: f64) {
        self.ema_micros = if self.ema_micros == 0.0 {
            micros
        } else {
            0.8 * self.ema_micros + 0.2 * micros
        };
    }

    /// The smoothed step time in whole microseconds (at least 1).
    fn smoothed_micros(&self) -> u64 {
        self.ema_micros.max(1.0) as u64
    }
}

// ---------------------------------------------------------------------------
// Per-column convergence tracking (batch shape)
// ---------------------------------------------------------------------------

/// Shared per-column convergence board of one batched lockstep solve.
///
/// A batch runs every column to *global* convergence of the whole batch,
/// which over-iterates the columns that stabilized first — their final
/// iterates are "more converged" than a solo run of the same right-hand side
/// and therefore not bitwise-identical to it.  The board fixes that: every
/// rank posts, per iteration, one bit per column saying whether that column
/// alone would have voted "converged" under the exact lockstep voting rule
/// ([`StaleSweepGuard`] over [`IncrementVote::lockstep`]), and each rank
/// freezes its local slice of a column at the first iteration whose AND over
/// all ranks' bits is true — the precise iteration a solo lockstep run of
/// that column would have stopped at.  Because the columns of a lockstep
/// batch iterate independently (the batched triangular solve is per-column
/// arithmetic-identical to the single solve), the frozen slices assemble to
/// a solution **bitwise equal** to the solo solve of that right-hand side.
///
/// Completeness of a row at sweep time comes from the vote protocol itself:
/// a rank posts its bits for iteration `k` *before* its vote for `k` is
/// sent ([`LockstepVotes::submit`]), and a rank only sweeps row `k` after
/// the lockstep decision for `k` resolved — which required every rank's
/// vote, hence every rank's post.
pub struct ColumnBoard {
    state: std::sync::Mutex<ColumnBoardState>,
}

struct ColumnBoardState {
    world: usize,
    ncols: usize,
    /// Per-iteration AND-aggregated bits plus bookkeeping, pruned once every
    /// rank has swept the row (at most two rows are ever live in lockstep).
    rows: std::collections::HashMap<u64, ColumnRow>,
}

struct ColumnRow {
    /// AND over the posted ranks' per-column bits.
    all_converged: Vec<bool>,
    posted: usize,
    swept: usize,
}

impl ColumnBoard {
    /// Creates a board for `world` ranks and `ncols` batch columns.
    pub fn new(world: usize, ncols: usize) -> Arc<Self> {
        Arc::new(ColumnBoard {
            state: std::sync::Mutex::new(ColumnBoardState {
                world,
                ncols,
                rows: std::collections::HashMap::new(),
            }),
        })
    }

    /// Posts one rank's per-column convergence bits for `iteration`.
    fn post(&self, iteration: u64, bits: &[bool]) {
        let mut state = self.state.lock().expect("column board poisoned");
        let ncols = state.ncols;
        debug_assert_eq!(bits.len(), ncols);
        let row = state.rows.entry(iteration).or_insert_with(|| ColumnRow {
            all_converged: vec![true; ncols],
            posted: 0,
            swept: 0,
        });
        for (agg, &bit) in row.all_converged.iter_mut().zip(bits) {
            *agg &= bit;
        }
        row.posted += 1;
    }

    /// Reads the AND row for `iteration` if every rank has posted it, and
    /// counts the caller as having swept it (rows are pruned once swept by
    /// all ranks).  Returns `None` for an incomplete row — only possible
    /// when the run is aborting mid-iteration.
    fn sweep(&self, iteration: u64) -> Option<Vec<bool>> {
        let mut state = self.state.lock().expect("column board poisoned");
        let world = state.world;
        let row = state.rows.get_mut(&iteration)?;
        if row.posted < world {
            return None;
        }
        debug_assert_eq!(row.posted, world);
        let bits = row.all_converged.clone();
        row.swept += 1;
        if row.swept == world {
            state.rows.remove(&iteration);
        }
        Some(bits)
    }
}

/// Per-rank side of the [`ColumnBoard`] protocol, installed through
/// [`DriveHooks::columns`] by the batched lockstep worker.
///
/// After each step it derives one solo-equivalent convergence bit per column
/// — the [`StaleSweepGuard`] predicate evaluated on that column's own
/// increment and dependency movement ([`RankEngine::column_increments`] /
/// [`RankEngine::column_dep_changes`]) — and posts them; after each lockstep
/// decision it sweeps the completed row and freezes newly all-converged
/// columns at the current local iterate.
pub struct ColumnTracker {
    board: Arc<ColumnBoard>,
    tolerance: f64,
    /// Scratch bits, one per column.
    bits: Vec<bool>,
    /// Per column: the iteration a solo run would have stopped at, and this
    /// rank's local iterate at that iteration.  `None` until the column's
    /// AND row first comes up all-true.
    frozen: Vec<Option<(u64, Vec<f64>)>>,
}

impl ColumnTracker {
    /// Builds the tracker for one rank of a `ncols`-column batch.
    pub fn new(board: Arc<ColumnBoard>, tolerance: f64, ncols: usize) -> Self {
        ColumnTracker {
            board,
            tolerance,
            bits: vec![false; ncols],
            frozen: vec![None; ncols],
        }
    }

    /// Posts this rank's per-column convergence bits for the step just
    /// observed.  Must run before the rank's lockstep vote is submitted.
    fn post(&mut self, engine: &RankEngine, obs: &StepObservation) {
        let incs = engine.column_increments();
        let deps = engine.column_dep_changes();
        let fresh_ok = obs.fresh_data || !obs.needs_fresh_data;
        for (bit, (&inc, &dep)) in self.bits.iter_mut().zip(incs.iter().zip(deps)) {
            // Exactly StaleSweepGuard<IncrementVote::lockstep>: a window-1
            // ResidualTracker verdict on the increment, vetoed unless the
            // column's dependencies held still and the sweep saw fresh data.
            *bit = inc <= self.tolerance && dep <= self.tolerance && fresh_ok;
        }
        self.board.post(obs.iteration, &self.bits);
    }

    /// Sweeps the completed row for `iteration`: any column whose AND bit is
    /// true for the first time freezes at this rank's current local iterate.
    fn sweep(&mut self, engine: &RankEngine, iteration: u64) {
        let Some(all) = self.board.sweep(iteration) else {
            return;
        };
        for (c, slot) in self.frozen.iter_mut().enumerate() {
            if all[c] && slot.is_none() {
                *slot = Some((iteration, engine.x_columns()[c].clone()));
            }
        }
    }

    /// Consumes the tracker into per-column results: the frozen local
    /// iterate (or `live` for a column that never converged solo) and the
    /// solo stopping iteration per column.
    pub fn into_columns(self, live: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<Option<u64>>) {
        let mut columns = Vec::with_capacity(live.len());
        let mut converged_at = Vec::with_capacity(live.len());
        for (c, slot) in self.frozen.into_iter().enumerate() {
            match slot {
                Some((iteration, x)) => {
                    columns.push(x);
                    converged_at.push(Some(iteration));
                }
                None => {
                    columns.push(live[c].clone());
                    converged_at.push(None);
                }
            }
        }
        (columns, converged_at)
    }
}

/// Optional instrumentation of the drive loop: periodic snapshots and
/// speed-drift rebalancing.  [`DriveHooks::default`] is a no-op, which is
/// what the plain [`drive`] entry uses.
#[derive(Default)]
pub struct DriveHooks {
    /// Periodic snapshot writer (see [`crate::checkpoint`]).
    pub checkpoint: Option<crate::checkpoint::Checkpointer>,
    /// Step-speed reporting and drift-triggered rebalancing.
    pub speed: Option<SpeedHook>,
    /// Per-column convergence tracking of a batched lockstep solve (see
    /// [`ColumnTracker`]); `None` everywhere else.
    pub columns: Option<ColumnTracker>,
}

/// Pumps messages between the transport and the engine until convergence,
/// halt, budget exhaustion or error — the **single** Algorithm 1 outer loop
/// behind every driver.  On error, [`Message::Halt`] is broadcast so no peer
/// spins forever on a rank that will never answer.
pub fn drive(
    engine: &mut RankEngine,
    link: &mut RankLink,
    vote: &mut dyn LocalVote,
    conv: &mut dyn ConvergencePolicy,
    progress: &mut dyn ProgressPolicy,
    max_iterations: u64,
) -> Result<RankRun, CoreError> {
    drive_with_hooks(
        engine,
        link,
        vote,
        conv,
        progress,
        max_iterations,
        &mut DriveHooks::default(),
    )
}

/// [`drive`] with checkpoint/rebalance instrumentation — the entry the
/// distributed runtime uses when [`crate::distributed::RankOptions`] enables
/// checkpointing or online rebalancing.
pub fn drive_with_hooks(
    engine: &mut RankEngine,
    link: &mut RankLink,
    vote: &mut dyn LocalVote,
    conv: &mut dyn ConvergencePolicy,
    progress: &mut dyn ProgressPolicy,
    max_iterations: u64,
    hooks: &mut DriveHooks,
) -> Result<RankRun, CoreError> {
    let result = drive_inner(engine, link, vote, conv, progress, max_iterations, hooks);
    if result.is_err() {
        link.broadcast_halt();
    }
    result
}

/// Runs the post-exchange hook block of one iteration: speed bookkeeping,
/// the periodic checkpoint, and rank 0's drift check.  Returns a reshape
/// reason when the drift check fires.
fn run_iteration_hooks(
    engine: &RankEngine,
    link: &mut RankLink,
    vote: &dyn LocalVote,
    hooks: &mut DriveHooks,
    iteration: u64,
    step_micros: f64,
) -> Result<Option<ReshapeReason>, CoreError> {
    let mut at_boundary = hooks.checkpoint.is_none();
    if let Some(ck) = &hooks.checkpoint {
        at_boundary = ck.maybe_save(engine, vote.checkpoint_state(), iteration)?;
    }
    let Some(speed) = hooks.speed.as_mut() else {
        return Ok(None);
    };
    speed.observe(step_micros);
    if iteration.is_multiple_of(speed.report_every) {
        let micros = speed.smoothed_micros();
        link.note_speed(link.rank(), micros);
        if link.rank() != 0 {
            link.send_ruled(
                0,
                Message::SpeedReport {
                    from: link.rank(),
                    iteration,
                    step_micros: micros,
                },
                DeathRule::Tolerate,
            )?;
        }
    }
    // Drift check: rank 0 only, at a checkpoint boundary (or any reporting
    // boundary when checkpointing is off), once every rank has reported.
    if link.rank() == 0
        && at_boundary
        && iteration.is_multiple_of(speed.report_every)
        && speed.drift_threshold > 1.0
    {
        let speeds = link.observed_speeds();
        if speeds.iter().all(|&s| s > 0) {
            let max = speeds.iter().copied().max().unwrap_or(1) as f64;
            let min = speeds.iter().copied().min().unwrap_or(1).max(1) as f64;
            if max / min > speed.drift_threshold {
                link.raise_reshape(ReshapeReason::SpeedDrift);
            }
        }
    }
    Ok(link.take_reshape())
}

#[allow(clippy::too_many_arguments)]
fn drive_inner(
    engine: &mut RankEngine,
    link: &mut RankLink,
    vote: &mut dyn LocalVote,
    conv: &mut dyn ConvergencePolicy,
    progress: &mut dyn ProgressPolicy,
    max_iterations: u64,
    hooks: &mut DriveHooks,
) -> Result<RankRun, CoreError> {
    let mut converged = false;
    let mut reshape = None;
    let mut last_increment = f64::INFINITY;
    'outer: while engine.iterations() < max_iterations {
        // (0) intake (free-running drains here; lockstep ingested everything
        // during the previous iteration's wait)
        match progress.collect(engine, link, conv)? {
            Flow::Continue => {}
            Flow::Converged => {
                converged = true;
                break 'outer;
            }
            Flow::Halted => break 'outer,
            Flow::Reshape(reason) => {
                reshape = Some(reason);
                break 'outer;
            }
        }
        // (1)+(2) dependency fill and local solve
        let t_step = Instant::now();
        let obs = engine.step()?;
        let step_micros = t_step.elapsed().as_secs_f64() * 1e6;
        last_increment = vote.effective_increment(&obs);
        // Per-column bits must be on the board before this rank's vote for
        // the iteration can reach the coordinator (see [`ColumnBoard`]).
        if let Some(tracker) = hooks.columns.as_mut() {
            tracker.post(engine, &obs);
        }
        // (3) send the slice to every dependent processor
        link.fan_out(engine.outgoing(), conv.death_rule())?;
        // (4) vote and agree on global convergence
        let local = vote.vote(&obs);
        match conv.submit(obs.iteration, local, link)? {
            Flow::Continue => {}
            Flow::Converged => {
                converged = true;
                break 'outer;
            }
            Flow::Halted => break 'outer,
            Flow::Reshape(reason) => {
                reshape = Some(reason);
                break 'outer;
            }
        }
        let exchange_flow = progress.exchange(engine, link, conv, &obs, local)?;
        // The lockstep decision for this iteration is resolved: the row of
        // per-column bits is complete on every rank, so newly all-converged
        // columns freeze at the iterate a solo run would have returned.
        // (Halted/Reshape abort mid-wait with a possibly incomplete row.)
        if matches!(exchange_flow, Flow::Continue | Flow::Converged) {
            if let Some(tracker) = hooks.columns.as_mut() {
                tracker.sweep(engine, obs.iteration);
            }
        }
        match exchange_flow {
            Flow::Continue => {}
            Flow::Converged => {
                converged = true;
                break 'outer;
            }
            Flow::Halted => break 'outer,
            Flow::Reshape(reason) => {
                reshape = Some(reason);
                break 'outer;
            }
        }
        // (5) instrumentation: checkpoint at the boundary (the halo now
        // holds every slice of this iteration), report speeds, check drift,
        // and honor any reshape raised by a tolerated send failure.
        if let Some(reason) =
            run_iteration_hooks(engine, link, vote, hooks, obs.iteration, step_micros)?
        {
            reshape = Some(reason);
            break 'outer;
        }
    }
    if !converged && reshape.is_none() && engine.iterations() >= max_iterations {
        // A convergence notice may already be queued: the coordinator can
        // declare global convergence while this rank finishes its last
        // budgeted iteration.  Drain once more before telling everyone to
        // halt, so a converged run is never reported as failed.
        match progress.collect(engine, link, conv)? {
            Flow::Converged => converged = true,
            Flow::Halted => {}
            Flow::Reshape(reason) => reshape = Some(reason),
            Flow::Continue => conv.abandon(link),
        }
    }
    if reshape.is_some() && !converged {
        // Persist the freshest possible state for the post-reshape warm
        // start (best effort — the periodic snapshot remains the fallback).
        if let Some(ck) = &hooks.checkpoint {
            let _ = ck.save_now(engine, vote.checkpoint_state());
        }
    }
    Ok(RankRun {
        iterations: engine.iterations(),
        last_increment,
        converged,
        reshape,
    })
}

/// For every rank, the peers whose slices it receives each iteration — the
/// transpose of the send-target map.
pub fn receive_sources(send_targets: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut sources = vec![Vec::new(); send_targets.len()];
    for (sender, targets) in send_targets.iter().enumerate() {
        for &t in targets {
            sources[t].push(sender);
        }
    }
    for s in &mut sources {
        s.sort_unstable();
        s.dedup();
    }
    sources
}

// ---------------------------------------------------------------------------
// Threaded adapters (one thread per rank over a shared transport)
// ---------------------------------------------------------------------------

/// Output of one worker thread (shared by the threaded adapters).
pub(crate) struct WorkerOutput {
    pub(crate) part: usize,
    pub(crate) x_local: Vec<f64>,
    pub(crate) iterations: u64,
    pub(crate) last_increment: f64,
    pub(crate) converged: bool,
    pub(crate) report: PartReport,
}

/// Output of one batched worker thread.
struct BatchWorkerOutput {
    part: usize,
    x_columns: Vec<Vec<f64>>,
    /// Per column: the iteration a solo run of that right-hand side would
    /// have stopped at (`None` when it never converged on its own; see
    /// [`ColumnTracker`]).  Identical across parts by construction.
    column_converged_at: Vec<Option<u64>>,
    iterations: u64,
    last_increment: f64,
    converged: bool,
    report: PartReport,
}

/// Factorizes every diagonal block of `blocks` (shared by the adapters and
/// by [`crate::prepared::PreparedSystem`]).  The blocks are independent, so
/// they are factorized as one parallel loop on the `rayon` pool: from an
/// ordinary thread an in-process `prepare` costs about the sum of the block
/// factorizations divided by the cores; from a thread that is itself one of
/// several parallel workers (an `msplit-engine` worker) the loop runs inline
/// and costs the sum.  Each factor is bitwise what a serial loop produces,
/// and of several failing blocks the lowest index is reported.
/// (Distributed workers factorize one block each, in their own processes.)
/// Failures surface before any worker thread starts exchanging messages.
pub fn factorize_blocks(
    blocks: &[LocalBlocks],
    config: &MultisplittingConfig,
) -> Result<Vec<Arc<dyn Factorization>>, CoreError> {
    let solver = config.solver_kind.build();
    blocks
        .par_iter()
        .map(|blk| {
            solver
                .factorize(&blk.a_sub)
                .map(Arc::<dyn Factorization>::from)
                .map_err(CoreError::Direct)
        })
        .collect()
}

/// Validates that the transport's rank count matches the decomposition —
/// checked before the expensive factorizations so misconfiguration fails
/// fast.
pub(crate) fn check_transport_ranks(
    parts: usize,
    transport: &Arc<dyn Transport>,
) -> Result<(), CoreError> {
    if transport.num_ranks() != parts {
        return Err(CoreError::Decomposition(format!(
            "transport has {} ranks but the decomposition has {} parts",
            transport.num_ranks(),
            parts
        )));
    }
    Ok(())
}

/// Allocates one fresh [`IterationWorkspace`] per part (the cold-solve path;
/// prepared systems pool and reuse these instead).
pub(crate) fn fresh_workspaces(parts: usize) -> Vec<IterationWorkspace> {
    (0..parts).map(|_| IterationWorkspace::new()).collect()
}

pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Turns the per-worker outputs into the global [`SolveOutcome`].
pub(crate) fn assemble_outcome(
    outputs: Vec<Result<WorkerOutput, CoreError>>,
    partition: &BandPartition,
    config: &MultisplittingConfig,
    start: Instant,
) -> Result<SolveOutcome, CoreError> {
    let mut locals: Vec<Vec<f64>> = vec![Vec::new(); partition.num_parts()];
    let mut reports = Vec::with_capacity(partition.num_parts());
    let mut iterations_per_part = vec![0u64; partition.num_parts()];
    let mut converged = true;
    let mut last_increment = 0.0f64;
    for out in outputs {
        let out = out?;
        locals[out.part] = out.x_local;
        iterations_per_part[out.part] = out.iterations;
        converged &= out.converged;
        last_increment = last_increment.max(out.last_increment);
        reports.push(out.report);
    }
    reports.sort_by_key(|r| r.part);
    let x = config.weighting.assemble(partition, &locals);
    let iterations = iterations_per_part.iter().copied().max().unwrap_or(0);
    Ok(SolveOutcome {
        x,
        converged,
        iterations,
        iterations_per_part,
        last_increment,
        part_reports: reports,
        wall_seconds: start.elapsed().as_secs_f64(),
        mode: config.mode,
    })
}

/// Per-part static work profile of one rank (flops, memory, message sizes).
fn part_report(
    blk: &LocalBlocks,
    factor: &dyn Factorization,
    engine: &RankEngine,
    run: &RankRun,
    targets: &[usize],
    ncols: usize,
    wall_seconds: f64,
) -> PartReport {
    let factor_stats = factor.stats().clone();
    let dep_flops = 2 * (blk.dep_left.nnz() + blk.dep_right.nnz()) as u64;
    let flops_per_iteration = (dep_flops + factor_stats.solve_flops()) * ncols as u64;
    let memory_bytes = blk.memory_bytes() + factor_stats.factor_memory_bytes();
    let bytes_sent_per_iteration = if run.iterations > 0 && !targets.is_empty() {
        engine.outgoing_encoded_len() * targets.len()
    } else {
        0
    };
    PartReport {
        part: blk.part,
        factor_stats,
        iterations: run.iterations,
        bytes_sent_per_iteration,
        messages_per_iteration: targets.len(),
        flops_per_iteration,
        memory_bytes,
        wall_seconds,
        solve_path: engine.path_stats(),
    }
}

/// One worker of the threaded lockstep (synchronous) adapter.
#[allow(clippy::too_many_arguments)]
fn lockstep_worker(
    partition: &BandPartition,
    blk: &LocalBlocks,
    b_sub: &[f64],
    factor: &dyn Factorization,
    targets: &[usize],
    senders_to_me: &[usize],
    config: &MultisplittingConfig,
    transport: &dyn Transport,
    ws: &mut IterationWorkspace,
) -> Result<WorkerOutput, CoreError> {
    let t0 = Instant::now();
    let failure = FailurePolicy::default();
    let mut engine = RankEngine::single(partition, blk, b_sub, factor, config.weighting, ws);
    let mut link = RankLink::new(transport, blk.part, targets, senders_to_me);
    let (mut vote, mut conv, mut progress) = lockstep_policies(
        blk.part,
        link.world(),
        config.tolerance,
        THREADED_PEER_TIMEOUT,
        failure,
    );
    let run = drive(
        &mut engine,
        &mut link,
        &mut vote,
        &mut conv,
        &mut progress,
        config.max_iterations,
    )?;
    let report = part_report(
        blk,
        factor,
        &engine,
        &run,
        targets,
        1,
        t0.elapsed().as_secs_f64(),
    );
    Ok(WorkerOutput {
        part: blk.part,
        x_local: engine.x_local().to_vec(),
        iterations: run.iterations,
        last_increment: run.last_increment,
        converged: run.converged,
        report,
    })
}

/// One worker of the threaded free-running (asynchronous) adapter.
#[allow(clippy::too_many_arguments)]
fn free_running_worker(
    partition: &BandPartition,
    blk: &LocalBlocks,
    b_sub: &[f64],
    factor: &dyn Factorization,
    targets: &[usize],
    config: &MultisplittingConfig,
    transport: &dyn Transport,
    ws: &mut IterationWorkspace,
) -> Result<WorkerOutput, CoreError> {
    let t0 = Instant::now();
    let mut engine = RankEngine::single(partition, blk, b_sub, factor, config.weighting, ws);
    let mut link = RankLink::new(transport, blk.part, targets, &[]);
    let (mut vote, mut conv, mut progress) = free_running_policies(
        blk.part,
        link.world(),
        config.tolerance,
        config.async_confirmations,
        FailurePolicy::default(),
    );
    let run = drive(
        &mut engine,
        &mut link,
        &mut vote,
        &mut conv,
        &mut progress,
        config.max_iterations,
    )?;
    let report = part_report(
        blk,
        factor,
        &engine,
        &run,
        targets,
        1,
        t0.elapsed().as_secs_f64(),
    );
    Ok(WorkerOutput {
        part: blk.part,
        x_local: engine.x_local().to_vec(),
        iterations: run.iterations,
        last_increment: run.last_increment,
        converged: run.converged,
        report,
    })
}

/// Synchronous threaded solve over borrowed prepared state: blocks and
/// factorizations are only *read*, so the same prepared system can serve any
/// number of solves.  `rhs` optionally overrides the right-hand side captured
/// in the blocks at extraction time; `workspaces` supplies one per-worker
/// [`IterationWorkspace`] per part (a prepared system passes pooled, already
/// grown buffers so warm solves allocate nothing in the iteration loop).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sync(
    partition: &BandPartition,
    blocks: &[LocalBlocks],
    factors: &[Arc<dyn Factorization>],
    send_targets: &[Vec<usize>],
    rhs: Option<&[f64]>,
    config: &MultisplittingConfig,
    transport: Arc<dyn Transport>,
    workspaces: &mut [IterationWorkspace],
    start: Instant,
) -> Result<SolveOutcome, CoreError> {
    check_transport_ranks(partition.num_parts(), &transport)?;
    debug_assert_eq!(workspaces.len(), partition.num_parts());
    let senders = receive_sources(send_targets);

    let outputs: Vec<Result<WorkerOutput, CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .iter()
            .zip(factors.iter())
            .zip(send_targets.iter())
            .zip(senders.iter())
            .zip(workspaces.iter_mut())
            .map(|((((blk, factor), targets), senders_to_me), ws)| {
                let transport = &transport;
                scope.spawn(move || {
                    let b_sub: &[f64] = match rhs {
                        Some(b) => &b[partition.extended_range(blk.part)],
                        None => &blk.b_sub,
                    };
                    lockstep_worker(
                        partition,
                        blk,
                        b_sub,
                        factor.as_ref(),
                        targets,
                        senders_to_me,
                        config,
                        transport.as_ref(),
                        ws,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|p| Err(CoreError::WorkerPanic(panic_message(&p))))
            })
            .collect()
    });

    assemble_outcome(outputs, partition, config, start)
}

/// Asynchronous threaded solve over borrowed prepared state (see
/// [`run_sync`] for the borrowing contract and the `rhs` override semantics).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_async(
    partition: &BandPartition,
    blocks: &[LocalBlocks],
    factors: &[Arc<dyn Factorization>],
    send_targets: &[Vec<usize>],
    rhs: Option<&[f64]>,
    config: &MultisplittingConfig,
    transport: Arc<dyn Transport>,
    workspaces: &mut [IterationWorkspace],
    start: Instant,
) -> Result<SolveOutcome, CoreError> {
    check_transport_ranks(partition.num_parts(), &transport)?;
    debug_assert_eq!(workspaces.len(), partition.num_parts());

    let outputs: Vec<Result<WorkerOutput, CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .iter()
            .zip(factors.iter())
            .zip(send_targets.iter())
            .zip(workspaces.iter_mut())
            .map(|(((blk, factor), targets), ws)| {
                let transport = &transport;
                scope.spawn(move || {
                    let b_sub: &[f64] = match rhs {
                        Some(b) => &b[partition.extended_range(blk.part)],
                        None => &blk.b_sub,
                    };
                    free_running_worker(
                        partition,
                        blk,
                        b_sub,
                        factor.as_ref(),
                        targets,
                        config,
                        transport.as_ref(),
                        ws,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|p| Err(CoreError::WorkerPanic(panic_message(&p))))
            })
            .collect()
    });

    assemble_outcome(outputs, partition, config, start)
}

/// One worker of the batched lockstep adapter: identical to
/// [`lockstep_worker`] but with `ncols` solution columns marching in
/// lockstep — one [`msplit_direct::api::Factorization::solve_many_into`]
/// pass and one [`Message::SolutionBatch`] per outer iteration.
#[allow(clippy::too_many_arguments)]
fn lockstep_batch_worker(
    partition: &BandPartition,
    blk: &LocalBlocks,
    b_cols: Vec<&[f64]>,
    factor: &dyn Factorization,
    targets: &[usize],
    senders_to_me: &[usize],
    config: &MultisplittingConfig,
    transport: &dyn Transport,
    ws: &mut IterationWorkspace,
    board: &Arc<ColumnBoard>,
) -> Result<BatchWorkerOutput, CoreError> {
    let t0 = Instant::now();
    let ncols = b_cols.len();
    let failure = FailurePolicy::default();
    let mut engine = RankEngine::batch(partition, blk, b_cols, factor, config.weighting, ws);
    let mut link = RankLink::new(transport, blk.part, targets, senders_to_me);
    let (mut vote, mut conv, mut progress) = lockstep_policies(
        blk.part,
        link.world(),
        config.tolerance,
        THREADED_PEER_TIMEOUT,
        failure,
    );
    let mut hooks = DriveHooks {
        columns: Some(ColumnTracker::new(
            Arc::clone(board),
            config.tolerance,
            ncols,
        )),
        ..DriveHooks::default()
    };
    let run = drive_with_hooks(
        &mut engine,
        &mut link,
        &mut vote,
        &mut conv,
        &mut progress,
        config.max_iterations,
        &mut hooks,
    )?;
    let report = part_report(
        blk,
        factor,
        &engine,
        &run,
        targets,
        ncols,
        t0.elapsed().as_secs_f64(),
    );
    let (x_columns, column_converged_at) = hooks
        .columns
        .take()
        .expect("tracker installed above")
        .into_columns(engine.x_columns());
    Ok(BatchWorkerOutput {
        part: blk.part,
        x_columns,
        column_converged_at,
        iterations: run.iterations,
        last_increment: run.last_increment,
        converged: run.converged,
        report,
    })
}

/// Synchronous multi-RHS solve over borrowed prepared state: every outer
/// iteration performs ONE batched triangular-solve pass and ONE message
/// exchange for all columns, so a prepared system answers the whole batch in
/// a single pass of Algorithm 1 instead of once per right-hand side.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sync_batch(
    partition: &BandPartition,
    blocks: &[LocalBlocks],
    factors: &[Arc<dyn Factorization>],
    send_targets: &[Vec<usize>],
    rhs_columns: &[Vec<f64>],
    config: &MultisplittingConfig,
    transport: Arc<dyn Transport>,
    workspaces: &mut [IterationWorkspace],
    start: Instant,
) -> Result<BatchSolveOutcome, CoreError> {
    let parts = partition.num_parts();
    check_transport_ranks(parts, &transport)?;
    debug_assert_eq!(workspaces.len(), parts);
    let ncols = rhs_columns.len();
    if ncols == 0 {
        return Ok(BatchSolveOutcome {
            columns: Vec::new(),
            column_converged_at: Vec::new(),
            converged: true,
            iterations: 0,
            iterations_per_part: vec![0; parts],
            last_increment: 0.0,
            part_reports: Vec::new(),
            wall_seconds: start.elapsed().as_secs_f64(),
        });
    }
    for col in rhs_columns {
        if col.len() != partition.order() {
            return Err(CoreError::Decomposition(format!(
                "right-hand side length {} does not match system order {}",
                col.len(),
                partition.order()
            )));
        }
    }
    let senders = receive_sources(send_targets);
    let board = ColumnBoard::new(parts, ncols);

    let outputs: Vec<Result<BatchWorkerOutput, CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .iter()
            .zip(factors.iter())
            .zip(send_targets.iter())
            .zip(senders.iter())
            .zip(workspaces.iter_mut())
            .map(|((((blk, factor), targets), senders_to_me), ws)| {
                let transport = &transport;
                let board = &board;
                scope.spawn(move || {
                    let range = partition.extended_range(blk.part);
                    let b_cols: Vec<&[f64]> =
                        rhs_columns.iter().map(|b| &b[range.clone()]).collect();
                    lockstep_batch_worker(
                        partition,
                        blk,
                        b_cols,
                        factor.as_ref(),
                        targets,
                        senders_to_me,
                        config,
                        transport.as_ref(),
                        ws,
                        board,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|p| Err(CoreError::WorkerPanic(panic_message(&p))))
            })
            .collect()
    });

    // Assemble one global solution per column using the weighting scheme.
    let mut per_part_columns: Vec<Vec<Vec<f64>>> = vec![Vec::new(); parts];
    let mut reports = Vec::with_capacity(parts);
    let mut iterations_per_part = vec![0u64; parts];
    let mut converged = true;
    let mut last_increment = 0.0f64;
    let mut column_converged_at = vec![None; ncols];
    for out in outputs {
        let out = out?;
        iterations_per_part[out.part] = out.iterations;
        converged &= out.converged;
        last_increment = last_increment.max(out.last_increment);
        per_part_columns[out.part] = out.x_columns;
        if out.part == 0 {
            column_converged_at = out.column_converged_at;
        } else {
            debug_assert_eq!(
                column_converged_at.len(),
                out.column_converged_at.len(),
                "parts disagree on batch width"
            );
        }
        reports.push(out.report);
    }
    reports.sort_by_key(|r| r.part);
    let columns = (0..ncols)
        .map(|c| {
            let locals: Vec<Vec<f64>> = per_part_columns
                .iter()
                .map(|cols| cols[c].clone())
                .collect();
            config.weighting.assemble(partition, &locals)
        })
        .collect();
    let iterations = iterations_per_part.iter().copied().max().unwrap_or(0);
    Ok(BatchSolveOutcome {
        columns,
        column_converged_at,
        converged,
        iterations,
        iterations_per_part,
        last_increment,
        part_reports: reports,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Runs the threaded multisplitting solve over the given transport,
/// dispatching on `config.mode` — the unified entry point behind
/// [`crate::solver::MultisplittingSolver::solve_with_transport`] (the
/// pre-runtime `sync_driver`/`async_driver` shims that used to forward here
/// were removed after their one-release deprecation window).
pub fn solve_threaded(
    decomposition: crate::decomposition::Decomposition,
    config: &MultisplittingConfig,
    transport: Arc<dyn Transport>,
) -> Result<SolveOutcome, CoreError> {
    let start = Instant::now();
    check_transport_ranks(decomposition.num_parts(), &transport)?;
    let (partition, blocks) = decomposition.into_blocks();
    let factors = factorize_blocks(&blocks, config)?;
    let send_targets = crate::driver_common::compute_send_targets(&partition, &blocks);
    let mut workspaces = fresh_workspaces(partition.num_parts());
    match config.mode {
        ExecutionMode::Synchronous => run_sync(
            &partition,
            &blocks,
            &factors,
            &send_targets,
            None,
            config,
            transport,
            &mut workspaces,
            start,
        ),
        ExecutionMode::Asynchronous => run_async(
            &partition,
            &blocks,
            &factors,
            &send_targets,
            None,
            config,
            transport,
            &mut workspaces,
            start,
        ),
    }
}

/// Convenience wrapper: threaded solve with a fresh in-process transport.
pub fn solve_threaded_inproc(
    decomposition: crate::decomposition::Decomposition,
    config: &MultisplittingConfig,
) -> Result<SolveOutcome, CoreError> {
    let parts = decomposition.num_parts();
    let transport = msplit_comm::InProcTransport::new(parts);
    solve_threaded(decomposition, config, transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;
    use msplit_comm::InProcTransport;
    use msplit_direct::SolverKind;
    use msplit_sparse::generators;

    #[test]
    fn vote_board_requires_full_confirmation_waves() {
        let mut b = VoteBoard::new(2, 2);
        assert!(!b.record(0, true));
        assert!(!b.record(1, true)); // all true -> wave 1 starts, rank1 confirmed
        assert!(!b.record(0, true)); // wave 1 complete
        assert!(!b.record(1, true));
        assert!(b.record(0, true)); // wave 2 complete -> global
        assert!(b.is_global());
        // Latched: later dissent is ignored.
        assert!(b.record(1, false));
    }

    #[test]
    fn vote_board_resets_on_dissent() {
        let mut b = VoteBoard::new(2, 1);
        b.record(0, true);
        b.record(1, true); // wave started, rank1 confirmed
        b.record(1, false); // dissent resets everything
        assert!(!b.is_global());
        b.record(1, true);
        assert!(!b.is_global()); // fresh wave: rank1 confirmed, rank0 pending
        assert!(b.record(0, true));
    }

    #[test]
    fn increment_vote_windows() {
        let obs = |increment: f64, dep_change: f64| StepObservation {
            iteration: 1,
            increment,
            dep_change,
            fresh_data: true,
            needs_fresh_data: true,
        };
        // Lockstep: one below-tolerance increment suffices; dep_change is
        // not folded in.
        let mut lock = IncrementVote::lockstep(1e-8);
        assert!(!lock.vote(&obs(1.0, 0.0)));
        assert!(lock.vote(&obs(1e-9, 5.0)));
        // Free-running: 2-iteration window over max(increment, dep_change).
        let mut free = IncrementVote::free_running(1e-8);
        assert!(!free.vote(&obs(1e-9, 0.0)));
        assert!(free.vote(&obs(1e-9, 0.0)));
        assert!(!free.vote(&obs(1e-9, 1.0))); // moving inputs reset the window
        assert!(!free.vote(&obs(1e-9, 0.0)));
        assert!(free.vote(&obs(1e-9, 0.0)));
    }

    #[test]
    fn stale_sweep_guard_vetoes_without_fresh_data() {
        let mut guarded = StaleSweepGuard::new(IncrementVote::lockstep(1e-8), 1e-8);
        let mut obs = StepObservation {
            iteration: 1,
            increment: 1e-9,
            dep_change: 0.0,
            fresh_data: false,
            needs_fresh_data: true,
        };
        // Tiny increment but no fresh data: a sweep over in-flight slices.
        assert!(!guarded.vote(&obs));
        obs.fresh_data = true;
        assert!(guarded.vote(&obs));
        // Moving dependency values veto too.
        obs.dep_change = 1.0;
        assert!(!guarded.vote(&obs));
        // A rank without dependencies converges without ever receiving data.
        obs.dep_change = 0.0;
        obs.fresh_data = false;
        obs.needs_fresh_data = false;
        assert!(guarded.vote(&obs));
    }

    #[test]
    fn broadcast_halt_is_idempotent_and_death_tolerant() {
        let transport = InProcTransport::new(3);
        transport.close_rank(1).unwrap();
        let targets = [1usize, 2usize];
        let mut link = RankLink::new(transport.as_ref(), 0, &targets, &[]);
        // Two broadcasts with one peer dead: no error, no panic, and the
        // live peer sees at most the two halts.
        link.broadcast_halt();
        link.broadcast_halt();
        assert_eq!(transport.try_recv(2).unwrap(), Some(Message::Halt));
        assert_eq!(transport.try_recv(2).unwrap(), Some(Message::Halt));
        assert_eq!(transport.try_recv(2).unwrap(), None);
        // Tolerate: a data send to the dead rank is skipped silently.
        link.send_ruled(1, Message::Halt, DeathRule::Tolerate)
            .unwrap();
        // Fatal: surfaced as a comm error (dead set short-circuits to Ok, so
        // use a fresh link).
        let mut fresh = RankLink::new(transport.as_ref(), 0, &targets, &[]);
        assert!(matches!(
            fresh.send_ruled(1, Message::Halt, DeathRule::Fatal),
            Err(CoreError::Comm(CommError::Disconnected { rank: 1 }))
        ));
    }

    #[test]
    fn single_part_engine_matches_direct_solve() {
        // One band, no dependencies: the engine's first step is the direct
        // solve, bitwise.
        let a = generators::tridiagonal(40, 4.0, -1.0);
        let (_, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
        let d = Decomposition::uniform(&a, &b, 1, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let solver = SolverKind::SparseLu.build();
        let factor = solver.factorize(&blocks[0].a_sub).unwrap();
        let mut ws = IterationWorkspace::new();
        let mut engine = RankEngine::single(
            &partition,
            &blocks[0],
            &blocks[0].b_sub,
            factor.as_ref(),
            WeightingScheme::OwnerTakes,
            &mut ws,
        );
        let obs = engine.step().unwrap();
        assert_eq!(obs.iteration, 1);
        assert!(!obs.needs_fresh_data);
        let direct = factor.solve(&blocks[0].b_sub).unwrap();
        assert_eq!(engine.x_local(), direct.as_slice());
    }

    #[test]
    fn engine_replay_reproduces_ingest_and_steps() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let solver = SolverKind::SparseLu.build();
        let blk = &blocks[1];
        let factor = solver.factorize(&blk.a_sub).unwrap();
        let slice = Message::Solution {
            from: 0,
            iteration: 1,
            offset: 0,
            values: vec![0.25; blocks[0].size],
        };

        let mut ws = IterationWorkspace::new();
        let mut live = RankEngine::single(
            &partition,
            blk,
            &blk.b_sub,
            factor.as_ref(),
            WeightingScheme::OwnerTakes,
            &mut ws,
        );
        live.record_events();
        live.step().unwrap();
        assert!(live.ingest(slice.clone()));
        live.step().unwrap();
        let log = live.take_event_log().unwrap();
        assert_eq!(log.events.len(), 3);
        let live_x = live.x_local().to_vec();

        let mut ws2 = IterationWorkspace::new();
        let mut twin = RankEngine::single(
            &partition,
            blk,
            &blk.b_sub,
            factor.as_ref(),
            WeightingScheme::OwnerTakes,
            &mut ws2,
        );
        twin.replay(&log).unwrap();
        assert_eq!(twin.iterations(), 2);
        assert_eq!(twin.x_local(), live_x.as_slice());
    }

    #[test]
    fn outgoing_encoded_len_matches_the_codec() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let b = vec![1.0; 30];
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let solver = SolverKind::SparseLu.build();
        let blk = &blocks[1];
        let factor = solver.factorize(&blk.a_sub).unwrap();
        let mut ws = IterationWorkspace::new();
        let engine = RankEngine::single(
            &partition,
            blk,
            &blk.b_sub,
            factor.as_ref(),
            WeightingScheme::OwnerTakes,
            &mut ws,
        );
        assert_eq!(
            engine.outgoing_encoded_len(),
            engine.outgoing().encoded_len()
        );
        let mut ws2 = IterationWorkspace::new();
        let cols: Vec<&[f64]> = vec![&blk.b_sub, &blk.b_sub];
        let batch = RankEngine::batch(
            &partition,
            blk,
            cols,
            factor.as_ref(),
            WeightingScheme::OwnerTakes,
            &mut ws2,
        );
        assert_eq!(batch.outgoing_encoded_len(), batch.outgoing().encoded_len());
    }

    #[test]
    fn stale_slices_are_not_fresh_data() {
        let a = generators::tridiagonal(30, 4.0, -1.0);
        let b = vec![1.0; 30];
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let partition = d.partition().clone();
        let (_, blocks) = d.into_blocks();
        let solver = SolverKind::SparseLu.build();
        let blk = &blocks[1];
        let factor = solver.factorize(&blk.a_sub).unwrap();
        let mut ws = IterationWorkspace::new();
        let mut engine = RankEngine::single(
            &partition,
            blk,
            &blk.b_sub,
            factor.as_ref(),
            WeightingScheme::OwnerTakes,
            &mut ws,
        );
        let slice = |iter: u64| Message::Solution {
            from: 0,
            iteration: iter,
            offset: 0,
            values: vec![1.0; blocks[0].size],
        };
        assert!(engine.ingest(slice(5)));
        // Older than what is already stored: discarded, not fresh.
        assert!(!engine.ingest(slice(3)));
        // Control messages are never fresh data.
        assert!(!engine.ingest(Message::Halt));
    }

    // ----- threaded-adapter behavior (moved here from the deprecated
    // ----- sync_driver / async_driver shim modules when they were removed)

    fn adapter_config(parts: usize, overlap: usize, mode: ExecutionMode) -> MultisplittingConfig {
        MultisplittingConfig {
            parts,
            overlap,
            tolerance: 1e-10,
            max_iterations: if mode == ExecutionMode::Asynchronous {
                50_000
            } else {
                2000
            },
            mode,
            ..Default::default()
        }
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn sync_solve_matches_true_solution() {
        let a = generators::diag_dominant(&generators::DiagDominantConfig {
            n: 300,
            seed: 12,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 13) as f64) - 6.0);
        let cfg = adapter_config(4, 0, ExecutionMode::Synchronous);
        let d = Decomposition::uniform(&a, &b, 4, 0).unwrap();
        let out = solve_threaded_inproc(d, &cfg).unwrap();
        assert!(out.converged);
        assert!(max_err(&out.x, &x_true) < 1e-7, "error too large");
        assert!(out.residual(&a, &b) < 1e-6);
        assert_eq!(out.part_reports.len(), 4);
        assert!(out.iterations >= 2);
        // every part ran the same number of iterations in synchronous mode
        assert!(out.iterations_per_part.iter().all(|&i| i == out.iterations));
    }

    #[test]
    fn sync_solve_agrees_with_sequential_reference() {
        let a = generators::cage_like(200, 31);
        let (_, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.3).sin());
        let cfg = adapter_config(3, 0, ExecutionMode::Synchronous);
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let threaded = solve_threaded_inproc(d, &cfg).unwrap();
        let sequential = crate::sequential::solve_sequential(
            &a,
            &b,
            3,
            0,
            WeightingScheme::OwnerTakes,
            SolverKind::SparseLu,
            1e-10,
            2000,
        )
        .unwrap();
        assert!(threaded.converged && sequential.converged);
        assert!(max_err(&threaded.x, &sequential.x) < 1e-8);
        // The threaded Jacobi sweep and the sequential Jacobi sweep perform
        // the same iteration, so the counts should be very close.
        assert!(
            (threaded.iterations as i64 - sequential.iterations as i64).abs() <= 2,
            "threaded {} vs sequential {}",
            threaded.iterations,
            sequential.iterations
        );
    }

    #[test]
    fn sync_solve_with_overlap_and_every_scheme() {
        let a = generators::spectral_radius_targeted(240, 0.9);
        let (x_true, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 4) as f64);
        for scheme in WeightingScheme::all() {
            let mut cfg = adapter_config(3, 8, ExecutionMode::Synchronous);
            cfg.weighting = scheme;
            let d = Decomposition::uniform(&a, &b, 3, 8).unwrap();
            let out = solve_threaded_inproc(d, &cfg).unwrap();
            assert!(out.converged, "{scheme:?}");
            assert!(max_err(&out.x, &x_true) < 1e-6, "{scheme:?}");
        }
    }

    #[test]
    fn sync_reports_non_convergence_within_budget() {
        let a = generators::spectral_radius_targeted(100, 0.99);
        let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let mut cfg = adapter_config(4, 0, ExecutionMode::Synchronous);
        cfg.max_iterations = 3;
        let d = Decomposition::uniform(&a, &b, 4, 0).unwrap();
        let out = solve_threaded_inproc(d, &cfg).unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn transport_rank_mismatch_is_rejected() {
        let a = generators::tridiagonal(20, 4.0, -1.0);
        let b = vec![1.0; 20];
        let cfg = adapter_config(4, 0, ExecutionMode::Synchronous);
        let d = Decomposition::uniform(&a, &b, 4, 0).unwrap();
        let transport = InProcTransport::new(3);
        assert!(matches!(
            solve_threaded(d, &cfg, transport),
            Err(CoreError::Decomposition(_))
        ));
    }

    #[test]
    fn singular_block_fails_before_any_communication() {
        // A zero row makes one diagonal block singular.
        let mut builder = msplit_sparse::TripletBuilder::square(12);
        for i in 0..12usize {
            if i != 5 {
                builder.push(i, i, 4.0).unwrap();
                if i > 0 {
                    builder.push(i, i - 1, -1.0).unwrap();
                }
            }
        }
        let a = builder.build_csr();
        let b = vec![1.0; 12];
        let cfg = adapter_config(3, 0, ExecutionMode::Synchronous);
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        assert!(matches!(
            solve_threaded_inproc(d, &cfg),
            Err(CoreError::Direct(_))
        ));
    }

    #[test]
    fn heterogeneous_band_sizes_still_converge() {
        let a = generators::diag_dominant(&generators::DiagDominantConfig {
            n: 250,
            seed: 77,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 6) as f64);
        let cfg = adapter_config(4, 0, ExecutionMode::Synchronous);
        let d = Decomposition::balanced_for_speeds(&a, &b, &[1.0, 1.5, 1.2, 1.0], 0).unwrap();
        let out = solve_threaded_inproc(d, &cfg).unwrap();
        assert!(out.converged);
        assert!(max_err(&out.x, &x_true) < 1e-7);
    }

    #[test]
    fn async_solve_matches_true_solution() {
        let a = generators::diag_dominant(&generators::DiagDominantConfig {
            n: 300,
            seed: 21,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 10) as f64) - 5.0);
        let cfg = adapter_config(4, 0, ExecutionMode::Asynchronous);
        let d = Decomposition::uniform(&a, &b, 4, 0).unwrap();
        let out = solve_threaded_inproc(d, &cfg).unwrap();
        assert!(out.converged, "async run did not converge");
        assert!(max_err(&out.x, &x_true) < 1e-6);
        assert!(out.residual(&a, &b) < 1e-5);
        assert_eq!(out.mode, ExecutionMode::Asynchronous);
    }

    #[test]
    fn async_agrees_with_sync_result() {
        let a = generators::cage_like(250, 41);
        let (_, b) = generators::rhs_for_solution(&a, |i| (i as f64 * 0.2).cos());
        let async_cfg = adapter_config(3, 0, ExecutionMode::Asynchronous);
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let async_out = solve_threaded_inproc(d, &async_cfg).unwrap();
        let sync_cfg = adapter_config(3, 0, ExecutionMode::Synchronous);
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let sync_out = solve_threaded_inproc(d, &sync_cfg).unwrap();
        assert!(async_out.converged && sync_out.converged);
        assert!(max_err(&async_out.x, &sync_out.x) < 1e-6);
    }

    #[test]
    fn async_tolerates_modelled_wan_delays() {
        // Run the asynchronous solver over a transport that injects (scaled)
        // cluster3 WAN delays; it must still converge to the right answer.
        let a = generators::diag_dominant(&generators::DiagDominantConfig {
            n: 200,
            seed: 5,
            ..Default::default()
        });
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
        let cfg = adapter_config(10, 0, ExecutionMode::Asynchronous);
        let d = Decomposition::uniform(&a, &b, 10, 0).unwrap();
        let inner = InProcTransport::new(10);
        let delayed =
            msplit_comm::DelayedTransport::new(inner, msplit_grid::cluster::cluster3(), 1e-3);
        let out = solve_threaded(d, &cfg, delayed).unwrap();
        assert!(out.converged);
        assert!(max_err(&out.x, &x_true) < 1e-6);
    }

    #[test]
    fn async_respects_iteration_budget() {
        let a = generators::spectral_radius_targeted(150, 0.995);
        let (_, b) = generators::rhs_for_solution(&a, |i| i as f64);
        let mut cfg = adapter_config(3, 0, ExecutionMode::Asynchronous);
        cfg.max_iterations = 5;
        let d = Decomposition::uniform(&a, &b, 3, 0).unwrap();
        let out = solve_threaded_inproc(d, &cfg).unwrap();
        assert!(!out.converged);
        assert!(out.iterations <= 5);
    }

    #[test]
    fn async_with_overlap_and_averaging_converges() {
        let a = generators::spectral_radius_targeted(300, 0.9);
        let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
        let mut cfg = adapter_config(3, 10, ExecutionMode::Asynchronous);
        cfg.weighting = WeightingScheme::Average;
        let d = Decomposition::uniform(&a, &b, 3, 10).unwrap();
        let out = solve_threaded_inproc(d, &cfg).unwrap();
        assert!(out.converged);
        assert!(max_err(&out.x, &x_true) < 1e-6);
    }
}
