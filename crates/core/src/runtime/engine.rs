//! The pure per-rank numeric state machine of Algorithm 1 ([`RankEngine`])
//! with its record/replay log and checkpoint snapshot.

use crate::driver_common::{increment_norm, IterationWorkspace, NeighborData};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_comm::message::Message;
use msplit_direct::api::Factorization;
use msplit_sparse::{BandPartition, LocalBlocks};

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

/// Which solve paths a [`RankEngine`]'s steps took — the skip/dense counters
/// surfaced through [`crate::solver::PartReport`], the engine metrics and the
/// serve `ServerStats` frame.
///
/// Every step ends in exactly one bucket: `sparse_fastpath_hits` (no
/// dependency value changed bitwise since the last completed step, so the
/// step was skipped with an increment of exactly `0.0`) or `dense_fallbacks`
/// (`BLoc` assembly + triangular solve ran — including the first iteration).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolvePathStats {
    /// Steps skipped because their dependency values were bitwise unchanged.
    pub sparse_fastpath_hits: u64,
    /// Steps that ran the `BLoc` assembly and the triangular solve.
    pub dense_fallbacks: u64,
}

impl SolvePathStats {
    /// Mean reach fraction of the reach-limited solves — always `0.0`, the
    /// "no attempt ran" value, because no step runs one.  Kept because the
    /// benchmark's `core.reach_share` reads it.
    pub fn mean_reach_fraction(&self) -> f64 {
        0.0
    }

    /// Folds another engine's counters into this one (driver aggregation).
    pub fn merge(&mut self, other: &SolvePathStats) {
        self.sparse_fastpath_hits += other.sparse_fastpath_hits;
        self.dense_fallbacks += other.dense_fallbacks;
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
    b_sub: &'a [f64],
    /// The halo: the latest slice received from every peer.
    neighbor: NeighborData,
    /// Previous dependency values, one per dependency column.
    prev_deps: Vec<f64>,
    /// Whether the local iterate is the completed solve of `prev_deps` —
    /// the precondition of the unchanged-halo skip.  False until the first
    /// step, after `restore` and `warm_start`, and after a failed step.
    skip_ready: bool,
    needs_fresh_data: bool,
    fresh_since_step: bool,
    iterations: u64,
    last_increment: f64,
    /// Whether a step with bitwise-unchanged dependency values may be skipped.
    /// Results are bitwise identical either way; disabling forces every step
    /// dense (benchmarks, equivalence tests).
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
        ws.prepare(blk);
        let neighbor = NeighborData::new(partition, scheme, blk);
        let dep_cols = neighbor.dependency_columns().len();
        RankEngine {
            rank: blk.part,
            blk,
            factor,
            ws,
            b_sub,
            needs_fresh_data: dep_cols > 0,
            prev_deps: vec![0.0; dep_cols],
            skip_ready: false,
            neighbor,
            fresh_since_step: false,
            iterations: 0,
            last_increment: f64::INFINITY,
            incremental: true,
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

    /// Enables or disables the unchanged-halo skip: a step whose dependency
    /// values are bitwise those of the last completed step costs no
    /// assembly and no solve.  Both settings produce bitwise-identical
    /// iterates; this gates the skip only (and is the test hook that pins
    /// that equivalence).
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
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
            } => self.neighbor.update(from, iteration, offset, values),
            _ => false,
        };
        self.fresh_since_step |= fresh;
        fresh
    }

    /// Ingests `peer`'s current slice straight from its iterate: the same
    /// halo update as [`RankEngine::ingest`] of `peer.outgoing()`, stamped
    /// with the same iteration, without building the message.
    /// Allocation-free once `peer` has been ingested before.
    pub(crate) fn ingest_peer(&mut self, peer: &RankEngine) -> bool {
        if let Some(log) = &mut self.recorder {
            log.events.push(EngineEvent::Ingest(peer.outgoing()));
        }
        let fresh = self.neighbor.update_from_slice(
            peer.rank,
            peer.iterations,
            peer.blk.offset,
            &peer.ws.x_sub,
        );
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
        let IterationWorkspace {
            x_global,
            rhs,
            x_sub,
            scratch,
        } = &mut *self.ws;
        self.neighbor.fill_dependencies(x_global);
        let mut moved = false;
        for (slot, &g) in self.neighbor.dependency_columns().iter().enumerate() {
            let v = x_global[g];
            dep_change = dep_change.max((v - self.prev_deps[slot]).abs());
            moved |= v.to_bits() != self.prev_deps[slot].to_bits();
            self.prev_deps[slot] = v;
        }
        // No dependency bit moved since a completed step: `BLoc` and
        // therefore the solve output are unchanged, so the increment is
        // exactly zero for any deterministic kernel.  The flag is cleared up
        // front and re-set only by a completed step, so an `?`-error leaves
        // the next step dense.
        let skip = self.incremental && self.skip_ready && !moved;
        self.skip_ready = false;
        if skip {
            self.last_increment = 0.0;
            self.path_stats.sparse_fastpath_hits += 1;
        } else {
            self.blk.local_rhs_into(self.b_sub, x_global, rhs)?;
            self.factor.solve_into(rhs, scratch)?;
            self.last_increment = increment_norm(rhs, x_sub);
            x_sub.copy_from_slice(rhs);
            self.path_stats.dense_fallbacks += 1;
        }
        self.skip_ready = true;
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
        Message::Solution {
            from: self.rank,
            iteration: self.iterations,
            offset: self.blk.offset,
            values: self.ws.x_sub.clone(),
        }
    }

    /// Encoded size of [`RankEngine::outgoing`] in bytes, without building
    /// the message (mirrors [`Message::encoded_len`]; the unit tests pin the
    /// two against each other).
    pub fn outgoing_encoded_len(&self) -> usize {
        1 + 8 + 8 + 8 + 8 + 8 * self.ws.x_sub.len()
    }

    /// The current local iterate.
    pub fn x_local(&self) -> &[f64] {
        &self.ws.x_sub
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

    /// Captures the complete mutable state of this engine for a checkpoint.
    /// Because [`RankEngine::step`] reads nothing but the halo, `x_sub` and
    /// `prev_deps` (the dependency columns of `x_global` are refilled from
    /// the halo every sweep), restoring this snapshot into a freshly
    /// prepared engine and continuing is bitwise-identical to never having
    /// stopped.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            iterations: self.iterations,
            last_increment: self.last_increment,
            fresh_since_step: self.fresh_since_step,
            x_sub: self.ws.x_sub.clone(),
            prev_deps: self.prev_deps.clone(),
            halo: self.neighbor.export_state(),
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
        if !self.neighbor.restore_state(&snap.halo) {
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
        // This engine did not compute the restored iterate; the next step
        // assembles and solves.
        self.skip_ready = false;
        Ok(())
    }

    /// Seeds a freshly prepared engine with a global initial
    /// guess instead of the all-zero default — the warm start of a
    /// redistributed solve, assembled from the pre-reshape checkpoints.
    /// Dependency columns with halo data are overwritten at the next sweep;
    /// columns whose sender has not spoken yet keep the warm-start value.
    pub fn warm_start(&mut self, x0: &[f64]) -> Result<(), CoreError> {
        if x0.len() != self.ws.x_global.len() {
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
        self.skip_ready = false;
        Ok(())
    }
}

/// The complete mutable state of a [`RankEngine`], as captured by
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
