//! The pure per-rank numeric state machine of Algorithm 1 ([`RankEngine`])
//! with its record/replay log and checkpoint snapshot.

use crate::driver_common::{increment_norm, IterationWorkspace, NeighborData};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_comm::message::Message;
use msplit_direct::api::Factorization;
use msplit_direct::DeltaOutcome;
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
    /// An attempt whose seed rows already tripped the reach threshold skips
    /// the search and counts with the fraction remembered from that trip —
    /// the fraction the search would report again.
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

    /// Forgets the tripped seed set, so the next delta step searches its
    /// reach again (the reference side of the memo's exactness tests).
    #[cfg(test)]
    pub(crate) fn forget_tripped(&mut self) {
        self.ws.incr.tripped.clear();
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

    /// Ingests `peer`'s current slice straight from its iterate: the same
    /// halo update as [`RankEngine::ingest`] of `peer.outgoing()`, stamped
    /// with the same iteration, without building the message (single-RHS
    /// shape only).  Allocation-free once `peer` has been ingested before.
    pub(crate) fn ingest_peer(&mut self, peer: &RankEngine) -> bool {
        debug_assert!(matches!(self.shape, EngineShape::Single));
        if let Some(log) = &mut self.recorder {
            log.events.push(EngineEvent::Ingest(peer.outgoing()));
        }
        let fresh = self.neighbors[0].update_from_slice(
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
                            // `valid` implies a completed sparse-LU solve
                            // filled the cache, so every `Fallback` below is
                            // a reach trip, never a cold cache.
                            debug_assert!(incr.cache.is_ready());
                            let mut inc = 0.0f64;
                            // Seeds that tripped the threshold before trip
                            // it again with the same fraction (see
                            // `IncrementalState::tripped`): skip the search.
                            let memo_hit = incr.seeds == incr.tripped;
                            let outcome = if memo_hit {
                                DeltaOutcome::Fallback {
                                    reach_fraction: incr.tripped_reach,
                                }
                            } else {
                                lu.solve_delta_into(
                                    &incr.seeds,
                                    &incr.b_loc,
                                    &mut incr.cache,
                                    scratch,
                                    |idx, val| {
                                        inc = inc.max((val - x_sub[idx]).abs());
                                        x_sub[idx] = val;
                                    },
                                )?
                            };
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
                                    if !memo_hit {
                                        incr.tripped.clear();
                                        incr.tripped.extend_from_slice(&incr.seeds);
                                        incr.tripped_reach = reach_fraction;
                                    }
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
