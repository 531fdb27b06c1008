//! The unified rank loop — the single Algorithm 1 outer loop behind every
//! driver, as a poll-driven state machine — with its blocking executor, the
//! policy stacks it runs and its optional hooks (checkpoints, per-column
//! batch tracking).

use super::convergence::{ConfirmationWaves, ConvergencePolicy, TreeVotes};
use super::engine::{RankEngine, StepObservation};
use super::failure::{FailurePolicy, Flow, RankLink};
use super::progress::{FreeRunning, Lockstep, Poll, ProgressPolicy};
use super::vote::{IncrementVote, LocalVote, StaleSweepGuard};
use crate::solver::{ExecutionMode, MultisplittingConfig};
use crate::stop::{Stop, StopReason};
use crate::CoreError;
#[allow(unused_imports)] // doc links
use msplit_comm::message::Message;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One rank's policy stack behind trait objects: local vote, convergence
/// protocol, progress rule.
pub(crate) type PolicyStack = (
    Box<dyn LocalVote>,
    Box<dyn ConvergencePolicy>,
    Box<dyn ProgressPolicy>,
);

/// The policy stack of an execution mode — there is exactly one per mode,
/// and this is the one place that builds it, so the threaded, batched,
/// distributed and simulated paths cannot drift apart (their bitwise
/// transport-independence depends on running the exact same policies; the
/// scale simulator only swaps in an explicit vote-tree fan-in):
///
/// * synchronous — guarded increment vote + per-iteration votes up the tree
///   ([`TreeVotes`] at the production fan-in) + barrier-equivalent wait
///   bounded by `peer_timeout`,
/// * asynchronous — windowed increment vote + [`ConfirmationWaves`] (with
///   `config.async_confirmations` waves) + free-running drains.
///
/// `failure` decides what a heartbeat-detected peer death does: halt the
/// run or request a reshape.
pub(crate) fn mode_policies(
    mode: ExecutionMode,
    config: &MultisplittingConfig,
    rank: usize,
    world: usize,
    peer_timeout: Duration,
    failure: FailurePolicy,
) -> PolicyStack {
    let tolerance = config.tolerance;
    match mode {
        ExecutionMode::Synchronous => (
            Box::new(lockstep_vote(tolerance)),
            Box::new(TreeVotes::new(rank, world, failure)),
            Box::new(Lockstep::new(peer_timeout, failure)),
        ),
        ExecutionMode::Asynchronous => (
            Box::new(IncrementVote::free_running(tolerance)),
            Box::new(ConfirmationWaves::new(
                rank,
                world,
                config.async_confirmations,
            )),
            Box::new(FreeRunning::new(failure)),
        ),
    }
}

/// The local vote of a synchronous rank: the guarded window-1 increment
/// vote.  [`mode_policies`] and the pooled lockstep loop both build it here,
/// so the two synchronous drivers cannot vote differently.
pub(crate) fn lockstep_vote(tolerance: f64) -> StaleSweepGuard<IncrementVote> {
    StaleSweepGuard::new(IncrementVote::lockstep(tolerance), tolerance)
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
/// submitted ([`TreeVotes`]' `submit`), and a rank only sweeps row `k` after
/// the lockstep decision for `k` resolved — the root decides only once every
/// subtree aggregate arrived, and an aggregate goes up only after it folded
/// in every rank below it, so the decision required every rank's vote, hence
/// every rank's post.
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
pub(crate) struct ColumnTracker {
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
    pub(crate) fn new(board: Arc<ColumnBoard>, tolerance: f64, ncols: usize) -> Self {
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
    pub(crate) fn into_columns(self, live: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<Option<u64>>) {
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
/// per-column batch tracking.  [`DriveHooks::default`] is a no-op.
#[derive(Default)]
pub(crate) struct DriveHooks {
    /// Periodic snapshot writer (see [`crate::checkpoint`]).
    pub(crate) checkpoint: Option<crate::checkpoint::Checkpointer>,
    /// Per-column convergence tracking of a batched lockstep solve (see
    /// [`ColumnTracker`]); `None` everywhere else.
    pub(crate) columns: Option<ColumnTracker>,
}

/// One rank's outer loop as a resumable state machine — the **single**
/// Algorithm 1 loop behind every driver.  [`RankLoop::poll`] never blocks,
/// never sleeps and never reads a clock; [`drive`] runs it on a thread over
/// any transport, the scale simulator runs it under a virtual clock.
pub(crate) struct RankLoop<'a> {
    pub(crate) engine: RankEngine<'a>,
    pub(crate) link: RankLink<'a>,
    vote: Box<dyn LocalVote>,
    conv: Box<dyn ConvergencePolicy>,
    progress: Box<dyn ProgressPolicy>,
    pub(crate) hooks: DriveHooks,
    max_iterations: u64,
    /// The step whose exchange is in progress (observation and local
    /// vote); `None` at the top of an iteration.
    exchanging: Option<(StepObservation, bool)>,
    last_increment: f64,
}

impl<'a> RankLoop<'a> {
    /// Assembles the loop of one rank; `hooks` carries the optional
    /// instrumentation ([`DriveHooks::default`] is none).
    pub(crate) fn new(
        engine: RankEngine<'a>,
        link: RankLink<'a>,
        (vote, conv, progress): PolicyStack,
        max_iterations: u64,
        hooks: DriveHooks,
    ) -> Self {
        RankLoop {
            engine,
            link,
            vote,
            conv,
            progress,
            hooks,
            max_iterations,
            exchanging: None,
            last_increment: f64::INFINITY,
        }
    }

    /// Advances the loop as far as it can go at `now` (time since the rank
    /// started) without crossing an iteration boundary — so with at most one
    /// engine step — until it stops (see [`StopReason`]) or fails.  Not to
    /// be polled again once ready.
    pub(crate) fn poll(&mut self, now: Duration) -> Poll<Result<Stop, CoreError>> {
        match self.advance(now) {
            Ok(Poll::Ready(flow)) => Poll::Ready(Ok(self.finish(flow))),
            Ok(Poll::Pending {
                wake_at,
                on_message,
            }) => Poll::Pending {
                wake_at,
                on_message,
            },
            Err(e) => Poll::Ready(Err(e)),
        }
    }

    /// The one place a rank's stop reason is decided: the budget here, every
    /// other reason by the policies' [`Flow::Stop`].  Ready only to stop.
    fn advance(&mut self, now: Duration) -> Result<Poll<Flow>, CoreError> {
        let (engine, link, conv) = (&mut self.engine, &mut self.link, self.conv.as_mut());
        if self.exchanging.is_none() {
            // (0) intake (free-running drains here; lockstep ingested
            // everything during the previous wait).  With the budget spent
            // it is the last one: the coordinator can declare global
            // convergence while this rank finishes its last budgeted
            // iteration, so drain once more before telling everyone to
            // halt, and a converged run is never reported as failed.
            match self.progress.collect(engine, link, conv, now)? {
                Poll::Ready(Flow::Continue) if engine.iterations() >= self.max_iterations => {
                    conv.abandon(link);
                    return Ok(Poll::Ready(Flow::Stop(StopReason::BudgetExhausted)));
                }
                Poll::Ready(Flow::Continue) => {}
                stop_or_pending => return Ok(stop_or_pending),
            }
            // (1)+(2) dependency fill and local solve
            let obs = engine.step()?;
            self.last_increment = self.vote.effective_increment(&obs);
            // Per-column bits must be on the board before this rank's vote
            // for the iteration can reach the coordinator (see
            // [`ColumnBoard`]).
            if let Some(tracker) = self.hooks.columns.as_mut() {
                tracker.post(engine, &obs);
            }
            // (3) send the slice to every dependent processor
            link.fan_out(engine.outgoing(), conv.death_rule())?;
            // (4) vote and agree on global convergence
            let local = self.vote.vote(&obs);
            match conv.submit(obs.iteration, local, link)? {
                Flow::Continue => self.exchanging = Some((obs, local)),
                stop => return Ok(Poll::Ready(stop)),
            }
        }
        let (obs, local) = self.exchanging.expect("this iteration stepped");
        let flow = match self
            .progress
            .exchange(engine, link, conv, &obs, local, now)?
        {
            Poll::Ready(flow) => flow,
            pending => return Ok(pending),
        };
        // The lockstep decision for this iteration is resolved: the row of
        // per-column bits is complete on every rank, so newly all-converged
        // columns freeze at the iterate a solo run would have returned.
        // (Halted/Reshape abort mid-wait with a possibly incomplete row.)
        if matches!(flow, Flow::Continue | Flow::Stop(StopReason::Converged)) {
            if let Some(tracker) = self.hooks.columns.as_mut() {
                tracker.sweep(engine, obs.iteration);
            }
        }
        if flow != Flow::Continue {
            return Ok(Poll::Ready(flow));
        }
        // (5) checkpoint at the boundary (the halo now holds every slice of
        // this iteration), then honor any reshape raised by a tolerated send
        // failure.
        if let Some(ck) = &self.hooks.checkpoint {
            ck.maybe_save(engine, self.vote.checkpoint_state(), obs.iteration)?;
        }
        if let Some(dead) = link.take_reshape() {
            return Ok(Poll::Ready(Flow::Stop(StopReason::Reshape(dead))));
        }
        // The iteration is complete: yield, so a poll never runs past an
        // iteration boundary.
        self.exchanging = None;
        Ok(Poll::Pending {
            wake_at: now,
            on_message: false,
        })
    }

    /// The run's stop record once the loop stopped on `flow`.
    fn finish(&self, flow: Flow) -> Stop {
        let Flow::Stop(reason) = flow else {
            unreachable!("the rank loop is ready only to stop")
        };
        if let (StopReason::Reshape(_), Some(ck)) = (reason, &self.hooks.checkpoint) {
            // Persist the freshest possible state for the post-reshape warm
            // start (best effort — the periodic snapshot remains the
            // fallback).
            let _ = ck.save_now(&self.engine, self.vote.checkpoint_state());
        }
        Stop::new(reason, self.engine.iterations(), self.last_increment)
    }
}

/// The blocking executor of a [`RankLoop`]: polls it at the time elapsed
/// since the call, and between polls waits on the link for the next message
/// (or sleeps, when only time can make progress) until the wake-up the poll
/// asked for.  On error, [`Message::Halt`] is broadcast so no peer spins
/// forever on a rank that will never answer.
pub(crate) fn drive(rank: &mut RankLoop) -> Result<Stop, CoreError> {
    let started = Instant::now();
    loop {
        match rank.poll(started.elapsed()) {
            Poll::Ready(result) => {
                if result.is_err() {
                    rank.link.broadcast_halt();
                }
                return result;
            }
            Poll::Pending {
                wake_at,
                on_message,
            } => {
                let now = started.elapsed();
                if wake_at <= now {
                    continue;
                }
                if on_message {
                    rank.link.wait(wake_at - now);
                } else {
                    std::thread::sleep(wake_at - now);
                }
            }
        }
    }
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
