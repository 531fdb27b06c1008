//! The unified rank loop — the single Algorithm 1 outer loop behind every
//! driver, as a poll-driven state machine — with its blocking executor, the
//! two mode stacks it runs and its optional checkpointer.

use super::convergence::{ConfirmationWaves, TreeVotes};
use super::engine::{RankEngine, StepObservation};
use super::failure::{DeathRule, FailurePolicy, Flow, RankLink};
use super::progress::{FreeRunning, Lockstep, Poll};
use super::vote::Vote;
use crate::checkpoint::Checkpointer;
use crate::solver::{ExecutionMode, MultisplittingConfig};
use crate::stop::{Stop, StopReason};
use crate::CoreError;
#[allow(unused_imports)] // doc links
use msplit_comm::message::Message;
use std::time::{Duration, Instant};

/// The detection protocol and progress rule of one rank — one pair per
/// execution mode.
pub(crate) enum Stack {
    /// Per-iteration votes up the tree, barrier-equivalent waits.
    Lockstep(TreeVotes, Lockstep),
    /// Confirmation waves through rank 0, drain-step-backoff sweeps.
    FreeRunning(ConfirmationWaves, FreeRunning),
}

/// The local vote and stack of an execution mode — there is exactly one per
/// mode, and this is the one place that builds it, so the threaded,
/// distributed and simulated paths cannot drift apart (their bitwise
/// transport-independence depends on running the exact same rules; the
/// scale simulator only swaps in an explicit vote-tree fan-in):
///
/// * synchronous — [`Vote::lockstep`] + per-iteration votes up the tree
///   ([`TreeVotes`] at the production fan-in) + barrier-equivalent wait
///   bounded by `peer_timeout`,
/// * asynchronous — [`Vote::free_running`] + [`ConfirmationWaves`] (with
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
) -> (Vote, Stack) {
    let tolerance = config.tolerance;
    match mode {
        ExecutionMode::Synchronous => (
            Vote::lockstep(tolerance),
            Stack::Lockstep(
                TreeVotes::new(rank, world, failure),
                Lockstep::new(peer_timeout, failure),
            ),
        ),
        ExecutionMode::Asynchronous => (
            Vote::free_running(tolerance),
            Stack::FreeRunning(
                ConfirmationWaves::new(rank, world, config.async_confirmations),
                FreeRunning::new(failure),
            ),
        ),
    }
}

/// One rank's outer loop as a resumable state machine — the **single**
/// Algorithm 1 loop behind every driver.  [`RankLoop::poll`] never blocks,
/// never sleeps and never reads a clock; [`drive`] runs it on a thread over
/// any transport, the scale simulator runs it under a virtual clock.
pub(crate) struct RankLoop<'a> {
    pub(crate) engine: RankEngine<'a>,
    pub(crate) link: RankLink<'a>,
    vote: Vote,
    stack: Stack,
    /// Periodic snapshot writer (see [`crate::checkpoint`]).
    checkpoint: Option<Checkpointer>,
    max_iterations: u64,
    /// The step whose exchange is in progress (observation and local
    /// vote); `None` at the top of an iteration.
    exchanging: Option<(StepObservation, bool)>,
    last_increment: f64,
}

impl<'a> RankLoop<'a> {
    /// Assembles the loop of one rank; `checkpoint`, when given, saves
    /// periodic snapshots at iteration boundaries.
    pub(crate) fn new(
        engine: RankEngine<'a>,
        link: RankLink<'a>,
        (vote, stack): (Vote, Stack),
        max_iterations: u64,
        checkpoint: Option<Checkpointer>,
    ) -> Self {
        RankLoop {
            engine,
            link,
            vote,
            stack,
            checkpoint,
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
    /// other reason by the stack's [`Flow::Stop`].  Ready only to stop.
    fn advance(&mut self, now: Duration) -> Result<Poll<Flow>, CoreError> {
        let RankLoop {
            engine,
            link,
            vote,
            stack,
            exchanging,
            last_increment,
            ..
        } = self;
        let spent = engine.iterations() >= self.max_iterations;
        // (1)+(2) dependency fill and local solve, then the local vote.
        let mut step = |engine: &mut RankEngine| -> Result<(StepObservation, bool), CoreError> {
            let obs = engine.step()?;
            *last_increment = vote.effective_increment(&obs);
            Ok((obs, vote.vote(&obs)))
        };
        let exchanged = match stack {
            Stack::Lockstep(votes, lockstep) => {
                if exchanging.is_none() {
                    // Lockstep ingested everything during the previous wait,
                    // so there is no intake; budget exhaustion is
                    // synchronized (every rank runs out at the same
                    // iteration), so no halt broadcast is needed.
                    if spent {
                        return Ok(Poll::Ready(Flow::Stop(StopReason::BudgetExhausted)));
                    }
                    let (obs, local) = step(engine)?;
                    // (3) send the slice to every dependent processor
                    link.fan_out(engine.outgoing(), votes.death_rule())?;
                    // (4) vote and agree on global convergence
                    votes.submit(obs.iteration, local, link)?;
                    *exchanging = Some((obs, local));
                }
                let (obs, _) = exchanging.expect("this iteration stepped");
                lockstep.exchange(engine, link, votes, obs.iteration, now)?
            }
            Stack::FreeRunning(waves, free) => {
                if exchanging.is_none() {
                    // (0) intake.  With the budget spent it is the last one:
                    // the coordinator can declare global convergence while
                    // this rank finishes its last budgeted iteration, so
                    // drain once more before telling everyone to halt, and
                    // a converged run is never reported as failed.
                    match free.collect(engine, link, waves, now)? {
                        Poll::Ready(Flow::Continue) if spent => {
                            link.broadcast_halt();
                            return Ok(Poll::Ready(Flow::Stop(StopReason::BudgetExhausted)));
                        }
                        Poll::Ready(Flow::Continue) => {}
                        stop_or_pending => return Ok(stop_or_pending),
                    }
                    let (obs, local) = step(engine)?;
                    link.fan_out(engine.outgoing(), DeathRule::Tolerate)?;
                    match waves.submit(obs.iteration, local, link)? {
                        Flow::Continue => *exchanging = Some((obs, local)),
                        stop => return Ok(Poll::Ready(stop)),
                    }
                }
                let (obs, local) = exchanging.expect("this iteration stepped");
                free.exchange(link, &obs, local, now)?
            }
        };
        let flow = match exchanged {
            Poll::Ready(flow) => flow,
            pending => return Ok(pending),
        };
        if flow != Flow::Continue {
            return Ok(Poll::Ready(flow));
        }
        // (5) checkpoint at the boundary (the halo now holds every slice of
        // this iteration), then honor any reshape raised by a tolerated send
        // failure.
        let (obs, _) = exchanging.take().expect("this iteration stepped");
        if let Some(ck) = &self.checkpoint {
            ck.maybe_save(&self.engine, self.vote.state(), obs.iteration)?;
        }
        if let Some(dead) = self.link.take_reshape() {
            return Ok(Poll::Ready(Flow::Stop(StopReason::Reshape(dead))));
        }
        // The iteration is complete: yield, so a poll never runs past an
        // iteration boundary.
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
        if let (StopReason::Reshape(_), Some(ck)) = (reason, &self.checkpoint) {
            // Persist the freshest possible state for the post-reshape warm
            // start (best effort — the periodic snapshot remains the
            // fallback).
            let _ = ck.save_now(&self.engine, self.vote.state());
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
