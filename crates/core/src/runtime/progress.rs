//! Progress rules: when messages move between the transport and the
//! engine ([`Lockstep`] barrier-equivalent waits, [`FreeRunning`] drains).
//!
//! Both are resumable phases of the rank loop: nothing here blocks, sleeps
//! or reads a clock.  Every deadline is a [`Duration`] since the rank
//! started, compared against the `now` the caller passes in, and every
//! receive is a non-blocking [`RankLink::try_recv`].  A phase that cannot
//! finish yet returns [`Poll::Pending`] with the instant it next needs to
//! run; the caller — a blocking executor or the scale simulator's virtual
//! clock — decides how to wait for it.

use super::convergence::{ConfirmationWaves, TreeVotes};
use super::engine::{RankEngine, StepObservation};
use super::failure::{DeathRule, FailurePolicy, Flow, RankLink};
use crate::stop::StopReason::{Converged, Halted, Reshape};
use crate::CoreError;
use msplit_comm::message::Message;
use std::time::Duration;

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

/// Idle backoff of a free-running rank that is locally stable and received
/// no fresh data (avoids flooding the network with identical slices).
const IDLE_BACKOFF: Duration = Duration::from_micros(100);

/// Outcome of one non-blocking poll.
#[derive(Debug)]
pub(crate) enum Poll<T> {
    /// Finished.
    Ready(T),
    /// Not finished: poll again at `wake_at` (time since the rank started),
    /// or as soon as a message arrives if `on_message`.  A `wake_at` that
    /// is not in the future asks to be polled again at once.
    Pending { wake_at: Duration, on_message: bool },
}

/// Ingests a data frame of `iteration` or earlier, marking its slice
/// delivered (slot order = `senders`) when the stamp is the current
/// iteration's.
fn deliver(
    pending: &mut [bool],
    senders: &[usize],
    engine: &mut RankEngine,
    msg: Message,
    iteration: u64,
) {
    if let Some((from, stamp)) = data_meta(&msg) {
        if stamp == iteration {
            if let Some(slot) = senders.iter().position(|&s| s == from) {
                pending[slot] = false;
            }
        }
    }
    engine.ingest(msg);
}

fn data_meta(msg: &Message) -> Option<(usize, u64)> {
    match msg {
        Message::Solution {
            from, iteration, ..
        } => Some((*from, *iteration)),
        _ => None,
    }
}

/// Barrier-equivalent progress: after each step, wait until every dependency
/// slice stamped with the current iteration has arrived and the convergence
/// decision is known.  Slices stamped with a *future* iteration — a fast peer
/// that already received the continue decision may deliver its next slice
/// early — are parked until the wait of the iteration they belong to, which
/// is what keeps the lockstep iterates identical over asynchronous-delivery
/// transports (TCP).
pub(crate) struct Lockstep {
    peer_timeout: Duration,
    failure: FailurePolicy,
    /// Dependency slices still missing in the current wait (slot order =
    /// `senders_to_me`), refilled at the start of every wait.
    pending: Vec<bool>,
    /// Data frames stamped with the next iteration, at most one per sender.
    deferred: Vec<Message>,
    /// The wait in progress: its peer deadline and its next heartbeat
    /// probe (the probe clock restarts at every wait).
    wait: Option<(Duration, Duration)>,
}

impl Lockstep {
    /// Builds the progress rule with the given overall wait deadline per
    /// iteration and failure response.
    pub(crate) fn new(peer_timeout: Duration, failure: FailurePolicy) -> Self {
        Lockstep {
            peer_timeout,
            failure,
            pending: Vec::new(),
            deferred: Vec::new(),
            wait: None,
        }
    }

    /// Post-step exchange: the barrier-equivalent wait for the dependency
    /// slices of `iteration` and the convergence decision of `votes`.
    pub(super) fn exchange(
        &mut self,
        engine: &mut RankEngine,
        link: &mut RankLink,
        votes: &mut TreeVotes,
        iteration: u64,
        now: Duration,
    ) -> Result<Poll<Flow>, CoreError> {
        let senders = link.senders_to_me();
        if self.wait.is_none() {
            self.pending.clear();
            self.pending.resize(senders.len(), true);
            // Replay the slices a fast peer delivered early for this
            // iteration; later ones stay parked.
            let early = |msg: &mut Message| data_meta(msg).is_some_and(|(_, it)| it <= iteration);
            for msg in self.deferred.extract_if(.., early) {
                deliver(&mut self.pending, senders, engine, msg, iteration);
            }
            self.wait = Some((now + self.peer_timeout, now + self.failure.heartbeat()));
        }
        loop {
            let (deadline, probe_at) = self.wait.expect("a wait is in progress");
            let waiting_slices = self.pending.iter().any(|&p| p) && !votes.skip_pending_data();
            if !votes.waiting(iteration) && !waiting_slices {
                self.wait = None;
                return votes.resolve(iteration, link).map(Poll::Ready);
            }
            if now >= probe_at {
                self.wait = Some((deadline, now + self.failure.heartbeat()));
                link.probe_liveness(self.failure.death_rule())?;
                if let Some(dead) = link.take_reshape() {
                    return Ok(Poll::Ready(Flow::Stop(Reshape(dead))));
                }
            }
            // Whatever is queued counts; the deadline only fails a wait
            // that has nothing left to read.
            let Some(msg) = link.try_recv().map_err(CoreError::Comm)? else {
                if now >= deadline {
                    return Err(CoreError::Distributed(format!(
                        "rank {}: timed out waiting for lockstep traffic of iteration {iteration}",
                        link.rank()
                    )));
                }
                return Ok(Poll::Pending {
                    wake_at: deadline.min(probe_at),
                    on_message: true,
                });
            };
            match data_meta(&msg) {
                Some((from, stamp)) if stamp > iteration => {
                    self.defer(from, stamp, iteration, msg, link)?
                }
                Some(_) => deliver(&mut self.pending, senders, engine, msg, iteration),
                None => match msg {
                    Message::Heartbeat { .. } => {}
                    Message::Reshape { dead_rank, .. } => {
                        return Ok(Poll::Ready(Flow::Stop(Reshape(dead_rank))));
                    }
                    msg => match votes.observe(&msg, link)? {
                        Flow::Continue => {}
                        flow => return Ok(Poll::Ready(flow)),
                    },
                },
            }
        }
    }

    /// Parks a data frame from `from` stamped `stamp`, beyond the current
    /// `iteration`.  A peer sends its next slice only after the decision of
    /// this iteration, which needs this rank's vote, so it can be at most one
    /// iteration ahead: one parked frame per sender, stamped `iteration + 1`.
    /// Anything else is a broken or hostile peer, and halts the solve.
    fn defer(
        &mut self,
        from: usize,
        stamp: u64,
        iteration: u64,
        msg: Message,
        link: &RankLink,
    ) -> Result<(), CoreError> {
        let repeated = self
            .deferred
            .iter()
            .any(|parked| data_meta(parked).is_some_and(|(sender, _)| sender == from));
        if stamp - iteration > 1 || repeated {
            return Err(CoreError::Distributed(format!(
                "rank {}: lockstep data frame from rank {from} stamped {stamp} while waiting on \
                 iteration {iteration}; at most one frame per peer may run one iteration ahead",
                link.rank()
            )));
        }
        self.deferred.push(msg);
        Ok(())
    }
}

/// The idle backoff of a free-running rank.
#[derive(Clone, Copy)]
enum Backoff {
    /// Decided after a step, in a poll whose `now` was read before that
    /// step; it is timed from the next poll's reading.
    Due,
    /// Parked until this instant.
    Until(Duration),
}

/// A grace drain in progress: until `deadline`, a queued or arriving
/// [`Message::GlobalConverged`] (or a peer's [`Message::Reshape`]) wins.
#[derive(Clone, Copy)]
struct Drain {
    deadline: Duration,
    /// The peer death being adjudicated, or `None` for a received halt.
    death: Option<usize>,
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
pub(crate) struct FreeRunning {
    failure: FailurePolicy,
    /// Next heartbeat probe; the probe clock runs across sweeps.
    probe_at: Duration,
    /// The idle backoff in progress.
    backoff: Option<Backoff>,
    /// The grace drain in progress.
    drain: Option<Drain>,
    /// Deaths already adjudicated, in rank order.
    reported_dead: Vec<usize>,
}

impl FreeRunning {
    /// Builds the progress rule with the given failure response for detected
    /// peer deaths.
    pub(crate) fn new(failure: FailurePolicy) -> Self {
        FreeRunning {
            failure,
            probe_at: failure.heartbeat(),
            backoff: None,
            drain: None,
            reported_dead: Vec::new(),
        }
    }

    /// Starts a grace drain at `now` and runs its first poll.
    fn begin_drain(
        &mut self,
        link: &mut RankLink,
        grace: Duration,
        death: Option<usize>,
        now: Duration,
    ) -> Result<Poll<Flow>, CoreError> {
        self.drain = Some(Drain {
            deadline: now + grace,
            death,
        });
        self.poll_drain(link, now)
    }

    /// A halt or death racing a convergence or reshape broadcast: keep
    /// draining briefly so a queued or in-flight [`Message::GlobalConverged`]
    /// (or a peer's [`Message::Reshape`], which names the rank that
    /// *actually* died) wins — this is what keeps halt handling race-free
    /// when a converged or reshaping peer has already exited.  When the
    /// grace expires, a halt halts and a death gets the failure response.
    fn poll_drain(&mut self, link: &mut RankLink, now: Duration) -> Result<Poll<Flow>, CoreError> {
        let drain = self.drain.expect("a drain is in progress");
        // Every outcome of a drain ends the run; whatever is queued counts,
        // and the grace expires once nothing is left to read.
        loop {
            return match link.try_recv() {
                Ok(Some(Message::GlobalConverged { .. })) => Ok(Poll::Ready(Flow::Stop(Converged))),
                // A peer already adjudicated this death and told us who it
                // was — its notice beats our own guess, which may name a
                // survivor that merely exited first while reshaping.
                Ok(Some(Message::Reshape { dead_rank, .. })) => {
                    Ok(Poll::Ready(Flow::Stop(Reshape(dead_rank))))
                }
                Ok(Some(_)) => continue,
                Ok(None) if now < drain.deadline => Ok(Poll::Pending {
                    wake_at: drain.deadline,
                    on_message: true,
                }),
                Ok(None) | Err(_) => break,
            };
        }
        let Some(first) = drain.death else {
            return Ok(Poll::Ready(Flow::Stop(Halted)));
        };
        match self.failure {
            FailurePolicy::HaltOnDeath { .. } => {
                link.broadcast_halt();
                Err(CoreError::Distributed(format!(
                    "rank {}: peer rank {first} disconnected mid-solve with no convergence \
                     notice in flight; halted the run",
                    link.rank()
                )))
            }
            FailurePolicy::Redistribute { .. } => {
                // Tell the survivors who died before exiting, so they report
                // the same rank instead of blaming this rank's own exit.
                link.raise_reshape(first);
                Ok(Poll::Ready(Flow::Stop(Reshape(first))))
            }
        }
    }

    /// Adjudicates peers newly observed dead (by a probe or a tolerated
    /// send): a racing convergence notice wins, otherwise the failure policy
    /// decides between halting the run and requesting a reshape.
    fn handle_new_deaths(
        &mut self,
        link: &mut RankLink,
        now: Duration,
    ) -> Result<Poll<Flow>, CoreError> {
        // Deaths are never undone, so a longer dead set holds a new one.
        if link.dead_count() == self.reported_dead.len() {
            return Ok(Poll::Ready(Flow::Continue));
        }
        let dead = link.dead_ranks();
        let first = *dead
            .iter()
            .find(|r| !self.reported_dead.contains(r))
            .expect("a newly dead rank");
        self.reported_dead = dead;
        self.begin_drain(link, DEATH_GRACE, Some(first), now)
    }

    /// Pre-step intake: deliver whatever has arrived, data to the engine and
    /// control messages to `waves`.
    pub(super) fn collect(
        &mut self,
        engine: &mut RankEngine,
        link: &mut RankLink,
        waves: &mut ConfirmationWaves,
        now: Duration,
    ) -> Result<Poll<Flow>, CoreError> {
        if self.drain.is_some() {
            return self.poll_drain(link, now);
        }
        loop {
            let Some(msg) = link.try_recv().map_err(CoreError::Comm)? else {
                return Ok(Poll::Ready(Flow::Continue));
            };
            if data_meta(&msg).is_some() {
                engine.ingest(msg);
                continue;
            }
            match msg {
                Message::Heartbeat { .. } => {}
                Message::Reshape { dead_rank, .. } => {
                    return Ok(Poll::Ready(Flow::Stop(Reshape(dead_rank))));
                }
                msg => match waves.observe(&msg) {
                    Flow::Continue => {}
                    Flow::Stop(Halted) => return self.begin_drain(link, HALT_GRACE, None, now),
                    flow => return Ok(Poll::Ready(flow)),
                },
            }
        }
    }

    /// Post-step exchange: the idle backoff after a step that left this
    /// locally stable rank (`vote`) with nothing new, and the liveness
    /// checks.
    pub(super) fn exchange(
        &mut self,
        link: &mut RankLink,
        obs: &StepObservation,
        vote: bool,
        now: Duration,
    ) -> Result<Poll<Flow>, CoreError> {
        if self.drain.is_some() {
            return self.poll_drain(link, now);
        }
        if self.backoff.is_none() && vote && (!obs.fresh_data || obs.increment == 0.0) {
            // Locally stable and this step produced nothing new for the
            // peers — either nothing arrived, or the step left the iterate
            // unchanged (an increment of exactly `0.0`: the engine skipped a
            // step whose dependency values were bitwise unchanged, or a solve
            // landed on the same values).  A skipped step costs no assembly
            // and no solve, so without this pacing a stable rank would
            // re-send identical slices at network rate and its vote cadence
            // would outrun the data still in flight.  Yield briefly instead
            // of flooding the mesh — for the whole backoff after the step,
            // which may itself take longer than the backoff.
            self.backoff = Some(Backoff::Due);
            return Ok(Poll::Pending {
                wake_at: now,
                on_message: false,
            });
        }
        if let Some(backoff) = self.backoff {
            let until = match backoff {
                Backoff::Due => now + IDLE_BACKOFF,
                Backoff::Until(until) => until,
            };
            if now < until {
                self.backoff = Some(Backoff::Until(until));
                return Ok(Poll::Pending {
                    wake_at: until,
                    on_message: false,
                });
            }
            self.backoff = None;
        }
        if now >= self.probe_at {
            self.probe_at = now + self.failure.heartbeat();
            // Probe under Tolerate: a closed peer is only *marked* here; the
            // adjudication below decides whether the death is benign.
            link.probe_liveness(DeathRule::Tolerate)?;
        }
        self.handle_new_deaths(link, now)
    }
}
