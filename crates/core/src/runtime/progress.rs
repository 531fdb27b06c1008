//! Progress policies: when messages move between the transport and the
//! engine ([`Lockstep`] barrier-equivalent waits, [`FreeRunning`] drains).

use super::convergence::ConvergencePolicy;
use super::engine::{RankEngine, StepObservation};
use super::failure::{DeathRule, FailurePolicy, Flow, RankLink};
use crate::CoreError;
use msplit_comm::message::Message;
use msplit_comm::CommError;
use std::time::{Duration, Instant};

/// Poll granularity of blocking lockstep waits.
const WAIT_SLICE: Duration = Duration::from_millis(100);

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
                            return Ok(Flow::Reshape(dead_rank));
                        }
                        msg => match conv.observe(&msg, link)? {
                            Flow::Continue => {}
                            flow => return Ok(flow),
                        },
                    },
                },
                Err(CommError::Timeout { .. }) => {
                    if last_probe.elapsed() >= self.failure.heartbeat() {
                        last_probe = Instant::now();
                        link.probe_liveness(self.failure.death_rule())?;
                        if let Some(dead) = link.take_reshape() {
                            return Ok(Flow::Reshape(dead));
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
                Ok(Message::Reshape { dead_rank, .. }) => return Flow::Reshape(dead_rank),
                Ok(_) => continue,
                Err(_) => return Flow::Halted,
            }
        }
    }

    /// Adjudicates peers newly observed dead (by a probe or a tolerated
    /// send): a racing convergence notice wins, otherwise the failure policy
    /// decides between halting the run and requesting a reshape.
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
            Flow::Reshape(dead) => return Ok(Flow::Reshape(dead)),
            _ => {}
        }
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
                Ok(Flow::Reshape(first))
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
                                return Ok(Flow::Reshape(dead_rank));
                            }
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
        if self.last_probe.elapsed() >= self.failure.heartbeat() {
            self.last_probe = Instant::now();
            // Probe under Tolerate: a closed peer is only *marked* here; the
            // adjudication below decides whether the death is benign.
            link.probe_liveness(DeathRule::Tolerate)?;
        }
        self.handle_new_deaths(link)
    }
}
