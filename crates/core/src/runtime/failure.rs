//! Failure handling and the per-rank link: what a peer death means
//! ([`FailurePolicy`], [`DeathRule`]), how a run asks for a new band layout
//! ([`StopReason::Reshape`]), and the [`RankLink`] every rank sends through.

use crate::stop::StopReason;
use crate::CoreError;
use msplit_comm::message::Message;
use msplit_comm::transport::Transport;
use msplit_comm::CommError;
use std::time::Duration;

/// Control-flow outcome of one step of the rank loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep iterating.
    Continue,
    /// Stop the run for the given reason.
    Stop(StopReason),
}

/// What a send to a disconnected peer means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeathRule {
    /// Broadcast [`Message::Halt`] to the surviving peers and abort the run
    /// with a descriptive error — the lockstep failure response.
    Halt,
    /// Mark the peer dead and skip it — the free-running rule: a peer that
    /// reached global convergence exits while slower ranks still send to it,
    /// and the `GlobalConverged` it flushed on the way out is already queued
    /// or in flight (see [`super::ConfirmationWaves`]).
    Tolerate,
    /// Mark the peer dead, broadcast [`Message::Reshape`] to the survivors
    /// and surface [`StopReason::Reshape`] from the drive loop — the elastic
    /// failure response of [`FailurePolicy::Redistribute`].
    Reshape,
}

/// How the runtime reacts to a rank death observed mid-solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
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
    /// [`StopReason::Reshape`] naming the dead rank so the launcher can re-derive
    /// band ownership over the survivors and resume from the latest
    /// checkpoints instead of failing the job.
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
    pub(super) fn death_rule(self) -> DeathRule {
        match self {
            FailurePolicy::HaltOnDeath { .. } => DeathRule::Halt,
            FailurePolicy::Redistribute { .. } => DeathRule::Reshape,
        }
    }

    /// The heartbeat probe interval.
    pub(super) fn heartbeat(self) -> Duration {
        match self {
            FailurePolicy::HaltOnDeath { heartbeat }
            | FailurePolicy::Redistribute { heartbeat } => heartbeat,
        }
    }
}

/// The per-rank communication surface the rank loop acts through: transport
/// endpoint, fan-out targets, expected senders and the dead-peer set.
pub(crate) struct RankLink<'a> {
    transport: &'a dyn Transport,
    rank: usize,
    world: usize,
    send_targets: &'a [usize],
    senders_to_me: &'a [usize],
    dead: Vec<bool>,
    /// The dead rank of a reshape request raised by a [`DeathRule::Reshape`]
    /// send failure, consumed by the drive loop via
    /// [`RankLink::take_reshape`].
    pending_reshape: Option<usize>,
    /// What the blocking executor's last wait received, handed out by the
    /// next [`RankLink::try_recv`] before the transport is asked again.
    parked: Option<Result<Message, CommError>>,
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
            parked: None,
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
    pub fn senders_to_me(&self) -> &'a [usize] {
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
                    DeathRule::Tolerate => Ok(()),
                    DeathRule::Halt => {
                        self.broadcast_halt();
                        Err(CoreError::Distributed(format!(
                            "rank {}: peer rank {to} disconnected mid-solve; halted the run",
                            self.rank
                        )))
                    }
                    DeathRule::Reshape => {
                        self.raise_reshape(to);
                        Ok(())
                    }
                }
            }
            Err(e) => Err(CoreError::Comm(e)),
        }
    }

    /// Records a reshape request for the death of `dead_rank` and announces
    /// it to the surviving peers (best effort, first request wins).
    pub(super) fn raise_reshape(&mut self, dead_rank: usize) {
        if self.pending_reshape.is_some() {
            return;
        }
        self.pending_reshape = Some(dead_rank);
        let note = Message::Reshape {
            from: self.rank,
            dead_rank,
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
    /// liveness probe under [`DeathRule::Reshape`], returning the dead rank.
    pub fn take_reshape(&mut self) -> Option<usize> {
        self.pending_reshape.take()
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
    pub(super) fn probe_liveness(&mut self, rule: DeathRule) -> Result<(), CoreError> {
        for to in 0..self.world {
            if to != self.rank && !self.dead[to] {
                let probe = Message::Heartbeat { from: self.rank };
                self.send_ruled(to, probe, rule)?;
            }
        }
        Ok(())
    }

    /// Non-blocking receive on this rank's inbox: a message (or error) the
    /// blocking executor's last wait parked comes first.
    pub fn try_recv(&mut self) -> Result<Option<Message>, CommError> {
        match self.parked.take() {
            Some(parked) => parked.map(Some),
            None => self.transport.try_recv(self.rank),
        }
    }

    /// Blocks until a message arrives or `timeout` passes, and parks what
    /// arrived for the next [`RankLink::try_recv`].  A timeout parks nothing.
    pub(super) fn wait(&mut self, timeout: Duration) {
        debug_assert!(self.parked.is_none(), "one parked message at a time");
        match self.transport.recv_timeout(self.rank, timeout) {
            Err(CommError::Timeout { .. }) => {}
            received => self.parked = Some(received),
        }
    }
}
