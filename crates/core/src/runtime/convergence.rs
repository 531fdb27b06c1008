//! Convergence protocols: how local votes become a global decision, one per
//! execution mode — [`TreeVotes`] for lockstep runs, [`ConfirmationWaves`]
//! for free-running ones.

use super::failure::{DeathRule, FailurePolicy, Flow, RankLink};
use crate::stop::StopReason::{Converged, Halted};
use crate::CoreError;
use msplit_comm::message::Message;

/// How often (in iterations) a free-running rank re-sends an unchanged
/// *not-converged* vote to the coordinator (liveness only; converged votes
/// re-send every iteration because confirmation waves advance on them).
const VOTE_REFRESH_ITERATIONS: u64 = 25;

/// Fan-in of the vote tree of the synchronous detection protocol.  Fixed
/// rather than configurable: up to `VOTE_TREE_ARITY + 1` ranks — every world
/// the paper's clusters use — the root's children are *all* other ranks,
/// which is the flat two-hop vote/decision exchange; beyond that the root
/// handles at most `2 · VOTE_TREE_ARITY` control messages per decision at
/// any `P` instead of `2 · (P − 1)`.
pub const VOTE_TREE_ARITY: usize = 16;

/// Per-iteration vote collection — the message-based equivalent of the
/// barrier + allreduce the paper's MPI implementation used, and the one
/// synchronous detection protocol.  Votes aggregate up a reduction tree
/// rooted at rank 0 ([`Message::VoteAggregate`]) and the AND decision
/// broadcasts back down the same tree ([`Message::ConvergenceVote`]); the
/// vote wait *is* the barrier and the decision broadcast *is* the allreduce,
/// so the iterates are identical over any transport.  Flat centralized voting
/// is the special case of a root whose children are every other rank
/// (fan-in `P − 1`).
///
/// Every rank forwards the decision to its children only in
/// [`TreeVotes::resolve`] — after its own wait loop fully completed —
/// so no iteration-`i+1` traffic can reach a node whose current iteration is
/// still `i`.  That ordering invariant is what makes the iterates **bitwise
/// identical** at every fan-in on the same schedule
/// (`tests/convergence_scale.rs`).
pub(crate) struct TreeVotes {
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
    /// Builds the protocol for `rank` in a `world`-rank run with the
    /// production fan-in, [`VOTE_TREE_ARITY`].
    pub(crate) fn new(rank: usize, world: usize, failure: FailurePolicy) -> Self {
        Self::with_arity(rank, world, VOTE_TREE_ARITY, failure)
    }

    /// [`TreeVotes::new`] with an explicit fan-in (clamped to at least 2).
    /// Kept only so the scale simulator can compare fan-ins — the bitwise
    /// proptests and the coordinator-load gate; every driver uses `new`.
    pub(crate) fn with_arity(
        rank: usize,
        world: usize,
        arity: usize,
        failure: FailurePolicy,
    ) -> Self {
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

    /// The dead-peer rule of the lockstep failure response (see
    /// [`DeathRule`]).
    pub(super) fn death_rule(&self) -> DeathRule {
        self.failure.death_rule()
    }

    /// Sends this rank's completed subtree aggregate to its parent.
    fn send_up(&self, iteration: u64, link: &mut RankLink) -> Result<(), CoreError> {
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
        &self,
        iteration: u64,
        decision: bool,
        link: &mut RankLink,
    ) -> Result<(), CoreError> {
        let note = Message::ConvergenceVote {
            from: self.rank,
            iteration,
            converged: decision,
        };
        for &child in &self.children {
            link.send_ruled(child, note.clone(), self.death_rule())?;
        }
        Ok(())
    }

    /// Submits this rank's local vote for `iteration`.
    pub(super) fn submit(
        &mut self,
        iteration: u64,
        vote: bool,
        link: &mut RankLink,
    ) -> Result<(), CoreError> {
        self.current = iteration;
        self.decision = None;
        self.agg = vote;
        self.agg_count = 1;
        self.pending_children = self.children.len();
        if self.pending_children == 0 {
            // A leaf's subtree is itself: its aggregate goes up immediately.
            self.send_up(iteration, link)?;
        }
        Ok(())
    }

    /// Observes an inbound control message.
    pub(super) fn observe(
        &mut self,
        msg: &Message,
        link: &mut RankLink,
    ) -> Result<Flow, CoreError> {
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
            Message::GlobalConverged { .. } => Ok(Flow::Stop(Converged)),
            Message::Halt => Ok(Flow::Stop(Halted)),
            _ => Ok(Flow::Continue),
        }
    }

    /// Whether the decision for `iteration` is still unknown.
    pub(super) fn waiting(&self, iteration: u64) -> bool {
        debug_assert_eq!(iteration, self.current);
        if self.is_root() {
            self.pending_children > 0
        } else {
            // The parent's decision can only arrive after this rank's own
            // aggregate went up, so it subsumes the child wait.
            self.decision.is_none()
        }
    }

    /// Whether a known decision makes the remaining dependency slices of the
    /// current iteration irrelevant (a converged decision does).
    pub(super) fn skip_pending_data(&self) -> bool {
        !self.is_root() && self.decision == Some(true)
    }

    /// Resolves `iteration` once [`TreeVotes::waiting`] is false: forwards
    /// the decision to the children and stops on a converged one.
    pub(super) fn resolve(
        &mut self,
        iteration: u64,
        link: &mut RankLink,
    ) -> Result<Flow, CoreError> {
        let decision = if self.is_root() {
            // Every subtree reported: the AND over all `world` votes.
            debug_assert_eq!(self.agg_count, self.world as u64);
            self.agg
        } else {
            // `waiting` held the exchange loop until the parent's decision
            // arrived.
            self.decision.unwrap_or(false)
        };
        // Forwarding *here* — after the wait loop fully completed — keeps
        // children from advancing while this node still waits on iteration
        // traffic.
        self.send_down(iteration, decision, link)?;
        Ok(if decision {
            Flow::Stop(Converged)
        } else {
            Flow::Continue
        })
    }
}

/// Coordinator-side vote board of the confirmation-wave protocol: global
/// convergence is declared only after every rank has re-sent a "converged"
/// vote `required` times *after* the all-converged state was first observed,
/// and any "not converged" vote resets the pending waves (the decentralized
/// detection scheme the paper cites, with rank 0 as coordinator).
#[derive(Debug)]
pub(crate) struct VoteBoard {
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
    pub(crate) fn new(world: usize, required: u64) -> Self {
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
    pub(crate) fn record(&mut self, from: usize, converged: bool) -> bool {
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
}

/// Free-running confirmation-wave convergence: peers send votes to rank 0 on
/// verdict changes (refreshed periodically), rank 0 runs a [`VoteBoard`] and
/// broadcasts [`Message::GlobalConverged`] once the configured number of
/// waves completes.
///
/// This protocol owns the converged-peer-exit rule ([`DeathRule::Tolerate`]):
/// a rank that reached global convergence exits while slower ranks are still
/// sending to it.  That race is benign — the `GlobalConverged` it flushed on
/// the way out is already queued or in flight — so a disconnected peer is
/// skipped rather than fatal, and [`Message::Halt`] handling is idempotent: a
/// halt racing a convergence broadcast never turns a converged run into a
/// failed one (see the grace drain of `FreeRunning`).
pub(crate) struct ConfirmationWaves {
    rank: usize,
    world: usize,
    /// Coordinator state (rank 0 only).
    board: Option<VoteBoard>,
    /// Coordinator: votes observed since the last sweep, folded into the
    /// board in one batch per [`ConfirmationWaves::submit`].  Observing a
    /// vote is then a single push instead of board work per message, so a
    /// coordinator drowning in votes at high rank counts does O(votes)
    /// buffering while it drains its inbox and adjudicates once per sweep.
    pending_votes: Vec<(usize, bool)>,
    last_vote_sent: Option<bool>,
}

impl ConfirmationWaves {
    /// Builds the protocol for `rank`; `confirmations` is the number of
    /// complete waves required before global convergence is declared.
    pub(crate) fn new(rank: usize, world: usize, confirmations: u64) -> Self {
        ConfirmationWaves {
            rank,
            world,
            board: (rank == 0).then(|| VoteBoard::new(world, confirmations)),
            pending_votes: Vec::new(),
            last_vote_sent: None,
        }
    }

    fn broadcast_converged(&self, iteration: u64, link: &mut RankLink) -> Result<Flow, CoreError> {
        let note = Message::GlobalConverged { iteration };
        for to in 1..self.world {
            link.send_ruled(to, note.clone(), DeathRule::Tolerate)?;
        }
        Ok(Flow::Stop(Converged))
    }

    /// Submits this rank's local vote for `iteration`; the coordinator
    /// adjudicates here and stops on a latched board.
    pub(super) fn submit(
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

    /// Observes an inbound control message.
    pub(super) fn observe(&mut self, msg: &Message) -> Flow {
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
                Flow::Continue
            }
            Message::GlobalConverged { .. } => Flow::Stop(Converged),
            Message::Halt => Flow::Stop(Halted),
            _ => Flow::Continue,
        }
    }
}
