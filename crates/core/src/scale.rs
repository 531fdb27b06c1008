//! In-process scale simulation of the convergence protocols.
//!
//! The paper's grid premise is hundreds of distant processors, but a real
//! 1000-rank deployment is not something CI can spawn.  This module runs the
//! *production* per-rank loop — the same `RankLoop` state machine, with the
//! same [`RankEngine`], local vote, detection protocol and progress rule
//! (the stack `mode_policies` builds) that the threaded adapter and the
//! distributed runtime drive over real transports — for hundreds of ranks
//! inside one process on
//! one thread, with a deterministic pseudo-random rank schedule, so protocol
//! behavior at P ∈ {256, 512, 1024} can be asserted in tests and gated in CI
//! (the `scale-sim` lane).
//!
//! The simulator replaces only the *transport, the scheduler and the clock*:
//!
//! * a [`SimTransport`] with per-rank in-memory inboxes that additionally
//!   counts control/data traffic and records the coordinator's peak inbox
//!   depth — the quantities the perf-report `convergence` table gates on;
//! * a sweep scheduler: each sweep visits the ranks in a seeded random
//!   order, and each visit is one `poll` of the rank's loop — at most one
//!   engine step, then as much of the exchange as the queued messages allow.
//!   A rank that asked to wake up later is skipped until then, unless it
//!   waits on messages and one is queued;
//! * a virtual clock: it stands still while any rank steps or any message
//!   moves, and when a whole sweep did neither, it jumps to the earliest
//!   wake-up a rank asked for (a free-running rank's idle backoff, a grace
//!   drain, a heartbeat probe or a lockstep peer deadline).
//!
//! Lockstep ([`Protocol::Tree`]) runs the barrier-equivalent wait, so every
//! seed produces the same bitwise solution — which is exactly what lets
//! tests pin the tree vote protocol bitwise across fan-ins at scale.  The
//! fan-in is explicit *here only* (the drivers always run
//! [`VOTE_TREE_ARITY`]), so flat voting — fan-in `ranks − 1`, the root
//! collects every vote — can be compared against the tree.  Free-running ([`Protocol::Waves`]) runs the
//! production drain-step-backoff loop with its confirmation waves.
//!
//! Entry point: [`simulate_ranks`] (also re-exported as
//! `runtime::simulate_ranks`), returning a [`ScaleReport`] with the solution,
//! per-rank iteration counts and the message-load counters.

use crate::decomposition::Decomposition;
use crate::runtime::{
    factorize_blocks, fresh_workspaces, mode_policies, receive_sources, EventLog, FailurePolicy,
    Poll, RankEngine, RankLink, RankLoop, Stack, TreeVotes, VOTE_TREE_ARITY,
};
use crate::solver::{ExecutionMode, MultisplittingConfig};
use crate::stop::{Stop, StopReason};
use crate::CoreError;
use msplit_comm::message::Message;
use msplit_comm::transport::Transport;
use msplit_comm::CommError;
use msplit_sparse::generators;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Lockstep peer deadline of a simulated rank, in virtual time: the clock
/// only gets there if the protocol deadlocks.
const SIM_PEER_TIMEOUT: Duration = Duration::from_secs(60);

/// Which convergence-detection protocol the simulated ranks run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Lockstep votes aggregated up a reduction tree (`TreeVotes`).
    Tree {
        /// Fan-in of the tree (clamped to at least 2): [`VOTE_TREE_ARITY`]
        /// is what every driver runs, `ranks − 1` is [`Protocol::flat`].
        arity: usize,
    },
    /// Free-running confirmation waves through rank 0 (`ConfirmationWaves`).
    Waves {
        /// Complete confirmation waves required to latch global convergence.
        confirmations: u64,
    },
}

impl Protocol {
    /// Flat lockstep voting among `ranks` ranks: the tree whose root has
    /// every other rank as a child, i.e. collects every vote itself.
    pub fn flat(ranks: usize) -> Self {
        Protocol::Tree { arity: ranks - 1 }
    }
}

/// Configuration of one [`simulate_ranks`] run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Number of simulated ranks (= bands).
    pub ranks: usize,
    /// Rows per band; the system order is `ranks * rows_per_rank`.
    pub rows_per_rank: usize,
    /// Convergence tolerance on the per-iteration increment.
    pub tolerance: f64,
    /// Outer-iteration budget per rank.
    pub max_iterations: u64,
    /// The convergence protocol under test.
    pub protocol: Protocol,
    /// Seed of the per-sweep rank-visit permutation.
    pub seed: u64,
    /// Record rank 0's `ingest`/`step` transitions into an [`EventLog`]
    /// (the CI failure artifact).
    pub record_events: bool,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            ranks: 256,
            rows_per_rank: 4,
            tolerance: 1e-8,
            max_iterations: 10_000,
            protocol: Protocol::Tree {
                arity: VOTE_TREE_ARITY,
            },
            seed: 1,
            record_events: false,
        }
    }
}

/// What one [`simulate_ranks`] run observed.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Number of simulated ranks.
    pub world: usize,
    /// The protocol that ran.
    pub protocol: Protocol,
    /// Why and when the run stopped, merged over the ranks (a rank the
    /// runaway backstop cut off counts as halted).
    pub stop: Stop,
    /// Outer iterations per rank.
    pub iterations_per_rank: Vec<u64>,
    /// The assembled solution.
    pub x: Vec<f64>,
    /// Cooperative sweeps the scheduler performed.
    pub sweeps: u64,
    /// Peak queued-message depth of rank 0's inbox.
    pub coordinator_inbox_peak: usize,
    /// Control messages received by rank 0.
    pub coordinator_control_in: u64,
    /// Control messages sent by rank 0.
    pub coordinator_control_out: u64,
    /// Control messages sent by all ranks.
    pub control_messages_total: u64,
    /// Data (solution-slice) messages sent by all ranks.
    pub data_messages_total: u64,
    /// Rank 0's recorded transition log, when
    /// [`ScaleConfig::record_events`] was set.
    pub event_log: Option<EventLog>,
}

impl ScaleReport {
    /// Control messages rank 0 handles (in + out) per convergence decision —
    /// the coordinator hot-spot metric.  For the lockstep family one decision
    /// happens per outer iteration; for the free-running family this is the
    /// per-iteration control load on rank 0.
    pub fn coordinator_msgs_per_decision(&self) -> f64 {
        let decisions = self.stop.iterations.max(1) as f64;
        (self.coordinator_control_in + self.coordinator_control_out) as f64 / decisions
    }

    /// Total messages (control + data) sent per outer iteration, summed over
    /// the ranks.
    pub fn messages_per_iteration(&self) -> f64 {
        let iterations = self.stop.iterations.max(1) as f64;
        (self.control_messages_total + self.data_messages_total) as f64 / iterations
    }

    /// Human-readable run summary (the `scale-sim` CI lane uploads this as
    /// its failure artifact).
    pub fn event_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "protocol={:?} world={} stop={:?} iterations={} sweeps={}\n",
            self.protocol, self.world, self.stop.reason, self.stop.iterations, self.sweeps
        ));
        out.push_str(&format!(
            "coordinator: inbox_peak={} control_in={} control_out={} msgs_per_decision={:.2}\n",
            self.coordinator_inbox_peak,
            self.coordinator_control_in,
            self.coordinator_control_out,
            self.coordinator_msgs_per_decision()
        ));
        out.push_str(&format!(
            "traffic: control_total={} data_total={} messages_per_iteration={:.2}\n",
            self.control_messages_total,
            self.data_messages_total,
            self.messages_per_iteration()
        ));
        if let Some(log) = &self.event_log {
            out.push_str(&format!(
                "rank0 event log: {} transitions\n",
                log.events.len()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Simulated transport
// ---------------------------------------------------------------------------

/// One rank's in-memory inbox plus its receive-side counters.
struct Inbox {
    queue: VecDeque<Message>,
    peak: usize,
    control_in: u64,
}

/// Single-process transport with per-rank inboxes and traffic accounting.
///
/// `send` classifies each message as control (convergence-protocol frames)
/// or data (solution slices) and tracks the receiver's peak queue depth —
/// the "coordinator inbox depth" column of the perf-report `convergence`
/// table.  Receives never block: the simulator is single-threaded, so a
/// blocking receive could only deadlock; `recv`/`recv_timeout` return
/// [`CommError::Timeout`] on an empty inbox instead.
pub struct SimTransport {
    inboxes: Vec<Mutex<Inbox>>,
    control_out: Vec<AtomicU64>,
    data_out: Vec<AtomicU64>,
}

impl SimTransport {
    /// Transport connecting `world` simulated ranks.
    pub fn new(world: usize) -> Self {
        SimTransport {
            inboxes: (0..world)
                .map(|_| {
                    Mutex::new(Inbox {
                        queue: VecDeque::new(),
                        peak: 0,
                        control_in: 0,
                    })
                })
                .collect(),
            control_out: (0..world).map(|_| AtomicU64::new(0)).collect(),
            data_out: (0..world).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn is_control(msg: &Message) -> bool {
        !matches!(msg, Message::Solution { .. })
    }

    /// Peak queued depth of `rank`'s inbox so far.
    pub fn inbox_peak(&self, rank: usize) -> usize {
        self.inboxes[rank].lock().expect("sim inbox poisoned").peak
    }

    /// Control messages received by `rank` so far.
    pub fn control_in(&self, rank: usize) -> u64 {
        self.inboxes[rank]
            .lock()
            .expect("sim inbox poisoned")
            .control_in
    }

    /// Control messages sent by `rank` so far.
    pub fn control_out(&self, rank: usize) -> u64 {
        self.control_out[rank].load(Ordering::Relaxed)
    }

    /// Data messages sent by `rank` so far.
    pub fn data_out(&self, rank: usize) -> u64 {
        self.data_out[rank].load(Ordering::Relaxed)
    }

    /// Messages (control and data) sent by all ranks so far.
    fn sent_total(&self) -> u64 {
        (0..self.inboxes.len())
            .map(|r| self.control_out(r) + self.data_out(r))
            .sum()
    }

    /// Whether `rank` has a message queued.
    fn has_mail(&self, rank: usize) -> bool {
        !self.inboxes[rank]
            .lock()
            .expect("sim inbox poisoned")
            .queue
            .is_empty()
    }
}

impl Transport for SimTransport {
    fn num_ranks(&self) -> usize {
        self.inboxes.len()
    }

    fn send(&self, from: usize, to: usize, msg: Message) -> Result<(), CommError> {
        if Self::is_control(&msg) {
            self.control_out[from].fetch_add(1, Ordering::Relaxed);
        } else {
            self.data_out[from].fetch_add(1, Ordering::Relaxed);
        }
        let mut inbox = self.inboxes[to].lock().expect("sim inbox poisoned");
        if Self::is_control(&msg) {
            inbox.control_in += 1;
        }
        inbox.queue.push_back(msg);
        inbox.peak = inbox.peak.max(inbox.queue.len());
        Ok(())
    }

    fn recv(&self, rank: usize) -> Result<Message, CommError> {
        self.try_recv(rank)?.ok_or(CommError::Timeout { rank })
    }

    fn try_recv(&self, rank: usize) -> Result<Option<Message>, CommError> {
        Ok(self.inboxes[rank]
            .lock()
            .expect("sim inbox poisoned")
            .queue
            .pop_front())
    }

    fn recv_timeout(&self, rank: usize, _timeout: Duration) -> Result<Message, CommError> {
        self.recv(rank)
    }
}

// ---------------------------------------------------------------------------
// Deterministic schedule
// ---------------------------------------------------------------------------

/// Minimal xorshift64 generator — `msplit-core` deliberately has no `rand`
/// dependency, and the schedule only needs reproducible permutations.
struct Xorshift64(u64);

impl Xorshift64 {
    fn new(seed: u64) -> Self {
        Xorshift64(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Fisher–Yates shuffle.
    fn shuffle(&mut self, slice: &mut [usize]) {
        for i in (1..slice.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs `config.ranks` production rank runtimes to convergence inside one
/// process and reports the outcome plus message-load counters.
///
/// The test system is the paper's banded model problem — a diagonally
/// dominant tridiagonal system of order `ranks × rows_per_rank` with the
/// known solution `x[i] = (i % 7)` — decomposed into one band per rank, so
/// convergence and the assembled solution can be asserted exactly.
pub fn simulate_ranks(config: &ScaleConfig) -> Result<ScaleReport, CoreError> {
    simulate(config).map(|(report, _)| report)
}

/// [`simulate_ranks`], plus the virtual time the run ended at.
fn simulate(config: &ScaleConfig) -> Result<(ScaleReport, Duration), CoreError> {
    if config.ranks < 2 {
        return Err(CoreError::Decomposition(
            "scale simulation needs at least 2 ranks".into(),
        ));
    }
    if config.rows_per_rank == 0 {
        return Err(CoreError::Decomposition(
            "scale simulation needs at least 1 row per rank".into(),
        ));
    }
    let world = config.ranks;
    let n = world * config.rows_per_rank;
    let a = generators::tridiagonal(n, 4.0, -1.0);
    let (_x_true, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
    let mut ms_config = MultisplittingConfig {
        parts: world,
        tolerance: config.tolerance,
        max_iterations: config.max_iterations,
        ..Default::default()
    };
    let mode = match config.protocol {
        Protocol::Tree { .. } => ExecutionMode::Synchronous,
        Protocol::Waves { confirmations } => {
            ms_config.async_confirmations = confirmations;
            ExecutionMode::Asynchronous
        }
    };
    let decomp = Decomposition::uniform(&a, &b, world, 0)?;
    let send_targets = decomp.send_targets();
    let senders = receive_sources(&send_targets);
    let (partition, blocks) = decomp.into_blocks();
    let factors = factorize_blocks(&blocks, &ms_config)?;
    let mut workspaces = fresh_workspaces(world);
    let transport = SimTransport::new(world);

    // Sends never fail over `SimTransport`, so the failure policy only sets
    // the heartbeat interval of the probes.
    let failure = FailurePolicy::default();
    let mut ranks: Vec<RankLoop> = blocks
        .iter()
        .zip(&factors)
        .zip(workspaces.iter_mut())
        .enumerate()
        .map(|(r, ((blk, factor), ws))| {
            let mut engine = RankEngine::single(
                &partition,
                blk,
                &blk.b_sub,
                factor.as_ref(),
                ms_config.weighting,
                ws,
            );
            if r == 0 && config.record_events {
                engine.record_events();
            }
            let link = RankLink::new(&transport, r, &send_targets[r], &senders[r]);
            let (vote, mut stack) =
                mode_policies(mode, &ms_config, r, world, SIM_PEER_TIMEOUT, failure);
            if let (Protocol::Tree { arity }, Stack::Lockstep(votes, _)) =
                (config.protocol, &mut stack)
            {
                *votes = TreeVotes::with_arity(r, world, arity, failure);
            }
            RankLoop::new(engine, link, (vote, stack), config.max_iterations, None)
        })
        .collect();

    let mut rng = Xorshift64::new(config.seed);
    let mut order: Vec<usize> = (0..world).collect();
    // Per rank: its stop once its loop finished, and the wake-up its last
    // poll asked for (never, once finished).
    let mut done: Vec<Option<Stop>> = vec![None; world];
    let mut wakes: Vec<(Duration, bool)> = vec![(Duration::ZERO, false); world];
    let mut now = Duration::ZERO;
    let mut sweeps = 0u64;
    // Generous runaway backstop: a healthy rank makes progress every sweep,
    // so a run that is going to converge does so in far fewer sweeps.
    let sweep_cap = config.max_iterations.saturating_mul(64).max(10_000);
    while done.iter().any(Option::is_none) && sweeps < sweep_cap {
        sweeps += 1;
        rng.shuffle(&mut order);
        let sent_before = transport.sent_total();
        let mut busy = false;
        for &r in &order {
            let (wake_at, on_message) = wakes[r];
            if wake_at > now && !(on_message && transport.has_mail(r)) {
                continue;
            }
            wakes[r] = match ranks[r].poll(now) {
                Poll::Ready(run) => {
                    done[r] = Some(run?);
                    (Duration::MAX, false)
                }
                Poll::Pending {
                    wake_at,
                    on_message,
                } => (wake_at, on_message),
            };
            busy |= wakes[r].0 <= now || done[r].is_some();
        }
        if !busy && transport.sent_total() == sent_before {
            // Nothing stepped, finished or moved a message: only time can
            // make progress now.
            now = wakes
                .iter()
                .map(|&(wake_at, _)| wake_at)
                .min()
                .unwrap_or(now);
        }
    }

    let iterations_per_rank: Vec<u64> = ranks.iter().map(|r| r.engine.iterations()).collect();
    // A rank the runaway backstop cut off counts as halted.
    let cut_off = |r: usize| Stop::new(StopReason::Halted, iterations_per_rank[r], f64::INFINITY);
    let stop = Stop::merge((0..world).map(|r| done[r].unwrap_or_else(|| cut_off(r))));
    let locals: Vec<Vec<f64>> = ranks.iter().map(|r| r.engine.x_local().to_vec()).collect();
    let event_log = ranks[0].engine.take_event_log();
    let x = ms_config.weighting.assemble(&partition, &locals);
    let control_messages_total: u64 = (0..world).map(|r| transport.control_out(r)).sum();
    let data_messages_total: u64 = (0..world).map(|r| transport.data_out(r)).sum();
    let report = ScaleReport {
        world,
        protocol: config.protocol,
        stop,
        iterations_per_rank,
        x,
        sweeps,
        coordinator_inbox_peak: transport.inbox_peak(0),
        coordinator_control_in: transport.control_in(0),
        coordinator_control_out: transport.control_out(0),
        control_messages_total,
        data_messages_total,
        event_log,
    };
    Ok((report, now))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(ranks: usize, protocol: Protocol) -> ScaleConfig {
        ScaleConfig {
            ranks,
            protocol,
            ..Default::default()
        }
    }

    fn max_err(x: &[f64]) -> f64 {
        x.iter()
            .enumerate()
            .fold(0.0f64, |m, (i, &v)| m.max((v - (i % 7) as f64).abs()))
    }

    #[test]
    fn lockstep_converges_at_64_ranks() {
        let report = simulate_ranks(&ScaleConfig {
            ranks: 64,
            ..Default::default()
        })
        .unwrap();
        assert!(report.stop.converged());
        assert!(max_err(&report.x) < 1e-6, "err {}", max_err(&report.x));
    }

    #[test]
    fn tree_matches_lockstep_bitwise_at_64_ranks() {
        let flat = simulate_ranks(&config(64, Protocol::flat(64))).unwrap();
        let tree = simulate_ranks(&config(64, Protocol::Tree { arity: 4 })).unwrap();
        assert!(tree.stop.converged());
        assert_eq!(flat.stop.iterations, tree.stop.iterations);
        assert_eq!(flat.x, tree.x, "tree iterates must be bitwise identical");
    }

    #[test]
    fn tree_cuts_coordinator_load() {
        let flat = simulate_ranks(&config(64, Protocol::flat(64))).unwrap();
        let tree = simulate_ranks(&config(64, Protocol::Tree { arity: 4 })).unwrap();
        // Flat: 2·(P−1) coordinator messages per decision; arity-4 tree: 8.
        assert!(
            flat.coordinator_msgs_per_decision() / tree.coordinator_msgs_per_decision() >= 4.0,
            "flat {:.1} vs tree {:.1}",
            flat.coordinator_msgs_per_decision(),
            tree.coordinator_msgs_per_decision()
        );
        assert!(tree.coordinator_inbox_peak <= flat.coordinator_inbox_peak);
        // The production fan-in bounds the root's load by 2·VOTE_TREE_ARITY.
        let production = simulate_ranks(&ScaleConfig {
            ranks: 64,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(
            production.coordinator_msgs_per_decision(),
            2.0 * VOTE_TREE_ARITY as f64
        );
    }

    #[test]
    fn waves_converge_at_64_ranks() {
        let waves = simulate_ranks(&config(64, Protocol::Waves { confirmations: 3 })).unwrap();
        assert!(waves.stop.converged());
        assert!(max_err(&waves.x) < 1e-6);
    }

    #[test]
    fn free_running_ranks_park_in_the_idle_backoff() {
        // The virtual clock moves only when every unfinished rank waits for
        // a future wake-up.  Lockstep ranks always have traffic to wait
        // for, so a converged lockstep run ends at virtual time zero; stable
        // free-running ranks park in the production idle backoff, and the
        // waves run cannot finish before the clock has jumped over at least
        // one backoff.
        let (lockstep, lockstep_clock) = simulate(&config(16, Protocol::flat(16))).unwrap();
        assert!(lockstep.stop.converged());
        assert_eq!(lockstep_clock, Duration::ZERO);
        let (waves, waves_clock) =
            simulate(&config(16, Protocol::Waves { confirmations: 3 })).unwrap();
        assert!(waves.stop.converged());
        assert!(max_err(&waves.x) < 1e-6);
        assert!(
            waves_clock >= Duration::from_micros(100),
            "no free-running rank ever parked: the clock ended at {waves_clock:?}"
        );
    }

    #[test]
    fn lockstep_is_schedule_independent() {
        let a = simulate_ranks(&ScaleConfig {
            ranks: 32,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let b = simulate_ranks(&ScaleConfig {
            ranks: 32,
            seed: 99,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(a.x, b.x, "the barrier makes lockstep schedule-independent");
        assert_eq!(a.stop.iterations, b.stop.iterations);
    }

    #[test]
    fn event_log_records_rank0_transitions() {
        let report = simulate_ranks(&ScaleConfig {
            ranks: 8,
            record_events: true,
            ..Default::default()
        })
        .unwrap();
        let log = report.event_log.as_ref().expect("recording was enabled");
        assert!(!log.events.is_empty());
        assert!(report.event_summary().contains("rank0 event log"));
    }
}
