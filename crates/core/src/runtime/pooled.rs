//! The in-process synchronous loop: every band's [`RankEngine`] stepped in
//! lockstep on the `rayon` pool, halos copied between the engines in memory.
//!
//! Inside one process, Algorithm 1's synchronous iteration is a fork-join:
//! all bands solve their splitting (fork), then the halos move and the run
//! agrees on convergence (join).  This loop does exactly that, with no
//! thread spawned and no message built:
//!
//! 1. step every engine as one parallel loop on the pool (on an
//!    `msplit-engine` worker the loop runs inline, as every loop there does);
//! 2. read the step results in part order, the first error winning;
//! 3. AND the local votes — what [`super::TreeVotes`] decides;
//! 4. unless the run stops here (converged or out of budget), copy each
//!    band's iterate into each send target's halo, stamped with the
//!    iteration a [`msplit_comm::message::Message::Solution`] would carry.
//!
//! The engines, the pooled workspaces and the local vote
//! ([`super::drive::lockstep_vote`]) are the threaded adapter's own, and the
//! lockstep wait makes every rank of the threaded adapter step on exactly the
//! previous iteration's slices.  So the stopping iteration and every bit of
//! `x` are the threaded adapter's, which `tests/driver_equivalence.rs` pins.

use super::drive::lockstep_vote;
use super::engine::RankEngine;
use super::threaded::part_report;
use super::vote::{IncrementVote, LocalVote, StaleSweepGuard};
use crate::driver_common::IterationWorkspace;
use crate::prepared::PreparedSystem;
use crate::solver::SolveOutcome;
use crate::stop::{Stop, StopReason};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use rayon::prelude::*;
use std::time::Instant;

/// One band of the loop: its engine, its local vote and what its latest
/// step produced.
struct Lane<'a> {
    engine: RankEngine<'a>,
    vote: StaleSweepGuard<IncrementVote>,
    /// The local vote of the latest step, or its error.
    voted: Result<bool, CoreError>,
    /// The increment the latest step's vote judged.
    last_increment: f64,
}

impl Lane<'_> {
    fn step(&mut self) {
        self.voted = self.engine.step().map(|obs| {
            self.last_increment = self.vote.effective_increment(&obs);
            self.vote.vote(&obs)
        });
    }
}

/// The sender and the receiver of one halo copy (`from != to`).
fn sender_and_receiver<T>(items: &mut [T], from: usize, to: usize) -> (&T, &mut T) {
    if from < to {
        let (low, high) = items.split_at_mut(to);
        (&low[from], &mut high[0])
    } else {
        let (low, high) = items.split_at_mut(from);
        (&high[0], &mut low[to])
    }
}

/// Synchronous solve of one right-hand side over a prepared system, in the
/// calling thread and on the pool; `workspaces` supplies one pooled
/// [`IterationWorkspace`] per part.
pub(crate) fn run_single_pooled(
    system: &PreparedSystem,
    rhs: &[f64],
    workspaces: &mut [IterationWorkspace],
    start: Instant,
) -> Result<SolveOutcome, CoreError> {
    let config = &system.config;
    debug_assert_eq!(workspaces.len(), system.num_parts());
    let mut lanes: Vec<Lane> = workspaces
        .iter_mut()
        .enumerate()
        .map(|(part, ws)| Lane {
            engine: RankEngine::single(
                &system.partition,
                &system.blocks[part],
                &rhs[system.partition.extended_range(part)],
                system.factors[part].as_ref(),
                config.weighting,
                ws,
            ),
            vote: lockstep_vote(config.tolerance),
            voted: Ok(false),
            last_increment: f64::INFINITY,
        })
        .collect();

    // The one place this loop decides why it stopped: the budget, unless
    // every lane voted converged first.
    let mut iterations = 0u64;
    let mut reason = StopReason::BudgetExhausted;
    while iterations < config.max_iterations {
        lanes.par_iter_mut().for_each(Lane::step);
        iterations += 1;
        let mut all_voted = true;
        for lane in &mut lanes {
            all_voted &= std::mem::replace(&mut lane.voted, Ok(false))?;
        }
        if all_voted {
            reason = StopReason::Converged;
            break;
        }
        if iterations == config.max_iterations {
            break;
        }
        for (from, targets) in system.send_targets.iter().enumerate() {
            for &to in targets {
                let (sender, receiver) = sender_and_receiver(&mut lanes, from, to);
                receiver.engine.ingest_peer(&sender.engine);
            }
        }
    }

    let wall_seconds = start.elapsed().as_secs_f64();
    let part_reports = lanes
        .iter()
        .enumerate()
        .map(|(part, lane)| {
            part_report(
                &system.blocks[part],
                system.factors[part].as_ref(),
                &lane.engine,
                iterations,
                &system.send_targets[part],
                1,
                wall_seconds,
            )
        })
        .collect();
    let norm = lanes
        .iter()
        .fold(0.0f64, |m, lane| m.max(lane.last_increment));
    // `assemble_into` over the prepared weight table is bitwise the threaded
    // adapter's `assemble`, without its allocation per unknown.
    let locals: Vec<&[f64]> = lanes.iter().map(|lane| lane.engine.x_local()).collect();
    let mut x = vec![0.0; system.order()];
    WeightingScheme::assemble_into(&system.partition, &system.weight_table, &locals, &mut x);
    Ok(SolveOutcome::new(
        x,
        Stop::new(reason, iterations, norm),
        part_reports,
        start.elapsed().as_secs_f64(),
        config.mode,
    ))
}
