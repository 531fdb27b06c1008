//! Cost model mapping solver work onto grid resources.
//!
//! The benchmark harness runs the numerical algorithms at laptop scale and
//! replays their *work profile* (flops factored, flops per iteration, message
//! sizes, iteration counts) on the modelled clusters to produce the
//! wall-clock estimates reported in the tables.  This module provides the
//! elementary conversions: flops → seconds on a given machine, bytes →
//! seconds on a given route, and the memory feasibility check behind the
//! `nem` entries of Table 3.

use crate::cluster::Grid;
use crate::GridError;
#[cfg(msplit_serde)]
use serde::{Deserialize, Serialize};

/// Cost model for a given grid.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(msplit_serde, derive(Serialize, Deserialize))]
pub struct CostModel {
    /// The grid on which the work is replayed.
    pub grid: Grid,
    /// Fixed per-message software overhead (marshalling, MPI/Corba stack),
    /// in seconds.  The paper's Corba-based asynchronous version has a
    /// slightly higher per-message cost, which the drivers can reflect by
    /// scaling this value.
    pub per_message_overhead_s: f64,
    /// Fixed per-iteration overhead of the convergence detection protocol, in
    /// seconds per processor (grows with the processor count inside the
    /// drivers, matching the paper's observation that detection becomes
    /// expensive at 16–20 processors).
    pub convergence_detection_overhead_s: f64,
}

impl CostModel {
    /// Creates a cost model with default software overheads.
    pub fn new(grid: Grid) -> Self {
        CostModel {
            grid,
            per_message_overhead_s: 50e-6,
            convergence_detection_overhead_s: 200e-6,
        }
    }

    /// Seconds of computation for `flops` floating-point operations on the
    /// machine at `rank`.
    pub fn compute_seconds(&self, rank: usize, flops: u64) -> Result<f64, GridError> {
        Ok(self.grid.machine(rank)?.seconds_for_flops(flops))
    }

    /// Seconds to deliver one message of `bytes` from `from` to `to`
    /// (including the fixed software overhead).
    pub fn message_seconds(&self, from: usize, to: usize, bytes: usize) -> Result<f64, GridError> {
        Ok(self.per_message_overhead_s + self.grid.transfer_seconds(from, to, bytes)?)
    }

    /// Checks that a working set of `bytes` fits on the machine at `rank`.
    pub fn check_memory(&self, rank: usize, bytes: usize) -> Result<(), GridError> {
        let machine = self.grid.machine(rank)?;
        if machine.fits(bytes) {
            Ok(())
        } else {
            Err(GridError::OutOfMemory {
                rank,
                required_bytes: bytes,
                available_bytes: machine.usable_memory_bytes(),
            })
        }
    }

    /// Number of machines available.
    pub fn num_machines(&self) -> usize {
        self.grid.num_machines()
    }
}

/// Work profile of one processor's share of a solver execution, produced by
/// the numerical run and consumed by the replay.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(msplit_serde, derive(Serialize, Deserialize))]
pub struct WorkProfile {
    /// Flops spent in the one-off factorization.
    pub factor_flops: u64,
    /// Flops spent per outer iteration (local RHS update + triangular solves).
    pub per_iteration_flops: u64,
    /// Bytes of solution data sent to neighbours per outer iteration.
    pub per_iteration_send_bytes: usize,
    /// Number of messages sent per outer iteration.
    pub per_iteration_messages: usize,
    /// Peak working-set size in bytes (matrix blocks + factors + vectors).
    pub memory_bytes: usize,
}

impl WorkProfile {
    /// Merges another profile into this one (used when a processor owns
    /// several bands, Remark 2 of the paper).
    pub fn merge(&mut self, other: &WorkProfile) {
        self.factor_flops += other.factor_flops;
        self.per_iteration_flops += other.per_iteration_flops;
        self.per_iteration_send_bytes += other.per_iteration_send_bytes;
        self.per_iteration_messages += other.per_iteration_messages;
        self.memory_bytes += other.memory_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{cluster1, cluster3};

    #[test]
    fn compute_time_scales_with_machine_speed() {
        let model = CostModel::new(cluster3());
        // rank 0 is a 1.7 GHz machine, rank 5 a 2.6 GHz machine.
        let slow = model.compute_seconds(0, 1_000_000_000).unwrap();
        let fast = model.compute_seconds(5, 1_000_000_000).unwrap();
        assert!(slow > fast);
    }

    #[test]
    fn message_time_includes_overhead_and_route() {
        let model = CostModel::new(cluster3());
        let intra = model.message_seconds(0, 1, 80_000).unwrap();
        let inter = model.message_seconds(0, 8, 80_000).unwrap();
        assert!(intra > model.per_message_overhead_s);
        assert!(inter > intra);
    }

    #[test]
    fn memory_check_produces_out_of_memory() {
        let model = CostModel::new(cluster1());
        assert!(model.check_memory(0, 1024).is_ok());
        let err = model.check_memory(0, 1 << 30).unwrap_err();
        assert!(matches!(err, GridError::OutOfMemory { rank: 0, .. }));
    }

    #[test]
    fn unknown_rank_is_reported() {
        let model = CostModel::new(cluster1());
        assert!(model.compute_seconds(99, 1).is_err());
        assert!(model.message_seconds(0, 99, 1).is_err());
    }

    #[test]
    fn work_profile_merge_accumulates() {
        let mut a = WorkProfile {
            factor_flops: 100,
            per_iteration_flops: 10,
            per_iteration_send_bytes: 1000,
            per_iteration_messages: 2,
            memory_bytes: 4096,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.factor_flops, 200);
        assert_eq!(a.per_iteration_messages, 4);
        assert_eq!(a.memory_bytes, 8192);
    }
}
