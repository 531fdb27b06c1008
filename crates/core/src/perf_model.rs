//! Replay of multisplitting executions on the modelled clusters.
//!
//! The numerical solvers run at laptop scale; what the paper's tables report
//! is wall-clock time on the three physical clusters.  This module converts a
//! solve's *work profile* (per-processor factorization flops, per-iteration
//! flops, message sizes and iteration counts — all measured, not guessed)
//! into modelled wall-clock seconds on a [`CostModel`]:
//!
//! * **synchronous replay** — every iteration costs the slowest processor's
//!   computation, plus the slowest processor's message batch (synchronous
//!   sends are on the critical path), plus the convergence-detection
//!   reduction, which grows logarithmically with the processor count;
//! * **asynchronous replay** — communication is off the critical path; its
//!   effect is *data staleness*, modelled as an iteration-count inflation
//!   proportional to the ratio of the worst incoming link delay to the local
//!   iteration time (stale data slows contraction — the paper observes the
//!   asynchronous iteration count is "systematically greater").  The
//!   asynchronous convergence detection is decentralized and costs more per
//!   iteration as processors are added, which reproduces the poor 16–20
//!   processor behaviour of Table 1.

use crate::solver::PartReport;
use crate::CoreError;
use msplit_grid::perf::{CostModel, WorkProfile};

/// Scaling between the executed problem size and the paper's problem size.
///
/// Benchmarks run the numerics at a reduced `run_n` and report modelled times
/// for `target_n`; work quantities are scaled with the usual sparse-direct
/// growth laws (documented per method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemScaling {
    /// Order of the system actually executed.
    pub run_n: usize,
    /// Order of the system whose cost is being modelled (the paper's size).
    pub target_n: usize,
}

impl ProblemScaling {
    /// Identity scaling (run size == target size).
    pub fn identity(n: usize) -> Self {
        ProblemScaling {
            run_n: n,
            target_n: n,
        }
    }

    /// Ratio `target_n / run_n`.
    pub fn ratio(&self) -> f64 {
        self.target_n as f64 / self.run_n.max(1) as f64
    }

    /// Factorization flops of banded/sparse LU grow roughly like `n^1.5`.
    pub fn factor_flops_factor(&self) -> f64 {
        self.ratio().powf(1.5)
    }

    /// Per-iteration work (SpMV + triangular solves) grows linearly in `n`.
    pub fn linear_factor(&self) -> f64 {
        self.ratio()
    }

    /// Factor memory grows slightly super-linearly (fill-in).
    pub fn memory_factor(&self) -> f64 {
        self.ratio().powf(1.2)
    }

    /// Applies the scaling to a work profile.
    pub fn scale_profile(&self, profile: &WorkProfile) -> WorkProfile {
        WorkProfile {
            factor_flops: (profile.factor_flops as f64 * self.factor_flops_factor()) as u64,
            per_iteration_flops: (profile.per_iteration_flops as f64 * self.linear_factor()) as u64,
            per_iteration_send_bytes: (profile.per_iteration_send_bytes as f64
                * self.linear_factor()) as usize,
            per_iteration_messages: profile.per_iteration_messages,
            memory_bytes: (profile.memory_bytes as f64 * self.memory_factor()) as usize,
        }
    }
}

/// Result of replaying a run on a modelled cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Total modelled wall-clock seconds.
    pub total_seconds: f64,
    /// Modelled seconds of the (concurrent) factorization phase.
    pub factor_seconds: f64,
    /// Modelled seconds of the iteration phase.
    pub iteration_seconds: f64,
    /// Effective iteration count used by the model (inflated for async).
    pub effective_iterations: u64,
    /// Whether every processor's working set fits its machine.
    pub feasible: bool,
}

/// How much link-delay/compute imbalance inflates the asynchronous iteration
/// count.  The inflation is `coefficient * sqrt(delay / compute)`: stale data
/// slows contraction, but sub-linearly — the free-running iteration keeps
/// making progress with whatever data it has, which is exactly why the
/// asynchronous solver degrades less than the synchronous one when the
/// inter-site bandwidth collapses (Table 4 of the paper).
const ASYNC_STALENESS_COEFFICIENT: f64 = 0.5;

/// Replays a synchronous run.
pub fn replay_sync(
    reports: &[PartReport],
    send_targets: &[Vec<usize>],
    iterations: u64,
    model: &CostModel,
    scaling: ProblemScaling,
) -> Result<ReplayOutcome, CoreError> {
    replay(reports, send_targets, iterations, model, scaling, true)
}

/// Replays an asynchronous run.  `sync_iterations` is the iteration count a
/// synchronous execution needed; the model inflates it with the staleness
/// term.
pub fn replay_async(
    reports: &[PartReport],
    send_targets: &[Vec<usize>],
    sync_iterations: u64,
    model: &CostModel,
    scaling: ProblemScaling,
) -> Result<ReplayOutcome, CoreError> {
    replay(
        reports,
        send_targets,
        sync_iterations,
        model,
        scaling,
        false,
    )
}

fn replay(
    reports: &[PartReport],
    send_targets: &[Vec<usize>],
    iterations: u64,
    model: &CostModel,
    scaling: ProblemScaling,
    synchronous: bool,
) -> Result<ReplayOutcome, CoreError> {
    let p = reports.len();
    if p == 0 {
        return Err(CoreError::Decomposition(
            "cannot replay an empty run".to_string(),
        ));
    }
    if p > model.num_machines() {
        return Err(CoreError::Grid(msplit_grid::GridError::InvalidConfig(
            format!(
                "{p} processors required but the grid has {}",
                model.num_machines()
            ),
        )));
    }
    let profiles: Vec<WorkProfile> = reports
        .iter()
        .map(|r| scaling.scale_profile(&r.work_profile()))
        .collect();

    // Memory feasibility (per processor).
    let feasible = profiles
        .iter()
        .enumerate()
        .all(|(r, prof)| model.check_memory(r, prof.memory_bytes).is_ok());

    // Factorization: all processors factor concurrently; the slowest bounds
    // the phase (Remark 4: done once, on the smaller local blocks).
    let mut factor_seconds = 0.0f64;
    for (r, prof) in profiles.iter().enumerate() {
        let t = model.compute_seconds(r, prof.factor_flops)?;
        factor_seconds = factor_seconds.max(t);
    }

    // Per-iteration computation and communication per processor.
    let mut compute: Vec<f64> = Vec::with_capacity(p);
    let mut comm: Vec<f64> = Vec::with_capacity(p);
    for (r, prof) in profiles.iter().enumerate() {
        compute.push(model.compute_seconds(r, prof.per_iteration_flops)?);
        let targets = send_targets.get(r).map(Vec::as_slice).unwrap_or(&[]);
        let bytes_per_msg = if targets.is_empty() {
            0
        } else {
            prof.per_iteration_send_bytes / targets.len().max(1)
        };
        let mut t_comm = 0.0;
        for &dest in targets {
            if dest < model.num_machines() {
                t_comm += model.message_seconds(r, dest, bytes_per_msg)?;
            }
        }
        comm.push(t_comm);
    }
    let max_compute = compute.iter().cloned().fold(0.0, f64::max);
    let max_comm = comm.iter().cloned().fold(0.0, f64::max);

    let (iteration_seconds, effective_iterations) = if synchronous {
        // Lockstep: slowest compute + slowest message batch + detection.
        let detection = model.convergence_detection_overhead_s * (p as f64).log2().max(1.0).ceil();
        let per_iter = max_compute + max_comm + detection;
        (per_iter * iterations as f64, iterations)
    } else {
        // Free running: communication is overlapped; stale data inflates the
        // iteration count, decentralized detection costs grow with p.
        let detection = model.convergence_detection_overhead_s * p as f64;
        let staleness = if max_compute > 0.0 {
            ASYNC_STALENESS_COEFFICIENT * (max_comm / max_compute).sqrt()
        } else {
            0.0
        };
        let inflated = ((iterations as f64) * (1.0 + staleness)).ceil() as u64;
        let per_iter = max_compute + detection;
        (per_iter * inflated as f64, inflated)
    };

    Ok(ReplayOutcome {
        total_seconds: factor_seconds + iteration_seconds,
        factor_seconds,
        iteration_seconds,
        effective_iterations,
        feasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplit_direct::FactorStats;
    use msplit_grid::cluster::{cluster1, cluster3};

    fn report(part: usize, factor_flops: u64, iter_flops: u64, bytes: usize) -> PartReport {
        PartReport {
            part,
            factor_stats: FactorStats {
                n: 100,
                nnz_a: 500,
                nnz_l: 700,
                nnz_u: 700,
                flops: factor_flops,
                symbolic_edges: 0,
                factor_seconds: 0.0,
            },
            iterations: 20,
            bytes_sent_per_iteration: bytes,
            messages_per_iteration: 2,
            flops_per_iteration: iter_flops,
            memory_bytes: 1 << 20,
            wall_seconds: 0.1,
            solve_path: crate::runtime::SolvePathStats::default(),
        }
    }

    fn chain_targets(p: usize) -> Vec<Vec<usize>> {
        (0..p)
            .map(|l| {
                let mut t = Vec::new();
                if l > 0 {
                    t.push(l - 1);
                }
                if l + 1 < p {
                    t.push(l + 1);
                }
                t
            })
            .collect()
    }

    #[test]
    fn scaling_factors_behave() {
        let s = ProblemScaling {
            run_n: 1_000,
            target_n: 100_000,
        };
        assert!((s.ratio() - 100.0).abs() < 1e-12);
        assert!(s.factor_flops_factor() > s.linear_factor());
        assert!(s.memory_factor() > s.linear_factor());
        let id = ProblemScaling::identity(500);
        assert_eq!(id.linear_factor(), 1.0);
        let prof = WorkProfile {
            factor_flops: 1000,
            per_iteration_flops: 100,
            per_iteration_send_bytes: 64,
            per_iteration_messages: 2,
            memory_bytes: 1024,
        };
        let scaled = s.scale_profile(&prof);
        assert_eq!(scaled.per_iteration_flops, 100 * 100);
        assert_eq!(scaled.per_iteration_messages, 2);
        assert!(scaled.factor_flops > 100 * 1000);
    }

    #[test]
    fn sync_replay_accounts_factor_and_iterations() {
        let model = CostModel::new(cluster1().take_machines(4).unwrap());
        let reports: Vec<PartReport> = (0..4)
            .map(|l| report(l, 1_000_000, 50_000, 8_000))
            .collect();
        let out = replay_sync(
            &reports,
            &chain_targets(4),
            30,
            &model,
            ProblemScaling::identity(100),
        )
        .unwrap();
        assert!(out.feasible);
        assert!(out.factor_seconds > 0.0);
        assert!(out.iteration_seconds > 0.0);
        assert!((out.total_seconds - out.factor_seconds - out.iteration_seconds).abs() < 1e-12);
        assert_eq!(out.effective_iterations, 30);
    }

    #[test]
    fn async_replay_is_more_robust_to_slow_links() {
        // Same work, replayed on a LAN and on the two-site WAN: the sync
        // penalty for the WAN must exceed the async penalty.
        let reports: Vec<PartReport> = (0..10)
            .map(|l| report(l, 2_000_000, 80_000, 40_000))
            .collect();
        let targets = chain_targets(10);
        let scaling = ProblemScaling::identity(100);
        let lan = CostModel::new(cluster1().take_machines(10).unwrap());
        let wan = CostModel::new(cluster3());
        let sync_lan = replay_sync(&reports, &targets, 50, &lan, scaling).unwrap();
        let sync_wan = replay_sync(&reports, &targets, 50, &wan, scaling).unwrap();
        let async_lan = replay_async(&reports, &targets, 50, &lan, scaling).unwrap();
        let async_wan = replay_async(&reports, &targets, 50, &wan, scaling).unwrap();
        let sync_penalty = sync_wan.total_seconds / sync_lan.total_seconds;
        let async_penalty = async_wan.total_seconds / async_lan.total_seconds;
        assert!(
            sync_penalty > async_penalty,
            "sync penalty {sync_penalty} should exceed async penalty {async_penalty}"
        );
        // Async uses at least as many iterations as sync.
        assert!(async_wan.effective_iterations >= 50);
    }

    #[test]
    fn perturbed_wan_hurts_sync_more_than_async() {
        let reports: Vec<PartReport> = (0..10)
            .map(|l| report(l, 2_000_000, 80_000, 40_000))
            .collect();
        let targets = chain_targets(10);
        let scaling = ProblemScaling::identity(100);
        let quiet = CostModel::new(cluster3());
        let loaded = CostModel::new(cluster3().with_perturbing_flows(10));
        let sync_ratio = replay_sync(&reports, &targets, 50, &loaded, scaling)
            .unwrap()
            .total_seconds
            / replay_sync(&reports, &targets, 50, &quiet, scaling)
                .unwrap()
                .total_seconds;
        let async_ratio = replay_async(&reports, &targets, 50, &loaded, scaling)
            .unwrap()
            .total_seconds
            / replay_async(&reports, &targets, 50, &quiet, scaling)
                .unwrap()
                .total_seconds;
        assert!(sync_ratio > 1.05);
        assert!(async_ratio < sync_ratio);
    }

    #[test]
    fn memory_scaling_triggers_infeasibility() {
        let model = CostModel::new(cluster1().take_machines(2).unwrap());
        let reports: Vec<PartReport> = (0..2).map(|l| report(l, 1_000, 100, 100)).collect();
        let out = replay_sync(
            &reports,
            &chain_targets(2),
            5,
            &model,
            ProblemScaling {
                run_n: 100,
                target_n: 100_000,
            },
        )
        .unwrap();
        // 1 MiB scaled by 1000^1.2 exceeds 256 MB machines.
        assert!(!out.feasible);
    }

    #[test]
    fn replay_rejects_bad_configurations() {
        let model = CostModel::new(cluster1().take_machines(2).unwrap());
        assert!(replay_sync(&[], &[], 1, &model, ProblemScaling::identity(1)).is_err());
        let reports: Vec<PartReport> = (0..3).map(|l| report(l, 1, 1, 1)).collect();
        assert!(replay_sync(
            &reports,
            &chain_targets(3),
            1,
            &model,
            ProblemScaling::identity(1)
        )
        .is_err());
    }
}
