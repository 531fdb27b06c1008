//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each function runs the *numerical* algorithms on a scaled-down instance of
//! the paper's workload (the scale is configurable; `--full` in the
//! `reproduce` binary runs the paper sizes), measures the real work performed
//! (flops, fill, iterations, message bytes), and replays that work on the
//! modelled cluster to obtain the wall-clock estimates reported in the
//! tables.  Absolute values therefore depend on the cost-model calibration,
//! but the *relationships* the paper emphasizes — who wins, by how much,
//! where the crossovers are — come from measured quantities.
//!
//! | Function | Paper artefact | Workload |
//! |---|---|---|
//! | [`table1`] | Table 1 | cage10-like on cluster1, 1–20 processors |
//! | [`table2`] | Table 2 | cage11-like on cluster1, 4–20 processors |
//! | [`table3`] | Table 3 | cage11/cluster2, cage12/cluster3, generated 500k/cluster3 |
//! | [`table4`] | Table 4 | generated 500k on cluster3 with 0–10 perturbing flows |
//! | [`figure3`] | Figure 3 | generated 100k (ρ≈1) on cluster3, overlap sweep |

use crate::baseline::{DistributedDirectBaseline, SequentialDirectBaseline};
use crate::driver_common::compute_send_targets;
use crate::perf_model::{replay_async, replay_sync, ProblemScaling, ReplayOutcome};
use crate::solver::{ExecutionMode, MultisplittingSolver, SolveOutcome};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_direct::SolverKind;
use msplit_grid::cluster::{cluster1, cluster2, cluster3, single_machine, Grid};
use msplit_grid::perf::CostModel;
use msplit_sparse::generators::{self, DiagDominantConfig};
use msplit_sparse::CsrMatrix;

/// Paper problem sizes.
pub mod paper_sizes {
    /// Order of cage10 (DNA electrophoresis model).
    pub const CAGE10: usize = 11_397;
    /// Order of cage11.
    pub const CAGE11: usize = 39_082;
    /// Order of cage12.
    pub const CAGE12: usize = 130_228;
    /// Order of the large generated diagonally dominant matrix.
    pub const GENERATED_LARGE: usize = 500_000;
    /// Order of the generated matrix used for the overlap study.
    pub const GENERATED_OVERLAP: usize = 100_000;
}

/// Configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Fraction of the paper's problem sizes actually executed (the measured
    /// work is then replayed at the executed size; memory feasibility is
    /// checked at the paper's size through [`ProblemScaling`]).
    pub scale: f64,
    /// Minimum executed problem size (guards against degenerate tiny runs).
    pub min_n: usize,
    /// Convergence tolerance (the paper uses 1e-8).
    pub tolerance: f64,
    /// Iteration budget for the multisplitting runs.
    pub max_iterations: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.05,
            min_n: 400,
            tolerance: 1e-8,
            max_iterations: 20_000,
        }
    }
}

impl ExperimentConfig {
    /// A configuration that executes the paper's full problem sizes.
    pub fn full_scale() -> Self {
        ExperimentConfig {
            scale: 1.0,
            ..Default::default()
        }
    }

    /// The executed size for a paper size.
    pub fn run_n(&self, paper_n: usize) -> usize {
        ((paper_n as f64 * self.scale) as usize).max(self.min_n.min(paper_n))
    }

    /// The scaling descriptor for a paper size.
    pub fn scaling(&self, paper_n: usize) -> ProblemScaling {
        ProblemScaling {
            run_n: self.run_n(paper_n),
            target_n: paper_n,
        }
    }
}

/// Formats a modelled time, using the paper's `nem` marker for infeasible
/// (not-enough-memory) runs and `-` for configurations that were not run.
pub fn format_seconds(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.2}"),
        None => "nem".to_string(),
    }
}

/// One row of the scalability tables (Tables 1 and 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityRow {
    /// Number of processors.
    pub processors: usize,
    /// Modelled seconds of the distributed direct baseline (`None` = nem).
    pub distributed_superlu: Option<f64>,
    /// Modelled seconds of the synchronous multisplitting-LU solver.
    pub sync_multisplitting: Option<f64>,
    /// Modelled seconds of the asynchronous multisplitting-LU solver.
    pub async_multisplitting: Option<f64>,
    /// Modelled seconds of the (concurrent) factorization step.
    pub factorization: Option<f64>,
    /// Synchronous outer-iteration count (measured).
    pub sync_iterations: u64,
}

impl std::fmt::Display for ScalabilityRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The paper's 1-processor row only reports the sequential direct
        // solver; the multisplitting columns are "not run" rather than "nem".
        let not_run = |v: Option<f64>| {
            if self.processors == 1 && v.is_none() {
                "-".to_string()
            } else {
                format_seconds(v)
            }
        };
        write!(
            f,
            "{:>4}  {:>12}  {:>12}  {:>12}  {:>12}",
            self.processors,
            format_seconds(self.distributed_superlu),
            not_run(self.sync_multisplitting),
            not_run(self.async_multisplitting),
            not_run(self.factorization),
        )
    }
}

/// One row of Table 3 (distant heterogeneous clusters).
#[derive(Debug, Clone, PartialEq)]
pub struct DistantClusterRow {
    /// Matrix name (cage11 / cage12 / generated 500000).
    pub matrix: String,
    /// Cluster configuration name.
    pub cluster: String,
    /// Modelled distributed-direct seconds (`None` = nem).
    pub distributed_superlu: Option<f64>,
    /// Modelled synchronous multisplitting seconds.
    pub sync_multisplitting: Option<f64>,
    /// Modelled asynchronous multisplitting seconds.
    pub async_multisplitting: Option<f64>,
    /// Modelled factorization seconds.
    pub factorization: Option<f64>,
}

impl std::fmt::Display for DistantClusterRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>16}  {:>9}  {:>12}  {:>12}  {:>12}  {:>12}",
            self.matrix,
            self.cluster,
            format_seconds(self.distributed_superlu),
            format_seconds(self.sync_multisplitting),
            format_seconds(self.async_multisplitting),
            format_seconds(self.factorization),
        )
    }
}

/// One row of Table 4 (impact of perturbing communications).
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbationRow {
    /// Number of perturbing background flows.
    pub flows: usize,
    /// Modelled distributed-direct seconds.
    pub distributed_superlu: Option<f64>,
    /// Modelled synchronous multisplitting seconds.
    pub sync_multisplitting: Option<f64>,
    /// Modelled asynchronous multisplitting seconds.
    pub async_multisplitting: Option<f64>,
}

impl std::fmt::Display for PerturbationRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>5}  {:>12}  {:>12}  {:>12}",
            self.flows,
            format_seconds(self.distributed_superlu),
            format_seconds(self.sync_multisplitting),
            format_seconds(self.async_multisplitting),
        )
    }
}

/// One point of Figure 3 (impact of the overlap size).
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapRow {
    /// Overlap size, expressed in the paper's (target) row units.
    pub overlap: usize,
    /// Modelled synchronous total seconds.
    pub sync_seconds: f64,
    /// Modelled asynchronous total seconds.
    pub async_seconds: f64,
    /// Modelled factorization seconds.
    pub factorization_seconds: f64,
    /// Synchronous outer-iteration count (measured).
    pub sync_iterations: u64,
}

impl std::fmt::Display for OverlapRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>6}  {:>10.3}  {:>10.3}  {:>10.3}  {:>8}",
            self.overlap,
            self.sync_seconds,
            self.async_seconds,
            self.factorization_seconds,
            self.sync_iterations,
        )
    }
}

/// A multisplitting run (synchronous numerics) replayed on a grid in both
/// modes.
struct GridRun {
    sync: ReplayOutcome,
    r#async: ReplayOutcome,
    outcome: SolveOutcome,
}

fn run_multisplitting_on_grid(
    a: &CsrMatrix,
    b: &[f64],
    grid: &Grid,
    parts: usize,
    overlap: usize,
    cfg: &ExperimentConfig,
    scaling: ProblemScaling,
) -> Result<GridRun, CoreError> {
    let speeds: Vec<f64> = grid.relative_speeds()[..parts].to_vec();
    let heterogeneous = speeds.iter().any(|&s| (s - 1.0).abs() > 1e-9);
    let mut builder = MultisplittingSolver::builder()
        .parts(parts)
        .overlap(overlap)
        .weighting(WeightingScheme::OwnerTakes)
        .solver_kind(SolverKind::SparseLu)
        .tolerance(cfg.tolerance)
        .max_iterations(cfg.max_iterations)
        .mode(ExecutionMode::Synchronous);
    if heterogeneous {
        builder = builder.relative_speeds(speeds);
    }
    let solver = builder.build();
    let decomposition = solver.decompose(a, b)?;
    let send_targets = compute_send_targets(decomposition.partition(), decomposition.all_blocks());
    let outcome = solver.solve(a, b)?;
    let model = CostModel::new(grid.clone());
    let sync = replay_sync(
        &outcome.part_reports,
        &send_targets,
        outcome.stop.iterations,
        &model,
        scaling,
    )?;
    let r#async = replay_async(
        &outcome.part_reports,
        &send_targets,
        outcome.stop.iterations,
        &model,
        scaling,
    )?;
    Ok(GridRun {
        sync,
        r#async,
        outcome,
    })
}

fn replay_to_option(replay: &ReplayOutcome) -> Option<f64> {
    if replay.feasible {
        Some(replay.total_seconds)
    } else {
        None
    }
}

fn baseline_to_option(outcome: &crate::baseline::BaselineOutcome) -> Option<f64> {
    if outcome.feasible {
        outcome.modeled_seconds
    } else {
        None
    }
}

fn scalability_table(
    a: &CsrMatrix,
    b: &[f64],
    processor_counts: &[usize],
    cfg: &ExperimentConfig,
    scaling: ProblemScaling,
) -> Result<Vec<ScalabilityRow>, CoreError> {
    let grid = cluster1();
    let mut rows = Vec::with_capacity(processor_counts.len());
    for &p in processor_counts {
        if p == 1 {
            // Sequential direct baseline only (the paper's 1-processor row).
            let seq = SequentialDirectBaseline::new(single_machine(256)).run(a, b, scaling)?;
            rows.push(ScalabilityRow {
                processors: 1,
                distributed_superlu: baseline_to_option(&seq),
                sync_multisplitting: None,
                async_multisplitting: None,
                factorization: None,
                sync_iterations: 0,
            });
            continue;
        }
        let sub_grid = grid.take_machines(p)?;
        let dist = DistributedDirectBaseline::new(sub_grid.clone(), p)?.run(a, b, scaling)?;
        let run = run_multisplitting_on_grid(a, b, &sub_grid, p, 0, cfg, scaling)?;
        rows.push(ScalabilityRow {
            processors: p,
            distributed_superlu: baseline_to_option(&dist),
            sync_multisplitting: replay_to_option(&run.sync),
            async_multisplitting: replay_to_option(&run.r#async),
            factorization: Some(run.sync.factor_seconds),
            sync_iterations: run.outcome.stop.iterations,
        });
    }
    Ok(rows)
}

/// Table 1: scalability on the local homogeneous cluster with the
/// cage10-like matrix.
pub fn table1(cfg: &ExperimentConfig) -> Result<Vec<ScalabilityRow>, CoreError> {
    let scaling = cfg.scaling(paper_sizes::CAGE10);
    let a = generators::cage_like(scaling.run_n, 0xCA6E10);
    let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 11) as f64);
    scalability_table(&a, &b, &[1, 2, 3, 4, 6, 8, 9, 12, 16, 20], cfg, scaling)
}

/// Table 2: scalability on the local homogeneous cluster with the
/// cage11-like matrix (the paper starts at 4 processors for memory reasons).
pub fn table2(cfg: &ExperimentConfig) -> Result<Vec<ScalabilityRow>, CoreError> {
    let scaling = cfg.scaling(paper_sizes::CAGE11);
    let a = generators::cage_like(scaling.run_n, 0xCA6E11);
    let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 7) as f64);
    scalability_table(&a, &b, &[4, 6, 8, 9, 12, 16, 20], cfg, scaling)
}

/// Table 3: comparison of the three solvers on the heterogeneous local
/// cluster (cluster2) and the distant two-site cluster (cluster3).
pub fn table3(cfg: &ExperimentConfig) -> Result<Vec<DistantClusterRow>, CoreError> {
    let mut rows = Vec::new();

    // cage11 on cluster2 (8 heterogeneous machines, local 100 Mb LAN).
    {
        let scaling = cfg.scaling(paper_sizes::CAGE11);
        let a = generators::cage_like(scaling.run_n, 0xCA6E11);
        let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 7) as f64);
        let grid = cluster2();
        let p = grid.num_machines();
        let dist = DistributedDirectBaseline::new(grid.clone(), p)?.run(&a, &b, scaling)?;
        let run = run_multisplitting_on_grid(&a, &b, &grid, p, 0, cfg, scaling)?;
        rows.push(DistantClusterRow {
            matrix: "cage11".to_string(),
            cluster: "cluster2".to_string(),
            distributed_superlu: baseline_to_option(&dist),
            sync_multisplitting: replay_to_option(&run.sync),
            async_multisplitting: replay_to_option(&run.r#async),
            factorization: Some(run.sync.factor_seconds),
        });
    }

    // cage12 on cluster3 (two distant sites): the distributed direct solver
    // runs out of memory in the paper.
    {
        let scaling = cfg.scaling(paper_sizes::CAGE12);
        let a = generators::cage_like(scaling.run_n, 0xCA6E12);
        let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 5) as f64);
        let grid = cluster3();
        let p = grid.num_machines();
        let dist = DistributedDirectBaseline::new(grid.clone(), p)?.run(&a, &b, scaling)?;
        let run = run_multisplitting_on_grid(&a, &b, &grid, p, 0, cfg, scaling)?;
        rows.push(DistantClusterRow {
            matrix: "cage12".to_string(),
            cluster: "cluster3".to_string(),
            distributed_superlu: baseline_to_option(&dist),
            sync_multisplitting: replay_to_option(&run.sync),
            async_multisplitting: replay_to_option(&run.r#async),
            factorization: Some(run.sync.factor_seconds),
        });
    }

    // generated 500000 matrix on cluster3.
    {
        let scaling = cfg.scaling(paper_sizes::GENERATED_LARGE);
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: scaling.run_n,
            offdiag_per_row: 5,
            half_bandwidth: 30,
            dominance_margin: 0.15,
            seed: 0x500_000,
        });
        let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 9) as f64);
        let grid = cluster3();
        let p = grid.num_machines();
        let dist = DistributedDirectBaseline::new(grid.clone(), p)?.run(&a, &b, scaling)?;
        let run = run_multisplitting_on_grid(&a, &b, &grid, p, 0, cfg, scaling)?;
        rows.push(DistantClusterRow {
            matrix: "generated-500000".to_string(),
            cluster: "cluster3".to_string(),
            distributed_superlu: baseline_to_option(&dist),
            sync_multisplitting: replay_to_option(&run.sync),
            async_multisplitting: replay_to_option(&run.r#async),
            factorization: Some(run.sync.factor_seconds),
        });
    }

    Ok(rows)
}

/// Table 4: impact of perturbing communications on the distant cluster with
/// the generated 500 000 matrix.
pub fn table4(cfg: &ExperimentConfig) -> Result<Vec<PerturbationRow>, CoreError> {
    let scaling = cfg.scaling(paper_sizes::GENERATED_LARGE);
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: scaling.run_n,
        offdiag_per_row: 5,
        half_bandwidth: 30,
        dominance_margin: 0.15,
        seed: 0x500_000,
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 9) as f64);

    let mut rows = Vec::new();
    for &flows in &[0usize, 1, 5, 10] {
        let grid = cluster3().with_perturbing_flows(flows);
        let p = grid.num_machines();
        let dist = DistributedDirectBaseline::new(grid.clone(), p)?.run(&a, &b, scaling)?;
        let run = run_multisplitting_on_grid(&a, &b, &grid, p, 0, cfg, scaling)?;
        rows.push(PerturbationRow {
            flows,
            distributed_superlu: baseline_to_option(&dist),
            sync_multisplitting: replay_to_option(&run.sync),
            async_multisplitting: replay_to_option(&run.r#async),
        });
    }
    Ok(rows)
}

/// Figure 3: impact of the overlap size on the distant cluster with the
/// generated matrix whose Jacobi spectral radius is close to 1.
///
/// The overlap values are expressed in the paper's units (0–5000 rows for
/// n = 100 000); they are scaled down together with the problem size.
pub fn figure3(cfg: &ExperimentConfig) -> Result<Vec<OverlapRow>, CoreError> {
    let scaling = cfg.scaling(paper_sizes::GENERATED_OVERLAP);
    // A Z-matrix with point-Jacobi radius close to 1: block Jacobi needs many
    // iterations, which is the regime where overlapping pays off.
    let a = generators::spectral_radius_targeted(scaling.run_n, 0.99);
    let (_, b) = generators::rhs_for_solution(&a, |i| 1.0 + (i % 3) as f64);
    let grid = cluster3();
    let parts = grid.num_machines();

    let paper_overlaps = [
        0usize, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000,
    ];
    let mut rows = Vec::new();
    for &paper_overlap in &paper_overlaps {
        let overlap = ((paper_overlap as f64 / scaling.ratio()).round() as usize)
            .min(scaling.run_n / (2 * parts));
        let run = run_multisplitting_on_grid(&a, &b, &grid, parts, overlap, cfg, scaling)?;
        rows.push(OverlapRow {
            overlap: paper_overlap,
            sync_seconds: run.sync.total_seconds,
            async_seconds: run.r#async.total_seconds,
            factorization_seconds: run.sync.factor_seconds,
            sync_iterations: run.outcome.stop.iterations,
        });
    }
    Ok(rows)
}

/// Renders a scalability table (Tables 1–2) as text.
pub fn render_scalability(title: &str, rows: &[ScalabilityRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:>4}  {:>12}  {:>12}  {:>12}  {:>12}\n",
        "p", "dist-SuperLU", "sync-msplit", "async-msplit", "factorize"
    ));
    for row in rows {
        out.push_str(&format!("{row}\n"));
    }
    out
}

/// Renders Table 3 as text.
pub fn render_distant(rows: &[DistantClusterRow]) -> String {
    let mut out = String::new();
    out.push_str("Table 3: distant heterogeneous clusters\n");
    out.push_str(&format!(
        "{:>16}  {:>9}  {:>12}  {:>12}  {:>12}  {:>12}\n",
        "matrix", "cluster", "dist-SuperLU", "sync-msplit", "async-msplit", "factorize"
    ));
    for row in rows {
        out.push_str(&format!("{row}\n"));
    }
    out
}

/// Renders Table 4 as text.
pub fn render_perturbation(rows: &[PerturbationRow]) -> String {
    let mut out = String::new();
    out.push_str("Table 4: impact of perturbing communications (cluster3)\n");
    out.push_str(&format!(
        "{:>5}  {:>12}  {:>12}  {:>12}\n",
        "flows", "dist-SuperLU", "sync-msplit", "async-msplit"
    ));
    for row in rows {
        out.push_str(&format!("{row}\n"));
    }
    out
}

/// Renders Figure 3 as a text series.
pub fn render_overlap(rows: &[OverlapRow]) -> String {
    let mut out = String::new();
    out.push_str("Figure 3: impact of the overlap size (cluster3)\n");
    out.push_str(&format!(
        "{:>6}  {:>10}  {:>10}  {:>10}  {:>8}\n",
        "ovlp", "sync(s)", "async(s)", "factor(s)", "iters"
    ));
    for row in rows {
        out.push_str(&format!("{row}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.01,
            min_n: 300,
            tolerance: 1e-8,
            max_iterations: 20_000,
        }
    }

    #[test]
    fn config_scaling_respects_floor_and_full_scale() {
        let cfg = tiny_config();
        assert_eq!(cfg.run_n(paper_sizes::CAGE10), 300);
        assert!(cfg.run_n(paper_sizes::GENERATED_LARGE) >= 300);
        let full = ExperimentConfig::full_scale();
        assert_eq!(full.run_n(paper_sizes::CAGE10), paper_sizes::CAGE10);
        assert_eq!(format_seconds(None), "nem");
        assert_eq!(format_seconds(Some(1.234)), "1.23");
    }

    #[test]
    fn table1_shape_multisplitting_beats_distributed() {
        let rows = table1(&tiny_config()).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].processors, 1);
        assert!(rows[0].sync_multisplitting.is_none());
        // From a handful of processors onwards the multisplitting solver must
        // beat the distributed direct baseline (the paper's headline result);
        // at 20 processors the gap must be wide.
        for row in &rows[1..] {
            let dist = row.distributed_superlu.expect("feasible at small scale");
            let sync = row.sync_multisplitting.expect("feasible");
            let factor = row.factorization.unwrap();
            assert!(factor <= sync);
            assert!(factor > 0.0);
            if row.processors >= 4 {
                assert!(
                    sync < dist,
                    "p={}: sync {sync} should beat distributed {dist}",
                    row.processors
                );
            }
        }
        let last = rows.last().unwrap();
        assert!(
            last.sync_multisplitting.unwrap() * 3.0 < last.distributed_superlu.unwrap(),
            "at 20 processors multisplitting should win by a wide margin"
        );
        let output = render_scalability("Table 1", &rows);
        assert!(output.contains("dist-SuperLU"));
    }

    #[test]
    fn table4_shape_async_is_most_robust() {
        let rows = table4(&tiny_config()).unwrap();
        assert_eq!(rows.len(), 4);
        let base = &rows[0];
        let worst = &rows[3];
        // Everything degrades with perturbing flows...
        assert!(worst.distributed_superlu.unwrap() > base.distributed_superlu.unwrap());
        assert!(worst.sync_multisplitting.unwrap() > base.sync_multisplitting.unwrap());
        // ...but the async solver degrades the least in relative terms.
        let sync_ratio = worst.sync_multisplitting.unwrap() / base.sync_multisplitting.unwrap();
        let async_ratio = worst.async_multisplitting.unwrap() / base.async_multisplitting.unwrap();
        assert!(async_ratio <= sync_ratio);
        assert!(!render_perturbation(&rows).is_empty());
    }

    #[test]
    fn figure3_shape_iterations_decrease_with_overlap() {
        let mut cfg = tiny_config();
        cfg.min_n = 600;
        let rows = figure3(&cfg).unwrap();
        assert_eq!(rows.len(), 11);
        // Iterations must decrease (weakly) as the overlap grows, and the
        // factorization time must grow.
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(last.sync_iterations < first.sync_iterations);
        assert!(last.factorization_seconds >= first.factorization_seconds);
        assert!(!render_overlap(&rows).is_empty());
    }
}
