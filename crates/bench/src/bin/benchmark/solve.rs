//! The five solve workloads: one caller thread, one solve per operation.

use crate::check::{self, Answer, Tally};
use crate::inputs::{self, Rng};
use crate::metrics::{RunArgs, RunResult, Values};
use crate::trace::{self, Recorder};
use crate::{host, layers, stats};
use msplit_comm::tcp::{LoopbackMesh, TcpOptions};
use msplit_core::solver::{Method, MultisplittingConfig};
use msplit_core::{Launcher, LauncherConfig, PreparedSystem, SolvePathStats};
use msplit_direct::SolverKind;
use msplit_sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Instant;

/// Right-hand sides generated per workload; operation `i` solves `i mod 16`.
const RHS_POOL: usize = 16;

#[derive(Debug, Clone, Copy)]
pub enum Matrix {
    /// `cage_like(n)`.
    Cage(usize),
    /// `convection_diffusion(k)`, of order `k²`.
    ConvectionDiffusion(usize),
}

/// How one operation reaches the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Launcher::solve`: real `msplit-worker` processes over 127.0.0.1.
    Launcher,
    /// `PreparedSystem::solve`.
    Prepared,
    /// `PreparedSystem::solve_with_transport` over a fresh `LoopbackMesh`.
    PreparedTcp,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub matrix: Matrix,
    pub parts: usize,
    pub kind: SolverKind,
    pub method: Method,
    pub path: Path,
    /// Untimed operations that end set-up.
    pub warmup: usize,
    /// `peak_rss_mb` is read when this many timed operations have run: a
    /// fixed amount of work, so that a faster program, which completes more
    /// operations in the same time, is not charged for them.
    pub rss_after: usize,
}

/// The solve workload called `name`.  Sizes are fixed here, the same on
/// every commit; they keep one set-up under a second on two cores.
pub fn spec(name: &str) -> Option<Spec> {
    let fgmres = Method::Fgmres {
        restart: 60,
        inner_sweeps: 1,
    };
    let spec = |name, matrix, parts, kind, method, path, warmup, rss_after| Spec {
        name,
        matrix,
        parts,
        kind,
        method,
        path,
        warmup,
        rss_after,
    };
    use {Matrix::*, Method::Stationary, Path::*, SolverKind::*};
    Some(match name {
        "grid_factor" => spec(
            "grid_factor",
            Cage(6000),
            2,
            SparseLu,
            Stationary,
            Launcher,
            1,
            4,
        ),
        "grid_iter" => spec(
            "grid_iter",
            ConvectionDiffusion(32),
            2,
            SparseLu,
            Stationary,
            Prepared,
            100,
            800,
        ),
        "grid_iter_tcp" => spec(
            "grid_iter_tcp",
            ConvectionDiffusion(32),
            2,
            SparseLu,
            Stationary,
            PreparedTcp,
            20,
            400,
        ),
        "krylov_fgmres" => spec(
            "krylov_fgmres",
            ConvectionDiffusion(96),
            8,
            SparseLu,
            fgmres,
            Prepared,
            20,
            200,
        ),
        "krylov_band" => spec(
            "krylov_band",
            ConvectionDiffusion(96),
            8,
            BandLu,
            fgmres,
            Prepared,
            5,
            40,
        ),
        _ => return None,
    })
}

/// What a solve returned.
pub struct Solved {
    pub x: Vec<f64>,
    pub converged: bool,
    pub iterations: u64,
    pub solve_path: SolvePathStats,
}

/// A workload after set-up: inputs generated, system prepared, warm.
pub struct State {
    pub a: CsrMatrix,
    rhs: Vec<Vec<f64>>,
    pub config: MultisplittingConfig,
    prepared: Option<PreparedSystem>,
    launcher: Option<Launcher>,
    path: Path,
}

impl State {
    /// Generates the inputs from the seed, prepares the system and runs the
    /// warm-up operations; `setup_s` is the wall time of this function.
    pub fn setup(spec: &Spec, args: &RunArgs) -> Result<State, String> {
        let a = match spec.matrix {
            Matrix::Cage(n) => inputs::cage(n, args.seed),
            Matrix::ConvectionDiffusion(k) => inputs::convection_diffusion(k, args.seed),
        };
        let rhs = inputs::rhs_pool(&a, &mut Rng::new(args.seed, 1), RHS_POOL);
        let config = inputs::solve_config(spec.parts, spec.kind, spec.method);
        let (prepared, launcher) = match spec.path {
            Path::Launcher => {
                let job_root = host::out_dir().join("jobs");
                std::fs::create_dir_all(&job_root)
                    .map_err(|e| format!("create {}: {e}", job_root.display()))?;
                let launcher = Launcher::new(LauncherConfig {
                    job_root: Some(job_root),
                    ..Default::default()
                });
                // Fail here, not once per operation, when the worker is not built.
                launcher.worker_binary().map_err(|e| e.to_string())?;
                (None, Some(launcher))
            }
            Path::Prepared | Path::PreparedTcp => {
                let prepared =
                    PreparedSystem::prepare(config.clone(), &a).map_err(|e| e.to_string())?;
                (Some(prepared), None)
            }
        };
        let state = State {
            a,
            rhs,
            config,
            prepared,
            launcher,
            path: spec.path,
        };
        for i in 0..args.warmup(spec.warmup) {
            let mesh = state.mesh();
            std::hint::black_box(state.solve(i, mesh).is_ok());
        }
        Ok(state)
    }

    /// The right-hand side of operation `i`.
    pub fn rhs_of(&self, i: usize) -> &[f64] {
        &self.rhs[i % self.rhs.len()]
    }

    /// What an operation needs that is built outside its timed span: the TCP
    /// workload's fresh mesh.
    pub fn mesh(&self) -> Result<Option<Arc<LoopbackMesh>>, String> {
        if self.path != Path::PreparedTcp {
            return Ok(None);
        }
        LoopbackMesh::new(self.config.parts, TcpOptions::default())
            .map(Some)
            .map_err(|e| format!("mesh: {e}"))
    }

    /// Operation `i`: the span the workload times.
    pub fn solve(
        &self,
        i: usize,
        mesh: Result<Option<Arc<LoopbackMesh>>, String>,
    ) -> Result<Solved, String> {
        let b = self.rhs_of(i);
        if let Some(launcher) = &self.launcher {
            let out = launcher
                .solve(&self.a, b, &self.config)
                .map_err(|e| e.to_string())?;
            return Ok(Solved {
                converged: out.converged,
                iterations: out.iterations(),
                x: out.x,
                solve_path: SolvePathStats::default(),
            });
        }
        let prepared = self.prepared.as_ref().expect("set-up prepared the system");
        let out = match mesh? {
            Some(mesh) => prepared.solve_with_transport(b, mesh),
            None => prepared.solve(b),
        }
        .map_err(|e| e.to_string())?;
        let mut solve_path = SolvePathStats::default();
        for report in &out.part_reports {
            solve_path.merge(&report.solve_path);
        }
        Ok(Solved {
            converged: out.converged,
            iterations: out.iterations,
            x: out.x,
            solve_path,
        })
    }
}

/// What a timed section measured.  Failed operations count in the tally and
/// in `busy_seconds`, and miss every latency figure.
#[derive(Default)]
pub struct Timed {
    pub ms: Vec<f64>,
    /// Whether the operation behind each entry of `ms` ran under a span.
    pub spanned: Vec<bool>,
    pub peak_rss_mb: f64,
    pub iterations: Vec<f64>,
    pub solve_path: SolvePathStats,
    pub tally: Tally,
    pub busy_seconds: f64,
    pub wall_seconds: f64,
}

/// Runs operations back to back for `seconds`, checking every answer
/// outside the timed span.  With a recorder every second operation is a root
/// span: interleaved, so that drift cancels when the two halves are compared.
fn timed_section(
    state: &State,
    spec: &Spec,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Timed {
    let mut timed = Timed::default();
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed().as_secs_f64() < seconds {
        let mesh = state.mesh();
        let span = rec
            .as_deref_mut()
            .filter(|_| trace::under_span(i, RHS_POOL))
            .map(|r| (r.open(spec.name, i as u64, None), r));
        let t0 = Instant::now();
        let result = state.solve(i, mesh);
        let elapsed = t0.elapsed().as_secs_f64();
        let spanned = span.is_some();
        if let Some((id, r)) = span {
            r.close(id, result.as_ref().map_or(0, |s| s.iterations));
        }
        timed.busy_seconds += elapsed;
        let answer = result.as_ref().map(|s| Answer {
            x: &s.x,
            converged: s.converged,
        });
        if timed
            .tally
            .record(check::check(&state.a, state.rhs_of(i), answer))
        {
            let solved = result.expect("a passing operation returned an answer");
            timed.ms.push(elapsed * 1e3);
            timed.spanned.push(spanned);
            timed.iterations.push(solved.iterations as f64);
            timed.solve_path.merge(&solved.solve_path);
        }
        i += 1;
        if i == spec.rss_after {
            timed.peak_rss_mb = host::peak_rss_mb();
        }
    }
    if i < spec.rss_after {
        timed.peak_rss_mb = host::peak_rss_mb();
    }
    timed.wall_seconds = started.elapsed().as_secs_f64();
    timed
}

/// Sets the end-to-end latency and throughput values from a timed section;
/// returns the median latency in ms.
fn end_to_end(timed: &Timed, values: &mut Values) -> Result<f64, String> {
    if timed.ms.is_empty() {
        return Err(format!(
            "no operation passed its check: {:?}",
            timed.tally.reasons
        ));
    }
    let (p50, p90) = stats::report_latency("solve_ms", &timed.ms);
    values.insert("solve_ms_p50", p50);
    values.insert("solve_ms_p90", p90);
    values.insert("solves_per_s", timed.ms.len() as f64 / timed.busy_seconds);
    Ok(p50)
}

/// Runs one solve workload: set-up, the timed section and, when tracing, the
/// per-layer measurements.
pub fn run(spec: &Spec, args: &RunArgs) -> Result<RunResult, String> {
    let mut values = Values::new();
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..args.setup_repetitions() {
        // Drop the last set-up first: two live copies would double the peak.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(State::setup(spec, args)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let state = state.expect("set-up ran at least once");
    values.insert("setup_s", stats::median(&setups));

    let mut rec = Recorder::new(Instant::now());
    let timed = timed_section(&state, spec, args.seconds, args.trace.then_some(&mut rec));
    let p50_ms = end_to_end(&timed, &mut values)?;
    values.insert("peak_rss_mb", timed.peak_rss_mb);
    if args.trace {
        values.insert(
            "harness.trace_overhead_share",
            stats::trace_overhead_share(&timed.ms, &timed.spanned),
        );
        layers::solve_layers(spec, &state, p50_ms, &timed, &mut rec, &mut values)?;
        let path = host::out_dir().join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
        trace::report(&path, &rec.spans)?;
    }
    Ok(RunResult {
        tally: timed.tally,
        values,
        timed_seconds: timed.wall_seconds,
    })
}
