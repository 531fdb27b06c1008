//! Multi-process launcher: spawns `msplit-worker` processes and gathers the
//! assembled solution.
//!
//! The launcher turns one in-memory system into an on-disk *job*: the matrix
//! shipped as MatrixMarket ([`msplit_sparse::io`]), the right-hand side as a
//! vector file, and a `job.cfg` describing the world (addresses, solver
//! configuration, fingerprint, optional modelled link delays).  It then
//! spawns one `msplit-worker` process per band; each worker rebuilds the
//! same deterministic decomposition, extracts only its own
//! [`msplit_sparse::LocalBlocks`], joins the TCP mesh (the handshake pins
//! the matrix fingerprint) and runs [`crate::distributed::run_rank`].
//! Workers write their extended-range solution slice back into the job
//! directory; the launcher assembles them with the configured weighting
//! scheme — the same gather the threaded drivers perform in memory.

use crate::checkpoint;
use crate::runtime::FailurePolicy;
use crate::solver::{ExecutionMode, MultisplittingConfig};
use crate::stop::{Stop, StopReason};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_comm::tcp::LinkDelay;
use msplit_direct::SolverKind;
use msplit_grid::cluster;
use msplit_sparse::{io as sparse_io, BandPartition, CsrMatrix};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which grid model prices the links of a delayed mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridSpec {
    /// [`cluster::two_site`]: homogeneous machines on two LANs joined by the
    /// paper's 20 Mb WAN.
    TwoSite {
        /// Machines on site A (ranks `0..site_a`).
        site_a: usize,
        /// Machines on site B.
        site_b: usize,
    },
    /// The paper's ten-machine two-site **cluster3**.
    Cluster3,
}

impl GridSpec {
    fn encode(&self) -> String {
        match self {
            GridSpec::TwoSite { site_a, site_b } => format!("two_site:{site_a}:{site_b}"),
            GridSpec::Cluster3 => "cluster3".to_string(),
        }
    }

    fn parse(text: &str) -> Result<Self, CoreError> {
        if text == "cluster3" {
            return Ok(GridSpec::Cluster3);
        }
        if let Some(rest) = text.strip_prefix("two_site:") {
            let mut it = rest.split(':');
            let site_a = parse_field::<usize>(it.next().unwrap_or(""), "two_site site_a")?;
            let site_b = parse_field::<usize>(it.next().unwrap_or(""), "two_site site_b")?;
            return Ok(GridSpec::TwoSite { site_a, site_b });
        }
        Err(CoreError::Distributed(format!(
            "unknown grid spec '{text}'"
        )))
    }

    fn build(&self) -> Result<msplit_grid::Grid, CoreError> {
        match self {
            GridSpec::TwoSite { site_a, site_b } => {
                cluster::two_site(*site_a, *site_b).map_err(CoreError::Grid)
            }
            GridSpec::Cluster3 => Ok(cluster::cluster3()),
        }
    }
}

/// Modelled per-link delay realized on the workers' socket sends.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDelaySpec {
    /// Grid whose network model prices each link.
    pub grid: GridSpec,
    /// Fraction of the modelled delay actually slept per send.
    pub time_scale: f64,
}

/// Everything a worker process needs to join a job, serialized as
/// `job.cfg` in the job directory.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Listen address of every rank, indexed by rank.
    pub addrs: Vec<String>,
    /// Fingerprint of the shipped matrix (handshake + integrity check).
    pub fingerprint: u64,
    /// The numerical configuration (parts must equal `addrs.len()`).
    pub config: MultisplittingConfig,
    /// Optional modelled link delays.
    pub delay: Option<LinkDelaySpec>,
    /// Stall budget for lockstep waits and mesh formation.
    pub peer_timeout: Duration,
    /// Snapshot period in outer iterations (0 disables checkpointing); the
    /// snapshots land next to the job files (see [`crate::checkpoint`]).
    pub checkpoint_every: u64,
    /// How workers react to a rank death observed mid-solve.
    pub failure: FailurePolicy,
}

impl JobSpec {
    /// World size (number of worker processes = bands).
    pub fn world_size(&self) -> usize {
        self.addrs.len()
    }

    /// Builds the comm-layer delay model, if one was requested.
    pub fn link_delay(&self) -> Result<Option<LinkDelay>, CoreError> {
        match &self.delay {
            None => Ok(None),
            Some(spec) => Ok(Some(LinkDelay {
                grid: spec.grid.build()?,
                time_scale: spec.time_scale,
            })),
        }
    }

    /// Serializes the spec into `dir/job.cfg`.
    pub fn store(&self, dir: &Path) -> Result<(), CoreError> {
        let c = &self.config;
        let mut text = String::from("% msplit distributed job\n");
        let speeds = c
            .relative_speeds
            .iter()
            .map(|s| format!("{s:.17e}"))
            .collect::<Vec<_>>()
            .join(",");
        text.push_str(&format!("addrs={}\n", self.addrs.join(",")));
        text.push_str(&format!("fingerprint={:#x}\n", self.fingerprint));
        text.push_str(&format!("parts={}\n", c.parts));
        text.push_str(&format!("overlap={}\n", c.overlap));
        text.push_str(&format!("weighting={}\n", weighting_to_str(c.weighting)));
        text.push_str(&format!("solver={}\n", solver_to_str(c.solver_kind)));
        text.push_str(&format!("tolerance={:.17e}\n", c.tolerance));
        text.push_str(&format!("max_iterations={}\n", c.max_iterations));
        text.push_str(&format!("mode={}\n", mode_to_str(c.mode)));
        text.push_str(&format!("async_confirmations={}\n", c.async_confirmations));
        text.push_str(&format!("relative_speeds={speeds}\n"));
        match &self.delay {
            None => text.push_str("delay_grid=none\ndelay_scale=0\n"),
            Some(d) => {
                text.push_str(&format!("delay_grid={}\n", d.grid.encode()));
                text.push_str(&format!("delay_scale={:.17e}\n", d.time_scale));
            }
        }
        text.push_str(&format!(
            "peer_timeout_secs={:.17e}\n",
            self.peer_timeout.as_secs_f64()
        ));
        text.push_str(&format!("checkpoint_every={}\n", self.checkpoint_every));
        text.push_str(&format!("failure={}\n", failure_to_str(self.failure)));
        std::fs::write(dir.join("job.cfg"), text)
            .map_err(|e| CoreError::Distributed(format!("write job.cfg: {e}")))
    }

    /// Loads a spec from `dir/job.cfg`.
    pub fn load(dir: &Path) -> Result<Self, CoreError> {
        let path = dir.join("job.cfg");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CoreError::Distributed(format!("read {}: {e}", path.display())))?;
        let fields = parse_kv_file(&text, "job.cfg")?;
        let get = |key: &str| kv_get(&fields, key, "job.cfg");
        let addrs: Vec<String> = get("addrs")?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let fingerprint_text = get("fingerprint")?;
        let fingerprint = u64::from_str_radix(fingerprint_text.trim_start_matches("0x"), 16)
            .map_err(|e| {
                CoreError::Distributed(format!("bad fingerprint '{fingerprint_text}': {e}"))
            })?;
        let relative_speeds = {
            let raw = get("relative_speeds")?;
            if raw.is_empty() {
                Vec::new()
            } else {
                raw.split(',')
                    .map(|s| parse_field::<f64>(s, "relative_speeds"))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let config = MultisplittingConfig {
            parts: parse_field(get("parts")?, "parts")?,
            overlap: parse_field(get("overlap")?, "overlap")?,
            weighting: weighting_from_str(get("weighting")?)?,
            solver_kind: solver_from_str(get("solver")?)?,
            tolerance: parse_field(get("tolerance")?, "tolerance")?,
            max_iterations: parse_field(get("max_iterations")?, "max_iterations")?,
            mode: mode_from_str(get("mode")?)?,
            async_confirmations: parse_field(get("async_confirmations")?, "async_confirmations")?,
            relative_speeds,
            // Worker processes always run the stationary per-rank runtime;
            // the Krylov outer loops are in-process drivers (see
            // `crate::krylov`) and never ship through job.cfg.
            method: crate::solver::Method::Stationary,
        };
        let delay = match get("delay_grid")? {
            "none" => None,
            grid_text => Some(LinkDelaySpec {
                grid: GridSpec::parse(grid_text)?,
                time_scale: parse_field(get("delay_scale")?, "delay_scale")?,
            }),
        };
        // The fault-tolerance keys are parsed leniently (absent → default)
        // so job.cfg files from before the elastic runtime still load.
        let checkpoint_every = match fields.get("checkpoint_every") {
            None => 0,
            Some(v) => parse_field(v, "checkpoint_every")?,
        };
        let failure = match fields.get("failure") {
            None => FailurePolicy::default(),
            Some(v) => failure_from_str(v)?,
        };
        // Job directories written before online rebalancing was removed
        // carry `rebalance=none`; any other value asked for the feature.
        if let Some(v) = fields.get("rebalance").filter(|v| *v != "none") {
            return Err(CoreError::Distributed(format!(
                "job.cfg asks for online speed-drift rebalancing (rebalance={v}), \
                 which was removed; only rebalance=none is accepted"
            )));
        }
        Ok(JobSpec {
            addrs,
            fingerprint,
            config,
            delay,
            peer_timeout: Duration::from_secs_f64(
                parse_field::<f64>(get("peer_timeout_secs")?, "peer_timeout_secs")?.max(0.0),
            ),
            checkpoint_every,
            failure,
        })
    }
}

fn failure_to_str(f: FailurePolicy) -> String {
    match f {
        FailurePolicy::HaltOnDeath { heartbeat } => {
            format!("halt_on_death:{:.17e}", heartbeat.as_secs_f64())
        }
        FailurePolicy::Redistribute { heartbeat } => {
            format!("redistribute:{:.17e}", heartbeat.as_secs_f64())
        }
    }
}

fn failure_from_str(text: &str) -> Result<FailurePolicy, CoreError> {
    if text == "fail_fast" {
        return Err(CoreError::Distributed(
            "failure policy fail_fast (FailFast) was removed; use halt_on_death or redistribute"
                .to_string(),
        ));
    }
    if let Some(secs) = text.strip_prefix("halt_on_death:") {
        return Ok(FailurePolicy::HaltOnDeath {
            heartbeat: Duration::from_secs_f64(parse_field::<f64>(secs, "heartbeat")?.max(0.0)),
        });
    }
    if let Some(secs) = text.strip_prefix("redistribute:") {
        return Ok(FailurePolicy::Redistribute {
            heartbeat: Duration::from_secs_f64(parse_field::<f64>(secs, "heartbeat")?.max(0.0)),
        });
    }
    Err(CoreError::Distributed(format!(
        "unknown failure policy '{text}'"
    )))
}

/// The `stop=` value of a rank result: `converged`, `budget`, `halted` or
/// `death:N`.
fn reason_to_str(reason: StopReason) -> String {
    match reason {
        StopReason::Converged => "converged".to_string(),
        StopReason::BudgetExhausted => "budget".to_string(),
        StopReason::Halted => "halted".to_string(),
        StopReason::Reshape(rank) => format!("death:{rank}"),
    }
}

fn reason_from_str(text: &str) -> Result<StopReason, CoreError> {
    match (text, text.strip_prefix("death:")) {
        ("converged", _) => Ok(StopReason::Converged),
        ("budget", _) => Ok(StopReason::BudgetExhausted),
        ("halted", _) => Ok(StopReason::Halted),
        (_, Some(rank)) => Ok(StopReason::Reshape(parse_field(rank, "dead rank")?)),
        ("drift", _) => Err(CoreError::Distributed(
            "stop=drift: speed-drift reshapes were removed with online rebalancing".to_string(),
        )),
        _ => Err(CoreError::Distributed(format!(
            "unknown stop reason '{text}'"
        ))),
    }
}

fn parse_field<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, CoreError>
where
    T::Err: std::fmt::Display,
{
    text.trim()
        .parse::<T>()
        .map_err(|e| CoreError::Distributed(format!("bad {what} '{text}': {e}")))
}

/// Parses a `%`-commented `key=value` file (the job.cfg / rank-meta format)
/// into a map; `what` names the file in error messages.
fn parse_kv_file(text: &str, what: &str) -> Result<BTreeMap<String, String>, CoreError> {
    let mut fields = BTreeMap::new();
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let (key, value) = t
            .split_once('=')
            .ok_or_else(|| CoreError::Distributed(format!("malformed {what} line '{t}'")))?;
        fields.insert(key.to_string(), value.to_string());
    }
    Ok(fields)
}

/// Looks up a required key parsed by [`parse_kv_file`].
fn kv_get<'a>(
    fields: &'a BTreeMap<String, String>,
    key: &str,
    what: &str,
) -> Result<&'a str, CoreError> {
    fields
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| CoreError::Distributed(format!("{what} missing '{key}'")))
}

fn weighting_to_str(w: WeightingScheme) -> &'static str {
    match w {
        WeightingScheme::OwnerTakes => "owner_takes",
        WeightingScheme::Average => "average",
        WeightingScheme::FirstCovering => "first_covering",
    }
}

fn weighting_from_str(text: &str) -> Result<WeightingScheme, CoreError> {
    match text {
        "owner_takes" => Ok(WeightingScheme::OwnerTakes),
        "average" => Ok(WeightingScheme::Average),
        "first_covering" => Ok(WeightingScheme::FirstCovering),
        other => Err(CoreError::Distributed(format!(
            "unknown weighting '{other}'"
        ))),
    }
}

fn solver_to_str(s: SolverKind) -> &'static str {
    match s {
        SolverKind::SparseLu => "sparse_lu",
        SolverKind::DenseLu => "dense_lu",
        SolverKind::BandLu => "band_lu",
    }
}

fn solver_from_str(text: &str) -> Result<SolverKind, CoreError> {
    match text {
        "sparse_lu" => Ok(SolverKind::SparseLu),
        "dense_lu" => Ok(SolverKind::DenseLu),
        "band_lu" => Ok(SolverKind::BandLu),
        other => Err(CoreError::Distributed(format!("unknown solver '{other}'"))),
    }
}

fn mode_to_str(m: ExecutionMode) -> &'static str {
    match m {
        ExecutionMode::Synchronous => "sync",
        ExecutionMode::Asynchronous => "async",
    }
}

fn mode_from_str(text: &str) -> Result<ExecutionMode, CoreError> {
    match text {
        "sync" => Ok(ExecutionMode::Synchronous),
        "async" => Ok(ExecutionMode::Asynchronous),
        other => Err(CoreError::Distributed(format!("unknown mode '{other}'"))),
    }
}

/// File names inside a job directory.
pub mod job_files {
    /// The shipped matrix (MatrixMarket).
    pub const MATRIX: &str = "system.mtx";
    /// The shipped right-hand side (vector file).
    pub const RHS: &str = "rhs.vec";
    /// Optional global initial guess: workers warm-start from it when
    /// present (how a redistributed job carries over pre-reshape progress).
    pub const INITIAL_GUESS: &str = "x0.vec";
    /// Rank `r`'s solution slice.
    pub fn result_vec(rank: usize) -> String {
        format!("x_{rank}.vec")
    }
    /// Rank `r`'s run metadata.
    pub fn result_meta(rank: usize) -> String {
        format!("rank_{rank}.meta")
    }
    /// Rank `r`'s captured stdout/stderr.
    pub fn worker_log(rank: usize) -> String {
        format!("worker_{rank}.log")
    }
}

/// Metadata a worker reports next to its solution slice.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMeta {
    /// Why and when the rank stopped; a reshape names a dead peer under
    /// [`FailurePolicy::Redistribute`].
    pub stop: Stop,
    /// Wall-clock seconds inside the rank loop.
    pub wall_seconds: f64,
}

/// Writes a rank's result (slice + metadata) into the job directory.  The
/// vector is written last and atomically (tmp + rename), so its presence
/// implies a complete result.
pub fn store_rank_result(
    dir: &Path,
    rank: usize,
    meta: &RankMeta,
    x_local: &[f64],
) -> Result<(), CoreError> {
    let meta_text = format!(
        "stop={}\niterations={}\nnorm={:.17e}\nwall_seconds={:.6}\n",
        reason_to_str(meta.stop.reason),
        meta.stop.iterations,
        meta.stop.norm,
        meta.wall_seconds,
    );
    std::fs::write(dir.join(job_files::result_meta(rank)), meta_text)
        .map_err(|e| CoreError::Distributed(format!("write rank {rank} meta: {e}")))?;
    let tmp = dir.join(format!("x_{rank}.vec.tmp"));
    sparse_io::write_vector_file(x_local, &tmp).map_err(CoreError::Sparse)?;
    std::fs::rename(&tmp, dir.join(job_files::result_vec(rank)))
        .map_err(|e| CoreError::Distributed(format!("publish rank {rank} result: {e}")))
}

/// Reads a rank's result back (launcher side).
pub fn load_rank_result(dir: &Path, rank: usize) -> Result<(RankMeta, Vec<f64>), CoreError> {
    let meta_path = dir.join(job_files::result_meta(rank));
    let text = std::fs::read_to_string(&meta_path)
        .map_err(|e| CoreError::Distributed(format!("read {}: {e}", meta_path.display())))?;
    let what = format!("rank {rank} meta");
    let fields = parse_kv_file(&text, &what)?;
    let get = |key: &str| kv_get(&fields, key, &what);
    let meta = RankMeta {
        stop: Stop::new(
            reason_from_str(get("stop")?)?,
            parse_field(get("iterations")?, "iterations")?,
            parse_field(get("norm")?, "norm")?,
        ),
        wall_seconds: parse_field(get("wall_seconds")?, "wall_seconds")?,
    };
    let x = sparse_io::read_vector_file(dir.join(job_files::result_vec(rank)))
        .map_err(CoreError::Sparse)?;
    Ok((meta, x))
}

/// Configuration of a [`Launcher`].
#[derive(Debug, Clone)]
pub struct LauncherConfig {
    /// Path to the `msplit-worker` binary; `None` resolves via the
    /// `MSPLIT_WORKER_BIN` environment variable, then next to (and one
    /// directory above) the current executable.
    pub worker_binary: Option<PathBuf>,
    /// Overall budget for the whole distributed solve (spawn → gather).
    pub timeout: Duration,
    /// Stall budget workers apply to lockstep waits and mesh formation.
    pub peer_timeout: Duration,
    /// Optional modelled link delays realized on worker sends.
    pub delay: Option<LinkDelaySpec>,
    /// Directory under which job directories are created
    /// (default: the system temp directory).
    pub job_root: Option<PathBuf>,
    /// Keep the job directory after the run (for debugging).
    pub keep_job_dir: bool,
    /// Snapshot period workers apply, in outer iterations (0 = off).
    pub checkpoint_every: u64,
    /// Failure policy workers apply to a rank death observed mid-solve.
    pub failure: FailurePolicy,
    /// Extra environment variables set on every spawned worker — how
    /// fault-injection drills arm the worker's `MSPLIT_DIE_AT` hook without
    /// touching the launcher process's own environment.
    pub worker_env: Vec<(String, String)>,
}

impl Default for LauncherConfig {
    fn default() -> Self {
        LauncherConfig {
            worker_binary: None,
            timeout: Duration::from_secs(300),
            peer_timeout: Duration::from_secs(60),
            delay: None,
            job_root: None,
            keep_job_dir: false,
            checkpoint_every: 0,
            failure: FailurePolicy::default(),
            worker_env: Vec::new(),
        }
    }
}

/// Result of a multi-process distributed solve.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The assembled global solution.
    pub x: Vec<f64>,
    /// Why and when the solve stopped, merged over the ranks.
    pub stop: Stop,
    /// Mirror of `stop.converged()`; deleted once the benchmark reads `stop`.
    pub converged: bool,
    /// Per-rank outer-iteration counts.
    pub iterations_per_rank: Vec<u64>,
    /// Launcher wall-clock seconds (spawn → gather).
    pub wall_seconds: f64,
}

impl DistributedOutcome {
    /// The outcome of a solve that stopped on `stop` (fills the mirror).
    pub fn new(x: Vec<f64>, stop: Stop, iterations_per_rank: Vec<u64>, wall_seconds: f64) -> Self {
        DistributedOutcome {
            x,
            stop,
            converged: stop.converged(),
            iterations_per_rank,
            wall_seconds,
        }
    }

    /// Maximum outer-iteration count over the ranks.
    pub fn iterations(&self) -> u64 {
        self.stop.iterations
    }

    /// Infinity norm of the residual `b − A x`.
    pub fn residual(&self, a: &CsrMatrix, b: &[f64]) -> f64 {
        let ax = a.spmv(&self.x).expect("solution length matches the matrix");
        b.iter()
            .zip(ax.iter())
            .fold(0.0f64, |m, (bi, axi)| m.max((bi - axi).abs()))
    }
}

/// Result of an elastic ([`Launcher::solve_elastic`]) distributed solve.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// The final (converged) solve's outcome.
    pub outcome: DistributedOutcome,
    /// The dead rank behind every reshape performed on the way, in order.
    pub reshapes: Vec<usize>,
    /// Worker count of the final solve (shrinks on each rank death).
    pub final_parts: usize,
}

/// Spawns `msplit-worker` processes to solve a system over real sockets.
#[derive(Debug, Clone, Default)]
pub struct Launcher {
    config: LauncherConfig,
}

/// What one elastic attempt produced: a finished solve, or a reshape
/// request with the salvaged state.
enum Attempt {
    Done(DistributedOutcome),
    Reshape {
        /// The dead rank the survivors reported.
        dead_rank: usize,
        /// Every rank that published no result.
        dead: Vec<usize>,
        guess: Vec<f64>,
    },
}

impl Launcher {
    /// Creates a launcher.
    pub fn new(config: LauncherConfig) -> Self {
        Launcher { config }
    }

    /// The launcher configuration.
    pub fn config(&self) -> &LauncherConfig {
        &self.config
    }

    /// Resolves the worker binary (explicit path → `MSPLIT_WORKER_BIN` →
    /// sibling of the current executable → its parent directory, which
    /// covers examples and test binaries under `target/<profile>/`).
    pub fn worker_binary(&self) -> Result<PathBuf, CoreError> {
        if let Some(path) = &self.config.worker_binary {
            if path.exists() {
                return Ok(path.clone());
            }
            return Err(CoreError::Distributed(format!(
                "worker binary {} does not exist",
                path.display()
            )));
        }
        if let Ok(path) = std::env::var("MSPLIT_WORKER_BIN") {
            let path = PathBuf::from(path);
            if path.exists() {
                return Ok(path);
            }
            return Err(CoreError::Distributed(format!(
                "MSPLIT_WORKER_BIN={} does not exist",
                path.display()
            )));
        }
        let name = format!("msplit-worker{}", std::env::consts::EXE_SUFFIX);
        let exe = std::env::current_exe()
            .map_err(|e| CoreError::Distributed(format!("current_exe: {e}")))?;
        let mut candidates = Vec::new();
        if let Some(dir) = exe.parent() {
            candidates.push(dir.join(&name));
            if let Some(up) = dir.parent() {
                candidates.push(up.join(&name));
            }
        }
        candidates.into_iter().find(|c| c.exists()).ok_or_else(|| {
            CoreError::Distributed(
                "could not locate the msplit-worker binary; build it with \
                     `cargo build --release --bin msplit-worker` or set MSPLIT_WORKER_BIN"
                    .to_string(),
            )
        })
    }

    /// Solves `A x = b` with `config.parts` worker processes on 127.0.0.1.
    pub fn solve(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        config: &MultisplittingConfig,
    ) -> Result<DistributedOutcome, CoreError> {
        let start = Instant::now();
        let world = config.parts;
        if world == 0 {
            return Err(CoreError::Distributed(
                "a distributed solve needs at least one worker".to_string(),
            ));
        }
        let worker_bin = self.worker_binary()?;
        // Build the decomposition once on the launcher side: it validates the
        // configuration and provides the partition used to assemble the
        // gathered slices (the workers rebuild the identical decomposition
        // from the shipped files).
        let solver = crate::solver::MultisplittingSolver::new(config.clone());
        let decomposition = solver.decompose(a, b)?;
        let partition = decomposition.partition().clone();

        let job_dir = self.create_job_dir()?;
        let result = self.prepare_job(a, b, config, &job_dir).and_then(|_| {
            self.run_to_completion(&worker_bin, &job_dir, config, &partition, None, start)
        });
        if !self.config.keep_job_dir {
            let _ = std::fs::remove_dir_all(&job_dir);
        } else {
            eprintln!("launcher: job directory kept at {}", job_dir.display());
        }
        result
    }

    fn create_job_dir(&self) -> Result<PathBuf, CoreError> {
        let root = self
            .config
            .job_root
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        static JOB_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let unique = format!(
            "msplit-job-{}-{}",
            std::process::id(),
            JOB_COUNTER.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        );
        let dir = root.join(unique);
        std::fs::create_dir_all(&dir)
            .map_err(|e| CoreError::Distributed(format!("create {}: {e}", dir.display())))?;
        Ok(dir)
    }

    /// Reserves one loopback address per rank by briefly binding ephemeral
    /// listeners.  The listeners are dropped just before the workers spawn;
    /// the small reuse race is acceptable on 127.0.0.1.
    fn reserve_addrs(world: usize) -> Result<Vec<String>, CoreError> {
        let mut listeners = Vec::with_capacity(world);
        let mut addrs = Vec::with_capacity(world);
        for _ in 0..world {
            let l = std::net::TcpListener::bind("127.0.0.1:0")
                .map_err(|e| CoreError::Distributed(format!("reserve port: {e}")))?;
            addrs.push(
                l.local_addr()
                    .map_err(|e| CoreError::Distributed(format!("reserve port: {e}")))?
                    .to_string(),
            );
            listeners.push(l);
        }
        Ok(addrs)
    }

    /// Ships the system into `job_dir` (matrix, RHS, `job.cfg` with freshly
    /// reserved loopback addresses) so workers can be spawned against it —
    /// the first half of [`Launcher::solve`], exposed for tests and tools
    /// that manage worker processes themselves (e.g. kill-and-resume
    /// drills).
    pub fn prepare_job(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        config: &MultisplittingConfig,
        job_dir: &Path,
    ) -> Result<JobSpec, CoreError> {
        sparse_io::write_matrix_market_file(a, job_dir.join(job_files::MATRIX))
            .map_err(CoreError::Sparse)?;
        sparse_io::write_vector_file(b, job_dir.join(job_files::RHS)).map_err(CoreError::Sparse)?;
        let spec = JobSpec {
            addrs: Self::reserve_addrs(config.parts)?,
            fingerprint: a.fingerprint(),
            config: config.clone(),
            delay: self.config.delay.clone(),
            peer_timeout: self.config.peer_timeout,
            checkpoint_every: self.config.checkpoint_every,
            failure: self.config.failure,
        };
        spec.store(job_dir)?;
        Ok(spec)
    }

    /// Spawns one `msplit-worker` process for `rank` of the job in
    /// `job_dir`, its output captured in the rank's log file.  With
    /// `resume_at`, the worker restores the rank's pinned snapshot of that
    /// iteration before iterating.
    pub fn spawn_worker(
        &self,
        worker_bin: &Path,
        job_dir: &Path,
        rank: usize,
        resume_at: Option<u64>,
    ) -> Result<std::process::Child, CoreError> {
        let log = std::fs::File::create(job_dir.join(job_files::worker_log(rank)))
            .map_err(|e| CoreError::Distributed(format!("create worker log: {e}")))?;
        let log_err = log
            .try_clone()
            .map_err(|e| CoreError::Distributed(format!("clone worker log: {e}")))?;
        let mut cmd = std::process::Command::new(worker_bin);
        cmd.arg("--job")
            .arg(job_dir)
            .arg("--rank")
            .arg(rank.to_string());
        if let Some(iteration) = resume_at {
            cmd.arg("--resume-at").arg(iteration.to_string());
        }
        for (key, value) in &self.config.worker_env {
            cmd.env(key, value);
        }
        cmd.stdout(std::process::Stdio::from(log))
            .stderr(std::process::Stdio::from(log_err))
            .spawn()
            .map_err(|e| CoreError::Distributed(format!("spawn {}: {e}", worker_bin.display())))
    }

    fn spawn_all(
        &self,
        worker_bin: &Path,
        job_dir: &Path,
        world: usize,
        resume_at: Option<u64>,
    ) -> (Vec<Option<std::process::Child>>, Result<(), CoreError>) {
        let mut children: Vec<Option<std::process::Child>> = Vec::with_capacity(world);
        for rank in 0..world {
            match self.spawn_worker(worker_bin, job_dir, rank, resume_at) {
                Ok(child) => children.push(Some(child)),
                Err(e) => return (children, Err(e)),
            }
        }
        (children, Ok(()))
    }

    /// Spawns every worker of the job in `job_dir`, waits for all of them to
    /// succeed, and gathers their published results.
    fn run_to_completion(
        &self,
        worker_bin: &Path,
        job_dir: &Path,
        config: &MultisplittingConfig,
        partition: &BandPartition,
        resume_at: Option<u64>,
        start: Instant,
    ) -> Result<DistributedOutcome, CoreError> {
        let world = config.parts;
        let (mut children, spawn_result) = self.spawn_all(worker_bin, job_dir, world, resume_at);
        let wait_result = spawn_result.and_then(|()| {
            let deadline = Instant::now() + self.config.timeout;
            Self::wait_for_workers(&mut children, deadline, job_dir)
        });
        // Whatever happened — wait error, timeout, or a failure partway
        // through spawning — no child may outlive the job.
        for child in children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        wait_result?;
        let results = (0..world)
            .map(|rank| load_rank_result(job_dir, rank))
            .collect::<Result<Vec<_>, _>>()?;
        Self::gather_outcome(results, config, partition, start)
    }

    /// Assembles the global solution from every rank's published result.
    fn gather_outcome(
        results: Vec<(RankMeta, Vec<f64>)>,
        config: &MultisplittingConfig,
        partition: &BandPartition,
        start: Instant,
    ) -> Result<DistributedOutcome, CoreError> {
        let world = config.parts;
        let mut locals = Vec::with_capacity(world);
        let mut stops = Vec::with_capacity(world);
        for (rank, (meta, x_local)) in results.into_iter().enumerate() {
            let expected = partition.extended_range(rank).len();
            if x_local.len() != expected {
                return Err(CoreError::Distributed(format!(
                    "rank {rank} returned {} values, expected {expected}",
                    x_local.len()
                )));
            }
            stops.push(meta.stop);
            locals.push(x_local);
        }
        let x = config.weighting.assemble(partition, &locals);
        Ok(DistributedOutcome::new(
            x,
            Stop::merge(stops.iter().copied()),
            stops.iter().map(|stop| stop.iterations).collect(),
            start.elapsed().as_secs_f64(),
        ))
    }

    /// Resumes a killed or interrupted job from its snapshots.
    ///
    /// `job_dir` must hold a complete job (`job.cfg`, system, RHS) written
    /// with `checkpoint_every > 0` whose workers are no longer running.  The
    /// launcher finds the highest iteration *every* rank has a snapshot for,
    /// refreshes the listen addresses in `job.cfg` (the original ports are
    /// gone with the original processes), clears stale results and respawns
    /// every worker with `--resume-at`.  In synchronous mode the resumed
    /// solution is bitwise-identical to an uninterrupted run's.
    pub fn resume(&self, job_dir: &Path) -> Result<DistributedOutcome, CoreError> {
        let start = Instant::now();
        let mut spec = JobSpec::load(job_dir)?;
        let world = spec.world_size();
        let resume_at = checkpoint::max_common_iteration(job_dir, world)?.ok_or_else(|| {
            CoreError::Distributed(format!(
                "cannot resume {}: no iteration has a snapshot from every rank",
                job_dir.display()
            ))
        })?;
        spec.addrs = Self::reserve_addrs(world)?;
        spec.store(job_dir)?;
        for rank in 0..world {
            let _ = std::fs::remove_file(job_dir.join(job_files::result_vec(rank)));
            let _ = std::fs::remove_file(job_dir.join(job_files::result_meta(rank)));
        }

        // Rebuild the partition the workers will agree on, for the gather.
        let a = sparse_io::read_matrix_market(job_dir.join(job_files::MATRIX))
            .map_err(CoreError::Sparse)?;
        let b =
            sparse_io::read_vector_file(job_dir.join(job_files::RHS)).map_err(CoreError::Sparse)?;
        let solver = crate::solver::MultisplittingSolver::new(spec.config.clone());
        let partition = solver.decompose(&a, &b)?.partition().clone();

        let worker_bin = self.worker_binary()?;
        self.run_to_completion(
            &worker_bin,
            job_dir,
            &spec.config,
            &partition,
            Some(resume_at),
            start,
        )
    }

    /// Solves `A x = b` elastically: on a reshape request (a worker killed
    /// under [`FailurePolicy::Redistribute`]) the launcher salvages the
    /// freshest state from snapshots and published slices, re-derives the
    /// band decomposition over the survivors and resubmits the job
    /// warm-started from the salvaged iterate, up to `max_reshapes` times.
    ///
    /// Requires [`LauncherConfig::failure`] to be
    /// [`FailurePolicy::Redistribute`]; `checkpoint_every > 0` is strongly
    /// recommended so a dead rank's band loses at most one snapshot period
    /// of progress.
    pub fn solve_elastic(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        config: &MultisplittingConfig,
        max_reshapes: usize,
    ) -> Result<ElasticOutcome, CoreError> {
        if !matches!(self.config.failure, FailurePolicy::Redistribute { .. }) {
            return Err(CoreError::Distributed(
                "solve_elastic needs FailurePolicy::Redistribute so workers survive a rank death"
                    .to_string(),
            ));
        }
        let start = Instant::now();
        let worker_bin = self.worker_binary()?;
        let mut cfg = config.clone();
        let mut x0: Option<Vec<f64>> = None;
        let mut reshapes: Vec<usize> = Vec::new();
        loop {
            let solver = crate::solver::MultisplittingSolver::new(cfg.clone());
            let partition = solver.decompose(a, b)?.partition().clone();
            let job_dir = self.create_job_dir()?;
            let attempt = self.run_elastic_attempt(
                a,
                b,
                &cfg,
                x0.as_deref(),
                &worker_bin,
                &job_dir,
                &partition,
            );
            if !self.config.keep_job_dir {
                let _ = std::fs::remove_dir_all(&job_dir);
            } else {
                eprintln!("launcher: job directory kept at {}", job_dir.display());
            }
            match attempt? {
                Attempt::Done(mut outcome) => {
                    outcome.wall_seconds = start.elapsed().as_secs_f64();
                    return Ok(ElasticOutcome {
                        outcome,
                        reshapes,
                        final_parts: cfg.parts,
                    });
                }
                Attempt::Reshape {
                    dead_rank,
                    dead,
                    guess,
                } => {
                    if reshapes.len() >= max_reshapes {
                        return Err(CoreError::Distributed(format!(
                            "gave up after {} reshapes (next: death of rank {dead_rank})",
                            reshapes.len()
                        )));
                    }
                    reshapes.push(dead_rank);
                    x0 = Some(guess);
                    let lost = dead.len().max(1);
                    if cfg.parts <= lost {
                        return Err(CoreError::Distributed(
                            "every worker died; nothing left to redistribute over".to_string(),
                        ));
                    }
                    cfg.parts -= lost;
                    // Drop the dead machines' splitting weights; the
                    // survivors keep their relative ordering.
                    if cfg.relative_speeds.len() == cfg.parts + lost {
                        let mut kept = Vec::with_capacity(cfg.parts);
                        for (rank, speed) in cfg.relative_speeds.iter().enumerate() {
                            if !dead.contains(&rank) {
                                kept.push(*speed);
                            }
                        }
                        kept.truncate(cfg.parts);
                        cfg.relative_speeds = kept;
                    } else {
                        cfg.relative_speeds = Vec::new();
                    }
                }
            }
        }
    }

    /// One round of [`Launcher::solve_elastic`]: ship, spawn, wait for every
    /// worker to exit (however it exits), then classify the outcome.
    #[allow(clippy::too_many_arguments)]
    fn run_elastic_attempt(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        cfg: &MultisplittingConfig,
        x0: Option<&[f64]>,
        worker_bin: &Path,
        job_dir: &Path,
        partition: &BandPartition,
    ) -> Result<Attempt, CoreError> {
        let world = cfg.parts;
        let start = Instant::now();
        if let Some(guess) = x0 {
            sparse_io::write_vector_file(guess, job_dir.join(job_files::INITIAL_GUESS))
                .map_err(CoreError::Sparse)?;
        }
        let spec = self.prepare_job(a, b, cfg, job_dir)?;
        let (mut children, spawn_result) = self.spawn_all(worker_bin, job_dir, world, None);
        let wait_result = spawn_result.and_then(|()| {
            let deadline = Instant::now() + self.config.timeout;
            Self::wait_until_all_exit(&mut children, deadline)
        });
        for child in children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        wait_result?;

        let results: Vec<Option<(RankMeta, Vec<f64>)>> = (0..world)
            .map(|rank| load_rank_result(job_dir, rank).ok())
            .collect();
        let dead: Vec<usize> = results
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| r.is_none().then_some(rank))
            .collect();
        let reshape = match Stop::merge(results.iter().flatten().map(|(meta, _)| meta.stop)).reason
        {
            StopReason::Reshape(dead_rank) => Some(dead_rank),
            _ => None,
        };
        if dead.is_empty() && reshape.is_none() {
            let results = results.into_iter().flatten().collect();
            return Ok(Attempt::Done(Self::gather_outcome(
                results, cfg, partition, start,
            )?));
        }
        let dead_rank = reshape.unwrap_or(dead[0]);
        let guess = Self::salvage_guess(job_dir, &spec, cfg, partition, &results)?;
        Ok(Attempt::Reshape {
            dead_rank,
            dead,
            guess,
        })
    }

    /// Best global iterate recoverable from a stopped job: each surviving
    /// rank's published slice, a dead rank's latest snapshot, zeros where
    /// nothing was recovered — assembled with the job's weighting scheme.
    fn salvage_guess(
        job_dir: &Path,
        spec: &JobSpec,
        cfg: &MultisplittingConfig,
        partition: &BandPartition,
        results: &[Option<(RankMeta, Vec<f64>)>],
    ) -> Result<Vec<f64>, CoreError> {
        let snapshots = checkpoint::scan(job_dir)?;
        let mut locals = Vec::with_capacity(results.len());
        for (rank, result) in results.iter().enumerate() {
            let expected = partition.extended_range(rank).len();
            let from_snapshot = || -> Option<Vec<f64>> {
                let iteration = *snapshots.get(&rank)?.last()?;
                let path = job_dir.join(checkpoint::checkpoint_file(rank, iteration));
                let ckpt = checkpoint::load_pinned(&path, spec.fingerprint).ok()?;
                (ckpt.x_sub.len() == expected).then_some(ckpt.x_sub)
            };
            let x_sub = match result {
                Some((_, x)) if x.len() == expected => x.clone(),
                _ => from_snapshot().unwrap_or_else(|| vec![0.0; expected]),
            };
            locals.push(x_sub);
        }
        Ok(cfg.weighting.assemble(partition, &locals))
    }

    /// Waits for every worker to exit, succeeding or not — elastic runs
    /// expect a killed worker and read the survivors' verdicts instead.
    fn wait_until_all_exit(
        children: &mut [Option<std::process::Child>],
        deadline: Instant,
    ) -> Result<(), CoreError> {
        loop {
            let mut all_done = true;
            for slot in children.iter_mut() {
                let Some(child) = slot else { continue };
                match child.try_wait() {
                    Ok(Some(_)) => *slot = None,
                    Ok(None) => all_done = false,
                    Err(e) => {
                        return Err(CoreError::Distributed(format!("wait on worker: {e}")));
                    }
                }
            }
            if all_done {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(CoreError::Distributed(
                    "elastic solve timed out waiting for workers to exit".to_string(),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn wait_for_workers(
        children: &mut [Option<std::process::Child>],
        deadline: Instant,
        job_dir: &Path,
    ) -> Result<(), CoreError> {
        loop {
            let mut all_done = true;
            for (rank, slot) in children.iter_mut().enumerate() {
                let Some(child) = slot else { continue };
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => {
                        *slot = None;
                    }
                    Ok(Some(status)) => {
                        return Err(CoreError::Distributed(format!(
                            "worker rank {rank} exited with {status}: {}",
                            log_tail(job_dir, rank)
                        )));
                    }
                    Ok(None) => all_done = false,
                    Err(e) => {
                        return Err(CoreError::Distributed(format!(
                            "wait on worker rank {rank}: {e}"
                        )));
                    }
                }
            }
            if all_done {
                return Ok(());
            }
            if Instant::now() >= deadline {
                let alive: Vec<usize> = children
                    .iter()
                    .enumerate()
                    .filter_map(|(r, c)| c.as_ref().map(|_| r))
                    .collect();
                return Err(CoreError::Distributed(format!(
                    "distributed solve timed out; workers still running: {alive:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn log_tail(job_dir: &Path, rank: usize) -> String {
    match std::fs::read_to_string(job_dir.join(job_files::worker_log(rank))) {
        Ok(text) => {
            let tail: Vec<&str> = text.lines().rev().take(5).collect();
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        }
        Err(_) => "(no log)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msplit-launcher-test-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn job_spec_round_trips_through_job_cfg() {
        let dir = temp_dir("jobspec");
        let spec = JobSpec {
            addrs: vec!["127.0.0.1:4001".into(), "127.0.0.1:4002".into()],
            fingerprint: 0xDEAD_BEEF_0123,
            config: MultisplittingConfig {
                parts: 2,
                overlap: 3,
                weighting: WeightingScheme::Average,
                solver_kind: SolverKind::BandLu,
                tolerance: 2.5e-9,
                max_iterations: 1234,
                mode: ExecutionMode::Asynchronous,
                async_confirmations: 7,
                relative_speeds: vec![1.0, 1.5],
                method: crate::solver::Method::Stationary,
            },
            delay: Some(LinkDelaySpec {
                grid: GridSpec::TwoSite {
                    site_a: 1,
                    site_b: 1,
                },
                time_scale: 1e-3,
            }),
            // Sub-second on purpose: serialization must not truncate to
            // whole seconds (a 500 ms budget shipped as 0 would make every
            // worker fail mesh formation instantly).
            peer_timeout: Duration::from_millis(45_500),
            checkpoint_every: 8,
            failure: FailurePolicy::Redistribute {
                heartbeat: Duration::from_millis(750),
            },
        };
        spec.store(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("job.cfg")).unwrap();
        assert!(!text.contains("rebalance="), "{text}");
        let back = JobSpec::load(&dir).unwrap();
        assert_eq!(back.addrs, spec.addrs);
        assert_eq!(back.fingerprint, spec.fingerprint);
        assert_eq!(back.config.parts, 2);
        assert_eq!(back.config.overlap, 3);
        assert_eq!(back.config.weighting, WeightingScheme::Average);
        assert_eq!(back.config.solver_kind, SolverKind::BandLu);
        assert_eq!(back.config.tolerance, 2.5e-9);
        assert_eq!(back.config.max_iterations, 1234);
        assert_eq!(back.config.mode, ExecutionMode::Asynchronous);
        assert_eq!(back.config.async_confirmations, 7);
        assert_eq!(back.config.relative_speeds, vec![1.0, 1.5]);
        assert_eq!(back.delay, spec.delay);
        assert_eq!(back.peer_timeout, spec.peer_timeout);
        assert_eq!(back.checkpoint_every, 8);
        assert_eq!(back.failure, spec.failure);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A pre-elastic job.cfg: no checkpoint/failure/rebalance keys.
    const PRE_ELASTIC_JOB_CFG: &str = "% msplit distributed job\n\
                                       addrs=127.0.0.1:4001\n\
                                       fingerprint=0xabc\n\
                                       parts=1\n\
                                       overlap=0\n\
                                       weighting=owner_takes\n\
                                       solver=sparse_lu\n\
                                       tolerance=1e-10\n\
                                       max_iterations=100\n\
                                       mode=sync\n\
                                       async_confirmations=3\n\
                                       relative_speeds=\n\
                                       delay_grid=none\n\
                                       delay_scale=0\n\
                                       peer_timeout_secs=60\n";

    #[test]
    fn job_cfg_without_fault_tolerance_keys_still_loads() {
        // Loading must fall back to the defaults, not error.
        let dir = temp_dir("jobspec-compat");
        std::fs::write(dir.join("job.cfg"), PRE_ELASTIC_JOB_CFG).unwrap();
        let spec = JobSpec::load(&dir).unwrap();
        assert_eq!(spec.checkpoint_every, 0);
        assert_eq!(spec.failure, FailurePolicy::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_dirs_with_removed_features_load_or_fail_by_name() {
        // Job directories written before rebalancing and FailFast were
        // removed: `rebalance=none` and a missing key load; values that ask
        // for a removed feature are typed errors naming it.
        let dir = temp_dir("jobspec-removed");
        let halt = FailurePolicy::HaltOnDeath {
            heartbeat: Duration::from_millis(250),
        };
        let cases: [(&str, Result<FailurePolicy, &str>); 4] = [
            (
                "checkpoint_every=0\nfailure=halt_on_death:2.50000000000000000e-1\nrebalance=none\n",
                Ok(halt),
            ),
            ("failure=halt_on_death:2.5e-1\n", Ok(halt)),
            ("rebalance=25:2.5e0\n", Err("rebalancing")),
            ("failure=fail_fast\n", Err("FailFast")),
        ];
        for (keys, expected) in cases {
            let text = format!("{PRE_ELASTIC_JOB_CFG}{keys}");
            std::fs::write(dir.join("job.cfg"), text).unwrap();
            match (JobSpec::load(&dir), expected) {
                (Ok(spec), Ok(policy)) => assert_eq!(spec.failure, policy, "{keys}"),
                (Err(CoreError::Distributed(msg)), Err(removed)) => {
                    assert!(msg.contains(removed), "{keys}: {msg}");
                }
                (got, want) => panic!("{keys}: got {got:?}, want {want:?}"),
            }
        }
        // rank_N.meta: a death reshape round-trips, a drift reshape is gone.
        let meta = RankMeta {
            stop: Stop::new(StopReason::Reshape(3), 7, 0.5),
            wall_seconds: 0.25,
        };
        store_rank_result(&dir, 0, &meta, &[1.0]).unwrap();
        let meta_path = dir.join(job_files::result_meta(0));
        let text = std::fs::read_to_string(&meta_path).unwrap();
        assert!(text.contains("stop=death:3\n"), "{text}");
        assert_eq!(load_rank_result(&dir, 0).unwrap().0, meta);
        std::fs::write(&meta_path, text.replace("death:3", "drift")).unwrap();
        match load_rank_result(&dir, 0) {
            Err(CoreError::Distributed(msg)) => assert!(msg.contains("speed-drift"), "{msg}"),
            other => panic!("stop=drift loaded: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failure_and_reshape_encodings_round_trip() {
        for policy in [
            FailurePolicy::HaltOnDeath {
                heartbeat: Duration::from_millis(250),
            },
            FailurePolicy::Redistribute {
                heartbeat: Duration::from_secs(2),
            },
        ] {
            assert_eq!(failure_from_str(&failure_to_str(policy)).unwrap(), policy);
        }
        assert!(failure_from_str("shrug").is_err());
        let reshape = StopReason::Reshape(3);
        assert_eq!(reason_from_str(&reason_to_str(reshape)).unwrap(), reshape);
        assert!(reason_from_str("sideways").is_err());
        assert!(reason_from_str("death:x").is_err());
    }

    #[test]
    fn grid_spec_parses_and_builds() {
        assert_eq!(
            GridSpec::parse("two_site:3:2").unwrap(),
            GridSpec::TwoSite {
                site_a: 3,
                site_b: 2
            }
        );
        assert_eq!(GridSpec::parse("cluster3").unwrap(), GridSpec::Cluster3);
        assert!(GridSpec::parse("moon_base").is_err());
        let g = GridSpec::TwoSite {
            site_a: 2,
            site_b: 2,
        }
        .build()
        .unwrap();
        assert_eq!(g.num_machines(), 4);
        assert_eq!(GridSpec::Cluster3.build().unwrap().num_machines(), 10);
    }

    #[test]
    fn rank_results_round_trip() {
        let dir = temp_dir("rankres");
        let x = vec![1.0, -2.5, 3.0e-4];
        for reason in [
            StopReason::Converged,
            StopReason::BudgetExhausted,
            StopReason::Halted,
            StopReason::Reshape(0),
        ] {
            let meta = RankMeta {
                stop: Stop::new(reason, 42, 3.25e-11),
                wall_seconds: 0.125,
            };
            store_rank_result(&dir, 1, &meta, &x).unwrap();
            let (m, v) = load_rank_result(&dir, 1).unwrap();
            assert_eq!(m, meta);
            assert_eq!(m.stop.norm.to_bits(), meta.stop.norm.to_bits());
            assert_eq!(v, x);
        }
        assert!(load_rank_result(&dir, 9).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_worker_binary_is_a_clean_error() {
        let launcher = Launcher::new(LauncherConfig {
            worker_binary: Some(PathBuf::from("/definitely/not/msplit-worker")),
            ..Default::default()
        });
        assert!(matches!(
            launcher.worker_binary(),
            Err(CoreError::Distributed(_))
        ));
    }
}
