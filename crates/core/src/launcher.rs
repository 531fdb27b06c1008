//! Multi-process launcher: spawns `msplit-worker` processes and gathers the
//! assembled solution.
//!
//! The launcher turns one in-memory system into an on-disk *job* and ships
//! each worker only its own part of it, as Algorithm 1 gives each processor
//! only `ASub`, `DepLeft`, `DepRight` and `BSub`.  It decomposes the system
//! once and writes, in the envelope of [`crate::codec`]:
//!
//! * the **job file** ([`job_files::JOB`], [`JobSpec`]): the solver
//!   configuration blob, the matrix fingerprint, the band sizes, the
//!   modelled link delays, the timeouts, the snapshot period, the failure
//!   policy and an optional global initial guess;
//! * one **band file** per rank ([`job_files::band`], [`RankBand`]): the
//!   rank's [`msplit_sparse::LocalBlocks`] and its halo peers;
//!
//! plus the plain-text [`job_files::ADDRS`] file, one listen address per
//! rank and line (a deployment setting: edit it to run ranks on other
//! hosts).  Each worker checks its band against the job, joins the TCP mesh
//! (the handshake pins the matrix fingerprint), runs
//! [`crate::distributed::run_rank`] and publishes one **result file**
//! ([`job_files::result`]): its stop record and its extended-range
//! solution slice.  The launcher assembles the slices with the configured
//! weighting scheme — the same gather the threaded drivers perform in
//! memory.

use crate::checkpoint;
use crate::codec::{self, write_atomic, Envelope};
use crate::runtime::{receive_sources, FailurePolicy};
use crate::solver::{Method, MultisplittingConfig};
use crate::stop::{Stop, StopReason};
use crate::CoreError;
use msplit_comm::codec::{put_blob, put_f64s, put_u64, Reader};
use msplit_comm::tcp::LinkDelay;
use msplit_grid::cluster;
use msplit_sparse::{BandPartition, CsrMatrix, LocalBlocks};
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

/// File names inside a job directory.
pub mod job_files {
    /// The job file ([`super::JobSpec`]).
    pub const JOB: &str = "job.bin";
    /// Listen address of every rank, one per line in rank order.
    pub const ADDRS: &str = "addrs";
    /// Rank `r`'s band file ([`super::RankBand`]).
    pub fn band(rank: usize) -> String {
        format!("band_{rank}.bin")
    }
    /// Rank `r`'s result file: stop record and solution slice.
    pub fn result(rank: usize) -> String {
        format!("result_{rank}.bin")
    }
    /// Rank `r`'s captured stdout/stderr.
    pub fn worker_log(rank: usize) -> String {
        format!("worker_{rank}.log")
    }
}

const JOB_FILE: Envelope = Envelope::new(b"MSPLTJOB", 1);
const BAND_FILE: Envelope = Envelope::new(b"MSPLTBND", 1);
const RESULT_FILE: Envelope = Envelope::new(b"MSPLTRES", 1);

/// The error of a job-directory file written in another format version.
fn wrong_version(found: u32, expected: u32) -> CoreError {
    CoreError::Codec(format!(
        "job-directory file of format version {found}, this build reads version {expected}"
    ))
}

fn read_file(path: &Path) -> Result<Vec<u8>, CoreError> {
    std::fs::read(path).map_err(|e| CoreError::Distributed(format!("read {}: {e}", path.display())))
}

fn publish(path: &Path, bytes: &[u8]) -> Result<(), CoreError> {
    write_atomic(path, bytes)
        .map_err(|e| CoreError::Distributed(format!("write {}: {e}", path.display())))
}

/// A duration as whole nanoseconds, saturating at `u64::MAX` (584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Appends a count-prefixed list of indices (band sizes, peer ranks).
fn put_usizes(buf: &mut Vec<u8>, values: &[usize]) {
    put_u64(buf, values.len() as u64);
    for &v in values {
        put_u64(buf, v as u64);
    }
}

fn read_usizes(r: &mut Reader<'_, CoreError>) -> Result<Vec<usize>, CoreError> {
    let n = r.count(8)?;
    (0..n).map(|_| r.u64().map(|v| v as usize)).collect()
}

/// The one method worker processes run.  The multi-process runtime is the
/// stationary rank loop; the Krylov outer loops run in process
/// ([`crate::krylov`]).  `Launcher::solve`, `Launcher::solve_elastic` and a
/// worker reading its job file all refuse anything else with this check.
fn check_method(config: &MultisplittingConfig) -> Result<(), CoreError> {
    match config.method {
        Method::Stationary => Ok(()),
        other => Err(CoreError::Distributed(format!(
            "worker processes run Method::Stationary only, not {other:?}; \
             solve in process (MultisplittingSolver or PreparedSystem) for a Krylov method"
        ))),
    }
}

/// Everything a worker process needs to join a job except its band and the
/// listen addresses: the job file of a job directory.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The numerical configuration; its method is always stationary.
    pub config: MultisplittingConfig,
    /// Fingerprint of the whole matrix (handshake + snapshot pin).
    pub fingerprint: u64,
    /// The band partition every rank agrees on; one worker per band.
    pub partition: BandPartition,
    /// Optional modelled link delays.
    pub delay: Option<LinkDelaySpec>,
    /// Stall budget for lockstep waits and mesh formation.
    pub peer_timeout: Duration,
    /// Snapshot period in outer iterations (0 disables checkpointing); the
    /// snapshots land next to the job files (see [`crate::checkpoint`]).
    pub checkpoint_every: u64,
    /// How workers react to a rank death observed mid-solve.
    pub failure: FailurePolicy,
    /// Global initial guess the workers warm-start from — how a
    /// redistributed job carries over pre-reshape progress.
    pub initial_guess: Option<Vec<f64>>,
}

impl JobSpec {
    /// World size (number of worker processes = bands).
    pub fn world_size(&self) -> usize {
        self.partition.num_parts()
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

    /// The job file's bytes.
    pub fn encode(&self) -> Vec<u8> {
        let config = codec::encode_config(&self.config);
        let guess = self.initial_guess.as_ref().map_or(0, Vec::len);
        let mut buf = JOB_FILE.start(config.len() + 8 * (self.world_size() + guess + 12));
        put_blob(&mut buf, &config);
        put_u64(&mut buf, self.fingerprint);
        let sizes: Vec<usize> = (0..self.world_size())
            .map(|band| self.partition.owned_range(band).len())
            .collect();
        put_usizes(&mut buf, &sizes);
        // No delay and the cluster3 grid encode their unused fields as zero.
        let (tag, site_a, site_b) = match self.delay.as_ref().map(|d| &d.grid) {
            None => (0, 0, 0),
            Some(GridSpec::TwoSite { site_a, site_b }) => (1, *site_a, *site_b),
            Some(GridSpec::Cluster3) => (2, 0, 0),
        };
        buf.push(tag);
        put_u64(&mut buf, site_a as u64);
        put_u64(&mut buf, site_b as u64);
        put_u64(
            &mut buf,
            self.delay.as_ref().map_or(0, |d| d.time_scale.to_bits()),
        );
        put_u64(&mut buf, nanos(self.peer_timeout));
        put_u64(&mut buf, self.checkpoint_every);
        let (tag, heartbeat) = match self.failure {
            FailurePolicy::HaltOnDeath { heartbeat } => (0, heartbeat),
            FailurePolicy::Redistribute { heartbeat } => (1, heartbeat),
        };
        buf.push(tag);
        put_u64(&mut buf, nanos(heartbeat));
        // No initial guess is an empty one: a real guess has one value per
        // unknown.
        put_f64s(&mut buf, self.initial_guess.as_deref().unwrap_or_default());
        Envelope::seal(buf)
    }

    /// Parses a job file.  The partition is rebuilt from the stored band
    /// sizes and the configured overlap, which reproduces uniform and
    /// speed-weighted partitions exactly; a non-stationary method is
    /// refused.
    pub fn decode(data: &[u8]) -> Result<Self, CoreError> {
        let mut r = JOB_FILE.open(data, "job file", CoreError::Codec, wrong_version)?;
        let config = codec::decode_config(r.blob()?)?;
        check_method(&config)?;
        let fingerprint = r.u64()?;
        let sizes = read_usizes(&mut r)?;
        if sizes.len() != config.parts {
            return Err(r.error(format_args!(
                "{} band sizes for a {}-part configuration",
                sizes.len(),
                config.parts
            )));
        }
        let partition = BandPartition::from_sizes(&sizes, config.overlap)
            .map_err(|e| r.error(format_args!("band sizes: {e}")))?;
        let (tag, site_a, site_b) = (r.u8()?, r.u64()? as usize, r.u64()? as usize);
        let grid = match tag {
            0 => None,
            1 => Some(GridSpec::TwoSite { site_a, site_b }),
            2 => Some(GridSpec::Cluster3),
            other => return Err(r.error(format_args!("unknown grid tag {other}"))),
        };
        let time_scale = r.f64()?;
        let delay = grid.map(|grid| LinkDelaySpec { grid, time_scale });
        let peer_timeout = Duration::from_nanos(r.u64()?);
        let checkpoint_every = r.u64()?;
        let failure = match (r.u8()?, Duration::from_nanos(r.u64()?)) {
            (0, heartbeat) => FailurePolicy::HaltOnDeath { heartbeat },
            (1, heartbeat) => FailurePolicy::Redistribute { heartbeat },
            (other, _) => return Err(r.error(format_args!("unknown failure policy {other}"))),
        };
        let initial_guess = match r.f64s()? {
            x0 if x0.is_empty() => None,
            x0 if x0.len() == partition.order() => Some(x0),
            x0 => {
                return Err(r.error(format_args!(
                    "initial guess of {} values for {} unknowns",
                    x0.len(),
                    partition.order()
                )))
            }
        };
        r.finish()?;
        Ok(JobSpec {
            config,
            fingerprint,
            partition,
            delay,
            peer_timeout,
            checkpoint_every,
            failure,
            initial_guess,
        })
    }

    /// Reads the job file of `dir`.
    pub fn load(dir: &Path) -> Result<Self, CoreError> {
        Self::decode(&read_file(&dir.join(job_files::JOB))?)
    }
}

/// Writes the listen address of every rank, one per line, into `dir`.
pub fn store_addrs(dir: &Path, addrs: &[String]) -> Result<(), CoreError> {
    publish(
        &dir.join(job_files::ADDRS),
        (addrs.join("\n") + "\n").as_bytes(),
    )
}

/// Reads the listen addresses of `dir` (blank lines skipped); there must be
/// one per rank of a `world`-rank job.
pub fn load_addrs(dir: &Path, world: usize) -> Result<Vec<String>, CoreError> {
    let path = dir.join(job_files::ADDRS);
    let addrs: Vec<String> = String::from_utf8_lossy(&read_file(&path)?)
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.len() != world {
        return Err(CoreError::Distributed(format!(
            "{} lists {} addresses for a {world}-rank job",
            path.display(),
            addrs.len()
        )));
    }
    Ok(addrs)
}

/// One worker's share of the system: its blocks and its halo peers, the
/// band file of a job directory.
#[derive(Debug, Clone)]
pub struct RankBand {
    /// The band's `ASub`, `DepLeft`, `DepRight` and `BSub` (the rank is
    /// `blocks.part`).
    pub blocks: LocalBlocks,
    /// The peers this rank's slice is sent to each iteration.
    pub send_targets: Vec<usize>,
    /// The peers whose slices this rank waits for in lockstep.
    pub senders_to_me: Vec<usize>,
}

impl RankBand {
    /// The band file's bytes, pinned to the job's matrix `fingerprint`.
    pub fn encode(&self, fingerprint: u64) -> Vec<u8> {
        let blk = &self.blocks;
        let nnz = blk.a_sub.nnz() + blk.dep_left.nnz() + blk.dep_right.nnz();
        let peers = self.send_targets.len() + self.senders_to_me.len();
        let mut buf = BAND_FILE.start(8 * (20 + 4 * blk.size + 2 * nnz + peers));
        put_u64(&mut buf, fingerprint);
        put_usizes(&mut buf, &[blk.part, blk.offset, blk.size, blk.total_size]);
        for block in [&blk.a_sub, &blk.dep_left, &blk.dep_right] {
            codec::put_matrix(&mut buf, block);
        }
        put_f64s(&mut buf, &blk.b_sub);
        put_usizes(&mut buf, &self.send_targets);
        put_usizes(&mut buf, &self.senders_to_me);
        Envelope::seal(buf)
    }

    /// Parses rank `rank`'s band file and checks that it fits `job`: the
    /// rank, the fingerprint, the extended range of the job's partition,
    /// the block shapes, the length of `b_sub` and the peer ranks.
    pub fn decode(data: &[u8], job: &JobSpec, rank: usize) -> Result<Self, CoreError> {
        let mut r = BAND_FILE.open(data, "band file", CoreError::Codec, wrong_version)?;
        let fingerprint = r.u64()?;
        let [part, offset, size, total_size] = <[usize; 4]>::try_from(read_usizes(&mut r)?)
            .map_err(|header| r.error(format_args!("band header of {} words", header.len())))?;
        let a_sub = codec::read_matrix(&mut r)?;
        let dep_left = codec::read_matrix(&mut r)?;
        let dep_right = codec::read_matrix(&mut r)?;
        let b_sub = r.f64s()?;
        let send_targets = read_usizes(&mut r)?;
        let senders_to_me = read_usizes(&mut r)?;
        r.finish()?;

        let world = job.world_size();
        if part != rank || rank >= world {
            return Err(CoreError::Codec(format!(
                "band file holds band {part}, expected {rank} of {world}"
            )));
        }
        let (n, range) = (job.partition.order(), job.partition.extended_range(rank));
        let found = (
            fingerprint,
            (offset, size, total_size),
            [a_sub.rows(), a_sub.cols(), dep_left.rows(), dep_left.cols()],
            [dep_right.rows(), dep_right.cols(), b_sub.len()],
        );
        let expected = (
            job.fingerprint,
            (range.start, range.len(), n),
            [range.len(), range.len(), range.len(), range.start],
            [range.len(), n - range.end, range.len()],
        );
        let foreign_peer = send_targets
            .iter()
            .chain(&senders_to_me)
            .any(|&peer| peer >= world || peer == rank);
        if found != expected || foreign_peer {
            return Err(CoreError::Codec(format!(
                "band file does not fit rank {rank} of the job: fingerprint, \
                 (offset, size, order), block shapes and BSub length are {found:?}, \
                 expected {expected:?}; peers {send_targets:?} / {senders_to_me:?}"
            )));
        }
        Ok(RankBand {
            blocks: LocalBlocks {
                part,
                offset,
                size,
                total_size,
                a_sub,
                dep_left,
                dep_right,
                b_sub,
            },
            send_targets,
            senders_to_me,
        })
    }

    /// Reads and checks rank `rank`'s band file of `dir` (see
    /// [`RankBand::decode`]).
    pub fn load(dir: &Path, job: &JobSpec, rank: usize) -> Result<Self, CoreError> {
        Self::decode(&read_file(&dir.join(job_files::band(rank)))?, job, rank)
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

fn encode_rank_result(meta: &RankMeta, x_local: &[f64]) -> Vec<u8> {
    let mut buf = RESULT_FILE.start(1 + 8 * (5 + x_local.len()));
    let (tag, dead) = match meta.stop.reason {
        StopReason::Converged => (0, 0),
        StopReason::BudgetExhausted => (1, 0),
        StopReason::Halted => (2, 0),
        StopReason::Reshape(dead) => (3, dead as u64),
    };
    buf.push(tag);
    for word in [
        dead,
        meta.stop.iterations,
        meta.stop.norm.to_bits(),
        meta.wall_seconds.to_bits(),
    ] {
        put_u64(&mut buf, word);
    }
    put_f64s(&mut buf, x_local);
    Envelope::seal(buf)
}

fn decode_rank_result(data: &[u8]) -> Result<(RankMeta, Vec<f64>), CoreError> {
    let mut r = RESULT_FILE.open(data, "result file", CoreError::Codec, wrong_version)?;
    let reason = match (r.u8()?, r.u64()?) {
        (0, _) => StopReason::Converged,
        (1, _) => StopReason::BudgetExhausted,
        (2, _) => StopReason::Halted,
        (3, dead) => StopReason::Reshape(dead as usize),
        (other, _) => return Err(r.error(format_args!("unknown stop reason {other}"))),
    };
    let stop = Stop::new(reason, r.u64()?, r.f64()?);
    let wall_seconds = r.f64()?;
    let x = r.f64s()?;
    r.finish()?;
    Ok((RankMeta { stop, wall_seconds }, x))
}

/// Publishes a rank's result file (metadata + solution slice) in the job
/// directory, atomically: its presence implies a complete result.
pub fn store_rank_result(
    dir: &Path,
    rank: usize,
    meta: &RankMeta,
    x_local: &[f64],
) -> Result<(), CoreError> {
    publish(
        &dir.join(job_files::result(rank)),
        &encode_rank_result(meta, x_local),
    )
}

/// Reads a rank's result file back (launcher side).
pub fn load_rank_result(dir: &Path, rank: usize) -> Result<(RankMeta, Vec<f64>), CoreError> {
    decode_rank_result(&read_file(&dir.join(job_files::result(rank)))?)
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
        check_method(config)?;
        let worker_bin = self.worker_binary()?;
        self.in_job_dir(|job_dir| {
            let spec = self.prepare_job(a, b, config, None, job_dir)?;
            self.run_to_completion(&worker_bin, job_dir, &spec, None, start)
        })
    }

    /// Runs `f` in a fresh job directory, which is removed afterwards unless
    /// `keep_job_dir` is set.
    fn in_job_dir<T>(&self, f: impl FnOnce(&Path) -> Result<T, CoreError>) -> Result<T, CoreError> {
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
        let result = f(&dir);
        if self.config.keep_job_dir {
            eprintln!("launcher: job directory kept at {}", dir.display());
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
        result
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

    /// Ships the system into `job_dir` so workers can be spawned against
    /// it: decomposes it once, writes one band file per rank (each band's
    /// blocks are freed as its file is written), the job file, and freshly
    /// reserved loopback addresses.  The first half of [`Launcher::solve`],
    /// exposed for tests and tools that manage worker processes themselves
    /// (e.g. kill-and-resume drills).
    pub fn prepare_job(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        config: &MultisplittingConfig,
        initial_guess: Option<Vec<f64>>,
        job_dir: &Path,
    ) -> Result<JobSpec, CoreError> {
        let decomposition = config.decompose(a, b)?;
        let send_targets = decomposition.send_targets();
        let senders = receive_sources(&send_targets);
        let fingerprint = a.fingerprint();
        let (partition, blocks) = decomposition.into_blocks();
        for ((blocks, send_targets), senders_to_me) in
            blocks.into_iter().zip(send_targets).zip(senders)
        {
            let band = RankBand {
                blocks,
                send_targets,
                senders_to_me,
            };
            publish(
                &job_dir.join(job_files::band(band.blocks.part)),
                &band.encode(fingerprint),
            )?;
        }
        let spec = JobSpec {
            config: config.clone(),
            fingerprint,
            partition,
            delay: self.config.delay.clone(),
            peer_timeout: self.config.peer_timeout,
            checkpoint_every: self.config.checkpoint_every,
            failure: self.config.failure,
            initial_guess,
        };
        publish(&job_dir.join(job_files::JOB), &spec.encode())?;
        store_addrs(job_dir, &Self::reserve_addrs(spec.world_size())?)?;
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

    /// Spawns every worker of the job in `job_dir` and waits for all of them
    /// to exit.  With `fail_fast` the first worker that exits unsuccessfully
    /// ends the run with its log tail; without it (elastic runs, which
    /// expect a killed worker and read the survivors' verdicts instead)
    /// every exit counts.  No worker outlives the call.
    fn run_workers(
        &self,
        worker_bin: &Path,
        job_dir: &Path,
        world: usize,
        resume_at: Option<u64>,
        fail_fast: bool,
    ) -> Result<(), CoreError> {
        let mut children = Vec::with_capacity(world);
        let mut result = (0..world).try_for_each(|rank| {
            children.push(Some(
                self.spawn_worker(worker_bin, job_dir, rank, resume_at)?,
            ));
            Ok(())
        });
        let deadline = Instant::now() + self.config.timeout;
        while result.is_ok() {
            let mut alive = Vec::new();
            for (rank, slot) in children.iter_mut().enumerate() {
                let Some(child) = slot else { continue };
                match child.try_wait() {
                    Ok(Some(status)) if status.success() || !fail_fast => *slot = None,
                    Ok(Some(status)) => {
                        result = Err(CoreError::Distributed(format!(
                            "worker rank {rank} exited with {status}: {}",
                            log_tail(job_dir, rank)
                        )));
                    }
                    Ok(None) => alive.push(rank),
                    Err(e) => {
                        result = Err(CoreError::Distributed(format!(
                            "wait on worker rank {rank}: {e}"
                        )));
                    }
                }
            }
            if alive.is_empty() || result.is_err() {
                break;
            }
            if Instant::now() >= deadline {
                result = Err(CoreError::Distributed(format!(
                    "distributed solve timed out; workers still running: {alive:?}"
                )));
            } else {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        // Whatever happened — wait error, timeout, or a failure partway
        // through spawning — no child may outlive the job.
        for child in children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        result
    }

    /// Spawns every worker of the job in `job_dir`, waits for all of them to
    /// succeed, and gathers their published results.
    fn run_to_completion(
        &self,
        worker_bin: &Path,
        job_dir: &Path,
        spec: &JobSpec,
        resume_at: Option<u64>,
        start: Instant,
    ) -> Result<DistributedOutcome, CoreError> {
        let world = spec.world_size();
        self.run_workers(worker_bin, job_dir, world, resume_at, true)?;
        let results = (0..world)
            .map(|rank| load_rank_result(job_dir, rank))
            .collect::<Result<Vec<_>, _>>()?;
        Self::gather_outcome(results, spec, start)
    }

    /// Assembles the global solution from every rank's published result.
    fn gather_outcome(
        results: Vec<(RankMeta, Vec<f64>)>,
        spec: &JobSpec,
        start: Instant,
    ) -> Result<DistributedOutcome, CoreError> {
        let (world, partition) = (spec.world_size(), &spec.partition);
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
        let x = spec.config.weighting.assemble(partition, &locals);
        Ok(DistributedOutcome::new(
            x,
            Stop::merge(stops.iter().copied()),
            stops.iter().map(|stop| stop.iterations).collect(),
            start.elapsed().as_secs_f64(),
        ))
    }

    /// Resumes a killed or interrupted job from its snapshots.
    ///
    /// `job_dir` must hold a complete job (job file, band files) written
    /// with `checkpoint_every > 0` whose workers are no longer running.  The
    /// launcher finds the highest iteration *every* rank has a snapshot for,
    /// rewrites the addresses file (the original ports are gone with the
    /// original processes; the job file is never rewritten), clears stale
    /// results and respawns every worker with `--resume-at`.  In synchronous
    /// mode the resumed solution is bitwise-identical to an uninterrupted
    /// run's.  A directory without a job file is an error before any worker
    /// spawns.
    pub fn resume(&self, job_dir: &Path) -> Result<DistributedOutcome, CoreError> {
        let start = Instant::now();
        let spec = JobSpec::load(job_dir)?;
        let world = spec.world_size();
        let resume_at = checkpoint::max_common_iteration(job_dir, world)?.ok_or_else(|| {
            CoreError::Distributed(format!(
                "cannot resume {}: no iteration has a snapshot from every rank",
                job_dir.display()
            ))
        })?;
        store_addrs(job_dir, &Self::reserve_addrs(world)?)?;
        for rank in 0..world {
            let _ = std::fs::remove_file(job_dir.join(job_files::result(rank)));
        }
        let worker_bin = self.worker_binary()?;
        self.run_to_completion(&worker_bin, job_dir, &spec, Some(resume_at), start)
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
        check_method(config)?;
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
            let attempt = self.in_job_dir(|job_dir| {
                self.run_elastic_attempt(a, b, &cfg, x0.take(), &worker_bin, job_dir)
            });
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
    fn run_elastic_attempt(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        cfg: &MultisplittingConfig,
        x0: Option<Vec<f64>>,
        worker_bin: &Path,
        job_dir: &Path,
    ) -> Result<Attempt, CoreError> {
        let world = cfg.parts;
        let start = Instant::now();
        let spec = self.prepare_job(a, b, cfg, x0, job_dir)?;
        self.run_workers(worker_bin, job_dir, world, None, false)?;

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
            return Ok(Attempt::Done(Self::gather_outcome(results, &spec, start)?));
        }
        let dead_rank = reshape.unwrap_or(dead[0]);
        let guess = Self::salvage_guess(job_dir, &spec, &results)?;
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
        results: &[Option<(RankMeta, Vec<f64>)>],
    ) -> Result<Vec<f64>, CoreError> {
        let partition = &spec.partition;
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
        Ok(spec.config.weighting.assemble(partition, &locals))
    }
}

fn log_tail(job_dir: &Path, rank: usize) -> String {
    match std::fs::read(job_dir.join(job_files::worker_log(rank))) {
        Ok(bytes) => {
            let text = String::from_utf8_lossy(&bytes);
            let tail: Vec<&str> = text.lines().rev().take(5).collect();
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        }
        Err(_) => "(no log)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::hex;
    use crate::ExecutionMode;
    use msplit_sparse::generators;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("msplit-launcher-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A small job exercising every optional field.
    fn sample_job() -> JobSpec {
        let config = MultisplittingConfig {
            parts: 2,
            mode: ExecutionMode::Asynchronous,
            relative_speeds: vec![1.0, 1.5],
            ..Default::default()
        };
        JobSpec {
            partition: BandPartition::from_sizes(&[3, 2], config.overlap).unwrap(),
            config,
            fingerprint: 0xDEAD_BEEF_0123,
            delay: Some(LinkDelaySpec {
                grid: GridSpec::TwoSite {
                    site_a: 1,
                    site_b: 1,
                },
                time_scale: 1e-3,
            }),
            // Sub-second on purpose: a 500 ms budget shipped as 0 would make
            // every worker fail mesh formation instantly.
            peer_timeout: Duration::from_millis(45_500),
            checkpoint_every: 8,
            failure: FailurePolicy::Redistribute {
                heartbeat: Duration::from_millis(750),
            },
            initial_guess: Some(vec![0.5, -1.0, 0.0, 2.0, 4.0]),
        }
    }

    /// Rank 1's band (rows 3 and 4) of a 5-unknown tridiagonal system split
    /// as [`sample_job`] splits it.
    fn sample_band() -> RankBand {
        let a = generators::tridiagonal(5, 4.0, -1.0);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        RankBand {
            blocks: LocalBlocks::extract(&a, &b, &sample_job().partition, 1).unwrap(),
            send_targets: vec![0],
            senders_to_me: vec![0],
        }
    }

    fn sample_meta() -> RankMeta {
        RankMeta {
            stop: Stop::new(StopReason::Reshape(3), 42, 3.25e-11),
            wall_seconds: 0.125,
        }
    }

    #[test]
    fn job_file_round_trips_every_field() {
        // Jobs without a delay or an initial guess round-trip through
        // `prepare_job` below.
        let cluster3 = JobSpec {
            delay: Some(LinkDelaySpec {
                grid: GridSpec::Cluster3,
                time_scale: 1.0,
            }),
            failure: FailurePolicy::default(),
            ..sample_job()
        };
        for spec in [sample_job(), cluster3] {
            let back = JobSpec::decode(&spec.encode()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{spec:?}"));
        }
        // Durations are whole nanoseconds, saturating instead of panicking.
        let forever = JobSpec {
            peer_timeout: Duration::MAX,
            ..sample_job()
        };
        let back = JobSpec::decode(&forever.encode()).unwrap();
        assert_eq!(back.peer_timeout, Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn prepared_jobs_rebuild_uniform_and_speed_weighted_partitions_exactly() {
        let a = generators::tridiagonal(101, 4.0, -1.0);
        let b = vec![1.0; 101];
        for speeds in [vec![], vec![1.0, 1.5, 0.7]] {
            let config = MultisplittingConfig {
                parts: 3,
                overlap: 4,
                relative_speeds: speeds,
                ..Default::default()
            };
            let dir = temp_dir("partition");
            let spec = Launcher::default().prepare_job(&a, &b, &config, None, &dir);
            let job = JobSpec::load(&dir).unwrap();
            assert_eq!(format!("{job:?}"), format!("{:?}", spec.unwrap()));
            let decomposition = config.decompose(&a, &b).unwrap();
            assert_eq!(&job.partition, decomposition.partition());
            assert_eq!(load_addrs(&dir, 3).unwrap().len(), 3);
            assert!(load_addrs(&dir, 2).is_err());
            for (rank, targets) in decomposition.send_targets().iter().enumerate() {
                let band = RankBand::load(&dir, &job, rank).unwrap();
                let want = decomposition.blocks(rank);
                assert_eq!(format!("{:?}", band.blocks), format!("{want:?}"));
                assert_eq!(&band.send_targets, targets);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The multi-process runtime runs the stationary method only: a Krylov
    /// method is a typed error before any worker spawns, not a stationary
    /// answer, and a worker refuses a job file that carries one.
    #[test]
    fn krylov_methods_are_refused_not_downgraded() {
        let (a, b) = (generators::tridiagonal(5, 4.0, -1.0), [1.0; 5]);
        let launcher = Launcher::new(LauncherConfig {
            failure: FailurePolicy::Redistribute {
                heartbeat: Duration::from_millis(200),
            },
            ..Default::default()
        });
        let refused =
            |e: CoreError| matches!(&e, CoreError::Distributed(m) if m.contains("Stationary"));
        let mut spec = sample_job();
        for method in [
            Method::Richardson { inner_sweeps: 1 },
            Method::Fgmres {
                restart: 10,
                inner_sweeps: 1,
            },
        ] {
            spec.config.method = method;
            assert!(refused(launcher.solve(&a, &b, &spec.config).unwrap_err()));
            let elastic = launcher.solve_elastic(&a, &b, &spec.config, 1);
            assert!(refused(elastic.unwrap_err()));
            assert!(refused(JobSpec::decode(&spec.encode()).unwrap_err()));
        }
    }

    #[test]
    fn a_band_that_does_not_fit_the_job_is_refused() {
        let (job, band) = (sample_job(), sample_band());
        let bytes = band.encode(job.fingerprint);
        let refused = |bytes: &[u8], job: &JobSpec, rank: usize| {
            let got = RankBand::decode(bytes, job, rank);
            matches!(got, Err(CoreError::Codec(msg)) if msg.contains("band file"))
        };
        assert!(!refused(&bytes, &job, 1));
        // Another rank, another matrix, another partition.
        assert!(refused(&bytes, &job, 0) && refused(&bytes, &job, 7));
        assert!(refused(&band.encode(job.fingerprint ^ 1), &job, 1));
        let other_split = JobSpec {
            partition: BandPartition::from_sizes(&[2, 3], 0).unwrap(),
            ..sample_job()
        };
        assert!(refused(&bytes, &other_split, 1));
        // A block of the wrong shape, a short BSub, a peer out of range.
        let edits: [fn(&mut RankBand); 3] = [
            |b| b.blocks.dep_left = generators::tridiagonal(2, 1.0, 0.0),
            |b| b.blocks.b_sub.truncate(1),
            |b| b.send_targets = vec![2],
        ];
        for edit in edits {
            let mut wrong = band.clone();
            edit(&mut wrong);
            assert!(refused(&wrong.encode(job.fingerprint), &job, 1));
        }
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
            StopReason::Reshape(3),
        ] {
            let meta = RankMeta {
                stop: Stop::new(reason, 42, 3.25e-11),
                ..sample_meta()
            };
            store_rank_result(&dir, 1, &meta, &x).unwrap();
            assert_eq!(load_rank_result(&dir, 1).unwrap(), (meta, x.clone()));
        }
        assert!(load_rank_result(&dir, 9).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file of a job directory, cut short at every length and with
    /// every single byte flipped: a typed error, never a panic.
    #[test]
    fn truncated_and_flipped_job_files_are_typed_errors() {
        let job = sample_job();
        type Decode<'a> = &'a dyn Fn(&[u8]) -> Result<(), CoreError>;
        let decoders: [(Vec<u8>, Decode); 3] = [
            (job.encode(), &|d| JobSpec::decode(d).map(drop)),
            (sample_band().encode(job.fingerprint), &|d| {
                RankBand::decode(d, &job, 1).map(drop)
            }),
            (encode_rank_result(&sample_meta(), &[1.0, -2.5]), &|d| {
                decode_rank_result(d).map(drop)
            }),
        ];
        let typed = |got: Result<(), CoreError>| matches!(got, Err(CoreError::Codec(_)));
        for (bytes, decode) in decoders {
            decode(&bytes).unwrap();
            for cut in 0..bytes.len() {
                assert!(typed(decode(&bytes[..cut])), "cut {cut}");
            }
            for pos in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x20;
                assert!(typed(decode(&bad)), "flip {pos}");
            }
        }
    }

    /// The exact bytes of each job-directory file, pinned independently of
    /// the decoders (a round trip cannot see a change made to both sides).
    #[test]
    fn job_directory_bytes_are_stable() {
        let job = sample_job();
        assert_eq!(
            hex(&job.encode()),
            "4d53504c544a4f42010000005500000000000000020200000000000000000000\
             00000000000000013a8c30e28e79453e10270000000000000300000000000000\
             0200000000000000000000000000f03f000000000000f83f0000000000000000\
             0000000000000000002301efbeadde0000020000000000000003000000000000\
             0002000000000000000101000000000000000100000000000000fca9f1d24d62\
             503f00e702980a0000000800000000000000018017b42c000000000500000000\
             000000000000000000e03f000000000000f0bf00000000000000000000000000\
             00004000000000000010406f360646f4eb3d80"
        );
        assert_eq!(
            hex(&sample_band().encode(job.fingerprint)),
            "4d53504c54424e44010000002301efbeadde0000040000000000000001000000\
             0000000003000000000000000200000000000000050000000000000001020000\
             0000000000020000000000000004000000000000000000000000000000020000\
             0000000000040000000000000000000000000000000100000000000000000000\
             000000000001000000000000000000000000001040000000000000f0bf000000\
             000000f0bf000000000000104001020000000000000003000000000000000100\
             0000000000000000000000000000010000000000000001000000000000000200\
             000000000000000000000000f0bf010200000000000000000000000000000000\
             0000000000000000000000000000000000000000000000000000000000000002\
             0000000000000000000000000010400000000000001440010000000000000000\
             00000000000000010000000000000000000000000000008ba827d3c29a5418"
        );
        assert_eq!(
            hex(&encode_rank_result(&sample_meta(), &[1.0, -2.5, 3.0e-4])),
            "4d53504c54524553010000000303000000000000002a00000000000000b9a132\
             e7f7ddc13d000000000000c03f0300000000000000000000000000f03f000000\
             00000004c0613255302aa9333ffb38fd5cb11561ba"
        );
    }

    #[test]
    fn grid_spec_parses_and_builds() {
        let g = GridSpec::TwoSite {
            site_a: 2,
            site_b: 2,
        };
        assert_eq!(g.build().unwrap().num_machines(), 4);
        assert_eq!(GridSpec::Cluster3.build().unwrap().num_machines(), 10);
    }

    #[test]
    fn a_directory_without_a_job_file_does_not_resume() {
        // A job directory of the retired text format has no job file:
        // resume stops before it looks for snapshots or a worker binary.
        let dir = temp_dir("oldjob");
        std::fs::write(dir.join("job.cfg"), "parts=1\n").unwrap();
        let err = Launcher::default().resume(&dir).unwrap_err();
        assert!(matches!(&err, CoreError::Distributed(m) if m.contains(job_files::JOB)));
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
