//! Versioned, fingerprint-pinned per-rank snapshots for checkpoint/restart.
//!
//! A multisplitting job on an unreliable grid must survive rank death without
//! re-iterating from zero.  Because the [`crate::runtime::RankEngine`] is a
//! *pure* state machine, the complete per-rank iteration state is small and
//! explicit: the local iterate, the halo (the latest dependency slice
//! received from each peer, with its iteration stamp), the previous
//! dependency values, and the convergence-window progress.  This module
//! persists exactly that state every K outer iterations, and restores it so
//! that a resumed **synchronous** run continues bitwise-identically to an
//! uninterrupted one (asynchronous runs resume from the same numeric state
//! but their message interleaving is not reproducible — see
//! `docs/fault-tolerance.md`).
//!
//! The on-disk format is specified byte-for-byte in
//! `docs/checkpoint-format.md`: a fixed little-endian header carrying a magic
//! number, a format version, the matrix fingerprint (the same FNV-1a
//! fingerprint the TCP handshake pins), the world size and rank, followed by
//! the engine state and an FNV-1a checksum trailer.  Decoding never panics on
//! truncated or corrupted input — every failure is a typed
//! [`CheckpointError`], fuzzed like the torn-frame wire tests.
//!
//! Snapshot files are written atomically (tmp + rename, in the envelope of
//! [`crate::codec`]) as
//! `ckpt_r<rank>_i<iteration>.bin`; the last [`KEEP_CHECKPOINTS`] per rank
//! are retained.  Lockstep ranks can be at most one iteration apart when a
//! job dies, so keeping two boundaries guarantees a common restart iteration
//! exists across every rank — [`max_common_iteration`] finds it.

use crate::codec::{write_atomic, Envelope};
use crate::runtime::{EngineSnapshot, RankEngine, VoteState};
use crate::CoreError;
use msplit_comm::codec::{put_f64s, put_u64};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"MSPLTCKP";

/// Current snapshot format version.
pub const FORMAT_VERSION: u32 = 1;

/// How many checkpoints per rank are retained (older ones are pruned).
/// Two, because lockstep ranks are at most one iteration apart at death:
/// the newest boundary of the slowest rank is always covered.
pub const KEEP_CHECKPOINTS: usize = 2;

/// Typed failure of a checkpoint operation — corruption and mismatches are
/// errors, never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Filesystem failure (read, write, rename, scan).
    Io(String),
    /// The file is truncated, has a bad magic number, a bad checksum, or an
    /// internally inconsistent length field.
    Corrupt(String),
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The snapshot belongs to a different matrix.
    FingerprintMismatch {
        /// Fingerprint found in the file header.
        found: u64,
        /// Fingerprint of the system being solved.
        expected: u64,
    },
    /// The snapshot does not fit the engine it is being restored into
    /// (different world size, rank, or block shape).
    ShapeMismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} (this build reads version {expected})"
            ),
            CheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#x} does not match system fingerprint {expected:#x}"
            ),
            CheckpointError::ShapeMismatch(msg) => write!(f, "checkpoint shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The halo entry for one peer: the iteration stamp and, when a slice has
/// been received, its global offset and values.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloPeer {
    /// Iteration stamp of the most recent slice from this peer.
    pub stamp: u64,
    /// `(global offset, values)` of that slice, if any arrived.
    pub slice: Option<(usize, Vec<f64>)>,
}

/// One rank's complete iteration state at an outer-iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCheckpoint {
    /// FNV-1a fingerprint of the system matrix the snapshot belongs to.
    pub fingerprint: u64,
    /// Number of ranks in the job.
    pub world: usize,
    /// The rank this snapshot belongs to.
    pub rank: usize,
    /// Outer iterations completed at snapshot time.
    pub iteration: u64,
    /// Last observed increment norm.
    pub last_increment: f64,
    /// Convergence-window progress ([`crate::runtime::VoteState`]).
    pub vote_consecutive: u64,
    /// Whether fresh halo data arrived since the last step.
    pub fresh_since_step: bool,
    /// The local iterate over the rank's extended range.
    pub x_sub: Vec<f64>,
    /// Previous dependency values (for the dependency-movement observation).
    pub prev_deps: Vec<f64>,
    /// Halo state, one entry per peer rank (`halo.len() == world`).
    pub halo: Vec<HaloPeer>,
}

/// The snapshot file format in the shared envelope (see [`crate::codec`]).
const ENVELOPE: Envelope = Envelope::new(MAGIC, FORMAT_VERSION);

impl RankCheckpoint {
    /// Serializes the snapshot into the versioned on-disk byte layout
    /// (see `docs/checkpoint-format.md`).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = ENVELOPE.start(
            84 + 8 * (self.x_sub.len() + self.prev_deps.len())
                + self
                    .halo
                    .iter()
                    .map(|h| 25 + h.slice.as_ref().map_or(0, |(_, v)| 8 * v.len()))
                    .sum::<usize>(),
        );
        buf.extend_from_slice(&0u32.to_le_bytes()); // flags, reserved
        for word in [
            self.fingerprint,
            self.world as u64,
            self.rank as u64,
            self.iteration,
            self.last_increment.to_bits(),
            self.vote_consecutive,
        ] {
            put_u64(&mut buf, word);
        }
        buf.push(u8::from(self.fresh_since_step));
        put_f64s(&mut buf, &self.x_sub);
        put_f64s(&mut buf, &self.prev_deps);
        put_u64(&mut buf, self.halo.len() as u64);
        for peer in &self.halo {
            put_u64(&mut buf, peer.stamp);
            match &peer.slice {
                None => buf.push(0),
                Some((offset, values)) => {
                    buf.push(1);
                    put_u64(&mut buf, *offset as u64);
                    put_f64s(&mut buf, values);
                }
            }
        }
        Envelope::seal(buf)
    }

    /// Parses a snapshot produced by [`RankCheckpoint::encode`].  Magic,
    /// version and checksum are validated; any truncation or inconsistency
    /// is a typed error, never a panic.
    pub fn decode(data: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ENVELOPE.open(
            data,
            "snapshot",
            CheckpointError::Corrupt,
            |found, expected| CheckpointError::VersionMismatch { found, expected },
        )?;
        let _flags = r.u32()?;
        let fingerprint = r.u64()?;
        let world = r.u64()? as usize;
        let rank = r.u64()? as usize;
        if rank >= world {
            return Err(r.error(format_args!("rank {rank} out of range for world {world}")));
        }
        let iteration = r.u64()?;
        let last_increment = r.f64()?;
        let vote_consecutive = r.u64()?;
        let fresh_since_step = r.u8()? != 0;
        let x_sub = r.f64s()?;
        let prev_deps = r.f64s()?;
        // Every halo entry holds at least its stamp and presence flag.
        let peers = r.count(9)?;
        if peers != world {
            return Err(r.error(format_args!(
                "halo has {peers} entries for a world of {world}"
            )));
        }
        let mut halo = Vec::with_capacity(peers);
        for _ in 0..peers {
            let stamp = r.u64()?;
            let slice = if r.u8()? != 0 {
                Some((r.u64()? as usize, r.f64s()?))
            } else {
                None
            };
            halo.push(HaloPeer { stamp, slice });
        }
        r.finish()?;
        Ok(RankCheckpoint {
            fingerprint,
            world,
            rank,
            iteration,
            last_increment,
            vote_consecutive,
            fresh_since_step,
            x_sub,
            prev_deps,
            halo,
        })
    }

    /// Builds a snapshot from a live engine and its convergence-window state.
    pub fn capture(
        engine: &RankEngine,
        vote: VoteState,
        fingerprint: u64,
        world: usize,
    ) -> Result<Self, CoreError> {
        let snap: EngineSnapshot = engine.snapshot();
        Ok(RankCheckpoint {
            fingerprint,
            world,
            rank: engine.rank(),
            iteration: snap.iterations,
            last_increment: snap.last_increment,
            vote_consecutive: vote.consecutive,
            fresh_since_step: snap.fresh_since_step,
            x_sub: snap.x_sub,
            prev_deps: snap.prev_deps,
            halo: snap
                .halo
                .into_iter()
                .map(|(stamp, slice)| HaloPeer { stamp, slice })
                .collect(),
        })
    }

    /// Restores this snapshot into `engine` and returns the convergence
    /// window to feed back into the local vote.
    pub fn restore_into(&self, engine: &mut RankEngine) -> Result<VoteState, CoreError> {
        let snap = EngineSnapshot {
            iterations: self.iteration,
            last_increment: self.last_increment,
            fresh_since_step: self.fresh_since_step,
            x_sub: self.x_sub.clone(),
            prev_deps: self.prev_deps.clone(),
            halo: self
                .halo
                .iter()
                .map(|p| (p.stamp, p.slice.clone()))
                .collect(),
        };
        engine.restore(&snap)?;
        Ok(VoteState {
            consecutive: self.vote_consecutive,
            last_increment: self.last_increment,
        })
    }
}

/// Snapshot file name of (`rank`, `iteration`).
pub fn checkpoint_file(rank: usize, iteration: u64) -> String {
    format!("ckpt_r{rank}_i{iteration}.bin")
}

fn parse_checkpoint_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("ckpt_r")?.strip_suffix(".bin")?;
    let (rank, iter) = rest.split_once("_i")?;
    Some((rank.parse().ok()?, iter.parse().ok()?))
}

/// Writes `ckpt` atomically into `dir` (tmp + rename) and prunes this rank's
/// older snapshots down to [`KEEP_CHECKPOINTS`].
pub fn save(dir: &Path, ckpt: &RankCheckpoint) -> Result<PathBuf, CoreError> {
    let path = dir.join(checkpoint_file(ckpt.rank, ckpt.iteration));
    write_atomic(&path, &ckpt.encode())
        .map_err(|e| CheckpointError::Io(format!("write {}: {e}", path.display())))?;
    let mut iters: Vec<u64> = scan(dir)?.remove(&ckpt.rank).unwrap_or_default();
    iters.sort_unstable();
    while iters.len() > KEEP_CHECKPOINTS {
        let old = iters.remove(0);
        let _ = std::fs::remove_file(dir.join(checkpoint_file(ckpt.rank, old)));
    }
    Ok(path)
}

/// Loads and parses one snapshot file.
pub fn load(path: &Path) -> Result<RankCheckpoint, CheckpointError> {
    let data = std::fs::read(path)
        .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
    RankCheckpoint::decode(&data)
}

/// Loads one snapshot and pins it to the system being solved: a snapshot of
/// a different matrix is rejected with
/// [`CheckpointError::FingerprintMismatch`] before any state is restored.
pub fn load_pinned(path: &Path, fingerprint: u64) -> Result<RankCheckpoint, CheckpointError> {
    let ckpt = load(path)?;
    if ckpt.fingerprint != fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            found: ckpt.fingerprint,
            expected: fingerprint,
        });
    }
    Ok(ckpt)
}

/// Scans `dir` for snapshot files: rank → sorted iteration list.
pub fn scan(dir: &Path) -> Result<BTreeMap<usize, Vec<u64>>, CoreError> {
    let mut out: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CheckpointError::Io(format!("scan {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::Io(format!("scan entry: {e}")))?;
        if let Some((rank, iter)) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            out.entry(rank).or_default().push(iter);
        }
    }
    for iters in out.values_mut() {
        iters.sort_unstable();
    }
    Ok(out)
}

/// The highest iteration for which **every** rank `0..world` has a snapshot
/// in `dir` — the restart point of a killed job.  `None` when some rank has
/// no snapshot at all or the ranks share no common boundary.
pub fn max_common_iteration(dir: &Path, world: usize) -> Result<Option<u64>, CoreError> {
    let by_rank = scan(dir)?;
    let mut common: Option<Vec<u64>> = None;
    for rank in 0..world {
        let Some(iters) = by_rank.get(&rank) else {
            return Ok(None);
        };
        common = Some(match common {
            None => iters.clone(),
            Some(prev) => prev.into_iter().filter(|i| iters.contains(i)).collect(),
        });
    }
    Ok(common.and_then(|c| c.into_iter().max()))
}

/// Periodic snapshot writer hooked into the drive loop: every `every` outer
/// iterations, the engine state is captured and persisted.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    /// Directory the snapshots are written into (the job directory).
    pub dir: PathBuf,
    /// Snapshot period in outer iterations (must be ≥ 1).
    pub every: u64,
    /// Fingerprint of the system matrix (pins the snapshots).
    pub fingerprint: u64,
    /// World size recorded in every snapshot.
    pub world: usize,
}

impl Checkpointer {
    /// Saves a snapshot when `iteration` is a period boundary.
    pub fn maybe_save(
        &self,
        engine: &RankEngine,
        vote: VoteState,
        iteration: u64,
    ) -> Result<(), CoreError> {
        if self.every == 0 || iteration == 0 || !iteration.is_multiple_of(self.every) {
            return Ok(());
        }
        self.save_now(engine, vote).map(drop)
    }

    /// Saves a snapshot immediately, regardless of the period boundary —
    /// the final state flush a rank performs before stopping for a reshape.
    pub fn save_now(&self, engine: &RankEngine, vote: VoteState) -> Result<PathBuf, CoreError> {
        let ckpt = RankCheckpoint::capture(engine, vote, self.fingerprint, self.world)?;
        save(&self.dir, &ckpt)
    }
}

impl From<CheckpointError> for CoreError {
    fn from(e: CheckpointError) -> Self {
        CoreError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RankCheckpoint {
        RankCheckpoint {
            fingerprint: 0xABCD_EF01_2345_6789,
            world: 3,
            rank: 1,
            iteration: 40,
            last_increment: 3.5e-9,
            vote_consecutive: 2,
            fresh_since_step: true,
            x_sub: vec![1.0, -2.5, f64::MIN_POSITIVE, 0.0],
            prev_deps: vec![0.125, -7.0],
            halo: vec![
                HaloPeer {
                    stamp: 40,
                    slice: Some((0, vec![9.0, 8.0, 7.0])),
                },
                HaloPeer {
                    stamp: 0,
                    slice: None,
                },
                HaloPeer {
                    stamp: 39,
                    slice: Some((8, vec![-1.0])),
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let ckpt = sample();
        let decoded = RankCheckpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
        // f64 bit patterns survive exactly, including signed zero.
        let mut z = sample();
        z.x_sub = vec![-0.0];
        let back = RankCheckpoint::decode(&z.encode()).unwrap();
        assert_eq!(back.x_sub[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let encoded = sample().encode();
        for cut in 0..encoded.len() {
            match RankCheckpoint::decode(&encoded[..cut]) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_rejected_by_the_checksum() {
        let encoded = sample().encode();
        for pos in (0..encoded.len()).step_by(7) {
            let mut bad = encoded.clone();
            bad[pos] ^= 0x20;
            assert!(
                RankCheckpoint::decode(&bad).is_err(),
                "bit flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn hostile_halo_counts_are_corrupt_not_an_allocation() {
        // A world of 2^40 ranks whose halo count agrees, behind a valid
        // checksum: the count must be checked against the bytes that
        // remain before the halo vector is sized from it.
        let mut ckpt = sample();
        ckpt.world = 1 << 40;
        ckpt.x_sub.clear();
        ckpt.prev_deps.clear();
        ckpt.halo.clear();
        let mut bytes = ckpt.encode();
        // magic + version + flags + six u64 words + fresh flag + two empty
        // vector lengths precede the halo count.
        let at = 8 + 4 + 4 + 6 * 8 + 1 + 2 * 8;
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.truncate(bytes.len() - 8);
        let bytes = Envelope::seal(bytes);
        assert!(matches!(
            RankCheckpoint::decode(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn version_and_fingerprint_mismatches_are_typed() {
        let dir = std::env::temp_dir().join("msplit-ckpt-test-pins");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = sample();
        let path = save(&dir, &ckpt).unwrap();
        assert!(matches!(
            load_pinned(&path, 0x1111),
            Err(CheckpointError::FingerprintMismatch {
                expected: 0x1111,
                ..
            })
        ));
        // Patch the version field (offset 8) and re-seal.
        let mut bytes = ckpt.encode();
        bytes[8] = 99;
        bytes.truncate(bytes.len() - 8);
        let bytes = Envelope::seal(bytes);
        assert!(matches!(
            RankCheckpoint::decode(&bytes),
            Err(CheckpointError::VersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_prunes_to_the_retention_window_and_scan_finds_common_iteration() {
        let dir = std::env::temp_dir().join("msplit-ckpt-test-prune");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut ckpt = sample();
        ckpt.world = 2;
        ckpt.halo.truncate(2);
        for (rank, iters) in [(0usize, vec![10u64, 20, 30]), (1, vec![10, 20])] {
            for iter in iters {
                ckpt.rank = rank;
                ckpt.iteration = iter;
                save(&dir, &ckpt).unwrap();
            }
        }
        let by_rank = scan(&dir).unwrap();
        // Rank 0 wrote three snapshots; only the newest two survive.
        assert_eq!(by_rank[&0], vec![20, 30]);
        assert_eq!(by_rank[&1], vec![10, 20]);
        assert_eq!(max_common_iteration(&dir, 2).unwrap(), Some(20));
        // A missing rank means no common restart point.
        assert_eq!(max_common_iteration(&dir, 3).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
