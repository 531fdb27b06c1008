//! The byte formats of `msplit-core`: the one codec of
//! [`MultisplittingConfig`], the one codec of [`CsrMatrix`], and the
//! envelope every binary file of a job directory is written in.
//!
//! The config and matrix blobs travel in `Message::SubmitSolve` (the serve
//! protocol re-exports them as `msplit_serve::codec`) and inside the
//! launcher's job and band files ([`crate::launcher`]).  A version byte
//! guards each blob so a mixed-version fleet fails with a typed error
//! instead of a garbage solve.
//!
//! The [`Envelope`] is the layout of the checkpoint snapshots
//! ([`crate::checkpoint`]) and of the launcher's job, band and result
//! files: an 8-byte magic, a little-endian `u32` format version, the body,
//! and an FNV-1a checksum of everything before it.  [`write_atomic`]
//! publishes a file by writing a temporary sibling and renaming it, so a
//! reader never sees a torn file under the final name.

use crate::solver::{ExecutionMode, Method, MultisplittingConfig};
use crate::weighting::WeightingScheme;
use crate::CoreError;
use msplit_comm::codec::{put_f64s, put_u64, Reader};
use msplit_direct::SolverKind;
use msplit_sparse::CsrMatrix;
use std::path::Path;

/// Version byte of the configuration encoding.
///
/// * v1 — through the Elastic-grid release: everything up to and including
///   `relative_speeds`.
/// * v2 — appends the outer-iteration [`Method`] (tag byte + restart +
///   inner sweeps) after the speeds.  v1 blobs are still accepted and decode
///   to [`Method::Stationary`], which is exactly what every v1 sender meant.
const CONFIG_VERSION: u8 = 2;
/// Oldest configuration encoding this build still decodes.
const CONFIG_VERSION_MIN: u8 = 1;
/// Version byte of the matrix encoding.
const MATRIX_VERSION: u8 = 1;

/// Serializes a solver configuration.
pub fn encode_config(config: &MultisplittingConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 3 + 8 * (5 + config.relative_speeds.len()));
    out.push(CONFIG_VERSION);
    put_u64(&mut out, config.parts as u64);
    put_u64(&mut out, config.overlap as u64);
    out.push(match config.weighting {
        WeightingScheme::OwnerTakes => 0,
        WeightingScheme::Average => 1,
        WeightingScheme::FirstCovering => 2,
    });
    out.push(match config.solver_kind {
        SolverKind::SparseLu => 0,
        SolverKind::DenseLu => 1,
        SolverKind::BandLu => 2,
    });
    out.push(match config.mode {
        ExecutionMode::Synchronous => 0,
        ExecutionMode::Asynchronous => 1,
    });
    put_u64(&mut out, config.tolerance.to_bits());
    put_u64(&mut out, config.max_iterations);
    put_u64(&mut out, config.async_confirmations);
    put_f64s(&mut out, &config.relative_speeds);
    // v2 suffix: the method selector.  Unused knobs encode as zero so every
    // method occupies the same number of bytes (simpler truncation fuzzing).
    let (tag, restart, inner_sweeps) = match config.method {
        Method::Stationary => (0u8, 0u64, 0u64),
        Method::Richardson { inner_sweeps } => (1, 0, inner_sweeps),
        Method::Fgmres {
            restart,
            inner_sweeps,
        } => (2, restart as u64, inner_sweeps),
    };
    out.push(tag);
    put_u64(&mut out, restart);
    put_u64(&mut out, inner_sweeps);
    out
}

/// Parses a configuration blob produced by [`encode_config`].
pub fn decode_config(blob: &[u8]) -> Result<MultisplittingConfig, CoreError> {
    let mut r = Reader::new(blob, "config blob", CoreError::Codec);
    let version = r.u8()?;
    if !(CONFIG_VERSION_MIN..=CONFIG_VERSION).contains(&version) {
        return Err(CoreError::Codec(format!(
            "config blob version {version}, this build speaks {CONFIG_VERSION_MIN}..={CONFIG_VERSION}"
        )));
    }
    let parts = r.u64()? as usize;
    let overlap = r.u64()? as usize;
    let weighting = match r.u8()? {
        0 => WeightingScheme::OwnerTakes,
        1 => WeightingScheme::Average,
        2 => WeightingScheme::FirstCovering,
        other => {
            return Err(CoreError::Codec(format!(
                "unknown weighting scheme {other}"
            )))
        }
    };
    let solver_kind = match r.u8()? {
        0 => SolverKind::SparseLu,
        1 => SolverKind::DenseLu,
        2 => SolverKind::BandLu,
        other => return Err(CoreError::Codec(format!("unknown solver kind {other}"))),
    };
    let mode = match r.u8()? {
        0 => ExecutionMode::Synchronous,
        1 => ExecutionMode::Asynchronous,
        other => return Err(CoreError::Codec(format!("unknown execution mode {other}"))),
    };
    let tolerance = r.f64()?;
    let max_iterations = r.u64()?;
    let async_confirmations = r.u64()?;
    let relative_speeds = r.f64s()?;
    // v1 blobs end here; every v1 sender ran the stationary method.
    let method = if version >= 2 {
        let tag = r.u8()?;
        let restart = r.u64()? as usize;
        let inner_sweeps = r.u64()?;
        match tag {
            0 => Method::Stationary,
            1 => {
                if inner_sweeps == 0 {
                    return Err(CoreError::Codec(
                        "Richardson blob with zero inner sweeps".into(),
                    ));
                }
                Method::Richardson { inner_sweeps }
            }
            2 => {
                if restart == 0 || inner_sweeps == 0 {
                    return Err(CoreError::Codec(
                        "FGMRES blob with zero restart or inner sweeps".into(),
                    ));
                }
                Method::Fgmres {
                    restart,
                    inner_sweeps,
                }
            }
            other => return Err(CoreError::Codec(format!("unknown method tag {other}"))),
        }
    } else {
        Method::Stationary
    };
    r.finish()?;
    Ok(MultisplittingConfig {
        parts,
        overlap,
        weighting,
        solver_kind,
        tolerance,
        max_iterations,
        mode,
        async_confirmations,
        relative_speeds,
        method,
    })
}

/// Serializes a CSR matrix.
pub fn encode_matrix(a: &CsrMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 * (3 + a.rows() + 1 + 2 * a.nnz()));
    put_matrix(&mut out, a);
    out
}

/// Appends the [`encode_matrix`] bytes of `a` to `out`: how a band file
/// carries its blocks without a copy of each.
pub(crate) fn put_matrix(out: &mut Vec<u8>, a: &CsrMatrix) {
    out.push(MATRIX_VERSION);
    put_u64(out, a.rows() as u64);
    put_u64(out, a.cols() as u64);
    put_u64(out, a.nnz() as u64);
    for &p in a.row_ptr() {
        put_u64(out, p as u64);
    }
    for &c in a.col_indices() {
        put_u64(out, c as u64);
    }
    for &v in a.values() {
        put_u64(out, v.to_bits());
    }
}

/// Parses a matrix blob produced by [`encode_matrix`], re-validating the CSR
/// invariants (the blob crossed a network or a file system).
pub fn decode_matrix(blob: &[u8]) -> Result<CsrMatrix, CoreError> {
    let mut r = Reader::new(blob, "matrix blob", CoreError::Codec);
    let a = read_matrix(&mut r)?;
    r.finish()?;
    Ok(a)
}

/// Reads one matrix written by [`put_matrix`] from `r`.
pub(crate) fn read_matrix(r: &mut Reader<'_, CoreError>) -> Result<CsrMatrix, CoreError> {
    let version = r.u8()?;
    if version != MATRIX_VERSION {
        return Err(CoreError::Codec(format!(
            "matrix blob version {version}, this build speaks {MATRIX_VERSION}"
        )));
    }
    // Each row needs a row-pointer word and each stored entry a column
    // index and a value, so both counts are bounded by the remaining bytes.
    let rows = r.count(8)?;
    let cols = r.u64()? as usize;
    let nnz = r.count(16)?;
    let mut row_ptr = Vec::with_capacity(rows + 1);
    for _ in 0..rows + 1 {
        row_ptr.push(r.u64()? as usize);
    }
    let mut col_indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        col_indices.push(r.u64()? as usize);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(r.f64()?);
    }
    CsrMatrix::from_raw(rows, cols, row_ptr, col_indices, values)
        .map_err(|e| CoreError::Codec(format!("matrix blob rejected: {e}")))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a of `bytes`: the envelope's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// One file format in the shared envelope: magic, `u32` version, body,
/// FNV-1a trailer.
#[derive(Debug)]
pub struct Envelope {
    magic: &'static [u8; 8],
    version: u32,
}

impl Envelope {
    /// The format opening with `magic`, written at `version`.
    pub const fn new(magic: &'static [u8; 8], version: u32) -> Self {
        Envelope { magic, version }
    }

    /// A buffer holding the magic and the version, with room for a body of
    /// `body_len` bytes and the trailer.
    pub fn start(&self, body_len: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.magic.len() + 4 + body_len + 8);
        buf.extend_from_slice(self.magic);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf
    }

    /// Appends the checksum of everything in `buf` (begun by
    /// [`Envelope::start`]) and returns the finished file.
    pub fn seal(mut buf: Vec<u8>) -> Vec<u8> {
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Checks the magic, the checksum and the version of `data` and returns
    /// a reader over the body.  A short file, a foreign magic or a checksum
    /// mismatch is `err`; another version is `mismatch(found, expected)`.
    pub fn open<'a, E>(
        &self,
        data: &'a [u8],
        what: &'static str,
        err: fn(String) -> E,
        mismatch: fn(u32, u32) -> E,
    ) -> Result<Reader<'a, E>, E> {
        let fail = |detail: &str| Err(err(format!("{what}: {detail}")));
        if data.len() < self.magic.len() + 8 {
            return fail(&format!(
                "file of {} bytes is smaller than the fixed envelope",
                data.len()
            ));
        }
        if &data[..self.magic.len()] != self.magic {
            return fail("bad magic number (not a file of this format)");
        }
        let (body, trailer) = data.split_at(data.len() - 8);
        if fnv1a(body).to_le_bytes() != trailer {
            return fail("checksum mismatch (torn or corrupted file)");
        }
        let mut r = Reader::new(&body[self.magic.len()..], what, err);
        match r.u32()? {
            version if version == self.version => Ok(r),
            found => Err(mismatch(found, self.version)),
        }
    }
}

/// Publishes `bytes` as `path` atomically: written to a `.tmp` sibling, then
/// renamed over the final name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use msplit_sparse::generators::{self, DiagDominantConfig};

    #[test]
    fn config_round_trip_preserves_every_field() {
        for method in [
            Method::Stationary,
            Method::Richardson { inner_sweeps: 3 },
            Method::Fgmres {
                restart: 30,
                inner_sweeps: 2,
            },
        ] {
            let config = MultisplittingConfig {
                parts: 5,
                overlap: 2,
                weighting: WeightingScheme::Average,
                solver_kind: SolverKind::BandLu,
                tolerance: 3.25e-9,
                max_iterations: 123,
                mode: ExecutionMode::Asynchronous,
                async_confirmations: 7,
                relative_speeds: vec![1.0, 2.5, 0.75],
                method,
            };
            let back = decode_config(&encode_config(&config)).unwrap();
            assert_eq!(format!("{config:?}"), format!("{back:?}"));
        }
    }

    /// Re-encodes a config in the v1 layout (no method suffix), as an
    /// Elastic-grid-era sender would have produced it.
    fn encode_config_v1(config: &MultisplittingConfig) -> Vec<u8> {
        let mut blob = encode_config(config);
        blob[0] = 1;
        blob.truncate(blob.len() - (1 + 8 + 8));
        blob
    }

    #[test]
    fn v1_blobs_still_decode_as_stationary() {
        let config = MultisplittingConfig {
            parts: 4,
            overlap: 1,
            relative_speeds: vec![1.0, 2.0, 1.0, 1.0],
            // A v1 sender could never express this; the field is simply
            // absent from its blob.
            method: Method::Stationary,
            ..Default::default()
        };
        let blob = encode_config_v1(&config);
        let back = decode_config(&blob).unwrap();
        assert_eq!(back.method, Method::Stationary);
        assert_eq!(back.parts, 4);
        assert_eq!(back.relative_speeds, config.relative_speeds);
    }

    #[test]
    fn unknown_method_tags_and_zero_knobs_are_rejected() {
        let base = encode_config(&MultisplittingConfig::default());
        let suffix = base.len() - (1 + 8 + 8);
        // Unknown tag.
        let mut wrong = base.clone();
        wrong[suffix] = 9;
        assert!(decode_config(&wrong).is_err());
        // Richardson with zero inner sweeps.
        let mut zero_sweeps = base.clone();
        zero_sweeps[suffix] = 1;
        assert!(decode_config(&zero_sweeps).is_err());
        // FGMRES with zero restart.
        let mut zero_restart = base;
        zero_restart[suffix] = 2;
        assert!(decode_config(&zero_restart).is_err());
    }

    #[test]
    fn matrix_round_trip_preserves_the_fingerprint() {
        let a = generators::diag_dominant(&DiagDominantConfig {
            n: 60,
            seed: 4,
            ..Default::default()
        });
        let back = decode_matrix(&encode_matrix(&a)).unwrap();
        assert_eq!(back.fingerprint(), a.fingerprint());
        assert_eq!(back.nnz(), a.nnz());
    }

    #[test]
    fn truncations_and_bad_versions_are_typed_errors() {
        let blob = encode_config(&MultisplittingConfig::default());
        for cut in 0..blob.len() {
            assert!(decode_config(&blob[..cut]).is_err(), "cut at {cut}");
        }
        let mut wrong = blob.clone();
        wrong[0] = 9;
        assert!(decode_config(&wrong).is_err());

        let m = encode_matrix(&generators::tridiagonal(10, 4.0, -1.0));
        for cut in 0..m.len() {
            assert!(decode_matrix(&m[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = m.clone();
        padded.extend_from_slice(&[0; 8]);
        assert!(decode_matrix(&padded).is_err());
    }

    #[test]
    fn corrupted_counts_cannot_drive_allocations() {
        let mut m = encode_matrix(&generators::tridiagonal(10, 4.0, -1.0));
        // nnz field sits after version + rows + cols.
        m[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_matrix(&m).is_err());
    }

    #[test]
    fn hostile_row_counts_are_protocol_errors() {
        let m = encode_matrix(&generators::tridiagonal(10, 4.0, -1.0));
        // rows sits after the version byte; `u64::MAX` used to overflow
        // `rows + 1`, and a count equal to the words that follow is one
        // row pointer short.
        let words_after_rows = (m.len() - 9) as u64 / 8;
        for rows in [u64::MAX, words_after_rows] {
            let mut bad = m.clone();
            bad[1..9].copy_from_slice(&rows.to_le_bytes());
            assert!(
                matches!(decode_matrix(&bad), Err(CoreError::Codec(_))),
                "rows = {rows}"
            );
        }
    }

    pub(crate) fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes both blobs have always had, pinned independently of
    /// the decoder (a round trip cannot see a change made to both sides).
    #[test]
    fn blob_bytes_are_stable() {
        let config = MultisplittingConfig {
            parts: 3,
            overlap: 1,
            weighting: WeightingScheme::Average,
            solver_kind: SolverKind::BandLu,
            tolerance: 1e-8,
            max_iterations: 500,
            mode: ExecutionMode::Synchronous,
            async_confirmations: 2,
            relative_speeds: vec![1.0, 2.0],
            method: Method::Fgmres {
                restart: 30,
                inner_sweeps: 2,
            },
        };
        let blob = encode_config(&config);
        assert_eq!(
            hex(&blob),
            "02030000000000000001000000000000000102003a8c30e28e79453ef4010000\
             0000000002000000000000000200000000000000000000000000f03f00000000\
             00000040021e000000000000000200000000000000"
        );
        assert_eq!(
            format!("{:?}", decode_config(&blob).unwrap()),
            format!("{config:?}")
        );
        // The same config as a v1 sender wrote it decodes as stationary.
        let v1 = decode_config(&encode_config_v1(&config)).unwrap();
        assert_eq!(v1.method, Method::Stationary);
        assert_eq!(v1.relative_speeds, config.relative_speeds);

        let a = generators::tridiagonal(4, 4.0, -1.0);
        let blob = encode_matrix(&a);
        assert_eq!(
            hex(&blob),
            "01040000000000000004000000000000000a0000000000000000000000000000\
             000200000000000000050000000000000008000000000000000a000000000000\
             0000000000000000000100000000000000000000000000000001000000000000\
             0002000000000000000100000000000000020000000000000003000000000000\
             00020000000000000003000000000000000000000000001040000000000000f0\
             bf000000000000f0bf0000000000001040000000000000f0bf000000000000f0\
             bf0000000000001040000000000000f0bf000000000000f0bf00000000000010\
             40"
        );
        assert_eq!(decode_matrix(&blob).unwrap().fingerprint(), a.fingerprint());
    }
}
