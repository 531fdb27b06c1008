//! Property-based tests of the on-disk checkpoint format
//! (docs/checkpoint-format.md): snapshots round-trip bitwise for every
//! factorization kind, mismatched metadata is a *typed* error, and no
//! truncation or corruption of a snapshot file can panic the decoder —
//! fuzzed the same way the torn-frame wire tests fuzz the codec.

use multisplitting::core::checkpoint::{CheckpointError, HaloPeer, RankCheckpoint};
use multisplitting::core::runtime::{IterationWorkspace, RankEngine, VoteState};
use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use proptest::prelude::*;

/// Builds one rank's engine over a generated system, steps it a few times
/// (dependencies self-fill, no peers needed) and returns the pieces a
/// snapshot test needs.  The closure receives the live engine plus a
/// freshly prepared twin over the identical blocks.
fn with_engine_pair<R>(
    n: usize,
    seed: u64,
    parts: usize,
    rank: usize,
    solver_kind: SolverKind,
    steps: u64,
    f: impl FnOnce(&mut RankEngine, &mut RankEngine, u64) -> R,
) -> R {
    let a = generators::diag_dominant(&DiagDominantConfig {
        n,
        seed,
        // Keep the bandwidth narrow so every per-rank block remains valid
        // for *all three* factorization kinds, BandLu included.
        half_bandwidth: 3,
        offdiag_per_row: 2,
        ..Default::default()
    });
    let (_, b) = generators::rhs_for_solution(&a, |i| ((i % 5) as f64) - 2.0);
    let d = Decomposition::uniform(&a, &b, parts, 1).unwrap();
    let partition = d.partition().clone();
    let (_, blocks) = d.into_blocks();
    let blk = &blocks[rank];
    let solver = solver_kind.build();
    let factor = solver.factorize(&blk.a_sub).unwrap();
    let mut ws = IterationWorkspace::new();
    let mut engine = RankEngine::single(
        &partition,
        blk,
        &blk.b_sub,
        factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut ws,
    );
    for _ in 0..steps {
        engine.step().unwrap();
    }
    let twin_factor = solver.factorize(&blk.a_sub).unwrap();
    let mut twin_ws = IterationWorkspace::new();
    let mut twin = RankEngine::single(
        &partition,
        blk,
        &blk.b_sub,
        twin_factor.as_ref(),
        WeightingScheme::OwnerTakes,
        &mut twin_ws,
    );
    f(&mut engine, &mut twin, a.fingerprint())
}

fn arb_solver() -> impl Strategy<Value = SolverKind> {
    (0usize..3).prop_map(|i| {
        [
            SolverKind::SparseLu,
            SolverKind::DenseLu,
            SolverKind::BandLu,
        ][i]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_round_trips_bitwise_for_every_factorization(
        n in 24usize..80,
        seed in 1u64..300,
        parts in 2usize..4,
        solver_kind in arb_solver(),
        steps in 1u64..6,
        every_bits in 0u64..1_000_000,
    ) {
        let rank = (seed as usize) % parts;
        with_engine_pair(n, seed, parts, rank, solver_kind, steps, |engine, twin, fp| {
            let vote = VoteState { consecutive: every_bits % 7, last_increment: engine.last_increment() };
            let ckpt = RankCheckpoint::capture(engine, vote, fp, parts).unwrap();
            let bytes = ckpt.encode();
            let back = RankCheckpoint::decode(&bytes).unwrap();
            prop_assert_eq!(&back, &ckpt);

            // Restoring into a freshly prepared engine reproduces the live
            // rank bitwise: identical iterate now *and* after another step.
            let restored_vote = back.restore_into(twin).unwrap();
            prop_assert_eq!(restored_vote, vote);
            prop_assert_eq!(twin.iterations(), engine.iterations());
            prop_assert_eq!(twin.x_local(), engine.x_local());
            engine.step().unwrap();
            twin.step().unwrap();
            prop_assert_eq!(twin.x_local(), engine.x_local());
            Ok(())
        })?;
    }

    #[test]
    fn any_truncation_is_a_typed_error_not_a_panic(
        n in 24usize..60,
        seed in 1u64..200,
        cut in 0usize..4096,
    ) {
        with_engine_pair(n, seed, 2, 0, SolverKind::SparseLu, 2, |engine, _twin, fp| {
            let ckpt = RankCheckpoint::capture(engine, VoteState { consecutive: 0, last_increment: f64::INFINITY }, fp, 2).unwrap();
            let bytes = ckpt.encode();
            let cut = cut % bytes.len();
            // Every proper prefix must decode to Err, never panic.
            prop_assert!(RankCheckpoint::decode(&bytes[..cut]).is_err());
            Ok(())
        })?;
    }

    #[test]
    fn any_single_byte_corruption_is_rejected(
        n in 24usize..60,
        seed in 1u64..200,
        pos in 0usize..1_000_000,
        flip in 1u32..256,
    ) {
        with_engine_pair(n, seed, 2, 1, SolverKind::BandLu, 2, |engine, _twin, fp| {
            let ckpt = RankCheckpoint::capture(engine, VoteState { consecutive: 0, last_increment: f64::INFINITY }, fp, 2).unwrap();
            let mut bytes = ckpt.encode();
            let pos = pos % bytes.len();
            bytes[pos] ^= flip as u8;
            // The FNV-64 trailer (or an earlier structural check) catches
            // every single-byte flip; decode must error, never panic.
            prop_assert!(RankCheckpoint::decode(&bytes).is_err());
            Ok(())
        })?;
    }

    #[test]
    fn fingerprint_and_version_mismatches_are_typed(
        n in 24usize..60,
        seed in 1u64..200,
        other_fp in 1u64..u64::MAX,
    ) {
        with_engine_pair(n, seed, 2, 0, SolverKind::DenseLu, 1, |engine, _twin, fp| {
            prop_assume!(other_fp != fp);
            let ckpt = RankCheckpoint::capture(engine, VoteState { consecutive: 0, last_increment: f64::INFINITY }, fp, 2).unwrap();
            let dir = std::env::temp_dir().join(format!(
                "msplit-ckpt-prop-{}-{}-{}",
                std::process::id(),
                n,
                seed
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = multisplitting::core::checkpoint::save(&dir, &ckpt).unwrap();
            let err = multisplitting::core::checkpoint::load_pinned(&path, other_fp).unwrap_err();
            prop_assert!(matches!(
                err,
                CheckpointError::FingerprintMismatch { found, expected }
                    if found == fp && expected == other_fp
            ));
            std::fs::remove_dir_all(&dir).ok();
            Ok(())
        })?;
    }
}

/// The exact bytes of one snapshot — a halo entry with a slice and one
/// without — pinned independently of the decoder: a round trip cannot see a
/// change made to the encoder and the decoder alike.
#[test]
fn snapshot_bytes_are_stable() {
    let ckpt = RankCheckpoint {
        fingerprint: 0x0123_4567_89AB_CDEF,
        world: 2,
        rank: 1,
        iteration: 12,
        last_increment: 0.5,
        vote_consecutive: 3,
        fresh_since_step: true,
        x_sub: vec![1.0, -2.0],
        prev_deps: vec![0.25],
        halo: vec![
            HaloPeer {
                stamp: 12,
                slice: Some((4, vec![3.0])),
            },
            HaloPeer {
                stamp: 0,
                slice: None,
            },
        ],
    };
    let bytes = ckpt.encode();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "4d53504c54434b500100000000000000efcdab89674523010200000000000000\
         01000000000000000c00000000000000000000000000e03f0300000000000000\
         010200000000000000000000000000f03f00000000000000c001000000000000\
         00000000000000d03f02000000000000000c0000000000000001040000000000\
         000001000000000000000000000000000840000000000000000000d13b20cef5\
         014584"
    );
    assert_eq!(RankCheckpoint::decode(&bytes).unwrap(), ckpt);
}
