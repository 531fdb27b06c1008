//! Wire-level tests: proptested codec round-trips, torn-frame fuzzing, and
//! the existing threaded drivers running **unchanged** over real TCP
//! sockets through a loopback mesh.

use multisplitting::comm::tcp::{LinkDelay, LoopbackMesh, TcpOptions};
use multisplitting::comm::wire::{decode_frame, encode_frame, FRAME_HEADER_LEN, WIRE_VERSION};
use multisplitting::comm::{CommError, Message, RejectCode, Transport};
use multisplitting::prelude::*;
use multisplitting::sparse::generators::{self, DiagDominantConfig};
use proptest::prelude::*;

/// Deterministic value stream for payload vectors: mixes signs, magnitudes
/// from 1e-300 to 1e300, and exact small integers.
fn values_from_seed(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            match r % 5 {
                0 => (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
                1 => ((r % 1000) as f64) - 500.0,
                2 => 1e-300 * ((r % 97) as f64 + 1.0),
                3 => -1e300 * ((r % 89) as f64 + 1.0) / 89.0,
                _ => 0.0,
            }
        })
        .collect()
}

/// Deterministic opaque-blob stream for the serve frames' config/matrix
/// payloads (contents are opaque to the wire codec, so arbitrary bytes —
/// including embedded length-like patterns — must round-trip untouched).
fn bytes_from_seed(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        })
        .collect()
}

/// Builds one of the twelve message variants from proptest-drawn integers.
fn build_message(variant: usize, from: usize, len: usize, seed: u64) -> Message {
    match variant {
        0 => Message::Solution {
            from,
            iteration: seed % 100_000,
            offset: (seed % 4096) as usize,
            values: values_from_seed(seed, len),
        },
        1 => Message::ConvergenceVote {
            from,
            iteration: seed % 100_000,
            converged: seed.is_multiple_of(2),
        },
        2 => Message::GlobalConverged {
            iteration: seed % 100_000,
        },
        3 => Message::Halt,
        4 => Message::SubmitSolve {
            request_id: seed,
            fingerprint: seed.rotate_left(17),
            priority: (seed % 4) as u8,
            queue_deadline_micros: seed % 5_000_000,
            config: bytes_from_seed(seed, len),
            matrix: bytes_from_seed(seed.wrapping_add(1), len * 3),
            rhs: values_from_seed(seed.wrapping_add(2), len),
        },
        5 => Message::SolveResult {
            request_id: seed,
            iterations: seed % 100_000,
            coalesced: seed % 33,
            queue_micros: seed % 1_000_000,
            x: values_from_seed(seed, len),
        },
        6 => Message::Reject {
            request_id: seed,
            code: match seed % 4 {
                0 => RejectCode::QueueFull,
                1 => RejectCode::DeadlineExpired,
                2 => RejectCode::ShuttingDown,
                _ => RejectCode::Invalid,
            },
            retry_after_micros: seed % 1_000_000,
            detail: String::from_utf8_lossy(&bytes_from_seed(seed, len)).into_owned(),
        },
        7 => Message::StatsQuery,
        8 => Message::Heartbeat { from },
        9 => Message::Reshape {
            from,
            dead_rank: (seed % 1024) as usize,
        },
        10 => Message::ServerStats {
            shard: seed % 64,
            completed: seed,
            rejected: seed % 1000,
            coalesced: seed % 500,
            batches: seed % 200,
            cache_evictions: seed % 50,
            single_flight_waits: seed % 40,
            single_flight_wait_micros: seed % 9_000_000,
            sparse_fastpath_hits: seed % 77_000,
            dense_fallbacks: seed % 3_000,
            mean_reach_ppm: seed % 1_000_000,
            queue_depths: [seed % 9, seed % 7, seed % 5],
        },
        _ => Message::VoteAggregate {
            from,
            iteration: seed % 100_000,
            converged: seed.is_multiple_of(2),
            count: seed % 2048 + 1,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_codec_round_trips_every_variant(
        variant in 0usize..12,
        from in 0usize..64,
        len in 0usize..48,
        seed in 0u64..u64::MAX,
    ) {
        let msg = build_message(variant, from, len, seed);
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.encoded_len());
        let decoded = Message::decode(&encoded).expect("round trip");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn frame_codec_round_trips_every_variant(
        variant in 0usize..12,
        from in 0usize..64,
        len in 0usize..48,
        seed in 0u64..u64::MAX,
    ) {
        let msg = build_message(variant, from, len, seed);
        let frame = encode_frame(from, &msg);
        prop_assert_eq!(frame.len(), FRAME_HEADER_LEN + msg.encoded_len());
        let (header, decoded) = decode_frame(&frame).expect("frame round trip");
        prop_assert_eq!(header.version, WIRE_VERSION);
        prop_assert_eq!(header.from as usize, from);
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn torn_frames_error_instead_of_panicking(
        variant in 0usize..12,
        len in 0usize..32,
        seed in 0u64..u64::MAX,
        cut_permille in 0usize..1000,
    ) {
        let msg = build_message(variant, 3, len, seed);
        let frame = encode_frame(3, &msg);
        // Cut anywhere strictly inside the frame: decode must fail cleanly.
        let cut = (frame.len() * cut_permille) / 1000;
        prop_assume!(cut < frame.len());
        let result = decode_frame(&frame[..cut]);
        prop_assert!(result.is_err(), "cut at {} of {} decoded", cut, frame.len());
        // A short read through the stream reader is just as clean.
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        prop_assert!(multisplitting::comm::wire::read_frame(&mut cursor).is_err());
    }

    #[test]
    fn corrupted_payload_bytes_never_panic_the_decoder(
        variant in 0usize..12,
        len in 1usize..24,
        seed in 0u64..u64::MAX,
        flip in 0usize..10_000,
    ) {
        // Flip one byte anywhere in a valid frame; decoding may succeed (a
        // flipped float bit) or fail, but must never panic.  The serve
        // frames carry nested length-prefixed blobs, so a flipped length
        // byte must reject without over-allocating or slicing out of range.
        let msg = build_message(variant, 1, len, seed);
        let mut frame = encode_frame(1, &msg);
        let pos = flip % frame.len();
        frame[pos] ^= 0x5A;
        let _ = decode_frame(&frame);
    }
}

/// The wire-tag edge table, spelled out because the proptest stand-in has no
/// shrinking: one fixed message per live tag (1–4, 6, 7, 9–14) with the exact
/// bytes the codec has always produced for it.
fn wire_golden_table() -> [(u8, Message, &'static str); 12] {
    [
        (
            1,
            Message::Solution {
                from: 3,
                iteration: 7,
                offset: 16,
                values: vec![1.0, -2.5],
            },
            "010300000000000000070000000000000010000000000000000200000000000000\
             000000000000f03f00000000000004c0",
        ),
        (
            2,
            Message::ConvergenceVote {
                from: 2,
                iteration: 9,
                converged: true,
            },
            "020200000000000000090000000000000001",
        ),
        (
            3,
            Message::GlobalConverged { iteration: 11 },
            "030b00000000000000",
        ),
        (4, Message::Halt, "04"),
        (6, Message::Heartbeat { from: 5 }, "060500000000000000"),
        (
            7,
            Message::Reshape {
                from: 1,
                dead_rank: 2,
            },
            "0701000000000000000200000000000000",
        ),
        (
            9,
            Message::SubmitSolve {
                request_id: 21,
                fingerprint: 0xABCD,
                priority: 2,
                queue_deadline_micros: 300,
                config: vec![1, 2],
                matrix: vec![3],
                rhs: vec![2.0],
            },
            "091500000000000000cdab000000000000022c0100000000000002000000000000\
             00010201000000000000000301000000000000000000000000000040",
        ),
        (
            10,
            Message::SolveResult {
                request_id: 21,
                iterations: 13,
                coalesced: 2,
                queue_micros: 40,
                x: vec![4.0],
            },
            "0a15000000000000000d0000000000000002000000000000002800000000000000\
             01000000000000000000000000001040",
        ),
        (
            11,
            Message::Reject {
                request_id: 22,
                code: RejectCode::QueueFull,
                retry_after_micros: 250,
                detail: "full".to_string(),
            },
            "0b160000000000000000fa00000000000000040000000000000066756c6c",
        ),
        (12, Message::StatsQuery, "0c"),
        (
            13,
            Message::ServerStats {
                shard: 1,
                completed: 2,
                rejected: 3,
                coalesced: 4,
                batches: 5,
                cache_evictions: 6,
                single_flight_waits: 7,
                single_flight_wait_micros: 8,
                sparse_fastpath_hits: 9,
                dense_fallbacks: 10,
                mean_reach_ppm: 11,
                queue_depths: [12, 13, 14],
            },
            "0d0100000000000000020000000000000003000000000000000400000000000000\
             050000000000000006000000000000000700000000000000080000000000000009\
             000000000000000a000000000000000b000000000000000c000000000000000d00\
             0000000000000e00000000000000",
        ),
        (
            14,
            Message::VoteAggregate {
                from: 6,
                iteration: 33,
                converged: true,
                count: 128,
            },
            "0e06000000000000002100000000000000018000000000000000",
        ),
    ]
}

/// The golden table's bytes, and the tags that must never decode —
/// 0 (never assigned), 5, 8 and 15 (reserved: they carried the column batch
/// of the removed lockstep multi-RHS solve, the speed report of the removed
/// online rebalancer and the stability summary of a removed detection
/// protocol, and an old peer may still send any of them).
/// A tag-5 body as the removed column batch encoded it.
const OLD_TAG_5_BATCH: &str = "050100000000000000040000000000000008000000000000000200000000000000\
     0100000000000000000000000000e03f0100000000000000000000000000d0bf";

#[test]
fn wire_tags_are_byte_stable_and_tag_15_stays_reserved() {
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
    for (tag, msg, golden) in wire_golden_table() {
        let encoded = msg.encode();
        assert_eq!(encoded[0], tag, "{msg:?}");
        assert_eq!(hex(&encoded), golden, "tag {tag} changed its bytes");
        assert_eq!(Message::decode(&encoded).unwrap(), msg);
    }

    // The old tag-8 body (from, iteration, step time) and the old tag-15 body
    // (from, iteration, stable) are both three u64 words; only the tag
    // differs.  Each is a codec error bare and framed.
    let frame_of = |body: &[u8]| {
        let mut frame = vec![WIRE_VERSION];
        frame.extend_from_slice(&9u32.to_le_bytes());
        frame.extend_from_slice(&77u64.to_le_bytes());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    };
    for dead_tag in [0u8, 5, 8, 15] {
        let mut body = vec![dead_tag];
        for word in [9u64, 77, 4] {
            body.extend_from_slice(&word.to_le_bytes());
        }
        assert!(
            matches!(decode_frame(&frame_of(&body)), Err(CommError::Codec(_))),
            "a tag-{dead_tag} frame decoded"
        );
        assert!(matches!(Message::decode(&body), Err(CommError::Codec(_))));
    }

    // The exact bytes the codec produced for a two-column tag-5 batch
    // (sender 1, iteration 4, offset 8, columns [0.5] and [-0.25]).
    let old_batch: Vec<u8> = (0..OLD_TAG_5_BATCH.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&OLD_TAG_5_BATCH[i..i + 2], 16).unwrap())
        .collect();
    assert!(matches!(
        decode_frame(&frame_of(&old_batch)),
        Err(CommError::Codec(_))
    ));
    assert!(matches!(
        Message::decode(&old_batch),
        Err(CommError::Codec(_))
    ));

    // A reshape always names its dead rank: the `u64::MAX` sentinel the
    // removed speed-drift reshape sent is a codec error.
    let mut reshape = vec![7u8];
    reshape.extend_from_slice(&1u64.to_le_bytes());
    reshape.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&frame_of(&reshape)),
        Err(CommError::Codec(_))
    ));
}

/// A message is self-delimiting: one byte past its end is a codec error,
/// bare and inside a frame whose header announces the padded length.
#[test]
fn trailing_bytes_after_a_message_are_codec_errors() {
    for (tag, msg, _) in wire_golden_table() {
        let mut padded = msg.encode();
        padded.push(0);
        assert!(
            matches!(Message::decode(&padded), Err(CommError::Codec(_))),
            "tag {tag} accepted a trailing byte"
        );
        let mut frame = encode_frame(2, &msg);
        frame.push(0);
        let len = (frame.len() - FRAME_HEADER_LEN) as u32;
        frame[FRAME_HEADER_LEN - 4..FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        assert!(
            matches!(decode_frame(&frame), Err(CommError::Codec(_))),
            "tag {tag} accepted a trailing byte inside a frame"
        );
    }
}

#[test]
fn special_float_values_survive_the_wire() {
    let msg = Message::Solution {
        from: 0,
        iteration: 1,
        offset: 0,
        values: vec![
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -0.0,
            f64::EPSILON,
            1e308,
        ],
    };
    let decoded = Message::decode(&msg.encode()).unwrap();
    assert_eq!(decoded, msg);
    // NaN payloads round-trip bit-exactly even though NaN != NaN.
    let nan_msg = Message::Solution {
        from: 0,
        iteration: 1,
        offset: 0,
        values: vec![f64::NAN],
    };
    match Message::decode(&nan_msg.encode()).unwrap() {
        Message::Solution { values, .. } => {
            assert_eq!(values.len(), 1);
            assert_eq!(values[0].to_bits(), f64::NAN.to_bits());
        }
        other => panic!("wrong variant: {other:?}"),
    }
}

fn config(parts: usize, mode: ExecutionMode) -> MultisplittingConfig {
    MultisplittingConfig {
        parts,
        overlap: 0,
        weighting: WeightingScheme::OwnerTakes,
        solver_kind: SolverKind::SparseLu,
        tolerance: 1e-10,
        max_iterations: 50_000,
        mode,
        async_confirmations: 3,
        relative_speeds: Vec::new(),
        method: Method::Stationary,
    }
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

#[test]
fn threaded_sync_driver_runs_unchanged_over_tcp_sockets() {
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 240,
        seed: 7,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| ((i % 8) as f64) - 3.0);
    let cfg = config(3, ExecutionMode::Synchronous);
    let mesh = LoopbackMesh::new(3, TcpOptions::default()).unwrap();
    let solver = MultisplittingSolver::new(cfg.clone());
    let over_tcp = solver.solve_with_transport(&a, &b, mesh.clone()).unwrap();
    assert!(over_tcp.converged);
    assert!(max_err(&over_tcp.x, &x_true) < 1e-7);
    // Every exchanged byte crossed a real socket.
    assert!(mesh.stats().total_bytes() > 0);

    // The unified runtime's lockstep protocol (per-iteration vote collection
    // plus the barrier-equivalent slice wait) makes the synchronous iterates
    // transport-independent: over real sockets the driver computes the very
    // same iterates as over in-process channels, bitwise.
    let inproc = solver.solve(&a, &b).unwrap();
    assert_eq!(inproc.x, over_tcp.x);
    assert_eq!(inproc.iterations, over_tcp.iterations);
}

#[test]
fn threaded_async_driver_runs_unchanged_over_delayed_tcp_sockets() {
    let a = generators::diag_dominant(&DiagDominantConfig {
        n: 200,
        seed: 3,
        ..Default::default()
    });
    let (x_true, b) = generators::rhs_for_solution(&a, |i| (i % 5) as f64);
    let cfg = config(4, ExecutionMode::Asynchronous);
    // De-flaked like `four_process_async_solve_converges_over_delayed_links`
    // in `distributed_e2e.rs`: the async stopping rule is timing-dependent,
    // so on a loaded host the final confirmation can land with one band a
    // step staler than usual and the iterate just above the old `1e-6`
    // bound.  The bound now carries stale-band slack and one retry absorbs
    // pathological scheduling; two consecutive failures still fail.
    let mut failures = Vec::new();
    for attempt in 0..2 {
        let mesh = LoopbackMesh::new(
            4,
            TcpOptions {
                delay: Some(LinkDelay {
                    grid: multisplitting::grid::cluster::two_site(2, 2).unwrap(),
                    time_scale: 1e-3,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let out = MultisplittingSolver::new(cfg.clone())
            .solve_with_transport(&a, &b, mesh)
            .unwrap();
        let err = max_err(&out.x, &x_true);
        if out.converged && err < 5e-6 {
            return;
        }
        failures.push(format!(
            "attempt {attempt}: converged={} max_err={err:.3e}",
            out.converged
        ));
    }
    panic!("threaded async over TCP failed twice in a row: {failures:?}");
}

/// v2 config-blob layout knowledge shared by the serve-codec fuzz tests
/// below: the method suffix is a fixed 17-byte trailer (a tag u8, a restart
/// u64, an inner_sweeps u64) and v1 blobs are exactly the v2 blob minus
/// that trailer with the version byte rewound.
const METHOD_SUFFIX_LEN: usize = 1 + 8 + 8;

fn method_from_seed(seed: u64) -> Method {
    match seed % 3 {
        0 => Method::Stationary,
        1 => Method::Richardson {
            inner_sweeps: seed % 7 + 1,
        },
        _ => Method::Fgmres {
            restart: (seed % 64 + 1) as usize,
            inner_sweeps: seed % 5 + 1,
        },
    }
}

fn serve_config_from_seed(seed: u64, parts: usize, nspeeds: usize) -> MultisplittingConfig {
    MultisplittingConfig {
        parts,
        overlap: (seed % 4) as usize,
        weighting: match seed % 3 {
            0 => WeightingScheme::OwnerTakes,
            1 => WeightingScheme::Average,
            _ => WeightingScheme::FirstCovering,
        },
        solver_kind: match seed % 2 {
            0 => SolverKind::SparseLu,
            _ => SolverKind::DenseLu,
        },
        tolerance: 10f64.powi(-((seed % 12) as i32) - 1),
        max_iterations: seed % 100_000 + 1,
        mode: if seed.is_multiple_of(2) {
            ExecutionMode::Synchronous
        } else {
            ExecutionMode::Asynchronous
        },
        async_confirmations: seed % 9 + 1,
        relative_speeds: values_from_seed(seed, nspeeds)
            .into_iter()
            .map(|v| v.abs() + 0.5)
            .collect(),
        method: method_from_seed(seed.rotate_left(11)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The serve config codec round-trips every method variant bit-exactly
    // through its v2 encoding.
    #[test]
    fn serve_config_codec_round_trips_every_method(
        seed in 0u64..u64::MAX,
        parts in 1usize..64,
        nspeeds in 0usize..8,
    ) {
        use multisplitting::serve::codec::{decode_config, encode_config};
        let config = serve_config_from_seed(seed, parts, nspeeds);
        let blob = encode_config(&config);
        let back = decode_config(&blob).expect("v2 blob decodes");
        prop_assert_eq!(back.method, config.method);
        prop_assert_eq!(format!("{back:?}"), format!("{config:?}"));
    }

    // A v1-era sender's blob (no method trailer) still decodes, and always
    // means the stationary method.
    #[test]
    fn serve_config_v1_blobs_decode_as_stationary(
        seed in 0u64..u64::MAX,
        parts in 1usize..64,
        nspeeds in 0usize..8,
    ) {
        use multisplitting::serve::codec::{decode_config, encode_config};
        let config = serve_config_from_seed(seed, parts, nspeeds);
        let mut blob = encode_config(&config);
        blob[0] = 1;
        blob.truncate(blob.len() - METHOD_SUFFIX_LEN);
        let back = decode_config(&blob).expect("v1 blob decodes");
        prop_assert_eq!(back.method, Method::Stationary);
        prop_assert_eq!(back.parts, config.parts);
        prop_assert_eq!(back.max_iterations, config.max_iterations);
        prop_assert_eq!(back.relative_speeds, config.relative_speeds);
    }

    // Torn config blobs — cut anywhere strictly inside, including inside the
    // v2 method trailer — are typed errors, never panics.
    #[test]
    fn serve_config_torn_blobs_error_cleanly(
        seed in 0u64..u64::MAX,
        parts in 1usize..64,
        nspeeds in 0usize..8,
        cut_permille in 0usize..1000,
    ) {
        use multisplitting::serve::codec::{decode_config, encode_config};
        let blob = encode_config(&serve_config_from_seed(seed, parts, nspeeds));
        let cut = (blob.len() * cut_permille) / 1000;
        prop_assume!(cut < blob.len());
        prop_assert!(decode_config(&blob[..cut]).is_err(), "cut at {cut}");
    }

    // A single flipped byte anywhere in a config blob must decode to *some*
    // config or fail with a typed error — no panic, no runaway allocation.
    // When it decodes, the parsed method is always internally valid (nonzero
    // knobs), because the decoder re-validates rather than trusting the peer.
    #[test]
    fn serve_config_bit_flips_never_panic_the_decoder(
        seed in 0u64..u64::MAX,
        parts in 1usize..64,
        nspeeds in 0usize..8,
        flip in 0usize..10_000,
    ) {
        use multisplitting::serve::codec::{decode_config, encode_config};
        let mut blob = encode_config(&serve_config_from_seed(seed, parts, nspeeds));
        let pos = flip % blob.len();
        blob[pos] ^= 0x5A;
        if let Ok(back) = decode_config(&blob) {
            match back.method {
                Method::Stationary => {}
                Method::Richardson { inner_sweeps } => prop_assert!(inner_sweeps > 0),
                Method::Fgmres { restart, inner_sweeps } => {
                    prop_assert!(restart > 0 && inner_sweeps > 0);
                }
            }
        }
    }
}

#[test]
fn loopback_mesh_reports_unknown_ranks() {
    let mesh = LoopbackMesh::new(2, TcpOptions::default()).unwrap();
    assert_eq!(mesh.num_ranks(), 2);
    assert!(matches!(
        mesh.send(5, 0, Message::Halt),
        Err(CommError::UnknownRank { rank: 5, .. })
    ));
    assert!(mesh.try_recv(9).is_err());
}

/// A peer that completed the handshake as rank 1 can never get a message
/// into the inbox as rank 0's.  A frame whose envelope names rank 0 is a
/// protocol error: it never reaches the inbox, and the link closes, so a
/// genuine frame sent after it is not delivered either.  A frame whose
/// envelope is honest but whose body names rank 0 — the `from` the
/// receiving rank files a halo under — is delivered as rank 1's.  A tag-5
/// frame (the retired column batch, body naming rank 0) is a codec error:
/// it never reaches the inbox, and the link closes.
#[test]
fn a_frame_naming_another_sender_never_reaches_the_inbox() {
    use multisplitting::comm::tcp::BoundTcpTransport;
    use multisplitting::comm::wire::Handshake;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let halo = |from| Message::Solution {
        from,
        iteration: 1,
        offset: 0,
        values: vec![1.0, 2.0],
    };
    // The retired tag-5 body: sender 0, iteration 1, offset 0, one column
    // of two values.
    let mut batch_body = vec![5u8];
    for word in [0u64, 1, 0, 1, 2, 1.0f64.to_bits(), 2.0f64.to_bits()] {
        batch_body.extend_from_slice(&word.to_le_bytes());
    }
    let mut tag_5_frame = encode_frame(1, &Message::Halt);
    tag_5_frame.truncate(FRAME_HEADER_LEN);
    tag_5_frame[FRAME_HEADER_LEN - 4..].copy_from_slice(&(batch_body.len() as u32).to_le_bytes());
    tag_5_frame.extend_from_slice(&batch_body);
    // (envelope sender, forged frame, frames that reach the inbox).
    let cases = [
        (0, encode_frame(0, &halo(0)), 0),
        (1, encode_frame(1, &halo(0)), 2),
        (1, tag_5_frame, 0),
    ];
    for (envelope, forged, expected) in cases {
        let fingerprint = 0x5eed;
        let hello = Handshake {
            rank: 1,
            world_size: 2,
            fingerprint,
        };
        let real = BoundTcpTransport::bind(0, "127.0.0.1:0").unwrap();
        let raw = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            real.local_addr().unwrap(),
            raw.local_addr().unwrap().to_string(),
        ];
        let real_addr = addrs[0].clone();
        let mesh = std::thread::spawn(move || {
            real.connect(
                &addrs,
                TcpOptions {
                    fingerprint,
                    connect_timeout: Duration::from_secs(10),
                    ..Default::default()
                },
            )
        });
        // Rank 0 dials the raw peer: answer its handshake as rank 1.
        let (mut accepted, _) = raw.accept().unwrap();
        assert_eq!(Handshake::read_from(&mut accepted).unwrap().rank, 0);
        hello.write_to(&mut accepted).unwrap();
        // The raw peer dials rank 0 as rank 1: this is the stream rank 0 reads.
        let mut dialed = TcpStream::connect(&real_addr).unwrap();
        hello.write_to(&mut dialed).unwrap();
        assert_eq!(Handshake::read_from(&mut dialed).unwrap().rank, 0);
        let transport = mesh.join().unwrap().unwrap();

        dialed.write_all(&forged).unwrap();
        dialed.write_all(&encode_frame(1, &halo(1))).unwrap();
        dialed.flush().unwrap();
        let delivered: Vec<Message> =
            std::iter::from_fn(|| transport.recv_timeout(0, Duration::from_millis(500)).ok())
                .collect();
        assert_eq!(
            delivered.len(),
            expected,
            "forged frame (envelope {envelope}, {forged:02x?}): delivered {delivered:?}"
        );
        for msg in &delivered {
            assert_eq!(
                msg.sender(),
                Some(1),
                "{msg:?} reached the inbox as another rank's"
            );
        }
        drop(accepted);
    }
}
