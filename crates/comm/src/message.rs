//! Wire messages exchanged by the multisplitting processors.
//!
//! The dominant traffic is the per-iteration exchange of solution slices
//! (`XSub` sent to every processor that depends on it, step 3 of
//! Algorithm 1).  Convergence votes and the final halt notification complete
//! the protocol.  Messages carry a compact binary encoding so that the
//! transport layer can account exact byte counts against the grid bandwidth
//! model.

use crate::codec::{put_blob, put_f64s, put_u64, Reader};
use crate::CommError;

/// A message exchanged between two multisplitting processors.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A slice of the solution vector: the sender's `XSub` (or the portion a
    /// dependent processor needs), tagged with the sender's iteration count.
    Solution {
        /// Sender rank.
        from: usize,
        /// Sender's outer-iteration counter when the slice was produced.
        iteration: u64,
        /// Global index of the first entry of `values`.
        offset: usize,
        /// The solution values.
        values: Vec<f64>,
    },
    /// A local convergence vote used by the centralized detection scheme.
    ConvergenceVote {
        /// Sender rank.
        from: usize,
        /// Sender's outer-iteration counter.
        iteration: u64,
        /// Whether the sender is locally converged.
        converged: bool,
    },
    /// Global convergence decision broadcast by the coordinator.
    GlobalConverged {
        /// Iteration at which global convergence was detected.
        iteration: u64,
    },
    /// A subtree's combined convergence vote, aggregated up a reduction tree
    /// by the tree-structured lockstep detection scheme (`TreeVotes` in the
    /// runtime).  Each interior node ANDs its own vote with its children's
    /// aggregates and forwards one frame to its parent, so the coordinator
    /// receives `arity` frames per decision instead of `P - 1`.
    VoteAggregate {
        /// Sender rank (the subtree root).
        from: usize,
        /// Outer-iteration counter the aggregate belongs to.
        iteration: u64,
        /// AND of every vote in the sender's subtree (sender included).
        converged: bool,
        /// Number of ranks folded into this aggregate — lets the receiver
        /// cross-check that no subtree was silently dropped.
        count: u64,
    },
    /// Ask the receiver to stop (used to shut down asynchronous receivers).
    Halt,
    /// Liveness probe sent by a rank blocked in a lockstep wait.  Carries no
    /// payload: the *send itself* is the detector — a probe to a dead peer
    /// surfaces [`crate::CommError::Disconnected`] at the sender, which is
    /// how the runtime's heartbeat failure policy notices a rank death
    /// without waiting out the full peer timeout.  Receivers ignore it.
    Heartbeat {
        /// Sender rank.
        from: usize,
    },
    /// Announcement that the job must be re-partitioned because a rank died.
    /// Broadcast by the rank that detected the death (under
    /// `FailurePolicy::Redistribute`).  Every receiver abandons the current
    /// iteration loop and reports a reshape outcome so the launcher can
    /// re-derive band ownership and relaunch from the latest checkpoints.
    Reshape {
        /// Sender rank (the detector).
        from: usize,
        /// The dead rank that triggered the reshape.
        dead_rank: usize,
    },
    /// A client's solve request to a serve node (the serve-protocol frames
    /// reuse this codec and framing; a serve connection is distinguished by a
    /// handshake with `world_size == 0`).  The matrix and configuration
    /// travel as opaque byte blobs encoded by the serve layer so the wire
    /// crate stays independent of the solver crates.
    SubmitSolve {
        /// Client-chosen identifier echoed in the response; unique per
        /// connection.
        request_id: u64,
        /// Matrix fingerprint; shard routing and cache lookups key on it.
        fingerprint: u64,
        /// Scheduling priority lane (0 = highest), mirroring the engine's
        /// priority lanes.
        priority: u8,
        /// Queue deadline in microseconds (0 = none): if the request cannot
        /// start within this budget the server rejects instead of solving.
        queue_deadline_micros: u64,
        /// Opaque solver configuration (serve-layer codec).
        config: Vec<u8>,
        /// Opaque matrix encoding (serve-layer codec).  Empty when the
        /// client only wants the factorization warmed or believes the
        /// server already holds the matrix.
        matrix: Vec<u8>,
        /// The right-hand side.  Empty marks a cache-warming request: the
        /// server prepares (or confirms) the factorization and replies with
        /// an empty solution.
        rhs: Vec<f64>,
    },
    /// A successful solve (or warm) response.
    SolveResult {
        /// Echo of the request identifier.
        request_id: u64,
        /// Outer iterations the solve took (0 for a warm-only request).
        iterations: u64,
        /// Number of requests served by the job that produced this answer.
        /// Every request is its own job, so servers write `1`; a reader
        /// must accept any value.
        coalesced: u64,
        /// Microseconds the request waited before its solve started.
        queue_micros: u64,
        /// The solution vector (empty for a warm-only request).
        x: Vec<f64>,
    },
    /// A load-shed or failure response.
    Reject {
        /// Echo of the request identifier.
        request_id: u64,
        /// Why the request was rejected (see [`RejectCode`]).
        code: RejectCode,
        /// Suggested microseconds to wait before retrying (0 = no hint;
        /// meaningful for [`RejectCode::QueueFull`] and
        /// [`RejectCode::DeadlineExpired`]).
        retry_after_micros: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// A client's request for a stats snapshot.
    StatsQuery,
    /// Snapshot of a serve node's counters, answering [`Message::StatsQuery`].
    ServerStats {
        /// Shard index of the responding node.
        shard: u64,
        /// Requests answered with a [`Message::SolveResult`].
        completed: u64,
        /// Requests answered with a [`Message::Reject`].
        rejected: u64,
        /// Reserved: once the requests that shared a coalesced job; every
        /// request is its own job now, so servers write `0`.  Kept so the
        /// frame layout does not change.
        coalesced: u64,
        /// Solve jobs dispatched (one per solved request; warm requests
        /// are not counted).
        batches: u64,
        /// Prepared systems evicted from the factorization cache.
        cache_evictions: u64,
        /// Cache lookups that parked behind an in-flight preparation.
        single_flight_waits: u64,
        /// Total microseconds parked behind in-flight preparations.
        single_flight_wait_micros: u64,
        /// Outer iterations skipped because their dependency values were
        /// bitwise unchanged.
        sparse_fastpath_hits: u64,
        /// Outer iterations that ran the full assembly + solve.
        dense_fallbacks: u64,
        /// Reserved: once the mean reach fraction of reach-limited solves in
        /// parts per million; no solve path measures a reach, so servers
        /// write `0`.  Kept so the frame layout does not change.
        mean_reach_ppm: u64,
        /// Current queue depth per priority lane, highest priority first.
        queue_depths: [u64; 3],
    },
}

/// Typed reason carried by [`Message::Reject`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The priority lane (or the whole queue) is at its admission limit;
    /// retry after the hinted backoff.
    QueueFull,
    /// The request's queue deadline expired before a worker could start it.
    DeadlineExpired,
    /// The node is shutting down; retry against another shard.
    ShuttingDown,
    /// The request was malformed (bad matrix/config encoding, fingerprint
    /// mismatch, unknown matrix).  Retrying will not help.
    Invalid,
}

impl RejectCode {
    fn to_u8(self) -> u8 {
        match self {
            RejectCode::QueueFull => 0,
            RejectCode::DeadlineExpired => 1,
            RejectCode::ShuttingDown => 2,
            RejectCode::Invalid => 3,
        }
    }

    fn from_u8(raw: u8) -> Result<Self, CommError> {
        Ok(match raw {
            0 => RejectCode::QueueFull,
            1 => RejectCode::DeadlineExpired,
            2 => RejectCode::ShuttingDown,
            3 => RejectCode::Invalid,
            other => return Err(CommError::Codec(format!("unknown reject code {other}"))),
        })
    }

    /// Whether retrying the same request (possibly elsewhere) can succeed.
    pub fn is_retryable(self) -> bool {
        !matches!(self, RejectCode::Invalid)
    }
}

const TAG_SOLUTION: u8 = 1;
const TAG_VOTE: u8 = 2;
const TAG_GLOBAL: u8 = 3;
const TAG_HALT: u8 = 4;
const TAG_HEARTBEAT: u8 = 6;
const TAG_RESHAPE: u8 = 7;
const TAG_SUBMIT_SOLVE: u8 = 9;
const TAG_SOLVE_RESULT: u8 = 10;
const TAG_REJECT: u8 = 11;
const TAG_STATS_QUERY: u8 = 12;
const TAG_SERVER_STATS: u8 = 13;
const TAG_VOTE_AGGREGATE: u8 = 14;
// Tags 5, 8 and 15 are reserved: they carried the column batch of the
// removed lockstep multi-RHS solve, the speed report of the removed online
// rebalancer and the stability summary of a removed detection protocol, and
// must not be reused for a different frame.

/// The `dead_rank` value the removed speed-drift reshape sent in place of a
/// rank; a reshape always names its dead rank now, so this is rejected.
const NO_DEAD_RANK: u64 = u64::MAX;

impl Message {
    /// The rank that produced the message, when it carries one.
    pub fn sender(&self) -> Option<usize> {
        match self {
            Message::Solution { from, .. }
            | Message::ConvergenceVote { from, .. }
            | Message::Heartbeat { from }
            | Message::Reshape { from, .. }
            | Message::VoteAggregate { from, .. } => Some(*from),
            _ => None,
        }
    }

    /// Names `rank` as the producer of a message that carries a sender.
    pub fn set_sender(&mut self, rank: usize) {
        if let Message::Solution { from, .. }
        | Message::ConvergenceVote { from, .. }
        | Message::Heartbeat { from }
        | Message::Reshape { from, .. }
        | Message::VoteAggregate { from, .. } = self
        {
            *from = rank;
        }
    }

    /// Size of the encoded message in bytes — the number charged against the
    /// link bandwidth by the grid model.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::Solution { values, .. } => 1 + 8 + 8 + 8 + 8 + 8 * values.len(),
            Message::ConvergenceVote { .. } => 1 + 8 + 8 + 1,
            Message::VoteAggregate { .. } => 1 + 8 + 8 + 1 + 8,
            Message::GlobalConverged { .. } => 1 + 8,
            Message::Halt => 1,
            Message::Heartbeat { .. } => 1 + 8,
            Message::Reshape { .. } => 1 + 8 + 8,
            Message::SubmitSolve {
                config,
                matrix,
                rhs,
                ..
            } => 1 + 8 + 8 + 1 + 8 + (8 + config.len()) + (8 + matrix.len()) + (8 + 8 * rhs.len()),
            Message::SolveResult { x, .. } => 1 + 8 + 8 + 8 + 8 + 8 + 8 * x.len(),
            Message::Reject { detail, .. } => 1 + 8 + 1 + 8 + 8 + detail.len(),
            Message::StatsQuery => 1,
            Message::ServerStats { .. } => 1 + 8 * 11 + 8 * 3,
        }
    }

    /// Appends the message's encoding to `out` ([`Message::encoded_len`]
    /// bytes; nothing is reallocated when `out` already has the room).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        match self {
            Message::Solution {
                from,
                iteration,
                offset,
                values,
            } => {
                out.push(TAG_SOLUTION);
                put_u64(out, *from as u64);
                put_u64(out, *iteration);
                put_u64(out, *offset as u64);
                put_f64s(out, values);
            }
            Message::ConvergenceVote {
                from,
                iteration,
                converged,
            } => {
                out.push(TAG_VOTE);
                put_u64(out, *from as u64);
                put_u64(out, *iteration);
                out.push(u8::from(*converged));
            }
            Message::VoteAggregate {
                from,
                iteration,
                converged,
                count,
            } => {
                out.push(TAG_VOTE_AGGREGATE);
                put_u64(out, *from as u64);
                put_u64(out, *iteration);
                out.push(u8::from(*converged));
                put_u64(out, *count);
            }
            Message::GlobalConverged { iteration } => {
                out.push(TAG_GLOBAL);
                put_u64(out, *iteration);
            }
            Message::Halt => out.push(TAG_HALT),
            Message::Heartbeat { from } => {
                out.push(TAG_HEARTBEAT);
                put_u64(out, *from as u64);
            }
            Message::Reshape { from, dead_rank } => {
                out.push(TAG_RESHAPE);
                put_u64(out, *from as u64);
                put_u64(out, *dead_rank as u64);
            }
            Message::SubmitSolve {
                request_id,
                fingerprint,
                priority,
                queue_deadline_micros,
                config,
                matrix,
                rhs,
            } => {
                out.push(TAG_SUBMIT_SOLVE);
                put_u64(out, *request_id);
                put_u64(out, *fingerprint);
                out.push(*priority);
                put_u64(out, *queue_deadline_micros);
                put_blob(out, config);
                put_blob(out, matrix);
                put_f64s(out, rhs);
            }
            Message::SolveResult {
                request_id,
                iterations,
                coalesced,
                queue_micros,
                x,
            } => {
                out.push(TAG_SOLVE_RESULT);
                put_u64(out, *request_id);
                put_u64(out, *iterations);
                put_u64(out, *coalesced);
                put_u64(out, *queue_micros);
                put_f64s(out, x);
            }
            Message::Reject {
                request_id,
                code,
                retry_after_micros,
                detail,
            } => {
                out.push(TAG_REJECT);
                put_u64(out, *request_id);
                out.push(code.to_u8());
                put_u64(out, *retry_after_micros);
                put_blob(out, detail.as_bytes());
            }
            Message::StatsQuery => out.push(TAG_STATS_QUERY),
            Message::ServerStats {
                shard,
                completed,
                rejected,
                coalesced,
                batches,
                cache_evictions,
                single_flight_waits,
                single_flight_wait_micros,
                sparse_fastpath_hits,
                dense_fallbacks,
                mean_reach_ppm,
                queue_depths,
            } => {
                out.push(TAG_SERVER_STATS);
                for word in [
                    shard,
                    completed,
                    rejected,
                    coalesced,
                    batches,
                    cache_evictions,
                    single_flight_waits,
                    single_flight_wait_micros,
                    sparse_fastpath_hits,
                    dense_fallbacks,
                    mean_reach_ppm,
                ]
                .into_iter()
                .chain(queue_depths)
                {
                    put_u64(out, *word);
                }
            }
        }
    }

    /// The message's encoding in a buffer of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes exactly one message produced by [`Message::encode`]: a
    /// truncated body, an unknown tag or trailing bytes are
    /// [`CommError::Codec`].
    pub fn decode(data: &[u8]) -> Result<Self, CommError> {
        let mut r = Reader::new(data, "message", CommError::Codec);
        let msg = match r.u8()? {
            TAG_SOLUTION => Message::Solution {
                from: r.u64()? as usize,
                iteration: r.u64()?,
                offset: r.u64()? as usize,
                values: r.f64s()?,
            },
            TAG_VOTE => Message::ConvergenceVote {
                from: r.u64()? as usize,
                iteration: r.u64()?,
                converged: r.u8()? != 0,
            },
            TAG_VOTE_AGGREGATE => Message::VoteAggregate {
                from: r.u64()? as usize,
                iteration: r.u64()?,
                converged: r.u8()? != 0,
                count: r.u64()?,
            },
            TAG_GLOBAL => Message::GlobalConverged {
                iteration: r.u64()?,
            },
            TAG_HALT => Message::Halt,
            TAG_HEARTBEAT => Message::Heartbeat {
                from: r.u64()? as usize,
            },
            TAG_RESHAPE => {
                let from = r.u64()? as usize;
                let dead = r.u64()?;
                if dead == NO_DEAD_RANK {
                    return Err(r.error("reshape notice names no dead rank"));
                }
                Message::Reshape {
                    from,
                    dead_rank: dead as usize,
                }
            }
            TAG_SUBMIT_SOLVE => Message::SubmitSolve {
                request_id: r.u64()?,
                fingerprint: r.u64()?,
                priority: r.u8()?,
                queue_deadline_micros: r.u64()?,
                config: r.blob()?.to_vec(),
                matrix: r.blob()?.to_vec(),
                rhs: r.f64s()?,
            },
            TAG_SOLVE_RESULT => Message::SolveResult {
                request_id: r.u64()?,
                iterations: r.u64()?,
                coalesced: r.u64()?,
                queue_micros: r.u64()?,
                x: r.f64s()?,
            },
            TAG_REJECT => {
                let request_id = r.u64()?;
                let code = RejectCode::from_u8(r.u8()?)?;
                let retry_after_micros = r.u64()?;
                let detail = std::str::from_utf8(r.blob()?)
                    .map_err(|_| r.error("reject detail is not UTF-8"))?
                    .to_owned();
                Message::Reject {
                    request_id,
                    code,
                    retry_after_micros,
                    detail,
                }
            }
            TAG_STATS_QUERY => Message::StatsQuery,
            TAG_SERVER_STATS => Message::ServerStats {
                shard: r.u64()?,
                completed: r.u64()?,
                rejected: r.u64()?,
                coalesced: r.u64()?,
                batches: r.u64()?,
                cache_evictions: r.u64()?,
                single_flight_waits: r.u64()?,
                single_flight_wait_micros: r.u64()?,
                sparse_fastpath_hits: r.u64()?,
                dense_fallbacks: r.u64()?,
                mean_reach_ppm: r.u64()?,
                queue_depths: [r.u64()?, r.u64()?, r.u64()?],
            },
            other => return Err(r.error(format_args!("unknown message tag {other}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_round_trip() {
        let msg = Message::Solution {
            from: 3,
            iteration: 42,
            offset: 1000,
            values: vec![1.5, -2.25, 0.0, 1e-9],
        };
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.encoded_len());
        let decoded = Message::decode(&encoded).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(decoded.sender(), Some(3));
    }

    #[test]
    fn retired_solution_batch_tag_is_a_codec_error() {
        // A body the removed column batch encoded: tag 5, sender 2,
        // iteration 11, offset 64, then one column of two values.
        let mut body = vec![5u8];
        for word in [2u64, 11, 64, 1, 2] {
            put_u64(&mut body, word);
        }
        put_u64(&mut body, 1.0f64.to_bits());
        put_u64(&mut body, (-4.5f64).to_bits());
        assert!(matches!(Message::decode(&body), Err(CommError::Codec(_))));
        // An empty batch (a column count of zero) is refused as well.
        let mut empty = body[..1 + 3 * 8].to_vec();
        put_u64(&mut empty, 0);
        assert!(matches!(Message::decode(&empty), Err(CommError::Codec(_))));
    }

    #[test]
    fn vote_and_control_round_trip() {
        for msg in [
            Message::ConvergenceVote {
                from: 1,
                iteration: 7,
                converged: true,
            },
            Message::GlobalConverged { iteration: 9 },
            Message::Halt,
            Message::Heartbeat { from: 5 },
            Message::Reshape {
                from: 2,
                dead_rank: 3,
            },
            Message::VoteAggregate {
                from: 6,
                iteration: 33,
                converged: true,
                count: 128,
            },
            Message::VoteAggregate {
                from: 1,
                iteration: 0,
                converged: false,
                count: 1,
            },
        ] {
            let decoded = Message::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(msg.encode().len(), msg.encoded_len());
        }
        assert_eq!(Message::Halt.sender(), None);
        assert_eq!(
            Message::VoteAggregate {
                from: 6,
                iteration: 1,
                converged: true,
                count: 2,
            }
            .sender(),
            Some(6)
        );
    }

    #[test]
    fn truncated_convergence_frames_are_rejected() {
        let msg = Message::VoteAggregate {
            from: 3,
            iteration: 12,
            converged: true,
            count: 64,
        };
        let encoded = msg.encode();
        for cut in 1..encoded.len() {
            assert!(
                matches!(Message::decode(&encoded[..cut]), Err(CommError::Codec(_))),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let msg = Message::Solution {
            from: 0,
            iteration: 1,
            offset: 0,
            values: vec![1.0, 2.0],
        };
        let encoded = msg.encode();
        let truncated = &encoded[..encoded.len() - 4];
        assert!(matches!(
            Message::decode(truncated),
            Err(CommError::Codec(_))
        ));
        assert!(matches!(Message::decode(&[]), Err(CommError::Codec(_))));
        assert!(matches!(Message::decode(&[99]), Err(CommError::Codec(_))));
    }

    #[test]
    fn corrupted_length_fields_do_not_overflow() {
        // Regression: a corrupted header announcing u64::MAX values used to
        // overflow the `8 * len` size check in debug builds.
        let mut buf = Vec::new();
        buf.push(TAG_SOLUTION);
        put_u64(&mut buf, 0); // from
        put_u64(&mut buf, 1); // iteration
        put_u64(&mut buf, 0); // offset
        put_u64(&mut buf, u64::MAX); // absurd length
        assert!(matches!(Message::decode(&buf), Err(CommError::Codec(_))));
    }

    #[test]
    fn encoded_len_tracks_payload_size() {
        let small = Message::Solution {
            from: 0,
            iteration: 0,
            offset: 0,
            values: vec![0.0; 10],
        };
        let large = Message::Solution {
            from: 0,
            iteration: 0,
            offset: 0,
            values: vec![0.0; 1000],
        };
        assert_eq!(large.encoded_len() - small.encoded_len(), 8 * 990);
    }

    fn sample_serve_messages() -> Vec<Message> {
        vec![
            Message::SubmitSolve {
                request_id: 7,
                fingerprint: 0xDEAD_BEEF,
                priority: 1,
                queue_deadline_micros: 250_000,
                config: vec![1, 2, 3, 4],
                matrix: vec![9; 33],
                rhs: vec![1.0, -0.5, 1e-12],
            },
            Message::SubmitSolve {
                request_id: 8,
                fingerprint: 1,
                priority: 0,
                queue_deadline_micros: 0,
                config: Vec::new(),
                matrix: Vec::new(),
                rhs: Vec::new(),
            },
            Message::SolveResult {
                request_id: 7,
                iterations: 41,
                coalesced: 6,
                queue_micros: 1_234,
                x: vec![0.25, 0.5, -3.0],
            },
            Message::Reject {
                request_id: 9,
                code: RejectCode::QueueFull,
                retry_after_micros: 50_000,
                detail: "high lane at its admission limit".to_string(),
            },
            Message::Reject {
                request_id: 10,
                code: RejectCode::Invalid,
                retry_after_micros: 0,
                detail: String::new(),
            },
            Message::StatsQuery,
            Message::ServerStats {
                shard: 2,
                completed: 100,
                rejected: 3,
                coalesced: 48,
                batches: 9,
                cache_evictions: 1,
                single_flight_waits: 5,
                single_flight_wait_micros: 42_000,
                sparse_fastpath_hits: 250,
                dense_fallbacks: 12,
                mean_reach_ppm: 31_250,
                queue_depths: [1, 4, 0],
            },
        ]
    }

    #[test]
    fn serve_messages_round_trip() {
        for msg in sample_serve_messages() {
            let encoded = msg.encode();
            assert_eq!(encoded.len(), msg.encoded_len(), "{msg:?}");
            assert_eq!(Message::decode(&encoded).unwrap(), msg);
            assert_eq!(msg.sender(), None, "serve frames carry no mesh rank");
        }
    }

    #[test]
    fn serve_messages_reject_every_truncation() {
        for msg in sample_serve_messages() {
            let encoded = msg.encode();
            for cut in 1..encoded.len() {
                assert!(
                    matches!(Message::decode(&encoded[..cut]), Err(CommError::Codec(_))),
                    "{msg:?} cut at {cut} should fail"
                );
            }
        }
    }

    #[test]
    fn corrupted_serve_lengths_do_not_allocate() {
        // A submit whose config length claims u64::MAX must fail cleanly.
        let mut buf = Vec::new();
        buf.push(TAG_SUBMIT_SOLVE);
        put_u64(&mut buf, 1); // request_id
        put_u64(&mut buf, 2); // fingerprint
        buf.push(0); // priority
        put_u64(&mut buf, 0); // deadline
        put_u64(&mut buf, u64::MAX); // absurd config length
        assert!(matches!(Message::decode(&buf), Err(CommError::Codec(_))));

        let mut result = Vec::new();
        result.push(TAG_SOLVE_RESULT);
        put_u64(&mut result, 1);
        put_u64(&mut result, 2);
        put_u64(&mut result, 3);
        put_u64(&mut result, 4);
        put_u64(&mut result, u64::MAX); // absurd solution length
        assert!(matches!(Message::decode(&result), Err(CommError::Codec(_))));
    }

    #[test]
    fn unknown_reject_codes_are_codec_errors() {
        let msg = Message::Reject {
            request_id: 1,
            code: RejectCode::ShuttingDown,
            retry_after_micros: 0,
            detail: "x".to_string(),
        };
        let mut raw = msg.encode();
        raw[9] = 99; // the code byte follows tag + request_id
        assert!(matches!(Message::decode(&raw), Err(CommError::Codec(_))));
        assert!(RejectCode::QueueFull.is_retryable());
        assert!(!RejectCode::Invalid.is_retryable());
    }

    #[test]
    fn truncated_reshape_and_speed_report_are_rejected() {
        let encoded = Message::Reshape {
            from: 1,
            dead_rank: 2,
        }
        .encode();
        for cut in 1..encoded.len() {
            assert!(matches!(
                Message::decode(&encoded[..cut]),
                Err(CommError::Codec(_))
            ));
        }
        // The removed speed report (tag 8 + three u64 words) no longer decodes.
        let mut report = vec![8u8];
        report.extend([0u8; 24]);
        assert!(matches!(Message::decode(&report), Err(CommError::Codec(_))));
    }
}
