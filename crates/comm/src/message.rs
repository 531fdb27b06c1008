//! Wire messages exchanged by the multisplitting processors.
//!
//! The dominant traffic is the per-iteration exchange of solution slices
//! (`XSub` sent to every processor that depends on it, step 3 of
//! Algorithm 1).  Convergence votes and the final halt notification complete
//! the protocol.  Messages carry a compact binary encoding so that the
//! transport layer can account exact byte counts against the grid bandwidth
//! model.

use crate::CommError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

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
    /// A batch of solution slices produced by a multi-RHS solve: one slice
    /// per right-hand side of the batch, all sharing the sender, iteration
    /// stamp and offset.  Batching the columns into one message keeps the
    /// per-iteration message count of Algorithm 1 unchanged when a prepared
    /// system serves many right-hand sides at once.
    SolutionBatch {
        /// Sender rank.
        from: usize,
        /// Sender's outer-iteration counter when the slices were produced.
        iteration: u64,
        /// Global index of the first entry of every column.
        offset: usize,
        /// One solution slice per right-hand side, all the same length.
        columns: Vec<Vec<f64>>,
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
        /// Number of requests served by the sweep that produced this answer
        /// (1 = solo, >1 = coalesced batch).
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
        /// Requests that shared a coalesced sweep with at least one other
        /// request.
        coalesced: u64,
        /// Coalesced sweeps executed.
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
const TAG_SOLUTION_BATCH: u8 = 5;
const TAG_HEARTBEAT: u8 = 6;
const TAG_RESHAPE: u8 = 7;
const TAG_SUBMIT_SOLVE: u8 = 9;
const TAG_SOLVE_RESULT: u8 = 10;
const TAG_REJECT: u8 = 11;
const TAG_STATS_QUERY: u8 = 12;
const TAG_SERVER_STATS: u8 = 13;
const TAG_VOTE_AGGREGATE: u8 = 14;
// Tags 8 and 15 are reserved: they carried the speed report of the removed
// online rebalancer and the stability summary of a removed detection
// protocol, and must not be reused for a different frame.

/// The `dead_rank` value the removed speed-drift reshape sent in place of a
/// rank; a reshape always names its dead rank now, so this is rejected.
const NO_DEAD_RANK: u64 = u64::MAX;

/// Reads a `u64`-length-prefixed byte blob, rejecting lengths beyond the
/// remaining buffer so a corrupted header cannot trigger a huge allocation.
fn get_blob(data: &mut Bytes, what: &str) -> Result<Vec<u8>, CommError> {
    if data.remaining() < 8 {
        return Err(CommError::Codec(format!("truncated {what} length")));
    }
    let len = data.get_u64_le() as usize;
    if data.remaining() < len {
        return Err(CommError::Codec(format!(
            "truncated {what}: expected {len} bytes"
        )));
    }
    let mut out = vec![0u8; len];
    data.copy_to_slice(&mut out);
    Ok(out)
}

/// Reads a `u64`-length-prefixed vector of little-endian `f64`s.
fn get_f64s(data: &mut Bytes, what: &str) -> Result<Vec<f64>, CommError> {
    if data.remaining() < 8 {
        return Err(CommError::Codec(format!("truncated {what} length")));
    }
    let len = data.get_u64_le() as usize;
    // `remaining / 8` (not `8 * len`) so a corrupted length cannot overflow.
    if data.remaining() / 8 < len {
        return Err(CommError::Codec(format!(
            "truncated {what}: expected {len} values"
        )));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(data.get_f64_le());
    }
    Ok(out)
}

impl Message {
    /// The rank that produced the message, when it carries one.
    pub fn sender(&self) -> Option<usize> {
        match self {
            Message::Solution { from, .. }
            | Message::SolutionBatch { from, .. }
            | Message::ConvergenceVote { from, .. }
            | Message::Heartbeat { from }
            | Message::Reshape { from, .. }
            | Message::VoteAggregate { from, .. } => Some(*from),
            _ => None,
        }
    }

    /// Size of the encoded message in bytes — the number charged against the
    /// link bandwidth by the grid model.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::Solution { values, .. } => 1 + 8 + 8 + 8 + 8 + 8 * values.len(),
            Message::SolutionBatch { columns, .. } => {
                let payload: usize = columns.iter().map(|c| 8 + 8 * c.len()).sum();
                1 + 8 + 8 + 8 + 8 + payload
            }
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

    /// Encodes the message into a byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            Message::Solution {
                from,
                iteration,
                offset,
                values,
            } => {
                buf.put_u8(TAG_SOLUTION);
                buf.put_u64_le(*from as u64);
                buf.put_u64_le(*iteration);
                buf.put_u64_le(*offset as u64);
                buf.put_u64_le(values.len() as u64);
                for v in values {
                    buf.put_f64_le(*v);
                }
            }
            Message::SolutionBatch {
                from,
                iteration,
                offset,
                columns,
            } => {
                buf.put_u8(TAG_SOLUTION_BATCH);
                buf.put_u64_le(*from as u64);
                buf.put_u64_le(*iteration);
                buf.put_u64_le(*offset as u64);
                buf.put_u64_le(columns.len() as u64);
                for col in columns {
                    buf.put_u64_le(col.len() as u64);
                    for v in col {
                        buf.put_f64_le(*v);
                    }
                }
            }
            Message::ConvergenceVote {
                from,
                iteration,
                converged,
            } => {
                buf.put_u8(TAG_VOTE);
                buf.put_u64_le(*from as u64);
                buf.put_u64_le(*iteration);
                buf.put_u8(u8::from(*converged));
            }
            Message::VoteAggregate {
                from,
                iteration,
                converged,
                count,
            } => {
                buf.put_u8(TAG_VOTE_AGGREGATE);
                buf.put_u64_le(*from as u64);
                buf.put_u64_le(*iteration);
                buf.put_u8(u8::from(*converged));
                buf.put_u64_le(*count);
            }
            Message::GlobalConverged { iteration } => {
                buf.put_u8(TAG_GLOBAL);
                buf.put_u64_le(*iteration);
            }
            Message::Halt => {
                buf.put_u8(TAG_HALT);
            }
            Message::Heartbeat { from } => {
                buf.put_u8(TAG_HEARTBEAT);
                buf.put_u64_le(*from as u64);
            }
            Message::Reshape { from, dead_rank } => {
                buf.put_u8(TAG_RESHAPE);
                buf.put_u64_le(*from as u64);
                buf.put_u64_le(*dead_rank as u64);
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
                buf.put_u8(TAG_SUBMIT_SOLVE);
                buf.put_u64_le(*request_id);
                buf.put_u64_le(*fingerprint);
                buf.put_u8(*priority);
                buf.put_u64_le(*queue_deadline_micros);
                buf.put_u64_le(config.len() as u64);
                buf.put_slice(config);
                buf.put_u64_le(matrix.len() as u64);
                buf.put_slice(matrix);
                buf.put_u64_le(rhs.len() as u64);
                for v in rhs {
                    buf.put_f64_le(*v);
                }
            }
            Message::SolveResult {
                request_id,
                iterations,
                coalesced,
                queue_micros,
                x,
            } => {
                buf.put_u8(TAG_SOLVE_RESULT);
                buf.put_u64_le(*request_id);
                buf.put_u64_le(*iterations);
                buf.put_u64_le(*coalesced);
                buf.put_u64_le(*queue_micros);
                buf.put_u64_le(x.len() as u64);
                for v in x {
                    buf.put_f64_le(*v);
                }
            }
            Message::Reject {
                request_id,
                code,
                retry_after_micros,
                detail,
            } => {
                buf.put_u8(TAG_REJECT);
                buf.put_u64_le(*request_id);
                buf.put_u8(code.to_u8());
                buf.put_u64_le(*retry_after_micros);
                buf.put_u64_le(detail.len() as u64);
                buf.put_slice(detail.as_bytes());
            }
            Message::StatsQuery => {
                buf.put_u8(TAG_STATS_QUERY);
            }
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
                buf.put_u8(TAG_SERVER_STATS);
                buf.put_u64_le(*shard);
                buf.put_u64_le(*completed);
                buf.put_u64_le(*rejected);
                buf.put_u64_le(*coalesced);
                buf.put_u64_le(*batches);
                buf.put_u64_le(*cache_evictions);
                buf.put_u64_le(*single_flight_waits);
                buf.put_u64_le(*single_flight_wait_micros);
                buf.put_u64_le(*sparse_fastpath_hits);
                buf.put_u64_le(*dense_fallbacks);
                buf.put_u64_le(*mean_reach_ppm);
                for d in queue_depths {
                    buf.put_u64_le(*d);
                }
            }
        }
        buf.freeze()
    }

    /// Decodes a message produced by [`Message::encode`].
    pub fn decode(mut data: Bytes) -> Result<Self, CommError> {
        if data.is_empty() {
            return Err(CommError::Codec("empty buffer".to_string()));
        }
        let tag = data.get_u8();
        match tag {
            TAG_SOLUTION => {
                if data.remaining() < 32 {
                    return Err(CommError::Codec("truncated solution header".to_string()));
                }
                let from = data.get_u64_le() as usize;
                let iteration = data.get_u64_le();
                let offset = data.get_u64_le() as usize;
                let len = data.get_u64_le() as usize;
                // `remaining / 8` (not `8 * len`) so a corrupted length
                // cannot overflow the comparison.
                if data.remaining() / 8 < len {
                    return Err(CommError::Codec(format!(
                        "truncated solution payload: expected {len} values"
                    )));
                }
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(data.get_f64_le());
                }
                Ok(Message::Solution {
                    from,
                    iteration,
                    offset,
                    values,
                })
            }
            TAG_SOLUTION_BATCH => {
                if data.remaining() < 32 {
                    return Err(CommError::Codec("truncated batch header".to_string()));
                }
                let from = data.get_u64_le() as usize;
                let iteration = data.get_u64_le();
                let offset = data.get_u64_le() as usize;
                let ncols = data.get_u64_le() as usize;
                let mut columns = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    if data.remaining() < 8 {
                        return Err(CommError::Codec("truncated batch column".to_string()));
                    }
                    let len = data.get_u64_le() as usize;
                    if data.remaining() / 8 < len {
                        return Err(CommError::Codec(format!(
                            "truncated batch column payload: expected {len} values"
                        )));
                    }
                    let mut col = Vec::with_capacity(len);
                    for _ in 0..len {
                        col.push(data.get_f64_le());
                    }
                    columns.push(col);
                }
                Ok(Message::SolutionBatch {
                    from,
                    iteration,
                    offset,
                    columns,
                })
            }
            TAG_VOTE => {
                if data.remaining() < 17 {
                    return Err(CommError::Codec("truncated vote".to_string()));
                }
                let from = data.get_u64_le() as usize;
                let iteration = data.get_u64_le();
                let converged = data.get_u8() != 0;
                Ok(Message::ConvergenceVote {
                    from,
                    iteration,
                    converged,
                })
            }
            TAG_VOTE_AGGREGATE => {
                if data.remaining() < 25 {
                    return Err(CommError::Codec("truncated vote aggregate".to_string()));
                }
                let from = data.get_u64_le() as usize;
                let iteration = data.get_u64_le();
                let converged = data.get_u8() != 0;
                let count = data.get_u64_le();
                Ok(Message::VoteAggregate {
                    from,
                    iteration,
                    converged,
                    count,
                })
            }
            TAG_GLOBAL => {
                if data.remaining() < 8 {
                    return Err(CommError::Codec("truncated global notice".to_string()));
                }
                Ok(Message::GlobalConverged {
                    iteration: data.get_u64_le(),
                })
            }
            TAG_HALT => Ok(Message::Halt),
            TAG_HEARTBEAT => {
                if data.remaining() < 8 {
                    return Err(CommError::Codec("truncated heartbeat".to_string()));
                }
                Ok(Message::Heartbeat {
                    from: data.get_u64_le() as usize,
                })
            }
            TAG_RESHAPE => {
                if data.remaining() < 16 {
                    return Err(CommError::Codec("truncated reshape notice".to_string()));
                }
                let from = data.get_u64_le() as usize;
                let dead = data.get_u64_le();
                if dead == NO_DEAD_RANK {
                    return Err(CommError::Codec(
                        "reshape notice names no dead rank".to_string(),
                    ));
                }
                Ok(Message::Reshape {
                    from,
                    dead_rank: dead as usize,
                })
            }
            TAG_SUBMIT_SOLVE => {
                if data.remaining() < 25 {
                    return Err(CommError::Codec("truncated submit header".to_string()));
                }
                let request_id = data.get_u64_le();
                let fingerprint = data.get_u64_le();
                let priority = data.get_u8();
                let queue_deadline_micros = data.get_u64_le();
                let config = get_blob(&mut data, "submit config")?;
                let matrix = get_blob(&mut data, "submit matrix")?;
                let rhs = get_f64s(&mut data, "submit rhs")?;
                Ok(Message::SubmitSolve {
                    request_id,
                    fingerprint,
                    priority,
                    queue_deadline_micros,
                    config,
                    matrix,
                    rhs,
                })
            }
            TAG_SOLVE_RESULT => {
                if data.remaining() < 32 {
                    return Err(CommError::Codec("truncated result header".to_string()));
                }
                let request_id = data.get_u64_le();
                let iterations = data.get_u64_le();
                let coalesced = data.get_u64_le();
                let queue_micros = data.get_u64_le();
                let x = get_f64s(&mut data, "result solution")?;
                Ok(Message::SolveResult {
                    request_id,
                    iterations,
                    coalesced,
                    queue_micros,
                    x,
                })
            }
            TAG_REJECT => {
                if data.remaining() < 17 {
                    return Err(CommError::Codec("truncated reject header".to_string()));
                }
                let request_id = data.get_u64_le();
                let code = RejectCode::from_u8(data.get_u8())?;
                let retry_after_micros = data.get_u64_le();
                let raw = get_blob(&mut data, "reject detail")?;
                let detail = String::from_utf8(raw)
                    .map_err(|_| CommError::Codec("reject detail is not UTF-8".to_string()))?;
                Ok(Message::Reject {
                    request_id,
                    code,
                    retry_after_micros,
                    detail,
                })
            }
            TAG_STATS_QUERY => Ok(Message::StatsQuery),
            TAG_SERVER_STATS => {
                if data.remaining() < 8 * 11 + 8 * 3 {
                    return Err(CommError::Codec("truncated server stats".to_string()));
                }
                Ok(Message::ServerStats {
                    shard: data.get_u64_le(),
                    completed: data.get_u64_le(),
                    rejected: data.get_u64_le(),
                    coalesced: data.get_u64_le(),
                    batches: data.get_u64_le(),
                    cache_evictions: data.get_u64_le(),
                    single_flight_waits: data.get_u64_le(),
                    single_flight_wait_micros: data.get_u64_le(),
                    sparse_fastpath_hits: data.get_u64_le(),
                    dense_fallbacks: data.get_u64_le(),
                    mean_reach_ppm: data.get_u64_le(),
                    queue_depths: [data.get_u64_le(), data.get_u64_le(), data.get_u64_le()],
                })
            }
            other => Err(CommError::Codec(format!("unknown message tag {other}"))),
        }
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
        let decoded = Message::decode(encoded).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(decoded.sender(), Some(3));
    }

    #[test]
    fn solution_batch_round_trip() {
        let msg = Message::SolutionBatch {
            from: 2,
            iteration: 11,
            offset: 64,
            columns: vec![vec![1.0, 2.0, 3.0], vec![-4.5, 0.0, 1e-12]],
        };
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.encoded_len());
        let decoded = Message::decode(encoded).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(decoded.sender(), Some(2));

        // Empty batch is legal and round-trips too.
        let empty = Message::SolutionBatch {
            from: 0,
            iteration: 1,
            offset: 0,
            columns: Vec::new(),
        };
        assert_eq!(Message::decode(empty.encode()).unwrap(), empty);

        // Truncated batch payload is rejected.
        let full = msg.encode();
        let cut = full.slice(0..full.len() - 8);
        assert!(matches!(Message::decode(cut), Err(CommError::Codec(_))));
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
            let decoded = Message::decode(msg.encode()).unwrap();
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
                matches!(
                    Message::decode(encoded.slice(0..cut)),
                    Err(CommError::Codec(_))
                ),
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
        let truncated = encoded.slice(0..encoded.len() - 4);
        assert!(matches!(
            Message::decode(truncated),
            Err(CommError::Codec(_))
        ));
        assert!(matches!(
            Message::decode(Bytes::new()),
            Err(CommError::Codec(_))
        ));
        assert!(matches!(
            Message::decode(Bytes::from_static(&[99])),
            Err(CommError::Codec(_))
        ));
    }

    #[test]
    fn corrupted_length_fields_do_not_overflow() {
        // Regression: a corrupted header announcing u64::MAX values used to
        // overflow the `8 * len` size check in debug builds.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(TAG_SOLUTION);
        buf.put_u64_le(0); // from
        buf.put_u64_le(1); // iteration
        buf.put_u64_le(0); // offset
        buf.put_u64_le(u64::MAX); // absurd length
        assert!(matches!(
            Message::decode(buf.freeze()),
            Err(CommError::Codec(_))
        ));

        let mut batch = BytesMut::with_capacity(64);
        batch.put_u8(TAG_SOLUTION_BATCH);
        batch.put_u64_le(0);
        batch.put_u64_le(1);
        batch.put_u64_le(0);
        batch.put_u64_le(1); // one column
        batch.put_u64_le(u64::MAX); // absurd column length
        assert!(matches!(
            Message::decode(batch.freeze()),
            Err(CommError::Codec(_))
        ));
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
            assert_eq!(Message::decode(encoded).unwrap(), msg);
            assert_eq!(msg.sender(), None, "serve frames carry no mesh rank");
        }
    }

    #[test]
    fn serve_messages_reject_every_truncation() {
        for msg in sample_serve_messages() {
            let encoded = msg.encode();
            for cut in 1..encoded.len() {
                assert!(
                    matches!(
                        Message::decode(encoded.slice(0..cut)),
                        Err(CommError::Codec(_))
                    ),
                    "{msg:?} cut at {cut} should fail"
                );
            }
        }
    }

    #[test]
    fn corrupted_serve_lengths_do_not_allocate() {
        // A submit whose config length claims u64::MAX must fail cleanly.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(TAG_SUBMIT_SOLVE);
        buf.put_u64_le(1); // request_id
        buf.put_u64_le(2); // fingerprint
        buf.put_u8(0); // priority
        buf.put_u64_le(0); // deadline
        buf.put_u64_le(u64::MAX); // absurd config length
        assert!(matches!(
            Message::decode(buf.freeze()),
            Err(CommError::Codec(_))
        ));

        let mut result = BytesMut::with_capacity(64);
        result.put_u8(TAG_SOLVE_RESULT);
        result.put_u64_le(1);
        result.put_u64_le(2);
        result.put_u64_le(3);
        result.put_u64_le(4);
        result.put_u64_le(u64::MAX); // absurd solution length
        assert!(matches!(
            Message::decode(result.freeze()),
            Err(CommError::Codec(_))
        ));
    }

    #[test]
    fn unknown_reject_codes_are_codec_errors() {
        let msg = Message::Reject {
            request_id: 1,
            code: RejectCode::ShuttingDown,
            retry_after_micros: 0,
            detail: "x".to_string(),
        };
        let mut raw = msg.encode().as_ref().to_vec();
        raw[9] = 99; // the code byte follows tag + request_id
        assert!(matches!(
            Message::decode(Bytes::from(raw)),
            Err(CommError::Codec(_))
        ));
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
                Message::decode(encoded.slice(0..cut)),
                Err(CommError::Codec(_))
            ));
        }
        // The removed speed report (tag 8 + three u64 words) no longer decodes.
        let mut report = vec![8u8];
        report.extend([0u8; 24]);
        assert!(matches!(
            Message::decode(Bytes::from(report)),
            Err(CommError::Codec(_))
        ));
    }
}
