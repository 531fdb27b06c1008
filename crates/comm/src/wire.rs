//! Wire framing for socket transports.
//!
//! The in-process transport hands [`Message`] values over channels; a socket
//! carries bytes.  This module defines the frame layout used by
//! [`crate::tcp::TcpTransport`]:
//!
//! ```text
//! +---------+------------+----------------+-------------+-----------------+
//! | version | from (u32) | iteration(u64) | len (u32)   | payload (len B) |
//! |  1 byte | LE         | LE             | LE          | Message::encode |
//! +---------+------------+----------------+-------------+-----------------+
//! ```
//!
//! The `from` and `iteration` headers duplicate information most payloads
//! carry so that a receiver (or a packet trace) can route and order frames
//! without decoding the body — the same reason MPI puts the rank in the
//! envelope.  Control messages without a sender or iteration use zero.
//!
//! Connection establishment uses a fixed-size [`Handshake`] carrying the
//! peer's rank, the world size and the job fingerprint (the matrix
//! fingerprint in the distributed solver), so mis-wired address lists and
//! mismatched partitions fail deterministically at connect time instead of
//! corrupting a solve.

use crate::codec::Reader;
use crate::message::Message;
use crate::CommError;
use std::io::{Read, Write};

/// Version byte of the frame layout; bump on any incompatible change.
pub const WIRE_VERSION: u8 = 1;

/// Magic prefix of the connection handshake.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"MSPW";

/// Bytes of a frame header: version + from + iteration + payload length.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 8 + 4;

/// Upper bound on a frame payload; anything larger is treated as stream
/// corruption rather than an allocation request (a 64M-row solution slice
/// would be ~512 MB — far beyond what one band exchanges per iteration).
pub const MAX_FRAME_PAYLOAD: usize = 256 * 1024 * 1024;

/// Payload bytes [`read_frame`] reserves before any of them has arrived.  A
/// frame up to this size costs one allocation; a larger one grows its buffer
/// as its bytes arrive, so a header alone cannot make a reader allocate
/// [`MAX_FRAME_PAYLOAD`] bytes.
const PAYLOAD_RESERVE: usize = 64 * 1024;

/// Parsed frame header (the envelope preceding every payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Wire version the frame was encoded with.
    pub version: u8,
    /// Sender rank (0 for control messages without a sender).
    pub from: u32,
    /// Sender's outer-iteration counter (0 when not applicable).
    pub iteration: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

fn message_iteration(msg: &Message) -> u64 {
    match msg {
        Message::Solution { iteration, .. }
        | Message::ConvergenceVote { iteration, .. }
        | Message::GlobalConverged { iteration }
        | Message::VoteAggregate { iteration, .. } => *iteration,
        // Serve-protocol frames have no iteration; the envelope slot carries
        // the request id instead so a packet trace can pair a response with
        // its request without decoding bodies.
        Message::SubmitSolve { request_id, .. }
        | Message::SolveResult { request_id, .. }
        | Message::Reject { request_id, .. } => *request_id,
        Message::Halt
        | Message::Heartbeat { .. }
        | Message::Reshape { .. }
        | Message::StatsQuery
        | Message::ServerStats { .. } => 0,
    }
}

/// Returns an error if `msg` would not fit in one frame — callers must
/// check *before* encoding, so an oversized message fails loudly at the
/// send site instead of desyncing the receiver's stream.
pub fn check_frame_size(msg: &Message) -> Result<(), CommError> {
    let len = msg.encoded_len();
    if len > MAX_FRAME_PAYLOAD {
        return Err(CommError::Codec(format!(
            "message of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame cap"
        )));
    }
    Ok(())
}

/// Encodes `msg` as one self-contained frame, header and body written into
/// one buffer.
pub fn encode_frame(from: usize, msg: &Message) -> Vec<u8> {
    let len = msg.encoded_len();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + len);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&(from as u32).to_le_bytes());
    out.extend_from_slice(&message_iteration(msg).to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    msg.encode_into(&mut out);
    debug_assert_eq!(out.len(), FRAME_HEADER_LEN + len, "encoded_len is exact");
    out
}

fn frame_reader(buf: &[u8]) -> Reader<'_, CommError> {
    Reader::new(buf, "frame", CommError::Codec)
}

/// Reads and validates the [`FRAME_HEADER_LEN`]-byte envelope.
fn parse_header(r: &mut Reader<'_, CommError>) -> Result<FrameHeader, CommError> {
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(r.error(format_args!(
            "unsupported wire version {version} (expected {WIRE_VERSION})"
        )));
    }
    let from = r.u32()?;
    let iteration = r.u64()?;
    let payload_len = r.u32()?;
    if payload_len as usize > MAX_FRAME_PAYLOAD {
        return Err(r.error(format_args!(
            "payload of {payload_len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        )));
    }
    Ok(FrameHeader {
        version,
        from,
        iteration,
        payload_len,
    })
}

/// Decodes one frame from an in-memory buffer (used by the torn-frame fuzz
/// tests; sockets use [`read_frame`]).  Trailing bytes after the frame are an
/// error: a frame is self-delimiting, so leftovers mean the caller lost sync.
pub fn decode_frame(buf: &[u8]) -> Result<(FrameHeader, Message), CommError> {
    let mut r = frame_reader(buf);
    let header = parse_header(&mut r)?;
    let body = r.bytes(header.payload_len as usize)?;
    r.finish()?;
    Ok((header, Message::decode(body)?))
}

/// Writes one frame to a stream (no flush; callers batch then flush).
/// Fails cleanly on a message too large to frame.
pub fn write_frame<W: Write>(writer: &mut W, from: usize, msg: &Message) -> Result<(), CommError> {
    check_frame_size(msg)?;
    let frame = encode_frame(from, msg);
    writer
        .write_all(&frame)
        .map_err(|e| CommError::Io(format!("frame write failed: {e}")))
}

/// Reads one complete frame from a stream.
///
/// A clean end-of-stream *before the first header byte* is reported as
/// [`CommError::Disconnected`] with the peer rank unknown (`usize::MAX`); an
/// EOF in the middle of a frame is a codec error (torn frame).
pub fn read_frame<R: Read>(reader: &mut R) -> Result<(FrameHeader, Message), CommError> {
    let mut raw = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < raw.len() {
        match reader.read(&mut raw[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Err(CommError::Disconnected { rank: usize::MAX })
                } else {
                    Err(CommError::Codec(format!(
                        "torn frame: stream closed after {filled} header bytes"
                    )))
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(CommError::Io(format!("frame header read failed: {e}"))),
        }
    }
    let header = parse_header(&mut frame_reader(&raw))?;
    let len = header.payload_len as usize;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_RESERVE));
    let got = reader
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| CommError::Io(format!("frame payload read failed: {e}")))?;
    if got < len {
        return Err(CommError::Codec(format!(
            "torn frame: stream closed after {got} of {len} payload bytes"
        )));
    }
    let msg = Message::decode(&payload)?;
    Ok((header, msg))
}

/// Connection handshake: who is connecting, how large the world is, and
/// which job (matrix) the peer believes it is solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// Rank of the endpoint sending the handshake.
    pub rank: usize,
    /// Total number of ranks the sender expects in the mesh.
    pub world_size: usize,
    /// Job fingerprint (the matrix fingerprint in the distributed solver);
    /// both sides must agree or the partitions cannot match.
    pub fingerprint: u64,
}

/// Encoded handshake size: magic + version + rank + world + fingerprint.
pub const HANDSHAKE_LEN: usize = 4 + 1 + 4 + 4 + 8;

impl Handshake {
    /// Serializes the handshake into its fixed-size wire form.
    pub fn encode(&self) -> [u8; HANDSHAKE_LEN] {
        let mut out = [0u8; HANDSHAKE_LEN];
        out[..4].copy_from_slice(&HANDSHAKE_MAGIC);
        out[4] = WIRE_VERSION;
        out[5..9].copy_from_slice(&(self.rank as u32).to_le_bytes());
        out[9..13].copy_from_slice(&(self.world_size as u32).to_le_bytes());
        out[13..21].copy_from_slice(&self.fingerprint.to_le_bytes());
        out
    }

    /// Parses a handshake, validating magic and version.
    pub fn decode(raw: &[u8; HANDSHAKE_LEN]) -> Result<Self, CommError> {
        if raw[..4] != HANDSHAKE_MAGIC {
            return Err(CommError::Codec(
                "bad handshake magic (peer is not an msplit endpoint)".to_string(),
            ));
        }
        if raw[4] != WIRE_VERSION {
            return Err(CommError::Codec(format!(
                "handshake version {} does not match local version {WIRE_VERSION}",
                raw[4]
            )));
        }
        Ok(Handshake {
            rank: u32::from_le_bytes(raw[5..9].try_into().expect("4 bytes")) as usize,
            world_size: u32::from_le_bytes(raw[9..13].try_into().expect("4 bytes")) as usize,
            fingerprint: u64::from_le_bytes(raw[13..21].try_into().expect("8 bytes")),
        })
    }

    /// Writes the handshake to a stream and flushes it.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), CommError> {
        writer
            .write_all(&self.encode())
            .and_then(|()| writer.flush())
            .map_err(|e| CommError::Io(format!("handshake write failed: {e}")))
    }

    /// Reads a handshake from a stream.
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Self, CommError> {
        let mut raw = [0u8; HANDSHAKE_LEN];
        reader
            .read_exact(&mut raw)
            .map_err(|e| CommError::Io(format!("handshake read failed: {e}")))?;
        Self::decode(&raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Solution {
                from: 2,
                iteration: 9,
                offset: 40,
                values: vec![1.0, -2.5, 3.25],
            },
            Message::ConvergenceVote {
                from: 3,
                iteration: 17,
                converged: true,
            },
            Message::GlobalConverged { iteration: 21 },
            Message::Halt,
        ]
    }

    #[test]
    fn frame_round_trip_preserves_header_and_payload() {
        for msg in sample_messages() {
            let frame = encode_frame(5, &msg);
            let (header, decoded) = decode_frame(&frame).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(header.version, WIRE_VERSION);
            assert_eq!(header.from, 5);
            assert_eq!(header.payload_len as usize, msg.encoded_len());
            match &msg {
                Message::Solution { iteration, .. } => assert_eq!(header.iteration, *iteration),
                Message::Halt => assert_eq!(header.iteration, 0),
                _ => {}
            }
        }
    }

    #[test]
    fn stream_round_trip_over_a_cursor() {
        let msgs = sample_messages();
        let mut buf: Vec<u8> = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, 1, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let (header, decoded) = read_frame(&mut cursor).unwrap();
            assert_eq!(&decoded, m);
            assert_eq!(header.from, 1);
        }
        // Clean EOF after the last frame surfaces as a disconnect.
        assert!(matches!(
            read_frame(&mut cursor),
            Err(CommError::Disconnected { .. })
        ));
    }

    #[test]
    fn torn_frames_are_codec_errors_not_panics() {
        let frame = encode_frame(0, &sample_messages()[0]);
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).unwrap_err();
            assert!(matches!(err, CommError::Codec(_)), "cut at {cut}: {err}");
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            let stream_err = read_frame(&mut cursor).unwrap_err();
            assert!(
                matches!(
                    stream_err,
                    CommError::Codec(_) | CommError::Disconnected { .. }
                ),
                "stream cut at {cut}: {stream_err}"
            );
        }
        // Trailing garbage is detected too.
        let mut padded = frame.clone();
        padded.push(0);
        assert!(matches!(decode_frame(&padded), Err(CommError::Codec(_))));
    }

    #[test]
    fn version_and_size_violations_rejected() {
        let mut frame = encode_frame(0, &Message::Halt);
        frame[0] = 99;
        assert!(matches!(decode_frame(&frame), Err(CommError::Codec(_))));

        let mut oversized = encode_frame(0, &Message::Halt);
        oversized[13..17].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode_frame(&oversized), Err(CommError::Codec(_))));
    }

    #[test]
    fn handshake_round_trip_and_validation() {
        let hs = Handshake {
            rank: 3,
            world_size: 8,
            fingerprint: 0xFEED_FACE_CAFE_BEEF,
        };
        let mut buf: Vec<u8> = Vec::new();
        hs.write_to(&mut buf).unwrap();
        let back = Handshake::read_from(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(back, hs);

        let mut bad_magic = hs.encode();
        bad_magic[0] = b'X';
        assert!(Handshake::decode(&bad_magic).is_err());
        let mut bad_version = hs.encode();
        bad_version[4] = 0;
        assert!(Handshake::decode(&bad_version).is_err());
    }
}
