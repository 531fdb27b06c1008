//! Byte codecs for the opaque blobs of the serve protocol.
//!
//! [`Message::SubmitSolve`](msplit_comm::Message) carries the solver
//! configuration and the matrix as length-prefixed byte blobs so that
//! `msplit-comm` stays independent of the solver crates.  Both blobs are the
//! workspace's one config codec and one matrix codec, which live next to
//! the types they encode in [`msplit_core::codec`]; the server and the
//! client go through these re-exports, and a decode failure is answered
//! with `RejectCode::Invalid`.

pub use msplit_core::codec::{decode_config, decode_matrix, encode_config, encode_matrix};
