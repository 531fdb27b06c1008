//! The little-endian byte codec shared by every binary format of the
//! workspace: the wire messages and frame headers ([`crate::message`],
//! [`crate::wire`]), and the config and matrix blobs, job-directory files
//! and checkpoints of `msplit_core::codec`.
//!
//! Encoders append to a plain `Vec<u8>`.  Decoders read untrusted bytes
//! through one [`Reader`], which owns the rule every format needs: a read
//! never runs past the end, and a length field must fit the bytes that
//! remain *before* anything is allocated.  Each format keeps its own error
//! kind by handing the reader the constructor of that kind.

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` count followed by each value's little-endian bits — the
/// layout [`Reader::f64s`] reads back.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_u64(out, values.len() as u64);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends a `u64` length followed by the bytes — the layout
/// [`Reader::blob`] reads back.
pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian cursor over untrusted bytes.
///
/// Every failure is `err(detail)`: truncated or hostile input ends in the
/// caller's typed error, never a panic, an overflow or a huge allocation.
/// The reader itself never allocates on success.
pub struct Reader<'a, E> {
    data: &'a [u8],
    pos: usize,
    what: &'static str,
    err: fn(String) -> E,
}

impl<'a, E> Reader<'a, E> {
    /// A reader over `data`; `what` names the format in error details and
    /// `err` builds the caller's error kind (e.g. `CommError::Codec`).
    pub fn new(data: &'a [u8], what: &'static str, err: fn(String) -> E) -> Self {
        Reader {
            data,
            pos: 0,
            what,
            err,
        }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The caller's error for `detail`, prefixed with the format name.
    pub fn error(&self, detail: impl std::fmt::Display) -> E {
        (self.err)(format!("{}: {detail}", self.what))
    }

    /// The next `n` bytes, borrowed.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], E> {
        if self.remaining() < n {
            return Err(self.error(format_args!(
                "truncated: need {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], E> {
        Ok(self.bytes(N)?.try_into().expect("exactly N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, E> {
        Ok(self.bytes(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, E> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, E> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f64` (bit-exact, NaN payloads included).
    pub fn f64(&mut self) -> Result<f64, E> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u64` element count, checked against the remaining bytes divided
    /// by `min_size` — the fewest bytes one element can occupy — so a
    /// corrupted count can neither overflow nor size an allocation beyond
    /// the input.
    pub fn count(&mut self, min_size: usize) -> Result<usize, E> {
        let n = self.u64()?;
        let fits = self.remaining() / min_size.max(1);
        if n > fits as u64 {
            return Err(self.error(format_args!(
                "announces {n} elements but at most {fits} fit in the remaining bytes"
            )));
        }
        Ok(n as usize)
    }

    /// A count-prefixed `f64` vector (see [`put_f64s`]).
    pub fn f64s(&mut self) -> Result<Vec<f64>, E> {
        let n = self.count(8)?;
        Ok(self
            .bytes(8 * n)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// A length-prefixed byte blob, borrowed (see [`put_blob`]).
    pub fn blob(&mut self) -> Result<&'a [u8], E> {
        let n = self.count(1)?;
        self.bytes(n)
    }

    /// Ends the read: bytes left over mean the input is not what the
    /// decoder thinks it is.
    pub fn finish(self) -> Result<(), E> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(self.error(format_args!("{extra} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(data: &[u8]) -> Reader<'_, String> {
        Reader::new(data, "test", |detail| detail)
    }

    #[test]
    fn reads_what_the_writers_wrote() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        put_u64(&mut buf, u64::MAX - 1);
        put_f64s(&mut buf, &[1.5, -0.0, f64::NAN]);
        put_blob(&mut buf, b"abc");
        let mut r = reader(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        let values = r.f64s().unwrap();
        assert_eq!(values[..2], [1.5, -0.0]);
        assert_eq!(values[2].to_bits(), f64::NAN.to_bits());
        assert_eq!(r.blob().unwrap(), b"abc");
        r.finish().unwrap();
    }

    #[test]
    fn counts_must_fit_the_remaining_bytes() {
        for absurd in [u64::MAX, u64::MAX / 8 + 1, 3] {
            let mut buf = Vec::new();
            put_u64(&mut buf, absurd);
            buf.extend_from_slice(&[0; 16]);
            assert!(reader(&buf).f64s().is_err(), "count {absurd}");
        }
        let mut exact = Vec::new();
        put_u64(&mut exact, 2);
        exact.extend_from_slice(&[0; 16]);
        assert_eq!(reader(&exact).f64s().unwrap(), [0.0, 0.0]);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        assert!(reader(&[1, 2, 3]).u32().is_err());
        assert!(reader(&[]).u8().is_err());
        let mut r = reader(&[1, 2]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
