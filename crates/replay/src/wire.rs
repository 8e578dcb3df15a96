//! The varint wire layer of the `.cyt` recording format.
//!
//! Unsigned LEB128: seven payload bits per byte, continuation in the high
//! bit, little-endian groups. Every multi-byte integer in a recording goes
//! through here, so the format is compact (most fields are small) and has
//! exactly one encoding per value — the decoder rejects over-long encodings
//! so a recording's byte image is canonical.

use crate::format::ReplayError;

/// Append `v` as unsigned LEB128.
pub fn put_uvarint(buf: &mut Vec<u8>, v: u64) {
    let mut tmp = [0u8; 10];
    let mut n = 0;
    write_uvarint(&mut tmp, &mut n, v);
    buf.extend_from_slice(&tmp[..n]);
}

/// Write `v` as unsigned LEB128 into `out` at `*pos` and advance `*pos`
/// past it. A value takes at most ten bytes.
///
/// # Panics
///
/// Panics if `out` has no room for the encoding.
#[inline]
pub(crate) fn write_uvarint(out: &mut [u8], pos: &mut usize, mut v: u64) {
    while v >= 0x80 {
        out[*pos] = (v as u8 & 0x7F) | 0x80;
        *pos += 1;
        v >>= 7;
    }
    out[*pos] = v as u8;
    *pos += 1;
}

/// A bounds-checked cursor over a recording's bytes. Every read fails
/// closed: running out of bytes is [`ReplayError::Truncated`], a malformed
/// varint is [`ReplayError::BadValue`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> Result<u8, ReplayError> {
        let b = *self.buf.get(self.pos).ok_or(ReplayError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReplayError> {
        if self.remaining() < n {
            return Err(ReplayError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read an unsigned LEB128 integer. Rejects encodings longer than ten
    /// bytes, payload bits beyond 64, and over-long encodings (a final
    /// `0x00` continuation byte that encodes nothing), so every value has
    /// exactly one accepted byte image.
    pub fn uvarint(&mut self) -> Result<u64, ReplayError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let b = self.u8()?;
            let payload = (b & 0x7F) as u64;
            if i == 9 && payload > 1 {
                return Err(ReplayError::BadValue("varint overflows u64"));
            }
            v |= payload << (7 * i);
            if b & 0x80 == 0 {
                if i > 0 && b == 0 {
                    return Err(ReplayError::BadValue("over-long varint encoding"));
                }
                return Ok(v);
            }
        }
        Err(ReplayError::BadValue("varint longer than ten bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> u64 {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, v);
        let mut r = Reader::new(&buf);
        let out = r.uvarint().unwrap();
        assert_eq!(r.remaining(), 0);
        out
    }

    #[test]
    fn varints_round_trip() {
        for v in [
            0,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(round_trip(v), v);
        }
    }

    #[test]
    fn truncated_varint_fails_closed() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.uvarint().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn overlong_and_overflowing_varints_rejected() {
        // 0x80 0x00 encodes 0 in two bytes: over-long.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert!(matches!(r.uvarint(), Err(ReplayError::BadValue(_))));
        // Eleven continuation bytes: too long.
        let mut r = Reader::new(&[0x80; 11]);
        assert!(matches!(r.uvarint(), Err(ReplayError::BadValue(_))));
        // Ten bytes with payload bits above bit 63.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(matches!(r.uvarint(), Err(ReplayError::BadValue(_))));
    }
}
