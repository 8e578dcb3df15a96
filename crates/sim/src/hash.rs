//! FNV-1a 64-bit: the one hash behind every determinism fingerprint.
//!
//! Trace hashes, run fingerprints, the bench result fingerprint, the
//! design digests and the tests' payload checksums all fold through
//! [`Fnv64`], so a value published by one layer can be recomputed by any
//! other. Integers are folded little-endian, which makes the result
//! independent of the host; the design digests fold whole words instead
//! ([`Fnv64::write_word`]).
//!
//! The offset basis and the xor-then-multiply order are FNV-1a's, but the
//! multiplier is `0x1000_0000_01b3`, not the published 64-bit FNV prime
//! `0x100_0000_01b3`. Every committed fingerprint (`results/*.json`, the
//! design digests in image headers, the CI logs) was computed with this
//! multiplier, so it stays; only the empty input hashes to the standard
//! FNV-1a-64 value.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const MULTIPLIER: u64 = 0x1000_0000_01b3;

/// A running FNV-1a-style 64-bit hash (multiplier: see the module docs).
///
/// ```
/// use coyote_sim::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"foobar");
/// assert_eq!(h.finish(), 0xf8ac_2471_f739_67e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hash over no bytes (the FNV offset basis).
    #[inline]
    pub const fn new() -> Self {
        Fnv64(OFFSET_BASIS)
    }

    /// A hash over no bytes that starts from `basis` instead of the FNV
    /// offset basis (`ShellConfig::digest` keeps its own).
    #[inline]
    pub const fn with_basis(basis: u64) -> Self {
        Fnv64(basis)
    }

    /// Fold in `bytes`, one at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_word(u64::from(b));
        }
    }

    /// Fold in `v` as one word: a single xor-multiply step over the whole
    /// value, where [`Fnv64::write_u64`] takes one step per byte. The
    /// design digests (`Netlist::digest`, `ShellConfig::digest`) fold this
    /// way.
    #[inline]
    pub fn write_word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(MULTIPLIER);
    }

    /// Fold in `v` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    /// Pinned outputs: a change to the constants moves every committed
    /// fingerprint, so it must fail here first. The empty input is the
    /// standard FNV-1a-64 vector; "a" and "foobar" differ from the
    /// standard vectors (0xaf63dc4c8601ec8c, 0x85944171f73967e8) because of
    /// the multiplier (see the module docs).
    #[test]
    fn pinned_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn write_u64_folds_little_endian_bytes() {
        let mut h = Fnv64::new();
        h.write_u64(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), fnv(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }
}
