//! CRC-32 (IEEE 802.3).
//!
//! Used for the bitstream integrity word (the real devices embed a CRC in
//! the configuration stream and abort configuration on mismatch), for the
//! per-run check of a batched reconfiguration and for the ICRC of the RoCE
//! v2 stack in `coyote-net`. The last two are memoized where the bytes are
//! provably the ones hashed before: a batched reconfiguration of a resident
//! image hashes only the runs chaos flips in flight.
//!
//! [`Crc32::update`] runs on one of two paths, chosen per call:
//!
//! * the CPU's carry-less multiply, when run-time detection finds it (x86-64
//!   PCLMULQDQ, in the private `clmul` module), for the whole 16-byte blocks
//!   of an input of at least 64 bytes: 0.046–0.050 ns/B on a 4 KiB RoCE
//!   payload in cache, 0.118–0.123 ns/B on a fresh 40 MiB buffer;
//! * otherwise, and for shorter inputs and the last 0–15 bytes, a
//!   slice-by-16 table loop: 0.54–0.56 ns/B.
//!
//! The figures are release builds on a 2-vCPU x86-64 host, best of 5–7
//! passes, three runs. No option selects a path: the CPU and the input
//! length do. Both give the same register, and the tests check each against
//! the other ([`crc32_portable`] is the table loop alone).

#[cfg(target_arch = "x86_64")]
mod clmul;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][i]` advances byte `i` over `k`
/// further zero bytes, letting the table loop fold sixteen input bytes per
/// step instead of one (on a CPU without the carry-less multiply it checks
/// whole bitstream blobs, which run to tens of megabytes).
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN {
            if let Some(clmul) = clmul::Clmul::detect() {
                let (blocks, tail) = data.split_at(data.len() / 16 * 16);
                self.state = absorb(clmul.update(self.state, blocks), tail);
                return;
            }
        }
        self.state = absorb(self.state, data);
    }

    /// Final checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One slice-by-16 step: fold the sixteen bytes of `chunk` into `crc`.
#[inline(always)]
fn step16(crc: u32, chunk: &[u8]) -> u32 {
    let a = crc ^ u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes"));
    let b = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
    let c = u32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes"));
    let d = u32::from_le_bytes(chunk[12..16].try_into().expect("4 bytes"));
    TABLES[15][(a & 0xFF) as usize]
        ^ TABLES[14][((a >> 8) & 0xFF) as usize]
        ^ TABLES[13][((a >> 16) & 0xFF) as usize]
        ^ TABLES[12][(a >> 24) as usize]
        ^ TABLES[11][(b & 0xFF) as usize]
        ^ TABLES[10][((b >> 8) & 0xFF) as usize]
        ^ TABLES[9][((b >> 16) & 0xFF) as usize]
        ^ TABLES[8][(b >> 24) as usize]
        ^ TABLES[7][(c & 0xFF) as usize]
        ^ TABLES[6][((c >> 8) & 0xFF) as usize]
        ^ TABLES[5][((c >> 16) & 0xFF) as usize]
        ^ TABLES[4][(c >> 24) as usize]
        ^ TABLES[3][(d & 0xFF) as usize]
        ^ TABLES[2][((d >> 8) & 0xFF) as usize]
        ^ TABLES[1][((d >> 16) & 0xFF) as usize]
        ^ TABLES[0][(d >> 24) as usize]
}

/// The table loop: advance the register `crc` over `data`.
fn absorb(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        crc = step16(crc, chunk);
    }
    // Fold one 8-byte step out of the sub-16 remainder, so streaming
    // callers that update in record-sized pieces (16k + 8 bytes) never
    // hit the byte loop.
    let mut rest = chunks.remainder();
    if rest.len() >= 8 {
        let lo = crc ^ u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
        rest = &rest[8..];
    }
    for &b in rest {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    crc
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// [`crc32`] on the table loop alone, whatever the CPU: the reference the
/// hardware path is tested against.
#[doc(hidden)]
pub fn crc32_portable(data: &[u8]) -> u32 {
    !absorb(!0, data)
}

/// `a * b mod P` over GF(2), in the reflected bit order of the CRC
/// (bit 31 is `x^0`).
const fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `X2N[k] = x^(2^k) mod P`: repeated squaring of `x^1`. The sequence has
/// period 32 for this polynomial (`x^(2^32) = x mod P`), as zlib uses.
static X2N: [u32; 32] = build_x2n();

const fn build_x2n() -> [u32; 32] {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        t[k] = mul_mod_poly(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
}

/// The operator that appends `len` bytes to a CRC: multiplication by
/// `x^(8 len) mod P`. Building it costs one GF(2) multiply per set bit of
/// `len`; applying it costs one.
#[derive(Debug, Clone, Copy)]
struct CrcShift(u32);

impl CrcShift {
    fn new(len: u64) -> CrcShift {
        let mut p = 1u32 << 31; // x^0
        let mut n = len;
        let mut k = 3; // Bytes to bits: x^(8 len) = x^(len * 2^3).
        while n != 0 {
            if n & 1 != 0 {
                p = mul_mod_poly(X2N[k & 31], p);
            }
            n >>= 1;
            k += 1;
        }
        CrcShift(p)
    }

    fn combine(self, crc_a: u32, crc_b: u32) -> u32 {
        mul_mod_poly(self.0, crc_a) ^ crc_b
    }
}

/// `crc32(a ++ b)` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// touching the bytes (zlib's `crc32_combine`). Lets independently
/// checksummed pieces of one blob fold into the blob's CRC.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    CrcShift::new(len_b).combine(crc_a, crc_b)
}

/// The CRC-32 of consecutive pieces given as `(crc32(piece), piece.len())`,
/// in order. A run of equal-length pieces builds its shift once.
pub(crate) fn crc32_concat(pieces: impl IntoIterator<Item = (u32, usize)>) -> u32 {
    let mut crc = 0; // crc32 of no bytes.
    let mut shift = (0, CrcShift::new(0));
    for (piece_crc, len) in pieces {
        if shift.0 != len {
            shift = (len, CrcShift::new(len as u64));
        }
        crc = shift.1.combine(crc, piece_crc);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time CRC over `TABLES[0]` alone: no slicing, no kernel.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &b| {
            (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    /// Deterministic bytes with no short period.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length() {
        // Lengths 0..=4200 cross the hardware path's 64-byte threshold and
        // every 16-byte tail length on both sides of it, on both paths.
        let data = noise(4200, 0);
        for len in 0..=data.len() {
            let want = bytewise(&data[..len]);
            assert_eq!(crc32_portable(&data[..len]), want, "table, len {len}");
            assert_eq!(crc32(&data[..len]), want, "one-shot, len {len}");
            // A short first piece makes the long second one start from a
            // non-initial register.
            let (head, tail) = data[..len].split_at(len % 37);
            let mut c = Crc32::new();
            c.update(head);
            c.update(tail);
            assert_eq!(c.finish(), want, "streaming, len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_kernel_runs_where_the_cpu_has_it() {
        assert_eq!(
            clmul::Clmul::detect().is_some(),
            std::is_x86_feature_detected!("pclmulqdq")
        );
    }

    #[test]
    fn hardware_path_matches_portable_on_long_inputs() {
        let data = noise(37 << 20, 1);
        for len in [1 << 20, 37 << 20] {
            assert_eq!(
                crc32(&data[..len]),
                crc32_portable(&data[..len]),
                "len {len}"
            );
        }
        // Streaming cuts inside the first and later 64-byte lines, each
        // leaving the next piece a register the kernel did not start from.
        let data = &data[..3000];
        let want = crc32_portable(data);
        for cut in (1..200).chain([1000, 2047, 2048, 2049, 2999]) {
            for second in [cut + 1, cut + 17, cut + 64, cut + 100, data.len()] {
                let second = second.min(data.len());
                let mut c = Crc32::new();
                c.update(&data[..cut]);
                c.update(&data[cut..second]);
                c.update(&data[second..]);
                assert_eq!(c.finish(), want, "cuts {cut}, {second}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_kernel_matches_the_table_loop_from_any_register() {
        let Some(kernel) = clmul::Clmul::detect() else {
            return;
        };
        let data = noise(4096 + 48, 2);
        let mut registers = vec![0, !0, 1, 0x8000_0000, 0xDEAD_BEEF];
        registers.extend((0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A_5A5A));
        for len in (clmul::MIN_LEN..=data.len()).step_by(16) {
            for &reg in &registers {
                assert_eq!(
                    kernel.update(reg, &data[..len]),
                    absorb(reg, &data[..len]),
                    "len {len}, register {reg:#x}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn squaring_table_has_period_32() {
        // x^(2^32) = x mod P, which is what lets `CrcShift::new` index the
        // table modulo 32 for lengths of any size.
        assert_eq!(mul_mod_poly(X2N[31], X2N[31]), X2N[0]);
    }

    #[test]
    fn combine_matches_every_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = crc32(&data);
        for cut in [0, 1, 7, 8, 16, 500, 999, 1000] {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "cut {cut}"
            );
        }
        let pieces = data.chunks(64).map(|p| (crc32(p), p.len()));
        assert_eq!(crc32_concat(pieces), whole);
        assert_eq!(crc32_concat([]), crc32(b""));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0xA5u8; 1024];
        let base = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), base);
    }
}
