//! AES-128: the cipher, and the ECB/CBC kernels of §9.4 and §9.5.
//!
//! The cipher is FIPS-197 (10 rounds, key schedule), validated against the
//! standard's Appendix B/C vectors and SP 800-38A's ECB/CBC vectors. It
//! encrypts on one of two paths, chosen once per key by [`Aes128::new`]:
//!
//! * the CPU's AES instructions, when run-time detection finds them (x86-64
//!   AES-NI, in the private `ni` module): ECB interleaves eight blocks and
//!   runs at 7.4–7.7 GB/s; CBC chains one block at a time at 1.1–1.2 GB/s;
//! * otherwise portable T-table rounds over S-boxes computed at compile
//!   time: ~280 MB/s ECB on distinct blocks (far more on repeated ones, see
//!   `encrypt_ecb_portable`) and 250–270 MB/s CBC.
//!
//! The figures are release builds on a 2-vCPU x86-64 host with AES-NI, best
//! of five passes over 8 MiB of random bytes. No option selects a path: the
//! CPU does. Both give the same bytes, and the tests check each against the
//! other. Decryption is byte-wise and serves as the round-trip oracle. The
//! two kernels wrap the cipher:
//!
//! * [`AesEcbKernel`] — fully pipelined, memory-bound; used to demonstrate
//!   fair multi-tenant bandwidth sharing (Fig. 8).
//! * [`AesCbcKernel`] — "the encryption is inherently sequential: each
//!   128-bit text is XOR'ed with the previously encrypted block, leading to
//!   pipeline stalls when processing a single thread" (§9.5). Each AXI
//!   `TID` carries an independent CBC chain, which is exactly what makes
//!   cThread multithreading fill the 10-stage pipeline (Fig. 10).

use coyote::kernel::{Kernel, KernelTiming};
use coyote_sim::params;
use std::collections::HashMap;

/// The AES S-box, computed at compile time from the multiplicative inverse
/// in GF(2^8) followed by the affine transformation.
static SBOX: [u8; 256] = build_sbox();
/// The inverse S-box, derived by inverting [`SBOX`] at compile time.
static INV_SBOX: [u8; 256] = build_inv_sbox();

const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
        i += 1;
    }
    p
}

const fn gf_inv(a: u8) -> u8 {
    // a^254 in GF(2^8) (Fermat); fine at compile time.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let inv = if i == 0 { 0 } else { gf_inv(i as u8) };
        // Affine transformation.
        let mut x = inv;
        let mut y = inv;
        let mut r = 1;
        while r < 5 {
            y = y.rotate_left(1);
            x ^= y;
            let _ = r;
            r += 1;
        }
        sbox[i] = x ^ 0x63;
        i += 1;
    }
    sbox
}

const fn build_inv_sbox() -> [u8; 256] {
    let sbox = build_sbox();
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[sbox[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Multiply by x in GF(2^8): one shift and a conditional reduction. The
/// run-time replacement for `gf_mul` in the decryption hot path.
#[inline(always)]
fn xtime(a: u8) -> u8 {
    (a << 1) ^ ((a >> 7).wrapping_mul(0x1B))
}

/// Encryption T-tables: `TE[j][x]` is the MixColumns image of `S(x)` placed
/// in row `j`, packed as a little-endian column word. One full round is
/// then four lookups and four XORs per column instead of per-byte GF
/// arithmetic. This is the portable path; the module doc gives its speed.
static TE: [[u32; 256]; 4] = build_enc_tables();

const fn build_enc_tables() -> [[u32; 256]; 4] {
    let sbox = build_sbox();
    // MixColumns matrix, out[i] = sum_j m[i][j] * v[j].
    let m = [[2u8, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]];
    let mut te = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut x = 0;
        while x < 256 {
            let s = sbox[x];
            te[j][x] = u32::from_le_bytes([
                gf_mul(s, m[0][j]),
                gf_mul(s, m[1][j]),
                gf_mul(s, m[2][j]),
                gf_mul(s, m[3][j]),
            ]);
            x += 1;
        }
        j += 1;
    }
    te
}

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

#[cfg(target_arch = "x86_64")]
mod ni;

/// An expanded AES-128 key.
#[derive(Debug, Clone)]
pub struct Aes128 {
    /// The 11 round keys, expanded once, in the byte order of a block.
    round_keys: [[u8; 16]; 11],
    /// The hardware path, when this CPU has one; `None` runs the T-tables.
    #[cfg(target_arch = "x86_64")]
    ni: Option<ni::Ni>,
}

/// A 16-byte block as four little-endian column words: row `r` of column
/// `c` is byte `c * 4 + r` and sits at bits `8r..8r + 8` of word `c`.
type State = [u32; 4];

#[inline(always)]
fn load(block: &[u8]) -> State {
    core::array::from_fn(|c| {
        u32::from_le_bytes(block[c * 4..c * 4 + 4].try_into().expect("4 bytes"))
    })
}

#[inline(always)]
fn store(s: State, block: &mut [u8]) {
    for (c, col) in block.chunks_exact_mut(4).enumerate() {
        col.copy_from_slice(&s[c].to_le_bytes());
    }
}

#[inline(always)]
fn xor(a: State, b: State) -> State {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// Row `r` of column `(c + r) % 4`: the byte ShiftRows moves to row `r` of
/// column `c`.
#[inline(always)]
fn shifted(s: &State, c: usize, r: usize) -> usize {
    ((s[(c + r) % 4] >> (8 * r)) & 0xFF) as usize
}

impl Aes128 {
    /// Expand a 128-bit key.
    pub fn new(key: [u8; 16]) -> Aes128 {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        Aes128 {
            round_keys: core::array::from_fn(|r| core::array::from_fn(|i| w[r * 4 + i / 4][i % 4])),
            #[cfg(target_arch = "x86_64")]
            ni: ni::Ni::detect(),
        }
    }

    /// Build from a little-endian pair of `u64` halves (the CSR encoding
    /// the kernels use: `setCSR(key_lo, 0); setCSR(key_hi, 1)`).
    pub fn from_u64(lo: u64, hi: u64) -> Aes128 {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&lo.to_le_bytes());
        key[8..].copy_from_slice(&hi.to_le_bytes());
        Aes128::new(key)
    }

    /// The one encryption round function: all ten rounds over a state held
    /// in four column words. SubBytes + ShiftRows + MixColumns collapse into
    /// four T-table lookups per column; the last round has no MixColumns.
    /// Bit-identical to the textbook round sequence
    /// (`t_table_round_matches_textbook`).
    #[inline(always)]
    fn rounds(&self, plain: State) -> State {
        let rk = &self.round_keys;
        let mut s = xor(plain, load(&rk[0]));
        for k in &rk[1..10] {
            let k = load(k);
            s = core::array::from_fn(|c| {
                TE[0][shifted(&s, c, 0)]
                    ^ TE[1][shifted(&s, c, 1)]
                    ^ TE[2][shifted(&s, c, 2)]
                    ^ TE[3][shifted(&s, c, 3)]
                    ^ k[c]
            });
        }
        xor(
            core::array::from_fn(|c| {
                u32::from_le_bytes(core::array::from_fn(|r| SBOX[shifted(&s, c, r)]))
            }),
            load(&rk[10]),
        )
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.encrypt_ecb(block);
    }

    /// ECB-encrypt a buffer (length must be a multiple of 16), on the
    /// CPU's AES instructions when it has them.
    pub fn encrypt_ecb(&self, data: &mut [u8]) {
        assert_eq!(data.len() % 16, 0, "ECB needs whole blocks");
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = self.ni {
            return ni.encrypt_ecb(&self.round_keys, data);
        }
        self.encrypt_ecb_portable(data);
    }

    /// ECB on the T-table path whatever the CPU: the only path without AES
    /// instructions, and the reference the hardware path is tested against.
    ///
    /// ECB maps equal plaintext blocks to equal ciphertext (its textbook
    /// weakness), so a one-block memo turns runs of repeated blocks into
    /// copies: bulk benchmark payloads are highly repetitive and drop from
    /// cipher speed to memcpy speed, while the output stays bit-identical
    /// for arbitrary input (`ecb_memo_matches_per_block`). The hardware
    /// path has no memo: on Fig. 8's repetitive payloads it runs about as
    /// fast without one.
    #[doc(hidden)]
    pub fn encrypt_ecb_portable(&self, data: &mut [u8]) {
        assert_eq!(data.len() % 16, 0, "ECB needs whole blocks");
        let mut memo: Option<(State, State)> = None;
        for chunk in data.chunks_exact_mut(16) {
            let plain = load(chunk);
            let cipher = match memo {
                Some((p, c)) if p == plain => c,
                _ => {
                    let c = self.rounds(plain);
                    memo = Some((plain, c));
                    c
                }
            };
            store(cipher, chunk);
        }
    }

    /// CBC-encrypt a buffer with `iv`, returning the final ciphertext block
    /// (the next chaining value), on the CPU's AES instructions when it has
    /// them.
    pub fn encrypt_cbc(&self, data: &mut [u8], iv: [u8; 16]) -> [u8; 16] {
        assert_eq!(data.len() % 16, 0, "CBC needs whole blocks");
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = self.ni {
            return ni.encrypt_cbc(&self.round_keys, data, iv);
        }
        self.encrypt_cbc_portable(data, iv)
    }

    /// CBC on the T-table path whatever the CPU (see
    /// [`Self::encrypt_ecb_portable`]).
    #[doc(hidden)]
    pub fn encrypt_cbc_portable(&self, data: &mut [u8], iv: [u8; 16]) -> [u8; 16] {
        assert_eq!(data.len() % 16, 0, "CBC needs whole blocks");
        let mut chain = load(&iv);
        for chunk in data.chunks_exact_mut(16) {
            chain = self.rounds(xor(load(chunk), chain));
            store(chain, chunk);
        }
        let mut next = [0u8; 16];
        store(chain, &mut next);
        next
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    #[cfg(test)]
    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    #[cfg(test)]
    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: byte (row r, col c) at index c*4 + r.
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
            }
        }
    }

    #[cfg(test)]
    fn mix_columns(state: &mut [u8; 16]) {
        // ×2 is a single xtime and ×3 is xtime(a) ^ a.
        for c in 0..4 {
            let col = &mut state[c * 4..c * 4 + 4];
            let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
            col[0] = xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3;
            col[1] = a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3;
            col[2] = a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3;
            col[3] = xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3);
        }
    }

    /// The textbook round sequence, kept as the T-table path's ground truth.
    #[cfg(test)]
    fn encrypt_block_textbook(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::mix_columns(block);
            Self::add_round_key(block, &self.round_keys[round]);
        }
        Self::sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[10]);
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[((c + r) % 4) * 4 + r] = s[c * 4 + r];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        // ×9/×11/×13/×14 decompose into xtime chains: ×9 = ×8 ^ ×1,
        // ×11 = ×8 ^ ×2 ^ ×1, ×13 = ×8 ^ ×4 ^ ×1, ×14 = ×8 ^ ×4 ^ ×2.
        for c in 0..4 {
            let col = &mut state[c * 4..c * 4 + 4];
            let a: [u8; 4] = [col[0], col[1], col[2], col[3]];
            let x2: [u8; 4] = core::array::from_fn(|i| xtime(a[i]));
            let x4: [u8; 4] = core::array::from_fn(|i| xtime(x2[i]));
            let x8: [u8; 4] = core::array::from_fn(|i| xtime(x4[i]));
            let m9 = |i: usize| x8[i] ^ a[i];
            let m11 = |i: usize| x8[i] ^ x2[i] ^ a[i];
            let m13 = |i: usize| x8[i] ^ x4[i] ^ a[i];
            let m14 = |i: usize| x8[i] ^ x4[i] ^ x2[i];
            col[0] = m14(0) ^ m11(1) ^ m13(2) ^ m9(3);
            col[1] = m9(0) ^ m14(1) ^ m11(2) ^ m13(3);
            col[2] = m13(0) ^ m9(1) ^ m14(2) ^ m11(3);
            col[3] = m11(0) ^ m13(1) ^ m9(2) ^ m14(3);
        }
    }

    /// Decrypt one 16-byte block in place (the equivalent inverse cipher).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[10]);
        for round in (1..10).rev() {
            Self::inv_shift_rows(block);
            Self::inv_sub_bytes(block);
            Self::add_round_key(block, &self.round_keys[round]);
            Self::inv_mix_columns(block);
        }
        Self::inv_shift_rows(block);
        Self::inv_sub_bytes(block);
        Self::add_round_key(block, &self.round_keys[0]);
    }

    /// ECB-decrypt a buffer (length must be a multiple of 16).
    pub fn decrypt_ecb(&self, data: &mut [u8]) {
        assert_eq!(data.len() % 16, 0, "ECB needs whole blocks");
        for chunk in data.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = chunk.try_into().expect("16-byte chunk");
            self.decrypt_block(block);
        }
    }

    /// CBC-decrypt a buffer with `iv`.
    pub fn decrypt_cbc(&self, data: &mut [u8], iv: [u8; 16]) {
        assert_eq!(data.len() % 16, 0, "CBC needs whole blocks");
        let mut chain = iv;
        for chunk in data.chunks_exact_mut(16) {
            let cipher: [u8; 16] = (*chunk).try_into().expect("16-byte chunk");
            let block: &mut [u8; 16] = chunk.try_into().expect("16-byte chunk");
            self.decrypt_block(block);
            for i in 0..16 {
                block[i] ^= chain[i];
            }
            chain = cipher;
        }
    }
}

/// The ECB kernel: fully pipelined, one 512-bit beat per cycle.
pub struct AesEcbKernel {
    cipher: Aes128,
    key: [u64; 2],
    blocks: u64,
}

impl AesEcbKernel {
    /// Kernel with the zero key until CSRs are written.
    pub fn new() -> AesEcbKernel {
        AesEcbKernel {
            cipher: Aes128::from_u64(0, 0),
            key: [0, 0],
            blocks: 0,
        }
    }
}

impl Default for AesEcbKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel for AesEcbKernel {
    fn name(&self) -> &str {
        "aes128_ecb"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::Aes
    }

    fn timing(&self) -> KernelTiming {
        // ECB has no inter-block dependence: four parallel cores keep up
        // with the 64 B datapath, so the kernel is memory-bound (§9.4).
        KernelTiming::Streaming {
            bytes_per_cycle: 64,
            latency_cycles: 10,
        }
    }

    fn process_packet(&mut self, _tid: u16, data: &mut Vec<u8>) {
        let whole = data.len() - data.len() % 16;
        self.cipher.encrypt_ecb(&mut data[..whole]);
        self.blocks += (whole / 16) as u64;
    }

    fn csr_write(&mut self, offset: u64, value: u64) {
        match offset {
            0 => self.key[0] = value,
            8 => self.key[1] = value,
            _ => return,
        }
        self.cipher = Aes128::from_u64(self.key[0], self.key[1]);
    }

    fn csr_read(&self, offset: u64) -> u64 {
        match offset {
            0 => self.key[0],
            8 => self.key[1],
            16 => self.blocks,
            _ => 0,
        }
    }
}

/// The CBC kernel: a 10-stage pipeline with per-thread chaining (§9.5).
pub struct AesCbcKernel {
    cipher: Aes128,
    key: [u64; 2],
    /// Independent chaining value per AXI `TID` ("associating each request
    /// with a unique thread ID").
    chains: HashMap<u16, [u8; 16]>,
    blocks: u64,
}

impl AesCbcKernel {
    /// Kernel with the zero key/IV until CSRs are written.
    pub fn new() -> AesCbcKernel {
        AesCbcKernel {
            cipher: Aes128::from_u64(0, 0),
            key: [0, 0],
            chains: HashMap::new(),
            blocks: 0,
        }
    }
}

impl Default for AesCbcKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel for AesCbcKernel {
    fn name(&self) -> &str {
        "aes128_cbc"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::Aes
    }

    fn timing(&self) -> KernelTiming {
        KernelTiming::BlockPipeline {
            block_bytes: 16,
            depth_cycles: params::AES_PIPELINE_DEPTH as u32,
            ii_cycles: 1,
            overhead_cycles: params::AES_CBC_OVERHEAD_CYCLES as u32,
        }
    }

    fn process_packet(&mut self, tid: u16, data: &mut Vec<u8>) {
        let whole = data.len() - data.len() % 16;
        let chain = self.chains.entry(tid).or_insert([0u8; 16]);
        *chain = self.cipher.encrypt_cbc(&mut data[..whole], *chain);
        self.blocks += (whole / 16) as u64;
    }

    fn csr_write(&mut self, offset: u64, value: u64) {
        match offset {
            0 => self.key[0] = value,
            8 => self.key[1] = value,
            // Writing any IV register resets all chains.
            16 => {
                self.chains.clear();
                return;
            }
            _ => return,
        }
        self.cipher = Aes128::from_u64(self.key[0], self.key[1]);
    }

    fn csr_read(&self, offset: u64) -> u64 {
        match offset {
            16 => self.blocks,
            _ => 0,
        }
    }

    fn reset(&mut self) {
        self.chains.clear();
        self.blocks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_known_entries() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7C);
        assert_eq!(SBOX[0x53], 0xED);
        assert_eq!(SBOX[0xFF], 0x16);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: plaintext 3243f6a8..., key 2b7e1516...
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        Aes128::new(key).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // Appendix C.1: 000102...0f key over 00112233...ff plaintext.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut block: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        Aes128::new(key).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
    }

    /// NIST SP 800-38A's AES-128 key and four-block plaintext (F.1, F.2).
    const SP800_38A_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
    const SP800_38A_PLAIN: &str = "6bc1bee22e409f96e93d7e117393172a\
                                   ae2d8a571e03ac9c9eb76fac45af8e51\
                                   30c81c46a35ce411e5fbc1191a0a52ef\
                                   f69f2445df4f9b17ad2b417be66c3710";
    /// F.1.1 ECB-AES128.Encrypt.
    const SP800_38A_ECB: &str = "3ad77bb40d7a3660a89ecaf32466ef97\
                                 f5d3d58503b9699de785895a96fdbaaf\
                                 43b1cd7f598ece23881b00e3ed030688\
                                 7b0c785e27e8ad3f8223207104725dd4";
    /// F.2.1 CBC-AES128.Encrypt, IV 000102...0f.
    const SP800_38A_CBC: &str = "7649abac8119b246cee98e9b12e9197d\
                                 5086cb9b507219ee95db113a917678b2\
                                 73bed6b8e3c1743b7116e69e22229516\
                                 3ff1caa1681fac09120eca307586e1a7";

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    /// The CSR pair that loads `key` (`Aes128::from_u64`'s encoding).
    fn key_csrs(key: &[u8]) -> (u64, u64) {
        let half = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
        (half(&key[..8]), half(&key[8..]))
    }

    #[test]
    fn nist_sp800_38a_cbc_vector() {
        let cipher = Aes128::new(hex(SP800_38A_KEY).try_into().expect("16 bytes"));
        let iv: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut data = hex(SP800_38A_PLAIN);
        let next = cipher.encrypt_cbc(&mut data, iv);
        assert_eq!(data, hex(SP800_38A_CBC));
        assert_eq!(next[..], data[48..], "the last block chains on");
    }

    #[test]
    fn nist_sp800_38a_ecb_vector() {
        let cipher = Aes128::new(hex(SP800_38A_KEY).try_into().expect("16 bytes"));
        let mut data = hex(SP800_38A_PLAIN);
        cipher.encrypt_ecb(&mut data);
        assert_eq!(data, hex(SP800_38A_ECB));
    }

    #[test]
    fn nist_sp800_38a_through_kernels_in_place() {
        // The message split 16 + 48 bytes over two packets, so the CBC
        // kernel must chain across them. A kernel chain starts from a zero
        // IV, and CBC under IV `v` is CBC under a zero IV of the message
        // whose first block is XORed with `v`: that gives F.2.1's IV.
        let key = hex(SP800_38A_KEY);
        let (lo, hi) = key_csrs(&key);
        let plain = hex(SP800_38A_PLAIN);

        let mut ecb = AesEcbKernel::new();
        ecb.csr_write(0, lo);
        ecb.csr_write(8, hi);
        let mut out = Vec::new();
        for part in [&plain[..16], &plain[16..]] {
            let mut buf = part.to_vec();
            ecb.process_packet(0, &mut buf);
            out.extend(buf);
        }
        assert_eq!(out, hex(SP800_38A_ECB));
        assert_eq!(ecb.csr_read(16), 4);

        let mut cbc = AesCbcKernel::new();
        cbc.csr_write(0, lo);
        cbc.csr_write(8, hi);
        let iv: Vec<u8> = (0..16).collect();
        let mut first = plain[..16].to_vec();
        for (b, v) in first.iter_mut().zip(&iv) {
            *b ^= v;
        }
        let mut out = Vec::new();
        for part in [&first[..], &plain[16..]] {
            let mut buf = part.to_vec();
            cbc.process_packet(0, &mut buf);
            out.extend(buf);
        }
        assert_eq!(out, hex(SP800_38A_CBC));
        assert_eq!(cbc.csr_read(16), 4);
    }

    #[test]
    fn t_table_round_matches_textbook() {
        // The optimized encrypt path must be bit-identical to the textbook
        // SubBytes/ShiftRows/MixColumns sequence for arbitrary keys/blocks.
        for seed in 0..32u8 {
            let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(31) ^ seed);
            let cipher = Aes128::new(key);
            let mut fast: [u8; 16] =
                core::array::from_fn(|i| (i as u8).wrapping_mul(197).wrapping_add(seed));
            let mut slow = fast;
            cipher.encrypt_ecb_portable(&mut fast);
            cipher.encrypt_block_textbook(&mut slow);
            assert_eq!(fast, slow, "divergence for seed {seed}");
        }
    }

    #[test]
    fn ecb_memo_matches_per_block() {
        // The memoized portable ECB path must agree with the textbook rounds
        // block by block at every length.
        let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(73) ^ 0x5A);
        let cipher = Aes128::new(key);
        for blocks in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 64] {
            let original: Vec<u8> = (0..blocks * 16)
                .map(|i| (i as u8).wrapping_mul(151))
                .collect();
            let mut ecb = original.clone();
            cipher.encrypt_ecb_portable(&mut ecb);
            let mut reference = original;
            for chunk in reference.chunks_exact_mut(16) {
                let block: &mut [u8; 16] = chunk.try_into().expect("16-byte chunk");
                cipher.encrypt_block_textbook(block);
            }
            assert_eq!(ecb, reference, "divergence at {blocks} blocks");
        }

        // Repetitive payloads exercise the memo fast path: uniform bytes,
        // alternating pairs, and a repeated block broken by one odd block.
        for pattern in [
            vec![0x77u8; 33 * 16],
            (0..40 * 16)
                .map(|i| (i / 16 % 2) as u8)
                .collect::<Vec<u8>>(),
            {
                let mut v = vec![0x11u8; 21 * 16];
                v[10 * 16..11 * 16].copy_from_slice(&[0xEEu8; 16]);
                v
            },
        ] {
            let mut memoized = pattern.clone();
            cipher.encrypt_ecb_portable(&mut memoized);
            let mut reference = pattern;
            for chunk in reference.chunks_exact_mut(16) {
                let block: &mut [u8; 16] = chunk.try_into().expect("16-byte chunk");
                cipher.encrypt_block_textbook(block);
            }
            assert_eq!(memoized, reference, "memo path diverged");
        }
    }

    #[test]
    fn kernels_match_one_shot_portable_under_random_packet_splits() {
        // A message cut into packets of 0-20 blocks at random: the kernels
        // (on the hardware path where the CPU has one) must give the bytes
        // of one portable pass over the whole message. Two CBC threads
        // interleave to show their chains stay apart.
        let mut rng = coyote_sim::Xorshift64Star::new(0xAE5);
        for _ in 0..32 {
            let (lo, hi) = (rng.next_u64(), rng.next_u64());
            let mut plain = vec![0u8; (rng.gen_range(100) as usize) * 16];
            rng.fill_bytes(&mut plain);
            let mut cuts = vec![0];
            while *cuts.last().expect("starts at 0") < plain.len() {
                let next = cuts.last().expect("non-empty") + 16 * rng.gen_range(21) as usize;
                cuts.push(next.min(plain.len()));
            }

            let mut ecb = AesEcbKernel::new();
            let mut cbc = AesCbcKernel::new();
            for k in [&mut ecb as &mut dyn Kernel, &mut cbc] {
                k.csr_write(0, lo);
                k.csr_write(8, hi);
            }
            let (mut ecb_out, mut cbc_out) = (Vec::new(), [Vec::new(), Vec::new()]);
            for part in cuts.windows(2).map(|w| &plain[w[0]..w[1]]) {
                ecb_out.extend(crate::process(&mut ecb, 0, part));
                for (tid, out) in cbc_out.iter_mut().enumerate() {
                    out.extend(crate::process(&mut cbc, tid as u16, part));
                }
            }

            let cipher = Aes128::from_u64(lo, hi);
            let mut expect = plain.clone();
            cipher.encrypt_ecb_portable(&mut expect);
            assert_eq!(ecb_out, expect, "ECB over cuts {cuts:?}");
            let mut expect = plain;
            cipher.encrypt_cbc_portable(&mut expect, [0u8; 16]);
            for out in &cbc_out {
                assert_eq!(out, &expect, "CBC over cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let key: [u8; 16] = core::array::from_fn(|i| (i * 7 + 3) as u8);
        let cipher = Aes128::new(key);
        let original: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let mut buf = original.clone();
        cipher.encrypt_ecb(&mut buf);
        assert_ne!(buf, original);
        cipher.decrypt_ecb(&mut buf);
        assert_eq!(buf, original);

        let iv = [0x42u8; 16];
        let mut buf = original.clone();
        cipher.encrypt_cbc(&mut buf, iv);
        cipher.decrypt_cbc(&mut buf, iv);
        assert_eq!(buf, original);
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn ecb_kernel_is_deterministic_per_key() {
        let mut k = AesEcbKernel::new();
        k.csr_write(0, 0x6167_717a_7a76_7668);
        k.csr_write(8, 0x1122_3344_5566_7788);
        let data = vec![0xABu8; 64];
        let a = crate::process(&mut k, 0, &data);
        let b = crate::process(&mut k, 1, &data);
        assert_eq!(a, b, "ECB: same plaintext, same ciphertext");
        assert_ne!(a, data);
        assert_eq!(k.csr_read(16), 8, "eight blocks processed");
    }

    #[test]
    fn cbc_chains_differ_per_thread_but_start_equal() {
        let mut k = AesCbcKernel::new();
        k.csr_write(0, 0xDEAD_BEEF);
        let data = vec![0x11u8; 32];
        let t0_first = crate::process(&mut k, 0, &data);
        let t1_first = crate::process(&mut k, 1, &data);
        // Fresh chains: identical prefixes.
        assert_eq!(t0_first, t1_first);
        // Second packet of thread 0 chains off its first: different.
        let t0_second = crate::process(&mut k, 0, &data);
        assert_ne!(t0_second, t0_first);
    }

    #[test]
    fn cbc_kernel_matches_software_cbc() {
        let mut k = AesCbcKernel::new();
        k.csr_write(0, 42);
        let plain = vec![0x77u8; 64];
        let out1 = crate::process(&mut k, 3, &plain[..32]);
        let out2 = crate::process(&mut k, 3, &plain[32..]);
        let mut reference = plain.clone();
        Aes128::from_u64(42, 0).encrypt_cbc(&mut reference, [0u8; 16]);
        assert_eq!(
            [out1, out2].concat(),
            reference,
            "packetization is chaining-transparent"
        );
    }

    #[test]
    fn kernel_timings_match_paper() {
        assert!(matches!(
            AesCbcKernel::new().timing(),
            KernelTiming::BlockPipeline {
                block_bytes: 16,
                depth_cycles: 10,
                ii_cycles: 1,
                ..
            }
        ));
        assert!(matches!(
            AesEcbKernel::new().timing(),
            KernelTiming::Streaming {
                bytes_per_cycle: 64,
                ..
            }
        ));
    }
}
