//! The hardware AES path: the x86-64 AES instructions (AES-NI) run the same
//! FIPS-197 rounds as the T-table code in [`super`], one instruction per
//! round per block.
//!
//! A [`Ni`] value exists only on a CPU whose `aes` feature was detected at
//! run time, so every call into the `#[target_feature(enable = "aes")]`
//! functions below goes through one and needs no further check.

#![allow(
    unsafe_code,
    reason = "calling a #[target_feature] function is the one operation \
              that needs it, and only after run-time detection"
)]
#![deny(clippy::undocumented_unsafe_blocks)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
    _mm_unpackhi_epi64, _mm_xor_si128,
};

/// Blocks in flight per ECB step. `aesenc` takes several cycles but a new
/// one issues every cycle, so eight independent blocks keep the unit busy.
const LANES: usize = 8;

/// Proof that this CPU has the AES instructions.
#[derive(Debug, Clone, Copy)]
pub(super) struct Ni(());

impl Ni {
    /// `Some` exactly when the running CPU reports the `aes` feature.
    pub(super) fn detect() -> Option<Ni> {
        std::is_x86_feature_detected!("aes").then_some(Ni(()))
    }

    /// ECB-encrypt whole blocks under the expanded `keys`.
    pub(super) fn encrypt_ecb(self, keys: &[[u8; 16]; 11], data: &mut [u8]) {
        // SAFETY: `self` is a `Ni`, which only `detect` builds, after the
        // CPU reported the `aes` feature `ecb` is compiled for.
        unsafe { ecb(keys, data) }
    }

    /// CBC-encrypt whole blocks chained from `iv`; returns the last
    /// ciphertext block.
    pub(super) fn encrypt_cbc(
        self,
        keys: &[[u8; 16]; 11],
        data: &mut [u8],
        iv: [u8; 16],
    ) -> [u8; 16] {
        // SAFETY: as in `encrypt_ecb`, holding a `Ni` proves the CPU has
        // the `aes` feature `cbc` is compiled for.
        unsafe { cbc(keys, data, iv) }
    }
}

/// A 16-byte block as one register, byte `i` in lane byte `i`.
#[inline]
#[target_feature(enable = "aes")]
fn load(block: &[u8]) -> __m128i {
    let half = |h: usize| u64::from_le_bytes(block[h * 8..h * 8 + 8].try_into().expect("8 bytes"));
    _mm_set_epi64x(half(1) as i64, half(0) as i64)
}

#[inline]
#[target_feature(enable = "aes")]
fn store(x: __m128i, block: &mut [u8]) {
    let lo = _mm_cvtsi128_si64(x) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64;
    block[..8].copy_from_slice(&lo.to_le_bytes());
    block[8..16].copy_from_slice(&hi.to_le_bytes());
}

#[target_feature(enable = "aes")]
fn ecb(keys: &[[u8; 16]; 11], data: &mut [u8]) {
    let rk: [__m128i; 11] = core::array::from_fn(|r| load(&keys[r]));
    let mut groups = data.chunks_exact_mut(LANES * 16);
    for group in &mut groups {
        let mut s: [__m128i; LANES] =
            core::array::from_fn(|i| _mm_xor_si128(load(&group[i * 16..]), rk[0]));
        for k in &rk[1..10] {
            for x in &mut s {
                *x = _mm_aesenc_si128(*x, *k);
            }
        }
        for (x, block) in s.into_iter().zip(group.chunks_exact_mut(16)) {
            store(_mm_aesenclast_si128(x, rk[10]), block);
        }
    }
    for block in groups.into_remainder().chunks_exact_mut(16) {
        store(rounds(&rk, load(block)), block);
    }
}

#[target_feature(enable = "aes")]
fn cbc(keys: &[[u8; 16]; 11], data: &mut [u8], iv: [u8; 16]) -> [u8; 16] {
    let rk: [__m128i; 11] = core::array::from_fn(|r| load(&keys[r]));
    let mut chain = load(&iv);
    for block in data.chunks_exact_mut(16) {
        chain = rounds(&rk, _mm_xor_si128(load(block), chain));
        store(chain, block);
    }
    let mut next = [0u8; 16];
    store(chain, &mut next);
    next
}

/// All ten rounds over one block.
#[inline]
#[target_feature(enable = "aes")]
fn rounds(rk: &[__m128i; 11], plain: __m128i) -> __m128i {
    let mut s = _mm_xor_si128(plain, rk[0]);
    for k in &rk[1..10] {
        s = _mm_aesenc_si128(s, *k);
    }
    _mm_aesenclast_si128(s, rk[10])
}
