//! The hardware CRC path: the x86-64 carry-less multiply (PCLMULQDQ) folds
//! the message into four 128-bit lanes 64 bytes at a time, folds the lanes
//! into one, and Barrett-reduces that to the 32-bit register. This is the
//! method of Intel's "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ Instruction" (Gopal et al., 2009), with the constants Linux's
//! `crc32-pclmul_asm.S` uses for the reflected IEEE polynomial. It gives the
//! same register as the table loop in [`super`] for every input.
//!
//! A [`Clmul`] value exists only on a CPU whose `pclmulqdq` feature was
//! detected at run time, so every call into the
//! `#[target_feature(enable = "pclmulqdq")]` function below goes through one
//! and needs no further check.

#![allow(
    unsafe_code,
    reason = "calling a #[target_feature] function is the one operation \
              that needs it, and only after run-time detection"
)]
#![deny(clippy::undocumented_unsafe_blocks)]

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_set_epi64x,
    _mm_srli_si128, _mm_xor_si128,
};

/// The shortest input the kernel takes: one 16-byte block per lane.
pub(super) const MIN_LEN: usize = 64;

/// `x^(4·128+32)` and `x^(4·128−32) mod P`, bit-reflected: fold each lane
/// over the 64 bytes that follow it.
const R1: i64 = 0x1_5444_2BD4;
const R2: i64 = 0x1_C6E4_1596;
/// `x^(128+32)` and `x^(128−32) mod P`: fold one lane into the next 16
/// bytes.
const R3: i64 = 0x1_7519_97D0;
const R4: i64 = 0xCCAA_009E;
/// `x^64 mod P`: the 64-to-32-bit fold.
const R5: i64 = 0x1_63CD_6124;
/// The polynomial `P′` and Barrett's `μ = x^64 / P`, bit-reflected.
const P_PRIME: i64 = 0x1_DB71_0641;
const MU: i64 = 0x1_F701_1641;

/// Proof that this CPU has the carry-less multiply.
#[derive(Debug, Clone, Copy)]
pub(super) struct Clmul(());

impl Clmul {
    /// `Some` exactly when the running CPU reports the `pclmulqdq` feature.
    pub(super) fn detect() -> Option<Clmul> {
        std::is_x86_feature_detected!("pclmulqdq").then_some(Clmul(()))
    }

    /// Advance the CRC register `crc` over `data`: at least [`MIN_LEN`]
    /// bytes, in whole 16-byte blocks.
    pub(super) fn update(self, crc: u32, data: &[u8]) -> u32 {
        assert!(
            data.len() >= MIN_LEN && data.len().is_multiple_of(16),
            "the fold takes whole blocks, at least four: {} bytes",
            data.len()
        );
        // SAFETY: `self` is a `Clmul`, which only `detect` builds, after the
        // CPU reported the `pclmulqdq` feature `fold` is compiled for.
        unsafe { fold(crc, data) }
    }
}

/// A 16-byte block as one register, byte `i` in lane byte `i`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn load(block: &[u8]) -> __m128i {
    let half = |h: usize| u64::from_le_bytes(block[h * 8..h * 8 + 8].try_into().expect("8 bytes"));
    _mm_set_epi64x(half(1) as i64, half(0) as i64)
}

/// Multiply `x`'s halves by `k`'s (low by low, high by high) and add them:
/// `x` moved forward by the distance `k` encodes.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold16(x: __m128i, k: __m128i) -> __m128i {
    _mm_xor_si128(
        _mm_clmulepi64_si128(x, k, 0x00),
        _mm_clmulepi64_si128(x, k, 0x11),
    )
}

#[target_feature(enable = "pclmulqdq")]
fn fold(crc: u32, data: &[u8]) -> u32 {
    let (first, rest) = data.split_at(MIN_LEN);
    let mut lanes: [__m128i; 4] = core::array::from_fn(|i| load(&first[i * 16..]));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(0, i64::from(crc)));

    let k = _mm_set_epi64x(R2, R1);
    let mut lines = rest.chunks_exact(64);
    for line in &mut lines {
        for (lane, block) in lanes.iter_mut().zip(line.chunks_exact(16)) {
            *lane = _mm_xor_si128(fold16(*lane, k), load(block));
        }
    }

    let k = _mm_set_epi64x(R4, R3);
    let mut x = lanes[0];
    for lane in &lanes[1..] {
        x = _mm_xor_si128(fold16(x, k), *lane);
    }
    for block in lines.remainder().chunks_exact(16) {
        x = _mm_xor_si128(fold16(x, k), load(block));
    }

    // 128 to 64 bits: the low half times R4 plus the high half, which also
    // appends the 32 zero bits a CRC's register implies.
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x10), _mm_srli_si128(x, 8));
    // 64 to 32 (+32) bits.
    let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, R5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: the quotient's low word times `μ`, then times `P′`, leaves
    // the remainder in bits 32..64.
    let pu = _mm_set_epi64x(MU, P_PRIME);
    let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let r = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(q, low32), pu, 0x00), x);
    _mm_cvtsi128_si32(_mm_srli_si128(r, 4)) as u32
}
