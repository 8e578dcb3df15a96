//! Property-based tests on bitstreams and CRC.

use coyote_fabric::crc::{crc32, crc32_combine, Crc32};
use coyote_fabric::{Bitstream, BitstreamCache, BitstreamKind, DeviceKind};
use proptest::prelude::*;

/// CRC-32 one bit at a time, straight from the reflected polynomial.
fn bitwise_crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    /// Assemble -> parse is the identity for any geometry.
    #[test]
    fn bitstream_roundtrip(frames in 1u64..500, digest in any::<u64>(), vfpga in any::<u8>()) {
        for kind in [BitstreamKind::Full, BitstreamKind::Shell, BitstreamKind::App { vfpga }] {
            let bs = Bitstream::assemble(DeviceKind::U280, kind, frames, digest);
            let parsed = Bitstream::from_bytes(bs.bytes().to_vec()).unwrap();
            prop_assert_eq!(parsed.kind(), kind);
            prop_assert_eq!(parsed.frames(), frames);
            prop_assert_eq!(parsed.digest(), digest);
        }
    }

    /// Any single-byte corruption in the body is caught.
    #[test]
    fn corruption_always_detected(frames in 1u64..50, pos_seed in any::<u64>(), flip in 1u8..=255) {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 1);
        let mut bytes = bs.bytes().to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        prop_assert!(Bitstream::from_bytes(bytes).is_err(), "flip at {}", pos);
    }

    /// Streaming CRC equals one-shot CRC for any chunking.
    #[test]
    fn crc_chunking_invariant(data in prop::collection::vec(any::<u8>(), 0..4000),
                              chunk in 1usize..257) {
        let mut c = Crc32::new();
        for part in data.chunks(chunk) {
            c.update(part);
        }
        prop_assert_eq!(c.finish(), crc32(&data));
    }

    /// One-shot and streaming CRCs equal a bit-at-a-time reference at any
    /// split points, on inputs from empty to 6 KiB.
    #[test]
    fn crc_matches_the_bitwise_reference(data in prop::collection::vec(any::<u8>(), 0..6 * 1024),
                                         cuts in prop::collection::vec(any::<usize>(), 0..4)) {
        let want = bitwise_crc32(&data);
        prop_assert_eq!(crc32(&data), want);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut c = Crc32::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            c.update(&data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(c.finish(), want);
    }

    /// Folding two CRCs equals the CRC of the concatenation, empty parts
    /// included.
    #[test]
    fn crc_combine_is_concatenation(a in prop::collection::vec(any::<u8>(), 0..600),
                                    b in prop::collection::vec(any::<u8>(), 0..600)) {
        let whole: Vec<u8> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(crc32_combine(crc32(&a), crc32(&b), b.len() as u64), crc32(&whole));
        prop_assert_eq!(crc32_combine(crc32(&a), crc32(&[]), 0), crc32(&a));
        prop_assert_eq!(crc32_combine(crc32(&[]), crc32(&b), b.len() as u64), crc32(&b));
    }

    /// Arbitrary bytes never panic the decoder: `Ok` or a typed error,
    /// the same from in-place validation as from the owning parse. Once the
    /// parse owns a valid blob, validating its resident buffer (the
    /// identity path) agrees with both and with the content path of a
    /// private cache. A third of the cases start from an intact valid
    /// image and a third from one with a bit flipped, so the identity path
    /// sees traffic.
    #[test]
    fn from_bytes_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..4096),
                                           magic in any::<bool>(),
                                           start in 0u8..3,
                                           frames in 1u64..64,
                                           digest in any::<u64>(),
                                           bit in any::<usize>()) {
        let mut bytes = bytes;
        let mut source = None;
        if start > 0 {
            let bs = Bitstream::assemble(DeviceKind::U280, BitstreamKind::Shell, frames, digest);
            bytes = bs.bytes().to_vec();
            if start == 2 {
                let bit = bit % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            source = Some(bs);
        } else if magic && bytes.len() >= 4 {
            // Half the cases get past the magic check, to reach the deeper ones.
            bytes[..4].copy_from_slice(b"CYT2");
        }
        let in_place = Bitstream::validate(&bytes);
        let owned = Bitstream::from_bytes(bytes);
        prop_assert_eq!(&in_place, &owned.as_ref().map(|bs| *bs.header()).map_err(Clone::clone));
        if let Ok(bs) = &owned {
            prop_assert_eq!(&Bitstream::validate(bs.bytes()), &in_place);
            let content = Bitstream::validate_in(&BitstreamCache::new(1), bs.bytes());
            prop_assert_eq!(&content, &in_place);
        }
        // The image a copy came from validates whatever the copy did.
        if let Some(bs) = source {
            prop_assert_eq!(Bitstream::validate(bs.bytes()), Ok(*bs.header()));
        }
    }

    /// Every truncation of a valid blob, and any other frame count
    /// (CRC re-stamped or not), is rejected with a typed error.
    #[test]
    fn from_bytes_rejects_truncations_and_bad_counts(
        frames in 1u64..12,
        near in any::<bool>(),
        flip in 0u64..4,
        big in any::<u64>(),
        restamp in any::<bool>(),
    ) {
        // Half the counts land next to the true one, half anywhere.
        let count = if near { frames ^ flip } else { big };
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, frames, 5);
        for cut in 0..bs.bytes().len() {
            prop_assert!(Bitstream::from_bytes(bs.bytes()[..cut].to_vec()).is_err(), "cut {}", cut);
        }
        let mut bytes = bs.bytes().to_vec();
        bytes[10..18].copy_from_slice(&count.to_le_bytes());
        if restamp {
            let body_end = bytes.len() - 4;
            let crc = crc32(&bytes[..body_end]).to_le_bytes();
            bytes[body_end..].copy_from_slice(&crc);
        }
        let parsed = Bitstream::from_bytes(bytes);
        prop_assert_eq!(parsed.is_ok(), count == frames, "count {}", count);
    }
}
