//! Property-based tests on the application algorithms.

use coyote_apps::nn::{dequantize, quantize};
use coyote_apps::{Aes128, HyperLogLog};
use proptest::prelude::*;

proptest! {
    /// AES decrypt(encrypt(x)) == x for arbitrary keys and block counts.
    #[test]
    fn aes_ecb_roundtrip(key in any::<[u8; 16]>(), blocks in 1usize..64, seed in any::<u64>()) {
        let cipher = Aes128::new(key);
        let mut data: Vec<u8> = (0..blocks * 16).map(|i| ((i as u64 * 31) ^ seed) as u8).collect();
        let original = data.clone();
        cipher.encrypt_ecb(&mut data);
        prop_assert_ne!(&data, &original, "encryption must change the data");
        cipher.decrypt_ecb(&mut data);
        prop_assert_eq!(data, original);
    }

    /// CBC roundtrip with arbitrary IVs; equal plaintext blocks yield
    /// distinct ciphertext blocks (the whole point of CBC).
    #[test]
    fn aes_cbc_roundtrip_and_diffusion(key in any::<[u8; 16]>(), iv in any::<[u8; 16]>()) {
        let cipher = Aes128::new(key);
        let mut data = vec![0xABu8; 64]; // Four identical blocks.
        let original = data.clone();
        cipher.encrypt_cbc(&mut data, iv);
        prop_assert_ne!(&data[0..16], &data[16..32], "CBC chains blocks");
        cipher.decrypt_cbc(&mut data, iv);
        prop_assert_eq!(data, original);
    }

    /// The public ECB/CBC entry points, which take the CPU's AES
    /// instructions when it has them, give the portable T-table bytes for
    /// every length from 0 to 40 blocks: every tail of the 8-block ECB
    /// interleave, and the chaining value CBC returns.
    #[test]
    fn aes_hardware_path_matches_portable(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        blocks in prop::collection::vec(any::<[u8; 16]>(), 40..41),
    ) {
        let cipher = Aes128::new(key);
        let plain = blocks.concat();
        for len in (0..=plain.len()).step_by(16) {
            let mut fast = plain[..len].to_vec();
            let mut portable = fast.clone();
            cipher.encrypt_ecb(&mut fast);
            cipher.encrypt_ecb_portable(&mut portable);
            prop_assert_eq!(&fast, &portable, "ECB, {} blocks", len / 16);

            let mut fast = plain[..len].to_vec();
            let mut portable = fast.clone();
            let next = cipher.encrypt_cbc(&mut fast, iv);
            let next_portable = cipher.encrypt_cbc_portable(&mut portable, iv);
            prop_assert_eq!(&fast, &portable, "CBC, {} blocks", len / 16);
            prop_assert_eq!(next, next_portable, "CBC chain, {} blocks", len / 16);
        }
    }

    /// HLL estimates stay within 5% for n in [1k, 20k] at p=14, for
    /// arbitrary key material.
    #[test]
    fn hll_error_bound(n in 1_000u64..20_000, salt in any::<u64>()) {
        let mut hll = HyperLogLog::new(14);
        for i in 0..n {
            hll.add(&(i ^ salt).to_le_bytes());
        }
        let est = hll.estimate();
        let err = (est - n as f64).abs() / n as f64;
        prop_assert!(err < 0.05, "n={} est={} err={:.2}%", n, est, err * 100.0);
    }

    /// Quantization roundtrip error is bounded by one LSB.
    #[test]
    fn quantization_error_bound(v in -30_000.0f32..30_000.0) {
        let q = quantize(v);
        let back = dequantize(q);
        prop_assert!((back - v).abs() <= 1.0 / 65536.0 + v.abs() * 1e-6, "{} -> {}", v, back);
    }
}
