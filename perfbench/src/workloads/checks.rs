//! Output checks. Each returns `Err` on the first wrong byte or value, which
//! the runner counts as a failed op.

use coyote_apps::{hll::xxhash64, Aes128, HyperLogLog};
use coyote_fabric::{Bitstream, BitstreamError};

/// HLL precision of `HllKernel`.
const HLL_PRECISION: u8 = 14;

/// Largest relative error accepted between an HLL estimate and the true
/// distinct count: about six standard errors at p = 14.
const HLL_TOLERANCE: f64 = 0.05;

/// The line `coyote-bench claims` prints when every claim holds.
pub const CLAIMS_OK: &str = "verdict: every headline claim reproduced";

/// `got` must equal `expected` byte for byte.
pub fn same_bytes(what: &str, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{what}: {} bytes, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(at) => Err(format!(
            "{what}: byte {at} is {:#04x}, expected {:#04x}",
            got[at], expected[at]
        )),
    }
}

/// `output` must be AES-128-ECB of `input` under key `(lo, hi)`.
pub fn aes_ecb(key: (u64, u64), input: &[u8], output: &[u8]) -> Result<(), String> {
    let mut expected = input.to_vec();
    Aes128::from_u64(key.0, key.1).encrypt_ecb(&mut expected);
    same_bytes("AES-ECB output", &expected, output)
}

/// `output` must be AES-128-CBC of `input` under key `(lo, hi)` from a zero
/// IV.
pub fn aes_cbc(key: (u64, u64), input: &[u8], output: &[u8]) -> Result<(), String> {
    let mut expected = input.to_vec();
    Aes128::from_u64(key.0, key.1).encrypt_cbc(&mut expected, [0; 16]);
    same_bytes("AES-CBC output", &expected, output)
}

/// The HLL kernel's estimate over `inputs` (seeded random 64-bit items,
/// distinct with overwhelming probability) must equal a reference sketch's
/// and lie within [`HLL_TOLERANCE`] of the item count.
pub fn hll(inputs: &[&[u8]], estimate: u64) -> Result<(), String> {
    let mut reference = HyperLogLog::new(HLL_PRECISION);
    let mut items = 0u64;
    for input in inputs {
        for item in input.chunks_exact(8) {
            reference.add_hash(xxhash64(item, 0));
            items += 1;
        }
    }
    let want = reference.estimate().round() as u64;
    if estimate != want {
        return Err(format!(
            "HLL estimate {estimate}, reference sketch says {want}"
        ));
    }
    let err = (estimate as f64 - items as f64).abs() / items as f64;
    if err > HLL_TOLERANCE {
        return Err(format!("HLL estimate {estimate} is {err:.3} off {items}"));
    }
    Ok(())
}

/// An upload admission must accept a clean image with its digest and
/// reject a corrupt one with a typed error.
pub fn upload(
    outcome: &Result<Bitstream, BitstreamError>,
    corrupt: bool,
    digest: u64,
) -> Result<(), String> {
    match (outcome, corrupt) {
        (Ok(bs), false) if bs.digest() == digest => Ok(()),
        (Ok(bs), false) => Err(format!(
            "upload admitted with digest {:#x}, expected {digest:#x}",
            bs.digest()
        )),
        (Ok(_), true) => Err("a corrupt upload was admitted".into()),
        (Err(e), false) => Err(format!("a clean upload was rejected: {e}")),
        (Err(_), true) => Ok(()),
    }
}

/// A suite pass's standard output must say every claim reproduced.
pub fn claims(stdout: &str) -> Result<(), String> {
    if stdout.lines().any(|l| l.trim() == CLAIMS_OK) {
        Ok(())
    } else {
        Err("the claims verdict does not say every claim reproduced".into())
    }
}

/// Every committed result must have been regenerated byte-identical;
/// `regenerated(id)` reads the new `results/<id>.json`.
pub fn results(
    committed: &[(String, Vec<u8>)],
    regenerated: impl Fn(&str) -> std::io::Result<Vec<u8>>,
) -> Result<(), String> {
    for (id, want) in committed {
        let got = regenerated(id).map_err(|e| format!("results/{id}.json: {e}"))?;
        same_bytes(&format!("results/{id}.json"), want, &got)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_fabric::{BitstreamKind, DeviceKind};

    fn flip(mut v: Vec<u8>, at: usize) -> Vec<u8> {
        v[at] ^= 1;
        v
    }

    #[test]
    fn aes_checks_catch_one_wrong_byte() {
        let key = (0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let input: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let mut ecb = input.clone();
        Aes128::from_u64(key.0, key.1).encrypt_ecb(&mut ecb);
        assert!(aes_ecb(key, &input, &ecb).is_ok());
        assert!(aes_ecb(key, &input, &flip(ecb, 100)).is_err());

        let mut cbc = input.clone();
        Aes128::from_u64(key.0, key.1).encrypt_cbc(&mut cbc, [0; 16]);
        assert!(aes_cbc(key, &input, &cbc).is_ok());
        assert!(aes_cbc(key, &input, &flip(cbc, 255)).is_err());
    }

    #[test]
    fn payload_check_catches_one_wrong_byte() {
        let payload = vec![7u8; 4096];
        assert!(same_bytes("payload", &payload, &payload).is_ok());
        assert!(same_bytes("payload", &payload, &flip(payload.clone(), 4095)).is_err());
        assert!(same_bytes("payload", &payload, &payload[..4095]).is_err());
    }

    #[test]
    fn hll_check_catches_a_wrong_estimate() {
        let items: Vec<u8> = (0..20_000u64).flat_map(|i| i.to_le_bytes()).collect();
        let mut sketch = HyperLogLog::new(HLL_PRECISION);
        for item in items.chunks_exact(8) {
            sketch.add_hash(xxhash64(item, 0));
        }
        let est = sketch.estimate().round() as u64;
        assert!(hll(&[&items], est).is_ok());
        assert!(hll(&[&items], est + 1).is_err());
    }

    #[test]
    fn upload_check_catches_an_admitted_corrupt_image() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 0 }, 8, 77);
        let clean = Bitstream::from_bytes(bs.bytes().to_vec());
        assert!(upload(&clean, false, 77).is_ok());
        // The checker must fail an op whose corrupt upload came back Ok.
        assert!(upload(&clean, true, 77).is_err());
        let corrupt = Bitstream::from_bytes(flip(bs.bytes().to_vec(), 40));
        assert!(upload(&corrupt, true, 77).is_ok());
        assert!(upload(&corrupt, false, 77).is_err());
    }

    #[test]
    fn results_check_catches_a_changed_file() {
        let committed = vec![("table1".to_string(), b"{\"a\": 1}\n".to_vec())];
        let serve = |body: &'static [u8]| move |_: &str| Ok(body.to_vec());
        assert!(results(&committed, serve(b"{\"a\": 1}\n")).is_ok());
        assert!(results(&committed, serve(b"{\"a\": 2}\n")).is_err());
        let missing = |_: &str| Err(std::io::Error::from(std::io::ErrorKind::NotFound));
        assert!(results(&committed, missing).is_err());
    }

    #[test]
    fn claims_check_needs_the_all_reproduced_verdict() {
        assert!(claims("x\nverdict: every headline claim reproduced\n").is_ok());
        assert!(claims("verdict: 8/9 headline claims reproduced\n").is_err());
    }
}
