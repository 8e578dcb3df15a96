//! HyperLogLog cardinality estimation (§9.6, after Kulkarni et al., ref. 35 of the paper).
//!
//! A real HLL sketch: 64-bit hashing (xxHash64, implemented here), `2^p`
//! 6-bit registers, the bias-corrected harmonic-mean estimator with
//! linear-counting fallback for small cardinalities. The kernel consumes
//! the input stream as 64-bit items at line rate; the estimate is read over
//! the control bus, matching the sink-style deployment of the paper.

use coyote::kernel::{Kernel, KernelTiming};

/// xxHash64 constants.
const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME5: u64 = 0x27D4_EB2F_1656_67C5;

/// xxHash64 of a byte slice.
pub fn xxhash64(data: &[u8], seed: u64) -> u64 {
    let mut h: u64;
    let mut rest = data;
    if data.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME1).wrapping_add(PRIME2);
        let mut v2 = seed.wrapping_add(PRIME2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..8]));
            v2 = round(v2, read_u64(&rest[8..16]));
            v3 = round(v3, read_u64(&rest[16..24]));
            v4 = round(v4, read_u64(&rest[24..32]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME5);
    }
    h = h.wrapping_add(data.len() as u64);
    while rest.len() >= 8 {
        h ^= round(0, read_u64(&rest[0..8]));
        h = h.rotate_left(27).wrapping_mul(PRIME1).wrapping_add(PRIME4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let v = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as u64;
        h ^= v.wrapping_mul(PRIME1);
        h = h.rotate_left(23).wrapping_mul(PRIME2).wrapping_add(PRIME3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= (b as u64).wrapping_mul(PRIME5);
        h = h.rotate_left(11).wrapping_mul(PRIME1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME3);
    h ^= h >> 32;
    h
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME2))
        .rotate_left(31)
        .wrapping_mul(PRIME1)
}

fn merge_round(acc: u64, v: u64) -> u64 {
    (acc ^ round(0, v))
        .wrapping_mul(PRIME1)
        .wrapping_add(PRIME4)
}

/// The HyperLogLog sketch.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    p: u8,
    registers: Vec<u8>,
    items: u64,
}

impl HyperLogLog {
    /// A sketch with `2^p` registers (`4 <= p <= 18`).
    pub fn new(p: u8) -> HyperLogLog {
        assert!((4..=18).contains(&p), "precision {p} out of range");
        HyperLogLog {
            p,
            registers: vec![0; 1 << p],
            items: 0,
        }
    }

    /// Absorb one item.
    pub fn add(&mut self, item: &[u8]) {
        let h = xxhash64(item, 0);
        self.add_hash(h);
    }

    /// Absorb a precomputed hash.
    pub fn add_hash(&mut self, h: u64) {
        self.items += 1;
        let idx = (h >> (64 - self.p)) as usize;
        let tail = h << self.p;
        // Rank: position of the leftmost 1 in the remaining bits, 1-based;
        // all-zero tail saturates.
        let rank = (tail.leading_zeros() + 1).min(64 - self.p as u32 + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Items absorbed (not distinct).
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The cardinality estimate.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting.
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        // Large-range correction for 64-bit hashes is negligible at the
        // cardinalities exercised here.
        raw
    }

    /// Merge another sketch (same precision).
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.p, other.p, "precision mismatch");
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(b);
        }
        self.items += other.items;
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.registers.fill(0);
        self.items = 0;
    }
}

/// The HLL kernel: consumes 64-bit items at line rate, estimate over CSRs.
pub struct HllKernel {
    sketch: HyperLogLog,
}

impl HllKernel {
    /// Default precision p = 14 (16 Ki registers), as in the FPGA sketch
    /// accelerator the paper cites.
    pub fn new() -> HllKernel {
        HllKernel {
            sketch: HyperLogLog::new(14),
        }
    }
}

impl Default for HllKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel for HllKernel {
    fn name(&self) -> &str {
        "hyperloglog"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::Hll
    }

    fn timing(&self) -> KernelTiming {
        // Eight hash lanes absorb a 512-bit beat per cycle.
        KernelTiming::Streaming {
            bytes_per_cycle: 64,
            latency_cycles: 12,
        }
    }

    fn process_packet(&mut self, _tid: u16, data: &mut Vec<u8>) {
        for item in data.chunks_exact(8) {
            self.sketch.add_hash(xxhash64(item, 0));
        }
        data.clear(); // Sink: the estimate is read over the control bus.
    }

    fn csr_read(&self, offset: u64) -> u64 {
        match offset {
            0 => self.sketch.estimate().round() as u64,
            8 => self.sketch.items(),
            _ => 0,
        }
    }

    fn csr_write(&mut self, offset: u64, _value: u64) {
        if offset == 16 {
            self.sketch.clear();
        }
    }

    fn reset(&mut self) {
        self.sketch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxhash_reference_values() {
        // Cross-checked against the reference xxHash64 implementation.
        assert_eq!(xxhash64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxhash64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxhash64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn estimates_within_expected_error() {
        // Standard error for p=14 is ~1.04/sqrt(16384) = 0.81%; allow 3
        // sigma.
        let mut hll = HyperLogLog::new(14);
        let n = 100_000u64;
        for i in 0..n {
            hll.add(&i.to_le_bytes());
        }
        let est = hll.estimate();
        let err = (est - n as f64).abs() / n as f64;
        assert!(
            err < 0.025,
            "estimate {est} vs {n} ({:.2}% error)",
            err * 100.0
        );
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(12);
        for _ in 0..10 {
            for i in 0..1000u64 {
                hll.add(&i.to_le_bytes());
            }
        }
        let est = hll.estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.05, "estimate {est}");
        assert_eq!(hll.items(), 10_000);
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut hll = HyperLogLog::new(14);
        for i in 0..50u64 {
            hll.add(&i.to_le_bytes());
        }
        let est = hll.estimate();
        assert!((est - 50.0).abs() < 5.0, "estimate {est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        for i in 0..5000u64 {
            a.add(&i.to_le_bytes());
        }
        for i in 2500..7500u64 {
            b.add(&i.to_le_bytes());
        }
        a.merge(&b);
        let est = a.estimate();
        assert!((est - 7500.0).abs() / 7500.0 < 0.05, "union estimate {est}");
    }

    #[test]
    fn kernel_estimates_via_csr() {
        use coyote::kernel::Kernel as _;
        let mut k = HllKernel::new();
        let mut data = Vec::new();
        for i in 0..20_000u64 {
            data.extend_from_slice(&i.to_le_bytes());
        }
        for packet in data.chunks(4096) {
            let out = crate::process(&mut k, 0, packet);
            assert!(out.is_empty(), "HLL is a sink");
        }
        let est = k.csr_read(0) as f64;
        assert!((est - 20_000.0).abs() / 20_000.0 < 0.03, "estimate {est}");
        assert_eq!(k.csr_read(8), 20_000);
        k.csr_write(16, 1);
        assert_eq!(k.csr_read(8), 0, "clear resets");
    }
}
