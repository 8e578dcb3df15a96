//! Deterministic pseudo-random numbers.
//!
//! The simulation must be bit-reproducible across runs, so every stochastic
//! choice (placer moves, packet-drop injection, workload synthesis) draws
//! from an explicitly seeded [`Xorshift64Star`] owned by the component making
//! the choice. The `rand` crate is used only in dev-dependencies.

/// Xorshift64* generator (Vigna, 2016). Fast, 2^64-1 period, good enough for
/// simulation workloads; not cryptographic.
#[derive(Debug, Clone)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Seeded constructor; a zero seed is remapped (xorshift has no zero
    /// state).
    pub fn new(seed: u64) -> Self {
        Xorshift64Star {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range(0)");
        // Multiply-shift bounded generation (Lemire). The slight modulo bias
        // of the simpler approach is irrelevant for simulation, but this is
        // just as cheap.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Exponentially distributed value with the given mean.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.gen_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Fill `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xorshift64Star::new(42);
        let mut b = Xorshift64Star::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xorshift64Star::new(1);
        let mut b = Xorshift64Star::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xorshift64Star::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = Xorshift64Star::new(7);
        for _ in 0..10_000 {
            assert!(r.gen_range(13) < 13);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = Xorshift64Star::new(9);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.gen_range(8) as usize] += 1;
        }
        for c in counts {
            let expect = n as f64 / 8.0;
            assert!((c as f64 - expect).abs() < expect * 0.05, "bucket {c}");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xorshift64Star::new(3);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xorshift64Star::new(11);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice untouched");
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut r = Xorshift64Star::new(5);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = Xorshift64Star::new(17);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.gen_exp(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }
}
