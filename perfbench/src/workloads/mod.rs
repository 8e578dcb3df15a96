//! The five workloads and what they share.
//!
//! Every workload draws its op stream from `Xorshift64Star(seed)`. Op
//! kinds are dealt from shuffled blocks that hold each kind in its exact
//! share, so every seed runs the same mix and seeds differ only in order,
//! sizes and contents: run-to-run spread then measures the system, not the
//! draw.

pub mod build;
pub mod checks;
pub mod datapath;
pub mod rdma;
pub mod reconfig;
pub mod suite;

use crate::trace::Recorder;
use coyote_sim::Xorshift64Star;
use std::path::PathBuf;

/// What a workload's set-up gets.
#[derive(Debug, Clone)]
pub struct Context {
    /// Seed of the op stream.
    pub seed: u64,
    /// Repository root.
    pub root: PathBuf,
    /// This workload's working directory (suite passes).
    pub work: PathBuf,
    /// The `coyote-bench` executable.
    pub bench_bin: PathBuf,
    /// Worker budget.
    pub threads: usize,
}

/// One workload: a set-up, then ops issued one at a time.
pub trait Workload: Sized {
    /// Ops the deterministic counters and `sim.*` values are taken over:
    /// the first ops of the timed phase, run even when the seconds are up.
    const COUNTED: u64;
    /// [`Workload::COUNTED`] in a quick run.
    const COUNTED_QUICK: u64;
    /// Untimed warm-up ops before the timed phase.
    const WARMUP: u64;

    /// Build everything the ops need.
    fn setup(ctx: &Context) -> Result<Self, String>;

    /// Run op `i`: make its inputs, call the layers through `rec`, check
    /// the outputs. An error or a failed check is a failed op.
    fn op(&mut self, i: u64, rec: &mut Recorder) -> Result<(), String>;

    /// Start accumulating the counted values.
    fn begin_count(&mut self);

    /// The counted per-layer values, as (catalogue name, value).
    fn end_count(&mut self) -> Result<Vec<(&'static str, f64)>, String>;

    /// Per-layer host-time values the workload measures itself.
    fn host_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Peak resident set of the simulator, MB, when it runs in child
    /// processes rather than in this one.
    fn peak_rss_mb(&self) -> Option<f64> {
        None
    }
}

/// The op stream's generator for `seed`, decorrelated per workload.
pub fn rng(seed: u64, salt: u64) -> Xorshift64Star {
    Xorshift64Star::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Deals op kinds from shuffled blocks holding each kind in its share.
pub struct Mix<K: Copy> {
    block: Vec<K>,
    next: usize,
}

impl<K: Copy> Mix<K> {
    /// A mix holding `count` of each kind per block.
    pub fn new(shares: &[(K, usize)]) -> Mix<K> {
        let block: Vec<K> = shares
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        assert!(!block.is_empty(), "empty op mix");
        let next = block.len();
        Mix { block, next }
    }

    /// The next op kind.
    pub fn next(&mut self, rng: &mut Xorshift64Star) -> K {
        if self.next == self.block.len() {
            rng.shuffle(&mut self.block);
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

/// Deals sizes log-uniformly from `lo..=hi`, stratified: each block of `n`
/// sizes takes one from each n-th of the log range, in shuffled order, so
/// blocks differ little in total and every seed moves the same bytes'
/// worth give or take.
pub struct LogSizes {
    lo: f64,
    hi: f64,
    align: u64,
    strata: Vec<u32>,
    next: usize,
}

impl LogSizes {
    /// Sizes in `lo..=hi`, multiples of `align`, stratified in blocks of `n`.
    pub fn new(lo: u64, hi: u64, align: u64, n: u32) -> LogSizes {
        LogSizes {
            lo: (lo as f64).ln(),
            hi: (hi as f64).ln(),
            align,
            strata: (0..n).collect(),
            next: n as usize,
        }
    }

    /// The next size.
    pub fn next(&mut self, rng: &mut Xorshift64Star) -> u64 {
        if self.next == self.strata.len() {
            rng.shuffle(&mut self.strata);
            self.next = 0;
        }
        let u = (f64::from(self.strata[self.next]) + rng.gen_f64()) / self.strata.len() as f64;
        self.next += 1;
        let (lo, hi) = (self.lo.exp().round() as u64, self.hi.exp().round() as u64);
        let x = (self.lo + u * (self.hi - self.lo)).exp() as u64;
        (x.clamp(lo, hi) / self.align * self.align).max(lo)
    }
}

/// `len` seeded bytes.
pub fn bytes(rng: &mut Xorshift64Star, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// `len` zero bytes, at most 4 MiB, for initialising simulated memory in
/// set-up: the sparse memories materialise a block on its first write,
/// whatever is written, so no op should pay that at a seed-dependent
/// offset. A shared buffer keeps set-up from timing the allocator's
/// page faults on a fresh fill every time.
pub fn zeros(len: usize) -> &'static [u8] {
    static ZEROS: [u8; 4 << 20] = [0; 4 << 20];
    &ZEROS[..len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_deals_exact_shares_per_block() {
        let mut rng = rng(1, 0);
        let mut mix = Mix::new(&[('a', 3), ('b', 1)]);
        for _ in 0..5 {
            let block: Vec<char> = (0..4).map(|_| mix.next(&mut rng)).collect();
            assert_eq!(block.iter().filter(|&&k| k == 'a').count(), 3);
        }
    }

    #[test]
    fn log_sizes_stay_in_range_aligned_and_stratified() {
        let mut rng = rng(2, 0);
        let mut sizes = LogSizes::new(4096, 2 << 20, 64, 8);
        for _ in 0..100 {
            let mut block: Vec<u64> = (0..8).map(|_| sizes.next(&mut rng)).collect();
            assert!(block
                .iter()
                .all(|s| (4096..=2 << 20).contains(s) && s % 64 == 0));
            block.sort_unstable();
            // One size per eighth of the log range: 4 KiB x 2^(9k/8).
            for (k, s) in block.iter().enumerate() {
                let lo = 4096.0 * 2f64.powf(9.0 * k as f64 / 8.0);
                assert!((*s as f64) >= lo - 64.0 && (*s as f64) < lo * 2f64.powf(9.0 / 8.0));
            }
        }
    }
}
