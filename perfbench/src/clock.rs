//! The clock probe: op times are reported at a nominal CPU clock.
//!
//! On a shared machine the speed of the CPU a run gets changes by several
//! percent over minutes, and every op of the run slows with it. A run
//! therefore times a fixed integer loop (the probe) about every 100 ms,
//! between timed ops, and scales the host time of every op it reports by
//! `NOMINAL_PROBE_NS / median probe`. The result reads as the time the op
//! would take with the probe at its nominal speed, comparable across runs
//! made minutes apart. The probe is this file's own code, so no change to
//! the simulator can move it. Set-up times are not scaled: they are bound
//! by page faults, which do not follow the probe. `BASELINE.md` compares
//! scaled and raw spreads on the same runs.

use crate::stats;
use std::time::{Duration, Instant};

/// The probe's time at the nominal clock, ns (its typical time on the
/// 2-core machine the baseline was recorded on).
pub const NOMINAL_PROBE_NS: f64 = 680_000.0;

/// How often the probe runs, at most.
const INTERVAL: Duration = Duration::from_millis(100);

/// Probes taken at once after a long op (to weigh long ops' intervals).
const MAX_BURST: u32 = 5;

/// Time one probe: a fixed xorshift loop, ns.
pub fn probe_ns() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..300_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64
}

/// Probe samples of one run.
pub struct Clock {
    samples: Vec<f64>,
    last: Instant,
}

impl Clock {
    /// A clock with a first burst of samples.
    pub fn new() -> Clock {
        Clock {
            samples: (0..MAX_BURST).map(|_| probe_ns()).collect(),
            last: Instant::now(),
        }
    }

    /// Probe if the interval has passed: once per interval elapsed since
    /// the last probe, up to a burst.
    pub fn tick(&mut self) {
        let since = self.last.elapsed();
        if since < INTERVAL {
            return;
        }
        let n = (since.as_nanos() / INTERVAL.as_nanos()).clamp(1, u128::from(MAX_BURST));
        for _ in 0..n {
            self.samples.push(probe_ns());
        }
        self.last = Instant::now();
    }

    /// Multiply a host time by this to express it at the nominal clock.
    pub fn factor(&self) -> f64 {
        NOMINAL_PROBE_NS / stats::median(&self.samples).expect("the clock starts with samples")
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_takes_measurable_time() {
        let ns = probe_ns();
        assert!(ns > 1_000.0, "{ns} ns: the loop was optimized away");
    }

    #[test]
    fn the_factor_is_nominal_over_the_median_probe() {
        let clock = Clock {
            samples: [2.0, 1.5, 2.5].map(|x| x * NOMINAL_PROBE_NS).to_vec(),
            last: Instant::now(),
        };
        assert_eq!(clock.factor(), 0.5);
    }
}
