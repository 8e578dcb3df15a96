//! Simulated time, durations, frequencies and bandwidths.
//!
//! All simulated time in the Coyote v2 model is kept in **picoseconds** as a
//! `u64`. That gives a range of roughly 213 simulated days, far beyond any
//! experiment in the paper, while still resolving a single cycle of the
//! 450 MHz HBM clock (~2222 ps) exactly enough for throughput accounting.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute instant on the simulated clock, in picoseconds since the
/// simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Raw picosecond count since the epoch.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "since() with a later instant");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from picoseconds.
    pub fn from_ps(ps: u64) -> SimDuration {
        SimDuration(ps)
    }

    /// Construct from nanoseconds.
    pub fn from_ns(ns: u64) -> SimDuration {
        SimDuration(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    pub fn from_us(us: u64) -> SimDuration {
        SimDuration(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    pub fn from_ms(ms: u64) -> SimDuration {
        SimDuration(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * PS_PER_S)
    }

    /// Construct from fractional seconds, rounding to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        let ps = s * PS_PER_S as f64;
        assert!(ps <= u64::MAX as f64, "duration overflows: {s}s");
        SimDuration(ps.round() as u64)
    }

    /// Raw picosecond count.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds as a float (for reporting only).
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Microseconds as a float (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Milliseconds as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True if the duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_S {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_nanos_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// A clock frequency in hertz.
///
/// Hardware blocks in the model are parameterized by their clock; timings are
/// expressed in cycles and converted to [`SimDuration`] through this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq(pub u64);

impl Freq {
    /// Construct from megahertz.
    pub fn mhz(mhz: u64) -> Freq {
        Freq(mhz * 1_000_000)
    }

    /// Construct from gigahertz.
    pub fn ghz(ghz: u64) -> Freq {
        Freq(ghz * 1_000_000_000)
    }

    /// The period of one clock cycle, rounded to the nearest picosecond.
    pub fn period(self) -> SimDuration {
        assert!(self.0 > 0, "zero frequency");
        SimDuration((PS_PER_S + self.0 / 2) / self.0)
    }

    /// Duration of `n` cycles (computed without accumulating the per-cycle
    /// rounding error of `period() * n`).
    pub fn cycles(self, n: u64) -> SimDuration {
        assert!(self.0 > 0, "zero frequency");
        let ps = (n as u128 * PS_PER_S as u128 + self.0 as u128 / 2) / self.0 as u128;
        SimDuration(u64::try_from(ps).expect("cycle count overflows SimDuration"))
    }
}

/// A data rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Construct from bytes per second.
    pub fn bytes_per_sec(bps: u64) -> Bandwidth {
        Bandwidth(bps)
    }

    /// Construct from megabytes (1e6 bytes) per second.
    pub fn mbps(mb: u64) -> Bandwidth {
        Bandwidth(mb * 1_000_000)
    }

    /// Construct from gigabytes (1e9 bytes) per second.
    pub fn gbps(gb: u64) -> Bandwidth {
        Bandwidth(gb * 1_000_000_000)
    }

    /// Construct from gigabits per second (network convention).
    pub fn gbits(gbit: u64) -> Bandwidth {
        Bandwidth(gbit * 1_000_000_000 / 8)
    }

    /// Bytes per second.
    pub fn as_bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Gigabytes per second as a float (for reporting only).
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time needed to move `bytes` at this rate, rounded up to a picosecond.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    pub fn time_for(self, bytes: u64) -> SimDuration {
        assert!(self.0 > 0, "zero bandwidth");
        let ps = (bytes as u128 * PS_PER_S as u128).div_ceil(self.0 as u128);
        SimDuration(u64::try_from(ps).expect("transfer time overflows SimDuration"))
    }
}

/// Compute a rate in bytes/second from a byte count and a duration.
///
/// Returns zero for a zero-length duration (the caller is expected to treat
/// that as "not measurable").
pub fn rate(bytes: u64, elapsed: SimDuration) -> Bandwidth {
    if elapsed.is_zero() {
        return Bandwidth(0);
    }
    let bps = bytes as u128 * PS_PER_S as u128 / elapsed.0 as u128;
    Bandwidth(u64::try_from(bps).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_convert() {
        assert_eq!(SimDuration::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDuration::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimDuration::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs(1).as_ps(), PS_PER_S);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_ps(), PS_PER_S / 2);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_ns(100);
        assert_eq!(t.as_ps(), 100_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_ns(100));
        let back = t - SimDuration::from_ns(40);
        assert_eq!(back.as_ps(), 60_000);
        assert_eq!(
            SimTime::ZERO.saturating_since(t),
            SimDuration::ZERO,
            "saturating_since clamps"
        );
    }

    #[test]
    fn freq_periods() {
        // 250 MHz system clock of the U55C shell: 4 ns period.
        assert_eq!(Freq::mhz(250).period(), SimDuration::from_ns(4));
        // 450 MHz HBM clock: 2222 ps, rounded.
        assert_eq!(Freq::mhz(450).period().as_ps(), 2222);
        // Cycle batching avoids accumulated rounding error.
        assert_eq!(
            Freq::mhz(450).cycles(450_000_000),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn bandwidth_transfer_times() {
        // 12 GB/s host link moves 4 KiB in ~341 ns.
        let t = Bandwidth::gbps(12).time_for(4096);
        assert!((t.as_nanos_f64() - 341.33).abs() < 1.0, "got {t}");
        // 100 Gbit/s is 12.5 GB/s.
        assert_eq!(Bandwidth::gbits(100).as_bytes_per_sec(), 12_500_000_000);
    }

    #[test]
    fn rate_roundtrips_time_for() {
        let bw = Bandwidth::mbps(800);
        let bytes = 40_000_000;
        let t = bw.time_for(bytes);
        let measured = rate(bytes, t);
        let err = (measured.0 as f64 - bw.0 as f64).abs() / bw.0 as f64;
        assert!(err < 1e-6, "measured {measured:?}");
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", SimDuration::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_ps(7)), "7ps");
    }

    #[test]
    #[should_panic(expected = "SimDuration underflow")]
    fn duration_underflow_panics() {
        let _ = SimDuration::from_ns(1) - SimDuration::from_ns(2);
    }
}
