//! FPGA resource accounting.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A bundle of FPGA primitive counts.
///
/// Used both for device/region capacities and for design footprints; the
/// utilization plots of Figs. 11 and 12 are ratios of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceVec {
    /// 6-input look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// 36 Kb block RAMs.
    pub bram: u64,
    /// UltraRAM blocks.
    pub uram: u64,
    /// DSP48 slices.
    pub dsp: u64,
}

impl ResourceVec {
    /// The zero bundle.
    pub const ZERO: ResourceVec = ResourceVec {
        lut: 0,
        ff: 0,
        bram: 0,
        uram: 0,
        dsp: 0,
    };

    /// Convenience constructor.
    pub fn new(lut: u64, ff: u64, bram: u64, uram: u64, dsp: u64) -> Self {
        ResourceVec {
            lut,
            ff,
            bram,
            uram,
            dsp,
        }
    }

    /// A LUT/FF-only bundle (plain logic).
    pub fn logic(lut: u64, ff: u64) -> Self {
        ResourceVec {
            lut,
            ff,
            ..Self::ZERO
        }
    }

    /// True if every component of `self` fits within `capacity`.
    pub fn fits_in(&self, capacity: &ResourceVec) -> bool {
        self.lut <= capacity.lut
            && self.ff <= capacity.ff
            && self.bram <= capacity.bram
            && self.uram <= capacity.uram
            && self.dsp <= capacity.dsp
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, rhs: &ResourceVec) -> ResourceVec {
        ResourceVec {
            lut: self.lut.saturating_sub(rhs.lut),
            ff: self.ff.saturating_sub(rhs.ff),
            bram: self.bram.saturating_sub(rhs.bram),
            uram: self.uram.saturating_sub(rhs.uram),
            dsp: self.dsp.saturating_sub(rhs.dsp),
        }
    }

    /// The utilization of the dominant resource, as a fraction of
    /// `capacity`. This is the number reported in the paper's utilization
    /// plots ("overall utilization remains low, around 10%").
    pub fn utilization(&self, capacity: &ResourceVec) -> f64 {
        fn frac(used: u64, cap: u64) -> f64 {
            if cap == 0 {
                if used == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                used as f64 / cap as f64
            }
        }
        frac(self.lut, capacity.lut)
            .max(frac(self.ff, capacity.ff))
            .max(frac(self.bram, capacity.bram))
            .max(frac(self.uram, capacity.uram))
            .max(frac(self.dsp, capacity.dsp))
    }

    /// Total primitive count (a rough "size" for build-effort models).
    pub fn total_cells(&self) -> u64 {
        self.lut + self.ff + self.bram + self.uram + self.dsp
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram: self.bram + rhs.bram,
            uram: self.uram + rhs.uram,
            dsp: self.dsp + rhs.dsp,
        }
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            lut: self.lut - rhs.lut,
            ff: self.ff - rhs.ff,
            bram: self.bram - rhs.bram,
            uram: self.uram - rhs.uram,
            dsp: self.dsp - rhs.dsp,
        }
    }
}

impl Mul<u64> for ResourceVec {
    type Output = ResourceVec;
    fn mul(self, k: u64) -> ResourceVec {
        ResourceVec {
            lut: self.lut * k,
            ff: self.ff * k,
            bram: self.bram * k,
            uram: self.uram * k,
            dsp: self.dsp * k,
        }
    }
}

impl Sum for ResourceVec {
    fn sum<I: Iterator<Item = ResourceVec>>(iter: I) -> ResourceVec {
        iter.fold(ResourceVec::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUT / {} FF / {} BRAM / {} URAM / {} DSP",
            self.lut, self.ff, self.bram, self.uram, self.dsp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = ResourceVec::new(100, 200, 4, 2, 8);
        let b = ResourceVec::new(10, 20, 1, 0, 3);
        assert_eq!(a + b, ResourceVec::new(110, 220, 5, 2, 11));
        assert_eq!(a - b, ResourceVec::new(90, 180, 3, 2, 5));
        assert_eq!(b * 3, ResourceVec::new(30, 60, 3, 0, 9));
        let s: ResourceVec = [a, b].into_iter().sum();
        assert_eq!(s, a + b);
    }

    #[test]
    fn fits_is_componentwise() {
        let cap = ResourceVec::new(100, 100, 10, 10, 10);
        assert!(ResourceVec::new(100, 50, 0, 0, 0).fits_in(&cap));
        assert!(!ResourceVec::new(101, 0, 0, 0, 0).fits_in(&cap));
        assert!(!ResourceVec::new(0, 0, 0, 11, 0).fits_in(&cap));
    }

    #[test]
    fn utilization_is_dominant_resource() {
        let cap = ResourceVec::new(1000, 2000, 100, 100, 100);
        let used = ResourceVec::new(100, 100, 50, 0, 0);
        // BRAM dominates at 50%.
        assert!((used.utilization(&cap) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_with_zero_capacity() {
        let cap = ResourceVec::new(100, 100, 0, 0, 0);
        assert_eq!(ResourceVec::logic(10, 10).utilization(&cap), 0.1);
        assert!(ResourceVec::new(0, 0, 1, 0, 0)
            .utilization(&cap)
            .is_infinite());
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = ResourceVec::new(5, 5, 5, 5, 5);
        let b = ResourceVec::new(10, 1, 10, 1, 10);
        assert_eq!(a.saturating_sub(&b), ResourceVec::new(0, 4, 0, 4, 0));
    }
}
