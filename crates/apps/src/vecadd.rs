//! Vector kernels (§2.2's motivating example, §9.3 scenario #2).
//!
//! "For vector addition, an FPGA application should consume two (or more)
//! vectors and produce a single result vector." With Coyote v2's parallel
//! streams the two operands arrive on separate streams; this model maps
//! stream selection onto a phase CSR: phase 0 preloads operand A (a
//! `LocalRead` on one stream), phase 1 streams operand B and emits A + B.

use coyote::kernel::{Kernel, KernelTiming};

/// Element type: i64 lanes (eight per 512-bit beat).
const LANE_BYTES: usize = 8;

/// Vector addition.
pub struct VecAddKernel {
    a: Vec<i64>,
    cursor: usize,
    phase: u64,
    elements: u64,
}

impl VecAddKernel {
    /// Fresh kernel in preload phase.
    pub fn new() -> VecAddKernel {
        VecAddKernel {
            a: Vec::new(),
            cursor: 0,
            phase: 0,
            elements: 0,
        }
    }
}

impl Default for VecAddKernel {
    fn default() -> Self {
        Self::new()
    }
}

fn lanes(data: &[u8]) -> impl Iterator<Item = i64> + '_ {
    data.chunks_exact(LANE_BYTES)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
}

/// Replace each whole lane `b` of `data` with `op(a, b)`, `a` taken from
/// operand A at `cursor` (0 past its end), and drop a partial trailing
/// lane. Returns the number of lanes combined.
fn combine(a: &[i64], cursor: &mut usize, data: &mut Vec<u8>, op: fn(i64, i64) -> i64) -> u64 {
    let whole = data.len() - data.len() % LANE_BYTES;
    data.truncate(whole);
    for lane in data.chunks_exact_mut(LANE_BYTES) {
        let b = i64::from_le_bytes((*lane).try_into().expect("8 bytes"));
        let a = a.get(*cursor).copied().unwrap_or(0);
        *cursor += 1;
        lane.copy_from_slice(&op(a, b).to_le_bytes());
    }
    (whole / LANE_BYTES) as u64
}

impl Kernel for VecAddKernel {
    fn name(&self) -> &str {
        "vecadd"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::VecAdd
    }

    fn timing(&self) -> KernelTiming {
        KernelTiming::Streaming {
            bytes_per_cycle: 64,
            latency_cycles: 6,
        }
    }

    fn process_packet(&mut self, _tid: u16, data: &mut Vec<u8>) {
        if self.phase == 0 {
            // Preload operand A.
            self.a.extend(lanes(data));
            data.clear();
        } else {
            // Stream operand B, emit A + B element-wise.
            self.elements += combine(&self.a, &mut self.cursor, data, i64::wrapping_add);
        }
    }

    fn csr_write(&mut self, offset: u64, value: u64) {
        if offset == 0 {
            self.phase = value;
            if value == 0 {
                self.a.clear();
            }
            self.cursor = 0;
        }
    }

    fn csr_read(&self, offset: u64) -> u64 {
        match offset {
            0 => self.phase,
            8 => self.elements,
            16 => self.a.len() as u64,
            _ => 0,
        }
    }

    fn reset(&mut self) {
        self.a.clear();
        self.cursor = 0;
        self.phase = 0;
        self.elements = 0;
    }
}

/// Element-wise vector product (scenario #2 loads "two numerical kernels
/// (vector addition, product)").
pub struct VecProductKernel {
    a: Vec<i64>,
    cursor: usize,
    phase: u64,
}

impl VecProductKernel {
    /// Fresh kernel in preload phase.
    pub fn new() -> VecProductKernel {
        VecProductKernel {
            a: Vec::new(),
            cursor: 0,
            phase: 0,
        }
    }
}

impl Default for VecProductKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel for VecProductKernel {
    fn name(&self) -> &str {
        "vecproduct"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::VecProduct
    }

    fn timing(&self) -> KernelTiming {
        KernelTiming::Streaming {
            bytes_per_cycle: 64,
            latency_cycles: 8,
        }
    }

    fn process_packet(&mut self, _tid: u16, data: &mut Vec<u8>) {
        if self.phase == 0 {
            self.a.extend(lanes(data));
            data.clear();
        } else {
            combine(&self.a, &mut self.cursor, data, i64::wrapping_mul);
        }
    }

    fn csr_write(&mut self, offset: u64, value: u64) {
        if offset == 0 {
            self.phase = value;
            if value == 0 {
                self.a.clear();
            }
            self.cursor = 0;
        }
    }

    fn csr_read(&self, offset: u64) -> u64 {
        self.phase * u64::from(offset == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bytes(v: &[i64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn from_bytes(b: &[u8]) -> Vec<i64> {
        lanes(b).collect()
    }

    #[test]
    fn add_two_vectors() {
        let mut k = VecAddKernel::new();
        let a: Vec<i64> = (0..100).collect();
        let b: Vec<i64> = (0..100).map(|x| x * 10).collect();
        assert!(
            crate::process(&mut k, 0, &to_bytes(&a)).is_empty(),
            "phase 0 is a sink"
        );
        k.csr_write(0, 1);
        let out = from_bytes(&crate::process(&mut k, 0, &to_bytes(&b)));
        let expect: Vec<i64> = (0..100).map(|x| x + x * 10).collect();
        assert_eq!(out, expect);
        assert_eq!(k.csr_read(8), 100);
    }

    #[test]
    fn b_stream_split_across_packets() {
        let mut k = VecAddKernel::new();
        let a: Vec<i64> = (0..64).collect();
        crate::process(&mut k, 0, &to_bytes(&a));
        k.csr_write(0, 1);
        let b: Vec<i64> = vec![5; 64];
        let bytes = to_bytes(&b);
        let mut out = Vec::new();
        out.extend(from_bytes(&crate::process(&mut k, 0, &bytes[..256])));
        out.extend(from_bytes(&crate::process(&mut k, 0, &bytes[256..])));
        let expect: Vec<i64> = (0..64).map(|x| x + 5).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn product_multiplies() {
        let mut k = VecProductKernel::new();
        let a: Vec<i64> = vec![3; 16];
        let b: Vec<i64> = (0..16).collect();
        crate::process(&mut k, 0, &to_bytes(&a));
        k.csr_write(0, 1);
        let out = from_bytes(&crate::process(&mut k, 0, &to_bytes(&b)));
        let expect: Vec<i64> = (0..16).map(|x| 3 * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn phase_reset_clears_operand() {
        let mut k = VecAddKernel::new();
        crate::process(&mut k, 0, &to_bytes(&[1, 2, 3]));
        assert_eq!(k.csr_read(16), 3);
        k.csr_write(0, 0);
        assert_eq!(k.csr_read(16), 0);
    }
}
