//! A kernel exercising the user-interrupt channel (§7.1).
//!
//! §2.2: "a sufficiently generic interrupt interface is a necessity for
//! realistic workloads, as applications can encounter various unwanted
//! states, such as malformed data or timeouts." [`ValidatorKernel`] checks
//! a simple framing invariant on its input stream and raises an interrupt
//! with a diagnostic value whenever a record is malformed, while still
//! passing well-formed records through.

use coyote::kernel::{Kernel, KernelTiming};

/// Record framing: `[magic u32][len u32][payload len bytes]`.
pub const RECORD_MAGIC: u32 = 0xC0DE_F00D;

/// Interrupt codes the validator raises.
pub mod irq_codes {
    /// A record with a wrong magic.
    pub const BAD_MAGIC: u64 = 0x1000_0000;
    /// A record whose declared length overruns the stream.
    pub const TRUNCATED: u64 = 0x2000_0000;
}

/// Stream validator: forwards valid records, interrupts on malformed ones.
#[derive(Debug, Default)]
pub struct ValidatorKernel {
    pending_irqs: Vec<u64>,
    buffer: Vec<u8>,
    records_ok: u64,
    records_bad: u64,
}

impl ValidatorKernel {
    /// A fresh validator.
    pub fn new() -> ValidatorKernel {
        Self::default()
    }

    /// Encode one record in the expected framing.
    pub fn encode_record(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }
}

impl Kernel for ValidatorKernel {
    fn name(&self) -> &str {
        "stream_validator"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::Custom {
            name: "stream_validator".into(),
            lut: 4_500,
            ff: 9_000,
            bram: 8,
            dsp: 0,
        }
    }

    fn timing(&self) -> KernelTiming {
        KernelTiming::Streaming {
            bytes_per_cycle: 64,
            latency_cycles: 6,
        }
    }

    fn process_packet(&mut self, _tid: u16, data: &mut Vec<u8>) {
        self.buffer.extend_from_slice(data);
        let out = data;
        out.clear();
        loop {
            if self.buffer.len() < 8 {
                break;
            }
            let magic = u32::from_le_bytes(self.buffer[0..4].try_into().expect("4 bytes"));
            if magic != RECORD_MAGIC {
                // Malformed: raise an interrupt carrying the bad word and
                // resynchronize by skipping one byte.
                self.pending_irqs.push(irq_codes::BAD_MAGIC | magic as u64);
                self.records_bad += 1;
                self.buffer.drain(..1);
                continue;
            }
            let len = u32::from_le_bytes(self.buffer[4..8].try_into().expect("4 bytes")) as usize;
            if len > 1 << 20 {
                // Absurd length: flag as truncated/corrupt and skip header.
                self.pending_irqs.push(irq_codes::TRUNCATED | len as u64);
                self.records_bad += 1;
                self.buffer.drain(..8);
                continue;
            }
            if self.buffer.len() < 8 + len {
                break; // Wait for more data.
            }
            out.extend_from_slice(&self.buffer[8..8 + len]);
            self.buffer.drain(..8 + len);
            self.records_ok += 1;
        }
    }

    fn take_interrupts(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_irqs)
    }

    fn csr_read(&self, offset: u64) -> u64 {
        match offset {
            0 => self.records_ok,
            8 => self.records_bad,
            _ => 0,
        }
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_records_pass_without_interrupts() {
        let mut k = ValidatorKernel::new();
        let mut stream = Vec::new();
        stream.extend(ValidatorKernel::encode_record(b"alpha"));
        stream.extend(ValidatorKernel::encode_record(b"beta"));
        let out = crate::process(&mut k, 0, &stream);
        assert_eq!(out, b"alphabeta");
        assert!(k.take_interrupts().is_empty());
        assert_eq!(k.csr_read(0), 2);
    }

    #[test]
    fn bad_magic_raises_interrupt_and_resyncs() {
        let mut k = ValidatorKernel::new();
        let mut stream = vec![0xFFu8; 3]; // Garbage prefix.
        stream.extend(ValidatorKernel::encode_record(b"ok"));
        let out = crate::process(&mut k, 0, &stream);
        assert_eq!(out, b"ok");
        let irqs = k.take_interrupts();
        assert!(!irqs.is_empty());
        assert!(irqs.iter().all(|v| v & irq_codes::BAD_MAGIC != 0));
        assert_eq!(k.csr_read(0), 1);
        assert!(k.csr_read(8) >= 1);
    }

    #[test]
    fn record_split_across_packets() {
        let mut k = ValidatorKernel::new();
        let rec = ValidatorKernel::encode_record(&[7u8; 100]);
        let out1 = crate::process(&mut k, 0, &rec[..50]);
        assert!(out1.is_empty());
        let out2 = crate::process(&mut k, 0, &rec[50..]);
        assert_eq!(out2, vec![7u8; 100]);
    }

    #[test]
    fn absurd_length_flagged() {
        let mut k = ValidatorKernel::new();
        let mut stream = Vec::new();
        stream.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        stream.extend_from_slice(&(u32::MAX).to_le_bytes());
        crate::process(&mut k, 0, &stream);
        let irqs = k.take_interrupts();
        assert_eq!(irqs.len(), 1);
        assert!(irqs[0] & irq_codes::TRUNCATED != 0);
    }
}
