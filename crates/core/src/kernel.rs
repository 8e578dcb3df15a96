//! The user-hardware abstraction: what lives inside a vFPGA.
//!
//! A [`Kernel`] is the functional + timing model of one user application.
//! Data really flows through [`Kernel::process_packet`] (AES encrypts, HLL
//! sketches, the NN infers), while [`KernelTiming`] tells the shell's
//! executor how to model the hardware's throughput: a streaming rate for
//! fully pipelined kernels, or a block-dependent pipeline (depth/II plus a
//! dependence between consecutive blocks of the same thread) for kernels
//! like AES CBC (§9.5).

use coyote_axi::RegisterFile;

/// Timing model of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelTiming {
    /// Fully pipelined streaming kernel consuming `bytes_per_cycle` at the
    /// shell clock (a pass-through moves one 512-bit beat per cycle).
    Streaming {
        /// Bytes absorbed per 250 MHz cycle.
        bytes_per_cycle: u32,
        /// Pipeline fill latency in cycles.
        latency_cycles: u32,
    },
    /// Block-dependent pipeline: the next `block_bytes` of a *thread*
    /// cannot enter before the previous block of that thread exits
    /// (AES CBC's chaining, an LLM's token loop).
    BlockPipeline {
        /// Bytes per dependent block (16 for AES).
        block_bytes: u32,
        /// Pipeline depth in cycles (10 for the paper's AES core).
        depth_cycles: u32,
        /// Initiation interval for *independent* blocks.
        ii_cycles: u32,
        /// Extra per-block round-trip cycles (arbitration, XOR stage).
        overhead_cycles: u32,
    },
}

impl KernelTiming {
    /// The pass-through default: one 64-byte beat per cycle.
    pub fn line_rate() -> KernelTiming {
        KernelTiming::Streaming {
            bytes_per_cycle: 64,
            latency_cycles: 4,
        }
    }
}

/// One user application.
pub trait Kernel {
    /// Display name.
    fn name(&self) -> &str;

    /// The synthesis-library identity (resource footprint, §9.2's build
    /// flows and the utilization plots).
    fn ip(&self) -> coyote_synth::Ip;

    /// Timing model.
    fn timing(&self) -> KernelTiming {
        KernelTiming::line_rate()
    }

    /// Transform one packet of data from thread `tid` in place. On entry
    /// `data` holds the input packet; on return it holds the output, which
    /// flows to the destination stream. The kernel may shrink, grow or
    /// clear the buffer: a sink such as HyperLogLog clears it, since its
    /// result is read over the control bus.
    fn process_packet(&mut self, tid: u16, data: &mut Vec<u8>);

    /// Control-register write (`setCSR`).
    fn csr_write(&mut self, _offset: u64, _value: u64) {}

    /// Control-register read (`getCSR`).
    fn csr_read(&self, _offset: u64) -> u64 {
        0
    }

    /// Define application-specific registers on the vFPGA's AXI4-Lite
    /// block; default: a bank of 16 scratch CSRs.
    fn define_csrs(&self, rf: &mut RegisterFile) {
        rf.define_bank(0, 16);
    }

    /// Drain interrupts the kernel raised while processing (§7.1's
    /// interrupt channel: "enables hardware applications to issue
    /// interrupts, with arbitrary values, to the user space"). The shell
    /// polls this after each packet and delivers the values through MSI-X
    /// to the owning process's eventfd.
    fn take_interrupts(&mut self) -> Vec<u64> {
        Vec::new()
    }

    /// Reset per-invocation state (between reconfigurations).
    fn reset(&mut self) {}
}

/// The trivial pass-through kernel used by §9.1 and scenario #1 of §9.3:
/// consumes data and stores it back unchanged at line rate.
///
/// For the HBM scaling experiment of §9.1 the kernel is instantiated with
/// one 512-bit datapath per card stream ("parallel data transfer and
/// processing in a single vFPGA"); its aggregate rate is then
/// `64 * streams` bytes per cycle and the memory system, not the kernel,
/// is the bottleneck.
#[derive(Debug)]
pub struct Passthrough {
    bytes: u64,
    streams: u32,
}

impl Default for Passthrough {
    fn default() -> Self {
        Passthrough {
            bytes: 0,
            streams: 1,
        }
    }
}

impl Passthrough {
    /// A pass-through with `streams` parallel 512-bit datapaths.
    pub fn with_streams(streams: u32) -> Passthrough {
        assert!(streams >= 1, "at least one stream");
        Passthrough { bytes: 0, streams }
    }
}

impl Kernel for Passthrough {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::Passthrough
    }

    fn timing(&self) -> KernelTiming {
        KernelTiming::Streaming {
            bytes_per_cycle: 64 * self.streams,
            latency_cycles: 4,
        }
    }

    fn process_packet(&mut self, _tid: u16, data: &mut Vec<u8>) {
        self.bytes += data.len() as u64;
    }

    fn csr_read(&self, offset: u64) -> u64 {
        match offset {
            0 => self.bytes,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_is_identity() {
        let mut k = Passthrough::default();
        let mut data = vec![7u8; 4096];
        k.process_packet(0, &mut data);
        assert_eq!(data, vec![7u8; 4096]);
        assert_eq!(k.csr_read(0), 4096);
        assert_eq!(k.timing(), KernelTiming::line_rate());
    }

    #[test]
    fn line_rate_is_one_beat_per_cycle() {
        let KernelTiming::Streaming {
            bytes_per_cycle, ..
        } = KernelTiming::line_rate()
        else {
            panic!("line_rate is streaming");
        };
        // 64 B x 250 MHz = 16 GB/s, comfortably above the 12 GB/s host link.
        assert_eq!(bytes_per_cycle, 64);
    }
}
