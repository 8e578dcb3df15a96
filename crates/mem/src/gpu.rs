//! GPU memory as a peer-to-peer DMA target.
//!
//! §6.1: "Proof of Coyote v2's flexible and extensible MMU is an external
//! contribution to the open-source codebase, which extended the MMU to
//! include GPU memory and supports direct data movement between the FPGA
//! and a GPU." We model the GPU's device memory as a third physical memory
//! reachable through the shared-virtual-memory machinery. The platform's
//! datapath books every GPU-resident invocation packet on the P2P link
//! ([`GpuMemory::book_p2p`]); `tests/virtual_memory.rs` exercises it.

use crate::sparse::{MemAccessError, SparseBytes};
use crate::{PhysAddr, RangeAlloc};
use coyote_sim::time::Bandwidth;
use coyote_sim::{LinkModel, SimDuration, SimTime, Transfer};

/// A GPU's device memory, reachable over PCIe peer-to-peer.
#[derive(Debug)]
pub struct GpuMemory {
    store: SparseBytes,
    alloc: RangeAlloc,
    /// The P2P path over the PCIe switch; slightly slower than the
    /// host path because traffic crosses the switch twice.
    p2p_link: LinkModel,
}

impl GpuMemory {
    /// A GPU with `capacity` bytes of HBM.
    pub fn new(capacity: u64) -> GpuMemory {
        GpuMemory {
            store: SparseBytes::new(capacity),
            alloc: RangeAlloc::new(capacity),
            p2p_link: LinkModel::new(Bandwidth::gbps(10), SimDuration::from_ns(1400)),
        }
    }

    /// Device memory size.
    pub fn capacity(&self) -> u64 {
        self.store.capacity()
    }

    /// Allocate a device buffer.
    pub fn alloc_buffer(&mut self, len: u64) -> Option<PhysAddr> {
        self.alloc.alloc(len.max(1), 4096)
    }

    /// Free a device buffer.
    pub fn free_buffer(&mut self, addr: PhysAddr, len: u64) {
        self.alloc.free(addr, len.max(1));
    }

    /// Book a P2P transfer of `len` bytes.
    pub fn book_p2p(&mut self, now: SimTime, len: u64) -> Transfer {
        self.p2p_link.transmit(now, len)
    }

    /// Write device memory.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), MemAccessError> {
        self.store.write(addr, data)
    }

    /// Fill `out` with device memory at `addr`.
    pub fn read_into(&self, addr: PhysAddr, out: &mut [u8]) -> Result<(), MemAccessError> {
        self.store.read_into(addr, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_data_roundtrip() {
        let mut gpu = GpuMemory::new(8 << 30);
        let a = gpu.alloc_buffer(1 << 20).unwrap();
        gpu.write(a, b"weights").unwrap();
        let mut back = [0u8; 7];
        gpu.read_into(a, &mut back).unwrap();
        assert_eq!(&back, b"weights");
    }

    #[test]
    fn p2p_is_slower_than_host_path() {
        let mut gpu = GpuMemory::new(1 << 30);
        let t = gpu.book_p2p(SimTime::ZERO, 1 << 20);
        let host_time = coyote_sim::params::HOST_LINK_BW.time_for(1 << 20);
        assert!(t.arrival.since(SimTime::ZERO) > host_time);
    }
}
