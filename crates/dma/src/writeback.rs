//! Completion writeback (§5.1, utility channel).
//!
//! "The writeback mechanism enables efficient completion tracking by
//! updating host memory counters when data transfers finish. This reduces
//! unnecessary PCIe polling, thus freeing up bandwidth. While the XDMA core
//! natively supports writeback with host-mapped counters, we extend it to
//! all additional data services: FPGA memory and the network."
//!
//! Each registered completion source owns a 4-byte counter in host memory;
//! the engine bumps it when a transfer finishes and software polls plain
//! memory instead of PCIe registers.

use coyote_mem::HostMemory;
use std::collections::HashMap;

/// Identifies one writeback counter: `(vfpga, source)`. Sources 0/1/2 are
/// host/card/network reads, 3/4/5 the corresponding writes.
pub type WbKey = (u8, u8);

/// The table of host-mapped completion counters.
#[derive(Debug, Clone, Default)]
pub struct WritebackTable {
    counters: HashMap<WbKey, u64>,
}

impl WritebackTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a counter living at `host_addr`, zeroing it.
    pub fn register(&mut self, key: WbKey, host_addr: u64, host: &mut HostMemory) {
        self.counters.insert(key, host_addr);
        host.write(host_addr, &0u32.to_le_bytes())
            .expect("counter address valid");
    }

    /// Address of a counter.
    pub fn address(&self, key: WbKey) -> Option<u64> {
        self.counters.get(&key).copied()
    }

    /// Bump a counter in host memory (one completed transfer).
    ///
    /// Unregistered keys are ignored: services without writeback fall back
    /// to interrupt/polling completion.
    pub fn bump(&mut self, key: WbKey, host: &mut HostMemory) {
        if let Some(&addr) = self.counters.get(&key) {
            let cur = Self::read_counter_at(addr, host);
            host.write(addr, &(cur + 1).to_le_bytes())
                .expect("counter address valid");
        }
    }

    /// Poll a counter the way software does: a plain host-memory read.
    pub fn read_counter(&self, key: WbKey, host: &HostMemory) -> Option<u32> {
        self.counters
            .get(&key)
            .map(|&addr| Self::read_counter_at(addr, host))
    }

    fn read_counter_at(addr: u64, host: &HostMemory) -> u32 {
        // Stack buffer: polling a counter must not allocate.
        let mut bytes = [0u8; 4];
        host.read_into(addr, &mut bytes)
            .expect("counter address valid");
        u32::from_le_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_mem::PageSize;

    #[test]
    fn counters_increment_in_host_memory() {
        let mut host = HostMemory::new(1 << 30);
        let buf = host.alloc_buffer(4096, PageSize::Small).unwrap();
        let mut wb = WritebackTable::new();
        wb.register((0, 0), buf.start, &mut host);
        assert_eq!(wb.read_counter((0, 0), &host), Some(0));
        for _ in 0..5 {
            wb.bump((0, 0), &mut host);
        }
        assert_eq!(wb.read_counter((0, 0), &host), Some(5));
        // The raw bytes really are in host DRAM (poll without PCIe).
        let mut raw = [0u8; 4];
        host.read_into(buf.start, &mut raw).unwrap();
        assert_eq!(raw, 5u32.to_le_bytes());
    }

    #[test]
    fn unregistered_bump_is_ignored() {
        let mut host = HostMemory::new(1 << 20);
        let mut wb = WritebackTable::new();
        wb.bump((9, 9), &mut host);
        assert_eq!(wb.read_counter((9, 9), &host), None);
    }

    #[test]
    fn independent_counters_per_source() {
        let mut host = HostMemory::new(1 << 20);
        let buf = host.alloc_buffer(4096, PageSize::Small).unwrap();
        let mut wb = WritebackTable::new();
        wb.register((0, 0), buf.start, &mut host);
        wb.register((0, 3), buf.start + 64, &mut host);
        wb.bump((0, 0), &mut host);
        wb.bump((0, 0), &mut host);
        wb.bump((0, 3), &mut host);
        assert_eq!(wb.read_counter((0, 0), &host), Some(2));
        assert_eq!(wb.read_counter((0, 3), &host), Some(1));
    }
}
