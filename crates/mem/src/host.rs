//! Host DRAM model.
//!
//! Holds user buffers (allocated through the driver's hugepage allocator,
//! `getMem({Alloc::HPF, ...})` in the paper's Code 1), DMA descriptor rings
//! and the writeback counters of the utility channel (§5.1).

use crate::alloc::RangeAlloc;
use crate::sparse::{MemAccessError, SparseBytes};
use crate::PhysAddr;

/// Page sizes supported by the MMU (§6.1: "support for variable page size
/// (e.g. 1GB huge pages)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// Regular 4 KB pages.
    Small,
    /// 2 MB huge pages (the `Alloc::HPF` default).
    Huge2M,
    /// 1 GB huge pages, "minimizing page faults".
    Huge1G,
}

impl PageSize {
    /// Bytes per page.
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Small => 4 << 10,
            PageSize::Huge2M => 2 << 20,
            PageSize::Huge1G => 1 << 30,
        }
    }

    /// log2 of the page size (for TLB indexing).
    pub fn shift(self) -> u32 {
        self.bytes().trailing_zeros()
    }

    /// Pages needed to cover `len` bytes.
    pub fn pages_for(self, len: u64) -> u64 {
        len.div_ceil(self.bytes())
    }
}

/// A contiguous physical allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysRange {
    /// Start address.
    pub start: PhysAddr,
    /// Length in bytes (a multiple of the page size it was allocated with).
    pub len: u64,
}

/// The host's DRAM: data plus a physical allocator.
#[derive(Debug)]
pub struct HostMemory {
    store: SparseBytes,
    alloc: RangeAlloc,
}

impl HostMemory {
    /// A host with `capacity` bytes of DRAM.
    pub fn new(capacity: u64) -> HostMemory {
        HostMemory {
            store: SparseBytes::new(capacity),
            alloc: RangeAlloc::new(capacity),
        }
    }

    /// Total DRAM.
    pub fn capacity(&self) -> u64 {
        self.store.capacity()
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.alloc.allocated()
    }

    /// Allocate a physically contiguous, page-aligned buffer of at least
    /// `len` bytes using pages of `page` size (rounded up to whole pages).
    pub fn alloc_buffer(&mut self, len: u64, page: PageSize) -> Option<PhysRange> {
        let total = page.pages_for(len) * page.bytes();
        let start = self.alloc.alloc(total, page.bytes())?;
        Some(PhysRange { start, len: total })
    }

    /// Free a buffer returned by [`HostMemory::alloc_buffer`].
    pub fn free_buffer(&mut self, range: PhysRange) {
        self.alloc.free(range.start, range.len);
    }

    /// Write bytes at a physical address.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), MemAccessError> {
        self.store.write(addr, data)
    }

    /// Fill `out` with the bytes at a physical address.
    pub fn read_into(&self, addr: PhysAddr, out: &mut [u8]) -> Result<(), MemAccessError> {
        self.store.read_into(addr, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_constants() {
        assert_eq!(PageSize::Small.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Huge1G.bytes(), 1024 * 1024 * 1024);
        assert_eq!(PageSize::Small.shift(), 12);
        assert_eq!(PageSize::Huge2M.shift(), 21);
        assert_eq!(PageSize::Huge1G.shift(), 30);
        assert_eq!(PageSize::Huge2M.pages_for(1), 1);
        assert_eq!(PageSize::Huge2M.pages_for(2 << 20), 1);
        assert_eq!(PageSize::Huge2M.pages_for((2 << 20) + 1), 2);
    }

    #[test]
    fn buffers_are_page_aligned_and_rounded() {
        let mut host = HostMemory::new(8 << 30);
        let buf = host.alloc_buffer(4096, PageSize::Huge2M).unwrap();
        assert_eq!(buf.start % PageSize::Huge2M.bytes(), 0);
        assert_eq!(buf.len, PageSize::Huge2M.bytes());
        let big = host.alloc_buffer(3 << 30, PageSize::Huge1G).unwrap();
        assert_eq!(big.len, 3 << 30);
        assert_eq!(big.start % (1 << 30), 0);
    }

    #[test]
    fn data_roundtrip() {
        let mut host = HostMemory::new(1 << 30);
        let buf = host.alloc_buffer(4096, PageSize::Small).unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i * 7 % 256) as u8).collect();
        host.write(buf.start, &data).unwrap();
        let mut back = vec![0u8; 4096];
        host.read_into(buf.start, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn free_allows_reuse() {
        let mut host = HostMemory::new(4 << 20);
        let a = host.alloc_buffer(2 << 20, PageSize::Huge2M).unwrap();
        let b = host.alloc_buffer(2 << 20, PageSize::Huge2M).unwrap();
        assert!(host.alloc_buffer(1, PageSize::Huge2M).is_none(), "full");
        host.free_buffer(a);
        host.free_buffer(b);
        assert_eq!(host.allocated(), 0);
        assert!(host.alloc_buffer(4 << 20, PageSize::Huge2M).is_some());
    }
}
