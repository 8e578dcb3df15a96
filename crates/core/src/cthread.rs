//! The `cThread` software abstraction (§7.3).
//!
//! "We introduce Coyote v2 threads, cThreads, corresponding to software
//! threads that execute in parallel on the same vFPGA pipeline, while
//! preserving thread differentiation. ... Each cThread is associated with a
//! specific vFPGA and can be used to allocate card memory, set and read
//! control registers, trigger data movement, initiate Queue Pair (QP)
//! numbers for RDMA connections and invoke hardware kernels."

use crate::platform::{Platform, PlatformError};
use coyote_mem::PageSize;
use coyote_sim::SimTime;

/// Operations a cThread can invoke (the `Oper::` enum of Code 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oper {
    /// src -> kernel -> dst, wherever the buffers live (host or card).
    LocalTransfer,
    /// src -> kernel only (sink kernels such as HyperLogLog).
    LocalRead,
    /// Migrate the buffer under `src_addr` to card memory over the
    /// migration channel (§5.1; "transferring the weights before model
    /// serving").
    MigrateToCard,
    /// Migrate the buffer under `src_addr` back to host memory.
    MigrateToHost,
}

/// A scatter-gather entry (the `sgEntry` of Code 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgEntry {
    /// Source virtual address.
    pub src_addr: u64,
    /// Destination virtual address (ignored by `LocalRead`/migrations).
    pub dst_addr: u64,
    /// Transfer length in bytes.
    pub len: u64,
}

impl SgEntry {
    /// A local src/dst pair.
    pub fn local(src_addr: u64, dst_addr: u64, len: u64) -> SgEntry {
        SgEntry {
            src_addr,
            dst_addr,
            len,
        }
    }

    /// Source-only (for `LocalRead` and migrations).
    pub fn source(src_addr: u64, len: u64) -> SgEntry {
        SgEntry {
            src_addr,
            dst_addr: 0,
            len,
        }
    }
}

/// Completion record of one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Invocation id.
    pub invocation: u64,
    /// Issuing cThread.
    pub thread: u64,
    /// When software issued it.
    pub issued_at: SimTime,
    /// When the last byte landed.
    pub completed_at: SimTime,
    /// Bytes consumed from the source.
    pub bytes_in: u64,
    /// Bytes produced to the destination.
    pub bytes_out: u64,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency(&self) -> coyote_sim::SimDuration {
        self.completed_at.since(self.issued_at)
    }
}

/// A cThread handle. Lightweight: methods borrow the [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CThread {
    /// Thread handle id.
    pub id: u64,
    /// The vFPGA this thread executes on.
    pub vfpga: u8,
    /// Host process id.
    pub hpid: u32,
    /// Hardware thread id (rides in AXI `TID`, selects the parallel host
    /// stream).
    pub tid: u16,
}

impl CThread {
    /// `cThread<std::any> cthread(0, getpid());` — create a thread bound to
    /// a vFPGA.
    pub fn create(platform: &mut Platform, vfpga: u8, hpid: u32) -> Result<CThread, PlatformError> {
        platform.vfpga(vfpga)?;
        platform.driver_mut().open(hpid);
        let tid = platform.next_tid[vfpga as usize];
        platform.next_tid[vfpga as usize] = tid.wrapping_add(1);
        let id = platform.next_thread;
        platform.next_thread += 1;
        platform.threads.insert(id);
        Ok(CThread {
            id,
            vfpga,
            hpid,
            tid,
        })
    }

    /// `getMem({Alloc::HPF, len})`: allocate huge-page host memory mapped
    /// into this process and visible to the shell MMU.
    pub fn get_mem(&self, platform: &mut Platform, len: u64) -> Result<u64, PlatformError> {
        let m = platform
            .driver_mut()
            .alloc_host(self.hpid, len, PageSize::Huge2M)?;
        Ok(m.vaddr)
    }

    /// Allocate host memory with an explicit page size (4 KB / 2 MB / 1 GB).
    pub fn get_mem_paged(
        &self,
        platform: &mut Platform,
        len: u64,
        page: PageSize,
    ) -> Result<u64, PlatformError> {
        let m = platform.driver_mut().alloc_host(self.hpid, len, page)?;
        Ok(m.vaddr)
    }

    /// Allocate card memory (HBM/DDR) mapped into this process.
    pub fn get_card_mem(&self, platform: &mut Platform, len: u64) -> Result<u64, PlatformError> {
        let m = platform.driver_mut().alloc_card(self.hpid, len)?;
        Ok(m.vaddr)
    }

    /// Host-side write through a virtual address.
    pub fn write(
        &self,
        platform: &mut Platform,
        vaddr: u64,
        data: &[u8],
    ) -> Result<(), PlatformError> {
        platform.driver_mut().user_write(self.hpid, vaddr, data)?;
        Ok(())
    }

    /// Host-side read through a virtual address.
    pub fn read(
        &self,
        platform: &Platform,
        vaddr: u64,
        len: usize,
    ) -> Result<Vec<u8>, PlatformError> {
        Ok(platform.driver().user_read(self.hpid, vaddr, len)?)
    }

    /// `setCSR(value, idx)`: write a control register of this vFPGA. The
    /// control bus is memory-mapped into user space, so this is a plain
    /// store plus the kernel's register hook.
    pub fn set_csr(
        &self,
        platform: &mut Platform,
        value: u64,
        idx: u64,
    ) -> Result<(), PlatformError> {
        let slot = platform.vfpga_mut(self.vfpga)?;
        // Application-defined register map; write-through to the kernel.
        let _ = slot.csr.write(idx * 8, value);
        if let Some(kernel) = slot.kernel.as_mut() {
            kernel.csr_write(idx * 8, value);
        }
        Ok(())
    }

    /// `getCSR(idx)`: read a control register.
    pub fn get_csr(&self, platform: &mut Platform, idx: u64) -> Result<u64, PlatformError> {
        let slot = platform.vfpga_mut(self.vfpga)?;
        if let Some(kernel) = slot.kernel.as_ref() {
            return Ok(kernel.csr_read(idx * 8));
        }
        slot.csr
            .read(idx * 8)
            .map_err(|_| PlatformError::NoKernel(self.vfpga))
    }

    /// Queue an invocation; returns its id. Execution happens at the next
    /// [`Platform::drain`] (or [`CThread::invoke_sync`]).
    pub fn invoke(
        &self,
        platform: &mut Platform,
        oper: Oper,
        sg: &SgEntry,
    ) -> Result<u64, PlatformError> {
        crate::datapath::queue_invocation(platform, self, oper, *sg)
    }

    /// Invoke and wait: queues, drains the datapath, and returns this
    /// invocation's completion.
    pub fn invoke_sync(
        &self,
        platform: &mut Platform,
        oper: Oper,
        sg: &SgEntry,
    ) -> Result<Completion, PlatformError> {
        let id = self.invoke(platform, oper, sg)?;
        let completions = platform.drain()?;
        completions
            .into_iter()
            .find(|c| c.invocation == id)
            .ok_or(PlatformError::BadThread(self.id))
    }
}
