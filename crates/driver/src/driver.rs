//! The driver object: per-process state, memory management, fault service.

use crate::irq::{EventFd, IrqEvent};
use crate::ring::{CompletionRing, Doorbell};
use coyote_fabric::config::{ConfigPort, ConfigPortKind, ConfigState};
use coyote_fabric::DeviceKind;
use coyote_mem::card::CardMemKind;
use coyote_mem::{CardMemory, GpuMemory, HostMemory, PageSize};
use coyote_mmu::{AddressSpace, Fault, Mapping, MemLocation};
use coyote_sim::{params, LinkModel, SimTime};
use std::collections::HashMap;

/// Host process id — the key the real driver uses to separate tenants.
pub type Hpid = u32;

/// Driver-level errors (the negative errnos of the real module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// Unknown process (no prior `open`).
    NoSuchProcess(Hpid),
    /// Out of physical memory.
    NoMemory,
    /// Address not mapped / bad argument.
    BadAddress(u64),
    /// The shell was built without card memory (migration channel tied
    /// off, §5.1).
    NoCardMemory,
    /// No GPU present.
    NoGpu,
    /// Unresolvable fault.
    Fault(Fault),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NoSuchProcess(h) => write!(f, "no such process {h}"),
            DriverError::NoMemory => write!(f, "out of memory"),
            DriverError::BadAddress(a) => write!(f, "bad address {a:#x}"),
            DriverError::NoCardMemory => write!(f, "shell built without card memory"),
            DriverError::NoGpu => write!(f, "no GPU attached"),
            DriverError::Fault(fault) => write!(f, "unresolved fault: {fault}"),
        }
    }
}

impl std::error::Error for DriverError {}

struct ProcessCtx {
    space: AddressSpace,
    eventfd: EventFd,
    /// Physical allocations to release on close: (loc, paddr, len).
    owned: Vec<(MemLocation, u64, u64)>,
}

/// The simulated kernel module.
pub struct CoyoteDriver {
    device: DeviceKind,
    host: HostMemory,
    card: Option<CardMemory>,
    gpu: Option<GpuMemory>,
    processes: HashMap<Hpid, ProcessCtx>,
    config_state: ConfigState,
    icap: ConfigPort,
    /// The migration channel of §5.1 (host <-> card bulk transfers).
    migration_link: LinkModel,
    migrations: u64,
    /// Reconfiguration submission doorbell (batched control plane).
    pub(crate) doorbell: Doorbell,
    /// Completion writeback ring for batched reconfiguration.
    pub(crate) ring: CompletionRing,
}

impl CoyoteDriver {
    /// Probe a device with card memory attached.
    pub fn new(device: DeviceKind) -> CoyoteDriver {
        let card_kind = match device {
            DeviceKind::U250 => CardMemKind::Ddr,
            _ => CardMemKind::Hbm,
        };
        CoyoteDriver {
            device,
            host: HostMemory::new(64 << 30),
            card: Some(CardMemory::new(card_kind)),
            gpu: None,
            processes: HashMap::new(),
            config_state: ConfigState::new(device),
            icap: ConfigPort::new(ConfigPortKind::CoyoteIcap),
            migration_link: LinkModel::new(params::HOST_LINK_BW, params::PCIE_LATENCY),
            migrations: 0,
            doorbell: Doorbell::default(),
            ring: CompletionRing::default(),
        }
    }

    /// Probe without card memory (host-only shells; the migration channel
    /// is tied off).
    pub fn without_card_memory(device: DeviceKind) -> CoyoteDriver {
        let mut d = Self::new(device);
        d.card = None;
        d
    }

    /// Attach a GPU (the P2P extension of §6.1).
    pub fn attach_gpu(&mut self, gpu: GpuMemory) {
        self.gpu = Some(gpu);
    }

    /// Device kind.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// Host memory (the simulated DRAM the user buffers live in).
    pub fn host(&self) -> &HostMemory {
        &self.host
    }

    /// Mutable host memory.
    pub fn host_mut(&mut self) -> &mut HostMemory {
        &mut self.host
    }

    /// Card memory, if the shell has it.
    pub fn card(&self) -> Option<&CardMemory> {
        self.card.as_ref()
    }

    /// Mutable card memory.
    pub fn card_mut(&mut self) -> Option<&mut CardMemory> {
        self.card.as_mut()
    }

    /// Replace card memory (shell reconfiguration changing the memory
    /// service, e.g. a different channel count).
    pub fn set_card(&mut self, card: Option<CardMemory>) {
        self.card = card;
    }

    /// GPU memory, if attached.
    pub fn gpu(&self) -> Option<&GpuMemory> {
        self.gpu.as_ref()
    }

    /// Mutable GPU memory.
    pub fn gpu_mut(&mut self) -> Option<&mut GpuMemory> {
        self.gpu.as_mut()
    }

    /// Configuration state (what is loaded where).
    pub fn config_state(&self) -> &ConfigState {
        &self.config_state
    }

    /// Split borrows needed by the reconfiguration flow.
    pub(crate) fn icap_and_state(&mut self) -> (&mut ConfigPort, &mut ConfigState) {
        (&mut self.icap, &mut self.config_state)
    }

    /// Attach a chaos injector to the ICAP port (bitstream flips, transient
    /// rejections); consulted once per programming attempt.
    pub fn attach_icap_chaos(&mut self, injector: coyote_chaos::Injector) {
        self.icap.attach_chaos(injector);
    }

    /// The ICAP port's chaos injector (its trace records every injected
    /// fault and every recovery), if attached.
    pub fn icap_chaos(&self) -> Option<&coyote_chaos::Injector> {
        self.icap.chaos()
    }

    /// Completed host<->card migrations.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The reconfiguration completion ring (its peak occupancy).
    pub fn completion_ring(&self) -> &CompletionRing {
        &self.ring
    }

    // ---------------------------------------------------------------
    // open / close
    // ---------------------------------------------------------------

    /// `open("/dev/coyote")`: register a process.
    pub fn open(&mut self, hpid: Hpid) {
        self.processes.entry(hpid).or_insert_with(|| ProcessCtx {
            space: AddressSpace::new(),
            eventfd: EventFd::new(),
            owned: Vec::new(),
        });
    }

    /// `close`: tear down every mapping and allocation of the process.
    pub fn close(&mut self, hpid: Hpid) -> Result<(), DriverError> {
        let ctx = self
            .processes
            .remove(&hpid)
            .ok_or(DriverError::NoSuchProcess(hpid))?;
        for (loc, paddr, len) in ctx.owned {
            match loc {
                MemLocation::Host => self
                    .host
                    .free_buffer(coyote_mem::host::PhysRange { start: paddr, len }),
                MemLocation::Card => {
                    if let Some(card) = &mut self.card {
                        card.free_buffer(paddr, len);
                    }
                }
                MemLocation::Gpu => {
                    if let Some(gpu) = &mut self.gpu {
                        gpu.free_buffer(paddr, len);
                    }
                }
            }
        }
        Ok(())
    }

    /// True if the process is registered.
    pub fn is_open(&self, hpid: Hpid) -> bool {
        self.processes.contains_key(&hpid)
    }

    fn ctx(&mut self, hpid: Hpid) -> Result<&mut ProcessCtx, DriverError> {
        self.processes
            .get_mut(&hpid)
            .ok_or(DriverError::NoSuchProcess(hpid))
    }

    /// The page table of a process (read-only; used by the shell MMU's
    /// miss path).
    pub fn address_space(&self, hpid: Hpid) -> Option<&AddressSpace> {
        self.processes.get(&hpid).map(|c| &c.space)
    }

    /// The eventfd of a process.
    pub fn eventfd_mut(&mut self, hpid: Hpid) -> Option<&mut EventFd> {
        self.processes.get_mut(&hpid).map(|c| &mut c.eventfd)
    }

    /// Deliver an interrupt event to a process (§7.1 interrupt channel).
    pub fn notify(&mut self, hpid: Hpid, event: IrqEvent) {
        if let Some(ctx) = self.processes.get_mut(&hpid) {
            ctx.eventfd.signal(event);
        }
    }

    // ---------------------------------------------------------------
    // Memory management (getMem / mmap)
    // ---------------------------------------------------------------

    /// Allocate a host buffer and map it into the process — the driver side
    /// of `getMem({Alloc::HPF, len})` in Code 1. The mapping is also what
    /// the paper means by "getMem adds src and dst to the TLB": the entry
    /// becomes visible to the shell MMU's miss handler immediately.
    pub fn alloc_host(
        &mut self,
        hpid: Hpid,
        len: u64,
        page: PageSize,
    ) -> Result<Mapping, DriverError> {
        if !self.processes.contains_key(&hpid) {
            return Err(DriverError::NoSuchProcess(hpid));
        }
        let range = self
            .host
            .alloc_buffer(len, page)
            .ok_or(DriverError::NoMemory)?;
        let ctx = self.processes.get_mut(&hpid).expect("checked above");
        let mapping = ctx
            .space
            .map_fresh(len, page, MemLocation::Host, range.start, true);
        ctx.owned.push((MemLocation::Host, range.start, range.len));
        Ok(mapping)
    }

    /// Allocate a card buffer mapped into the process's virtual space.
    pub fn alloc_card(&mut self, hpid: Hpid, len: u64) -> Result<Mapping, DriverError> {
        if !self.processes.contains_key(&hpid) {
            return Err(DriverError::NoSuchProcess(hpid));
        }
        let card = self.card.as_mut().ok_or(DriverError::NoCardMemory)?;
        // The mapping is page-granular; allocate the rounded size so frees
        // (teardown, migration) release exactly what was taken.
        let total = PageSize::Huge2M.pages_for(len) * PageSize::Huge2M.bytes();
        let paddr = card.alloc_buffer(total).ok_or(DriverError::NoMemory)?;
        let ctx = self.processes.get_mut(&hpid).expect("checked above");
        let mapping = ctx
            .space
            .map_fresh(len, PageSize::Huge2M, MemLocation::Card, paddr, true);
        debug_assert_eq!(mapping.len, total);
        ctx.owned.push((MemLocation::Card, paddr, total));
        Ok(mapping)
    }

    /// Allocate a GPU buffer mapped into the process's virtual space (the
    /// shared-virtual-memory extension point).
    pub fn alloc_gpu(&mut self, hpid: Hpid, len: u64) -> Result<Mapping, DriverError> {
        if !self.processes.contains_key(&hpid) {
            return Err(DriverError::NoSuchProcess(hpid));
        }
        let gpu = self.gpu.as_mut().ok_or(DriverError::NoGpu)?;
        let total = PageSize::Small.pages_for(len) * PageSize::Small.bytes();
        let paddr = gpu.alloc_buffer(total).ok_or(DriverError::NoMemory)?;
        let ctx = self.processes.get_mut(&hpid).expect("checked above");
        let mapping = ctx
            .space
            .map_fresh(len, PageSize::Small, MemLocation::Gpu, paddr, true);
        debug_assert_eq!(mapping.len, total);
        ctx.owned.push((MemLocation::Gpu, paddr, total));
        Ok(mapping)
    }

    /// User-space write through a virtual address (what the host program
    /// does with the pointer `getMem` returned).
    pub fn user_write(&mut self, hpid: Hpid, vaddr: u64, data: &[u8]) -> Result<(), DriverError> {
        let t = self.translate(hpid, vaddr, true)?;
        self.phys_write(t.loc, t.paddr, data)
    }

    /// User-space read through a virtual address.
    pub fn user_read(&self, hpid: Hpid, vaddr: u64, len: usize) -> Result<Vec<u8>, DriverError> {
        let ctx = self
            .processes
            .get(&hpid)
            .ok_or(DriverError::NoSuchProcess(hpid))?;
        let t = ctx
            .space
            .translate(vaddr, false, None)
            .map_err(DriverError::Fault)?;
        let mut out = vec![0u8; len];
        self.phys_read(t.loc, t.paddr, &mut out)?;
        Ok(out)
    }

    fn translate(
        &mut self,
        hpid: Hpid,
        vaddr: u64,
        write: bool,
    ) -> Result<coyote_mmu::Translation, DriverError> {
        let ctx = self.ctx(hpid)?;
        ctx.space
            .translate(vaddr, write, None)
            .map_err(DriverError::Fault)
    }

    /// Raw physical write to one of the memories.
    pub fn phys_write(
        &mut self,
        loc: MemLocation,
        paddr: u64,
        data: &[u8],
    ) -> Result<(), DriverError> {
        match loc {
            MemLocation::Host => self
                .host
                .write(paddr, data)
                .map_err(|_| DriverError::BadAddress(paddr)),
            MemLocation::Card => self
                .card
                .as_mut()
                .ok_or(DriverError::NoCardMemory)?
                .write(paddr, data)
                .map_err(|_| DriverError::BadAddress(paddr)),
            MemLocation::Gpu => self
                .gpu
                .as_mut()
                .ok_or(DriverError::NoGpu)?
                .write(paddr, data)
                .map_err(|_| DriverError::BadAddress(paddr)),
        }
    }

    /// Raw physical read from one of the memories: fills `out` with the
    /// bytes at `paddr`.
    pub fn phys_read(
        &self,
        loc: MemLocation,
        paddr: u64,
        out: &mut [u8],
    ) -> Result<(), DriverError> {
        match loc {
            MemLocation::Host => self.host.read_into(paddr, out),
            MemLocation::Card => self
                .card
                .as_ref()
                .ok_or(DriverError::NoCardMemory)?
                .read_into(paddr, out),
            MemLocation::Gpu => self
                .gpu
                .as_ref()
                .ok_or(DriverError::NoGpu)?
                .read_into(paddr, out),
        }
        .map_err(|_| DriverError::BadAddress(paddr))
    }

    /// Check that `[paddr, paddr + len)` lies inside one of the memories,
    /// without touching a byte.
    pub fn phys_check(&self, loc: MemLocation, paddr: u64, len: u64) -> Result<(), DriverError> {
        let capacity = match loc {
            MemLocation::Host => self.host.capacity(),
            MemLocation::Card => self
                .card
                .as_ref()
                .ok_or(DriverError::NoCardMemory)?
                .capacity(),
            MemLocation::Gpu => self.gpu.as_ref().ok_or(DriverError::NoGpu)?.capacity(),
        };
        match paddr.checked_add(len) {
            Some(end) if end <= capacity => Ok(()),
            _ => Err(DriverError::BadAddress(paddr)),
        }
    }

    // ---------------------------------------------------------------
    // Page-fault service (§6.1: fault -> migration, GPU-style)
    // ---------------------------------------------------------------

    /// Service a wrong-location fault by migrating the whole mapping to
    /// `wanted`, GPU-style. Returns the new mapping and the simulated time
    /// at which the migration completes (fault handling latency + bulk
    /// transfer over the migration channel).
    pub fn service_fault(
        &mut self,
        now: SimTime,
        hpid: Hpid,
        vaddr: u64,
        wanted: MemLocation,
    ) -> Result<(Mapping, SimTime), DriverError> {
        let ctx = self
            .processes
            .get(&hpid)
            .ok_or(DriverError::NoSuchProcess(hpid))?;
        let mapping = *ctx
            .space
            .find(vaddr)
            .ok_or(DriverError::BadAddress(vaddr))?;
        if mapping.loc == wanted {
            // Raced with another fault; nothing to do.
            return Ok((mapping, now));
        }
        // Allocate the destination.
        let dst_paddr = match wanted {
            MemLocation::Host => {
                self.host
                    .alloc_buffer(mapping.len, mapping.page)
                    .ok_or(DriverError::NoMemory)?
                    .start
            }
            MemLocation::Card => self
                .card
                .as_mut()
                .ok_or(DriverError::NoCardMemory)?
                .alloc_buffer(mapping.len)
                .ok_or(DriverError::NoMemory)?,
            MemLocation::Gpu => self
                .gpu
                .as_mut()
                .ok_or(DriverError::NoGpu)?
                .alloc_buffer(mapping.len)
                .ok_or(DriverError::NoMemory)?,
        };
        // Move the bytes.
        let mut data = vec![0u8; mapping.len as usize];
        self.phys_read(mapping.loc, mapping.paddr, &mut data)?;
        self.phys_write(wanted, dst_paddr, &data)?;
        // Timing: fixed fault cost + bulk transfer on the migration channel.
        let xfer = self
            .migration_link
            .transmit(now + params::PAGE_FAULT_LATENCY, mapping.len);
        // Release the old physical range and retarget the mapping.
        self.release_phys(mapping.loc, mapping.paddr, mapping.len);
        let ctx = self.processes.get_mut(&hpid).expect("checked above");
        ctx.space.migrate(vaddr, wanted, dst_paddr);
        for owned in &mut ctx.owned {
            if owned.0 == mapping.loc && owned.1 == mapping.paddr {
                *owned = (wanted, dst_paddr, mapping.len);
            }
        }
        let new_mapping = *ctx.space.find(vaddr).expect("mapping persists");
        self.migrations += 1;
        Ok((new_mapping, xfer.arrival))
    }

    fn release_phys(&mut self, loc: MemLocation, paddr: u64, len: u64) {
        match loc {
            MemLocation::Host => self
                .host
                .free_buffer(coyote_mem::host::PhysRange { start: paddr, len }),
            MemLocation::Card => {
                if let Some(card) = &mut self.card {
                    card.free_buffer(paddr, len);
                }
            }
            MemLocation::Gpu => {
                if let Some(gpu) = &mut self.gpu {
                    gpu.free_buffer(paddr, len);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_alloc_write_read_roundtrip() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        d.open(42);
        let m = d.alloc_host(42, 4096, PageSize::Huge2M).unwrap();
        let data = vec![0x5A; 4096];
        d.user_write(42, m.vaddr, &data).unwrap();
        assert_eq!(d.user_read(42, m.vaddr, 4096).unwrap(), data);
    }

    #[test]
    fn unknown_process_rejected() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        assert_eq!(
            d.alloc_host(9, 4096, PageSize::Small).unwrap_err(),
            DriverError::NoSuchProcess(9)
        );
    }

    #[test]
    fn close_releases_physical_memory() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        d.open(1);
        let before = d.host().allocated();
        d.alloc_host(1, 1 << 20, PageSize::Huge2M).unwrap();
        assert!(d.host().allocated() > before);
        d.close(1).unwrap();
        assert_eq!(d.host().allocated(), before);
        assert!(!d.is_open(1));
    }

    #[test]
    fn card_alloc_requires_memory_shell() {
        let mut d = CoyoteDriver::without_card_memory(DeviceKind::U55C);
        d.open(1);
        assert_eq!(
            d.alloc_card(1, 4096).unwrap_err(),
            DriverError::NoCardMemory
        );
    }

    #[test]
    fn fault_migrates_host_to_card_with_data() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        d.open(1);
        let m = d.alloc_host(1, 1 << 20, PageSize::Huge2M).unwrap();
        let data: Vec<u8> = (0..(1 << 20)).map(|i| (i % 249) as u8).collect();
        d.user_write(1, m.vaddr, &data).unwrap();

        let (new_m, done) = d
            .service_fault(SimTime::ZERO, 1, m.vaddr, MemLocation::Card)
            .unwrap();
        assert_eq!(new_m.loc, MemLocation::Card);
        assert!(done > SimTime::ZERO + params::PAGE_FAULT_LATENCY);
        // Data followed the migration; virtual address is unchanged.
        assert_eq!(d.user_read(1, m.vaddr, 1 << 20).unwrap(), data);
        assert_eq!(d.migrations(), 1);
        // Old host range was released.
        let ctx_alloc = d.host().allocated();
        assert!(
            ctx_alloc < (1 << 20) + (2 << 20),
            "host side freed, got {ctx_alloc}"
        );
    }

    #[test]
    fn fault_to_same_location_is_noop() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        d.open(1);
        let m = d.alloc_host(1, 4096, PageSize::Small).unwrap();
        let (_, done) = d
            .service_fault(SimTime::ZERO, 1, m.vaddr, MemLocation::Host)
            .unwrap();
        assert_eq!(done, SimTime::ZERO);
        assert_eq!(d.migrations(), 0);
    }

    #[test]
    fn gpu_migration_path() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        d.attach_gpu(GpuMemory::new(4 << 30));
        d.open(1);
        let m = d.alloc_host(1, 8192, PageSize::Small).unwrap();
        d.user_write(1, m.vaddr, b"to the gpu").unwrap();
        let (new_m, _) = d
            .service_fault(SimTime::ZERO, 1, m.vaddr, MemLocation::Gpu)
            .unwrap();
        assert_eq!(new_m.loc, MemLocation::Gpu);
        assert_eq!(d.user_read(1, m.vaddr, 10).unwrap(), b"to the gpu");
        // The bytes physically live in GPU memory.
        let mut raw = [0u8; 10];
        d.gpu().unwrap().read_into(new_m.paddr, &mut raw).unwrap();
        assert_eq!(&raw, b"to the gpu");
    }

    #[test]
    fn interrupts_reach_the_process_eventfd() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        d.open(1);
        d.notify(
            1,
            IrqEvent::User {
                vfpga: 0,
                value: 0xCAFE,
            },
        );
        let ev = d.eventfd_mut(1).unwrap().poll().unwrap();
        assert_eq!(
            ev,
            IrqEvent::User {
                vfpga: 0,
                value: 0xCAFE
            }
        );
    }

    #[test]
    fn per_process_isolation_of_address_spaces() {
        let mut d = CoyoteDriver::new(DeviceKind::U55C);
        d.open(1);
        d.open(2);
        let m1 = d.alloc_host(1, 4096, PageSize::Small).unwrap();
        // Process 2 cannot read through process 1's mapping.
        assert!(matches!(
            d.user_read(2, m1.vaddr, 4),
            Err(DriverError::Fault(_))
        ));
    }
}
