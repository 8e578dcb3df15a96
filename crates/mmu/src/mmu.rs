//! The per-vFPGA MMU: hybrid TLB + driver fallback, plus the shared
//! virtualization pipeline.
//!
//! "Coyote v2's MMU is implemented in a hybrid manner: TLBs are implemented
//! in on-chip SRAM, enabling fast look-ups, while the rest of the MMU is
//! implemented in the host-side driver; that is, when a TLB miss is
//! detected; the system falls back to the driver to obtain the physical
//! address." (§6.1)
//!
//! Coyote v2 keeps two TLBs per vFPGA — one for small pages, one for huge
//! pages — mirroring the sTLB/lTLB pair of the real shell. [`VirtServer`]
//! models the *shared* translation/crossbar pipeline every card-memory
//! request passes through; its fixed per-request occupancy is the
//! "memory virtualization overhead" that caps aggregate HBM throughput in
//! Fig. 7(a).

use crate::space::{AddressSpace, Fault, MemLocation, Translation};
use crate::tlb::{Tlb, TlbConfig};
use coyote_sim::{params, SimDuration, SimTime};

/// MMU geometry: the two TLBs.
#[derive(Debug, Clone, Copy)]
pub struct MmuConfig {
    /// Small-page TLB geometry.
    pub stlb: TlbConfig,
    /// Huge-page TLB geometry.
    pub ltlb: TlbConfig,
}

impl MmuConfig {
    /// The default configuration: 4 KB sTLB + 2 MB lTLB.
    pub fn default_2m() -> MmuConfig {
        MmuConfig {
            stlb: TlbConfig::small_default(),
            ltlb: TlbConfig::huge_default(),
        }
    }

    /// The 1 GB huge-page configuration of §9.3 scenario #1.
    pub fn huge_1g() -> MmuConfig {
        MmuConfig {
            stlb: TlbConfig::small_default(),
            ltlb: TlbConfig::huge_1g(),
        }
    }

    /// SRAM cost of both TLBs (feeds the resource model).
    pub fn sram_bits(&self) -> u64 {
        self.stlb.sram_bits().saturating_add(self.ltlb.sram_bits())
    }
}

/// Result of a translation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateOutcome {
    /// TLB hit.
    Hit {
        /// The translation.
        translation: Translation,
        /// SRAM lookup latency.
        latency: SimDuration,
    },
    /// TLB miss serviced by the driver; the TLB now holds the entry.
    MissFilled {
        /// The translation.
        translation: Translation,
        /// Miss-handling latency (driver round trip).
        latency: SimDuration,
    },
    /// Unresolvable without driver intervention (migration or error).
    Faulted(Fault),
}

impl TranslateOutcome {
    /// The translation, if the access can proceed.
    pub fn translation(&self) -> Option<Translation> {
        match self {
            TranslateOutcome::Hit { translation, .. }
            | TranslateOutcome::MissFilled { translation, .. } => Some(*translation),
            TranslateOutcome::Faulted(_) => None,
        }
    }

    /// Latency charged to the access (zero for faults; the fault path is
    /// accounted separately by the driver).
    pub fn latency(&self) -> SimDuration {
        match self {
            TranslateOutcome::Hit { latency, .. }
            | TranslateOutcome::MissFilled { latency, .. } => *latency,
            TranslateOutcome::Faulted(_) => SimDuration::ZERO,
        }
    }
}

/// Deferred TLB maintenance collected over one reconfiguration epoch.
///
/// Page unmaps and process teardowns queue here instead of issuing a TLB
/// invalidation each; [`Mmu::apply_epoch`] coalesces the queue (duplicates
/// folded, page invalidations subsumed by a whole-process one) and applies
/// it with a *single* shootdown at epoch close. Ordering contract: an epoch
/// must be applied before any translation that could observe the stale
/// entries — the datapath closes it at the end of its migration phase,
/// before data transfers translate.
#[derive(Debug, Clone, Default)]
pub struct TlbEpoch {
    pages: Vec<(u32, u64)>,
    procs: Vec<u32>,
}

impl TlbEpoch {
    /// An empty epoch.
    pub fn new() -> TlbEpoch {
        TlbEpoch::default()
    }

    /// Queue a single-page invalidation (post-migration unmap).
    pub fn invalidate_page(&mut self, hpid: u32, vaddr: u64) {
        self.pages.push((hpid, vaddr));
    }

    /// Queue a whole-process invalidation (teardown, vFPGA reset).
    pub fn invalidate_process(&mut self, hpid: u32) {
        self.procs.push(hpid);
    }

    /// Nothing queued.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty() && self.procs.is_empty()
    }

    /// Invalidation requests queued (before coalescing).
    pub fn pending(&self) -> usize {
        self.pages.len() + self.procs.len()
    }
}

/// What [`Mmu::apply_epoch`] actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// Distinct page invalidations applied.
    pub pages_invalidated: u64,
    /// Distinct process invalidations applied.
    pub procs_invalidated: u64,
    /// Queued requests folded away (duplicates and pages subsumed by a
    /// whole-process invalidation) — per-op traffic the batch saved.
    pub coalesced: u64,
    /// True if a shootdown was issued (the epoch was non-empty).
    pub shootdown: bool,
}

/// The per-vFPGA MMU.
#[derive(Debug, Clone)]
pub struct Mmu {
    config: MmuConfig,
    stlb: Tlb,
    ltlb: Tlb,
    faults: u64,
    epoch_shootdowns: u64,
}

impl Mmu {
    /// Build an MMU.
    pub fn new(config: MmuConfig) -> Mmu {
        Mmu {
            config,
            stlb: Tlb::new(config.stlb),
            ltlb: Tlb::new(config.ltlb),
            faults: 0,
            epoch_shootdowns: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> &MmuConfig {
        &self.config
    }

    /// The small-page TLB (stats access).
    pub fn stlb(&self) -> &Tlb {
        &self.stlb
    }

    /// The huge-page TLB (stats access).
    pub fn ltlb(&self) -> &Tlb {
        &self.ltlb
    }

    /// Page faults raised so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Translate an access for process `hpid`.
    ///
    /// Checks both TLBs; on a miss, falls back to the driver-side
    /// `space` and installs the entry in the TLB whose page size matches
    /// the mapping (accesses to mappings whose page size matches neither
    /// TLB pay the driver round trip every time).
    pub fn translate(
        &mut self,
        hpid: u32,
        vaddr: u64,
        write: bool,
        wanted: Option<MemLocation>,
        space: &AddressSpace,
    ) -> TranslateOutcome {
        // SRAM lookup: both TLBs probed in parallel in hardware. Each TLB
        // stores page-base translations; resolve the in-page offset with
        // the hitting TLB's own page size.
        let hit = self
            .ltlb
            .lookup(hpid, vaddr)
            .map(|b| Self::resolve(b, vaddr, self.config.ltlb.page.bytes()))
            .or_else(|| {
                self.stlb
                    .lookup(hpid, vaddr)
                    .map(|b| Self::resolve(b, vaddr, self.config.stlb.page.bytes()))
            });
        if let Some(base) = hit {
            // The TLB caches page-granular info; re-derive the in-page
            // offset and validate permissions against the cached entry.
            if write && !base.writable {
                self.faults += 1;
                return TranslateOutcome::Faulted(Fault::Protection { vaddr });
            }
            if let Some(w) = wanted {
                if w != base.loc {
                    // Stale location (page migrated since cached) or a
                    // genuine wrong-location access; either way the driver
                    // must intervene.
                    self.faults += 1;
                    return TranslateOutcome::Faulted(Fault::WrongLocation {
                        vaddr,
                        current: base.loc,
                        wanted: w,
                    });
                }
            }
            return TranslateOutcome::Hit {
                translation: base,
                latency: params::TLB_HIT_LATENCY,
            };
        }
        // Driver fallback.
        match space.translate(vaddr, write, wanted) {
            Ok(t) => {
                self.install(hpid, vaddr, space, t);
                TranslateOutcome::MissFilled {
                    translation: t,
                    latency: params::TLB_MISS_LATENCY,
                }
            }
            Err(fault) => {
                self.faults += 1;
                TranslateOutcome::Faulted(fault)
            }
        }
    }

    /// Install the page-base translation for `vaddr` into the matching TLB.
    fn install(&mut self, hpid: u32, vaddr: u64, space: &AddressSpace, t: Translation) {
        let Some(m) = space.find(vaddr) else { return };
        let page = m.page;
        let tlb = if page == self.config.stlb.page {
            &mut self.stlb
        } else if page == self.config.ltlb.page {
            &mut self.ltlb
        } else {
            return; // No TLB at this granularity; uncached slow path.
        };
        // Cache the page-base translation so any offset within the page
        // hits: stored paddr = exact paddr minus the in-page offset.
        let page_base = vaddr & !(page.bytes() - 1);
        let base = Translation {
            paddr: t.paddr - (vaddr - page_base),
            ..t
        };
        tlb.insert(hpid, page_base, base);
    }

    /// Resolve a TLB hit's page-base translation to the exact address.
    pub fn resolve(base: Translation, vaddr: u64, page_bytes: u64) -> Translation {
        let off = vaddr & (page_bytes - 1);
        Translation {
            paddr: base.paddr + off,
            ..base
        }
    }

    /// Invalidate all entries of a process (teardown / migration storm).
    pub fn invalidate_process(&mut self, hpid: u32) {
        self.stlb.invalidate_process(hpid);
        self.ltlb.invalidate_process(hpid);
    }

    /// Invalidate one page (after migration).
    pub fn invalidate_page(&mut self, hpid: u32, vaddr: u64) {
        self.stlb.invalidate_page(hpid, vaddr);
        self.ltlb.invalidate_page(hpid, vaddr);
    }

    /// Apply a deferred-maintenance epoch: coalesce the queued requests and
    /// execute them under a single shootdown.
    ///
    /// Coalescing is deterministic (sort + dedup, no hash iteration): a
    /// page queued twice invalidates once, and pages of a process that is
    /// being invalidated wholesale are subsumed entirely.
    pub fn apply_epoch(&mut self, epoch: TlbEpoch) -> EpochReport {
        if epoch.is_empty() {
            return EpochReport::default();
        }
        let queued = epoch.pending() as u64;
        let mut procs = epoch.procs;
        procs.sort_unstable();
        procs.dedup();
        let mut pages = epoch.pages;
        pages.sort_unstable();
        pages.dedup();
        pages.retain(|(hpid, _)| procs.binary_search(hpid).is_err());
        for hpid in &procs {
            self.invalidate_process(*hpid);
        }
        for (hpid, vaddr) in &pages {
            self.invalidate_page(*hpid, *vaddr);
        }
        self.epoch_shootdowns += 1;
        EpochReport {
            pages_invalidated: pages.len() as u64,
            procs_invalidated: procs.len() as u64,
            coalesced: queued - pages.len() as u64 - procs.len() as u64,
            shootdown: true,
        }
    }

    /// Epoch-close shootdowns issued so far (one per non-empty
    /// [`Mmu::apply_epoch`], however many invalidations it carried).
    pub fn epoch_shootdowns(&self) -> u64 {
        self.epoch_shootdowns
    }
}

/// The shared memory-virtualization pipeline (translation slot + crossbar
/// arbitration) that every card-memory request occupies for a fixed service
/// time, regardless of which channel serves the data.
///
/// With a 30 ns service per 4 KB request the aggregate ceiling is
/// ~136 GB/s — the taper of Fig. 7(a).
#[derive(Debug, Clone)]
pub struct VirtServer {
    service: SimDuration,
    busy_until: SimTime,
    served: u64,
}

impl VirtServer {
    /// A server with the calibrated default service time.
    pub fn new() -> VirtServer {
        Self::with_service(params::MMU_SERVICE_TIME)
    }

    /// A server with an explicit per-request service time.
    pub fn with_service(service: SimDuration) -> VirtServer {
        VirtServer {
            service,
            busy_until: SimTime::ZERO,
            served: 0,
        }
    }

    /// Admit one request at or after `now`; returns the instant the request
    /// clears the shared pipeline.
    pub fn admit(&mut self, now: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        self.busy_until = start + self.service;
        self.served += 1;
        self.busy_until
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl Default for VirtServer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_mem::PageSize;

    fn space_with(page: PageSize, loc: MemLocation) -> (AddressSpace, u64) {
        let mut s = AddressSpace::new();
        let m = s.map_fresh(page.bytes(), page, loc, 0x100_0000, true);
        (s, m.vaddr)
    }

    #[test]
    fn miss_then_hit() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let (space, va) = space_with(PageSize::Small, MemLocation::Host);
        let first = mmu.translate(1, va + 100, false, None, &space);
        assert!(matches!(first, TranslateOutcome::MissFilled { .. }));
        assert_eq!(first.translation().unwrap().paddr, 0x100_0000 + 100);
        assert_eq!(first.latency(), params::TLB_MISS_LATENCY);

        let second = mmu.translate(1, va + 200, false, None, &space);
        assert!(
            matches!(second, TranslateOutcome::Hit { .. }),
            "same page now hits"
        );
        assert_eq!(second.latency(), params::TLB_HIT_LATENCY);
    }

    #[test]
    fn hit_resolves_exact_offset() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let (space, va) = space_with(PageSize::Huge2M, MemLocation::Card);
        mmu.translate(1, va, false, None, &space);
        let hit = mmu.translate(1, va + 4096, false, None, &space);
        assert!(matches!(hit, TranslateOutcome::Hit { .. }));
        assert_eq!(hit.translation().unwrap().paddr, 0x100_0000 + 4096);
    }

    #[test]
    fn huge_pages_fill_the_ltlb() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let (space, va) = space_with(PageSize::Huge2M, MemLocation::Card);
        mmu.translate(1, va, false, None, &space);
        assert_eq!(mmu.ltlb().occupancy(), 1);
        assert_eq!(mmu.stlb().occupancy(), 0);
    }

    #[test]
    fn gigabyte_pages_minimize_misses() {
        // §6.1: 1 GB pages "minimizing page faults". Walk 1 GB of address
        // space in 2 MB strides: with 1 GB pages there is exactly one miss.
        let mut mmu = Mmu::new(MmuConfig::huge_1g());
        let mut space = AddressSpace::new();
        let m = space.map_fresh(1 << 30, PageSize::Huge1G, MemLocation::Card, 0, true);
        let mut misses = 0;
        for i in 0..512u64 {
            let out = mmu.translate(1, m.vaddr + i * (2 << 20), false, None, &space);
            if matches!(out, TranslateOutcome::MissFilled { .. }) {
                misses += 1;
            }
        }
        assert_eq!(misses, 1);

        // The same walk with a 2 MB MMU misses on every page.
        let mut mmu2 = Mmu::new(MmuConfig::default_2m());
        let mut space2 = AddressSpace::new();
        let m2 = space2.map_fresh(1 << 30, PageSize::Huge2M, MemLocation::Card, 0, true);
        let mut misses2 = 0;
        for i in 0..512u64 {
            let out = mmu2.translate(1, m2.vaddr + i * (2 << 20), false, None, &space2);
            if matches!(out, TranslateOutcome::MissFilled { .. }) {
                misses2 += 1;
            }
        }
        assert!(misses2 > 400, "2 MB pages miss per page (got {misses2})");
    }

    #[test]
    fn wrong_location_faults_and_counts() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let (space, va) = space_with(PageSize::Small, MemLocation::Host);
        let out = mmu.translate(1, va, false, Some(MemLocation::Card), &space);
        assert!(matches!(
            out,
            TranslateOutcome::Faulted(Fault::WrongLocation { .. })
        ));
        assert_eq!(mmu.faults(), 1);
    }

    #[test]
    fn stale_tlb_location_faults_on_cached_entry() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let (space, va) = space_with(PageSize::Small, MemLocation::Host);
        // Warm the TLB with a host-located entry.
        mmu.translate(1, va, false, Some(MemLocation::Host), &space);
        // A card-targeted access hits the cached entry but the location
        // disagrees: the MMU raises the fault from the cached state.
        let out = mmu.translate(1, va, false, Some(MemLocation::Card), &space);
        assert!(matches!(
            out,
            TranslateOutcome::Faulted(Fault::WrongLocation { .. })
        ));
    }

    #[test]
    fn invalidation_forces_refetch() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let (space, va) = space_with(PageSize::Small, MemLocation::Host);
        mmu.translate(1, va, false, None, &space);
        mmu.invalidate_page(1, va);
        let out = mmu.translate(1, va, false, None, &space);
        assert!(matches!(out, TranslateOutcome::MissFilled { .. }));
    }

    #[test]
    fn epoch_coalesces_and_applies_once() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let (space, va) = space_with(PageSize::Small, MemLocation::Host);
        mmu.translate(1, va, false, None, &space);
        assert_eq!(mmu.stlb().occupancy(), 1);

        let mut epoch = TlbEpoch::new();
        // The same page queued three times, plus an unrelated process.
        epoch.invalidate_page(1, va);
        epoch.invalidate_page(1, va);
        epoch.invalidate_page(1, va);
        epoch.invalidate_process(9);
        let report = mmu.apply_epoch(epoch);
        assert_eq!(report.pages_invalidated, 1);
        assert_eq!(report.procs_invalidated, 1);
        assert_eq!(report.coalesced, 2, "duplicate page requests folded");
        assert!(report.shootdown);
        assert_eq!(mmu.epoch_shootdowns(), 1);
        // The entry is gone: next access refills via the driver.
        assert!(matches!(
            mmu.translate(1, va, false, None, &space),
            TranslateOutcome::MissFilled { .. }
        ));
    }

    #[test]
    fn epoch_process_invalidation_subsumes_its_pages() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let (space, va) = space_with(PageSize::Small, MemLocation::Host);
        mmu.translate(7, va, false, None, &space);

        let mut epoch = TlbEpoch::new();
        epoch.invalidate_page(7, va);
        epoch.invalidate_process(7);
        let report = mmu.apply_epoch(epoch);
        assert_eq!(report.procs_invalidated, 1);
        assert_eq!(report.pages_invalidated, 0, "page subsumed by process");
        assert_eq!(report.coalesced, 1);
        assert_eq!(mmu.stlb().occupancy(), 0);
    }

    #[test]
    fn empty_epoch_issues_no_shootdown() {
        let mut mmu = Mmu::new(MmuConfig::default_2m());
        let report = mmu.apply_epoch(TlbEpoch::new());
        assert_eq!(report, EpochReport::default());
        assert_eq!(mmu.epoch_shootdowns(), 0);
    }

    #[test]
    fn epoch_matches_eager_invalidation() {
        // Batched maintenance must leave the TLBs in exactly the state
        // per-op invalidation would.
        let mut space = AddressSpace::new();
        let pages: Vec<u64> = (0..8)
            .map(|_| {
                space
                    .map_fresh(4096, PageSize::Small, MemLocation::Host, 0x100_0000, true)
                    .vaddr
            })
            .collect();
        let mut eager = Mmu::new(MmuConfig::default_2m());
        let mut batched = Mmu::new(MmuConfig::default_2m());
        for &va in &pages {
            eager.translate(3, va, false, None, &space);
            batched.translate(3, va, false, None, &space);
        }
        let mut epoch = TlbEpoch::new();
        for &va in &pages[..4] {
            eager.invalidate_page(3, va);
            epoch.invalidate_page(3, va);
        }
        batched.apply_epoch(epoch);
        for (i, &va) in pages.iter().enumerate() {
            let e = eager.translate(3, va, false, None, &space);
            let b = batched.translate(3, va, false, None, &space);
            assert_eq!(
                matches!(e, TranslateOutcome::Hit { .. }),
                matches!(b, TranslateOutcome::Hit { .. }),
                "page {i} diverged"
            );
        }
    }

    #[test]
    fn virt_server_ceiling() {
        // Saturate the shared pipeline: aggregate can never exceed
        // packet / service regardless of channel parallelism.
        let mut server = VirtServer::new();
        let n = 10_000u64;
        let mut done = SimTime::ZERO;
        for _ in 0..n {
            done = server.admit(SimTime::ZERO);
        }
        let rate =
            coyote_sim::time::rate(n * params::DEFAULT_PACKET_BYTES, done.since(SimTime::ZERO));
        assert!((rate.as_gbps_f64() - 136.5).abs() < 1.5, "got {rate:?}");
    }
}
