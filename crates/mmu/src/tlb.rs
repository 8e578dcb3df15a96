//! Parametrizable set-associative TLBs.
//!
//! "A stand-out feature of Coyote v2 is that the TLB configuration is
//! parametrizable, allowing Coyote v2 to be deployed on a wide range of
//! systems" (§6.1). A [`Tlb`] is parameterized by set count, associativity
//! and page size; entries are tagged with the owning host process id so
//! multiple cThreads/tenants share the structure without aliasing.

use crate::space::Translation;
use coyote_mem::PageSize;

/// Geometry of one TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets (a power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Page size this TLB translates.
    pub page: PageSize,
}

impl TlbConfig {
    /// The default small-page TLB: 512 sets x 4 ways of 4 KB pages.
    pub fn small_default() -> TlbConfig {
        TlbConfig {
            sets: 512,
            ways: 4,
            page: PageSize::Small,
        }
    }

    /// The default huge-page TLB: 32 sets x 4 ways of 2 MB pages.
    pub fn huge_default() -> TlbConfig {
        TlbConfig {
            sets: 32,
            ways: 4,
            page: PageSize::Huge2M,
        }
    }

    /// A huge-page TLB for 1 GB pages (scenario #1 of §9.3 reconfigures the
    /// shell from a 2 MB-page MMU to this one).
    pub fn huge_1g() -> TlbConfig {
        TlbConfig {
            sets: 8,
            ways: 2,
            page: PageSize::Huge1G,
        }
    }

    /// Total entries (saturating: a declared geometry may be absurd).
    pub fn entries(&self) -> usize {
        self.sets.saturating_mul(self.ways)
    }

    /// Approximate on-chip SRAM cost in bits (tag + data per entry); used
    /// by the resource model in `coyote-synth`.
    pub fn sram_bits(&self) -> u64 {
        // ~64-bit tag/meta + 64-bit translation per entry.
        (self.entries() as u64).saturating_mul(128)
    }
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid entries evicted by LRU replacement.
    pub evictions: u64,
    /// Entries dropped by invalidation.
    pub invalidations: u64,
}

impl TlbStats {
    /// Hit fraction over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    hpid: u32,
    vpn: u64,
    translation: Translation,
}

/// A set-associative, LRU-replaced TLB in "on-chip SRAM".
///
/// Each set keeps its entries in recency order (MRU at index 0), so a hit
/// is a short scan + rotate and replacement always evicts the back slot —
/// no per-entry timestamps and no full-set victim scan on the hot path.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    sets: Vec<Vec<Entry>>,
    stats: TlbStats,
}

impl Tlb {
    /// Build a TLB.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(
            config.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(config.ways >= 1, "zero ways");
        Tlb {
            config,
            sets: (0..config.sets)
                .map(|_| Vec::with_capacity(config.ways))
                .collect(),
            stats: TlbStats::default(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    fn vpn_of(&self, vaddr: u64) -> u64 {
        vaddr >> self.config.page.shift()
    }

    fn set_of(&self, vpn: u64, hpid: u32) -> usize {
        // Mix the hpid into the index so processes do not collide on the
        // same sets systematically.
        let h = vpn ^ ((hpid as u64) << 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h as usize) & (self.config.sets - 1)
    }

    /// Look up `vaddr` for process `hpid`. A hit promotes the entry to the
    /// front of its set (MRU), keeping the hot translation first for the
    /// next lookup's scan.
    pub fn lookup(&mut self, hpid: u32, vaddr: u64) -> Option<Translation> {
        let vpn = self.vpn_of(vaddr);
        let set = self.set_of(vpn, hpid);
        let entries = &mut self.sets[set];
        match entries.iter().position(|e| e.hpid == hpid && e.vpn == vpn) {
            Some(idx) => {
                // MRU promotion: rotate the hit to the front.
                entries[..=idx].rotate_right(1);
                self.stats.hits += 1;
                Some(entries[0].translation)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Install a translation (driver write-back after a miss). With MRU
    /// ordering the victim is always the back slot — no LRU scan.
    pub fn insert(&mut self, hpid: u32, vaddr: u64, translation: Translation) {
        let vpn = self.vpn_of(vaddr);
        let set = self.set_of(vpn, hpid);
        let ways = self.config.ways;
        let entries = &mut self.sets[set];
        if let Some(idx) = entries.iter().position(|e| e.hpid == hpid && e.vpn == vpn) {
            entries[idx].translation = translation;
            entries[..=idx].rotate_right(1);
            return;
        }
        if entries.len() == ways {
            // The back of the recency order is the LRU victim.
            entries.pop().expect("non-empty set");
            self.stats.evictions += 1;
        }
        entries.insert(
            0,
            Entry {
                hpid,
                vpn,
                translation,
            },
        );
    }

    /// Drop every entry of one process (process teardown, or the
    /// TLB-invalidation interrupts of §5.1).
    pub fn invalidate_process(&mut self, hpid: u32) {
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|e| e.hpid != hpid);
            self.stats.invalidations += (before - set.len()) as u64;
        }
    }

    /// Drop one page's entry (unmap / migration).
    pub fn invalidate_page(&mut self, hpid: u32, vaddr: u64) {
        let vpn = self.vpn_of(vaddr);
        let set = self.set_of(vpn, hpid);
        let entries = &mut self.sets[set];
        let before = entries.len();
        entries.retain(|e| !(e.hpid == hpid && e.vpn == vpn));
        self.stats.invalidations += (before - entries.len()) as u64;
    }

    /// Valid entries currently held.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::MemLocation;

    fn tr(paddr: u64) -> Translation {
        Translation {
            paddr,
            loc: MemLocation::Host,
            writable: true,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::new(TlbConfig::small_default());
        assert!(tlb.lookup(1, 0x1000).is_none());
        tlb.insert(1, 0x1000, tr(0xAB000));
        let t = tlb.lookup(1, 0x1FFF).unwrap();
        assert_eq!(t.paddr, 0xAB000, "same 4 KB page hits");
        assert!(tlb.lookup(1, 0x2000).is_none(), "next page misses");
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 2);
    }

    #[test]
    fn processes_are_isolated() {
        let mut tlb = Tlb::new(TlbConfig::small_default());
        tlb.insert(1, 0x1000, tr(0x10));
        tlb.insert(2, 0x1000, tr(0x20));
        assert_eq!(tlb.lookup(1, 0x1000).unwrap().paddr, 0x10);
        assert_eq!(tlb.lookup(2, 0x1000).unwrap().paddr, 0x20);
        tlb.invalidate_process(1);
        assert!(tlb.lookup(1, 0x1000).is_none());
        assert_eq!(tlb.lookup(2, 0x1000).unwrap().paddr, 0x20);
    }

    #[test]
    fn lru_evicts_coldest() {
        // 1 set x 2 ways: the set holds exactly two pages.
        let cfg = TlbConfig {
            sets: 1,
            ways: 2,
            page: PageSize::Small,
        };
        let mut tlb = Tlb::new(cfg);
        tlb.insert(1, 0x1000, tr(1));
        tlb.insert(1, 0x2000, tr(2));
        tlb.lookup(1, 0x1000); // Touch page 1: page 2 becomes LRU.
        tlb.insert(1, 0x3000, tr(3));
        assert!(tlb.lookup(1, 0x1000).is_some());
        assert!(tlb.lookup(1, 0x2000).is_none(), "LRU victim evicted");
        assert!(tlb.lookup(1, 0x3000).is_some());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn mru_order_tracks_recency_across_ways() {
        // 1 set x 3 ways: recency order decides the victim exactly.
        let cfg = TlbConfig {
            sets: 1,
            ways: 3,
            page: PageSize::Small,
        };
        let mut tlb = Tlb::new(cfg);
        tlb.insert(1, 0x1000, tr(1));
        tlb.insert(1, 0x2000, tr(2));
        tlb.insert(1, 0x3000, tr(3));
        // Touch 1 then 2: recency is now [2, 1, 3]; 3 is coldest.
        tlb.lookup(1, 0x1000);
        tlb.lookup(1, 0x2000);
        tlb.insert(1, 0x4000, tr(4));
        assert!(tlb.lookup(1, 0x3000).is_none(), "coldest way evicted");
        assert!(tlb.lookup(1, 0x1000).is_some());
        assert!(tlb.lookup(1, 0x2000).is_some());
        assert!(tlb.lookup(1, 0x4000).is_some());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn huge_page_granularity() {
        let mut tlb = Tlb::new(TlbConfig::huge_default());
        tlb.insert(7, 0, tr(0));
        // Anywhere in the first 2 MB hits.
        assert!(tlb.lookup(7, (2 << 20) - 1).is_some());
        assert!(tlb.lookup(7, 2 << 20).is_none());
    }

    #[test]
    fn gigabyte_pages() {
        let mut tlb = Tlb::new(TlbConfig::huge_1g());
        tlb.insert(1, 0, tr(0));
        assert!(tlb.lookup(1, (1 << 30) - 1).is_some());
        assert!(tlb.lookup(1, 1 << 30).is_none());
    }

    #[test]
    fn invalidate_page_is_precise() {
        let mut tlb = Tlb::new(TlbConfig::small_default());
        tlb.insert(1, 0x1000, tr(1));
        tlb.insert(1, 0x2000, tr(2));
        tlb.invalidate_page(1, 0x1000);
        assert!(tlb.lookup(1, 0x1000).is_none());
        assert!(tlb.lookup(1, 0x2000).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::new(TlbConfig::small_default());
        tlb.insert(1, 0x1000, tr(1));
        tlb.insert(1, 0x1000, tr(99));
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.lookup(1, 0x1000).unwrap().paddr, 99);
    }

    #[test]
    fn sram_cost_scales_with_entries() {
        assert_eq!(TlbConfig::small_default().entries(), 2048);
        assert!(TlbConfig::small_default().sram_bits() > TlbConfig::huge_1g().sram_bits());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        Tlb::new(TlbConfig {
            sets: 3,
            ways: 1,
            page: PageSize::Small,
        });
    }
}
