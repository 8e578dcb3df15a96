//! Driver-side address spaces: the "rest of the MMU ... implemented in the
//! host-side driver" (§6.1).
//!
//! An [`AddressSpace`] records, per host process, where each virtual page
//! currently lives: host DRAM, card memory or GPU memory. Data can *migrate*
//! between locations (the GPU-style memory model); a request whose target
//! location disagrees with the mapping raises a [`Fault`] that the driver
//! resolves with a migration.

use coyote_mem::{PageSize, PhysAddr};
use std::collections::BTreeMap;

/// Which physical memory a page resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLocation {
    /// Host DRAM.
    Host,
    /// FPGA card memory (HBM/DDR).
    Card,
    /// GPU device memory (peer-to-peer).
    Gpu,
}

/// A completed translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical address in `loc`.
    pub paddr: PhysAddr,
    /// Which memory the page is in.
    pub loc: MemLocation,
    /// Write permission.
    pub writable: bool,
}

/// One contiguous virtual mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Virtual start (page-aligned).
    pub vaddr: u64,
    /// Length in bytes (whole pages).
    pub len: u64,
    /// Page size backing the mapping.
    pub page: PageSize,
    /// Current physical location.
    pub loc: MemLocation,
    /// Physical start in `loc` (contiguous in this model).
    pub paddr: PhysAddr,
    /// Write permission.
    pub writable: bool,
}

impl Mapping {
    /// True if `vaddr` falls inside this mapping.
    pub fn contains(&self, vaddr: u64) -> bool {
        vaddr >= self.vaddr && vaddr < self.vaddr + self.len
    }
}

/// Translation faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No mapping covers the address (a segfault; raised as a user-visible
    /// interrupt in Coyote v2).
    Unmapped {
        /// Faulting address.
        vaddr: u64,
    },
    /// Mapping exists but the data lives elsewhere; a migration is needed.
    WrongLocation {
        /// Faulting address.
        vaddr: u64,
        /// Where the data currently is.
        current: MemLocation,
        /// Where the access wants it.
        wanted: MemLocation,
    },
    /// Write to a read-only mapping.
    Protection {
        /// Faulting address.
        vaddr: u64,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Unmapped { vaddr } => write!(f, "unmapped address {vaddr:#x}"),
            Fault::WrongLocation {
                vaddr,
                current,
                wanted,
            } => {
                write!(
                    f,
                    "page at {vaddr:#x} is in {current:?}, access wants {wanted:?}"
                )
            }
            Fault::Protection { vaddr } => write!(f, "write to read-only page {vaddr:#x}"),
        }
    }
}

impl std::error::Error for Fault {}

/// Per-process page table kept by the driver.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// Keyed by virtual start address.
    mappings: BTreeMap<u64, Mapping>,
    /// Bump pointer for fresh virtual allocations.
    next_vaddr: u64,
}

impl AddressSpace {
    /// An empty address space. Virtual allocation starts above zero so a
    /// null pointer never translates.
    pub fn new() -> AddressSpace {
        AddressSpace {
            mappings: BTreeMap::new(),
            next_vaddr: 1 << 30,
        }
    }

    /// Pick a fresh virtual range for a new mapping of `len` bytes with the
    /// given page size, and record it.
    pub fn map_fresh(
        &mut self,
        len: u64,
        page: PageSize,
        loc: MemLocation,
        paddr: PhysAddr,
        writable: bool,
    ) -> Mapping {
        let total = page.pages_for(len) * page.bytes();
        let vaddr = next_aligned(self.next_vaddr, page.bytes());
        self.next_vaddr = vaddr + total;
        let m = Mapping {
            vaddr,
            len: total,
            page,
            loc,
            paddr,
            writable,
        };
        self.mappings.insert(vaddr, m);
        m
    }

    /// The mapping covering `vaddr`, if any.
    pub fn find(&self, vaddr: u64) -> Option<&Mapping> {
        self.mappings
            .range(..=vaddr)
            .next_back()
            .map(|(_, m)| m)
            .filter(|m| m.contains(vaddr))
    }

    /// Translate an access. `write` selects the permission check; `wanted`
    /// is the memory the requester needs the data in (`None` = wherever it
    /// is now).
    pub fn translate(
        &self,
        vaddr: u64,
        write: bool,
        wanted: Option<MemLocation>,
    ) -> Result<Translation, Fault> {
        let m = self.find(vaddr).ok_or(Fault::Unmapped { vaddr })?;
        if write && !m.writable {
            return Err(Fault::Protection { vaddr });
        }
        if let Some(w) = wanted {
            if w != m.loc {
                return Err(Fault::WrongLocation {
                    vaddr,
                    current: m.loc,
                    wanted: w,
                });
            }
        }
        Ok(Translation {
            paddr: m.paddr + (vaddr - m.vaddr),
            loc: m.loc,
            writable: m.writable,
        })
    }

    /// Move the mapping containing `vaddr` to a new location/physical base
    /// (after the driver migrated the data). Returns the old mapping.
    pub fn migrate(
        &mut self,
        vaddr: u64,
        new_loc: MemLocation,
        new_paddr: PhysAddr,
    ) -> Option<Mapping> {
        let key = self.find(vaddr)?.vaddr;
        let m = self.mappings.get_mut(&key).expect("key just found");
        let old = *m;
        m.loc = new_loc;
        m.paddr = new_paddr;
        Some(old)
    }

    /// All mappings (for teardown).
    pub fn mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.values()
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }
}

fn next_aligned(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_mappings_do_not_overlap() {
        let mut space = AddressSpace::new();
        let a = space.map_fresh(4096, PageSize::Small, MemLocation::Host, 0x1000, true);
        let b = space.map_fresh(4096, PageSize::Small, MemLocation::Host, 0x2000, true);
        assert!(a.vaddr + a.len <= b.vaddr);
        assert_eq!(space.len(), 2);
    }

    #[test]
    fn translate_offsets_within_mapping() {
        let mut space = AddressSpace::new();
        let m = space.map_fresh(8192, PageSize::Small, MemLocation::Card, 0x10_0000, true);
        let t = space.translate(m.vaddr + 5000, false, None).unwrap();
        assert_eq!(t.paddr, 0x10_0000 + 5000);
        assert_eq!(t.loc, MemLocation::Card);
    }

    #[test]
    fn unmapped_faults() {
        let space = AddressSpace::new();
        assert_eq!(
            space.translate(0x1234, false, None),
            Err(Fault::Unmapped { vaddr: 0x1234 })
        );
    }

    #[test]
    fn protection_fault_on_readonly_write() {
        let mut space = AddressSpace::new();
        let m = space.map_fresh(4096, PageSize::Small, MemLocation::Host, 0, false);
        assert!(space.translate(m.vaddr, false, None).is_ok());
        assert_eq!(
            space.translate(m.vaddr, true, None),
            Err(Fault::Protection { vaddr: m.vaddr })
        );
    }

    #[test]
    fn wrong_location_fault_and_migration() {
        let mut space = AddressSpace::new();
        let m = space.map_fresh(
            2 << 20,
            PageSize::Huge2M,
            MemLocation::Host,
            0x40_0000,
            true,
        );
        // A card-side access wants the page on the card: GPU-style fault.
        let err = space
            .translate(m.vaddr, false, Some(MemLocation::Card))
            .unwrap_err();
        assert!(matches!(
            err,
            Fault::WrongLocation {
                current: MemLocation::Host,
                wanted: MemLocation::Card,
                ..
            }
        ));
        // The driver migrates, then translation succeeds.
        space.migrate(m.vaddr, MemLocation::Card, 0x80_0000);
        let t = space
            .translate(m.vaddr + 100, false, Some(MemLocation::Card))
            .unwrap();
        assert_eq!(t.paddr, 0x80_0000 + 100);
    }

    #[test]
    fn mapping_boundaries_are_exact() {
        let mut space = AddressSpace::new();
        let m = space.map_fresh(4096, PageSize::Small, MemLocation::Host, 0, true);
        assert!(space.translate(m.vaddr + 4095, false, None).is_ok());
        assert!(space.translate(m.vaddr + 4096, false, None).is_err());
    }
}
