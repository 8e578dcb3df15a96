//! Netlist intermediate representation and the pseudo-synthesis front end.
//!
//! A netlist is cells + nets. "Synthesis" of an IP block expands its
//! resource footprint into a reduced-scale netlist with levelized
//! connectivity (so timing analysis sees an acyclic pipeline) and
//! locality-biased fanout (so placement quality matters).

use coyote_fabric::ResourceVec;
use coyote_sim::{Fnv64, Xorshift64Star};

/// One netlist cell stands for this many device primitives. The build flows
/// multiply operation counts back up by this factor when modeling time.
pub const PRIMITIVES_PER_CELL: u64 = 64;

/// Cell kinds, mirroring the device column kinds plus I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// LUT-dominated logic cell.
    Lut,
    /// Register cell.
    Ff,
    /// Block-RAM macro.
    Bram,
    /// UltraRAM macro.
    Uram,
    /// DSP macro.
    Dsp,
    /// Peripheral interface cell (pins to PCIe/HBM/CMAC); placement-locked
    /// to the partition edge, the congestion magnets of §9.2.
    Io,
}

/// A net: one driver cell and its sinks.
#[derive(Debug, Clone)]
pub struct Net {
    /// Driving cell index.
    pub driver: u32,
    /// Sink cell indices.
    pub sinks: Vec<u32>,
    /// Bus width in bits. Every net feeding one sink cell must agree on
    /// width (a cell has one input port width); synthesis derives it from
    /// the driver's pipeline level, so stitched netlists stay consistent.
    pub width: u16,
}

/// Bus width of a net driven from pipeline level `level`. Stage widths walk
/// the AXI-stream ladder (8/16/32/64 bits) so consecutive levels genuinely
/// differ — a net wired to the wrong stage is a detectable width mismatch.
pub fn stage_width(level: u16) -> u16 {
    8 << (level % 4)
}

/// A synthesized design fragment.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Design name (for reports).
    pub name: String,
    /// Cell kinds, indexed by cell id.
    pub cells: Vec<CellKind>,
    /// Pipeline level per cell (drives acyclic net construction).
    pub levels: Vec<u16>,
    /// Nets.
    pub nets: Vec<Net>,
    /// The unscaled footprint this netlist represents.
    pub footprint: ResourceVec,
}

impl Netlist {
    /// Pseudo-synthesize a netlist from a resource footprint.
    ///
    /// * `depth` — pipeline depth in levels; cells are spread uniformly.
    /// * `fanout` — average net fanout; peripheral-heavy IPs use higher
    ///   values, which makes them genuinely harder to route.
    /// * `io_cells` — placement-locked interface cells.
    pub fn synthesize(
        name: &str,
        footprint: ResourceVec,
        depth: u16,
        fanout: f64,
        io_cells: u32,
        seed: u64,
    ) -> Netlist {
        assert!(depth >= 1, "zero-depth design");
        let mut rng = Xorshift64Star::new(seed ^ 0x5EED_C0DE);
        let scale = |n: u64| (n / PRIMITIVES_PER_CELL).max(u64::from(n > 0)) as u32;
        let counts = [
            (CellKind::Lut, scale(footprint.lut)),
            (CellKind::Ff, scale(footprint.ff)),
            (CellKind::Bram, scale(footprint.bram * 16)), // Macros are big.
            (CellKind::Uram, scale(footprint.uram * 32)),
            (CellKind::Dsp, scale(footprint.dsp * 8)),
            (CellKind::Io, io_cells),
        ];
        let total: u32 = counts.iter().map(|(_, n)| n).sum();
        let mut cells = Vec::with_capacity(total as usize);
        let mut levels = Vec::with_capacity(total as usize);
        for (kind, n) in counts {
            for _ in 0..n {
                cells.push(kind);
                // I/O pins sit at level 0; everything else spreads.
                let level = if kind == CellKind::Io {
                    0
                } else {
                    rng.gen_range(depth as u64) as u16
                };
                levels.push(level);
            }
        }
        // Build per-level cell index for locality-respecting nets.
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); depth as usize];
        for (i, &l) in levels.iter().enumerate() {
            by_level[l as usize].push(i as u32);
        }
        // Each non-final-level cell drives one net into the next level.
        let mut nets = Vec::new();
        let mut net_of: Vec<Option<usize>> = vec![None; total as usize];
        for (i, &l) in levels.iter().enumerate() {
            let next = (l + 1) as usize;
            if next >= depth as usize || by_level[next].is_empty() {
                continue;
            }
            let n_sinks = 1 + (rng.gen_exp(fanout - 1.0).round() as usize).min(15);
            let pool = &by_level[next];
            let sinks: Vec<u32> = (0..n_sinks)
                .map(|_| pool[rng.gen_range(pool.len() as u64) as usize])
                .collect();
            net_of[i] = Some(nets.len());
            nets.push(Net {
                driver: i as u32,
                sinks,
                width: stage_width(l),
            });
        }
        // Coverage pass: every cell above level 0 gets at least one incoming
        // edge from the level below. The random fanout draw alone leaves a
        // few percent of cells with no driver, logic no signal reaches.
        // After it, every cell drives at most one net, every net runs from
        // level l to l + 1 at `stage_width(l)`, and, when the design has
        // two or more levels and none is empty, every cell is on a net and
        // every cell above level 0 is driven: no undriven, dangling,
        // looping or unreachable cell exists. `tests/props.rs` pins this.
        let mut is_sink = vec![false; total as usize];
        for net in &nets {
            for &s in &net.sinks {
                is_sink[s as usize] = true;
            }
        }
        for l in 1..depth as usize {
            if by_level[l - 1].is_empty() {
                continue;
            }
            let pool = &by_level[l - 1];
            for &c in &by_level[l] {
                if is_sink[c as usize] {
                    continue;
                }
                let d = pool[rng.gen_range(pool.len() as u64) as usize];
                if let Some(idx) = net_of[d as usize] {
                    nets[idx].sinks.push(c);
                    is_sink[c as usize] = true;
                }
            }
        }
        Netlist {
            name: name.to_string(),
            cells,
            levels,
            nets,
            footprint,
        }
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Unscaled primitive count (for time modeling).
    pub fn primitives(&self) -> u64 {
        self.footprint.total_cells()
    }

    /// Merge another netlist in (cell/net indices are rebased).
    pub fn merge(&mut self, other: &Netlist) {
        let base = self.cells.len() as u32;
        self.cells.extend_from_slice(&other.cells);
        self.levels.extend_from_slice(&other.levels);
        self.nets.extend(other.nets.iter().map(|n| Net {
            driver: n.driver + base,
            sinks: n.sinks.iter().map(|s| s + base).collect(),
            width: n.width,
        }));
        self.footprint += other.footprint;
    }

    /// Stable content digest (identifies the design in bitstream headers).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.name.as_bytes());
        h.write_word(self.cells.len() as u64);
        h.write_word(self.nets.len() as u64);
        for net in self.nets.iter().take(64) {
            h.write_word(net.driver as u64);
            h.write_word(net.sinks.len() as u64);
        }
        h.write_word(self.footprint.lut);
        h.write_word(self.footprint.bram);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        Netlist::synthesize(
            "sample",
            ResourceVec::new(64_000, 128_000, 32, 4, 64),
            8,
            3.0,
            16,
            42,
        )
    }

    /// Pinned digest: it seeds the placer and names the design in image
    /// headers, so a change to its fold fails here first.
    #[test]
    fn digest_is_pinned() {
        assert_eq!(sample().digest(), 0x559d_4a53_228e_2d9b);
    }

    #[test]
    fn cell_counts_scale_with_footprint() {
        let n = sample();
        // 64k LUT / 64 = 1000 LUT cells, 128k FF / 64 = 2000 FF cells.
        let luts = n.cells.iter().filter(|&&k| k == CellKind::Lut).count();
        let ffs = n.cells.iter().filter(|&&k| k == CellKind::Ff).count();
        assert_eq!(luts, 1000);
        assert_eq!(ffs, 2000);
        assert_eq!(n.primitives(), 64_000 + 128_000 + 32 + 4 + 64);
    }

    #[test]
    fn nets_go_forward_one_level() {
        let n = sample();
        assert!(!n.nets.is_empty());
        for net in &n.nets {
            let dl = n.levels[net.driver as usize];
            for &s in &net.sinks {
                assert_eq!(
                    n.levels[s as usize],
                    dl + 1,
                    "net crosses exactly one level"
                );
            }
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.nets.len(), b.nets.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = sample();
        let b = Netlist::synthesize("sample", a.footprint, 8, 3.0, 16, 43);
        assert_ne!(
            a.nets.iter().map(|n| n.sinks.len()).sum::<usize>(),
            b.nets.iter().map(|n| n.sinks.len()).sum::<usize>()
        );
    }

    #[test]
    fn merge_rebases_indices() {
        let mut a = sample();
        let b = sample();
        let a_cells = a.cell_count() as u32;
        let a_nets = a.nets.len();
        a.merge(&b);
        assert_eq!(a.cell_count() as u32, a_cells * 2);
        for net in &a.nets[a_nets..] {
            assert!(net.driver >= a_cells);
            assert!(net.sinks.iter().all(|&s| s >= a_cells));
        }
        assert_eq!(a.footprint.lut, 128_000);
    }

    #[test]
    fn io_cells_at_level_zero() {
        let n = sample();
        for (i, &k) in n.cells.iter().enumerate() {
            if k == CellKind::Io {
                assert_eq!(n.levels[i], 0);
            }
        }
    }

    #[test]
    fn tiny_footprint_still_produces_cells() {
        let n = Netlist::synthesize("tiny", ResourceVec::logic(10, 10), 2, 2.0, 0, 1);
        assert!(n.cell_count() >= 2);
    }
}
