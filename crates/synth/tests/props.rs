//! Property tests on pseudo-synthesis: every netlist the generator emits is
//! levelled, so no net is undriven or multiply driven, no bus width
//! disagrees at a sink, and no cell dangles, loops or is unreachable.

use coyote_fabric::ResourceVec;
use coyote_synth::{stage_width, CellKind, Ip, IpBlock, Netlist};
use proptest::prelude::*;

/// Assert that `n` is levelled: in-range driver and sink indices, at most
/// one net per driver, and every net running from some level `l` to
/// `l + 1` at `stage_width(l)`. When the design spans two or more levels
/// and none of them is empty, also assert that every non-I/O cell is on a
/// net and every cell above level 0 has a driver. Returns whether that
/// second part was checked.
fn assert_levelled(n: &Netlist) -> bool {
    let cells = n.cell_count();
    let mut drives = vec![false; cells];
    let mut driven = vec![false; cells];
    for (i, net) in n.nets.iter().enumerate() {
        let d = net.driver as usize;
        assert!(d < cells, "net {i}: driver {d} of {cells} cells");
        assert!(!drives[d], "cell {d} drives two nets");
        drives[d] = true;
        let level = n.levels[d];
        assert_eq!(net.width, stage_width(level), "net {i}: width");
        assert!(!net.sinks.is_empty(), "net {i} has no sink");
        for &s in &net.sinks {
            let s = s as usize;
            assert!(s < cells, "net {i}: sink {s} of {cells} cells");
            assert_eq!(n.levels[s], level + 1, "net {i}: sink {s}'s level");
            driven[s] = true;
        }
    }
    let top = n.levels.iter().copied().max().unwrap_or(0);
    let covered = top >= 1 && (0..=top).all(|l| n.levels.contains(&l));
    if covered {
        for c in 0..cells {
            if n.cells[c] != CellKind::Io {
                assert!(drives[c] || driven[c], "cell {c} is on no net");
            }
            if n.levels[c] > 0 {
                assert!(driven[c], "cell {c} at level {} has no driver", n.levels[c]);
            }
        }
    }
    covered
}

proptest! {
    /// Random footprints, depths, fanouts and I/O counts.
    #[test]
    fn synthesized_netlists_are_levelled(
        lut in 0u64..40_000,
        ff in 0u64..80_000,
        bram in 0u64..64,
        uram in 0u64..8,
        dsp in 0u64..128,
        depth in 1u16..25,
        fanout in 1.0f64..8.0,
        io_cells in 0u32..128,
        seed in any::<u64>(),
    ) {
        let footprint = ResourceVec::new(lut, ff, bram, uram, dsp);
        let n = Netlist::synthesize("prop", footprint, depth, fanout, io_cells, seed);
        prop_assert!(n.levels.iter().all(|&l| l < depth));
        assert_levelled(&n);
    }
}

/// Every library IP at its own footprint, depth, fanout and I/O count; a
/// parameterised IP at sizes the paper's shells and kernels use.
#[test]
fn every_ip_synthesizes_levelled() {
    let ips = [
        Ip::HostIf,
        Ip::MemoryCtrl { channels: 1 },
        Ip::MemoryCtrl { channels: 32 },
        Ip::Mmu { sram_bits: 1 << 21 },
        Ip::RdmaStack,
        Ip::Cmac,
        Ip::Sniffer,
        Ip::Aes,
        Ip::Hll,
        Ip::VecAdd,
        Ip::VecProduct,
        Ip::Passthrough,
        Ip::NnInference { params: 50_000 },
        Ip::Custom {
            name: "custom".into(),
            lut: 5_000,
            ff: 10_000,
            bram: 4,
            dsp: 16,
        },
    ];
    for ip in ips {
        let n = IpBlock::new(ip.clone()).synthesize();
        assert!(assert_levelled(&n), "{ip:?}: a level is empty");
    }
}
