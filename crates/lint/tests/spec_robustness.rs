//! Shell-spec robustness: arbitrary `ShellSpec` values through the one
//! spec entry, [`lint_shell_spec`], never panic. Tests build with the dev
//! profile, so integer overflow is a panic here, not a silent wrap.

use coyote_lint::shellspec::{MmuSpec, QpSpec, TlbSpec};
use coyote_lint::{lint_shell_spec, ShellSpec};
use proptest::TestRng;

/// Draws spec fields from a seeded stream.
struct Draw(TestRng);

impl Draw {
    /// Counts worth probing: small in-range values, the boundaries and the
    /// whole `u64` range.
    fn count(&mut self) -> u64 {
        let w = self.0.next_u64();
        match w % 8 {
            0..=3 => (w >> 3) % 41,
            4 => u64::MAX,
            5 => 1 << 32,
            _ => w,
        }
    }

    fn bit(&mut self) -> bool {
        self.0.below(2) == 1
    }

    fn pick(&mut self, choices: &[&str]) -> String {
        choices[self.0.below(choices.len() as u64) as usize].to_string()
    }

    fn some<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.bit().then(|| f(self))
    }

    fn tlb(&mut self) -> TlbSpec {
        TlbSpec {
            sets: self.count(),
            ways: self.count(),
            page: self.pick(&["4k", "2m", "1g", "16k"]),
        }
    }

    fn spec(&mut self) -> ShellSpec {
        ShellSpec {
            name: "prop".to_string(),
            device: self.pick(&["u55c", "u250", "u280", "stratix10"]),
            n_vfpgas: self.count(),
            memory_channels: self.count(),
            networking: self.bit(),
            sniffer: self.bit(),
            n_host_streams: self.count(),
            n_card_streams: self.count(),
            node_id: self.count(),
            mmu: self.some(|d| MmuSpec {
                stlb: d.tlb(),
                ltlb: d.tlb(),
            }),
            qp: self.some(|d| QpSpec {
                mtu: d.count(),
                window: d.count(),
            }),
        }
    }
}

#[test]
fn arbitrary_specs_lint_without_panicking() {
    let mut draw = Draw(TestRng::deterministic("arbitrary_specs"));
    for _ in 0..1024 {
        lint_shell_spec(&draw.spec());
    }
}
