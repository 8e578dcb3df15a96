//! Shell-spec robustness: arbitrary `ShellSpec` values through the one
//! spec entry, [`lint_shell_spec`], never panic. Tests build with the dev
//! profile, so integer overflow is a panic here, not a silent wrap.
//!
//! The same generated specs check the WF001 fold: the firing conditions of
//! the retired pair checks CF001 (ACK starvation) and CF009 (completion
//! ring smaller than the batches in flight) are kept below as reference
//! predicates, and WF001 must fire whenever one holds.

use coyote_lint::shellspec::{MmuSpec, PlatformSpec, QpSpec, ReconfigSpec, TenantSpec, TlbSpec};
use coyote_lint::{lint_shell_spec, ShellSpec};
use proptest::TestRng;

const SERVICES: &[&str] = &["host", "mem", "net", "sniffer", "gpu"];

/// Draws spec fields from a seeded stream.
struct Draw(TestRng);

impl Draw {
    /// Counts worth probing: small in-range values (region indices
    /// included), the boundaries and the whole `u64` range.
    fn count(&mut self) -> u64 {
        let w = self.0.next_u64();
        match w % 8 {
            0..=3 => (w >> 3) % 41,
            4 => u64::MAX,
            5 => 1 << 32,
            _ => w,
        }
    }

    /// Rates: zero, negative, huge and ordinary.
    fn rate(&mut self) -> f64 {
        [0.0, -1.0, f64::MAX, 1e300, 12.5][self.0.below(5) as usize]
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

    fn list<T>(&mut self, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.0.below(4)).map(|_| f(self)).collect()
    }

    fn tlb(&mut self) -> TlbSpec {
        TlbSpec {
            sets: self.count(),
            ways: self.count(),
            page: self.pick(&["4k", "2m", "1g", "16k"]),
        }
    }

    fn tenant(&mut self) -> TenantSpec {
        TenantSpec {
            name: self.pick(&["alice", "bob", "carol"]),
            vfpgas: self.list(Self::count),
            services: self.list(|d| d.pick(SERVICES)),
            streams_to: self.some(|d| d.list(Self::count)),
            rate_gbps: self.some(Self::rate),
            reconfigs_per_s: self.some(Self::rate),
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
                max_msg_bytes: d.count(),
                ack_on_window_fill: d.bit(),
            }),
            reconfig: self.some(|d| ReconfigSpec {
                ring_slots: d.count(),
                max_batch_runs: d.count(),
                max_concurrent: d.some(Self::count),
            }),
            platform: self.some(|d| PlatformSpec {
                tenants: d.list(Self::tenant),
                shared_services: d.some(|d| d.list(|d| d.pick(SERVICES))),
                stream_credits: d.some(Self::count),
            }),
        }
    }
}

/// The retired CF001's firing condition: end-of-message-only ACKs and a
/// message longer than the window can hold.
fn cf001_holds(q: &QpSpec) -> bool {
    q.mtu > 0
        && q.window > 0
        && !q.ack_on_window_fill
        && q.max_msg_bytes > q.window.saturating_mul(q.mtu)
}

/// The retired CF009's firing condition: fewer completion-ring slots than
/// the runs of every batch that may be in flight at once. It judged the
/// typed shell configuration, so it held only for a spec that converts.
fn cf009_holds(s: &ShellSpec) -> bool {
    s.to_shell_config().is_ok() && s.ring_wait_facts().engine_waits_on_ring()
}

#[test]
fn arbitrary_specs_lint_without_panicking() {
    let mut draw = Draw(TestRng::deterministic("arbitrary_specs"));
    let (mut cf001, mut cf009) = (0, 0);
    for _ in 0..1024 {
        let s = draw.spec();
        let r = lint_shell_spec(&s);
        let cycle = |path: &str| r.of_rule("WF001").any(|d| d.location.path == path);
        if s.qp.as_ref().is_some_and(cf001_holds) {
            cf001 += 1;
            assert!(cycle("cycle(rdma.sender)"), "{s:?}\n{}", r.render_human());
        }
        if cf009_holds(&s) {
            cf009 += 1;
            assert!(cycle("cycle(software)"), "{s:?}\n{}", r.render_human());
        }
    }
    // The generator must reach both retired conditions, or the WF001
    // implication above is vacuous.
    assert!(
        cf001 >= 10 && cf009 >= 10,
        "CF001 held {cf001}x, CF009 {cf009}x"
    );
}
