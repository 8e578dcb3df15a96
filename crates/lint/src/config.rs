//! Configuration lints (CF002–CF007): shell, QP and MMU parameter checks.
//!
//! These rules catch configurations that *parse* fine and even *boot* fine
//! but then fail to schedule, or are malformed for the component that
//! would run them. Deadlocks are judged on the platform wait-for graph
//! instead ([`crate::platform::waitfor`]): its WF001 cycles subsume the
//! retired pair checks CF001 (end-of-message-only ACKs with messages
//! longer than `window * mtu`) and CF009 (a completion ring smaller than
//! the batches in flight), and their edges name the same fixes.

use crate::diag::{Diagnostic, Location, Report, Severity};
use crate::shellspec::QpSpec;
use coyote::config::ShellConfig;
use coyote_fabric::Device;
use coyote_mmu::{MmuConfig, TlbConfig};
use coyote_sim::params::ROCE_MTU;

/// Lint one QP's transport parameters (CF002, CF003).
pub fn lint_qp(unit: &str, qp: &QpSpec) -> Report {
    let mut report = Report::new();
    let loc = |path: &str| Location::new(format!("config:{unit}"), path);

    // CF002: MTU sanity.
    if qp.mtu == 0 || qp.mtu > ROCE_MTU as u64 || !qp.mtu.is_power_of_two() {
        report.push(
            Diagnostic::new(
                "CF002",
                Severity::Error,
                loc("qp.mtu"),
                format!(
                    "MTU {} invalid: must be a power of two in 1..={ROCE_MTU}",
                    qp.mtu
                ),
            )
            .with_suggestion(format!("use the RoCE default of {ROCE_MTU}")),
        );
    }

    // CF003: window sanity.
    if qp.window == 0 {
        report.push(Diagnostic::new(
            "CF003",
            Severity::Error,
            loc("qp.window"),
            "retransmission window of 0 packets: no packet can ever be in flight",
        ));
    }

    report
}

/// Lint MMU/TLB geometry (CF004, CF007).
pub fn lint_mmu(unit: &str, mmu: &MmuConfig) -> Report {
    let mut report = Report::new();
    let loc = |path: &str| Location::new(format!("config:{unit}"), path);

    let check_tlb = |name: &str, tlb: &TlbConfig, report: &mut Report| {
        if !tlb.sets.is_power_of_two() || tlb.sets == 0 || tlb.ways == 0 {
            report.push(
                Diagnostic::new(
                    "CF004",
                    Severity::Error,
                    loc(&format!("mmu.{name}")),
                    format!(
                        "{name} geometry {}x{} invalid: sets must be a non-zero power of two \
                         (the set index is a bit-slice of the VPN) and ways non-zero",
                        tlb.sets, tlb.ways
                    ),
                )
                .with_suggestion("the TLB constructor panics on this geometry"),
            );
        }
    };
    check_tlb("stlb", &mmu.stlb, &mut report);
    check_tlb("ltlb", &mmu.ltlb, &mut report);

    // CF004 (continued): the small-page TLB must translate smaller pages
    // than the huge-page TLB, or every lookup classifies wrong.
    if mmu.stlb.page.bytes() >= mmu.ltlb.page.bytes() {
        report.push(Diagnostic::new(
            "CF004",
            Severity::Error,
            loc("mmu"),
            format!(
                "sTLB page ({} B) must be smaller than lTLB page ({} B)",
                mmu.stlb.page.bytes(),
                mmu.ltlb.page.bytes()
            ),
        ));
    }

    // CF007: SRAM budget. The synthesis resource model charges BRAM for the
    // TLB SRAM; past ~16 Mbit the MMU alone starves the service band.
    const SRAM_BUDGET_BITS: u64 = 16 << 20;
    let bits = mmu.sram_bits();
    if bits > SRAM_BUDGET_BITS {
        report.push(
            Diagnostic::new(
                "CF007",
                Severity::Warning,
                loc("mmu"),
                format!(
                    "TLB SRAM of {bits} bits exceeds the {SRAM_BUDGET_BITS}-bit on-chip budget \
                     the MMU model assumes"
                ),
            )
            .with_suggestion("shrink sets/ways; hit rate saturates well below this size"),
        );
    }

    report
}

/// Lint a full shell configuration (CF005, CF006, plus the MMU rules).
pub fn lint_shell(unit: &str, cfg: &ShellConfig) -> Report {
    let mut report = Report::new();
    let loc = |path: &str| Location::new(format!("config:{unit}"), path);

    // CF005: everything ShellConfig::validate refuses — vFPGA count,
    // stream counts, channel counts, sniffer-without-network. The shell
    // could never be scheduled onto a device in this state.
    let valid = cfg.validate();
    if let Err(e) = &valid {
        report.push(
            Diagnostic::new(
                "CF005",
                Severity::Error,
                loc("shell"),
                format!("shell can never be scheduled: {e}"),
            )
            .with_suggestion("fix the field named in the message"),
        );
    }
    if cfg.n_card_streams > 16 {
        report.push(Diagnostic::new(
            "CF005",
            Severity::Error,
            loc("shell.n_card_streams"),
            format!("{} card streams (0-16 supported)", cfg.n_card_streams),
        ));
    }

    report.extend(lint_mmu(unit, &cfg.mmu));

    // CF006: do the service blocks fit the service band of the implied
    // floorplan? `capacity_of(Shell)` already subtracts the vFPGA regions.
    // Only a shell `validate` accepts has one: synthesizing the service
    // blocks of a rejected shell (say 10^8 memory channels) is wasted work.
    if valid.is_ok() {
        let device = Device::new(cfg.device);
        let band = cfg
            .floorplan()
            .capacity_of(&device, coyote_fabric::PartitionId::Shell)
            .expect("preset floorplan has a shell");
        let demand: coyote_fabric::ResourceVec =
            cfg.service_blocks().iter().map(|b| b.footprint()).sum();
        if !demand.fits_in(&band) {
            report.push(
                Diagnostic::new(
                    "CF006",
                    Severity::Error,
                    loc("shell.services"),
                    format!(
                        "service blocks need {demand} but the {:?} service band offers {band}",
                        cfg.profile()
                    ),
                )
                .with_suggestion("reduce memory channels or MMU SRAM, or drop a service"),
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_mem::PageSize;

    fn qp(mtu: u64, window: u64) -> QpSpec {
        QpSpec {
            mtu,
            window,
            max_msg_bytes: mtu * window,
            ack_on_window_fill: true,
        }
    }

    #[test]
    fn default_qp_spec_is_clean() {
        assert!(lint_qp("t", &qp(ROCE_MTU as u64, 64)).is_clean());
    }

    /// A spec with the given service/section fields, through the one spec
    /// entry (config, artifacts and platform rules).
    fn spec_report(fields: &str) -> Report {
        let text = format!(
            r#"{{"name": "t", "device": "u55c", "n_vfpgas": 2, "memory_channels": 0,
                "sniffer": false, "n_host_streams": 4, "n_card_streams": 0,
                "node_id": 1, {fields}}}"#
        );
        crate::lint_shell_spec(&crate::ShellSpec::from_json(&text).unwrap())
    }

    #[test]
    fn pre_fix_deadlock_config_is_flagged() {
        // The class the RC queue pair deadlocked on before the window-fill
        // ACK: 1 MB messages over a 64 x 4096-byte window with
        // end-of-message-only ACKs. The spec lint reports it once, as the
        // WF001 cycle, whose ACK edge names the fix.
        let qp = |max_msg: u64| {
            spec_report(&format!(
                r#""networking": true, "qp": {{ "mtu": 4096, "window": 64,
                    "max_msg_bytes": {max_msg}, "ack_on_window_fill": false }}"#
            ))
        };
        let r = qp(1 << 20);
        assert_eq!(r.diagnostics.len(), 1, "{}", r.render_human());
        assert!(r.render_human().contains("enable qp.ack_on_window_fill"));
        // Messages that fit the window cannot starve.
        assert!(qp(64 * 4096).is_clean());
    }

    #[test]
    fn bad_mtu_and_window_flagged() {
        let r = lint_qp("t", &qp(3000, 0));
        assert_eq!(r.of_rule("CF002").count(), 1);
        assert_eq!(r.of_rule("CF003").count(), 1);
    }

    #[test]
    fn tlb_geometry_rules() {
        assert!(lint_mmu("t", &MmuConfig::default_2m()).is_clean());
        assert!(lint_mmu("t", &MmuConfig::huge_1g()).is_clean());

        let mut bad = MmuConfig::default_2m();
        bad.stlb.sets = 100; // not a power of two
        assert_eq!(lint_mmu("t", &bad).of_rule("CF004").count(), 1);

        let mut inverted = MmuConfig::default_2m();
        inverted.stlb.page = PageSize::Huge1G;
        assert_eq!(lint_mmu("t", &inverted).of_rule("CF004").count(), 1);

        let mut huge = MmuConfig::default_2m();
        huge.stlb.sets = 1 << 16;
        huge.stlb.ways = 8;
        let r = lint_mmu("t", &huge);
        assert_eq!(r.of_rule("CF007").count(), 1);
        assert_ne!(r.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn shell_presets_are_clean() {
        for cfg in [
            ShellConfig::host_only(1),
            ShellConfig::host_memory(4, 16),
            ShellConfig::host_memory_network(8, 32),
        ] {
            let r = lint_shell("t", &cfg);
            assert!(r.is_clean(), "{}", r.render_human());
        }
    }

    #[test]
    fn undersized_completion_ring_flagged() {
        let ring = |slots: u64, concurrent: u64| {
            spec_report(&format!(
                r#""networking": false, "reconfig": {{ "ring_slots": {slots},
                    "max_batch_runs": 8, "max_concurrent": {concurrent} }}"#
            ))
        };
        // One WF001 naming the minimum ring; `validate` deliberately does
        // not refuse this shell, so no CF005 rides along.
        let r = ring(4, 1);
        assert_eq!(r.diagnostics.len(), 1, "{}", r.render_human());
        assert!(r
            .render_human()
            .contains("raise reconfig.ring_slots to at least 8"));
        // Concurrency multiplies the bound: two in-flight batches of 8.
        assert!(ring(8, 2).render_human().contains("at least 16"));
    }

    #[test]
    fn unschedulable_shell_flagged() {
        let r = lint_shell("t", &ShellConfig::host_only(0));
        assert!(r.of_rule("CF005").count() >= 1);

        let mut cfg = ShellConfig::host_only(2);
        cfg.n_card_streams = 30;
        assert!(lint_shell("t", &cfg).of_rule("CF005").count() >= 1);
    }
}
