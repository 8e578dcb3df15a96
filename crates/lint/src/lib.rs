#![forbid(unsafe_code)]
//! `coyote-lint`: the design-rule checker and shell verifier.
//!
//! Every other crate in the workspace *executes* the model — synthesizes
//! netlists, loads bitstreams, runs the DES. This crate *judges* the
//! artifacts those flows produce, before anything runs:
//!
//! * [`lint_netlist`] — undriven/multiply-driven nets, dangling cells,
//!   combinational loops, width mismatches, unreachable logic (NL001–NL007).
//! * [`lint_floorplan`] — partition geometry, resource budgets and
//!   clock-region discipline (FP001–FP007).
//! * [`lint_bitstream`] — offline blob verification without the ICAP load
//!   path, including deployment checks (BS001–BS006).
//! * [`lint_shell`] / [`lint_qp`] / [`lint_mmu`] — configurations that
//!   would deadlock, starve or fail to schedule (CF001–CF009).
//! * [`lint_trace`] / [`lint_fault_trace`] / [`lint_shard_lookahead`] —
//!   recorded `ShardTrace`s whose outcome depends on event scheduling
//!   order, fault traces merged outside the canonical order, and
//!   cross-shard events undercutting their link lookahead (DS001, DS002,
//!   DS004, DS006).
//! * [`lint_source`] / [`lint_source_tree`] — the `coyote-detlint`
//!   source-level determinism analyzer: hash-order iteration, wall-clock
//!   and entropy escapes, float reductions in `par_map`, relaxed atomics,
//!   ad-hoc threads, environment reads (SRC001–SRC007).
//! * [`lint_ipa_workspace`] / [`lint_ipa_sources`] — the interprocedural
//!   determinism taint analyzer: workspace call graph, source→sink taint
//!   propagation with full call chains, suppression-drift audit
//!   (IPA001–IPA005).
//! * [`lint_platform`] — the whole-platform analyzer: joins everything
//!   above into one typed resource graph ([`PlatformGraph`]) and runs the
//!   cross-layer families on it — graph construction (PG001–PG002),
//!   global wait-for cycles (WF001–WF004), capacity feasibility
//!   (CAP001–CAP003) and tenant isolation (ISO001–ISO002).
//!
//! All rules emit [`Diagnostic`]s into a [`Report`]; [`LintConfig`] applies
//! per-rule allow/deny; the `coyote-lint` binary renders reports as text or
//! JSON and exits non-zero on errors, which is how CI gates on it. The full
//! rule catalog lives in [`rules::CATALOG`].

pub mod bitstream;
pub mod config;
pub mod des;
pub mod diag;
pub mod floorplan;
pub mod ipa;
pub mod netlist;
pub mod platform;
pub mod rules;
pub mod shellspec;
pub mod source;

pub use bitstream::{lint_bitstream, DeployContext};
pub use config::{lint_fault_plan, lint_mmu, lint_qp, lint_shell, QpSpec};
pub use des::{lint_fault_trace, lint_replay_divergence, lint_shard_lookahead, lint_trace};
pub use diag::{Diagnostic, LintConfig, Location, Report, Severity};
pub use floorplan::{lint_floorplan, PartitionDemand};
pub use ipa::{lint_ipa_sources, lint_ipa_workspace};
pub use netlist::lint_netlist;
pub use platform::{build_platform_graph, lint_platform, PlatformGraph};
pub use rules::{render_catalog, rule, Layer, RuleInfo, CATALOG};
pub use shellspec::ShellSpec;
pub use source::{lint_source, lint_source_tree};

use coyote_fabric::{Device, Floorplan};

/// Lint everything a shell specification implies: the configuration itself,
/// the QP transport contract (if declared), the preset floorplan the shell
/// would be built on, and the post-synthesis netlists of every service
/// block it instantiates.
pub fn lint_shell_spec(spec: &ShellSpec) -> Report {
    let mut report = Report::new();
    let unit = spec.name.as_str();

    let cfg = match spec.to_shell_config() {
        Ok(cfg) => cfg,
        Err(e) => {
            report.push(Diagnostic::new(
                "CF005",
                Severity::Error,
                Location::new(format!("config:{unit}"), "shell"),
                format!("unusable shell spec: {e}"),
            ));
            return report;
        }
    };

    report.extend(lint_shell(unit, &cfg));
    if let Some(qp) = spec.qp_spec() {
        report.extend(lint_qp(unit, &qp));
    }

    // Deeper artifact checks only make sense for a schedulable shell.
    if (1..=10).contains(&cfg.n_vfpgas) {
        let device = Device::new(cfg.device);
        let fp = Floorplan::preset(cfg.device, cfg.profile(), cfg.n_vfpgas);
        report.extend(lint_floorplan(&fp, &device, &[]));
        for block in cfg.service_blocks() {
            report.extend(lint_netlist(&block.synthesize()));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> ShellSpec {
        ShellSpec::from_json(text).unwrap()
    }

    #[test]
    fn realistic_spec_lints_without_errors() {
        let s = spec(
            r#"{
                "name": "full", "device": "u55c", "n_vfpgas": 4,
                "memory_channels": 32, "networking": true, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 16, "node_id": 1,
                "qp": { "mtu": 4096, "window": 64, "max_msg_bytes": 262144,
                        "ack_on_window_fill": true }
            }"#,
        );
        let r = lint_shell_spec(&s);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn deadlock_prone_spec_is_refused() {
        let s = spec(
            r#"{
                "name": "pre-fix", "device": "u55c", "n_vfpgas": 1,
                "memory_channels": 0, "networking": true, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
                "qp": { "mtu": 4096, "window": 64, "max_msg_bytes": 1048576,
                        "ack_on_window_fill": false }
            }"#,
        );
        let r = lint_shell_spec(&s);
        assert_eq!(r.of_rule("CF001").count(), 1);
        assert!(r.has_errors());
    }

    #[test]
    fn unknown_device_reported_not_panicked() {
        let s = spec(
            r#"{
                "name": "bad", "device": "stratix10", "n_vfpgas": 1,
                "memory_channels": 0, "networking": false, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 0, "node_id": 1
            }"#,
        );
        let r = lint_shell_spec(&s);
        assert_eq!(r.of_rule("CF005").count(), 1);
    }
}
