#![forbid(unsafe_code)]
//! `coyote-lint`: the shell verifier.
//!
//! Every other crate in the workspace *executes* the model. This crate
//! *judges* the shell specification a node is about to run, before
//! anything is built or loaded:
//!
//! * [`lint_floorplan`] — clock-region discipline of the vFPGA regions
//!   (FP007).
//! * [`lint_shell`] / [`lint_qp`] / [`lint_mmu`] — configurations that
//!   would fail to schedule or are malformed for the component that runs
//!   them (CF002–CF007).
//! * [`platform`] — the whole-platform analyzer: joins the shell's layers
//!   into one typed resource graph ([`PlatformGraph`]) and runs the
//!   cross-layer families on it — graph construction (PG001–PG002),
//!   global wait-for cycles (WF001–WF004, which subsume the retired pair
//!   checks CF001 and CF009), capacity feasibility (CAP001–CAP003) and
//!   tenant isolation (ISO001–ISO002).
//!
//! [`lint_shell_spec`] runs all of them on one `.json` shell spec, which
//! is what the `coyote-lint` binary does for every spec it is given.
//!
//! The workspace's own Rust is not an input: its determinism hazards
//! (hash-order iteration, wall clock, ambient entropy, atomics, ad-hoc
//! threads, environment reads) are clippy's to find, through the
//! workspace `clippy.toml` and `[workspace.lints.clippy]`.
//!
//! All rules emit [`Diagnostic`]s into a [`Report`]; [`LintConfig`] applies
//! per-rule allow/deny; the `coyote-lint` binary renders reports as text or
//! JSON and exits non-zero on errors, which is how CI gates on it. The full
//! rule catalog lives in [`rules::CATALOG`].

pub mod config;
pub mod diag;
pub mod floorplan;
pub mod platform;
pub mod rules;
pub mod shellspec;

pub use config::{lint_mmu, lint_qp, lint_shell};
pub use diag::{Diagnostic, LintConfig, Location, Report, Severity};
pub use floorplan::lint_floorplan;
pub use platform::{build_platform_graph, PlatformGraph};
pub use rules::{render_catalog, rule, Layer, RuleInfo, CATALOG};
pub use shellspec::{QpSpec, ShellSpec};

/// Lint everything a shell specification implies, in one report: the
/// configuration itself, the QP transport contract (if declared), the
/// preset floorplan the shell would be built on, and the platform
/// resource graph with its PG/WF/CAP/ISO rules.
pub fn lint_shell_spec(spec: &ShellSpec) -> Report {
    let mut report = Report::new();
    let unit = spec.name.as_str();

    match spec.to_shell_config() {
        Err(e) => report.push(Diagnostic::new(
            "CF005",
            Severity::Error,
            Location::new(format!("config:{unit}"), "shell"),
            format!("unusable shell spec: {e}"),
        )),
        Ok(cfg) => {
            let shell = lint_shell(unit, &cfg);
            let accepted = !shell.has_errors();
            report.extend(shell);
            if let Some(qp) = &spec.qp {
                report.extend(lint_qp(unit, qp));
            }
            // Only a shell the config rules accept has a floorplan to
            // judge: `Floorplan::preset` panics on a vFPGA count that
            // `validate` refuses (CF005).
            if accepted {
                report.extend(lint_floorplan(&cfg.floorplan()));
            }
        }
    }
    report.extend(platform::lint_platform(spec));
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
        // 1 MB messages over a 64 x 4096-byte window with end-of-message
        // ACKs: the sender starves, which the spec lint reports as the
        // WF001 cycle through the RDMA sender.
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
        let hits: Vec<_> = r.of_rule("WF001").collect();
        assert_eq!(hits.len(), 1, "{}", r.render_human());
        assert_eq!(hits[0].location.path, "cycle(rdma.sender)");
        assert!(r.has_errors());
    }

    #[test]
    fn a_rejected_shell_is_not_synthesized() {
        // `n_vfpgas` is in range, so only `validate` knows this shell is
        // unschedulable; CF006 must not size the service blocks of a memory
        // controller with that many channels.
        for channels in ["100000000", "18446744073709551615"] {
            let s = spec(&format!(
                r#"{{
                    "name": "huge", "device": "u55c", "n_vfpgas": 2,
                    "memory_channels": {channels}, "networking": false,
                    "sniffer": false, "n_host_streams": 4, "n_card_streams": 0,
                    "node_id": 1
                }}"#
            ));
            let r = lint_shell_spec(&s);
            assert_eq!(r.of_rule("CF005").count(), 1, "{}", r.render_human());
            assert_eq!(r.diagnostics.len(), 1, "{}", r.render_human());
        }
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
