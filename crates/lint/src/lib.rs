#![forbid(unsafe_code)]
//! `coyote-lint`: the shell verifier.
//!
//! Every other crate in the workspace *executes* the model. This crate
//! *judges* the shell specification a node is about to run, before
//! anything is built or loaded, and it does so by asking the runtime:
//!
//! * [`lint_shell`] / [`lint_qp`] — configurations the runtime refuses,
//!   rendered from its own checks (`ShellConfig::validate`,
//!   `QpConfig::validate` and the build flows' fit check): CF002–CF006,
//!   plus the CF007 SRAM warning.
//! * [`lint_floorplan`] — clock-region discipline of the vFPGA regions
//!   (FP007, a warning).
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
pub mod rules;
pub mod shellspec;

pub use config::{lint_qp, lint_shell};
pub use diag::{Diagnostic, LintConfig, Location, Report, Severity};
pub use floorplan::lint_floorplan;
pub use rules::{render_catalog, rule, Layer, RuleInfo, CATALOG};
pub use shellspec::{QpSpec, ShellSpec};

/// Lint everything a shell specification implies, in one report: the
/// configuration itself, the QP parameters (if declared) and the preset
/// floorplan the shell would be built on.
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
            report.extend(lint_shell(unit, &cfg));
            if let Some(qp) = &spec.qp {
                report.extend(lint_qp(unit, qp));
            }
            // `Floorplan::preset` panics on a vFPGA count that `validate`
            // refuses (CF005).
            if cfg.validate().is_ok() {
                report.extend(lint_floorplan(&cfg.floorplan()));
            }
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
                "qp": { "mtu": 4096, "window": 64 }
            }"#,
        );
        let r = lint_shell_spec(&s);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn deadlock_prone_spec_is_refused() {
        // Batches of 8 runs against a 4-slot completion ring. The ring has
        // one fixed size now, so a spec that still sizes it is refused at
        // parse, naming the key, before anything is linted or loaded.
        let err = ShellSpec::from_json(
            r#"{
                "name": "ring", "device": "u55c", "n_vfpgas": 1,
                "memory_channels": 0, "networking": false, "sniffer": false,
                "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
                "reconfig": { "ring_slots": 4, "max_batch_runs": 8 }
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown key `reconfig`"), "{err}");
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
