//! Configuration lints: the shell and QP checks.
//!
//! Every error-severity rule here renders a refusal of the runtime rather
//! than re-deriving it, so a rule and the component it guards cannot
//! drift apart:
//!
//! * CF004/CF005 are the [`ConfigError`]s of `ShellConfig::validate`,
//!   which `Platform::load` and a shell swap refuse with.
//! * CF002/CF003 are the [`QpConfigError`]s of `QpConfig::validate`,
//!   which `Platform::rdma_create_qp` refuses with.
//! * CF006 is the build flows' pre-placement fit check on the service
//!   blocks ([`check_service_fit`]).
//!
//! CF007, a warning, is the one judgement the runtime does not make.

use crate::diag::{Diagnostic, Location, Report, Severity};
use crate::shellspec::QpSpec;
use coyote::build::check_service_fit;
use coyote::config::{ConfigError, ShellConfig};
use coyote_net::QpConfigError;
use coyote_sim::params::ROCE_MTU;

fn loc(unit: &str, path: &str) -> Location {
    Location::new(format!("config:{unit}"), path)
}

/// Lint one QP's transport parameters (CF002, CF003).
pub fn lint_qp(unit: &str, qp: &QpSpec) -> Report {
    let mut report = Report::new();
    if let Err(e) = qp.to_qp_config().validate() {
        let d = match e {
            QpConfigError::BadMtu(_) => {
                Diagnostic::new("CF002", Severity::Error, loc(unit, "qp.mtu"), e.to_string())
                    .with_suggestion(format!("use the RoCE default of {ROCE_MTU}"))
            }
            QpConfigError::ZeroWindow => Diagnostic::new(
                "CF003",
                Severity::Error,
                loc(unit, "qp.window"),
                e.to_string(),
            ),
        };
        report.push(d);
    }
    report
}

/// Lint a full shell configuration (CF004–CF007).
pub fn lint_shell(unit: &str, cfg: &ShellConfig) -> Report {
    let mut report = Report::new();

    let valid = cfg.validate();
    if let Err(e) = &valid {
        let (rule, path) = match e {
            ConfigError::BadTlbGeometry { tlb, .. } => ("CF004", format!("mmu.{tlb}")),
            ConfigError::TlbPagesInverted { .. } | ConfigError::TlbTooLarge { .. } => {
                ("CF004", "mmu".to_string())
            }
            ConfigError::BadVfpgaCount(_)
            | ConfigError::SnifferWithoutNetwork
            | ConfigError::BadStreamCount(_)
            | ConfigError::BadCardStreamCount(_)
            | ConfigError::TooManyChannels(_) => ("CF005", "shell".to_string()),
        };
        report.push(
            Diagnostic::new(
                rule,
                Severity::Error,
                loc(unit, &path),
                format!("Platform::load refuses this shell: {e}"),
            )
            .with_suggestion("fix the field named in the message"),
        );
    }

    // CF007: SRAM budget. The synthesis resource model charges BRAM for the
    // TLB SRAM; past ~16 Mbit the MMU alone starves the service band.
    const SRAM_BUDGET_BITS: u64 = 16 << 20;
    let bits = cfg.mmu.sram_bits();
    if bits > SRAM_BUDGET_BITS {
        report.push(
            Diagnostic::new(
                "CF007",
                Severity::Warning,
                loc(unit, "mmu"),
                format!(
                    "TLB SRAM of {bits} bits exceeds the {SRAM_BUDGET_BITS}-bit on-chip budget \
                     the MMU model assumes"
                ),
            )
            .with_suggestion("shrink sets/ways; hit rate saturates well below this size"),
        );
    }

    // CF006: only a shell `validate` accepts has a floorplan to fit.
    if valid.is_ok() {
        if let Err(e) = check_service_fit(cfg) {
            report.push(
                Diagnostic::new(
                    "CF006",
                    Severity::Error,
                    loc(unit, "shell.services"),
                    format!(
                        "the build flow refuses the {:?} service band: {e}",
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

    fn qp(mtu: u64, window: u64) -> QpSpec {
        QpSpec { mtu, window }
    }

    #[test]
    fn default_qp_spec_is_clean() {
        assert!(lint_qp("t", &qp(ROCE_MTU as u64, 64)).is_clean());
    }

    #[test]
    fn bad_mtu_and_window_flagged() {
        for mtu in [0, 3000, 8192] {
            let r = lint_qp("t", &qp(mtu, 64));
            assert_eq!(r.of_rule("CF002").count(), 1, "{mtu}");
        }
        assert_eq!(lint_qp("t", &qp(4096, 0)).of_rule("CF003").count(), 1);
    }

    #[test]
    fn tlb_geometry_rules() {
        // A host-only shell has no MMU service block, so the SRAM budget
        // case below stays clear of CF006.
        let mmu = |f: fn(&mut ShellConfig)| {
            let mut cfg = ShellConfig::host_only(1);
            f(&mut cfg);
            lint_shell("t", &cfg)
        };
        assert!(mmu(|_| {}).is_clean());

        let r = mmu(|c| c.mmu.stlb.sets = 100); // not a power of two
        let hits: Vec<_> = r.of_rule("CF004").collect();
        assert_eq!(hits.len(), 1, "{}", r.render_human());
        assert_eq!(hits[0].location.path, "mmu.stlb");

        let r = mmu(|c| c.mmu.stlb.page = coyote_mem::PageSize::Huge1G);
        assert_eq!(r.of_rule("CF004").count(), 1);

        let r = mmu(|c| {
            c.mmu.stlb.sets = 1 << 16;
            c.mmu.stlb.ways = 8;
        });
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
    fn unschedulable_shell_flagged() {
        let r = lint_shell("t", &ShellConfig::host_only(0));
        assert_eq!(r.of_rule("CF005").count(), 1);

        let mut cfg = ShellConfig::host_only(2);
        cfg.n_card_streams = 30;
        assert_eq!(lint_shell("t", &cfg).of_rule("CF005").count(), 1);
    }
}
