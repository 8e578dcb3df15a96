//! The rule catalog: every design rule `coyote-lint` knows, with its id,
//! layer, default severity and rationale.
//!
//! Rule ids are stable; tooling (CI gates, allow/deny lists, golden tests)
//! keys on them. The catalog is data, not behavior — the checks themselves
//! live in the per-layer modules.
//!
//! Every error-severity rule renders a refusal of the runtime and names
//! it in its description; FP007 and CF007 are warnings the runtime does
//! not judge.
//!
//! Retired ids are not reused. DS001–DS003 and DS005–DS007 checked the
//! event engine's recorded traces and IPA002 its cross-shard posts; they
//! went with the engine. SRC001–SRC007 and IPA001/IPA003–IPA005 checked
//! the workspace's own Rust for determinism hazards; `clippy.toml` and
//! the workspace clippy lints gate those now (see DESIGN.md). CF001 (ACK
//! starvation) and CF009 (completion ring smaller than the batches in
//! flight) were folded into WF001, and WF001 was retired in turn: the
//! runtime queue pair always ACKs on window fill, and the completion ring
//! has one fixed size, so only the caller's frames per run can make a
//! batch outgrow it, and no spec declares those. NL001–NL007 (netlist),
//! BS001–BS006 (bitstream), CF008 (fault plan against a retry budget) and
//! DS004 (fault-trace merge order) judged artifacts no run hands to the
//! linter. PG001–PG002 (tenant graph construction), WF002–WF004 (zero
//! capacity, orphaned and cross-tenant waits), CAP001–CAP003 (declared
//! tenant rates) and ISO001–ISO002 (tenant isolation) judged tenant
//! declarations no runtime struct holds and no run loads.

use crate::diag::Severity;

/// Which layer of the stack a rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Partition geometry of the shell's preset floorplan (`coyote-fabric`).
    Floorplan,
    /// Shell / QP / MMU configuration (`coyote`, `coyote-net`,
    /// `coyote-mmu`).
    Config,
}

impl Layer {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Floorplan => "floorplan",
            Layer::Config => "config",
        }
    }
}

/// Catalog entry for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier.
    pub id: &'static str,
    /// Layer the rule inspects.
    pub layer: Layer,
    /// Default severity.
    pub severity: Severity,
    /// One-line rationale.
    pub description: &'static str,
}

/// Every rule, ordered by layer then id.
pub const CATALOG: &[RuleInfo] = &[
    // --- Floorplan ---------------------------------------------------
    RuleInfo {
        id: "FP007",
        layer: Layer::Floorplan,
        severity: Severity::Warning,
        description:
            "vFPGA region straddles a clock-region boundary without spanning whole regions",
    },
    // --- Config ------------------------------------------------------
    RuleInfo {
        id: "CF002",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "MTU out of range (1..=4096) or not a power of two: QpConfig::validate \
             refuses it, and so does Platform::rdma_create_qp",
    },
    RuleInfo {
        id: "CF003",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "retransmission window of zero packets: QpConfig::validate refuses it, and \
             so does Platform::rdma_create_qp",
    },
    RuleInfo {
        id: "CF004",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "TLB geometry broken (non-power-of-two sets, zero ways, sTLB page >= lTLB \
             page, or SRAM beyond the device): ShellConfig::validate refuses it, and so does \
             Platform::load",
    },
    RuleInfo {
        id: "CF005",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "shell can never schedule (vFPGA, stream, channel or service counts): \
             ShellConfig::validate refuses it, and so does Platform::load",
    },
    RuleInfo {
        id: "CF006",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "service blocks overflow the implied floorplan's service band: the build \
             flow's fit check refuses them",
    },
    RuleInfo {
        id: "CF007",
        layer: Layer::Config,
        severity: Severity::Warning,
        description: "oversized TLB SRAM budget (exceeds the on-chip SRAM the MMU model assumes)",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.id == id)
}

/// Render the catalog as a table (the CLI's `--catalog`).
pub fn render_catalog() -> String {
    let mut out = String::from("ID      LAYER      SEVERITY  DESCRIPTION\n");
    for r in CATALOG {
        out.push_str(&format!(
            "{:<7} {:<10} {:<9} {}\n",
            r.id,
            r.layer.name(),
            r.severity.to_string(),
            r.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_unique_and_ordered() {
        let ids: Vec<&str> = CATALOG.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), CATALOG.len(), "duplicate rule id");
    }

    #[test]
    fn every_error_rule_names_its_runtime_refusal() {
        for r in CATALOG.iter().filter(|r| r.severity == Severity::Error) {
            assert!(r.description.contains("refuses"), "{}", r.id);
        }
    }

    #[test]
    fn lookup_works() {
        assert_eq!(rule("CF002").unwrap().layer, Layer::Config);
        assert!(rule("ZZ999").is_none());
        assert!(render_catalog().contains("CF002"));
    }
}
