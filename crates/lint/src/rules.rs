//! The rule catalog: every design rule `coyote-lint` knows, with its id,
//! layer, default severity and rationale.
//!
//! Rule ids are stable; tooling (CI gates, allow/deny lists, golden tests)
//! keys on them. The catalog is data, not behavior — the checks themselves
//! live in the per-layer modules.
//!
//! Retired ids are not reused. DS001–DS003 and DS005–DS007 checked the
//! event engine's recorded traces and IPA002 its cross-shard posts; they
//! went with the engine. SRC001–SRC007 and IPA001/IPA003–IPA005 checked
//! the workspace's own Rust for determinism hazards; `clippy.toml` and
//! the workspace clippy lints gate those now (see DESIGN.md). CF001 (ACK
//! starvation) and CF009 (completion ring smaller than the batches in
//! flight) were pair checks for two cycles of the platform wait-for graph
//! and are reported as WF001 at `platform:<spec>` / `cycle(rdma.sender)`
//! and `cycle(software)`. NL001–NL007 (netlist), BS001–BS006 (bitstream),
//! CF008 (fault plan against a retry budget) and DS004 (fault-trace merge
//! order) judged artifacts no run hands to the linter. The netlist
//! generator cannot emit the NL violations; the loader's
//! `Bitstream::validate` and the configuration port refuse malformed and
//! wrong-device images; no run combines fault traces. Every rule left
//! fires on a shell spec.

use crate::diag::Severity;

/// Which layer of the stack a rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Partition geometry of the shell's preset floorplan (`coyote-fabric`).
    Floorplan,
    /// Shell / QP / MMU configuration (`coyote`, `coyote-net`, `coyote-mmu`).
    Config,
    /// The joined cross-layer platform resource graph (every shell spec).
    Platform,
}

impl Layer {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Floorplan => "floorplan",
            Layer::Config => "config",
            Layer::Platform => "platform",
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
        description: "MTU out of range (1..=4096) or not a power of two",
    },
    RuleInfo {
        id: "CF003",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "retransmission window of zero packets (flow can never start)",
    },
    RuleInfo {
        id: "CF004",
        layer: Layer::Config,
        severity: Severity::Error,
        description:
            "TLB geometry broken: non-power-of-two sets, zero ways, or sTLB page >= lTLB page",
    },
    RuleInfo {
        id: "CF005",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "shell can never schedule: invalid vFPGA/stream/channel/service combination",
    },
    RuleInfo {
        id: "CF006",
        layer: Layer::Config,
        severity: Severity::Error,
        description: "service set does not fit the shell service band of the implied floorplan",
    },
    RuleInfo {
        id: "CF007",
        layer: Layer::Config,
        severity: Severity::Warning,
        description: "oversized TLB SRAM budget (exceeds the on-chip SRAM the MMU model assumes)",
    },
    // --- Platform (cross-layer resource graph) -----------------------
    RuleInfo {
        id: "PG001",
        layer: Layer::Platform,
        severity: Severity::Error,
        description:
            "graph construction conflict: duplicate tenant name or one vFPGA region claimed \
             by two tenants",
    },
    RuleInfo {
        id: "PG002",
        layer: Layer::Platform,
        severity: Severity::Error,
        description:
            "dangling reference: a tenant names a region, stream target or service the shell \
             does not have",
    },
    RuleInfo {
        id: "WF001",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "hold-and-wait cycle in the global wait-for graph: a chain of resources and \
             actors waits back on itself (covers the retired CF001 ACK starvation and CF009 \
             ring sizing)",
    },
    RuleInfo {
        id: "WF002",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "unsatisfiable wait: a party waits on a resource with zero capacity",
    },
    RuleInfo {
        id: "WF003",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "orphaned wait: a party waits on a producer this shell never instantiates",
    },
    RuleInfo {
        id: "WF004",
        layer: Layer::Platform,
        severity: Severity::Error,
        description:
            "cross-tenant hold-and-wait: a tenant holds its own resources while waiting on \
             another tenant's",
    },
    RuleInfo {
        id: "CAP001",
        layer: Layer::Platform,
        severity: Severity::Warning,
        description: "declared tenant rate exceeds the min-cut of its path (host link, memory \
             channels, RoCE link at the tenant's share)",
    },
    RuleInfo {
        id: "CAP002",
        layer: Layer::Platform,
        severity: Severity::Warning,
        description: "aggregate reconfiguration demand exceeds the ICAP beat rate: batches queue \
             without bound",
    },
    RuleInfo {
        id: "CAP003",
        layer: Layer::Platform,
        severity: Severity::Warning,
        description: "RDMA window below the declared rate's bandwidth-delay product: the flow \
             stalls-and-bursts under its promise",
    },
    RuleInfo {
        id: "ISO001",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "tenant data flow reaches another tenant's resource (reachability over the \
             feeds subgraph, path printed)",
    },
    RuleInfo {
        id: "ISO002",
        layer: Layer::Platform,
        severity: Severity::Error,
        description: "two tenants use a shell service the platform never declared shared \
             (undeclared contention / covert channel)",
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
    fn lookup_works() {
        assert_eq!(rule("WF001").unwrap().layer, Layer::Platform);
        assert!(rule("ZZ999").is_none());
        assert!(render_catalog().contains("CF002"));
    }
}
