//! Whole-platform static analysis: one typed resource graph per shell
//! deployment, three cross-layer rule families on top of it.
//!
//! * [`graph`] — builds the [`PlatformGraph`] from everything the linter
//!   already parses (shell config, reconfiguration control plane, credit
//!   pools, MMU geometry, QP contract, the optional `platform` tenancy
//!   section), reporting PG001/PG002 construction problems.
//! * [`waitfor`] — WF001–WF004: global hold-and-wait cycles and the
//!   degenerate waits (zero-capacity, orphaned, cross-tenant).
//! * [`capacity`] — CAP001–CAP003: advisory min-cut and queue-sizing
//!   feasibility against the calibrated platform rates.
//! * [`tenancy`] — ISO001–ISO002: tenant isolation by reachability.
//!
//! Entry point: [`lint_platform`], which [`crate::lint_shell_spec`] runs
//! on every spec after the config and floorplan rules.

pub mod capacity;
pub mod graph;
pub mod tenancy;
pub mod waitfor;

pub use graph::{build_platform_graph, Edge, EdgeKind, Node, NodeKind, PlatformGraph};

use crate::diag::Report;
use crate::shellspec::ShellSpec;

/// Build the platform graph for `spec` and run every platform rule family
/// (PG, WF, CAP, ISO) on it.
pub fn lint_platform(spec: &ShellSpec) -> Report {
    let (g, mut report) = build_platform_graph(spec);
    report.extend(waitfor::check(&g));
    report.extend(capacity::check(spec, &g));
    report.extend(tenancy::check(spec, &g));
    report
}
