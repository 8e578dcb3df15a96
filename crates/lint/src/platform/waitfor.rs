//! Wait-for-graph rules (WF001–WF004): global hold-and-wait analysis.
//!
//! WF001 finds arbitrary-length cycles over the `waits-on` subgraph: *any*
//! configuration in which a chain of resources and actors waits back on
//! itself is a deadlock some legal workload can reach, and the diagnostic
//! prints the whole chain, edge by edge, with the reason each wait exists.
//! It subsumes the two pair checks that used to report the same hazards
//! under their own ids: CF001 (ACK starvation) is the `rdma.sender ->
//! rdma.window -> rdma.ack` cycle and CF009 (ring smaller than the batches
//! in flight) the `software -> reconfig.doorbell -> reconfig.engine ->
//! reconfig.ring` cycle. Their fixes now ride on the configuration-
//! dependent edge of each cycle (`qp.ack_on_window_fill` /
//! `qp.max_msg_bytes`, and the minimum `reconfig.ring_slots`).
//!
//! WF002–WF004 catch the degenerate waits a cycle search
//! cannot: waits that are unsatisfiable from the start (zero capacity),
//! waits on producers the shell never instantiates, and hold-and-wait
//! chains that cross a tenant boundary.
//!
//! These are deny rules and deliberately over-approximate (see the
//! soundness note in [`super::graph`]): every flagged cycle is reachable
//! by some workload the configuration permits, so the fix is always to
//! change the configuration, not to hope the workload stays friendly.

use super::graph::{EdgeKind, PlatformGraph};
use crate::diag::{Diagnostic, Location, Report, Severity};

/// Run WF001–WF004 on a built platform graph.
pub fn check(g: &PlatformGraph) -> Report {
    let mut report = Report::new();
    let loc = |path: String| Location::new(g.unit().to_string(), path);

    // ---------------------------------------------------------- WF001
    // Cycle detection over the waits-on subgraph. Graphs are tiny (tens
    // of nodes), so a DFS from every node with an explicit path stack is
    // plenty; cycles are canonicalized by rotating the smallest node index
    // first and deduplicated, so each loop is reported exactly once.
    let n = g.nodes().len();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (to, edge idx)
    for (idx, e) in g.edges().iter().enumerate() {
        if e.kind == EdgeKind::WaitsOn {
            adj[e.from].push((e.to, idx));
        }
    }
    let mut seen_cycles: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        // Iterative DFS carrying the current path of (node, edge-into-node).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path: Vec<usize> = vec![start];
        let mut on_path = vec![false; n];
        on_path[start] = true;
        let mut path_edges: Vec<usize> = Vec::new();
        while let Some((node, next)) = stack.last_mut() {
            if let Some(&(to, edge)) = adj[*node].get(*next) {
                *next += 1;
                if on_path[to] {
                    // Found a cycle: the path suffix from `to` onward.
                    let pos = path.iter().position(|&p| p == to).expect("on path");
                    let mut cycle: Vec<usize> = path[pos..].to_vec();
                    let mut cycle_edges: Vec<usize> = path_edges[pos..].to_vec();
                    cycle_edges.push(edge);
                    // Canonical rotation: smallest node index first.
                    let min_pos = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &v)| v)
                        .map(|(i, _)| i)
                        .expect("non-empty cycle");
                    cycle.rotate_left(min_pos);
                    cycle_edges.rotate_left(min_pos);
                    if !seen_cycles.contains(&cycle) {
                        seen_cycles.push(cycle.clone());
                        let chain: Vec<&str> = cycle
                            .iter()
                            .chain(cycle.first())
                            .map(|&i| g.nodes()[i].id.as_str())
                            .collect();
                        let mut msg = format!(
                            "hold-and-wait cycle: {} — no participant can ever proceed",
                            chain.join(" -> ")
                        );
                        for &ei in &cycle_edges {
                            let e = &g.edges()[ei];
                            msg.push_str(&format!(
                                "\n      {} -> {}: {}",
                                g.nodes()[e.from].id,
                                g.nodes()[e.to].id,
                                e.why
                            ));
                        }
                        report.push(
                            Diagnostic::new(
                                "WF001",
                                Severity::Error,
                                loc(format!("cycle({})", g.nodes()[cycle[0]].id)),
                                msg,
                            )
                            .with_suggestion(
                                "break any edge of the cycle; an edge that exists because of \
                                 a configuration value names its fix above",
                            ),
                        );
                    }
                } else {
                    on_path[to] = true;
                    path.push(to);
                    path_edges.push(edge);
                    stack.push((to, 0));
                }
            } else {
                let (done, _) = stack.pop().expect("stack non-empty");
                on_path[done] = false;
                path.pop();
                path_edges.pop();
            }
        }
    }

    // ------------------------------------------------- WF002 / WF003 / WF004
    for e in g.edges_of(EdgeKind::WaitsOn) {
        let from = &g.nodes()[e.from];
        let to = &g.nodes()[e.to];

        // WF002: a wait on a zero-capacity resource can never be satisfied.
        if to.instantiated && to.capacity == Some(0) {
            report.push(
                Diagnostic::new(
                    "WF002",
                    Severity::Error,
                    loc(to.id.clone()),
                    format!(
                        "unsatisfiable wait: '{}' waits on '{}' which has zero capacity ({})",
                        from.id, to.id, e.why
                    ),
                )
                .with_suggestion("give the resource a non-zero capacity"),
            );
        }

        // WF003: a wait on a producer this shell never instantiates.
        if !to.instantiated {
            report.push(
                Diagnostic::new(
                    "WF003",
                    Severity::Error,
                    loc(to.id.clone()),
                    format!(
                        "orphaned wait: '{}' waits on '{}', which this shell never \
                         instantiates ({})",
                        from.id, to.id, e.why
                    ),
                )
                .with_suggestion("enable the service the wait depends on, or drop the consumer"),
            );
        }

        // WF004: hold-and-wait across a tenant boundary — the waiter holds
        // a resource of its own tenant while waiting on another tenant's.
        if let (Some(own), Some(theirs)) = (&from.owner, &to.owner) {
            if own != theirs {
                let holds_own = g.edges_of(EdgeKind::Holds).any(|h| {
                    h.from == e.from && g.nodes()[h.to].owner.as_deref() == Some(own.as_str())
                });
                if holds_own {
                    report.push(
                        Diagnostic::new(
                            "WF004",
                            Severity::Error,
                            loc(to.id.clone()),
                            format!(
                                "cross-tenant hold-and-wait: '{}' (tenant '{own}') holds its \
                                 own resources while waiting on '{}' (tenant '{theirs}') — \
                                 {}",
                                from.id, to.id, e.why
                            ),
                        )
                        .with_suggestion(
                            "keep streams inside the tenant's own regions, or route \
                             cross-tenant traffic through a declared shared service",
                        ),
                    );
                }
            }
        }
    }

    report
}
