//! DES determinism analysis: the happens-before checker over a recorded
//! [`ShardTrace`].
//!
//! The engine runs same-instant events on one shard in [`EventKey`] order,
//! `(priority, domain, target, origin, origin_seq)`: declared fields order
//! every case they distinguish, and only events that tie on all three fall
//! back to scheduling order. That order is deterministic for one binary,
//! but it is an accident of model construction: two semantically
//! equivalent programs (or one program after a refactor) can schedule the
//! same events in a different order and silently compute different
//! results. The rules flag the schedules whose outcome *depends* on it:
//!
//! * **DS001** — same-instant events on one shard tie on
//!   `(priority, domain, target)` with the target declared: they touch the
//!   same model object and whichever was scheduled first wins.
//! * **DS002** — the same tie with no target declared, so disjointness
//!   cannot be established. Informational: the events may well be
//!   independent, but nothing proves it.
//! * **DS004** — a merged fault trace whose events are out of canonical
//!   `(domain, op)` order: someone concatenated per-worker traces instead
//!   of going through [`coyote_chaos::FaultTrace::merged`], so the trace
//!   (and its published FNV-64 hash) depends on collection order.
//! * **DS006** — an event crossing a shard-domain boundary with a delay
//!   below the declared link lookahead. The lookahead is the model's
//!   declared minimum latency of the path between two domains, and a
//!   strictly positive one is what keeps each shard executing its own
//!   events in `EventKey` order; an event that undercuts its link breaks
//!   that declaration (the engine's `post_after` refuses it, so a trace
//!   that shows one was built around the shard API).
//! * **DS007** — replay divergence: two runs of one recorded workload
//!   disagree on an event. The determinism contract says the same config
//!   executes the same events in the same order, so any disagreement is a
//!   happens-before violation upstream of the first divergent `EventKey`.
//!   `coyote-replay bisect` finds that key and reports it through this rule.
//!
//! DS003 (distinct targets sharing a domain) and DS005 (pops contradicting
//! declared priorities) are retired: [`EventKey`] orders distinct targets
//! by target id and distinct priorities by priority, so neither hazard can
//! occur on the engine.
//!
//! [`EventKey`]: coyote_sim::EventKey

use crate::diag::{Diagnostic, Location, Report, Severity};
use coyote_chaos::FaultTrace;
use coyote_sim::{ShardId, ShardTrace, ShardTraceEntry, SimDuration};
use std::collections::BTreeMap;

fn loc(unit: &str, at_ps: u64) -> Location {
    Location::new(format!("trace:{unit}"), format!("t={at_ps}ps"))
}

/// Analyze one recorded event trace for scheduling-order ties (DS001,
/// DS002).
pub fn lint_trace(unit: &str, trace: &ShardTrace) -> Report {
    let mut report = Report::new();

    // Group by (instant, shard) and the declared fields of the engine's
    // order. BTreeMap keeps diagnostics in time order.
    type Tie = (u64, ShardId, u8, u64, u64);
    let mut ties: BTreeMap<Tie, Vec<&ShardTraceEntry>> = BTreeMap::new();
    for e in trace.entries() {
        let k = e.event_key();
        ties.entry((e.at_ps, e.shard, k.priority, k.domain, k.target))
            .or_default()
            .push(e);
    }

    for ((at_ps, shard, ..), group) in ties {
        if group.len() < 2 {
            continue;
        }
        let origins: Vec<String> = group
            .iter()
            .map(|e| format!("{}#{}", e.origin, e.origin_seq))
            .collect();
        let origins = origins.join(", ");
        let n = group.len();
        let target = group[0]
            .target
            .filter(|_| group.iter().all(|e| e.target.is_some()));
        report.push(match target {
            Some(target) => Diagnostic::new(
                "DS001",
                Severity::Error,
                loc(unit, at_ps),
                format!(
                    "{n} events at t={at_ps}ps on shard {shard} target object {target} and tie \
                     on priority and domain (origins {origins}); execution order is an \
                     accident of scheduling order"
                ),
            )
            .with_suggestion("give these events distinct priorities (EventTag::priority)"),
            None => Diagnostic::new(
                "DS002",
                Severity::Info,
                loc(unit, at_ps),
                format!(
                    "{n} events at t={at_ps}ps on shard {shard} declare no target and tie on \
                     priority and domain (origins {origins}); cannot prove the schedule is \
                     order-independent"
                ),
            ),
        });
    }

    report
}

/// DS006: verify cross-shard events respect the declared link lookaheads.
///
/// `lookaheads` is the topology's declaration table as produced by
/// `coyote_sim::Topology::lookahead_decls`: `(src domain, dst domain,
/// lookahead)` per directed link. Every entry whose `src_domain` differs
/// from its `domain` crossed a shard boundary; its scheduling delay
/// `at - posted_at` must be at least the declared lookahead of that link
/// (error), and the link itself must be declared at all (warning) —
/// otherwise the crossing is faster than, or absent from, the model's
/// declared latencies.
pub fn lint_shard_lookahead(
    unit: &str,
    trace: &ShardTrace,
    lookaheads: &[(u64, u64, SimDuration)],
) -> Report {
    let mut report = Report::new();
    for (i, e) in trace.entries().iter().enumerate() {
        let (Some(src), Some(dst)) = (e.src_domain, e.domain) else {
            continue;
        };
        if src == dst {
            continue; // Local events need no link.
        }
        let declared = lookaheads
            .iter()
            .find(|&&(s, d, _)| s == src && d == dst)
            .map(|&(_, _, l)| l);
        let delay = SimDuration(e.at_ps.saturating_sub(e.posted_at_ps));
        match declared {
            None => report.push(
                Diagnostic::new(
                    "DS006",
                    Severity::Warning,
                    loc(unit, e.at_ps),
                    format!(
                        "event[{i}] crossed shard domains {src:#x} -> {dst:#x} with no \
                         declared link lookahead; the topology promises no minimum latency \
                         for it"
                    ),
                )
                .with_suggestion("declare the link (and its lookahead) in the shard topology"),
            ),
            Some(lookahead) if delay < lookahead => report.push(
                Diagnostic::new(
                    "DS006",
                    Severity::Error,
                    loc(unit, e.at_ps),
                    format!(
                        "event[{i}] crossed shard domains {src:#x} -> {dst:#x} with delay \
                         {delay} below the declared link lookahead {lookahead}; it is faster \
                         than the link's declared minimum latency"
                    ),
                )
                .with_suggestion(
                    "post with at least the link lookahead, or shrink the declared lookahead \
                     to the true minimum latency of the path",
                ),
            ),
            Some(_) => {}
        }
    }
    report
}

/// DS004: verify a fault trace is in the canonical merge order.
///
/// [`FaultTrace::merged`] sorts events by `(domain tag, op)` so the merged
/// trace — and the FNV-64 hash CI publishes — is independent of which worker
/// finished first. A trace assembled by plain concatenation breaks that
/// contract; this rule catches it after the fact.
pub fn lint_fault_trace(unit: &str, trace: &FaultTrace) -> Report {
    let mut report = Report::new();
    let events = trace.events();
    for (i, pair) in events.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        if (a.domain.tag(), a.op) > (b.domain.tag(), b.op) {
            report.push(
                Diagnostic::new(
                    "DS004",
                    Severity::Error,
                    Location::new(format!("trace:{unit}"), format!("event[{}]", i + 1)),
                    format!(
                        "fault trace leaves canonical (domain, op) order at event {}: \
                         ({}, op={}) follows ({}, op={}); the trace hash depends on \
                         collection order",
                        i + 1,
                        b.domain.name(),
                        b.op,
                        a.domain.name(),
                        a.op,
                    ),
                )
                .with_suggestion("combine per-domain traces with FaultTrace::merged"),
            );
        }
    }
    report
}

/// DS007: render a replay divergence found by `coyote-replay bisect` as a
/// lint diagnostic.
///
/// The bisector does the search; this function owns the diagnostic shape so
/// replay divergences render exactly like every other determinism finding
/// (same `trace:<unit>` / `t=<ps>ps` location grammar, same report/JSON
/// plumbing, same golden-test coverage). Inputs are plain fields so the
/// replay crate can depend on lint without lint depending back:
///
/// * `unit` — the recorded workload (e.g. `platform-storm`).
/// * `index` — index of the first divergent event in the canonical trace.
/// * `at_ps` — timestamp of the expected event at that index.
/// * `detail` — rendered expected-vs-actual comparison.
/// * `suspects` — the rule families the field-level diff implicates
///   (e.g. `["DS001", "DS002"]` for a same-instant divergence).
pub fn lint_replay_divergence(
    unit: &str,
    index: usize,
    at_ps: u64,
    detail: &str,
    suspects: &[&str],
) -> Report {
    let mut report = Report::new();
    let suggestion = if suspects.is_empty() {
        "re-record both sides and bisect again; if the divergence persists, audit \
         the model change between the two recordings"
            .to_string()
    } else {
        format!(
            "audit the {} rule family at this instant (coyote_lint::lint_trace on \
             the recording's ShardTrace), then re-record",
            suspects.join("/"),
        )
    };
    report.push(
        Diagnostic::new(
            "DS007",
            Severity::Error,
            loc(unit, at_ps),
            format!("replay diverged at event[{index}]: {detail}"),
        )
        .with_suggestion(suggestion),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_chaos::{Domain, FaultKind, TraceKind};
    use coyote_sim::{EventTag, ShardSpec, ShardedSimulation, SimTime, Topology};

    /// Run the events `build` seeds on a one-shard engine (domain 1) and
    /// return the recorded trace.
    fn traced<F: FnOnce(&mut ShardedSimulation<u64>)>(build: F) -> ShardTrace {
        let mut topo = Topology::new();
        topo.add_shard(ShardSpec {
            domain: 1,
            name: "t",
        })
        .unwrap();
        let mut sim = ShardedSimulation::new(topo, vec![0u64]);
        sim.record_trace();
        build(&mut sim);
        sim.run();
        sim.take_trace()
    }

    /// Seed one counting event at `at_ps` with `tag`.
    fn event(sim: &mut ShardedSimulation<u64>, at_ps: u64, tag: EventTag) {
        sim.seed(1, SimTime(at_ps), tag, |w, _| *w += 1).unwrap();
    }

    #[test]
    fn conflicting_untiebroken_events_flagged() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(7));
            event(sim, 500, EventTag::target(7));
        });
        let r = lint_trace("t", &trace);
        assert_eq!(r.of_rule("DS001").count(), 1, "{}", r.render_human());
        assert!(r.has_errors());
    }

    #[test]
    fn distinct_priorities_are_deterministic() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(7).priority(0));
            event(sim, 500, EventTag::target(7).priority(1));
        });
        assert!(lint_trace("t", &trace).is_clean());
    }

    #[test]
    fn equal_priorities_still_hazardous() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(7).priority(3));
            event(sim, 500, EventTag::target(7).priority(3));
        });
        assert_eq!(lint_trace("t", &trace).of_rule("DS001").count(), 1);
    }

    #[test]
    fn disjoint_targets_are_clean() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(1));
            event(sim, 500, EventTag::target(2));
        });
        assert!(lint_trace("t", &trace).is_clean());
    }

    #[test]
    fn untargeted_coincidence_is_info_only() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::default());
            event(sim, 500, EventTag::default());
        });
        let r = lint_trace("t", &trace);
        assert_eq!(r.of_rule("DS002").count(), 1);
        assert_eq!(r.max_severity(), Some(Severity::Info));
    }

    #[test]
    fn distinct_times_never_flagged() {
        let trace = traced(|sim| {
            event(sim, 1, EventTag::default());
            event(sim, 2, EventTag::default());
        });
        assert!(lint_trace("t", &trace).is_clean());
    }

    #[test]
    fn ds003_clean_with_domain_wide_priorities() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(1).priority(0).domain(9));
            event(sim, 500, EventTag::target(2).priority(1).domain(9));
        });
        assert!(lint_trace("t", &trace).is_clean());
    }

    #[test]
    fn ds003_different_domains_are_clean() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(1).domain(9));
            event(sim, 500, EventTag::target(2).domain(10));
        });
        assert!(lint_trace("t", &trace).is_clean());
    }

    #[test]
    fn ds003_same_target_defers_to_ds001() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(1).domain(9));
            event(sim, 500, EventTag::target(1).domain(9));
        });
        assert_eq!(lint_trace("t", &trace).of_rule("DS001").count(), 1);
    }

    #[test]
    fn ds005_clean_when_insertion_matches_priority() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(7).priority(0));
            event(sim, 500, EventTag::target(7).priority(1));
        });
        assert!(lint_trace("t", &trace).is_clean());
    }

    #[test]
    fn ds005_ignores_distinct_targets_and_undeclared_priorities() {
        let trace = traced(|sim| {
            event(sim, 500, EventTag::target(7).priority(1));
            event(sim, 500, EventTag::target(8).priority(0));
            event(sim, 600, EventTag::default());
        });
        let r = lint_trace("t", &trace);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn ties_are_per_shard() {
        // The same (priority, domain, target) at one instant on two shards
        // touches two worlds: no tie. On one shard it is DS001.
        let mut topo = Topology::new();
        for domain in [1, 2] {
            topo.add_shard(ShardSpec { domain, name: "s" }).unwrap();
        }
        let mut sim = ShardedSimulation::new(topo, vec![0u64, 0u64]);
        sim.record_trace();
        let tag = EventTag::target(5).domain(99);
        for shard_domain in [1, 2, 2] {
            sim.seed(shard_domain, SimTime(500), tag, |w, _| *w += 1)
                .unwrap();
        }
        sim.run();
        let r = lint_trace("t", &sim.take_trace());
        let hits: Vec<_> = r.of_rule("DS001").collect();
        assert_eq!(hits.len(), 1, "{}", r.render_human());
        assert!(
            hits[0].message.contains("on shard 1"),
            "{}",
            hits[0].message
        );
    }

    // ------------------------------------------------------------- DS004

    fn fault(trace: &mut FaultTrace, domain: Domain, op: u64) {
        trace.push(
            domain,
            op,
            SimTime::ZERO,
            TraceKind::Injected,
            FaultKind::NetLoss,
            0,
        );
    }

    #[test]
    fn ds004_concatenated_trace_flagged() {
        // Net events (tag > dma) recorded before DMA events: canonical
        // merge order is violated at the boundary.
        let mut t = FaultTrace::new();
        fault(&mut t, Domain::NetSwitch, 0);
        fault(&mut t, Domain::Dma, 0);
        let r = lint_fault_trace("chaos", &t);
        assert_eq!(r.of_rule("DS004").count(), 1, "{}", r.render_human());
        assert!(r.has_errors());
    }

    #[test]
    fn ds004_merged_trace_is_clean() {
        let mut net = FaultTrace::new();
        fault(&mut net, Domain::NetSwitch, 1);
        let mut dma = FaultTrace::new();
        fault(&mut dma, Domain::Dma, 0);
        let merged = FaultTrace::merged([dma, net]);
        assert!(lint_fault_trace("chaos", &merged).is_clean());
    }

    #[test]
    fn ds004_out_of_order_ops_within_domain_flagged() {
        let mut t = FaultTrace::new();
        fault(&mut t, Domain::NetSwitch, 5);
        fault(&mut t, Domain::NetSwitch, 2);
        let r = lint_fault_trace("chaos", &t);
        assert_eq!(r.of_rule("DS004").count(), 1);
    }

    // ------------------------------------------------------------- DS006

    /// One event tagged as crossing from domain 10 to 20 after `delay`.
    /// The engine's `post_after` rejects below-lookahead posts at runtime,
    /// so the hazardous crossing is declared through a local schedule —
    /// exactly the "refactor escaped the shard API" case DS006 exists for.
    fn cross_shard_trace(delay: SimDuration) -> ShardTrace {
        traced(|sim| event(sim, delay.0, EventTag::target(1).domain(20).from_domain(10)))
    }

    const LINK_10_TO_20: (u64, u64, SimDuration) = (10, 20, SimDuration(5_000));

    #[test]
    fn ds006_below_lookahead_cross_shard_post_flagged() {
        let trace = cross_shard_trace(SimDuration(4_999));
        let r = lint_shard_lookahead("t", &trace, &[LINK_10_TO_20]);
        assert_eq!(r.of_rule("DS006").count(), 1, "{}", r.render_human());
        assert!(r.has_errors());
    }

    #[test]
    fn ds006_at_or_above_lookahead_is_clean() {
        for delay in [5_000, 5_001, 1_000_000] {
            let trace = cross_shard_trace(SimDuration(delay));
            assert!(lint_shard_lookahead("t", &trace, &[LINK_10_TO_20]).is_clean());
        }
    }

    #[test]
    fn ds006_undeclared_link_is_a_warning() {
        let trace = cross_shard_trace(SimDuration(5_000));
        // Only the reverse link is declared.
        let r = lint_shard_lookahead("t", &trace, &[(20, 10, SimDuration(5_000))]);
        assert_eq!(r.of_rule("DS006").count(), 1);
        assert_eq!(r.max_severity(), Some(Severity::Warning));
        assert!(!r.has_errors());
    }

    #[test]
    fn ds006_ignores_local_and_untagged_events() {
        let trace = traced(|sim| {
            // Local (same domain both sides) and untagged events are not
            // shard crossings.
            event(sim, 100, EventTag::target(1).domain(10).from_domain(10));
            event(sim, 100, EventTag::default());
        });
        assert!(lint_shard_lookahead("t", &trace, &[LINK_10_TO_20]).is_clean());
    }

    #[test]
    fn ds006_reads_sharded_engine_traces() {
        // The sharded engine's trace is DS006-clean by construction:
        // post_after refuses below-lookahead delays.
        let mut topo = Topology::new();
        topo.add_shard(ShardSpec {
            domain: 10,
            name: "a",
        })
        .unwrap();
        topo.add_shard(ShardSpec {
            domain: 20,
            name: "b",
        })
        .unwrap();
        topo.link(0, 1, SimDuration(5_000)).unwrap();
        let decls = topo.lookahead_decls();
        let mut sim = ShardedSimulation::new(topo, vec![0u64, 0u64]);
        sim.record_trace();
        sim.seed(10, SimTime::ZERO, EventTag::default(), |w, ctx| {
            *w += 1;
            ctx.post_after(20, SimDuration(5_000), EventTag::target(2), |w, _| *w += 1)
                .unwrap();
        })
        .unwrap();
        sim.run();
        let trace = sim.take_trace();
        assert!(lint_shard_lookahead("sharded", &trace, &decls).is_clean());
    }
}
