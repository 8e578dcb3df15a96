//! The divergence bisector: given two recordings of one workload, find the
//! first event where they disagree and say what kind of bug that smells
//! like.
//!
//! Two traces that diverge somewhere diverge *everywhere after* — once one
//! event differs, every downstream event executes in a diverged world. So
//! the only index worth a developer's time is the first one, and prefix
//! hashes make it cheap to find: fold the canonical FNV-64 over each trace
//! entry by entry, keep the running hash per prefix, and binary-search the
//! first prefix where the two runs part ways. The result is the divergent
//! [`coyote_sim::EventKey`] plus an SRC/DS-style diagnosis rendered through
//! `coyote-lint`'s DS007 rule, so replay findings look exactly like every
//! other determinism finding.

use crate::format::Recording;
use coyote_lint::Report;
use coyote_sim::{
    Fnv64, ShardTrace, ShardTraceEntry, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET, DOMAIN_SCHED,
};

/// Per-prefix FNV-64 hashes: `out[i]` covers the first `i` entries, so
/// `out[len]` is [`ShardTrace::hash`].
fn prefix_hashes(entries: &[ShardTraceEntry]) -> Vec<u64> {
    let mut out = Vec::with_capacity(entries.len() + 1);
    let mut h = Fnv64::new();
    out.push(h.finish());
    for e in entries {
        e.hash_into(&mut h);
        out.push(h.finish());
    }
    out
}

/// Index of the first entry where two traces disagree, or `None` when one
/// is a prefix of the other and both ends match (identical traces return
/// `None`; a pure length difference returns the shorter length).
///
/// Binary search over prefix hashes: O(n) hashing + O(log n) probes, and a
/// final direct comparison guards against the (astronomically unlikely)
/// prefix-hash collision.
pub fn first_divergence(a: &ShardTrace, b: &ShardTrace) -> Option<usize> {
    let (ea, eb) = (a.entries(), b.entries());
    let (pa, pb) = (prefix_hashes(ea), prefix_hashes(eb));
    let n = ea.len().min(eb.len());
    if pa[n] == pb[n] {
        // Common prefix identical; diverges only if one trace is longer.
        return if ea.len() != eb.len() { Some(n) } else { None };
    }
    // Smallest prefix length whose hashes differ; the divergent entry is
    // one before it.
    let (mut lo, mut hi) = (0usize, n); // invariant: pa[lo]==pb[lo], pa[hi]!=pb[hi]
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pa[mid] == pb[mid] {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let idx = hi - 1;
    if ea[idx] == eb[idx] {
        // Prefix-hash collision: fall back to the linear scan.
        return (0..n).find(|&i| ea[i] != eb[i]);
    }
    Some(idx)
}

/// A bisection finding: the first divergent event plus the diagnosis.
#[derive(Debug, Clone)]
pub struct BisectFinding {
    /// Which stream diverged: `"events"`, `"faults"` or `"worlds"`.
    pub stream: &'static str,
    /// Index of the first divergent element in that stream.
    pub index: usize,
    /// Timestamp of the divergent event (0 for world divergences).
    pub at_ps: u64,
    /// Side A's entry (`None` when A ran short).
    pub expected: Option<ShardTraceEntry>,
    /// Side B's entry (`None` when B ran short).
    pub actual: Option<ShardTraceEntry>,
    /// The lint rule families the field-level diff implicates.
    pub suspects: Vec<&'static str>,
    /// Rendered expected-vs-actual comparison with shard/link context.
    pub detail: String,
    /// The DS007 report (render with `render_human` / `render_json`).
    pub report: Report,
}

/// Platform shard-domain display name.
fn domain_name(d: u64) -> String {
    match d {
        DOMAIN_NET => "net".into(),
        DOMAIN_DMA => "dma".into(),
        DOMAIN_FABRIC => "fabric".into(),
        DOMAIN_SCHED => "sched".into(),
        u64::MAX => "undeclared".into(),
        other => format!("{other:#x}"),
    }
}

/// Render one entry as the diagnosis names events: every [`EventKey`] field
/// plus the posting context.
fn render_entry(e: &ShardTraceEntry) -> String {
    format!(
        "t={}ps priority={} domain={} target={} shard={} origin={}#{} posted_at={}ps",
        e.at_ps,
        e.priority.map_or("undeclared".into(), |p| p.to_string()),
        domain_name(e.domain.unwrap_or(u64::MAX)),
        e.target.map_or("undeclared".into(), |t| t.to_string()),
        e.shard,
        e.origin,
        e.origin_seq,
        e.posted_at_ps,
    )
}

/// The rule families a field-level diff implicates. Same instant smells
/// like a scheduling-order tie (DS001/DS002, the only rules that flag
/// one); differing times smell like source-level scheduling
/// nondeterminism; a missing event smells like diverged control flow.
fn suspect_families(
    expected: Option<&ShardTraceEntry>,
    actual: Option<&ShardTraceEntry>,
) -> Vec<&'static str> {
    match (expected, actual) {
        (Some(e), Some(a)) if e.at_ps == a.at_ps => vec!["DS001", "DS002"],
        (Some(_), Some(_)) => vec!["SRC006"],
        _ => vec!["SRC007"],
    }
}

/// Cross-shard context from the declared link lookaheads: when the
/// divergent event crossed shards, say what the link promised — an
/// undercut lookahead (DS006 territory) is the classic cause of an event
/// landing in an already-executed window.
fn link_context(
    e: &ShardTraceEntry,
    decls: &[(u64, u64, coyote_sim::SimDuration)],
) -> Option<(String, bool)> {
    let (src, dst) = (e.src_domain?, e.domain?);
    if src == dst {
        return None;
    }
    let delay = e.at_ps.saturating_sub(e.posted_at_ps);
    match decls.iter().find(|&&(s, d, _)| s == src && d == dst) {
        Some(&(_, _, la)) => {
            let undercut = delay < la.as_ps();
            Some((
                format!(
                    "crossed {} -> {} with delay {}ps against a declared lookahead of {}ps{}",
                    domain_name(src),
                    domain_name(dst),
                    delay,
                    la.as_ps(),
                    if undercut { " (UNDERCUT)" } else { "" },
                ),
                undercut,
            ))
        }
        None => Some((
            format!(
                "crossed {} -> {} with no declared link lookahead",
                domain_name(src),
                domain_name(dst)
            ),
            true,
        )),
    }
}

/// Bisect two recordings of one workload to their first divergence.
/// `None` means the recordings are identical in every compared stream.
pub fn bisect(unit: &str, a: &Recording, b: &Recording) -> Option<BisectFinding> {
    // Events first: the primary stream, and the only one with an EventKey.
    if let Some(idx) = first_divergence(&a.trace, &b.trace) {
        let expected = a.trace.entries().get(idx).copied();
        let actual = b.trace.entries().get(idx).copied();
        let at_ps = expected.or(actual).map_or(0, |e| e.at_ps);
        let mut suspects = suspect_families(expected.as_ref(), actual.as_ref());
        let mut detail = match (&expected, &actual) {
            (Some(e), Some(x)) => {
                format!("A ran [{}], B ran [{}]", render_entry(e), render_entry(x))
            }
            (Some(e), None) => format!("A ran [{}], B's trace ended", render_entry(e)),
            (None, Some(x)) => format!("A's trace ended, B ran [{}]", render_entry(x)),
            (None, None) => "both traces ended".into(),
        };
        // Cross-shard context from the topology both runs declared.
        let decls = crate::scenario::build_topology(a.config.topology).lookahead_decls();
        for e in [&expected, &actual].into_iter().flatten() {
            if let Some((ctx, undercut)) = link_context(e, &decls) {
                detail.push_str("; ");
                detail.push_str(&ctx);
                if undercut && !suspects.contains(&"DS006") {
                    suspects.insert(0, "DS006");
                }
                break;
            }
        }
        let report = coyote_lint::lint_replay_divergence(unit, idx, at_ps, &detail, &suspects);
        return Some(BisectFinding {
            stream: "events",
            index: idx,
            at_ps,
            expected,
            actual,
            suspects,
            detail,
            report,
        });
    }

    // Fault stream next.
    let (fa, fb) = (a.faults.events(), b.faults.events());
    let n = fa.len().min(fb.len());
    let fault_idx = (0..n).find(|&i| fa[i] != fb[i]).or({
        if fa.len() != fb.len() {
            Some(n)
        } else {
            None
        }
    });
    if let Some(idx) = fault_idx {
        let render = |e: Option<&coyote_chaos::TraceEvent>| match e {
            Some(e) => format!(
                "{} op={} t={}ps {} {} detail={}",
                e.domain.name(),
                e.op,
                e.at_ps,
                e.kind.name(),
                e.fault.name(),
                e.detail
            ),
            None => "trace ended".into(),
        };
        let at_ps = fa.get(idx).or(fb.get(idx)).map_or(0, |e| e.at_ps);
        let detail = format!(
            "fault traces diverge: A [{}], B [{}] — identical event traces with \
             diverged faults means fault collection left the canonical merge",
            render(fa.get(idx)),
            render(fb.get(idx)),
        );
        let suspects = vec!["DS004"];
        let report = coyote_lint::lint_replay_divergence(unit, idx, at_ps, &detail, &suspects);
        return Some(BisectFinding {
            stream: "faults",
            index: idx,
            at_ps,
            expected: None,
            actual: None,
            suspects,
            detail,
            report,
        });
    }

    // Worlds last: state escaping the event trace entirely.
    for (shard, (&wa, &wb)) in a.worlds.iter().zip(&b.worlds).enumerate() {
        if wa != wb {
            let detail = format!(
                "shard {shard} worlds diverge ({wa:#018x} vs {wb:#018x}) under identical \
                 event and fault traces: state changed outside the recorded events"
            );
            let suspects = vec!["SRC004"];
            let report = coyote_lint::lint_replay_divergence(unit, shard, 0, &detail, &suspects);
            return Some(BisectFinding {
                stream: "worlds",
                index: shard,
                at_ps: 0,
                expected: None,
                actual: None,
                suspects,
                detail,
                report,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Recording;
    use crate::scenario::{run_storm, StormConfig};

    #[test]
    fn identical_recordings_bisect_to_none() {
        let rec = Recording::record(StormConfig::platform(8, 6));
        assert!(bisect("storm", &rec, &rec.clone()).is_none());
    }

    #[test]
    fn first_divergence_matches_linear_scan_on_synthetic_edits() {
        let run = run_storm(&StormConfig::platform(12, 8));
        let base = run.trace.entries().to_vec();
        for edit_at in [0, 1, base.len() / 2, base.len() - 1] {
            let mut edited = base.clone();
            edited[edit_at].origin_seq ^= 0x8000_0000;
            let a = ShardTrace::merged([base.clone()]);
            let b = ShardTrace::merged([edited.clone()]);
            let linear = a
                .entries()
                .iter()
                .zip(b.entries())
                .position(|(x, y)| x != y);
            assert_eq!(first_divergence(&a, &b), linear, "edit at {edit_at}");
        }
        // Length difference: divergence at the shorter length.
        let shorter = ShardTrace::merged([base[..base.len() - 2].to_vec()]);
        let full = ShardTrace::merged([base]);
        assert_eq!(first_divergence(&full, &shorter), Some(shorter.len()));
        assert_eq!(first_divergence(&full, &full.clone()), None);
    }

    #[test]
    fn full_prefix_hash_is_the_trace_hash() {
        let rec = Recording::record(StormConfig::platform(12, 8).with_chaos(3));
        let prefixes = prefix_hashes(rec.trace.entries());
        assert_eq!(prefixes.len(), rec.trace.len() + 1);
        assert_eq!(prefixes.last(), Some(&rec.trace.hash()));
    }

    #[test]
    fn broken_tie_break_bisects_to_the_exact_event_with_ds_suspects() {
        // The acceptance scenario: clean and perturbed recordings of one
        // storm differ in exactly the perturbed seed event.
        let cfg = StormConfig::platform(12, 8);
        let a = Recording::record(cfg);
        let b = Recording::record(cfg.with_perturb(5));
        let f = bisect("platform-storm", &a, &b).expect("the traces diverge");
        assert_eq!(f.stream, "events");
        assert_eq!(f.at_ps, 5_000, "the perturbed seed event (5 ns)");
        let (e, x) = (f.expected.unwrap(), f.actual.unwrap());
        assert_eq!(e.event_key().at, x.event_key().at);
        assert_ne!(e.event_key().priority, x.event_key().priority);
        assert!(f.suspects.contains(&"DS001") && f.suspects.contains(&"DS002"));
        // The report is a DS007 error at the canonical trace location.
        let d = f.report.of_rule("DS007").next().expect("DS007 fires");
        assert_eq!(d.location.unit, "trace:platform-storm");
        assert_eq!(d.location.path, "t=5000ps");
        assert!(f.report.has_errors());
    }
}
