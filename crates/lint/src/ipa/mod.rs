//! Interprocedural determinism taint analysis (IPA001–IPA005).
//!
//! The per-file SRC rules answer "is this line hazardous?"; this module
//! answers the question they cannot: "does a hazardous value *travel* —
//! through returns, locals and collections, across function and crate
//! boundaries — into the determinism contract?" It indexes every `fn`
//! item in the workspace ([`index`]), builds a conservative call graph
//! ([`callgraph`]), propagates the seven SRC nondeterminism classes to a
//! summary fixpoint ([`taint`]) and reports source→sink paths that cross
//! at least one call boundary, full chain in the diagnostic. [`suppress`]
//! rides along: it replays raw findings against every `detlint: allow`
//! directive and flags the stale ones (IPA005).
//!
//! The taint sources are the SRC rules' own raw findings, which
//! [`Workspace::index`] computes once per file with the token index of
//! each anchor: a span is directly tainted when a finding is anchored
//! inside it. There is no second set of source matchers to drift.
//! [`crate::lint_rust_sources`] runs this pass and the per-file report
//! over one index.
//!
//! Deliberate asymmetry: SRC-level `allow` directives do NOT stop taint at
//! its origin. A per-file annotation asserts a site is locally reviewed;
//! whether the sanctioned value stays local is exactly what this analysis
//! checks. IPA findings have their own `// detlint: allow(IPA00x): <why>`
//! escape at the *sink* line, which is where the interprocedural judgment
//! belongs.

pub mod callgraph;
pub mod index;
pub mod sinks;
pub mod suppress;
pub mod taint;

use crate::diag::{Diagnostic, Location, Report};
use crate::rules;
use index::Workspace;

/// Run the interprocedural rules over an indexed workspace.
pub(crate) fn lint(ws: &Workspace) -> Report {
    let analysis = taint::propagate(ws);
    let mut raw = taint::findings(ws, &analysis);
    let stale = suppress::audit(ws, &raw);
    raw.extend(stale);

    let mut report = Report::new();
    for f in raw {
        let file = &ws.files[f.file];
        // IPA findings honor IPA-level allows at their emission line.
        if file.is_allowed(f.rule, f.line) {
            continue;
        }
        let severity = rules::rule(f.rule)
            .map(|r| r.severity)
            .unwrap_or(crate::diag::Severity::Warning);
        report.push(
            Diagnostic::new(
                f.rule,
                severity,
                Location::new(format!("ipa:{}", file.unit), format!("L{}", f.line)),
                f.message,
            )
            .with_suggestion(f.suggestion),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(src: &str) -> Report {
        crate::lint_rust_sources(&[("t.rs".to_string(), src.to_string())])
    }

    #[test]
    fn chain_finding_carries_location_and_severity() {
        let r = single(
            "fn leaf(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n\
             fn publish(m: &HashMap<u32, u32>) -> u64 {\n    \
             let order = leaf(m);\n    fingerprint_of(1, &order, 2, 3)\n}\n",
        );
        let d = r.of_rule("IPA001").next().expect("IPA001 fires");
        assert_eq!(d.location.unit, "ipa:t.rs");
        assert_eq!(d.location.path, "L4");
        assert_eq!(d.severity, crate::diag::Severity::Error);
        assert!(r.has_errors());
    }

    #[test]
    fn ipa_allow_at_the_sink_suppresses() {
        let r = single(
            "fn leaf(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n\
             fn publish(m: &HashMap<u32, u32>) -> u64 {\n    \
             let order = leaf(m);\n    \
             // detlint: allow(IPA001): order is len-1 here by construction\n    \
             fingerprint_of(1, &order, 2, 3)\n}\n",
        );
        assert!(r.of_rule("IPA001").next().is_none(), "{}", r.render_human());
    }

    #[test]
    fn src_allow_at_the_origin_does_not_stop_taint() {
        let r = single(
            "fn leaf(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
             // detlint: allow(SRC001): consumer sorts\n    \
             m.keys().copied().collect()\n}\n\
             fn publish(m: &HashMap<u32, u32>) -> u64 {\n    \
             let order = leaf(m);\n    fingerprint_of(1, &order, 2, 3)\n}\n",
        );
        assert_eq!(
            r.of_rule("IPA001").count(),
            1,
            "the SRC allow is a local judgment; the interprocedural question stands"
        );
    }

    #[test]
    fn multi_file_workspace_resolves_cross_crate_chains() {
        let r = crate::lint_rust_sources(&[
            (
                "crates/a/src/lib.rs".to_string(),
                "pub fn order_of(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
                 m.keys().copied().collect()\n}\n"
                    .to_string(),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                "use crate_a::order_of;\n\
                 pub fn publish(m: &HashMap<u32, u32>) -> u64 {\n    \
                 let v = order_of(m);\n    fingerprint_of(1, &v, 2, 3)\n}\n"
                    .to_string(),
            ),
        ]);
        // IPA004 fires on order_of (pub + hash-ordered return); IPA001 on
        // the cross-crate sink.
        assert_eq!(r.of_rule("IPA004").count(), 1, "{}", r.render_human());
        assert_eq!(r.of_rule("IPA001").count(), 1, "{}", r.render_human());
        let d = r.of_rule("IPA001").next().unwrap();
        assert!(
            d.message.contains("order_of (crates/a/src/lib.rs:L1)"),
            "chain names the foreign-crate origin: {}",
            d.message
        );
    }
}
