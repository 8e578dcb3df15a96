//! The taint endpoints: the seven SRC nondeterminism classes as *sources*
//! and the determinism boundary as *sinks*.
//!
//! A source is a raw SRC finding (computed once per file by
//! [`crate::source`]): a token shape that produces a value depending on
//! something other than `(inputs, seed)`. A sink is a call where the workspace
//! commits a value to the determinism contract — FNV trace fingerprints,
//! the canonical `merged` joins, artifacts written to disk and bench
//! fingerprints. The taint pass connects the two through
//! the call graph; this module only says what they look like.

use super::callgraph::CallSite;

/// How taint diagnostics name the class of source an SRC rule matches,
/// and the fix they suggest for it. The sources themselves are the SRC
/// rules' raw findings; this module holds no matcher of its own.
pub fn source_class(src_rule: &str) -> (&'static str, &'static str) {
    match src_rule {
        "SRC001" => (
            "hash-order iteration",
            "BTreeMap/BTreeSet or an explicit sort",
        ),
        "SRC002" => ("wall-clock read", "simulated time instead of wall clock"),
        "SRC003" => ("ambient entropy", "a seeded Xorshift64Star"),
        "SRC004" => (
            "par_map float accumulation",
            "integer/fixed-point accumulation",
        ),
        "SRC005" => (
            "relaxed-atomic read",
            "AcqRel ordering or a sequential merge",
        ),
        "SRC006" => ("ad-hoc thread result", "the sanctioned par_map fan-out"),
        _ => ("environment read", "explicit configuration plumbing"),
    }
}

/// Which determinism boundary a sink call commits to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkClass {
    /// FNV trace hash / fingerprint computation.
    TraceHash,
    /// Canonical trace merge (`FaultTrace::merged`).
    TraceMerge,
    /// Artifact written to disk (`.write_to(..)`).
    Artifact,
}

impl SinkClass {
    /// Human description used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            SinkClass::TraceHash => "trace fingerprint",
            SinkClass::TraceMerge => "canonical trace merge",
            SinkClass::Artifact => "written artifact",
        }
    }
}

/// Free/qualified callee names that hash a trace into a fingerprint.
const HASH_SINKS: [&str; 6] = [
    "fingerprint",
    "fingerprint_of",
    "trace_hash",
    "fault_hash",
    "fnv1a64",
    "fnv64",
];

/// Classify a call site as a sink, if it is one.
pub fn sink_class(cs: &CallSite) -> Option<SinkClass> {
    let name = cs.callee.as_str();
    if HASH_SINKS.contains(&name) {
        return Some(SinkClass::TraceHash);
    }
    // `.hash()` with no arguments is a trace fingerprint (`FaultTrace::hash`);
    // `x.hash(&mut hasher)` is std::hash and not one.
    if name == "hash" && cs.is_method && cs.args.0 >= cs.args.1 {
        return Some(SinkClass::TraceHash);
    }
    if name == "merged" {
        return Some(SinkClass::TraceMerge);
    }
    if name == "write_to" {
        return Some(SinkClass::Artifact);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::index::Workspace;
    use super::super::taint::propagate;
    use super::*;
    use crate::source::lex::lex;

    /// The SRC rule whose finding taints `fn f`'s return, if any.
    fn source_of(body: &str) -> Option<&'static str> {
        let src =
            format!("fn f(m: &HashMap<u32, u32>, v: &Vec<u32>, xs: &[u64]) -> u64 {{ {body} }}");
        let ws = Workspace::index(&[("t.rs".to_string(), src)]);
        let a = propagate(&ws);
        a.summaries[0].returns.as_ref().map(|t| t.src_rule)
    }

    #[test]
    fn each_source_class_is_recognized() {
        // The taint sources are the SRC matchers' raw findings, so every
        // shape an SRC rule flags seeds taint, named by that rule.
        for (body, rule) in [
            ("m.iter().count() as u64", "SRC001"),
            ("Instant::now().elapsed().as_nanos() as u64", "SRC002"),
            ("rand::thread_rng().next_u64()", "SRC003"),
            ("getrandom::u64().unwrap()", "SRC003"),
            ("par_map(xs, |x| *x as f64 * 1.5).len() as u64", "SRC004"),
            ("c.load(Ordering::Relaxed)", "SRC005"),
            ("thread::spawn(|| 1).join().unwrap()", "SRC006"),
            (
                "std::env::var(\"X\").map_or(0, |s| s.len() as u64)",
                "SRC007",
            ),
            ("std::env::vars().count() as u64", "SRC007"),
        ] {
            assert_eq!(source_of(body), Some(rule), "{body}");
        }
        assert_eq!(
            source_of("v.iter().count() as u64"),
            None,
            "only hash-bound names"
        );
        assert_eq!(
            source_of("par_map(xs, |x| x + 1).len() as u64"),
            None,
            "integer par_map is clean"
        );
        assert_eq!(source_of("seeded.next_u64()"), None);
    }

    #[test]
    fn sink_classification_by_call_shape() {
        use super::super::callgraph::call_sites;
        let toks = lex(
            "fn f() { let a = fingerprint_of(e, w, t, h); FaultTrace::merged(ts); \
             t.hash(); x.hash(&mut hasher); ctx.post_after(d, tag, ev); r.write_to(p); }",
        )
        .tokens;
        let n = toks.len();
        let sites = call_sites(&toks, (0, n));
        let classes: Vec<Option<SinkClass>> = sites.iter().map(sink_class).collect();
        assert_eq!(
            classes,
            vec![
                None, // f itself
                Some(SinkClass::TraceHash),
                Some(SinkClass::TraceMerge),
                Some(SinkClass::TraceHash),
                None, // std::hash with a hasher argument
                None, // an event post is no sink
                Some(SinkClass::Artifact),
            ]
        );
    }
}
