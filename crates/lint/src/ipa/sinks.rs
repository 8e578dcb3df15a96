//! The taint endpoints: the seven SRC nondeterminism classes as *sources*
//! and the determinism boundary as *sinks*.
//!
//! A source is a token shape that produces a value depending on something
//! other than `(inputs, seed)`; a sink is a call where the workspace
//! commits a value to the determinism contract — FNV trace fingerprints,
//! the canonical `merged` joins, cross-shard posts, recorded `.cyt`
//! streams and bench fingerprints. The taint pass connects the two through
//! the call graph; this module only says what they look like.

use super::callgraph::CallSite;
use crate::source::collections::ITER_METHODS;
use crate::source::lex::{Token, TokenKind};
use std::collections::BTreeSet;

/// The seven SRC nondeterminism classes, as taint origins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceClass {
    /// SRC001: HashMap/HashSet iteration order.
    HashIter,
    /// SRC002: `Instant::now` / `SystemTime::now`.
    WallClock,
    /// SRC003: `thread_rng` / `OsRng` / `RandomState` / `from_entropy`.
    Entropy,
    /// SRC004: float accumulation inside a `par_map` worker.
    ParFloat,
    /// SRC005: a value read under `Ordering::Relaxed`.
    RelaxedAtomic,
    /// SRC006: a join handle / result of an ad-hoc thread spawn.
    AdHocThread,
    /// SRC007: `std::env::var` reads.
    EnvRead,
}

impl SourceClass {
    /// Human description used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            SourceClass::HashIter => "hash-order iteration",
            SourceClass::WallClock => "wall-clock read",
            SourceClass::Entropy => "ambient entropy",
            SourceClass::ParFloat => "par_map float accumulation",
            SourceClass::RelaxedAtomic => "relaxed-atomic read",
            SourceClass::AdHocThread => "ad-hoc thread result",
            SourceClass::EnvRead => "environment read",
        }
    }

    /// The per-file SRC rule this class corresponds to.
    pub fn src_rule(self) -> &'static str {
        match self {
            SourceClass::HashIter => "SRC001",
            SourceClass::WallClock => "SRC002",
            SourceClass::Entropy => "SRC003",
            SourceClass::ParFloat => "SRC004",
            SourceClass::RelaxedAtomic => "SRC005",
            SourceClass::AdHocThread => "SRC006",
            SourceClass::EnvRead => "SRC007",
        }
    }
}

/// Which determinism boundary a sink call commits to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkClass {
    /// FNV trace hash / fingerprint computation.
    TraceHash,
    /// Canonical trace merge (`FaultTrace::merged` / `ShardTrace::merged`).
    TraceMerge,
    /// Cross-shard event post (`post_after` / `.post(..)`).
    ShardPost,
    /// Recorded `.cyt` stream (`Recording::record` / `.write_to(..)`).
    Recording,
}

impl SinkClass {
    /// Human description used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            SinkClass::TraceHash => "trace fingerprint",
            SinkClass::TraceMerge => "canonical trace merge",
            SinkClass::ShardPost => "cross-shard post",
            SinkClass::Recording => "recorded stream",
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
    // `.hash()` with no arguments is a trace fingerprint (`FaultTrace::hash`,
    // `ShardTrace::hash`); `x.hash(&mut hasher)` is std::hash and not one.
    if name == "hash" && cs.is_method && cs.args.0 >= cs.args.1 {
        return Some(SinkClass::TraceHash);
    }
    if name == "merged" {
        return Some(SinkClass::TraceMerge);
    }
    if name == "post_after" || (name == "post" && cs.is_method) {
        return Some(SinkClass::ShardPost);
    }
    if name == "write_to"
        || (name == "record" && cs.qualifier.as_deref() == Some("Recording"))
        || (name == "from_run" && cs.qualifier.as_deref() == Some("Recording"))
    {
        return Some(SinkClass::Recording);
    }
    None
}

/// Scan an expression span for a *direct* nondeterminism source. Returns
/// the first (class, line) in token order — deterministic and sufficient,
/// since one origin per expression is all the diagnostic needs.
pub fn expr_source(
    tokens: &[Token],
    range: (usize, usize),
    hash_names: &BTreeSet<String>,
) -> Option<(SourceClass, u32)> {
    let (lo, hi) = range;
    let hi = hi.min(tokens.len());
    for i in lo..hi {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |k: usize, c: char| tokens.get(i + k).is_some_and(|t| t.is_punct(c));
        match t.text.as_str() {
            // `name . iter (` over a hash-bound name.
            name if hash_names.contains(name)
                && next_is(1, '.')
                && tokens
                    .get(i + 2)
                    .is_some_and(|m| ITER_METHODS.iter().any(|im| m.is_ident(im)))
                && next_is(3, '(') =>
            {
                return Some((SourceClass::HashIter, t.line));
            }
            "Instant" | "SystemTime"
                if next_is(1, ':') && tokens.get(i + 3).is_some_and(|n| n.is_ident("now")) =>
            {
                return Some((SourceClass::WallClock, t.line));
            }
            "thread_rng" | "OsRng" | "RandomState" | "from_entropy" => {
                return Some((SourceClass::Entropy, t.line));
            }
            "Relaxed" if i >= 3 && tokens[i - 3].is_ident("Ordering") => {
                return Some((SourceClass::RelaxedAtomic, t.line));
            }
            "var" | "var_os" if i >= 3 && tokens[i - 3].is_ident("env") => {
                return Some((SourceClass::EnvRead, t.line));
            }
            // The fan-out itself is deterministic; its result is tainted
            // only when a worker accumulates floats (SRC004's class).
            "par_map" if next_is(1, '(') => {
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < hi {
                    if tokens[j].is_punct('(') {
                        depth += 1;
                    } else if tokens[j].is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if tokens[j].kind == TokenKind::Float {
                        return Some((SourceClass::ParFloat, t.line));
                    }
                    j += 1;
                }
            }
            "spawn" if next_is(1, '(') => {
                return Some((SourceClass::AdHocThread, t.line));
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lex::lex;

    fn src(text: &str, hash: &[&str]) -> Option<SourceClass> {
        let toks = lex(text).tokens;
        let names: BTreeSet<String> = hash.iter().map(|s| s.to_string()).collect();
        let n = toks.len();
        expr_source(&toks, (0, n), &names).map(|(c, _)| c)
    }

    #[test]
    fn each_source_class_is_recognized() {
        assert_eq!(
            src("m.iter().collect()", &["m"]),
            Some(SourceClass::HashIter)
        );
        assert_eq!(
            src("m.iter().collect()", &[]),
            None,
            "only hash-bound names"
        );
        assert_eq!(src("Instant::now()", &[]), Some(SourceClass::WallClock));
        assert_eq!(src("rand::thread_rng()", &[]), Some(SourceClass::Entropy));
        assert_eq!(
            src("c.load(Ordering::Relaxed)", &[]),
            Some(SourceClass::RelaxedAtomic)
        );
        assert_eq!(src("std::env::var(\"X\")", &[]), Some(SourceClass::EnvRead));
        assert_eq!(
            src("par_map(xs, |x| x as f64 * 1.5)", &[]),
            Some(SourceClass::ParFloat)
        );
        assert_eq!(
            src("par_map(xs, |x| x + 1)", &[]),
            None,
            "integer par_map is clean"
        );
        assert_eq!(
            src("thread::spawn(|| {})", &[]),
            Some(SourceClass::AdHocThread)
        );
        assert_eq!(src("seeded.next_u64()", &[]), None);
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
                Some(SinkClass::ShardPost),
                Some(SinkClass::Recording),
            ]
        );
    }
}
