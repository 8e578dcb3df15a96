//! Fixpoint taint propagation: intra-function def-use chains joined with
//! function return summaries, iterated to a workspace-wide fixpoint.
//!
//! Per function, the pass extracts *assignment events* (`let` bindings,
//! reassignments, collection inserts, sort sanitizers, `return`s) and runs
//! them to a local fixpoint: a local is tainted when its right-hand side
//! contains a direct nondeterminism source, another tainted local, or a
//! call to a function whose summary says its return is tainted. A
//! function's summary becomes tainted when a tainted value reaches its
//! `return` or tail expression. Summaries are monotone (`None → Some`,
//! never back), so the global loop terminates in at most `#fns` rounds.
//!
//! Sanctioned SRC-level `detlint: allow` directives deliberately do NOT
//! stop taint here: a per-file annotation asserts the site is *locally*
//! reviewed; the interprocedural question — does that sanctioned value
//! ever reach a fingerprint, merge or written artifact — is exactly what
//! this pass exists to answer. IPA findings have their own `allow(IPA00x)`
//! escape at the sink.

use super::callgraph::{call_sites, resolve, CallSite};
use super::index::Workspace;
use super::sinks::{sink_class, source_class};
use crate::source::lex::{Token, TokenKind};
use std::collections::BTreeMap;

/// How far a taint chain may grow before we stop extending it (recursion
/// and pathological call webs are cut here, not looped on).
const MAX_CHAIN: usize = 32;

/// Methods that move a value *into* a collection (the laundering step
/// IPA003 names).
const COLLECT_METHODS: [&str; 6] = [
    "push",
    "insert",
    "extend",
    "append",
    "push_back",
    "push_front",
];

/// Methods that impose a deterministic order on a collection: taint on the
/// receiver is cleared (an explicit sort is the sanctioned laundering).
const SANITIZE_METHODS: [&str; 7] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "clear",
];

/// Where a taint came from and how it traveled.
#[derive(Debug, Clone)]
pub struct TaintInfo {
    /// The SRC rule whose raw finding is the origin (its class).
    pub src_rule: &'static str,
    /// File (workspace index) holding the origin expression.
    pub origin_file: usize,
    /// 1-based origin line.
    pub origin_line: u32,
    /// Call chain the taint crossed, origin-first: each entry is a
    /// rendered `name (unit:Lline)` label of a function whose *return*
    /// carried the taint. Empty while the taint is still local.
    pub chain: Vec<String>,
    /// Passed through an intermediate collection (`push`/`insert`/...).
    pub laundered: bool,
}

/// One raw interprocedural finding, before allow filtering.
#[derive(Debug)]
pub struct IpaFinding {
    /// IPA rule id.
    pub rule: &'static str,
    /// File (workspace index) the finding is reported in.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// Rendered message, call chain included.
    pub message: String,
    /// Fix suggestion.
    pub suggestion: String,
}

/// Per-function return summary.
#[derive(Default)]
pub struct FnSummary {
    /// Taint that escapes through the return value, if any.
    pub returns: Option<TaintInfo>,
}

/// An assignment-shaped event inside one body, in token order.
enum Event {
    /// `let <names> = rhs;` or `name = rhs;`
    Bind {
        names: Vec<String>,
        rhs: (usize, usize),
    },
    /// `recv.push(args)` and friends.
    Collect { recv: String, args: (usize, usize) },
    /// `recv.sort*()` — clears taint on recv.
    Sanitize { name: String },
    /// `return <span>;`
    Return { span: (usize, usize) },
}

/// Everything the passes need about one function body, computed once.
pub struct FnFacts {
    events: Vec<Event>,
    calls: Vec<CallSite>,
    /// Tail expression span (after the last top-level `;`), if non-empty.
    tail: Option<(usize, usize)>,
}

impl FnFacts {
    /// Extract facts for `fns[f]` of the workspace.
    pub fn extract(ws: &Workspace, f: usize) -> FnFacts {
        let item = &ws.fns[f];
        let tokens = &ws.files[item.file].tokens;
        let (lo, hi) = item.body;
        let hi = hi.min(tokens.len());
        let mut events = Vec::new();

        let mut i = lo;
        let mut last_stmt_end = lo; // Start of the (eventual) tail expr.
        let mut depth = 0i32; // Brace depth relative to the body.
        while i < hi {
            let t = &tokens[i];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                last_stmt_end = i + 1;
            }

            if t.is_ident("let") {
                if let Some((names, rhs, next)) = parse_let(tokens, i, hi) {
                    events.push(Event::Bind { names, rhs });
                    i = next;
                    continue;
                }
            } else if t.is_ident("return") {
                let end = span_to_semicolon(tokens, i + 1, hi);
                events.push(Event::Return { span: (i + 1, end) });
            } else if t.kind == TokenKind::Ident {
                // `name = rhs ;` reassignment (not `==`, `=>`, `<=`...).
                if let (Some(eq), Some(after)) = (tokens.get(i + 1), tokens.get(i + 2)) {
                    if eq.is_punct('=') && !after.is_punct('=') && !after.is_punct('>') {
                        let end = span_to_semicolon(tokens, i + 2, hi);
                        events.push(Event::Bind {
                            names: vec![t.text.clone()],
                            rhs: (i + 2, end),
                        });
                    }
                }
                // `recv . method (` — collection insert or sanitizer.
                if let (Some(dot), Some(m), Some(open)) =
                    (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3))
                {
                    if dot.is_punct('.') && m.kind == TokenKind::Ident && open.is_punct('(') {
                        if COLLECT_METHODS.iter().any(|c| m.is_ident(c)) {
                            let end = match_parens(tokens, i + 3, hi);
                            events.push(Event::Collect {
                                recv: t.text.clone(),
                                args: (i + 4, end),
                            });
                        } else if SANITIZE_METHODS.iter().any(|s| m.is_ident(s)) {
                            events.push(Event::Sanitize {
                                name: t.text.clone(),
                            });
                        }
                    }
                }
            }
            i += 1;
        }

        let tail = (last_stmt_end < hi).then_some((last_stmt_end, hi));
        FnFacts {
            events,
            calls: call_sites(tokens, (lo, hi)),
            tail,
        }
    }
}

/// Parse `let [mut] name = ...;` / `let (a, b) = ...;` starting at the
/// `let` token. Returns (bound names, rhs span, index after the rhs).
fn parse_let(
    tokens: &[Token],
    let_idx: usize,
    hi: usize,
) -> Option<(Vec<String>, (usize, usize), usize)> {
    let mut i = let_idx + 1;
    let mut names = Vec::new();
    if tokens.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    match tokens.get(i) {
        Some(t) if t.kind == TokenKind::Ident => {
            names.push(t.text.clone());
            i += 1;
        }
        Some(t) if t.is_punct('(') => {
            // Tuple pattern: every identifier except `mut`/`_` binds.
            let end = match_parens(tokens, i, hi);
            for t in &tokens[i + 1..end.min(hi)] {
                if t.kind == TokenKind::Ident && !t.is_ident("mut") && t.text != "_" {
                    names.push(t.text.clone());
                }
            }
            i = end + 1;
        }
        _ => return None,
    }
    // Skip a `: Type` annotation to the `=` at bracket depth zero.
    let mut depth = 0i32;
    while i < hi {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(';') {
            return None; // `let x;` — no initializer.
        } else if t.is_punct('=') && depth <= 0 {
            // `==` can't appear before the initializer; `>=`/`<=` close
            // generics first and keep depth balanced.
            let rhs_start = i + 1;
            let rhs_end = span_to_semicolon(tokens, rhs_start, hi);
            return (!names.is_empty()).then_some((names, (rhs_start, rhs_end), rhs_end));
        }
        i += 1;
    }
    None
}

/// Span from `start` to the terminating `;` at relative bracket depth 0.
fn span_to_semicolon(tokens: &[Token], start: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < hi {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                return i; // Statement ends with the enclosing block.
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return i;
        }
        i += 1;
    }
    hi
}

/// Index just past a paren group opening at `open`.
fn match_parens(tokens: &[Token], open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < hi {
        if tokens[i].is_punct('(') {
            depth += 1;
        } else if tokens[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    hi
}

/// The result of the workspace fixpoint.
pub struct Analysis {
    /// Per-function return summaries, indexed like `Workspace::fns`.
    pub summaries: Vec<FnSummary>,
    /// Per-function extracted facts (reused by the sink scan).
    pub facts: Vec<FnFacts>,
}

/// Label a function for chain rendering: `name (unit:Lline)`.
fn fn_label(ws: &Workspace, f: usize) -> String {
    let item = &ws.fns[f];
    format!(
        "{} ({}:L{})",
        item.name, ws.files[item.file].unit, item.line
    )
}

/// Is any tainted value present in `span`? Returns the earliest cause.
fn span_taint(
    ws: &Workspace,
    f: usize,
    facts: &FnFacts,
    summaries: &[FnSummary],
    locals: &BTreeMap<String, TaintInfo>,
    span: (usize, usize),
) -> Option<TaintInfo> {
    let item = &ws.fns[f];
    let file = &ws.files[item.file];
    let (lo, hi) = span;
    let hi = hi.min(file.tokens.len());
    if lo >= hi {
        return None;
    }

    // Candidate causes with their token positions; earliest wins.
    let mut best: Option<(usize, TaintInfo)> = None;
    let mut consider = |pos: usize, info: TaintInfo| {
        if best.as_ref().map_or(true, |(p, _)| pos < *p) {
            best = Some((pos, info));
        }
    };

    // (a) Direct source in the span: a raw SRC finding anchored inside it.
    if let Some(f) = file
        .src_findings
        .iter()
        .filter(|f| (lo..hi).contains(&f.tok))
        .min_by_key(|f| f.tok)
    {
        consider(
            f.tok,
            TaintInfo {
                src_rule: f.rule,
                origin_file: item.file,
                origin_line: f.line,
                chain: Vec::new(),
                laundered: false,
            },
        );
    }

    // (b) A tainted local mentioned in the span.
    for i in lo..hi {
        let t = &file.tokens[i];
        if t.kind == TokenKind::Ident {
            if let Some(info) = locals.get(&t.text) {
                consider(i, info.clone());
                break; // Earliest local occurrence found.
            }
        }
    }

    // (c) A call whose return is tainted.
    for cs in &facts.calls {
        if cs.tok < lo || cs.tok >= hi {
            continue;
        }
        let Some(targets) = Some(resolve(ws, item.file, cs)).filter(|t| !t.is_empty()) else {
            continue;
        };
        for g in targets {
            if let Some(ret) = &summaries[g].returns {
                let label = fn_label(ws, g);
                if ret.chain.len() >= MAX_CHAIN || ret.chain.contains(&label) {
                    continue; // Recursion / runaway chain: stop extending.
                }
                let mut info = ret.clone();
                info.chain.push(label);
                consider(cs.tok, info);
                break;
            }
        }
    }

    best.map(|(_, info)| info)
}

/// Run the local def-use fixpoint for one function with the current
/// summaries; returns the tainted-locals map and the return taint (if any).
fn analyze_fn(
    ws: &Workspace,
    f: usize,
    facts: &FnFacts,
    summaries: &[FnSummary],
) -> (BTreeMap<String, TaintInfo>, Option<TaintInfo>) {
    let mut locals: BTreeMap<String, TaintInfo> = BTreeMap::new();
    let mut ret: Option<TaintInfo> = None;

    // Events replayed in order until stable: taint only grows except under
    // an explicit sanitizer, so a small bounded loop converges.
    for _pass in 0..facts.events.len().min(8) + 1 {
        let mut changed = false;
        for ev in &facts.events {
            match ev {
                Event::Bind { names, rhs } => {
                    if let Some(info) = span_taint(ws, f, facts, summaries, &locals, *rhs) {
                        for n in names {
                            if !locals.contains_key(n) {
                                locals.insert(n.clone(), info.clone());
                                changed = true;
                            }
                        }
                    }
                }
                Event::Collect { recv, args } => {
                    if !locals.contains_key(recv) {
                        if let Some(mut info) = span_taint(ws, f, facts, summaries, &locals, *args)
                        {
                            info.laundered = true;
                            locals.insert(recv.clone(), info);
                            changed = true;
                        }
                    }
                }
                Event::Sanitize { name } => {
                    if locals.remove(name).is_some() {
                        changed = true;
                    }
                }
                Event::Return { span } => {
                    if ret.is_none() {
                        if let Some(info) = span_taint(ws, f, facts, summaries, &locals, *span) {
                            ret = Some(info);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Tail expression: the value the function evaluates to.
    if ret.is_none() && ws.fns[f].has_ret {
        if let Some(tail) = facts.tail {
            ret = span_taint(ws, f, facts, summaries, &locals, tail);
        }
    }
    (locals, ret)
}

/// Run the interprocedural fixpoint over the whole workspace.
pub fn propagate(ws: &Workspace) -> Analysis {
    let facts: Vec<FnFacts> = (0..ws.fns.len()).map(|f| FnFacts::extract(ws, f)).collect();
    let mut summaries: Vec<FnSummary> = (0..ws.fns.len()).map(|_| FnSummary::default()).collect();

    // Summaries are monotone None → Some; each round settles at least one
    // function or the loop ends.
    loop {
        let mut changed = false;
        for f in 0..ws.fns.len() {
            if summaries[f].returns.is_some() {
                continue;
            }
            let (_, ret) = analyze_fn(ws, f, &facts[f], &summaries);
            if let Some(info) = ret {
                summaries[f].returns = Some(info);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Analysis { summaries, facts }
}

/// The sink scan: IPA001/IPA003 findings plus IPA004 public-API
/// escapes, raw (pre-allow), in deterministic (file, line, rule) order.
pub fn findings(ws: &Workspace, analysis: &Analysis) -> Vec<IpaFinding> {
    let mut out = Vec::new();

    for f in 0..ws.fns.len() {
        let item = &ws.fns[f];
        let facts = &analysis.facts[f];
        let (locals, _) = analyze_fn(ws, f, facts, &analysis.summaries);
        let mut sink_reported = false;

        for cs in &facts.calls {
            let Some(sink) = sink_class(cs) else { continue };
            // Taint entering the sink: through the arguments or the
            // receiver the sink method is called on.
            let arg_taint = span_taint(ws, f, facts, &analysis.summaries, &locals, cs.args);
            let recv_taint = cs.receiver.as_ref().and_then(|r| locals.get(r).cloned());
            let Some(info) = arg_taint.or(recv_taint) else {
                continue;
            };
            // Interprocedural only: the per-file SRC rules own the
            // single-function case.
            if info.chain.is_empty() {
                continue;
            }
            let rule = if info.laundered { "IPA003" } else { "IPA001" };
            let chain = render_chain(ws, f, &info, &cs.callee, cs.line);
            let origin_unit = &ws.files[info.origin_file].unit;
            let (class, fix) = source_class(info.src_rule);
            sink_reported = true;
            out.push(IpaFinding {
                rule,
                file: item.file,
                line: cs.line,
                message: format!(
                    "{} at {}:L{} reaches the {} `{}` across {} call boundar{}: {}",
                    class,
                    origin_unit,
                    info.origin_line,
                    sink.describe(),
                    cs.callee,
                    info.chain.len(),
                    if info.chain.len() == 1 { "y" } else { "ies" },
                    chain,
                ),
                suggestion: format!(
                    "make the origin deterministic ({fix}), or annotate the sink with \
                     `// detlint: allow({rule}): <why>`"
                ),
            });
        }

        // IPA004: a public fn whose return carries hash-order taint escapes
        // the analysis horizon — callers outside the workspace inherit the
        // nondeterminism with no sink to anchor a diagnostic on. A fn that
        // already anchored a sink finding is covered by it.
        if item.is_pub && !sink_reported {
            if let Some(ret) = &analysis.summaries[f].returns {
                if ret.src_rule == "SRC001" {
                    let origin_unit = &ws.files[ret.origin_file].unit;
                    out.push(IpaFinding {
                        rule: "IPA004",
                        file: item.file,
                        line: item.line,
                        message: format!(
                            "public fn `{}` returns hash-ordered iteration (origin {}:L{}{})",
                            item.name,
                            origin_unit,
                            ret.origin_line,
                            if ret.chain.is_empty() {
                                String::new()
                            } else {
                                format!(", via {}", ret.chain.join(" -> "))
                            },
                        ),
                        suggestion: "return a BTreeMap/BTreeSet-backed or explicitly sorted \
                                     collection, or annotate `// detlint: allow(IPA004): <why>`"
                            .to_string(),
                    });
                }
            }
        }
    }

    out.sort_by(|a, b| {
        (&ws.files[a.file].unit, a.line, a.rule).cmp(&(&ws.files[b.file].unit, b.line, b.rule))
    });
    out.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    out
}

/// Render the full call chain for a sink diagnostic:
/// `origin -> helper -> ... -> enclosing fn -> sink`.
fn render_chain(ws: &Workspace, f: usize, info: &TaintInfo, sink: &str, sink_line: u32) -> String {
    let mut parts = info.chain.clone();
    let own = fn_label(ws, f);
    if parts.last() != Some(&own) {
        parts.push(own);
    }
    parts.push(format!(
        "{sink} ({}:L{sink_line})",
        ws.files[ws.fns[f].file].unit
    ));
    parts.join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> (Workspace, Analysis) {
        let ws = Workspace::index(&[("t.rs".to_string(), src.to_string())]);
        let a = propagate(&ws);
        (ws, a)
    }

    #[test]
    fn direct_source_taints_the_return_summary() {
        let (ws, a) = analyze(
            "fn leaf(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
             let v: Vec<u32> = m.keys().copied().collect();\n    v\n}\n",
        );
        let ret = a.summaries[0].returns.as_ref().expect("tainted");
        assert_eq!(ret.src_rule, "SRC001");
        assert_eq!(ret.origin_line, 2);
        assert!(ret.chain.is_empty(), "no call boundary crossed yet");
        let _ = ws;
    }

    #[test]
    fn taint_propagates_through_helper_returns() {
        let (_, a) = analyze(
            "fn leaf(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n\
             fn mid(m: &HashMap<u32, u32>) -> Vec<u32> { leaf(m) }\n\
             fn top(m: &HashMap<u32, u32>) -> Vec<u32> { mid(m) }\n",
        );
        let top = a.summaries[2].returns.as_ref().expect("propagated");
        assert_eq!(top.chain.len(), 2, "leaf and mid returns crossed");
        assert!(top.chain[0].starts_with("leaf "));
        assert!(top.chain[1].starts_with("mid "));
    }

    #[test]
    fn sort_sanitizer_clears_the_taint() {
        let (_, a) = analyze(
            "fn leaf(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
             let mut v: Vec<u32> = m.keys().copied().collect();\n    \
             v.sort_unstable();\n    v\n}\n",
        );
        assert!(
            a.summaries[0].returns.is_none(),
            "an explicit sort launders hash order deterministically"
        );
    }

    #[test]
    fn tainted_sink_crossing_a_call_boundary_is_found() {
        let (ws, a) = analyze(
            "fn leaf(m: &HashMap<u32, u32>) -> Vec<u64> { m.keys().map(|k| *k as u64).collect() }\n\
             fn publish(m: &HashMap<u32, u32>) -> u64 {\n    \
             let order = leaf(m);\n    fingerprint_of(1, &order, 2, 3)\n}\n",
        );
        let fs = findings(&ws, &a);
        assert_eq!(fs.len(), 1, "one IPA001");
        assert_eq!(fs[0].rule, "IPA001");
        assert_eq!(fs[0].line, 4);
        assert!(
            fs[0]
                .message
                .contains("leaf (t.rs:L1) -> publish (t.rs:L2) -> fingerprint_of (t.rs:L4)"),
            "full chain rendered: {}",
            fs[0].message
        );
    }

    #[test]
    fn local_only_taint_is_left_to_the_src_rules() {
        let (ws, a) = analyze(
            "fn all_local(m: &HashMap<u32, u32>) -> u64 {\n    \
             let order: Vec<u32> = m.keys().copied().collect();\n    \
             fingerprint_of(1, &order, 2, 3)\n}\n",
        );
        assert!(
            findings(&ws, &a).is_empty(),
            "no call boundary: SRC001 territory"
        );
    }
}
