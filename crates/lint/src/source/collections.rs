//! SRC001: iteration over unordered hash collections.
//!
//! `HashMap`/`HashSet` are fine as lookup tables — `get`, `entry`,
//! `contains_key` never observe bucket order. The hazard is *iteration*:
//! `std`'s SipHash keys are randomized per process, so `for (k, v) in &map`
//! visits entries in a different order on every run, and anything the loop
//! feeds — a trace, an output vector, a merged artifact — inherits that
//! order. The fix is `BTreeMap`/`BTreeSet` (or an explicit sort).
//!
//! Detection is two-pass within one file: first collect every name bound
//! to a hash-collection type (struct fields, `let` annotations and
//! `HashMap::new()`-style initializers, fn params), then flag iteration
//! over those names: ordered-visit method calls (`iter`, `keys`, `values`,
//! `drain`, `retain`, ...) and `for … in` loops whose iterated expression
//! is the bare collection.

use super::lex::Token;
use super::Finding;
use std::collections::BTreeSet;

/// Hash-collection type names.
const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Methods whose callbacks observe bucket order.
const ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
    "extend_from_map",
];

/// Names in this file bound to a hash-collection type.
fn hash_bound_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if !HASH_TYPES.iter().any(|h| t.is_ident(h)) {
            continue;
        }
        // Walk back over a path prefix (`std :: collections ::`), then over
        // reference sigils (`& 'a mut`) so `name: &mut HashMap<..>` params
        // are caught too.
        let mut j = i;
        while j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
            j -= 3; // `seg : :` — land on the previous segment.
        }
        while j >= 1
            && (tokens[j - 1].is_punct('&')
                || tokens[j - 1].is_ident("mut")
                || tokens[j - 1].kind == super::lex::TokenKind::Lifetime)
        {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        // `name : [path] HashMap` — a field, let-annotation or fn param.
        // A single `:` (not `::`) directly before the path start.
        if tokens[j - 1].is_punct(':') && j >= 2 && !tokens[j - 2].is_punct(':') {
            if let Some(name) = tokens.get(j.wrapping_sub(2)) {
                if name.kind == super::lex::TokenKind::Ident {
                    names.insert(name.text.clone());
                    continue;
                }
            }
        }
        // `let [mut] name = [path] HashMap :: new` / `HashMap :: from` ...
        if tokens[j - 1].is_punct('=') {
            let mut k = j - 1;
            if k >= 1 && tokens[k - 1].kind == super::lex::TokenKind::Ident {
                let name_idx = k - 1;
                if tokens[name_idx].is_ident("mut") {
                    continue;
                }
                // Accept `let name =` and `let mut name =`; also plain
                // `name = HashMap::new()` re-assignments.
                let name = tokens[name_idx].text.clone();
                if k >= 2 && tokens[k - 2].is_ident("mut") {
                    k -= 1;
                }
                let _ = k;
                names.insert(name);
            }
        }
        // `= [path] HashMap :: new ( )` with turbofish or generics between
        // the name and `=` is rare enough to leave to the annotation
        // escape hatch.
    }
    names
}

/// Report SRC001 findings for one token stream.
pub fn check(tokens: &[Token], findings: &mut Vec<Finding>) {
    let names = hash_bound_names(tokens);
    if names.is_empty() {
        return;
    }

    for (i, t) in tokens.iter().enumerate() {
        // `name . method (` where method observes order.
        if t.kind == super::lex::TokenKind::Ident && names.contains(&t.text) {
            if let (Some(dot), Some(method), Some(open)) =
                (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3))
            {
                if dot.is_punct('.')
                    && ITER_METHODS.iter().any(|m| method.is_ident(m))
                    && open.is_punct('(')
                {
                    findings.push(Finding {
                        rule: "SRC001",
                        tok: i,
                        line: t.line,
                        message: format!(
                            "`{}` is a hash collection; `.{}()` observes random bucket order",
                            t.text, method.text
                        ),
                        suggestion: Some(
                            "switch to BTreeMap/BTreeSet, or collect and sort before iterating"
                                .to_string(),
                        ),
                    });
                }
            }
        }

        // `for pat in [& [mut]] [self .] name {` — iterating the bare
        // collection.
        if t.is_ident("for") {
            // Find the `in` at generic-depth zero, then inspect the
            // iterated expression up to the loop body `{`.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut found_in = None;
            while j < tokens.len() && j < i + 40 {
                let tk = &tokens[j];
                if tk.is_punct('(') || tk.is_punct('[') {
                    depth += 1;
                } else if tk.is_punct(')') || tk.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && tk.is_ident("in") {
                    found_in = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(in_idx) = found_in else { continue };
            // Collect expression token indices until the body `{`.
            let mut expr = Vec::new();
            let mut k = in_idx + 1;
            while k < tokens.len() && !tokens[k].is_punct('{') && expr.len() < 8 {
                expr.push(k);
                k += 1;
            }
            // Accept shapes: [&] [mut] name | [&] [mut] self . name.
            let core: Vec<usize> = expr
                .into_iter()
                .filter(|&k| !(tokens[k].is_punct('&') || tokens[k].is_ident("mut")))
                .collect();
            let name = match core.as_slice() {
                [n] => Some(*n),
                [s, dot, n] if tokens[*s].is_ident("self") && tokens[*dot].is_punct('.') => {
                    Some(*n)
                }
                _ => None,
            };
            if let Some(n_idx) = name {
                let n = &tokens[n_idx];
                if n.kind == super::lex::TokenKind::Ident && names.contains(&n.text) {
                    findings.push(Finding {
                        rule: "SRC001",
                        tok: n_idx,
                        line: n.line,
                        message: format!(
                            "`for … in {}` iterates a hash collection in random bucket order",
                            n.text
                        ),
                        suggestion: Some(
                            "switch to BTreeMap/BTreeSet, or collect and sort before iterating"
                                .to_string(),
                        ),
                    });
                }
            }
        }
    }
}
