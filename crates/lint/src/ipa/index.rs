//! Workspace symbol indexing: every `fn` item, `use` import and
//! hash-collection binding in every crate, keyed for the call-graph and
//! taint passes.
//!
//! The indexer is built on the same dependency-free lexer as the per-file
//! SRC scan ([`crate::source::lex`]): it recognizes `fn` items by token
//! shape (the `fn` keyword followed by a name, a parenthesized parameter
//! list and a brace-matched body), `use` trees including `{...}` groups and
//! `as` renames, and derives a module path from the file's position in the
//! workspace (`fabric/src/cache.rs` → `fabric::cache`). `#[cfg(test)]`
//! items are stripped before indexing — the determinism contract covers
//! shipped code, and a test-only helper must not launder taint into the
//! graph.

use crate::source::lex::{self, Token, TokenKind};
use crate::source::{raw_findings, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Keywords that look like call heads but never are.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "else", "match", "while", "for", "loop", "return", "fn", "in", "move", "as", "where",
];

/// One indexed function item.
#[derive(Debug)]
pub struct FnItem {
    /// Index of the owning file in [`Workspace::files`].
    pub file: usize,
    /// Module-qualified name, e.g. `fabric::cache::load`.
    pub qualified: String,
    /// Simple name, the call-resolution key.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared `pub` (any visibility wider than private).
    pub is_pub: bool,
    /// Signature declares a return type (`->` at signature depth zero).
    pub has_ret: bool,
    /// Token range of the body, *inside* the braces: `[start, end)`.
    pub body: (usize, usize),
}

/// One lexed + indexed file.
pub struct FileIndex {
    /// Unit name for diagnostics (path relative to the scan root).
    pub unit: String,
    /// Module path derived from the unit, e.g. `fabric::cache`.
    pub module: String,
    /// The cfg(test)-stripped token stream every pass works on.
    pub tokens: Vec<Token>,
    /// Allow directives (governed-line map) from the lexer.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Raw directive lines, pre-propagation (IPA005 keys on these).
    pub directives: BTreeMap<u32, BTreeSet<String>>,
    /// Lines that still carry code after cfg(test) stripping. A directive
    /// whose governed line is test-gated is exempt from the drift audit.
    pub live_lines: BTreeSet<u32>,
    /// Lines carrying code *before* stripping — used to find the governed
    /// line of a directive and to tell test-gated code from no code at all.
    pub all_lines: BTreeSet<u32>,
    /// `use` imports: simple (or renamed) name → full path.
    pub imports: BTreeMap<String, String>,
    /// Raw per-file SRC findings, pre-suppression: the per-file report
    /// once allow-filtered, the taint pass's direct sources and IPA005's
    /// evidence.
    pub(crate) src_findings: Vec<Finding>,
}

impl FileIndex {
    /// Is `rule` suppressed at `line` by a `detlint: allow` directive?
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(&line).is_some_and(|set| set.contains(rule))
    }
}

/// The indexed workspace: all files, all functions, and the resolution map.
pub struct Workspace {
    /// Every indexed file, in deterministic (sorted-path) order.
    pub files: Vec<FileIndex>,
    /// Every `fn` item across all files.
    pub fns: Vec<FnItem>,
    /// Simple name → indices into `fns` (the conservative resolution key).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl Workspace {
    /// Index a set of `(unit, text)` sources into one workspace.
    pub fn index(sources: &[(String, String)]) -> Workspace {
        let mut files = Vec::with_capacity(sources.len());
        let mut fns = Vec::new();
        for (unit, text) in sources {
            let lexed = lex::lex(text);
            let all_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
            let tokens = lex::strip_cfg_test(lexed.tokens);
            let live_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();
            let file_idx = files.len();
            let module = module_path(unit);
            for f in index_fns(&tokens, file_idx, &module) {
                fns.push(f);
            }
            files.push(FileIndex {
                unit: unit.clone(),
                module,
                src_findings: raw_findings(&tokens),
                imports: index_imports(&tokens),
                live_lines,
                all_lines,
                allows: lexed.allows,
                directives: lexed.directives,
                tokens,
            });
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        Workspace {
            files,
            fns,
            by_name,
        }
    }
}

/// Derive a module path from a unit path: strip `crates/`, `src/`, the
/// `.rs` suffix and `mod`/`lib`/`main` stems, drop a `coyote-` crate
/// prefix, join the rest with `::`.
fn module_path(unit: &str) -> String {
    let trimmed = unit.trim_end_matches(".rs");
    let mut parts: Vec<&str> = trimmed
        .split('/')
        .filter(|p| !p.is_empty() && *p != "crates" && *p != "src" && *p != "bin")
        .collect();
    if matches!(parts.last(), Some(&"mod") | Some(&"lib") | Some(&"main")) {
        parts.pop();
    }
    let joined = parts.join("::");
    joined
        .strip_prefix("coyote-")
        .map(str::to_string)
        .unwrap_or(joined)
        .replace('-', "_")
}

/// Is a `pub` (of any width) within the few tokens before `fn_idx`, without
/// crossing a statement/item boundary?
fn is_pub_before(tokens: &[Token], fn_idx: usize) -> bool {
    let lo = fn_idx.saturating_sub(6);
    for j in (lo..fn_idx).rev() {
        let t = &tokens[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_ident("pub") {
            return true;
        }
    }
    false
}

/// Index every `fn` item in one token stream.
fn index_fns(tokens: &[Token], file: usize, module: &str) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue; // `fn(u32) -> u32` pointer type / `Fn(..)` bound.
        }
        let name = name_tok.text.clone();
        let line = tokens[i].line;
        let is_pub = is_pub_before(tokens, i);

        // Walk to the body `{` (or a `;` for trait declarations), tracking
        // paren/bracket depth so `where F: Fn(u32) -> u32` clauses don't
        // end the signature early.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut body_open = None;
        let mut has_ret = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0
                && t.is_punct('-')
                && tokens.get(j + 1).is_some_and(|n| n.is_punct('>'))
            {
                has_ret = true;
            } else if depth == 0 && t.is_punct(';') {
                break; // Body-less trait method.
            } else if depth == 0 && t.is_punct('{') {
                body_open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        // Brace-match the body.
        let mut k = open;
        let mut braces = 0i32;
        while k < tokens.len() {
            if tokens[k].is_punct('{') {
                braces += 1;
            } else if tokens[k].is_punct('}') {
                braces -= 1;
                if braces == 0 {
                    break;
                }
            }
            k += 1;
        }
        out.push(FnItem {
            file,
            qualified: format!("{module}::{name}"),
            name,
            line,
            is_pub,
            has_ret,
            body: (open + 1, k.min(tokens.len())),
        });
        // Continue *inside* the body: nested fns are indexed too.
        i = open + 1;
    }
    out
}

/// Index `use` declarations into a simple-name → full-path map.
fn index_imports(tokens: &[Token]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("use") {
            i = parse_use_tree(tokens, i + 1, &mut Vec::new(), &mut out);
        } else {
            i += 1;
        }
    }
    out
}

/// Parse one use tree starting at `i`, with `prefix` segments already
/// consumed; returns the index after the terminating `;` (or `}`/end).
fn parse_use_tree(
    tokens: &[Token],
    mut i: usize,
    prefix: &mut Vec<String>,
    out: &mut BTreeMap<String, String>,
) -> usize {
    let depth_at_entry = prefix.len();
    let mut last: Option<String> = None;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text != "as" {
            last = Some(t.text.clone());
            i += 1;
        } else if t.is_ident("as") {
            // `path as alias`: map the alias to the accumulated path.
            if let (Some(orig), Some(alias)) = (last.take(), tokens.get(i + 1)) {
                if alias.kind == TokenKind::Ident {
                    prefix.push(orig);
                    out.insert(alias.text.clone(), prefix.join("::"));
                    prefix.pop();
                }
            }
            i += 2;
        } else if t.is_punct(':') {
            // `::` — the pending segment is a path component, push it.
            if let Some(seg) = last.take() {
                prefix.push(seg);
            }
            i += 2; // Both colons.
        } else if t.is_punct('{') {
            // Group: recurse per comma-separated branch.
            i += 1;
            loop {
                i = parse_use_tree(tokens, i, prefix, out);
                match tokens.get(i) {
                    Some(t) if t.is_punct(',') => i += 1,
                    Some(t) if t.is_punct('}') => {
                        i += 1;
                        break;
                    }
                    _ => break,
                }
            }
            prefix.truncate(depth_at_entry);
            // After a group the branch is complete.
            if tokens.get(i).is_some_and(|t| t.is_punct(';')) {
                i += 1;
            }
            return i;
        } else if t.is_punct(',') || t.is_punct('}') {
            // End of this branch within a group.
            if let Some(seg) = last.take() {
                prefix.push(seg.clone());
                out.insert(seg, prefix.join("::"));
                prefix.pop();
            }
            prefix.truncate(depth_at_entry);
            return i;
        } else if t.is_punct(';') {
            if let Some(seg) = last.take() {
                prefix.push(seg.clone());
                out.insert(seg, prefix.join("::"));
                prefix.pop();
            }
            prefix.truncate(depth_at_entry);
            return i + 1;
        } else if t.is_punct('*') {
            // Glob: nothing resolvable.
            last = None;
            i += 1;
        } else {
            i += 1;
        }
    }
    prefix.truncate(depth_at_entry);
    i
}

/// Is this identifier a keyword that can precede `(` without being a call?
pub fn is_non_call_keyword(t: &Token) -> bool {
    NON_CALL_KEYWORDS.iter().any(|k| t.is_ident(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(text: &str) -> Workspace {
        Workspace::index(&[("crates/fabric/src/cache.rs".to_string(), text.to_string())])
    }

    #[test]
    fn fns_are_indexed_with_module_qualification() {
        let w = ws("pub fn load(x: u32) -> u32 { x }\nfn evict() {}\n");
        assert_eq!(w.fns.len(), 2);
        assert_eq!(w.fns[0].qualified, "fabric::cache::load");
        assert!(w.fns[0].is_pub);
        assert_eq!(w.fns[0].line, 1);
        assert!(!w.fns[1].is_pub);
        assert_eq!(w.by_name["evict"], vec![1]);
    }

    #[test]
    fn module_paths_strip_scaffolding() {
        assert_eq!(module_path("crates/fabric/src/cache.rs"), "fabric::cache");
        assert_eq!(module_path("crates/sim/src/lib.rs"), "sim");
        assert_eq!(module_path("crates/lint/src/ipa/mod.rs"), "lint::ipa");
        assert_eq!(module_path("a.rs"), "a");
    }

    #[test]
    fn where_clause_fn_bounds_do_not_end_the_signature() {
        let w = ws("fn apply<F>(f: F) -> u32 where F: Fn(u32) -> u32 { f(1) }");
        assert_eq!(w.fns.len(), 1);
        let (b0, b1) = w.fns[0].body;
        assert!(b1 > b0, "body must be non-empty");
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let w = ws("trait T { fn required(&self) -> u32; }\nfn real() {}\n");
        assert_eq!(w.fns.len(), 1);
        assert_eq!(w.fns[0].name, "real");
    }

    #[test]
    fn use_trees_map_simple_names_to_paths() {
        let w =
            ws("use std::collections::{BTreeMap, HashMap as Fast};\nuse crate::trace::merged;\n");
        let im = &w.files[0].imports;
        assert_eq!(im["BTreeMap"], "std::collections::BTreeMap");
        assert_eq!(im["Fast"], "std::collections::HashMap");
        assert_eq!(im["merged"], "crate::trace::merged");
    }

    #[test]
    fn cfg_test_fns_are_not_indexed() {
        let w = ws("fn shipped() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n");
        assert_eq!(w.fns.len(), 1);
        assert_eq!(w.fns[0].name, "shipped");
    }
}
