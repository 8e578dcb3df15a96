//! SRC006: thread spawns outside the sanctioned fan-out.
//!
//! Determinism under parallelism is a property of the *merge*, not the
//! threads: `par_map` is safe because every slot's result lands at its
//! input index regardless of which thread computed it. An ad-hoc
//! `thread::spawn` (or scope spawn) bypasses that merge — whatever the
//! new thread writes lands whenever the scheduler lets it. All fork-join
//! parallelism must go through `coyote_sim::par_map`; its own internals
//! carry the one sanctioned annotation.

use super::lex::Token;
use super::Finding;

/// Report SRC006 findings: `thread :: spawn`, `thread :: scope`, and
/// `<receiver> . spawn (` scope-handle spawns.
pub fn check(tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        // `thread :: spawn` / `thread :: scope`.
        if t.is_ident("thread")
            && tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|m| m.is_ident("spawn") || m.is_ident("scope"))
        {
            let what = &tokens[i + 3].text;
            findings.push(Finding {
                rule: "SRC006",
                tok: i,
                line: t.line,
                message: format!(
                    "`thread::{what}` outside the sanctioned par_map fan-out: the result \
                     merge is no longer input-ordered"
                ),
                suggestion: Some(
                    "express the parallelism as coyote_sim::par_map over an input slice"
                        .to_string(),
                ),
            });
            continue;
        }
        // `scope . spawn (` — a scoped-thread handle.
        if t.is_ident("spawn")
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            findings.push(Finding {
                rule: "SRC006",
                tok: i,
                line: t.line,
                message: "`.spawn(...)` scoped-thread launch outside the sanctioned \
                          par_map fan-out"
                    .to_string(),
                suggestion: Some(
                    "express the parallelism as coyote_sim::par_map over an input slice"
                        .to_string(),
                ),
            });
        }
    }
}
