//! SRC007: environment reads in model code.
//!
//! `std::env::var` makes a result depend on process state that no seed or
//! input captures — two runs of "the same" experiment can diverge because
//! a shell exported something. The workspace has exactly one sanctioned
//! read: `COYOTE_THREADS` in `thread_budget`, which by the par_map
//! contract *cannot* change results, only wall-clock — and it carries the
//! annotation saying so. Warning severity: CLI argument parsing in `main`
//! binaries is also legitimate and gets annotated.

use super::lex::Token;
use super::Finding;

/// Report SRC007 findings: `env :: var` / `env :: var_os` / `env :: vars`.
pub fn check(tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("env")
            && tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|m| m.is_ident("var") || m.is_ident("var_os") || m.is_ident("vars"))
        {
            let what = &tokens[i + 3].text;
            findings.push(Finding {
                rule: "SRC007",
                tok: i,
                line: t.line,
                message: format!(
                    "`env::{what}` read: the result depends on process environment, which no \
                     seed captures"
                ),
                suggestion: Some(
                    "pass the value as an explicit parameter; annotate sanctioned reads \
                     (thread budget, CLI plumbing) `// detlint: allow(SRC007): <why>`"
                        .to_string(),
                ),
            });
        }
    }
}
