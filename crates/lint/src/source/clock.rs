//! SRC002: wall-clock escapes.
//!
//! The reproduction's contract is that every observable result is a pure
//! function of `(inputs, seed, thread count)`. `Instant::now()` and
//! `SystemTime::now()` break that: anything derived from them — a latency
//! sample, a timeout, a timestamp in a trace — varies per run and per
//! machine. Model code must use [`coyote_sim::SimTime`]; the only
//! sanctioned wall-clock sites are the bench harness's outer timing loops,
//! which measure the *harness itself* and carry a `detlint: allow(SRC002)`
//! annotation.

use super::lex::Token;
use super::Finding;

/// Report SRC002 findings: `Instant::now` / `SystemTime::now` /
/// `Instant::elapsed`-style calls.
pub fn check(tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let ty = if t.is_ident("Instant") {
            "Instant"
        } else if t.is_ident("SystemTime") {
            "SystemTime"
        } else {
            continue;
        };
        // `Instant :: now` — two ':' puncts then the method name.
        let path_call = tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|m| m.is_ident("now") || m.is_ident("UNIX_EPOCH"));
        if path_call {
            let what = &tokens[i + 3].text;
            findings.push(Finding {
                rule: "SRC002",
                tok: i,
                line: t.line,
                message: format!(
                    "`{ty}::{what}` reads the wall clock; results become run-dependent"
                ),
                suggestion: Some(
                    "model time with coyote_sim::SimTime; if this is harness self-timing, \
                     annotate `// detlint: allow(SRC002): <why>`"
                        .to_string(),
                ),
            });
        }
    }
}
