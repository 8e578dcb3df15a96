//! SRC003: ambient entropy.
//!
//! All randomness in the workspace flows from a caller-supplied seed
//! through [`coyote_sim::Xorshift64Star`]. Anything that taps the OS
//! entropy pool — `thread_rng()`, `OsRng`, `from_entropy()`,
//! `RandomState::new()`, `getrandom` — produces different draws on every
//! run, which silently breaks replay, golden fingerprints and cross-run
//! diffing. There is no sanctioned use; seeded generators cover every
//! need, including test-data generation.

use super::lex::Token;
use super::Finding;

/// Identifiers that reach the OS entropy pool.
const ENTROPY_IDENTS: [&str; 5] = [
    "thread_rng",
    "OsRng",
    "from_entropy",
    "RandomState",
    "getrandom",
];

/// Report SRC003 findings.
pub fn check(tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if let Some(name) = ENTROPY_IDENTS.iter().find(|n| t.is_ident(n)) {
            findings.push(Finding {
                rule: "SRC003",
                tok: i,
                line: t.line,
                message: format!("`{name}` draws ambient entropy; runs are no longer replayable"),
                suggestion: Some(
                    "derive all randomness from a seeded coyote_sim::Xorshift64Star".to_string(),
                ),
            });
        }
    }
}
