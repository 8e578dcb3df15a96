//! SRC005: `Ordering::Relaxed` atomics.
//!
//! The one sanctioned relaxed atomic in the workspace is `par_map`'s
//! work-claiming counter: its value never reaches an artifact, it only
//! picks which idle worker takes the next slot. Every *other* relaxed
//! access is suspect — a relaxed counter that feeds a trace, a stat or a
//! merge key observes an arbitrary interleaving and makes the artifact
//! schedule-dependent. Warning severity: each site needs a human verdict
//! (annotate the sanctioned ones, reorder or `SeqCst`-and-justify the
//! rest — though if the value reaches an artifact, no memory ordering
//! fixes the race; restructure instead).

use super::lex::Token;
use super::Finding;

/// Report SRC005 findings: `Ordering :: Relaxed`.
pub fn check(tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("Relaxed")
            && i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("Ordering")
        {
            findings.push(Finding {
                rule: "SRC005",
                tok: i,
                line: t.line,
                message: "`Ordering::Relaxed` access: value is schedule-dependent if it \
                          reaches any artifact"
                    .to_string(),
                suggestion: Some(
                    "restructure so the value never feeds an artifact, or annotate the \
                     sanctioned claim counter `// detlint: allow(SRC005): <why>`"
                        .to_string(),
                ),
            });
        }
    }
}
