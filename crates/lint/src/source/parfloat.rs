//! SRC004: floating-point accumulation inside `par_map` workers.
//!
//! `par_map` guarantees bit-identical output at any thread count because
//! results merge in input order. That guarantee holds only if each slot's
//! value is itself schedule-independent. Integer math is; floating-point
//! *reduction* is not associative, so a worker that accumulates floats
//! across items it happens to claim (`sum += x as f64`) produces
//! different bits depending on which items its thread drew. Per-slot
//! float math that never crosses slots is fine — which is why this rule
//! is a warning, not an error: it flags float arithmetic inside the
//! `par_map(...)` call region for a human to classify.

use super::lex::{Token, TokenKind};
use super::Finding;

/// Is this token an arithmetic operator a float could flow through?
fn is_arith(t: &Token) -> bool {
    t.is_punct('+') || t.is_punct('-') || t.is_punct('*') || t.is_punct('/')
}

/// Report SRC004 findings: float literals or `f32`/`f64` casts adjacent to
/// arithmetic inside a `par_map(...)` call. One finding per call site.
pub fn check(tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_ident("par_map") && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))) {
            i += 1;
            continue;
        }
        let call_line = tokens[i].line;
        // Scan the argument region to the matching close paren.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut flagged = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if !flagged {
                let float_literal_in_arith = t.kind == TokenKind::Float
                    && (j > 0 && is_arith(&tokens[j - 1])
                        || tokens.get(j + 1).is_some_and(is_arith));
                let float_cast = (t.is_ident("f32") || t.is_ident("f64"))
                    && j > 0
                    && tokens[j - 1].is_ident("as");
                if float_literal_in_arith || float_cast {
                    findings.push(Finding {
                        rule: "SRC004",
                        tok: j,
                        line: t.line,
                        message: format!(
                            "float arithmetic inside the par_map call at line {call_line}: \
                             a cross-slot reduction would be schedule-dependent"
                        ),
                        suggestion: Some(
                            "keep float math per-slot (merge integers, convert after the join), \
                             or annotate `// detlint: allow(SRC004): <why>` if provably per-slot"
                                .to_string(),
                        ),
                    });
                    flagged = true;
                }
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
}
