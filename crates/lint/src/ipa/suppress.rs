//! IPA005: suppression-drift audit.
//!
//! A `// detlint: allow(RULE): <why>` directive is a reviewed exception —
//! it asserts that a specific finding at a specific site was looked at and
//! judged acceptable. When the code under it changes and the finding goes
//! away, the directive does not: it silently pre-approves whatever hazard
//! lands on that line next. This pass replays the *raw* findings (SRC and
//! IPA alike, pre-suppression) against every directive and flags the ones
//! that no longer match anything — stale suppressions to delete.
//!
//! A directive governs its own line plus the first code line after it
//! (mirroring the lexer's propagation). Two exemptions keep the audit
//! honest: a directive whose governed code is `#[cfg(test)]`-gated is
//! skipped (the raw scan never sees that code, so "no finding" proves
//! nothing), and a directive naming IPA005 itself is taken as a deliberate
//! keep-despite-drift marker.

use super::index::{FileIndex, Workspace};
use super::taint::IpaFinding;

/// Audit every raw directive in the workspace; returns IPA005 findings.
pub fn audit(ws: &Workspace, ipa_raw: &[IpaFinding]) -> Vec<IpaFinding> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (&dline, rules) in &file.directives {
            if rules.contains("IPA005") {
                continue; // Self-sanctioned: drift deliberately accepted.
            }
            let governed = governed_lines(file, dline);
            // Test-gated governed code: the raw scans never saw it.
            if governed
                .iter()
                .any(|l| file.all_lines.contains(l) && !file.live_lines.contains(l))
            {
                continue;
            }
            for rule in rules {
                let src_hit = file
                    .src_findings
                    .iter()
                    .any(|f| f.rule == rule && governed.contains(&f.line));
                let ipa_hit = ipa_raw
                    .iter()
                    .any(|f| f.rule == rule && f.file == fi && governed.contains(&f.line));
                if src_hit || ipa_hit {
                    continue;
                }
                out.push(IpaFinding {
                    rule: "IPA005",
                    file: fi,
                    line: dline,
                    message: format!(
                        "stale suppression: `detlint: allow({rule})` at L{dline} matches no \
                         raw {rule} finding on its governed line{}",
                        match governed.iter().find(|&&l| l != dline) {
                            Some(g) => format!(" (L{g})"),
                            None => String::new(),
                        }
                    ),
                    suggestion: format!(
                        "delete the directive, or re-point it at the line that still needs \
                         the {rule} exception"
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (&ws.files[a.file].unit, a.line).cmp(&(&ws.files[b.file].unit, b.line)));
    out
}

/// The lines a directive at `dline` governs: its own line and the first
/// code-bearing line after it (pre-strip, so test-gated code still counts
/// as "the governed line" for the exemption check).
fn governed_lines(file: &FileIndex, dline: u32) -> Vec<u32> {
    let mut out = vec![dline];
    if let Some(&next) = file.all_lines.iter().find(|&&l| l > dline) {
        out.push(next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_src(src: &str) -> Vec<IpaFinding> {
        let ws = Workspace::index(&[("t.rs".to_string(), src.to_string())]);
        audit(&ws, &[])
    }

    #[test]
    fn live_suppression_is_not_flagged() {
        let fs = audit_src(
            "fn f() {\n    // detlint: allow(SRC002): harness self-timing\n    \
             let t = Instant::now();\n}\n",
        );
        assert!(fs.is_empty(), "the SRC002 finding still exists: {fs:?}");
    }

    #[test]
    fn stale_suppression_is_flagged_at_the_directive_line() {
        let fs = audit_src(
            "fn f() {\n    // detlint: allow(SRC002): harness self-timing\n    \
             let t = 0u64;\n}\n",
        );
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "IPA005");
        assert_eq!(fs[0].line, 2);
        assert!(fs[0].message.contains("allow(SRC002)"));
    }

    #[test]
    fn test_gated_governed_code_is_exempt() {
        let fs = audit_src(
            "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
             // detlint: allow(SRC002): test timing\n        let t = Instant::now();\n    }\n}\n",
        );
        assert!(
            fs.is_empty(),
            "raw scan cannot see test code; no-drift is unprovable: {fs:?}"
        );
    }

    #[test]
    fn ipa005_marked_directives_are_self_sanctioned() {
        let fs = audit_src(
            "fn f() {\n    // detlint: allow(SRC002, IPA005): kept for the next revision\n    \
             let t = 0u64;\n}\n",
        );
        assert!(fs.is_empty(), "IPA005 in the set opts out of the audit");
    }
}
