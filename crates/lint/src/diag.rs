//! The shared diagnostics framework: what every rule emits and how reports
//! are filtered, ranked and rendered.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// How bad a finding is.
///
/// Ordering is semantic: `Info < Warning < Error`, so `max()` over a report
/// yields its gate-relevant severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Observation; never fails a gate.
    Info,
    /// Suspicious but possibly intentional; fails only under `--deny`.
    Warning,
    /// A design-rule violation that would break or deadlock at run time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where a finding lives: an artifact (a spec's config or its floorplan)
/// plus a path within it.
///
/// Kept as two strings so every layer can address its own structure —
/// `config:<spec>` / `qp.window`, `floorplan:Alveo U55C` / `vfpga(1)` —
/// and golden tests can assert locations exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Location {
    /// The artifact being linted.
    pub unit: String,
    /// The element within the artifact.
    pub path: String,
}

impl Location {
    /// Build a location.
    pub fn new(unit: impl Into<String>, path: impl Into<String>) -> Location {
        Location {
            unit: unit.into(),
            path: path.into(),
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.unit, self.path)
    }
}

/// One finding from one rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule identifier (e.g. `CF002`); see the catalog in `rules`.
    pub rule_id: String,
    /// Severity after any allow/deny adjustment.
    pub severity: Severity,
    /// Where the violation is.
    pub location: Location,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the rule knows.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic with no suggestion.
    pub fn new(
        rule_id: &str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule_id: rule_id.to_string(),
            severity,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach a fix suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule_id, self.location, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    help: {s}")?;
        }
        Ok(())
    }
}

/// Per-rule allow/deny configuration, applied to a finished report.
///
/// * `allow` drops every diagnostic of a rule (recorded violations the
///   deployment has accepted).
/// * `deny` promotes a rule's warnings/infos to errors (strict mode for
///   rules a deployment cannot tolerate even as warnings).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    allow: BTreeSet<String>,
    deny: BTreeSet<String>,
}

impl LintConfig {
    /// Empty config: every rule at its catalog severity.
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Suppress a rule entirely.
    pub fn allow(mut self, rule_id: &str) -> LintConfig {
        self.allow.insert(rule_id.to_string());
        self
    }

    /// Promote a rule to error severity.
    pub fn deny(mut self, rule_id: &str) -> LintConfig {
        self.deny.insert(rule_id.to_string());
        self
    }

    /// Apply allow/deny to a raw report.
    pub fn apply(&self, report: Report) -> Report {
        let diagnostics = report
            .diagnostics
            .into_iter()
            .filter(|d| !self.allow.contains(&d.rule_id))
            .map(|mut d| {
                if self.deny.contains(&d.rule_id) {
                    d.severity = Severity::Error;
                }
                d
            })
            .collect();
        Report { diagnostics }
    }
}

/// A collection of diagnostics from one lint run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// All findings, in emission order (stable per input).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Append a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merge another report in.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// No findings at all?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Highest severity present, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Count findings at a severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Findings of one rule.
    pub fn of_rule<'a>(&'a self, rule_id: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.rule_id == rule_id)
    }

    /// True if the report should fail a CI gate (any error).
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// Human-readable rendering, one finding per line (plus suggestions).
    pub fn render_human(&self) -> String {
        if self.is_clean() {
            return "clean: no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine-readable JSON rendering.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, sev: Severity) -> Diagnostic {
        Diagnostic::new(rule, sev, Location::new("unit", "path"), "msg")
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn allow_drops_and_deny_promotes() {
        let mut r = Report::new();
        r.push(diag("A1", Severity::Warning));
        r.push(diag("A2", Severity::Warning));
        let cfg = LintConfig::new().allow("A1").deny("A2");
        let r = cfg.apply(r);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule_id, "A2");
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert!(r.has_errors());
    }

    #[test]
    fn renders_round_trip_json() {
        let mut r = Report::new();
        r.push(diag("X9", Severity::Error).with_suggestion("do the thing"));
        let json = r.render_json();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(r.render_human().contains("error[X9] unit:path: msg"));
        assert!(r.render_human().contains("help: do the thing"));
    }

    #[test]
    fn clean_report_renders_clean() {
        assert!(Report::new().render_human().starts_with("clean"));
        assert_eq!(Report::new().max_severity(), None);
    }
}
