//! Golden tests: every rule in the catalog fires on a seeded violation with
//! the exact rule id and location, and stays silent on a clean counterpart.
//!
//! Config rules are exercised through the JSON fixtures in `fixtures/`
//! (the same files a deployment would feed the CLI); the floorplan rule
//! reads the preset floorplan a spec implies.

use coyote_fabric::{DeviceKind, Floorplan, ShellProfile};
use coyote_lint::{lint_floorplan, lint_shell_spec, Report, Severity, ShellSpec};

fn fixture(name: &str) -> ShellSpec {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ShellSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Assert the report contains exactly one finding of `rule` and that it sits
/// at `unit`/`path`.
#[track_caller]
fn assert_fires(report: &Report, rule: &str, unit: &str, path: &str) {
    let hits: Vec<_> = report.of_rule(rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {rule}, got:\n{}",
        report.render_human()
    );
    assert_eq!(hits[0].location.unit, unit, "{rule} unit");
    assert_eq!(hits[0].location.path, path, "{rule} path");
}

// ----------------------------------------------------------------- config

#[test]
fn clean_config_fixtures_produce_zero_diagnostics() {
    for name in ["clean_full.json", "clean_host_only.json"] {
        let r = lint_shell_spec(&fixture(name));
        assert!(r.is_clean(), "{name}:\n{}", r.render_human());
    }
}

#[test]
fn config_fixtures_fire_their_rule_at_the_exact_location() {
    let cases = [
        (
            "cf002_bad_mtu.json",
            "CF002",
            "config:cf002-bad-mtu",
            "qp.mtu",
        ),
        (
            "cf003_zero_window.json",
            "CF003",
            "config:cf003-zero-window",
            "qp.window",
        ),
        (
            "cf004_inverted_tlb.json",
            "CF004",
            "config:cf004-inverted-tlb",
            "mmu",
        ),
        (
            "cf005_unschedulable.json",
            "CF005",
            "config:cf005-unschedulable",
            "shell",
        ),
        (
            "cf006_service_overflow.json",
            "CF006",
            "config:cf006-service-overflow",
            "shell.services",
        ),
        (
            "cf007_oversized_tlb.json",
            "CF007",
            "config:cf007-oversized-tlb",
            "mmu",
        ),
    ];
    for (file, rule, unit, path) in cases {
        let r = lint_shell_spec(&fixture(file));
        assert_fires(&r, rule, unit, path);
    }
}

// -------------------------------------------------------------- floorplan

#[test]
fn clean_floorplan_produces_zero_diagnostics() {
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemoryNetwork, 4);
    let r = lint_floorplan(&fp);
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn fp007_clock_region_straddle() {
    // Three 33-row bands on a 100-row grid straddle the 25-row clock
    // regions without aligning to them.
    let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostMemory, 3);
    let r = lint_floorplan(&fp);
    let at: Vec<(&str, &str)> = r
        .of_rule("FP007")
        .map(|d| (d.location.unit.as_str(), d.location.path.as_str()))
        .collect();
    let unit = "floorplan:Alveo U55C";
    assert_eq!(
        at,
        [(unit, "vfpga(0)"), (unit, "vfpga(1)"), (unit, "vfpga(2)")],
        "{}",
        r.render_human()
    );
    assert_ne!(r.max_severity(), Some(Severity::Error));
}

// ------------------------------------------------------------ the catalog

#[test]
fn every_catalog_rule_has_golden_coverage() {
    // Keep this list in sync: a rule added to the catalog without a golden
    // test above fails here, and so does a rule dropped from the catalog
    // that is still listed.
    let covered = [
        "FP007", "CF002", "CF003", "CF004", "CF005", "CF006", "CF007",
    ];
    let catalog: Vec<&str> = coyote_lint::CATALOG.iter().map(|r| r.id).collect();
    assert_eq!(catalog, covered, "catalog and golden coverage disagree");
}
