//! The shells the paper's experiments deploy, linted: every `ShellConfig`
//! an experiment loads goes through the config and floorplan rules. A
//! finding on one of these is a defect in the shell a paper number came
//! from, so errors fail the test and every warning is listed here.

use coyote::ShellConfig;
use coyote_lint::{lint_floorplan, lint_shell, Report, Severity};
use coyote_mmu::MmuConfig;
use coyote_net::SnifferConfig;

/// Each shell with the experiment that loads it.
fn paper_shells() -> Vec<(String, ShellConfig)> {
    let mut shells = vec![
        (
            "table3 #1".to_string(),
            ShellConfig::host_only(1).with_mmu(MmuConfig::huge_1g()),
        ),
        ("table3 #2".to_string(), ShellConfig::host_memory(2, 16)),
        (
            "table3 #3".to_string(),
            ShellConfig::host_memory_network(1, 16).with_sniffer(SnifferConfig::default()),
        ),
    ];
    for channels in [1, 2, 4, 8, 12, 16, 24, 32] {
        shells.push((
            format!("fig7a host_memory(1, {channels})"),
            ShellConfig::host_memory(1, channels),
        ));
    }
    // Fig. 8's tenant counts; `host_only(1)` is also the shell Table 3's
    // reconfigurations start from.
    for n in [1, 2, 4, 8] {
        shells.push((format!("fig8 host_only({n})"), ShellConfig::host_only(n)));
    }
    shells.push((
        "fig11/fig12 host_memory(1, 8)".to_string(),
        ShellConfig::host_memory(1, 8),
    ));
    shells.push((
        "net host_memory_network(1, 8)".to_string(),
        ShellConfig::host_memory_network(1, 8),
    ));
    shells
}

#[test]
fn the_paper_shells_lint_without_errors() {
    let mut warnings = Vec::new();
    for (name, cfg) in paper_shells() {
        let mut report = lint_shell(&name, &cfg);
        report.extend(lint_floorplan(&cfg.floorplan()));
        assert!(!report.has_errors(), "{name}:\n{}", report.render_human());
        warnings.extend(findings(&name, &report));
    }
    // Eight vFPGAs split the 100-row grid into 12-row bands (the last one
    // 16), so bands 2, 4 and 6 cross a 25-row clock-region boundary.
    let straddle = |v: u8| {
        (
            "fig8 host_only(8)".to_string(),
            "FP007".to_string(),
            format!("vfpga({v})"),
        )
    };
    assert_eq!(warnings, [straddle(2), straddle(4), straddle(6)]);
}

/// `(shell, rule, path)` of every finding in `report`, all warnings.
fn findings(name: &str, report: &Report) -> Vec<(String, String, String)> {
    report
        .diagnostics
        .iter()
        .map(|d| {
            assert_eq!(d.severity, Severity::Warning, "{name}: {d:?}");
            (name.to_string(), d.rule_id.clone(), d.location.path.clone())
        })
        .collect()
}
