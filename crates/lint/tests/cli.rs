//! CLI contract tests: the path picks the rules (`.json` spec, `.bin`
//! bitstream, `.rs` file or directory), exit codes (0 clean/warnings,
//! 1 errors, 2 usage/IO or nothing to lint) and the `--json` schema
//! round-trip.
//!
//! These run the real `coyote-lint` binary via `CARGO_BIN_EXE_`, so they
//! pin exactly what CI and deployments observe.

use coyote_lint::Report;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_coyote-lint"))
}

fn fixture(rel: &str) -> String {
    format!("{}/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn coyote-lint")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

// ------------------------------------------------------------- exit codes

#[test]
fn exit_0_on_clean_source() {
    let out = run(&[&fixture("src/src001_clean.rs")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("clean"));
}

#[test]
fn exit_0_on_warning_only_findings() {
    // SRC005 is warning severity: reported, but not a failure.
    let out = run(&[&fixture("src/src005_bad.rs")]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("SRC005"));
}

#[test]
fn exit_1_on_error_findings() {
    let out = run(&[&fixture("src/src002_bad.rs")]);
    assert_eq!(code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stdout).contains("SRC002"));
}

#[test]
fn exit_2_on_usage_and_io_errors() {
    // No paths.
    assert_eq!(code(&run(&[])), 2);
    // Unknown option, including the retired mode flags.
    assert_eq!(code(&run(&["--frobnicate"])), 2);
    for retired in ["--source", "--ipa", "--platform", "--strict"] {
        assert_eq!(
            code(&run(&[retired, &fixture("src/src001_clean.rs")])),
            2,
            "{retired} is not an option"
        );
    }
    // Unknown rule id.
    assert_eq!(code(&run(&["--allow", "ZZ999", "x.json"])), 2);
    // Nonexistent files.
    assert_eq!(code(&run(&["/nonexistent/detlint.rs"])), 2);
    assert_eq!(code(&run(&["/nonexistent/shell.json"])), 2);
    // A path with nothing to lint: an unsupported extension, or a
    // directory with no .rs files and no .json specs.
    let manifest = format!("{}/Cargo.toml", env!("CARGO_MANIFEST_DIR"));
    assert_eq!(code(&run(&[&manifest])), 2);
    let empty = format!("{}/empty-lint-dir", env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&empty).unwrap();
    assert_eq!(code(&run(&[&empty])), 2);
}

#[test]
fn allow_and_deny_shift_the_exit_code() {
    // Allowing the fired rule turns an error run clean.
    let out = run(&["--allow", "SRC002", &fixture("src/src002_bad.rs")]);
    assert_eq!(code(&out), 0);
    // Denying a warning rule promotes it to a failure.
    let out = run(&["--deny", "SRC005", &fixture("src/src005_bad.rs")]);
    assert_eq!(code(&out), 1);
}

#[test]
fn directory_scan_aggregates_findings() {
    // Pointing the CLI at the fixture directory picks up every seeded
    // violation in one deterministic report.
    let out = run(&[&fixture("src")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["SRC001", "SRC002", "SRC003", "SRC006"] {
        assert!(text.contains(rule), "directory scan must report {rule}");
    }
    // Deterministic: two runs render identically.
    let again = run(&[&fixture("src")]);
    assert_eq!(out.stdout, again.stdout);
}

// -------------------------------------------------------------- platform

#[test]
fn platform_mode_reports_the_wait_for_cycle() {
    // A spec runs the platform rules with the config rules, in one report.
    let out = run(&[&fixture("platform/wf001_ring_cycle.json")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("WF001"), "{text}");
    assert!(
        text.contains("software -> reconfig.doorbell -> reconfig.engine -> reconfig.ring"),
        "the rendered diagnostic must print the full cycle:\n{text}"
    );
}

#[test]
fn platform_rules_are_clean_on_the_clean_fixture_and_gate_on_errors() {
    let out = run(&[&fixture("platform/clean_platform.json")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stdout));

    let out = run(&[&fixture("platform/iso001_cross_tenant_reach.json")]);
    assert_eq!(code(&out), 1, "error findings fail the run");

    // CAP rules are warnings: reported but never a failure without --deny.
    let out = run(&[&fixture("platform/cap001_rate_overrun.json")]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("CAP001"));
    let out = run(&[
        "--deny",
        "CAP001",
        &fixture("platform/cap001_rate_overrun.json"),
    ]);
    assert_eq!(code(&out), 1, "--deny promotes the advisory to a failure");
}

#[test]
fn platform_directory_scan_aggregates_and_is_deterministic() {
    let out = run(&[&fixture("platform")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["PG001", "WF001", "CAP002", "ISO002"] {
        assert!(text.contains(rule), "directory scan must report {rule}");
    }
    let again = run(&[&fixture("platform")]);
    assert_eq!(out.stdout, again.stdout);
}

// ------------------------------------------------------------------- ipa

#[test]
fn ipa_mode_reports_the_full_call_chain() {
    // A Rust file runs the interprocedural rules with the SRC rules.
    let out = run(&[&fixture("ipa/ipa001_chain.rs")]);
    assert_eq!(code(&out), 1, "IPA001 is error severity");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IPA001"), "{text}");
    assert!(
        text.contains("leaf (") && text.contains("-> mid (") && text.contains("-> top ("),
        "the rendered diagnostic must print the helper chain hop by hop:\n{text}"
    );
    assert!(
        text.contains("-> fingerprint_of ("),
        "the chain must end at the sink:\n{text}"
    );
}

#[test]
fn ipa_rules_gate_on_taint_errors_and_pass_clean() {
    let out = run(&[&fixture("ipa/ipa001_chain.rs")]);
    assert_eq!(code(&out), 1, "the taint path fails the run");
    // Warning-severity IPA rules report without failing the run.
    let out = run(&[&fixture("ipa/ipa005_stale.rs")]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("IPA005"));
    let out = run(&[&fixture("ipa/ipa005_live.rs")]);
    assert_eq!(code(&out), 0);
}

#[test]
fn ipa_directory_scan_joins_files_into_one_workspace() {
    // Pointing the CLI at the fixture directory indexes every file into
    // one call graph and reports each seeded violation, deterministically.
    let out = run(&[&fixture("ipa")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["IPA001", "IPA003", "IPA004", "IPA005"] {
        assert!(text.contains(rule), "directory scan must report {rule}");
    }
    let again = run(&[&fixture("ipa")]);
    assert_eq!(out.stdout, again.stdout, "ipa scan must be deterministic");
}

#[test]
fn ipa_json_carries_the_chain_and_round_trips() {
    let path = fixture("ipa/ipa001_chain.rs");
    let out = run(&["--json", &path]);
    assert_eq!(code(&out), 1);
    let parsed: Report =
        serde_json::from_slice(&out.stdout).expect("stdout must be a valid Report");
    let ids: Vec<&str> = parsed
        .diagnostics
        .iter()
        .map(|d| d.rule_id.as_str())
        .collect();
    assert_eq!(
        ids,
        ["SRC001", "IPA001"],
        "the origin's SRC finding, then the chain"
    );
    let d = &parsed.diagnostics[1];
    assert_eq!(d.location.path, "L15");
    assert!(d.location.unit.starts_with("ipa:"));
    assert!(
        d.message.contains("-> top (") && d.message.contains("-> fingerprint_of ("),
        "the JSON message must carry the same chain as the human rendering: {}",
        d.message
    );
}

// ------------------------------------------------------------------ JSON

#[test]
fn json_output_round_trips_through_the_report_schema() {
    let path = fixture("src/src001_bad.rs");
    let out = run(&["--json", &path]);
    assert_eq!(code(&out), 1);
    let parsed: Report =
        serde_json::from_slice(&out.stdout).expect("stdout must be a valid Report");
    // The hash-ordered `for` loop is SRC001 and, since `frame_order` is
    // public and returns what the loop built, also an IPA004 escape.
    let ids: Vec<&str> = parsed
        .diagnostics
        .iter()
        .map(|d| d.rule_id.as_str())
        .collect();
    assert_eq!(ids, ["SRC001", "IPA004"]);
    let d = &parsed.diagnostics[0];
    assert_eq!(d.rule_id, "SRC001");
    assert_eq!(d.location.path, "L7");
    assert!(d.location.unit.starts_with("src:"));
    // Round-trip: re-serializing the parsed report reproduces the library's
    // own rendering of the same file.
    let text = std::fs::read_to_string(&path).unwrap();
    let direct = coyote_lint::lint_rust_sources(&[(path, text)]);
    assert_eq!(parsed, direct);
}

#[test]
fn json_clean_report_is_an_empty_diagnostics_array() {
    let out = run(&["--json", &fixture("src/src003_clean.rs")]);
    assert_eq!(code(&out), 0);
    let parsed: Report = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(parsed.diagnostics.is_empty());
}

// --------------------------------------------------------------- catalog

#[test]
fn catalog_lists_the_new_rule_families() {
    let out = run(&["--catalog"]);
    assert_eq!(code(&out), 0);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "SRC001", "SRC002", "SRC003", "SRC004", "SRC005", "SRC006", "SRC007", "DS004", "PG001",
        "PG002", "WF001", "WF002", "WF003", "WF004", "CAP001", "CAP002", "CAP003", "ISO001",
        "ISO002", "IPA001", "IPA003", "IPA004", "IPA005",
    ] {
        assert!(text.contains(rule), "--catalog must list {rule}");
    }
    // Retired with the event engine whose traces and posts they checked.
    for rule in [
        "DS001", "DS002", "DS003", "DS005", "DS006", "DS007", "IPA002",
    ] {
        assert!(!text.contains(rule), "--catalog must not list {rule}");
    }
}
