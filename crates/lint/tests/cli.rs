//! CLI contract tests: the paths it lints (`.json` specs or a directory of
//! them), exit codes (0 clean/warnings, 1 errors, 2 usage/IO or nothing to
//! lint) and the `--json` schema round-trip.
//!
//! These run the real `coyote-lint` binary via `CARGO_BIN_EXE_`, so they
//! pin exactly what CI and deployments observe.

use coyote_lint::{lint_shell_spec, Report, ShellSpec};
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
fn exit_0_on_clean_spec() {
    let out = run(&[&fixture("clean_full.json")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("clean"));
}

#[test]
fn exit_0_on_warning_only_findings() {
    // CF007 is warning severity: reported, but not a failure.
    let out = run(&[&fixture("cf007_oversized_tlb.json")]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("CF007"));
}

#[test]
fn exit_1_on_error_findings() {
    let out = run(&[&fixture("cf002_bad_mtu.json")]);
    assert_eq!(code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stdout).contains("CF002"));
}

#[test]
fn exit_2_on_usage_and_io_errors() {
    // No paths.
    assert_eq!(code(&run(&[])), 2);
    // Unknown option, including the retired mode flags.
    assert_eq!(code(&run(&["--frobnicate"])), 2);
    for retired in ["--source", "--ipa", "--platform", "--strict"] {
        assert_eq!(
            code(&run(&[retired, &fixture("clean_full.json")])),
            2,
            "{retired} is not an option"
        );
    }
    // Unknown rule id, including retired ids.
    for id in ["ZZ999", "SRC001", "IPA001", "PG001", "CAP001", "ISO001"] {
        assert_eq!(code(&run(&["--allow", id, "x.json"])), 2, "{id}");
    }
    // A nonexistent file.
    assert_eq!(code(&run(&["/nonexistent/shell.json"])), 2);
    // A path with nothing to lint: an unsupported extension (Rust is
    // clippy's to lint, and bitstream images are checked by the loader's
    // `Bitstream::validate`), or a directory with no .json specs.
    let blob = format!("{}/image.bin", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&blob, b"COYOTE").unwrap();
    assert_eq!(code(&run(&[&blob])), 2);
    let manifest = format!("{}/Cargo.toml", env!("CARGO_MANIFEST_DIR"));
    assert_eq!(code(&run(&[&manifest])), 2);
    let lib = format!("{}/src/lib.rs", env!("CARGO_MANIFEST_DIR"));
    assert_eq!(code(&run(&[&lib])), 2);
    let src = format!("{}/src", env!("CARGO_MANIFEST_DIR"));
    assert_eq!(code(&run(&[&src])), 2);
    let empty = format!("{}/empty-lint-dir", env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&empty).unwrap();
    assert_eq!(code(&run(&[&empty])), 2);
}

#[test]
fn allow_and_deny_shift_the_exit_code() {
    // Allowing the fired rule turns an error run clean.
    let out = run(&["--allow", "CF002", &fixture("cf002_bad_mtu.json")]);
    assert_eq!(code(&out), 0);
    // Denying a warning rule promotes it to a failure.
    let out = run(&["--deny", "CF007", &fixture("cf007_oversized_tlb.json")]);
    assert_eq!(code(&out), 1);
}

#[test]
fn directory_scan_aggregates_findings() {
    // Pointing the CLI at the config fixture directory picks up every
    // seeded violation in one deterministic report.
    let out = run(&[&fixture("")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["CF002", "CF003", "CF004", "CF005", "CF006", "CF007"] {
        assert!(text.contains(rule), "directory scan must report {rule}");
    }
    // Deterministic: two runs render identically.
    let again = run(&[&fixture("")]);
    assert_eq!(out.stdout, again.stdout);
}

// ------------------------------------------------------------ stale specs

#[test]
fn a_spec_with_a_reconfig_section_is_refused_by_name() {
    // The completion ring has one fixed size, so a spec that still sizes
    // it is stale: refused as unreadable, naming the key, not linted clean.
    let spec = format!("{}/reconfig-section.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &spec,
        r#"{"name": "stale", "device": "u55c", "n_vfpgas": 1,
            "memory_channels": 0, "networking": false, "sniffer": false,
            "n_host_streams": 4, "n_card_streams": 0, "node_id": 1,
            "reconfig": {"ring_slots": 4, "max_batch_runs": 8}}"#,
    )
    .unwrap();
    let out = run(&[&spec]);
    assert_eq!(code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown key `reconfig`"), "{err}");
}

// ------------------------------------------------------------------ JSON

#[test]
fn json_output_round_trips_through_the_report_schema() {
    let path = fixture("cf006_service_overflow.json");
    let out = run(&["--json", &path]);
    assert_eq!(code(&out), 1);
    let parsed: Report =
        serde_json::from_slice(&out.stdout).expect("stdout must be a valid Report");
    // The oversized MMU is a CF007 warning and overflows the service band.
    let ids: Vec<&str> = parsed
        .diagnostics
        .iter()
        .map(|d| d.rule_id.as_str())
        .collect();
    assert_eq!(ids, ["CF007", "CF006"]);
    let d = &parsed.diagnostics[1];
    assert_eq!(d.location.unit, "config:cf006-service-overflow");
    assert_eq!(d.location.path, "shell.services");
    // Round-trip: re-serializing the parsed report reproduces the library's
    // own rendering of the same file.
    let text = std::fs::read_to_string(&path).unwrap();
    let direct = lint_shell_spec(&ShellSpec::from_json(&text).unwrap());
    assert_eq!(parsed, direct);
}

#[test]
fn json_clean_report_is_an_empty_diagnostics_array() {
    let out = run(&["--json", &fixture("clean_host_only.json")]);
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
    let listed: Vec<&str> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        listed,
        ["FP007", "CF002", "CF003", "CF004", "CF005", "CF006", "CF007"],
        "--catalog must list the 7 rules, ordered by layer then id"
    );
}
