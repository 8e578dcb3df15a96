//! Smoke test of the `coyote-perf` command on the in-process workloads at
//! `--quick` size (`paper_suite` needs a release `coyote-bench` and is left
//! to full runs): no op fails, every metric `BENCHMARK.json` names is
//! emitted with its unit and no other, and the counted values repeat
//! exactly across worker budgets and repeat runs of one seed.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

const IN_PROCESS: [&str; 4] = ["build", "reconfig", "datapath", "rdma"];

fn field(v: &Value, key: &str) -> Value {
    coyote_perf::json_field(v, key).unwrap_or_else(|| panic!("no key {key} in {v:?}"))
}

fn string(v: Value) -> String {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: Value) -> f64 {
    match v {
        Value::Float(f) => f,
        Value::Int(i) => i as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
}

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let raw = std::fs::read(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = serde_json::value_from_slice(&raw).expect("valid JSON");
    let Value::Array(items) = field(&doc, list) else {
        panic!("{list} is not an array");
    };
    items
        .iter()
        .map(|m| (string(field(m, "name")), string(field(m, "unit"))))
        .collect()
}

/// One quick run; returns its metrics as (name, value, unit).
fn quick(workload: &str, seed: u64, trace: bool, threads: usize) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_coyote-perf"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--quick",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .env("COYOTE_THREADS", threads.to_string())
        .current_dir(repo_root())
        .output()
        .expect("coyote-perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = serde_json::value_from_slice(last.as_bytes()).expect("the last line is JSON");
    assert!(
        matches!(field(&doc, "correct"), Value::Bool(true)),
        "{last}"
    );
    assert_eq!(number(field(&doc, "failed")), 0.0, "{last}");
    assert!(number(field(&doc, "attempted")) >= 1.0, "{last}");
    let Value::Object(metrics) = field(&doc, "metrics") else {
        panic!("metrics is not an object: {last}");
    };
    metrics
        .into_iter()
        .map(|(name, m)| (name, number(field(&m, "value")), string(field(&m, "unit"))))
        .collect()
}

fn names_and_units(metrics: &[(String, f64, String)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect()
}

/// Counted values: counters, bytes and simulated quantities. Host times
/// are left out; they differ on every run.
fn counted(metrics: &[(String, f64, String)]) -> Vec<(String, f64)> {
    metrics
        .iter()
        .filter(|(n, _, u)| n.starts_with("sim.") || u == "count" || u == "B")
        .map(|(n, v, _)| (n.clone(), *v))
        .collect()
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(coyote_perf::END_TO_END));
    assert_eq!(declared("per_layer"), own(coyote_perf::PER_LAYER));
}

fn check_workload(workload: &str) {
    let untraced = quick(workload, 7, false, 2);
    assert_eq!(
        names_and_units(&untraced),
        declared("end_to_end"),
        "{workload}"
    );
    assert!(
        untraced.iter().all(|(_, v, _)| *v > 0.0),
        "{workload}: {untraced:?}"
    );

    let one = quick(workload, 7, true, 1);
    let two = quick(workload, 7, true, 2);
    let again = quick(workload, 7, true, 2);
    assert_eq!(names_and_units(&two), declared("per_layer"), "{workload}");
    assert!(!counted(&two).is_empty());
    assert_eq!(counted(&one), counted(&two), "{workload}: 1 vs 2 workers");
    assert_eq!(counted(&two), counted(&again), "{workload}: repeat run");
    let other_seed = quick(workload, 8, true, 2);
    assert_ne!(
        counted(&two),
        counted(&other_seed),
        "{workload}: seed ignored"
    );
}

#[test]
fn build_quick_run() {
    check_workload(IN_PROCESS[0]);
}

#[test]
fn reconfig_quick_run() {
    check_workload(IN_PROCESS[1]);
}

#[test]
fn datapath_quick_run() {
    check_workload(IN_PROCESS[2]);
}

#[test]
fn rdma_quick_run() {
    check_workload(IN_PROCESS[3]);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec![],
        vec!["--workload", "rdma", "--trace", "2"],
        vec!["--workload", "rdma", "--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_coyote-perf"))
            .args(&args)
            .output()
            .expect("coyote-perf runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
