//! The experiment harness CLI.
//!
//! ```text
//! coyote-bench all              # every table and figure
//! coyote-bench fig7a fig10b     # a selection
//! coyote-bench net              # the network data-plane group
//! coyote-bench net --quick      # CI smoke: same paths, smaller workloads
//! coyote-bench all --timings    # also record wall-clock to BENCH_wallclock.json
//! coyote-bench all --threads 4  # pin the worker budget for this run
//! coyote-bench scaling          # sweep 1/2/4/8 threads, record speedups
//! coyote-bench scaling --gate   # ... and fail if 8 threads lose to 1
//! coyote-bench --list
//! ```
//!
//! Results print as paper-vs-measured tables and are written as JSON under
//! `results/`. Experiments are independent (each owns its own simulation),
//! so they run concurrently; results are merged and printed in selection
//! order, making the output and every `results/*.json` byte bit-identical
//! to a serial run. `COYOTE_THREADS=1` (or `--threads 1`) forces serial
//! execution.
//!
//! The `scaling` pseudo-group runs the selection once per thread count in
//! {1, 2, 4, 8}, asserts the result fingerprints are bit-identical across
//! thread counts, and appends one `kind: "scaling"` entry with
//! per-experiment wall-clock and speedup columns to BENCH_wallclock.json.

#![forbid(unsafe_code)]

use coyote_bench::{experiment, ExperimentResult, Run, EXPERIMENTS};
use coyote_sim::{par_map, Fnv64};
use serde_json::Value;
use std::time::{Duration, Instant};

/// The paper experiments that run for hundreds of milliseconds, longest
/// first: median wall-clock of 3 runs at `--threads 1` on a 2-vCPU x86-64
/// host, one process each, is `fig7b` 580 ms, `table3` 556, `fig11` 402,
/// `fig7a` 339, `fig12` 321 and `fig8` 294; every other experiment takes
/// under 25 ms. The fan-out claims them ahead of the short ones, so the
/// short ones fill in behind them.
const LONGEST_FIRST: &[&str] = &["fig7b", "table3", "fig11", "fig7a", "fig12", "fig8"];

/// Experiments whose *measurand* is host wall-clock (`net_micro` times the
/// serialize/retransmit hot loop in real nanoseconds). Their values are
/// legitimately different on every run, so the `scaling` sweep's
/// bit-identity fingerprint skips them — everything else must match
/// exactly across thread counts.
const NONDET: &[&str] = &["net_micro"];

/// Thread counts the `scaling` sweep measures.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One sweep point: (threads, per-experiment results+walls, total, fingerprint).
type SweepPoint = (usize, Vec<(ExperimentResult, Duration)>, Duration, u64);

/// Where `--timings` and the scaling sweep record the wall-clock trajectory.
const WALLCLOCK_FILE: &str = "BENCH_wallclock.json";

/// `f()` and its wall-clock time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    // detlint: allow(SRC002): harness self-timing (per-experiment
    // wall); never enters any experiment result.
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run a selection in one fan-out over every experiment that runs alone:
/// the selected ones, plus the inputs of selected evaluations (`claims`)
/// that the selection leaves out, each once, the [`LONGEST_FIRST`] ones
/// claimed first. The evaluations then run over the fan-out's results.
/// Results come back in selection order, so printing and JSON output are
/// identical to a serial run.
fn run_selection(selection: &[&str]) -> Vec<(ExperimentResult, Duration)> {
    let runs: Vec<Run> = selection
        .iter()
        .map(|id| experiment(id).expect("selection validated in main"))
        .collect();
    let mut alone: Vec<&str> = Vec::new();
    for (&id, run) in selection.iter().zip(&runs) {
        let ids = match run {
            Run::Alone(_) => vec![id],
            Run::Over(inputs, _) => inputs(),
        };
        for id in ids {
            if !alone.contains(&id) {
                alone.push(id);
            }
        }
    }
    // Stable: everything else keeps selection order.
    alone.sort_by_key(|id| {
        let long = LONGEST_FIRST.iter().position(|l| l == id);
        long.unwrap_or(LONGEST_FIRST.len())
    });
    let (results, walls): (Vec<ExperimentResult>, Vec<Duration>) = par_map(&alone, |_, id| {
        let Some(Run::Alone(run)) = experiment(id) else {
            panic!("{id} is not an experiment that runs alone");
        };
        timed(run)
    })
    .into_iter()
    .unzip();
    selection
        .iter()
        .zip(runs)
        .map(|(id, run)| match run {
            Run::Alone(_) => {
                let i = alone.iter().position(|a| a == id).expect("ran alone");
                (results[i].clone(), walls[i])
            }
            Run::Over(_, evaluate) => timed(|| evaluate(&results)),
        })
        .collect()
}

/// FNV-64 over the serialized deterministic results, in selection order:
/// one number that pins every value the run produced (the same [`Fnv64`] as
/// the trace hashes). [`NONDET`] experiments are skipped.
fn fingerprint(results: &[(ExperimentResult, Duration)]) -> u64 {
    let mut h = Fnv64::new();
    for (result, _) in results {
        if NONDET.contains(&result.id.as_str()) {
            continue;
        }
        h.write(&serde_json::to_vec_pretty(result).expect("serializable result"));
    }
    h.finish()
}

/// Round to whole microseconds: precise enough for a trajectory record,
/// stable enough to diff by eye.
fn ms(elapsed: Duration) -> f64 {
    (elapsed.as_secs_f64() * 1e6).round() / 1e3
}

/// Append one run entry to the wall-clock trajectory file.
fn append_run(entry: Value) -> std::io::Result<()> {
    let mut runs = match std::fs::read(WALLCLOCK_FILE) {
        Ok(raw) => match serde_json::value_from_slice(&raw) {
            Ok(Value::Object(fields)) => fields
                .into_iter()
                .find(|(k, _)| k == "runs")
                .and_then(|(_, v)| match v {
                    Value::Array(runs) => Some(runs),
                    _ => None,
                })
                .unwrap_or_default(),
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    runs.push(entry);
    let doc = Value::Object(vec![("runs".into(), Value::Array(runs))]);
    let mut bytes = serde_json::to_vec_pretty(&doc).expect("serializable document");
    bytes.push(b'\n');
    std::fs::write(WALLCLOCK_FILE, bytes)
}

/// Append a plain (single thread count) run to the trajectory.
fn record_wallclock(
    label: &str,
    threads: usize,
    total: Duration,
    per_exp: &[(&str, Duration)],
) -> std::io::Result<()> {
    append_run(wallclock_entry(label, threads, total, per_exp))
}

/// Build a plain run entry: the uniform shape every trajectory entry shares
/// (`label`, `total_ms`, `experiments: [{id, wall_ms, ...}]`).
fn wallclock_entry(
    label: &str,
    threads: usize,
    total: Duration,
    per_exp: &[(&str, Duration)],
) -> Value {
    let experiments = per_exp
        .iter()
        .map(|(id, d)| {
            Value::Object(vec![
                ("id".into(), Value::Str((*id).into())),
                ("wall_ms".into(), Value::Float(ms(*d))),
            ])
        })
        .collect();
    Value::Object(vec![
        ("label".into(), Value::Str(label.into())),
        ("threads".into(), Value::Int(threads as i128)),
        ("total_ms".into(), Value::Float(ms(total))),
        ("experiments".into(), Value::Array(experiments)),
    ])
}

/// Append a `kind: "scaling"` entry. The shape is a strict superset of the
/// plain [`record_wallclock`] entry — `total_ms` and per-experiment
/// `wall_ms` are the serial (lowest thread count) numbers, so every run in
/// the trajectory file can be compared by the same two keys — with the full
/// sweep carried in `*_by_threads` maps keyed by thread count.
fn record_scaling(label: &str, selection: &[&str], sweeps: &[SweepPoint]) -> std::io::Result<()> {
    append_run(scaling_entry(label, selection, sweeps))
}

/// Build a `kind: "scaling"` entry (see [`record_scaling`]).
fn scaling_entry(label: &str, selection: &[&str], sweeps: &[SweepPoint]) -> Value {
    let (t_hi, _, total_hi, fp) = sweeps.last().expect("non-empty sweep");
    let (_, _, total_lo, _) = sweeps.first().expect("non-empty sweep");
    let experiments = selection
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let lo = sweeps.first().expect("non-empty sweep").1[i].1;
            let hi = sweeps.last().expect("non-empty sweep").1[i].1;
            let by_threads = sweeps
                .iter()
                .map(|(t, results, _, _)| (t.to_string(), Value::Float(ms(results[i].1))))
                .collect();
            Value::Object(vec![
                ("id".into(), Value::Str((*id).into())),
                ("wall_ms".into(), Value::Float(ms(lo))),
                ("wall_ms_by_threads".into(), Value::Object(by_threads)),
                (
                    format!("speedup_t{t_hi}_vs_t1"),
                    Value::Float(speedup(lo, hi)),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("label".into(), Value::Str(label.into())),
        ("kind".into(), Value::Str("scaling".into())),
        (
            "threads".into(),
            Value::Array(
                sweeps
                    .iter()
                    .map(|(t, ..)| Value::Int(*t as i128))
                    .collect(),
            ),
        ),
        ("fingerprint".into(), Value::Str(format!("{fp:016x}"))),
        ("total_ms".into(), Value::Float(ms(*total_lo))),
        (
            "totals_ms_by_threads".into(),
            Value::Object(
                sweeps
                    .iter()
                    .map(|(t, _, d, _)| (t.to_string(), Value::Float(ms(*d))))
                    .collect(),
            ),
        ),
        (
            format!("total_speedup_t{t_hi}_vs_t1"),
            Value::Float(speedup(*total_lo, *total_hi)),
        ),
        ("experiments".into(), Value::Array(experiments)),
    ])
}

/// `serial / parallel`, rounded to 0.001 (values > 1 mean parallel won).
fn speedup(serial: Duration, parallel: Duration) -> f64 {
    if parallel.as_nanos() == 0 {
        return 1.0;
    }
    (serial.as_secs_f64() / parallel.as_secs_f64() * 1e3).round() / 1e3
}

/// The `scaling` sweep: run the selection at each thread count, verify the
/// fingerprints are bit-identical, record speedups, optionally gate.
/// Returns the process exit code.
fn run_scaling(selection: &[&str], label: &str, gate: bool) -> i32 {
    let mut sweeps: Vec<SweepPoint> = Vec::with_capacity(THREAD_SWEEP.len());
    for &t in &THREAD_SWEEP {
        std::env::set_var(coyote_sim::par::THREADS_ENV, t.to_string());
        // detlint: allow(SRC002): harness self-timing of the whole sweep
        // point; wall-clock never enters any experiment result.
        let start = Instant::now();
        let results = run_selection(selection);
        let total = start.elapsed();
        // detlint: allow(IPA001): the wall-clock element of each (result,
        // duration) tuple is destructured away inside `fingerprint` — only
        // the tuple travels, never the timing; the taint is the analyzer's
        // tuple-field-insensitive over-approximation.
        let fp = fingerprint(&results);
        println!(
            "scaling: threads={t:<2} total {:>10.1} ms  fingerprint {fp:016x}",
            ms(total)
        );
        sweeps.push((t, results, total, fp));
    }

    // Write the 1-thread run's results to results/ so the sweep leaves the
    // same artifacts a plain run would.
    let out_dir = std::path::PathBuf::from("results");
    for (result, _) in &sweeps[0].1 {
        if let Err(e) = result.write_json(&out_dir) {
            eprintln!("warning: could not write {}.json: {e}", result.id);
        }
    }

    let fp0 = sweeps[0].3;
    let mut code = 0;
    if sweeps.iter().any(|(_, _, _, fp)| *fp != fp0) {
        eprintln!("scaling: FINGERPRINT DIVERGENCE across thread counts:");
        for (t, _, _, fp) in &sweeps {
            eprintln!("  threads={t}: {fp:016x}");
        }
        code = 1;
    } else {
        println!("scaling: fingerprints bit-identical across {THREAD_SWEEP:?} threads");
    }

    let (t_hi, _, total_hi, _) = *sweeps.last().expect("non-empty sweep");
    let total_lo = sweeps[0].2;
    println!(
        "scaling: {t_hi}-thread total {:.1} ms vs 1-thread {:.1} ms (speedup {:.3}x)",
        ms(total_hi),
        ms(total_lo),
        speedup(total_lo, total_hi)
    );
    if gate && total_hi > total_lo {
        eprintln!(
            "scaling: GATE FAILED: {t_hi}-thread total ({:.1} ms) exceeds 1-thread total \
             ({:.1} ms)",
            ms(total_hi),
            ms(total_lo)
        );
        code = 1;
    }

    match record_scaling(label, selection, &sweeps) {
        Ok(()) => println!("scaling: recorded sweep -> {WALLCLOCK_FILE}"),
        Err(e) => eprintln!("warning: could not write {WALLCLOCK_FILE}: {e}"),
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let timings = args.iter().any(|a| a == "--timings");
    let gate = args.iter().any(|a| a == "--gate");
    if args.iter().any(|a| a == "--quick") {
        // Experiments read this to shrink sizes/iterations (CI smoke runs).
        std::env::set_var("COYOTE_BENCH_QUICK", "1");
    }
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let label = flag_value("--label");
    if let Some(threads) = flag_value("--threads") {
        match threads.trim().parse::<usize>() {
            Ok(n) if n >= 1 => std::env::set_var(coyote_sim::par::THREADS_ENV, n.to_string()),
            _ => {
                eprintln!("--threads expects a positive integer, got '{threads}'");
                std::process::exit(2);
            }
        }
    }
    let mut skip_next = false;
    let named: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--label" || *a == "--threads" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let sweep = named.contains(&"scaling");
    let ids = EXPERIMENTS.iter().map(|&(id, _)| id);
    // Expand the group alias ("net" -> every net_* experiment).
    let named: Vec<&str> = named
        .into_iter()
        .filter(|a| *a != "scaling")
        .flat_map(|a| match a {
            "net" => ids.clone().filter(|id| id.starts_with("net_")).collect(),
            _ => vec![a],
        })
        .collect();
    let selection: Vec<&str> = if named.is_empty() || named.contains(&"all") {
        ids.collect()
    } else {
        named
    };
    let unknown: Vec<&str> = selection
        .iter()
        .copied()
        .filter(|id| experiment(id).is_none())
        .collect();
    if !unknown.is_empty() {
        for id in unknown {
            eprintln!("unknown experiment '{id}' (use --list)");
        }
        std::process::exit(2);
    }

    if sweep {
        let label = label.unwrap_or_else(|| "scaling".into());
        std::process::exit(run_scaling(&selection, &label, gate));
    }

    // Fan the experiments out; merge in selection order so stdout and the
    // JSON files match a serial run byte for byte.
    let threads = coyote_sim::thread_budget().min(selection.len().max(1));
    // detlint: allow(SRC002): harness self-timing — measures the harness,
    // and the wall-clock numbers never enter any experiment result.
    let wall_start = Instant::now();
    let runs = run_selection(&selection);
    let wall_total = wall_start.elapsed();

    let out_dir = std::path::PathBuf::from("results");
    let mut per_exp = Vec::with_capacity(runs.len());
    for (id, (result, elapsed)) in selection.iter().zip(&runs) {
        result.print();
        if let Err(e) = result.write_json(&out_dir) {
            eprintln!("warning: could not write {id}.json: {e}");
        }
        per_exp.push((*id, *elapsed));
    }
    println!();
    println!("JSON records in {}/", out_dir.display());
    if timings {
        let label = label.unwrap_or_else(|| format!("threads={threads}"));
        match record_wallclock(&label, threads, wall_total, &per_exp) {
            Ok(()) => println!(
                "wall-clock: {:.1} ms over {} experiments on {threads} threads -> {WALLCLOCK_FILE}",
                ms(wall_total),
                per_exp.len(),
            ),
            Err(e) => eprintln!("warning: could not write {WALLCLOCK_FILE}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(v: &Value) -> &[(String, Value)] {
        match v {
            Value::Object(fields) => fields,
            _ => panic!("expected object"),
        }
    }

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        obj(v)
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn result(id: &str) -> ExperimentResult {
        ExperimentResult {
            id: id.into(),
            title: String::new(),
            rows: Vec::new(),
            verdict: String::new(),
        }
    }

    /// Claiming `fig8` ahead of the experiments listed before it must not
    /// move any result out of selection order.
    #[test]
    fn results_come_back_in_selection_order() {
        let selection = ["table1", "fig10b", "fig8", "ablation_tlb"];
        let ids: Vec<String> = run_selection(&selection)
            .into_iter()
            .map(|(result, _)| result.id)
            .collect();
        assert_eq!(ids, selection);
    }

    /// A scaling entry is a strict superset of the plain entry: same
    /// `total_ms` + `experiments[{id, wall_ms}]` core, sweep detail in
    /// `*_by_threads` maps, and no per-thread-suffixed keys.
    #[test]
    fn scaling_entry_shares_the_plain_schema() {
        let sweeps: Vec<SweepPoint> = vec![
            (
                1,
                vec![
                    (result("a"), Duration::from_millis(10)),
                    (result("b"), Duration::from_millis(20)),
                ],
                Duration::from_millis(30),
                7,
            ),
            (
                8,
                vec![
                    (result("a"), Duration::from_millis(5)),
                    (result("b"), Duration::from_millis(40)),
                ],
                Duration::from_millis(45),
                7,
            ),
        ];
        let entry = scaling_entry("sweep", &["a", "b"], &sweeps);

        assert!(matches!(get(&entry, "total_ms"), Value::Float(v) if *v == 30.0));
        let by_threads = get(&entry, "totals_ms_by_threads");
        assert!(matches!(get(by_threads, "1"), Value::Float(v) if *v == 30.0));
        assert!(matches!(get(by_threads, "8"), Value::Float(v) if *v == 45.0));

        let Value::Array(exps) = get(&entry, "experiments") else {
            panic!("experiments must be an array");
        };
        assert_eq!(exps.len(), 2);
        let a = &exps[0];
        assert!(matches!(get(a, "id"), Value::Str(s) if s == "a"));
        assert!(matches!(get(a, "wall_ms"), Value::Float(v) if *v == 10.0));
        assert!(matches!(get(get(a, "wall_ms_by_threads"), "8"), Value::Float(v) if *v == 5.0));
        assert!(matches!(get(a, "speedup_t8_vs_t1"), Value::Float(v) if *v == 2.0));
        for e in exps {
            for (k, _) in obj(e) {
                assert!(!k.starts_with("wall_ms_t"), "legacy per-thread key {k}");
            }
        }
    }

    /// The checked-in trajectory file obeys the uniform schema, so a reader
    /// can fold every entry — plain or scaling — with the same two keys.
    #[test]
    fn checked_in_trajectory_is_uniform() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../",
            "BENCH_wallclock.json"
        );
        let raw = std::fs::read(path).expect("trajectory file present");
        let doc = serde_json::value_from_slice(&raw).expect("valid JSON");
        let Value::Array(runs) = get(&doc, "runs") else {
            panic!("runs must be an array");
        };
        assert!(!runs.is_empty());
        for run in runs {
            let Value::Str(label) = get(run, "label") else {
                panic!("label must be a string");
            };
            assert!(
                matches!(get(run, "total_ms"), Value::Float(_) | Value::Int(_)),
                "{label}: total_ms must be a number"
            );
            let Value::Array(exps) = get(run, "experiments") else {
                panic!("{label}: experiments must be an array");
            };
            assert!(!exps.is_empty(), "{label}: no experiments");
            for e in exps {
                let Value::Str(id) = get(e, "id") else {
                    panic!("{label}: experiment id must be a string");
                };
                assert!(
                    matches!(get(e, "wall_ms"), Value::Float(_) | Value::Int(_)),
                    "{label}/{id}: wall_ms must be a number"
                );
                for (k, _) in obj(e) {
                    assert!(
                        !k.starts_with("wall_ms_t"),
                        "{label}/{id}: legacy per-thread key {k}"
                    );
                }
            }
        }
    }
}
