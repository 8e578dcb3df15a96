//! The experiment harness CLI.
//!
//! ```text
//! coyote-bench all              # every table and figure
//! coyote-bench fig7a fig10b     # a selection
//! coyote-bench net              # the network data-plane group
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

/// The order in which the fan-out claims the paper experiments that run
/// for hundreds of milliseconds, ahead of the short ones, which fill in
/// behind them. Median wall-clock of 3 runs at `--threads 1 --timings` on a
/// 2-vCPU x86-64 host, one process each: `fig7b` 480 ms, `fig8` 225,
/// `fig11` 185, `fig12` 142 and `fig7a` 117; every other paper experiment
/// takes under 25 ms (`table3` 0.4).
///
/// The order also sets a run's peak memory. The allocator keeps the heap a
/// worker thread freed, so the peaks of experiments on different workers
/// add up while those on one worker do not. At two workers `par_map` hands
/// out two items per claim, so the list is read in pairs: `fig11`+`fig12`,
/// `fig7b`+`table3` (which only keeps a large resident set out of
/// `fig7b`'s claim), then `fig8`+`fig7a`, taken by the first worker to
/// finish, the one that ran `fig11`+`fig12` (~330 ms). The four largest
/// resident sets (`fig8` 135 MB, `fig11` 76, `fig7a` 36, `fig12` 22) so
/// run back to back on one worker, and `fig7b` (14 MB) beside them. A pass
/// over the 17 paper experiments at two threads peaks at 137 MB in this
/// order (137.2-137.6 over 8 runs), and at 184 MB in order of wall-clock
/// alone.
const CLAIM_ORDER: &[&str] = &["fig11", "fig12", "fig7b", "table3", "fig8", "fig7a"];

/// Thread counts the `scaling` sweep measures.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One sweep point: (threads, per-experiment results+walls, total, fingerprint).
type SweepPoint = (usize, Vec<(ExperimentResult, Duration)>, Duration, u64);

/// Where `--timings` and the scaling sweep record the wall-clock trajectory.
const WALLCLOCK_FILE: &str = "BENCH_wallclock.json";

/// `f()` and its wall-clock time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "harness self-timing (per-experiment wall); never enters any experiment result"
    )]
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run a selection in one fan-out over every experiment that runs alone:
/// the selected ones, plus the inputs of selected evaluations (`claims`)
/// that the selection leaves out, each once, the [`CLAIM_ORDER`] ones
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
        let claimed = CLAIM_ORDER.iter().position(|l| l == id);
        claimed.unwrap_or(CLAIM_ORDER.len())
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

/// FNV-64 over the serialized results, in selection order: one number
/// that pins every value the run produced (the same [`Fnv64`] as the trace
/// hashes).
fn fingerprint(results: &[(ExperimentResult, Duration)]) -> u64 {
    let mut h = Fnv64::new();
    for (result, _) in results {
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
        #[expect(
            clippy::disallowed_methods,
            reason = "harness self-timing of the whole sweep point; wall-clock never enters any experiment result"
        )]
        let start = Instant::now();
        let results = run_selection(selection);
        let total = start.elapsed();
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

/// The command line, printed with any usage error.
const USAGE: &str = "usage: coyote-bench [all | net | scaling | <id>...] \
                     [--list] [--timings] [--gate] [--label V] [--threads N]";

/// Report a usage error and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut list, mut timings, mut gate) = (false, false, false);
    let (mut label, mut threads) = (None, None);
    let mut named: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--timings" => timings = true,
            "--gate" => gate = true,
            flag @ ("--label" | "--threads") => {
                let Some(value) = rest.next() else {
                    usage_error(&format!("{flag} expects a value"));
                };
                if flag == "--label" {
                    label = Some(value.clone());
                } else {
                    threads = Some(value);
                }
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag '{flag}'")),
            id => named.push(id),
        }
    }
    if list {
        for (id, _) in EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    if let Some(threads) = threads {
        match threads.trim().parse::<usize>() {
            Ok(n) if n >= 1 => std::env::set_var(coyote_sim::par::THREADS_ENV, n.to_string()),
            _ => usage_error(&format!(
                "--threads expects a positive integer, got '{threads}'"
            )),
        }
    }
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
    #[expect(
        clippy::disallowed_methods,
        reason = "harness self-timing: measures the harness, and the wall-clock numbers never enter any experiment result"
    )]
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
