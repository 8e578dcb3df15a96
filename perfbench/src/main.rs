//! The `coyote-perf` command.
//!
//! ```text
//! coyote-perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! A run prints every metric with its name and unit, then, as its last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! It exits 1 when an op failed or the run could not complete, 2 on a
//! usage error.
//!
//! The worker budget is `COYOTE_THREADS` when set, else two or the core
//! count if smaller. Working files (suite passes, span files) go to
//! `coyote-perf/` in the build's target directory.

use coyote_perf::{stats, Options, Report, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: coyote-perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]";

/// Default worker budget.
const THREADS: usize = 2;

fn usage(msg: &str) -> ExitCode {
    eprintln!("coyote-perf: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(opts) => run(&opts),
        Err(msg) => usage(&msg),
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .ok_or("the executable has no target directory")?;
    let threads = std::env::var(coyote_sim::par::THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| THREADS.min(coyote_sim::thread_budget()));
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        root: std::env::current_dir().map_err(|e| e.to_string())?,
        work: target.join("coyote-perf"),
        bench_bin: exe.with_file_name("coyote-bench"),
        threads,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got '{}'",
            WORKLOADS.join(", "),
            opts.workload
        ));
    }
    Ok(opts)
}

fn run(opts: &Options) -> ExitCode {
    // The simulator's fan-out reads its budget from the environment; set it
    // before anything spawns a thread.
    std::env::set_var(coyote_sim::par::THREADS_ENV, opts.threads.to_string());
    let report = match coyote_perf::run(opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("coyote-perf: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    print_human(opts, &report);
    println!("{}", report.json_line());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_human(opts: &Options, report: &Report) {
    for f in &report.failures {
        eprintln!("coyote-perf: {}: FAILED {f}", opts.workload);
    }
    let tail = match stats::tail_percentile(report.timed_ops) {
        Some(p) => format!("enough for p{p}"),
        None => "too few for a tail percentile".into(),
    };
    println!(
        "{} seed {} threads {}{}: {} set-ups, {} ops attempted, {} failed, {} timed ({tail}); \
         op times x{} to the nominal clock",
        opts.workload,
        opts.seed,
        opts.threads,
        if opts.trace { " traced" } else { "" },
        report.setups,
        report.attempted,
        report.failed,
        report.timed_ops,
        report.clock_factor,
    );
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &report.spans_file {
        println!("spans: {}", path.display());
    }
}
