//! Replay recordings in the bench harness: where `coyote-bench --record
//! <dir>` points, and what capturing a recording costs (`replay_overhead`).
//!
//! Experiments that can capture a replay recording (`net_chaos`) consult
//! [`dir`]; when no directory was set they skip recording entirely, so the
//! default bench run pays nothing. The directory is set once in `main`
//! before any experiment runs, which makes the plain `OnceLock` handoff
//! race-free under the experiment fan-out.

use crate::report::{ExperimentResult, Row};
use coyote_replay::{run_storm, Recording, StormConfig};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

static DIR: OnceLock<PathBuf> = OnceLock::new();

/// Set the recording directory (once, before experiments run). Returns
/// false if a directory was already set.
pub fn set_dir(dir: &str) -> bool {
    DIR.set(PathBuf::from(dir)).is_ok()
}

/// The recording directory, if `--record` was given.
pub fn dir() -> Option<&'static Path> {
    DIR.get().map(PathBuf::as_path)
}

/// Write `rec` as `<dir>/<name>.cyt` when recording is enabled. Returns
/// the path written, `None` when recording is off. I/O failures warn and
/// return `None` rather than failing the experiment: the measurement is
/// the product, the recording is a debugging artifact.
pub fn save(name: &str, rec: &Recording) -> Option<PathBuf> {
    let dir = dir()?;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: --record {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.cyt"));
    match rec.write_to(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: --record {}: {e}", path.display());
            None
        }
    }
}

/// Storm size: quick mode (CI smoke) shrinks the workload, not the paths.
fn storm_config() -> StormConfig {
    // detlint: allow(SRC007): CI-mode switch; scales the storm only.
    let quick = std::env::var_os("COYOTE_BENCH_QUICK").is_some();
    let (seeds, hops) = if quick { (64, 24) } else { (192, 96) };
    StormConfig::platform(seeds, hops)
}

/// Recording overhead on the platform storm: time one storm run and, on
/// its result, the capture path `--record` adds (`Recording::from_run` +
/// serialization to the `.cyt` byte image), warm-up plus best-of-5 each,
/// and report capture as a share of the run. Contract: capture costs < 10%
/// of the run it rides on, because the recorder wraps the trace and hashes
/// the engine already keeps — it never re-executes and never re-hashes.
pub fn replay_overhead() -> ExperimentResult {
    let cfg = storm_config();
    let mut run_best = Duration::MAX;
    let mut capture_best = Duration::MAX;
    let mut events = 0u64;
    let mut image_bytes = 0usize;
    // Iteration 0 is the warm-up (allocator, caches): its timings are
    // discarded.
    for iter in 0..6 {
        // detlint: allow(SRC002): wall-clock is the measurand of this
        // experiment; it never enters any simulated value.
        let t0 = Instant::now();
        let run = run_storm(&cfg);
        let run_elapsed = t0.elapsed();
        events = run.events;

        // detlint: allow(SRC002): wall-clock is the measurand (see above).
        let t1 = Instant::now();
        // detlint: allow(IPA001): quick mode selects the workload size; the
        // recordings here only measure capture cost and are discarded.
        let rec = Recording::from_run(cfg, run);
        let image = rec.to_bytes();
        let capture_elapsed = t1.elapsed();
        image_bytes = image.len();
        if iter > 0 {
            run_best = run_best.min(run_elapsed);
            capture_best = capture_best.min(capture_elapsed);
        }
    }
    let overhead_pct = if run_best.as_nanos() == 0 {
        0.0
    } else {
        (capture_best.as_secs_f64() / run_best.as_secs_f64() * 1e5).round() / 1e3
    };
    let within = overhead_pct < 10.0;
    let rows = vec![
        Row::new("events executed", "events", events as f64),
        Row::new("storm run (best of 5)", "ms", run_best.as_secs_f64() * 1e3),
        Row::new(
            "capture: from_run + to_bytes (best of 5)",
            "ms",
            capture_best.as_secs_f64() * 1e3,
        ),
        Row::new("recording overhead", "%", overhead_pct),
        Row::new("recording size", "bytes", image_bytes as f64),
    ];
    ExperimentResult {
        id: "replay_overhead".into(),
        title: "Record/replay: capture overhead on the platform storm".into(),
        rows,
        verdict: if within {
            format!("PASS: recording overhead {overhead_pct:.3}% < 10% contract")
        } else {
            format!("FAIL: recording overhead {overhead_pct:.3}% exceeds the 10% contract")
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_overhead_is_within_contract() {
        std::env::set_var("COYOTE_BENCH_QUICK", "1");
        let r = replay_overhead();
        assert!(r.verdict.starts_with("PASS"), "{}", r.verdict);
    }
}
