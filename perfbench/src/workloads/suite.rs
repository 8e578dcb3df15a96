//! `paper_suite`: regenerate the paper's 17 results with `coyote-bench`.
//!
//! One op is one pass of the CLI over the tables, figures, ablations and
//! claims, in an empty working directory. A pass passes when the CLI exits
//! 0, its claims verdict says every claim reproduced, and every
//! regenerated `results/<id>.json` is byte-identical to the committed one.
//! The net_*, storm, DES and self-timing experiments are left out: they
//! are synthetic or time themselves.
//!
//! A traced pass runs with `--threads 1 --timings`, so the CLI records each
//! experiment's wall time one after another and they sum to the pass.
//!
//! The simulator's memory is each pass's own peak resident set. A run
//! reports the median over its timed passes: with two workers, the peak of
//! one pass depends on which experiments happen to overlap, and a maximum
//! over the run would follow the one pass where the largest two did.

use super::{checks, Context, Workload};
use crate::json_field as field;
use crate::rusage;
use crate::trace::Recorder;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The experiments a pass regenerates, in `coyote-bench` order.
pub const EXPERIMENTS: [&str; 17] = [
    "table1",
    "table2",
    "table3",
    "fig7a",
    "fig7b",
    "fig8",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "ablation_chunk",
    "ablation_tlb",
    "ablation_pages",
    "ablation_credits",
    "ablation_virt",
    "ablation_mt",
    "claims",
];

/// Per-experiment metric names, in [`EXPERIMENTS`] order.
const EXP_METRICS: [&str; 17] = [
    "exp.table1.ms",
    "exp.table2.ms",
    "exp.table3.ms",
    "exp.fig7a.ms",
    "exp.fig7b.ms",
    "exp.fig8.ms",
    "exp.fig10a.ms",
    "exp.fig10b.ms",
    "exp.fig11.ms",
    "exp.fig12.ms",
    "exp.ablation_chunk.ms",
    "exp.ablation_tlb.ms",
    "exp.ablation_pages.ms",
    "exp.ablation_credits.ms",
    "exp.ablation_virt.ms",
    "exp.ablation_mt.ms",
    "exp.claims.ms",
];

/// The file `coyote-bench --timings` appends to in its working directory.
const WALLCLOCK_FILE: &str = "BENCH_wallclock.json";

/// The workload.
pub struct PaperSuite {
    bin: PathBuf,
    pass_dir: PathBuf,
    threads: usize,
    committed: Vec<(String, Vec<u8>)>,
    /// Per-experiment wall times of the traced passes, ms.
    exp_ms: Vec<Vec<f64>>,
    /// Peak resident set of each timed pass, MB.
    pass_peak_mb: Vec<f64>,
}

impl PaperSuite {
    /// Per-experiment wall times the CLI recorded for the pass just run.
    fn read_timings(&self) -> Result<Vec<f64>, String> {
        use serde_json::Value;
        let path = self.pass_dir.join(WALLCLOCK_FILE);
        let raw = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = serde_json::value_from_slice(&raw).map_err(|e| e.to_string())?;
        let Some(Value::Array(runs)) = field(&doc, "runs") else {
            return Err(format!("{WALLCLOCK_FILE}: no runs"));
        };
        let Some(Value::Array(exps)) = runs.last().and_then(|r| field(r, "experiments")) else {
            return Err(format!("{WALLCLOCK_FILE}: no experiments"));
        };
        EXPERIMENTS
            .iter()
            .map(|id| {
                exps.iter()
                    .find(|e| matches!(field(e, "id"), Some(Value::Str(s)) if s == *id))
                    .and_then(|e| match field(e, "wall_ms") {
                        Some(Value::Float(ms)) => Some(ms),
                        Some(Value::Int(ms)) => Some(ms as f64),
                        _ => None,
                    })
                    .ok_or_else(|| format!("{WALLCLOCK_FILE}: no wall_ms for {id}"))
            })
            .collect()
    }
}

impl Workload for PaperSuite {
    const COUNTED: u64 = 1;
    const COUNTED_QUICK: u64 = 1;
    const WARMUP: u64 = 1;

    fn setup(ctx: &Context) -> Result<Self, String> {
        let listed = Command::new(&ctx.bench_bin)
            .arg("--list")
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("running {} --list: {e}", ctx.bench_bin.display()))?;
        let listed = String::from_utf8_lossy(&listed.stdout);
        if let Some(id) = EXPERIMENTS
            .iter()
            .find(|id| !listed.lines().any(|l| l == **id))
        {
            return Err(format!("coyote-bench does not list {id}"));
        }
        let committed = EXPERIMENTS
            .iter()
            .map(|id| {
                let path = ctx.root.join("results").join(format!("{id}.json"));
                std::fs::read(&path)
                    .map(|bytes| (id.to_string(), bytes))
                    .map_err(|e| format!("committed result {}: {e}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        Ok(PaperSuite {
            bin: ctx.bench_bin.clone(),
            pass_dir: ctx.work.join("pass"),
            threads: ctx.threads,
            committed,
            exp_ms: vec![Vec::new(); EXPERIMENTS.len()],
            pass_peak_mb: Vec::new(),
        })
    }

    fn op(&mut self, _i: u64, rec: &mut Recorder) -> Result<(), String> {
        rec.set_kind("op.pass");
        match std::fs::remove_dir_all(&self.pass_dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", self.pass_dir.display())),
        }
        std::fs::create_dir_all(&self.pass_dir).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(&self.bin);
        cmd.args(EXPERIMENTS)
            .current_dir(&self.pass_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let traced = rec.op_traced();
        if traced {
            cmd.args(["--threads", "1", "--timings"]);
        } else {
            cmd.args(["--threads", &self.threads.to_string()]);
        }
        let (status, stdout, peak_mb) = rec
            .call("cli.pass", || -> std::io::Result<_> {
                let mut child = cmd.spawn()?;
                let mut stdout = Vec::new();
                // Reap the child even if reading fails: dropping the pipe
                // makes its next write fail, so it exits.
                let read = child
                    .stdout
                    .take()
                    .expect("stdout is piped")
                    .read_to_end(&mut stdout);
                let (status, peak_mb) = rusage::wait_peak_mb(&child)?;
                read?;
                Ok((status, stdout, peak_mb))
            })
            .map_err(|e| format!("running {}: {e}", self.bin.display()))?;
        if !status.success() {
            return Err(format!("coyote-bench exited with {status}"));
        }
        self.pass_peak_mb.push(peak_mb);
        checks::claims(&String::from_utf8_lossy(&stdout))?;
        let results = self.pass_dir.join("results");
        checks::results(&self.committed, |id| {
            std::fs::read(results.join(format!("{id}.json")))
        })?;
        if traced {
            let timings = self.read_timings()?;
            for (samples, ms) in self.exp_ms.iter_mut().zip(timings) {
                samples.push(ms);
            }
        }
        Ok(())
    }

    fn begin_count(&mut self) {
        // The warm-up pass starts cold.
        self.pass_peak_mb.clear();
    }

    fn end_count(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }

    fn host_metrics(&self) -> Vec<(&'static str, f64)> {
        EXP_METRICS
            .iter()
            .zip(&self.exp_ms)
            .filter_map(|(name, samples)| crate::stats::median(samples).map(|ms| (*name, ms)))
            .collect()
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::median(&self.pass_peak_mb)
    }
}
