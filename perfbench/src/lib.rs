//! `coyote-perf`: the host-time benchmark of the Coyote v2 simulator.
//!
//! One run executes one workload in this process (or, for `paper_suite`,
//! in `coyote-bench` child processes) for a fixed number of seconds, with a
//! single closed-loop client: the next op starts when the previous one has
//! returned and been checked. An untraced run reports the end-to-end
//! metrics; a traced run reports the per-layer metrics and writes every
//! span to a file. See `README.md` for the catalogue and the method.

mod clock;
mod rusage;
pub mod stats;
mod trace;
mod workloads;

use clock::Clock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Context, Workload};

/// Set-ups before the warm-up. More follow between timed ops (see
/// [`SETUP_SHARE`]); the reported `setup_s` is the median of all of them.
const MIN_SETUPS: usize = 3;

/// Share of the timed phase that set-ups between ops take: after one that
/// took `d`, the next is due `d / SETUP_SHARE` later, and an op longer than
/// that is followed by as many as have fallen due. A burst of load on the
/// host moves every sample taken during it; spreading the samples over the
/// run, as the ops are, keeps one burst from moving the median. A set-up
/// of a second or more does not repeat within a run.
const SETUP_SHARE: f64 = 0.02;

/// Units of host-time values, which are scaled to the nominal clock.
const HOST_TIME_UNITS: [&str; 4] = ["ms", "us", "ns", "ns/B"];

/// Failure messages printed per run, at most.
const MAX_REPORTED_FAILURES: usize = 5;

/// The end-to-end metrics (name, unit), reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (name, unit), reported by traced runs. A metric
/// of a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.shell_flow_ms_p50", "ms"),
    ("synth.app_flow_ms_p50", "ms"),
    ("synth.ns_per_move", "ns"),
    ("synth.moves", "count"),
    ("synth.expansions", "count"),
    ("sim.build.shell_flow_h_mean", "sim_h"),
    ("sim.build.app_saving_pct", "%"),
    ("fabric.validate_ms_p50", "ms"),
    ("fabric.ns_per_byte", "ns/B"),
    ("fabric.cache_hits", "count"),
    ("fabric.cache_misses", "count"),
    ("fabric.cache_evictions", "count"),
    ("fabric.uploads_rejected", "count"),
    ("driver.batched_ms_p50", "ms"),
    ("driver.flips_detected", "count"),
    ("driver.retried_runs", "count"),
    ("core.reconfig_app_ms_p50", "ms"),
    ("core.reconfig_shell_ms_p50", "ms"),
    ("core.invoke_us_p50", "us"),
    ("core.drain_ms_p50", "ms"),
    ("core.drain_ns_per_byte", "ns/B"),
    ("core.run_with_nic_ms_p50", "ms"),
    ("mem.write_ns_per_byte", "ns/B"),
    ("mem.read_ns_per_byte", "ns/B"),
    ("mmu.stlb_misses", "count"),
    ("mmu.ltlb_misses", "count"),
    ("sched.credit_stalls", "count"),
    ("dma.host_bytes", "B"),
    ("sim.datapath.gbps", "sim_Gbit/s"),
    ("sim.datapath.latency_us_p50", "sim_us"),
    ("sim.datapath.latency_us_p99", "sim_us"),
    ("net.post_us_p50", "us"),
    ("net.write_ms_p50", "ms"),
    ("net.read_ms_p50", "ms"),
    ("net.retransmit_us_per_op", "us"),
    ("net.ns_per_frame", "ns"),
    ("net.frames", "count"),
    ("net.dropped", "count"),
    ("net.retransmits", "count"),
    ("net.payload_copies", "count"),
    ("sim.rdma.write_gbps", "sim_Gbit/s"),
    ("sim.rdma.read_gbps", "sim_Gbit/s"),
    ("sim.reconfig.disk_ms", "sim_ms"),
    ("sim.reconfig.copy_ms", "sim_ms"),
    ("sim.reconfig.icap_ms", "sim_ms"),
    ("sim.reconfig.total_ms", "sim_ms"),
    ("exp.table1.ms", "ms"),
    ("exp.table2.ms", "ms"),
    ("exp.table3.ms", "ms"),
    ("exp.fig7a.ms", "ms"),
    ("exp.fig7b.ms", "ms"),
    ("exp.fig8.ms", "ms"),
    ("exp.fig10a.ms", "ms"),
    ("exp.fig10b.ms", "ms"),
    ("exp.fig11.ms", "ms"),
    ("exp.fig12.ms", "ms"),
    ("exp.ablation_chunk.ms", "ms"),
    ("exp.ablation_tlb.ms", "ms"),
    ("exp.ablation_pages.ms", "ms"),
    ("exp.ablation_credits.ms", "ms"),
    ("exp.ablation_virt.ms", "ms"),
    ("exp.ablation_mt.ms", "ms"),
    ("exp.claims.ms", "ms"),
    ("bench.self_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// How a host-time per-layer metric is derived from the spans.
enum Host {
    /// Median duration of one layer call, divided by the unit's ns.
    CallP50(&'static str, f64),
    /// Total duration of these calls over the work units credited to them.
    NsPerUnit(&'static [&'static str]),
    /// Mean time in this call per op of the run, µs.
    UsPerOp(&'static str),
    /// Median busy time of ops of this kind, ms.
    OpP50Ms(&'static str),
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

const HOST_METRICS: &[(&str, Host)] = &[
    (
        "synth.shell_flow_ms_p50",
        Host::CallP50("synth.shell_flow", MS),
    ),
    ("synth.app_flow_ms_p50", Host::CallP50("synth.app_flow", MS)),
    (
        "synth.ns_per_move",
        Host::NsPerUnit(&["synth.shell_flow", "synth.app_flow"]),
    ),
    (
        "fabric.validate_ms_p50",
        Host::CallP50("fabric.validate", MS),
    ),
    ("fabric.ns_per_byte", Host::NsPerUnit(&["fabric.validate"])),
    ("driver.batched_ms_p50", Host::CallP50("driver.batched", MS)),
    (
        "core.reconfig_app_ms_p50",
        Host::CallP50("core.reconfig_app", MS),
    ),
    (
        "core.reconfig_shell_ms_p50",
        Host::CallP50("core.reconfig_shell", MS),
    ),
    ("core.invoke_us_p50", Host::CallP50("core.invoke", US)),
    ("core.drain_ms_p50", Host::CallP50("core.drain", MS)),
    ("core.drain_ns_per_byte", Host::NsPerUnit(&["core.drain"])),
    (
        "core.run_with_nic_ms_p50",
        Host::CallP50("core.run_with_nic", MS),
    ),
    ("mem.write_ns_per_byte", Host::NsPerUnit(&["mem.write"])),
    ("mem.read_ns_per_byte", Host::NsPerUnit(&["mem.read"])),
    ("net.post_us_p50", Host::CallP50("net.post", US)),
    ("net.write_ms_p50", Host::OpP50Ms("op.write")),
    ("net.read_ms_p50", Host::OpP50Ms("op.read")),
    ("net.retransmit_us_per_op", Host::UsPerOp("net.retransmit")),
    (
        "net.ns_per_frame",
        Host::NsPerUnit(&["core.run_with_nic", "net.retransmit"]),
    ),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["paper_suite", "build", "reconfig", "datapath", "rdma"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the op stream.
    pub seed: u64,
    /// Seconds the timed phase lasts (it also lasts until the counted ops
    /// are done).
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// One set-up, one warm-up op and fewer counted ops: the smoke-test
    /// size, same code paths.
    pub quick: bool,
    /// Repository root (committed `results/`).
    pub root: PathBuf,
    /// Working directory for `paper_suite` passes and span files.
    pub work: PathBuf,
    /// The `coyote-bench` executable.
    pub bench_bin: PathBuf,
    /// Worker budget passed to the simulator.
    pub threads: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error or failed a check.
    pub failed: u64,
    /// Timed ops.
    pub timed_ops: usize,
    /// Set-ups run.
    pub setups: usize,
    /// The [`Clock::factor`] every op time was scaled by.
    pub clock_factor: f64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// [`END_TO_END`] for an untraced run, [`PER_LAYER`] for a traced one.
    pub metrics: Vec<Metric>,
    /// Where a traced run wrote its spans.
    pub spans_file: Option<PathBuf>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Every digit of `v`, as JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "paper_suite" => run_with::<workloads::suite::PaperSuite>(opts),
        "build" => run_with::<workloads::build::Build>(opts),
        "reconfig" => run_with::<workloads::reconfig::Reconfig>(opts),
        "datapath" => run_with::<workloads::datapath::Datapath>(opts),
        "rdma" => run_with::<workloads::rdma::Rdma>(opts),
        other => Err(format!(
            "unknown workload '{other}' (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Run one op, counting a failure.
fn run_op<W: Workload>(
    w: &mut W,
    i: u64,
    rec: &mut Recorder,
    failed: &mut u64,
    failures: &mut Vec<String>,
) {
    rec.begin_op(i);
    let outcome = w.op(i, rec);
    rec.end_op(outcome.is_ok());
    if let Err(e) = outcome {
        *failed += 1;
        if failures.len() < MAX_REPORTED_FAILURES {
            failures.push(format!("op {i}: {e}"));
        }
    }
}

/// Counters the runner reads for every in-process workload.
#[derive(Clone, Copy)]
struct Global {
    cache: coyote_fabric::CacheStats,
    payload_copies: u64,
}

impl Global {
    fn read() -> Global {
        Global {
            cache: coyote_fabric::BitstreamCache::global().stats(),
            payload_copies: coyote_net::payload_copies(),
        }
    }

    fn since(self, base: Global) -> [(&'static str, f64); 4] {
        [
            (
                "fabric.cache_hits",
                (self.cache.hits - base.cache.hits) as f64,
            ),
            (
                "fabric.cache_misses",
                (self.cache.misses - base.cache.misses) as f64,
            ),
            (
                "fabric.cache_evictions",
                (self.cache.evictions - base.cache.evictions) as f64,
            ),
            (
                "net.payload_copies",
                (self.payload_copies - base.payload_copies) as f64,
            ),
        ]
    }
}

fn run_with<W: Workload>(opts: &Options) -> Result<Report, String> {
    let ctx = Context {
        seed: opts.seed,
        root: opts.root.clone(),
        work: opts.work.join(&opts.workload),
        bench_bin: opts.bench_bin.clone(),
        threads: opts.threads,
    };
    let (min_setups, warmup, counted) = if opts.quick {
        (1, 1, W::COUNTED_QUICK)
    } else {
        (MIN_SETUPS, W::WARMUP, W::COUNTED)
    };
    let mut setup_s = Vec::new();
    let mut instance = None;
    for _ in 0..min_setups {
        drop(instance.take());
        let (w, secs) = timed_setup::<W>(&ctx)?;
        setup_s.push(secs);
        instance = Some(w);
    }
    let mut w = instance.expect("at least one set-up");
    let setup_gap = |secs: f64| Duration::from_secs_f64(secs / SETUP_SHARE);

    let (mut failed, mut failures) = (0u64, Vec::new());
    let mut warm = Recorder::new(false);
    for i in 0..warmup {
        run_op(&mut w, i, &mut warm, &mut failed, &mut failures);
    }

    let mut rec = Recorder::new(opts.trace);
    let mut clock = Clock::new();
    let deadline = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let base = Global::read();
    w.begin_count();
    let mut counted_values = None;
    let mut next_setup = start + setup_gap(stats::median(&setup_s).expect("at least one set-up"));
    // Taken before the first set-up between ops, whose instance briefly
    // lives beside the workload's own.
    let mut peak_rss = None;
    let mut i = warmup;
    loop {
        if counted_values.is_none() && i - warmup == counted {
            let mut values = w.end_count()?;
            values.extend(Global::read().since(base));
            counted_values = Some(values);
        }
        // Past the counted ops, so extra set-ups never touch the counters.
        if counted_values.is_some() {
            if start.elapsed() >= deadline {
                break;
            }
            while Instant::now() >= next_setup {
                peak_rss.get_or_insert_with(rusage::self_peak_mb);
                let secs = timed_setup::<W>(&ctx)?.1;
                setup_s.push(secs);
                next_setup += setup_gap(secs);
            }
        }
        run_op(&mut w, i, &mut rec, &mut failed, &mut failures);
        clock.tick();
        i += 1;
    }
    let attempted = i;
    let k = clock.factor();

    let ok: Vec<f64> = rec
        .ops()
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.busy.as_secs_f64() * k)
        .collect();
    let timed_ops = rec.ops().len();

    let metrics = if opts.trace {
        let mut values = counted_values.expect("counted ops done before the deadline check");
        values.extend(w.host_metrics());
        values.extend(host_layer_metrics(&rec));
        let mut metrics = per_layer(values)?;
        for m in metrics
            .iter_mut()
            .filter(|m| HOST_TIME_UNITS.contains(&m.unit))
        {
            m.value *= k;
        }
        metrics
    } else {
        let busy: f64 = ok.iter().sum();
        let ms: Vec<f64> = ok.iter().map(|s| s * 1e3).collect();
        vec![
            metric("ops_per_s", ok.len() as f64 / busy),
            metric(
                "op_ms_p50",
                stats::median(&ms).ok_or("no op passed its checks")?,
            ),
            metric(
                "setup_s",
                stats::median(&setup_s).expect("at least one set-up"),
            ),
            metric(
                "peak_rss_mb",
                w.peak_rss_mb()
                    .unwrap_or_else(|| peak_rss.unwrap_or_else(rusage::self_peak_mb)),
            ),
        ]
    };

    let spans_file = if opts.trace {
        std::fs::create_dir_all(&opts.work).map_err(|e| e.to_string())?;
        let path = opts.work.join(format!("{}.spans.json", opts.workload));
        trace::write_spans(&path, rec.spans())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };

    Ok(Report {
        attempted,
        failed,
        timed_ops,
        setups: setup_s.len(),
        clock_factor: k,
        failures,
        metrics,
        spans_file,
    })
}

/// Set up once; the instance and the seconds it took.
fn timed_setup<W: Workload>(ctx: &Context) -> Result<(W, f64), String> {
    let start = Instant::now();
    let w = W::setup(ctx)?;
    Ok((w, start.elapsed().as_secs_f64()))
}

fn unit_of(name: &str, catalogue: &[(&'static str, &'static str)]) -> Option<&'static str> {
    catalogue.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: unit_of(name, END_TO_END).expect("end-to-end metric in the catalogue"),
    }
}

/// Order `values` by [`PER_LAYER`], filling layers the workload never
/// called with 0; a value outside the catalogue is a bug.
fn per_layer(values: Vec<(&'static str, f64)>) -> Result<Vec<Metric>, String> {
    if let Some((name, _)) = values.iter().find(|(n, _)| unit_of(n, PER_LAYER).is_none()) {
        return Err(format!("per-layer value '{name}' is not in the catalogue"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect())
}

/// The host-time per-layer values of a traced run.
fn host_layer_metrics(rec: &Recorder) -> Vec<(&'static str, f64)> {
    let calls = trace::by_call(rec.spans());
    let n_traced = rec.ops().iter().filter(|o| o.traced).count().max(1) as f64;
    let mut out: Vec<(&'static str, f64)> = HOST_METRICS
        .iter()
        .map(|(name, how)| {
            let value = match how {
                Host::CallP50(call, scale) => calls
                    .get(call)
                    .and_then(|c| stats::median(&c.durations_ns))
                    .map_or(0.0, |ns| ns / scale),
                Host::NsPerUnit(names) => {
                    let (ns, units) = names
                        .iter()
                        .filter_map(|n| calls.get(n))
                        .fold((0.0, 0u64), |(ns, u), c| {
                            (ns + c.durations_ns.iter().sum::<f64>(), u + c.units)
                        });
                    if units == 0 {
                        0.0
                    } else {
                        ns / units as f64
                    }
                }
                Host::UsPerOp(call) => calls
                    .get(call)
                    .map_or(0.0, |c| c.durations_ns.iter().sum::<f64>() / US / n_traced),
                Host::OpP50Ms(kind) => {
                    let ms: Vec<f64> = rec
                        .ops()
                        .iter()
                        .filter(|o| o.kind == *kind)
                        .map(|o| o.busy.as_secs_f64() * 1e3)
                        .collect();
                    stats::median(&ms).unwrap_or(0.0)
                }
            };
            (*name, value)
        })
        .collect();

    let untraced: Vec<_> = rec.ops().iter().filter(|o| !o.traced).collect();
    let self_s: f64 = untraced
        .iter()
        .map(|o| (o.wall - o.busy).as_secs_f64())
        .sum();
    out.push((
        "bench.self_ms",
        self_s * 1e3 / untraced.len().max(1) as f64,
    ));
    out.push(("bench.trace_overhead_pct", trace_overhead_pct(rec.ops())));
    out
}

/// How much longer traced ops take than untraced ones for the same work
/// in the layers, %. Within each op kind, the traced ops' wall time per
/// second of busy time is compared with the untraced ops'; kinds are
/// weighted by their busy time. Comparing within a kind keeps a kind whose
/// inputs and checks cost more outside the layers from tipping the result
/// when more of its ops fall on one side.
fn trace_overhead_pct(ops: &[trace::OpSample]) -> f64 {
    // Per kind: wall and busy seconds of the traced ops, then the untraced.
    let mut kinds: BTreeMap<&str, [f64; 4]> = BTreeMap::new();
    for o in ops {
        let sums = kinds.entry(o.kind).or_default();
        let at = if o.traced { 0 } else { 2 };
        sums[at] += o.wall.as_secs_f64();
        sums[at + 1] += o.busy.as_secs_f64();
    }
    let (mut gap, mut weight) = (0.0, 0.0);
    for [traced_wall, traced_busy, wall, busy] in kinds.into_values() {
        if traced_busy > 0.0 && wall > 0.0 && busy > 0.0 {
            gap += (traced_busy + busy) * ((traced_wall / traced_busy) / (wall / busy) - 1.0);
            weight += traced_busy + busy;
        }
    }
    if weight == 0.0 {
        0.0
    } else {
        100.0 * gap / weight
    }
}

/// Field `key` of a JSON object; `None` for a missing key or a non-object.
pub fn json_field(v: &serde_json::Value, key: &str) -> Option<serde_json::Value> {
    match v {
        serde_json::Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails every third op with one wrong output byte.
    struct Flaky {
        counted: bool,
    }

    impl Workload for Flaky {
        const COUNTED: u64 = 9;
        const COUNTED_QUICK: u64 = 9;
        const WARMUP: u64 = 0;

        fn setup(_: &Context) -> Result<Self, String> {
            Ok(Flaky { counted: false })
        }

        fn op(&mut self, i: u64, rec: &mut Recorder) -> Result<(), String> {
            rec.set_kind("op.write");
            let mut out = rec.call("mem.read", || vec![1u8; 64]);
            if i % 3 == 2 {
                out[17] ^= 0x80;
            }
            workloads::checks::same_bytes("output", &[1u8; 64], &out)
        }

        fn begin_count(&mut self) {
            self.counted = true;
        }

        fn end_count(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
            Ok(vec![("net.frames", f64::from(u8::from(self.counted)))])
        }
    }

    fn opts() -> Options {
        Options {
            workload: "flaky".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: true,
            root: PathBuf::new(),
            work: PathBuf::new(),
            bench_bin: PathBuf::new(),
            threads: 1,
        }
    }

    #[test]
    fn a_wrong_byte_counts_a_failed_op() {
        // One warm-up op, then the nine counted ones; ops 2, 5 and 8 fail.
        let report = run_with::<Flaky>(&opts()).unwrap();
        assert_eq!(report.attempted, 10);
        assert_eq!(report.failed, 3);
        assert_eq!(report.failures.len(), 3);
        assert!(report
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 3,"));
    }

    #[test]
    fn an_untraced_run_reports_exactly_the_end_to_end_metrics() {
        let report = run_with::<Flaky>(&opts()).unwrap();
        let names: Vec<_> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END);
    }

    fn sample(kind: &'static str, traced: bool, wall: f64, busy: f64) -> trace::OpSample {
        trace::OpSample {
            kind,
            busy: Duration::from_secs_f64(busy),
            wall: Duration::from_secs_f64(wall),
            traced,
            ok: true,
        }
    }

    #[test]
    fn trace_overhead_compares_the_halves_within_each_kind() {
        let ops = [
            // 1.26 s wall per busy s traced against 1.2 untraced: 5% more,
            // over 5 s of busy time.
            sample("op.a", true, 2.52, 2.0),
            sample("op.a", false, 3.6, 3.0),
            // Costly outside the layers, but alike in both halves, and
            // with more of its ops traced: no gap, over 3 s busy.
            sample("op.b", true, 8.0, 2.0),
            sample("op.b", false, 4.0, 1.0),
            // Only on one side: left out.
            sample("op.c", true, 9.0, 1.0),
        ];
        let pct = trace_overhead_pct(&ops);
        assert!((pct - 5.0 * 5.0 / 8.0).abs() < 1e-9, "{pct}");
        assert_eq!(trace_overhead_pct(&ops[4..]), 0.0);
    }

    #[test]
    fn a_traced_run_reports_the_per_layer_metrics_from_half_its_ops() {
        let report = run_with::<Flaky>(&Options {
            trace: true,
            work: std::env::temp_dir().join(format!("coyote-perf-test-{}", std::process::id())),
            ..opts()
        })
        .unwrap();
        let names: Vec<_> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, PER_LAYER);
        let spans = report.spans_file.expect("a traced run writes spans");
        let written = std::fs::read_to_string(&spans).unwrap();
        std::fs::remove_dir_all(spans.parent().unwrap()).unwrap();
        // Ops 1..=9 are timed; 2, 4, 6 and 8 are traced, with one call each.
        assert_eq!(written.matches("\"name\": \"mem.read\"").count(), 4);
    }

    #[test]
    fn json_field_looks_up_object_keys_only() {
        let doc = serde_json::value_from_slice(br#"{"a": {"b": 2}}"#).unwrap();
        let inner = json_field(&doc, "a").unwrap();
        assert!(matches!(json_field(&inner, "b"), Some(serde_json::Value::Int(2))));
        assert!(json_field(&doc, "b").is_none());
        assert!(json_field(&inner, "b").and_then(|v| json_field(&v, "c")).is_none());
    }

    #[test]
    fn per_layer_fills_uncalled_layers_with_zero_and_refuses_strangers() {
        let metrics = per_layer(vec![("net.frames", 5.0)]).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics
            .iter()
            .all(|m| m.value == if m.name == "net.frames" { 5.0 } else { 0.0 }));
        assert!(per_layer(vec![("net.frame", 5.0)]).is_err());
    }
}
