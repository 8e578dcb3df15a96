//! Host-time recording around every call the benchmark makes into a layer.
//!
//! Each op is a root span; each layer call inside it is a child span named
//! `<layer>.<call>`. Every run records each op's busy time (the time spent
//! inside its layer calls) and wall time; the end-to-end metrics use the
//! busy time. A traced run keeps the spans of every even-numbered op in
//! memory and writes them out when it ends. The odd-numbered ops in between
//! run untraced, so one run measures what recording spans costs.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `op.<kind>` for an op, `<layer>.<call>` for a layer call.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for an op.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Work the call did, in the unit of its layer (bytes, annealing moves,
    /// frames); 0 when not counted.
    pub units: u64,
}

/// One finished op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// What kind of op it was (`op.write`, `op.app_flow`, ...).
    pub kind: &'static str,
    /// Time inside layer calls.
    pub busy: Duration,
    /// Time from the op's start to its end, checks included.
    pub wall: Duration,
    /// Whether its spans were recorded.
    pub traced: bool,
    /// Whether the op passed its checks.
    pub ok: bool,
}

/// Per-run recorder handed to each op.
pub struct Recorder {
    traced: bool,
    epoch: Instant,
    op: u64,
    op_traced: bool,
    op_start: Instant,
    kind: &'static str,
    busy: Duration,
    op_span: usize,
    ops: Vec<OpSample>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `traced` keeps the spans of even-numbered ops.
    pub fn new(traced: bool) -> Recorder {
        let epoch = Instant::now();
        Recorder {
            traced,
            epoch,
            op: 0,
            op_traced: false,
            op_start: epoch,
            kind: "op",
            busy: Duration::ZERO,
            op_span: 0,
            ops: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Start op `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.op_traced = self.traced && op % 2 == 0;
        self.kind = "op";
        self.busy = Duration::ZERO;
        self.op_start = Instant::now();
        if self.op_traced {
            self.op_span = self.spans.len();
            let now = self.ns(self.op_start);
            self.spans.push(Span {
                name: "op",
                op,
                parent: None,
                start_ns: now,
                end_ns: now,
                units: 0,
            });
        }
    }

    /// Name the current op's kind, `op.<kind>`; it also names its span.
    pub fn set_kind(&mut self, kind: &'static str) {
        self.kind = kind;
    }

    /// Whether the current op's spans are recorded.
    pub fn op_traced(&self) -> bool {
        self.op_traced
    }

    /// Finish the current op.
    pub fn end_op(&mut self, ok: bool) {
        let end = Instant::now();
        if self.op_traced {
            let now = self.ns(end);
            let span = &mut self.spans[self.op_span];
            span.end_ns = now;
            span.name = self.kind;
        }
        self.ops.push(OpSample {
            kind: self.kind,
            busy: self.busy,
            wall: end - self.op_start,
            traced: self.op_traced,
            ok,
        });
    }

    /// Time `f` as layer call `name` of the current op.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.busy += end - start;
        if self.op_traced {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                op: self.op,
                parent: Some(self.op_span),
                start_ns,
                end_ns,
                units: 0,
            });
        }
        out
    }

    /// Credit `units` of work to the layer call just made.
    pub fn units(&mut self, units: u64) {
        if !self.op_traced {
            return;
        }
        if let Some(span) = self.spans.last_mut().filter(|s| s.parent.is_some()) {
            span.units += units;
        }
    }

    /// Finished ops, in order.
    pub fn ops(&self) -> &[OpSample] {
        &self.ops
    }

    /// Recorded spans (empty unless traced).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other; covered time
/// is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-call-name aggregate of a traced run.
#[derive(Debug, Default, Clone)]
pub struct CallStats {
    /// Duration of each call, ns.
    pub durations_ns: Vec<f64>,
    /// Work units credited to these calls.
    pub units: u64,
}

/// Aggregate layer-call spans by name.
pub fn by_call(spans: &[Span]) -> BTreeMap<&'static str, CallStats> {
    let mut out: BTreeMap<&'static str, CallStats> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let e = out.entry(s.name).or_default();
        e.durations_ns.push((s.end_ns - s.start_ns) as f64);
        e.units += s.units;
    }
    out
}

/// Write spans as a JSON array, one object per span with its self time.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"units\": {}}}{sep}",
            s.name, s.op, s.start_ns, s.end_ns, s.units
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            op: 0,
            parent,
            start_ns,
            end_ns,
            units: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),  // overlaps the first child by 10
            span(Some(0), 90, 120), // runs past the parent's end
        ];
        let selfs = self_times(&spans);
        // Covered: 10..60 (50) + 90..100 (10) = 60.
        assert_eq!(selfs[0], 40);
        assert_eq!(&selfs[1..], &[30, 30, 30]);
    }

    #[test]
    fn self_time_of_nested_children_counts_only_direct_ones() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 50),
            span(Some(1), 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn untraced_recorder_keeps_busy_time_but_no_spans() {
        let mut rec = Recorder::new(false);
        rec.begin_op(3);
        rec.set_kind("op.write");
        let v = rec.call("mem.write", || 7);
        rec.end_op(true);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.ops().len(), 1);
        assert_eq!(rec.ops()[0].kind, "op.write");
    }

    #[test]
    fn traced_recorder_links_calls_to_their_op() {
        let mut rec = Recorder::new(true);
        rec.begin_op(4);
        rec.set_kind("op.round");
        rec.call("core.drain", || ());
        rec.units(4096);
        rec.end_op(true);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "op.round");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 4);
        assert_eq!(by_call(spans)["core.drain"].units, 4096);
    }

    #[test]
    fn traced_recorder_skips_odd_ops_without_crediting_their_units() {
        let mut rec = Recorder::new(true);
        for op in 0..4 {
            rec.begin_op(op);
            rec.call("mem.write", || ());
            rec.units(10);
            rec.end_op(true);
        }
        let traced: Vec<bool> = rec.ops().iter().map(|o| o.traced).collect();
        assert_eq!(traced, [true, false, true, false]);
        assert_eq!(rec.spans().iter().map(|s| s.op).collect::<Vec<_>>(), [0, 0, 2, 2]);
        assert_eq!(by_call(rec.spans())["mem.write"].units, 20);
        assert!(rec.ops().iter().all(|o| o.wall >= o.busy));
    }
}
