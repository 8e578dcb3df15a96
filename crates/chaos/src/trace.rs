//! Fault traces: the reproducible artifact of a chaos run.
//!
//! Every injected fault, every detection and every recovery lands here as a
//! [`TraceEvent`]. Traces from different subsystems merge in a canonical
//! order — `(domain tag, op, arrival sequence)` — so the merged trace and
//! its FNV-64 hash are bit-identical for any thread count: worker threads
//! decide *who computes what*, never *what happened*.

use crate::plan::{Domain, FaultKind};
use coyote_sim::stats::Counter;
use coyote_sim::Fnv64;
use coyote_sim::SimTime;

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The injector fired a fault.
    Injected,
    /// A consumer detected it (CRC/ICRC mismatch, port rejection).
    Detected,
    /// A consumer recovered from it (retransmission, retry, refill).
    Recovered,
}

impl TraceKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Injected => "inject",
            TraceKind::Detected => "detect",
            TraceKind::Recovered => "recover",
        }
    }

    /// Stable numeric tag (feeds the trace hash).
    pub fn tag(self) -> u64 {
        match self {
            TraceKind::Injected => 1,
            TraceKind::Detected => 2,
            TraceKind::Recovered => 3,
        }
    }

    /// Inverse of [`TraceKind::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u64) -> Option<TraceKind> {
        Some(match tag {
            1 => TraceKind::Injected,
            2 => TraceKind::Detected,
            3 => TraceKind::Recovered,
            _ => return None,
        })
    }
}

/// One event of a fault trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Domain the event happened in.
    pub domain: Domain,
    /// The domain's operation counter when it happened.
    pub op: u64,
    /// Simulated time (zero for untimed call sites).
    pub at_ps: u64,
    /// Injection, detection or recovery.
    pub kind: TraceKind,
    /// The fault class.
    pub fault: FaultKind,
    /// Kind-specific detail (bit index, stall ps, tenant id, ...).
    pub detail: u64,
}

/// An ordered fault/recovery record with a deterministic hash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTrace {
    events: Vec<TraceEvent>,
}

/// Aggregate fault/recovery counters, in `coyote_sim::stats` terms so the
/// experiment harness reports them like any other metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Faults injected.
    pub injected: Counter,
    /// Faults detected by a consumer.
    pub detected: Counter,
    /// Recoveries completed.
    pub recovered: Counter,
}

impl FaultTrace {
    /// An empty trace.
    pub fn new() -> FaultTrace {
        FaultTrace::default()
    }

    /// Append an event.
    pub fn push(
        &mut self,
        domain: Domain,
        op: u64,
        at: SimTime,
        kind: TraceKind,
        fault: FaultKind,
        detail: u64,
    ) {
        self.events.push(TraceEvent {
            domain,
            op,
            at_ps: at.as_ps(),
            kind,
            fault,
            detail,
        });
    }

    /// Events in recorded order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one [`TraceKind`].
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Merge several traces into one canonical trace: events sort by
    /// `(domain tag, op, original index)`, so the result is independent of
    /// the order the pieces were collected in.
    pub fn merged(traces: impl IntoIterator<Item = FaultTrace>) -> FaultTrace {
        let mut keyed: Vec<(u64, u64, usize, TraceEvent)> = Vec::new();
        for trace in traces {
            for (i, e) in trace.events.into_iter().enumerate() {
                keyed.push((e.domain.tag(), e.op, i, e));
            }
        }
        keyed.sort_by_key(|&(d, op, i, _)| (d, op, i));
        FaultTrace {
            events: keyed.into_iter().map(|(_, _, _, e)| e).collect(),
        }
    }

    /// FNV-64 hash over the canonical field encoding. Same seed + same plan
    /// => same hash, on any thread count; this is the value CI publishes.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv64::new();
        for e in &self.events {
            h.write_u64(e.domain.tag());
            h.write_u64(e.op);
            h.write_u64(e.at_ps);
            h.write_u64(e.kind.tag());
            h.write_u64(e.fault.tag());
            h.write_u64(e.detail);
        }
        h.finish()
    }

    /// Aggregate counters.
    pub fn counters(&self) -> ChaosCounters {
        let mut c = ChaosCounters::default();
        for e in &self.events {
            match e.kind {
                TraceKind::Injected => c.injected.inc(),
                TraceKind::Detected => c.detected.inc(),
                TraceKind::Recovered => c.recovered.inc(),
            }
        }
        c
    }

    /// Human-readable rendering, one line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{:<10} op={:<6} t={}ps {:<8} {} detail={}\n",
                e.domain.name(),
                e.op,
                e.at_ps,
                e.kind.name(),
                e.fault.name(),
                e.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: &mut FaultTrace, domain: Domain, op: u64, kind: TraceKind) {
        trace.push(domain, op, SimTime::ZERO, kind, FaultKind::NetLoss, 0);
    }

    #[test]
    fn hash_is_order_and_content_sensitive() {
        let mut a = FaultTrace::new();
        ev(&mut a, Domain::NetSwitch, 0, TraceKind::Injected);
        ev(&mut a, Domain::NetSwitch, 1, TraceKind::Recovered);
        let mut b = FaultTrace::new();
        ev(&mut b, Domain::NetSwitch, 1, TraceKind::Recovered);
        ev(&mut b, Domain::NetSwitch, 0, TraceKind::Injected);
        assert_ne!(a.hash(), b.hash(), "order matters");
        assert_eq!(a.hash(), a.clone().hash());
        assert_ne!(FaultTrace::new().hash(), a.hash());
    }

    #[test]
    fn merge_is_collection_order_independent() {
        let mut net = FaultTrace::new();
        ev(&mut net, Domain::NetSwitch, 0, TraceKind::Injected);
        ev(&mut net, Domain::NetSwitch, 2, TraceKind::Injected);
        let mut dma = FaultTrace::new();
        ev(&mut dma, Domain::Dma, 1, TraceKind::Injected);
        let ab = FaultTrace::merged([net.clone(), dma.clone()]);
        let ba = FaultTrace::merged([dma, net]);
        assert_eq!(ab, ba);
        assert_eq!(ab.hash(), ba.hash());
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn counters_tally_by_kind() {
        let mut t = FaultTrace::new();
        ev(&mut t, Domain::Mmu, 0, TraceKind::Injected);
        ev(&mut t, Domain::Mmu, 0, TraceKind::Detected);
        ev(&mut t, Domain::Mmu, 1, TraceKind::Recovered);
        ev(&mut t, Domain::Mmu, 2, TraceKind::Recovered);
        let c = t.counters();
        assert_eq!(c.injected.get(), 1);
        assert_eq!(c.detected.get(), 1);
        assert_eq!(c.recovered.get(), 2);
    }

    #[test]
    fn tags_round_trip_and_unknown_fails_closed() {
        use crate::plan::{Domain, FaultKind};
        for kind in [
            TraceKind::Injected,
            TraceKind::Detected,
            TraceKind::Recovered,
        ] {
            assert_eq!(TraceKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(TraceKind::from_tag(0), None);
        assert_eq!(TraceKind::from_tag(4), None);
        for tag in 1..=9 {
            let kind = FaultKind::from_tag(tag).expect("known fault tag");
            assert_eq!(kind.tag(), tag);
        }
        assert_eq!(FaultKind::from_tag(0), None);
        assert_eq!(FaultKind::from_tag(10), None);
        for domain in [
            Domain::NetSwitch,
            Domain::NetQp,
            Domain::Reconfig,
            Domain::Dma,
            Domain::Mmu,
            Domain::Sched,
        ] {
            assert_eq!(Domain::from_tag(domain.tag()), Some(domain));
        }
        assert_eq!(Domain::from_tag(0xDEAD_BEEF), None);
    }

    #[test]
    fn render_mentions_every_event() {
        let mut t = FaultTrace::new();
        ev(&mut t, Domain::Reconfig, 7, TraceKind::Detected);
        let s = t.render();
        assert!(s.contains("reconfig") && s.contains("op=7") && s.contains("detect"));
    }
}
