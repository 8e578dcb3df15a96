//! Fault traces: the reproducible artifact of a chaos run.
//!
//! Every injected fault, every detection and every recovery lands here as a
//! [`TraceEvent`], in the order its injector saw them. One injector serves
//! one subsystem on one thread, so a trace and its FNV-64 hash are
//! bit-identical for any thread count: worker threads decide *who computes
//! what*, never *what happened*.

use crate::plan::{Domain, FaultKind};
use coyote_sim::Fnv64;
use coyote_sim::SimTime;

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The injector fired a fault.
    Injected,
    /// A consumer detected it (CRC mismatch, port rejection).
    Detected,
    /// A consumer recovered from it (the driver's bounded retry).
    Recovered,
}

impl TraceKind {
    /// Stable numeric tag (feeds the trace hash).
    pub fn tag(self) -> u64 {
        match self {
            TraceKind::Injected => 1,
            TraceKind::Detected => 2,
            TraceKind::Recovered => 3,
        }
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
    /// Kind-specific detail (bit index, retry attempts, ...).
    pub detail: u64,
}

/// An ordered fault/recovery record with a deterministic hash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTrace {
    events: Vec<TraceEvent>,
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
}
