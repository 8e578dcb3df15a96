//! The per-domain injector: the runtime side of a [`FaultPlan`].
//!
//! Determinism contract: the sequence of fired faults is a pure function of
//! `(plan seed, rule list, operation sequence)`. Every `Rate` rule performs
//! exactly one RNG draw per operation (when its probability is non-zero),
//! whether or not it fires, so a fault firing never shifts later draws.
//! `AtOp`/`AtTime` rules draw nothing.

use crate::plan::{Domain, Fault, FaultKind, FaultPlan, Rule, Trigger};
use crate::trace::{FaultTrace, TraceKind};
use coyote_sim::{SimTime, Xorshift64Star};

/// Upper bound on an injected DMA stall: 1 ms. "Bounded stalls" is part of
/// the fault contract — an unbounded stall would be a hang, not a fault.
pub const MAX_STALL_PS: u64 = 1_000_000_000;

#[derive(Debug, Clone)]
struct ArmedRule {
    rule: Rule,
    /// One-shot triggers (`AtOp`, `AtTime`) flip this after firing.
    fired: bool,
}

/// The runtime a subsystem consults once per operation.
///
/// Cheap when idle: a subsystem holding `Option<Injector>` pays one branch
/// on the `None` path.
#[derive(Debug, Clone)]
pub struct Injector {
    domains: Vec<Domain>,
    rules: Vec<ArmedRule>,
    rng: Xorshift64Star,
    op: u64,
    trace: FaultTrace,
    injected: u64,
    recovered: u64,
}

impl Injector {
    /// Build from a plan, evaluating the rules of `domains` (in plan order).
    /// The RNG stream is `seed ^ tag(d0) ^ tag(d1) ...`, so each domain set
    /// draws independently.
    pub fn from_plan(plan: &FaultPlan, domains: &[Domain]) -> Injector {
        let seed = domains
            .iter()
            .fold(plan.seed(), |acc, d| acc ^ d.tag().rotate_left(17));
        let rules = plan
            .rules()
            .iter()
            .filter(|r| domains.contains(&r.domain))
            .map(|&rule| ArmedRule { rule, fired: false })
            .collect();
        Injector {
            domains: domains.to_vec(),
            rules,
            rng: Xorshift64Star::new(seed),
            op: 0,
            trace: FaultTrace::new(),
            injected: 0,
            recovered: 0,
        }
    }

    /// A loss-only injector drawing from a raw (un-mixed) seed: exactly one
    /// `chance(rate)` draw per operation. This reproduces the drop sequence
    /// of the switch's original seeded drop injection bit for bit.
    pub fn loss_only(rate: f64, seed: u64) -> Injector {
        Injector {
            domains: vec![Domain::NetSwitch],
            rules: vec![ArmedRule {
                rule: Rule {
                    domain: Domain::NetSwitch,
                    kind: FaultKind::NetLoss,
                    trigger: Trigger::Rate(rate),
                    param: 0,
                },
                fired: false,
            }],
            rng: Xorshift64Star::new(seed),
            op: 0,
            trace: FaultTrace::new(),
            injected: 0,
            recovered: 0,
        }
    }

    /// The domains this injector evaluates.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Recoveries recorded so far.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Advance one operation at simulated instant `now` and return the
    /// faults that fire on it, in rule order.
    pub fn next_at(&mut self, now: SimTime) -> Vec<Fault> {
        let op = self.op;
        self.op += 1;
        let mut fired = Vec::new();
        for armed in &mut self.rules {
            let fires = match armed.rule.trigger {
                Trigger::Rate(p) => p > 0.0 && self.rng.chance(p),
                Trigger::AtOp(n) => !armed.fired && op == n,
                Trigger::AtTime(t) => !armed.fired && now >= t,
            };
            if fires {
                armed.fired = true;
                let fault = Fault {
                    kind: armed.rule.kind,
                    param: armed.rule.param,
                };
                self.injected += 1;
                self.trace.push(
                    armed.rule.domain,
                    op,
                    now,
                    TraceKind::Injected,
                    fault.kind,
                    fault.param,
                );
                fired.push(fault);
            }
        }
        fired
    }

    /// [`Injector::next_at`] for untimed call sites (op-count triggers only).
    pub fn tick(&mut self) -> Vec<Fault> {
        self.next_at(SimTime::ZERO)
    }

    /// Record that a consumer *detected* an injected fault (CRC mismatch,
    /// ICRC drop, port rejection) on the current operation window.
    pub fn record_detected(&mut self, kind: FaultKind, detail: u64) {
        let op = self.op.saturating_sub(1);
        let domain = self.domains[0];
        self.trace
            .push(domain, op, SimTime::ZERO, TraceKind::Detected, kind, detail);
    }

    /// Record that a consumer *recovered* from an injected fault
    /// (retransmission completed, fallback image kept, TLB refilled).
    pub fn record_recovered(&mut self, kind: FaultKind, detail: u64) {
        let op = self.op.saturating_sub(1);
        let domain = self.domains[0];
        self.recovered += 1;
        self.trace.push(
            domain,
            op,
            SimTime::ZERO,
            TraceKind::Recovered,
            kind,
            detail,
        );
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    /// Move the trace out (e.g. to merge across subsystems).
    pub fn take_trace(&mut self) -> FaultTrace {
        std::mem::take(&mut self.trace)
    }

    /// Derive a deterministic value from the current op without touching the
    /// fault RNG stream (e.g. which bit to flip when the rule's `param` is
    /// zero). Same op, same value — on any thread count.
    pub fn derived(&self, salt: u64) -> u64 {
        let x = self
            .op
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.rotate_left(31));
        // One xorshift round for avalanche; separate from `self.rng`.
        let mut v = x ^ 0x2545_F491_4F6C_DD1D;
        v ^= v >> 12;
        v ^= v << 25;
        v ^= v >> 27;
        v.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    #[test]
    fn loss_only_matches_raw_rng_sequence() {
        // The injector must reproduce `Xorshift64Star::new(seed)` +
        // `chance(rate)` draw for draw — the legacy switch contract.
        let mut inj = Injector::loss_only(0.1, 42);
        let mut rng = Xorshift64Star::new(42);
        for _ in 0..10_000 {
            let fired = !inj.tick().is_empty();
            assert_eq!(fired, rng.chance(0.1));
        }
    }

    #[test]
    fn zero_rate_draws_nothing() {
        let mut a = Injector::loss_only(0.0, 7);
        for _ in 0..100 {
            assert!(a.tick().is_empty());
        }
        assert_eq!(a.injected(), 0);
    }

    #[test]
    fn rate_one_fires_every_op() {
        let mut inj = Injector::loss_only(1.0, 3);
        for _ in 0..50 {
            assert_eq!(inj.tick().len(), 1);
        }
        assert_eq!(inj.injected(), 50);
    }

    #[test]
    fn at_op_fires_exactly_once() {
        let plan = FaultPlan::new(1).icap_reject_at(3);
        let mut inj = plan.injector(Domain::Reconfig);
        let fired: Vec<usize> = (0..10).map(|_| inj.tick().len()).collect();
        assert_eq!(fired.iter().sum::<usize>(), 1);
        assert_eq!(fired[3], 1);
    }

    #[test]
    fn at_time_fires_once_at_or_after_deadline() {
        let t = SimTime::ZERO + coyote_sim::SimDuration::from_us(5);
        let plan =
            FaultPlan::new(1).inject(Domain::Dma, FaultKind::DmaStall, Trigger::AtTime(t), 100);
        let mut inj = plan.injector(Domain::Dma);
        assert!(inj.next_at(SimTime::ZERO).is_empty());
        assert_eq!(inj.next_at(t).len(), 1);
        assert!(inj
            .next_at(t + coyote_sim::SimDuration::from_us(1))
            .is_empty());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::new(0xFEED)
            .net_loss(0.1)
            .net_reorder(0.05)
            .net_duplicate(0.05);
        let run =
            |mut inj: Injector| -> Vec<Vec<Fault>> { (0..1000).map(|_| inj.tick()).collect() };
        let a = run(plan.injector(Domain::NetSwitch));
        let b = run(plan.injector(Domain::NetSwitch));
        assert_eq!(a, b);
        let c = run(FaultPlan::new(0xFEEE)
            .net_loss(0.1)
            .net_reorder(0.05)
            .net_duplicate(0.05)
            .injector(Domain::NetSwitch));
        assert_ne!(a, c, "different seed, different sequence");
    }

    #[test]
    fn rate_rules_draw_even_when_another_fires() {
        // A firing rule must not shift the draws of later rules: compare a
        // loss+reorder plan against reorder alone fed the same stream
        // position count.
        let both = FaultPlan::new(5).net_loss(1.0).net_reorder(0.2);
        let mut inj = both.injector(Domain::NetSwitch);
        let mut reorders = 0;
        for _ in 0..1000 {
            let faults = inj.tick();
            assert!(faults.iter().any(|f| f.kind == FaultKind::NetLoss));
            reorders += faults
                .iter()
                .filter(|f| f.kind == FaultKind::NetReorder)
                .count();
        }
        // ~20% of 1000 ops; loose band, deterministic given the seed.
        assert!((100..350).contains(&reorders), "reorders {reorders}");
    }

    #[test]
    fn derived_is_stable_and_op_dependent() {
        let plan = FaultPlan::new(1).net_loss(0.0);
        let mut inj = plan.injector(Domain::NetSwitch);
        let d0 = inj.derived(9);
        assert_eq!(d0, inj.derived(9), "no RNG state consumed");
        inj.tick();
        assert_ne!(d0, inj.derived(9), "advancing ops changes the value");
    }

    #[test]
    fn trace_records_injections_and_recoveries() {
        let mut inj = Injector::loss_only(1.0, 2);
        inj.tick();
        inj.record_recovered(FaultKind::NetLoss, 0);
        assert_eq!(inj.trace().len(), 2);
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.recovered(), 1);
    }
}
