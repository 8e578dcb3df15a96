//! Fault plans: the declarative side of chaos.
//!
//! A plan is data — a seed plus a list of `(domain, kind, trigger, param)`
//! rules. Nothing random happens here; randomness lives in the per-domain
//! [`crate::Injector`] built from the plan.

use crate::inject::Injector;

/// The fault taxonomy. Each kind maps onto one recovery mechanism that the
/// chaos suite asserts end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Drop a frame at the switch (recovered by go-back-N retransmission).
    NetLoss,
    /// Hold a frame back and release it after the next one (recovered via
    /// NAK-sequence go-back-N).
    NetReorder,
    /// Deliver a frame twice (discarded by the responder's PSN check).
    NetDuplicate,
    /// Flip a wire byte (caught by the ICRC check at NIC RX, then
    /// retransmitted).
    NetCorrupt,
    /// Flip a bit in the bitstream blob on its way to the ICAP (caught by
    /// the bitstream CRC/frame parser; the prior image stays active).
    BitstreamFlip,
    /// The configuration port transiently rejects a programming request
    /// (recovered by the driver's bounded retry with backoff).
    IcapReject,
}

impl FaultKind {
    /// Stable numeric tag (feeds the trace hash).
    pub fn tag(self) -> u64 {
        match self {
            FaultKind::NetLoss => 1,
            FaultKind::NetReorder => 2,
            FaultKind::NetDuplicate => 3,
            FaultKind::NetCorrupt => 4,
            FaultKind::BitstreamFlip => 5,
            FaultKind::IcapReject => 6,
        }
    }
}

/// Where an injector is consulted. Each domain draws from its own RNG
/// stream (`seed ^ tag`), so adding a rule in one domain never perturbs the
/// fault sequence of another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The switched Ethernet fabric (one op per injected frame).
    NetSwitch,
    /// The ICAP / reconfiguration path (one op per programming attempt).
    Reconfig,
}

impl Domain {
    /// Stable numeric tag, mixed into the domain's RNG seed and the trace
    /// hash.
    pub fn tag(self) -> u64 {
        match self {
            Domain::NetSwitch => 0x6E65_7453,
            Domain::Reconfig => 0x6963_6170,
        }
    }
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Bernoulli per operation with this probability (one RNG draw per op;
    /// `0.0` draws nothing, `1.0` fires on every op).
    Rate(f64),
    /// Fire exactly once, at the domain's `n`-th operation (0-based).
    AtOp(u64),
}

/// A fault an injector decided to fire on the current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Kind-specific parameter: bit index for [`FaultKind::BitstreamFlip`],
    /// ignored otherwise.
    pub param: u64,
}

/// One rule of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Which domain's injector evaluates this rule.
    pub domain: Domain,
    /// What to inject.
    pub kind: FaultKind,
    /// When.
    pub trigger: Trigger,
    /// Kind-specific parameter (see [`Fault::param`]).
    pub param: u64,
}

/// A seeded, declarative fault plan. Build with the fluent methods, then
/// hand each subsystem its [`FaultPlan::injector`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All rules, in declaration order (the per-op evaluation order).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    fn inject(mut self, domain: Domain, kind: FaultKind, trigger: Trigger, param: u64) -> Self {
        self.rules.push(Rule {
            domain,
            kind,
            trigger,
            param,
        });
        self
    }

    /// Drop frames at the switch with probability `rate`.
    pub fn net_loss(self, rate: f64) -> Self {
        self.inject(
            Domain::NetSwitch,
            FaultKind::NetLoss,
            Trigger::Rate(rate),
            0,
        )
    }

    /// Reorder frames at the switch with probability `rate`.
    pub fn net_reorder(self, rate: f64) -> Self {
        self.inject(
            Domain::NetSwitch,
            FaultKind::NetReorder,
            Trigger::Rate(rate),
            0,
        )
    }

    /// Duplicate frames at the switch with probability `rate`.
    pub fn net_duplicate(self, rate: f64) -> Self {
        self.inject(
            Domain::NetSwitch,
            FaultKind::NetDuplicate,
            Trigger::Rate(rate),
            0,
        )
    }

    /// Corrupt one wire byte with probability `rate`.
    pub fn net_corrupt(self, rate: f64) -> Self {
        self.inject(
            Domain::NetSwitch,
            FaultKind::NetCorrupt,
            Trigger::Rate(rate),
            0,
        )
    }

    /// Flip bit `bit` of the bitstream blob on programming attempt `op`.
    pub fn bitstream_flip_at(self, op: u64, bit: u64) -> Self {
        self.inject(
            Domain::Reconfig,
            FaultKind::BitstreamFlip,
            Trigger::AtOp(op),
            bit,
        )
    }

    /// Flip one bitstream bit on every programming attempt with probability
    /// `rate` (bit index derived from the attempt count).
    pub fn bitstream_flip_rate(self, rate: f64) -> Self {
        self.inject(
            Domain::Reconfig,
            FaultKind::BitstreamFlip,
            Trigger::Rate(rate),
            0,
        )
    }

    /// Reject the programming request on attempt `op`.
    pub fn icap_reject_at(self, op: u64) -> Self {
        self.inject(
            Domain::Reconfig,
            FaultKind::IcapReject,
            Trigger::AtOp(op),
            0,
        )
    }

    /// Build the injector for one domain (rules filtered, RNG seeded
    /// `seed ^ domain.tag()`).
    pub fn injector(&self, domain: Domain) -> Injector {
        Injector::from_plan(self, domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    #[test]
    fn builder_accumulates_rules_in_order() {
        let plan = FaultPlan::new(9)
            .net_loss(0.1)
            .net_reorder(0.2)
            .icap_reject_at(3);
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.rules().len(), 3);
        assert_eq!(plan.rules()[0].kind, FaultKind::NetLoss);
        assert_eq!(plan.rules()[2].domain, Domain::Reconfig);
    }

    #[test]
    fn domain_tags_are_distinct() {
        // The tags feed the RNG seeds and the trace hash, so they are pinned
        // as well as distinct.
        assert_eq!(Domain::NetSwitch.tag(), 0x6E65_7453);
        assert_eq!(Domain::Reconfig.tag(), 0x6963_6170);
        let kinds = [
            FaultKind::NetLoss,
            FaultKind::NetReorder,
            FaultKind::NetDuplicate,
            FaultKind::NetCorrupt,
            FaultKind::BitstreamFlip,
            FaultKind::IcapReject,
        ];
        let tags: Vec<u64> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags, (1..=6).collect::<Vec<u64>>());
        let trace_tags = [
            TraceKind::Injected.tag(),
            TraceKind::Detected.tag(),
            TraceKind::Recovered.tag(),
        ];
        assert_eq!(trace_tags, [1, 2, 3]);
    }
}
