//! The recordable storm workloads.
//!
//! A recording is only useful if the run it captured can be *re-executed*
//! from the recording alone, so every recordable workload is a pure function
//! of a small [`StormConfig`]: topology, seed/hop counts, an optional chaos
//! seed and an optional perturbation. Two shapes exist:
//!
//! * **Platform** — the four platform domain shards (net, DMA, fabric,
//!   scheduler), fully connected; the storm `coyote-bench`'s
//!   `replay_overhead` and `net_chaos --record` run.
//! * **Ring** — `n` synthetic shards in a directed cycle; small, shape-
//!   parameterizable topologies for the property tests.
//!
//! With a chaos seed, each shard owns a deterministic [`Injector`] consulted
//! once per executed hop; fired faults fold into the hop state, so an
//! injected fault visibly perturbs the downstream event trace — exactly the
//! coupling the bisector must be able to see through.
//!
//! The perturbation (`perturb = Some(seed index)`) is a deliberately broken
//! tie-break: that one seed event's priority gets its low bit flipped. It
//! emulates a tag that changed between two runs of one workload — the class
//! of bug the determinism contract forbids — so a clean and a perturbed
//! recording diverge in exactly one entry, which the bisector must name.

use coyote_chaos::{Domain, FaultKind, FaultPlan, FaultTrace, Injector, Trigger};
use coyote_sim::{
    EventTag, Fnv64, ShardCtx, ShardSpec, ShardTrace, ShardedSimulation, SimDuration, SimTime,
    Topology, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET, DOMAIN_SCHED,
};

/// Platform shard domains in canonical storm order.
const ORDER: [u64; 4] = [DOMAIN_NET, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_SCHED];

/// Largest ring the scenario builds (shard names must be static).
pub const MAX_RING: usize = 8;

/// Static shard names for ring topologies.
const RING_NAMES: [&str; MAX_RING] = ["r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"];

/// Every ring link promises this lookahead.
const RING_LOOKAHEAD_NS: u64 = 10;

/// Chaos domain owned by ring shard `i % 6` (rings have no native fault
/// domains, so they cycle through the taxonomy).
const RING_CHAOS: [Domain; 6] = [
    Domain::NetSwitch,
    Domain::Dma,
    Domain::Reconfig,
    Domain::Sched,
    Domain::Mmu,
    Domain::NetQp,
];

/// Which shard graph the storm runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormTopology {
    /// The four platform domains, fully connected.
    Platform,
    /// `n` shards in a directed cycle, `2 <= n <= MAX_RING`.
    Ring(usize),
}

/// A complete, recordable description of one storm run. Same config =>
/// same run, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormConfig {
    /// Shard graph shape.
    pub topology: StormTopology,
    /// Number of seed events.
    pub seeds: u64,
    /// Hops each seed chain makes.
    pub hops: u32,
    /// When set, arm per-shard fault injectors from [`storm_plan`] of this
    /// seed.
    pub chaos_seed: Option<u64>,
    /// When set, the deliberately broken tie-break: seed event at this index
    /// gets its priority's low bit flipped.
    pub perturb: Option<u64>,
}

impl StormConfig {
    /// A clean platform storm.
    pub fn platform(seeds: u64, hops: u32) -> StormConfig {
        StormConfig {
            topology: StormTopology::Platform,
            seeds,
            hops,
            chaos_seed: None,
            perturb: None,
        }
    }

    /// A clean ring storm over `n` shards.
    pub fn ring(n: usize, seeds: u64, hops: u32) -> StormConfig {
        StormConfig {
            topology: StormTopology::Ring(n),
            seeds,
            hops,
            chaos_seed: None,
            perturb: None,
        }
    }

    /// Arm the chaos injectors.
    pub fn with_chaos(mut self, seed: u64) -> StormConfig {
        self.chaos_seed = Some(seed);
        self
    }

    /// Arm the broken tie-break on seed event `index`.
    pub fn with_perturb(mut self, index: u64) -> StormConfig {
        self.perturb = Some(index);
        self
    }
}

/// One shard's world: the folded accumulator plus the shard's injector.
pub struct StormWorld {
    acc: u64,
    injector: Option<Injector>,
}

/// The complete result of a storm run: everything a [`crate::Recording`]
/// captures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormRun {
    /// Total events executed.
    pub events: u64,
    /// Final per-shard accumulators, in shard order.
    pub worlds: Vec<u64>,
    /// The canonically merged execution trace.
    pub trace: ShardTrace,
    /// The canonically merged fault trace (empty without chaos).
    pub faults: FaultTrace,
    /// `trace.hash()`, computed once at construction. The FNV chain over
    /// the trace is inherently serial and costs a visible fraction of the
    /// run itself, so every consumer (the bench fingerprint rows, the
    /// recorder's footer, the replayer) shares this one computation.
    pub trace_hash: u64,
    /// `faults.hash()`, computed once at construction (see `trace_hash`).
    pub fault_hash: u64,
}

impl StormRun {
    /// One FNV-64 number pinning the whole run: events, worlds, both trace
    /// hashes. Bit-identical across reruns for a correct engine.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(self.events, &self.worlds, self.trace_hash, self.fault_hash)
    }
}

/// The run fingerprint from its parts (shared with the decoded
/// [`crate::Recording`], which stores the parts rather than the run).
pub fn fingerprint_of(events: u64, worlds: &[u64], trace_hash: u64, fault_hash: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(events);
    h.write_u64(worlds.len() as u64);
    for &w in worlds {
        h.write_u64(w);
    }
    h.write_u64(trace_hash);
    h.write_u64(fault_hash);
    h.finish()
}

/// The seed-parameterized fault plan of a chaotic storm. The seed selects
/// the rule subset (low bits) as well as every RNG stream, so one varint in
/// the recording reconstructs the whole plan.
pub fn storm_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed).net_loss(0.02);
    if seed & 1 != 0 {
        plan = plan.inject(
            Domain::Dma,
            FaultKind::DmaStall,
            Trigger::Rate(0.01),
            500_000,
        );
    }
    if seed & 2 != 0 {
        plan = plan.inject(Domain::Reconfig, FaultKind::IcapReject, Trigger::AtOp(5), 0);
    }
    if seed & 4 != 0 {
        plan = plan.inject(Domain::Sched, FaultKind::TenantCrash, Trigger::AtOp(40), 1);
    }
    if seed & 8 != 0 {
        plan = plan.inject(
            Domain::Mmu,
            FaultKind::PageFaultBurst,
            Trigger::Rate(0.005),
            3,
        );
    }
    plan
}

/// splitmix64 finalizer: cheap, well-scrambled, deterministic.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard domains of a topology, in shard order.
pub fn storm_domains(topo: StormTopology) -> Vec<u64> {
    match topo {
        StormTopology::Platform => ORDER.to_vec(),
        StormTopology::Ring(n) => (1..=n as u64).collect(),
    }
}

/// Build the shard graph. Ring sizes clamp into `[2, MAX_RING]`.
pub fn build_topology(topo: StormTopology) -> Topology {
    match topo {
        StormTopology::Platform => coyote::platform_topology(),
        StormTopology::Ring(n) => {
            let n = n.clamp(2, MAX_RING);
            let mut t = Topology::new();
            for (i, name) in RING_NAMES.iter().enumerate().take(n) {
                t.add_shard(ShardSpec {
                    domain: i as u64 + 1,
                    name,
                })
                .expect("ring domains are unique");
            }
            for i in 0..n {
                t.link(i, (i + 1) % n, SimDuration::from_ns(RING_LOOKAHEAD_NS))
                    .expect("ring lookahead is positive");
            }
            t
        }
    }
}

/// Egress lookahead out of `domain` — the exact legal minimum post delay.
fn egress(topo: StormTopology, domain: u64) -> SimDuration {
    match topo {
        StormTopology::Platform => match domain {
            DOMAIN_NET => coyote_net::shard::shard_lookahead(),
            DOMAIN_DMA => coyote_dma::shard::shard_lookahead(),
            DOMAIN_FABRIC => coyote_fabric::shard::shard_lookahead(),
            DOMAIN_SCHED => coyote_sched::shard::shard_lookahead(),
            _ => unreachable!("platform domains only"),
        },
        StormTopology::Ring(_) => SimDuration::from_ns(RING_LOOKAHEAD_NS),
    }
}

/// The next domain a hop posts to, as a function of the current domain and
/// the hop state (platform hops pick among the three other shards; ring
/// hops follow the cycle).
fn next_domain(topo: StormTopology, cur: u64, state: u64) -> u64 {
    match topo {
        StormTopology::Platform => {
            let i = ORDER
                .iter()
                .position(|&d| d == cur)
                .expect("event on a platform shard");
            ORDER[(i + 1 + (state as usize % 3)) % ORDER.len()]
        }
        StormTopology::Ring(n) => {
            let n = n.clamp(2, MAX_RING) as u64;
            (cur % n) + 1
        }
    }
}

/// The injector of shard `index` (owning sim domain `domain`): the chaos
/// domains whose `shard_domain` is this shard, or the ring's cycled
/// assignment.
fn shard_injector(topo: StormTopology, index: usize, domain: u64, seed: u64) -> Injector {
    let plan = storm_plan(seed);
    let domains: Vec<Domain> = match topo {
        StormTopology::Platform => match domain {
            DOMAIN_NET => vec![Domain::NetSwitch, Domain::NetQp],
            DOMAIN_DMA => vec![Domain::Dma, Domain::Mmu],
            DOMAIN_FABRIC => vec![Domain::Reconfig],
            DOMAIN_SCHED => vec![Domain::Sched],
            _ => unreachable!("platform domains only"),
        },
        StormTopology::Ring(_) => vec![RING_CHAOS[index % RING_CHAOS.len()]],
    };
    Injector::from_plan(&plan, &domains)
}

/// One hop of the storm: fold state into the owning shard's world, consult
/// the shard's injector (fired faults fold into the onward state, so chaos
/// perturbs the downstream trace), then post onward with exactly the legal
/// minimum delay.
fn hop(
    topo: StormTopology,
    hops_left: u32,
    state: u64,
) -> impl FnOnce(&mut StormWorld, &mut ShardCtx<'_, StormWorld>) + 'static {
    move |w, ctx| {
        w.acc = w.acc.wrapping_add(mix(state ^ ctx.now().as_ps()));
        let mut state = state;
        if let Some(inj) = w.injector.as_mut() {
            for f in inj.next_at(ctx.now()) {
                state = mix(state ^ f.kind.tag().rotate_left(13) ^ f.param);
            }
        }
        if hops_left == 0 {
            return;
        }
        let dst = next_domain(topo, ctx.domain(), state);
        ctx.post_after(
            dst,
            egress(topo, ctx.domain()),
            EventTag::target(state % 8).priority((state % 251) as u8),
            hop(topo, hops_left - 1, mix(state)),
        )
        .expect("post respects the declared lookahead");
    }
}

/// Run the storm described by `cfg`.
///
/// Bit-identical across reruns — the engine's determinism contract. A
/// perturbed config differs from its clean twin in exactly one seed tag
/// (see [`StormConfig::perturb`]), giving the bisector a known,
/// single-event divergence to find.
pub fn run_storm(cfg: &StormConfig) -> StormRun {
    let topo = build_topology(cfg.topology);
    let domains = storm_domains(cfg.topology);
    let worlds: Vec<StormWorld> = domains
        .iter()
        .enumerate()
        .map(|(i, &d)| StormWorld {
            acc: 0,
            injector: cfg
                .chaos_seed
                .map(|seed| shard_injector(cfg.topology, i, d, seed)),
        })
        .collect();
    let mut sim = ShardedSimulation::new(topo, worlds);
    sim.record_trace();
    for s in 0..cfg.seeds {
        let domain = domains[(s % domains.len() as u64) as usize];
        let mut priority = (s % 251) as u8;
        if cfg.perturb == Some(s) {
            // The broken tie-break: one tag changed between two runs.
            priority ^= 1;
        }
        sim.seed(
            domain,
            SimTime::ZERO + SimDuration::from_ns(s),
            EventTag::target(s % 8).priority(priority),
            hop(cfg.topology, cfg.hops, mix(s)),
        )
        .expect("seeding onto a storm shard");
    }
    sim.run();
    let events = sim.events_executed();
    let trace = sim.take_trace();
    let mut accs = Vec::with_capacity(domains.len());
    let mut fault_traces = Vec::with_capacity(domains.len());
    for &d in &domains {
        let w = sim.world_of_mut(d).expect("storm shard world");
        accs.push(w.acc);
        if let Some(inj) = w.injector.as_mut() {
            fault_traces.push(inj.take_trace());
        }
    }
    let faults = FaultTrace::merged(fault_traces);
    let trace_hash = trace.hash();
    let fault_hash = faults.hash();
    StormRun {
        events,
        worlds: accs,
        trace,
        faults,
        trace_hash,
        fault_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_storm_reruns_bit_identically() {
        for cfg in [
            StormConfig::platform(16, 12),
            StormConfig::ring(3, 12, 10),
            StormConfig::platform(16, 12).with_chaos(0xC0FFEE),
            StormConfig::ring(5, 12, 10).with_chaos(7),
        ] {
            let first = run_storm(&cfg);
            let again = run_storm(&cfg);
            assert_eq!(again, first, "{cfg:?}");
            assert_eq!(again.fingerprint(), first.fingerprint());
        }
    }

    #[test]
    fn chaos_perturbs_the_event_trace() {
        let clean = run_storm(&StormConfig::platform(16, 12));
        let chaotic = run_storm(&StormConfig::platform(16, 12).with_chaos(0xC0FFEE));
        assert!(!chaotic.faults.is_empty(), "chaos fired");
        assert_ne!(
            clean.trace.hash(),
            chaotic.trace.hash(),
            "fired faults must fold into the event trace, not just the fault trace"
        );
    }

    #[test]
    fn perturbed_storm_diverges_from_clean_in_exactly_one_entry() {
        let cfg = StormConfig::platform(16, 12);
        let clean = run_storm(&cfg);
        let perturbed = run_storm(&cfg.with_perturb(5));
        // Worlds and event counts agree: the perturbation flips only a tag.
        assert_eq!(clean.events, perturbed.events);
        assert_eq!(clean.worlds, perturbed.worlds);
        assert_eq!(clean.faults, perturbed.faults);
        let diffs: Vec<usize> = clean
            .trace
            .entries()
            .iter()
            .zip(perturbed.trace.entries())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one divergent entry");
        let (a, b) = (
            clean.trace.entries()[diffs[0]],
            perturbed.trace.entries()[diffs[0]],
        );
        assert_eq!(a.at_ps, 5_000, "the perturbed seed event (5 ns)");
        assert_eq!(a.at_ps, b.at_ps);
        assert_ne!(a.priority, b.priority);
    }

    #[test]
    fn storm_fingerprints_separate_configs() {
        let a = run_storm(&StormConfig::platform(8, 6)).fingerprint();
        let b = run_storm(&StormConfig::platform(8, 7)).fingerprint();
        let c = run_storm(&StormConfig::ring(3, 8, 6)).fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
