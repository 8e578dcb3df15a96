//! The sharded DES engine, end to end.
//!
//! The contract under test (DESIGN.md, "DES contract"):
//!
//! 1. Cross-shard events at the *same* timestamp execute in canonical
//!    [`EventTag`] order — (at, priority, domain, target) — not in the
//!    order they were posted.
//! 2. A zero-lookahead link is a construction error; a post below its
//!    link's declared lookahead is a runtime error, not a silent violation
//!    of the model's declared latency.
//! 3. Chaos faults land on the shard that owns their domain
//!    ([`Domain::shard_domain`]) and replay bit-identically there.
//! 4. (property) The sharded engine computes exactly what an independent
//!    single-queue reference loop computes for the same workload — same
//!    final worlds — and reruns are bit-identical down to the canonical
//!    trace fingerprint.

use coyote::platform_topology;
use coyote_chaos::{Domain, FaultPlan};
use coyote_sim::{
    EventTag, PostError, ShardCtx, ShardSpec, ShardedSimulation, SimDuration, SimTime, Topology,
    TopologyError, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET, DOMAIN_SCHED,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const ORDER: [u64; 4] = [DOMAIN_NET, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_SCHED];

/// A two-shard topology with symmetric `lookahead` links.
fn pair_topology(lookahead: SimDuration) -> Result<Topology, TopologyError> {
    let mut topo = Topology::new();
    let a = topo.add_shard(ShardSpec {
        domain: 1,
        name: "a",
    })?;
    let b = topo.add_shard(ShardSpec {
        domain: 2,
        name: "b",
    })?;
    topo.link(a, b, lookahead)?;
    topo.link(b, a, lookahead)?;
    Ok(topo)
}

/// splitmix64 finalizer: the deterministic scrambler the bench storm uses.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn same_timestamp_cross_shard_events_tie_break_in_canonical_tag_order() {
    // Both remote shards post into shard `a` at the *same* instant with
    // different priorities; the execution log must follow canonical tag
    // order (priority first), independent of posting order.
    let mut topo = Topology::new();
    let a = topo
        .add_shard(ShardSpec {
            domain: 10,
            name: "hub",
        })
        .unwrap();
    let b = topo
        .add_shard(ShardSpec {
            domain: 20,
            name: "left",
        })
        .unwrap();
    let c = topo
        .add_shard(ShardSpec {
            domain: 30,
            name: "right",
        })
        .unwrap();
    let la = SimDuration::from_ns(10);
    for (src, dst) in [(b, a), (c, a), (a, b), (a, c)] {
        topo.link(src, dst, la).unwrap();
    }
    let mut sim = ShardedSimulation::new(topo, vec![Vec::<u8>::new(); 3]);
    // `left` posts a LOW-priority marker, `right` a HIGH-priority one,
    // both arriving at hub at exactly t=10ns. Seed order is reversed
    // from the expected execution order on purpose.
    sim.seed(
        20,
        SimTime::ZERO,
        EventTag::target(0),
        |_w: &mut Vec<u8>, ctx: &mut ShardCtx<'_, Vec<u8>>| {
            ctx.post_after(
                10,
                SimDuration::from_ns(10),
                EventTag::target(1).priority(200),
                |w: &mut Vec<u8>, _: &mut ShardCtx<'_, Vec<u8>>| w.push(b'B'),
            )
            .unwrap();
        },
    )
    .unwrap();
    sim.seed(
        30,
        SimTime::ZERO,
        EventTag::target(1),
        |_w: &mut Vec<u8>, ctx: &mut ShardCtx<'_, Vec<u8>>| {
            ctx.post_after(
                10,
                SimDuration::from_ns(10),
                EventTag::target(2).priority(5),
                |w: &mut Vec<u8>, _: &mut ShardCtx<'_, Vec<u8>>| w.push(b'A'),
            )
            .unwrap();
        },
    )
    .unwrap();
    sim.run();
    assert_eq!(
        sim.world_of(10).unwrap(),
        b"AB",
        "priority 5 before 200 at the shared instant"
    );
}

#[test]
fn zero_lookahead_link_is_a_construction_error() {
    let err = pair_topology(SimDuration::ZERO).unwrap_err();
    assert_eq!(err, TopologyError::ZeroLookahead { src: 0, dst: 1 });
}

#[test]
fn post_below_declared_lookahead_is_rejected_at_runtime() {
    let topo = pair_topology(SimDuration::from_ns(100)).unwrap();
    let mut sim = ShardedSimulation::new(topo, vec![0u64; 2]);
    sim.seed(
        1,
        SimTime::ZERO,
        EventTag::target(0),
        |w: &mut u64, ctx: &mut ShardCtx<'_, u64>| {
            let err = ctx
                .post_after(
                    2,
                    SimDuration::from_ns(99),
                    EventTag::target(0),
                    |_: &mut u64, _: &mut ShardCtx<'_, u64>| {},
                )
                .unwrap_err();
            assert!(
                matches!(err, PostError::BelowLookahead { src: 1, dst: 2, .. }),
                "got {err:?}"
            );
            // At exactly the lookahead the post is legal.
            ctx.post_after(
                2,
                SimDuration::from_ns(100),
                EventTag::target(0),
                |w: &mut u64, _: &mut ShardCtx<'_, u64>| *w += 1,
            )
            .unwrap();
            *w += 1;
        },
    )
    .unwrap();
    sim.run();
    assert_eq!(*sim.world_of(1).unwrap(), 1);
    assert_eq!(*sim.world_of(2).unwrap(), 1);
}

/// Per-shard world for the chaos test: a fold of everything that executed
/// here, plus the injector owned by the DMA shard.
#[derive(Default)]
struct ChaosWorld {
    folded: u64,
    faults: u64,
    injector: Option<coyote_chaos::Injector>,
}

#[test]
fn chaos_fault_lands_on_the_owning_shard_and_replays_bit_identically() {
    // A page-fault burst is a DMA/MMU-domain fault: Domain::Mmu owns it,
    // and Domain::shard_domain maps it onto the DMA shard. The net shard
    // originates ops and posts them across; the injector must only ever
    // run on the owning shard, and the whole run — fault trace included —
    // must be bit-identical on a rerun.
    let owning = Domain::Mmu.shard_domain();
    assert_eq!(owning, DOMAIN_DMA, "MMU faults belong to the DMA shard");

    let run = || -> (u64, u64, u64) {
        let mut sim = ShardedSimulation::new(
            platform_topology(),
            (0..4).map(|_| ChaosWorld::default()).collect(),
        );
        sim.record_trace();
        let plan = FaultPlan::new(42).page_fault_burst_at(3);
        sim.world_of_mut(owning).unwrap().injector = Some(plan.injector(Domain::Mmu));
        let la = coyote_net::shard::shard_lookahead();
        for op in 0..16u64 {
            sim.seed(
                DOMAIN_NET,
                SimTime::ZERO + SimDuration::from_ns(op),
                EventTag::target(op),
                move |w: &mut ChaosWorld, ctx: &mut ShardCtx<'_, ChaosWorld>| {
                    w.folded = w.folded.wrapping_add(mix(op));
                    ctx.post_after(
                        owning,
                        la,
                        EventTag::target(op),
                        move |w: &mut ChaosWorld, ctx: &mut ShardCtx<'_, ChaosWorld>| {
                            assert_eq!(
                                ctx.domain(),
                                DOMAIN_DMA,
                                "fault ops must execute on the owning shard"
                            );
                            let inj = w
                                .injector
                                .as_mut()
                                .expect("owning shard holds the injector");
                            for fault in inj.next_at(ctx.now()) {
                                w.faults = w.faults.wrapping_add(mix(fault.kind.tag()));
                            }
                            w.folded = w.folded.wrapping_add(mix(!op));
                        },
                    )
                    .unwrap();
                },
            )
            .unwrap();
        }
        sim.run();
        let trace = sim.take_trace().hash();
        let dma = sim.world_of(DOMAIN_DMA).unwrap();
        let fault_trace = dma
            .injector
            .as_ref()
            .map(|i| i.trace().hash())
            .unwrap_or_default();
        assert!(dma.faults != 0, "the burst must actually fire");
        (trace, dma.faults, fault_trace)
    };

    assert_eq!(run(), run(), "the rerun must be bit-identical");
}

/// One hop of the random workload, shared verbatim by both runs: fold a
/// commutative digest of (time, target, priority) into the domain's world,
/// then hop to the next domain after exactly `step`.
fn fold(worlds: &mut [u64; 4], idx: usize, at: SimTime, target: u64, priority: u8) {
    worlds[idx] = worlds[idx].wrapping_add(mix(at.as_ps() ^ target ^ (u64::from(priority) << 32)));
}

/// Run a random workload on the sharded engine; returns (worlds, trace hash).
fn sharded_run(jobs: &[(usize, u64, u64, u8, u8)], step: SimDuration) -> ([u64; 4], u64) {
    let mut topo = Topology::new();
    for d in ORDER {
        topo.add_shard(ShardSpec {
            domain: d,
            name: "storm",
        })
        .unwrap();
    }
    for src in 0..4 {
        for dst in 0..4 {
            if src != dst {
                topo.link(src, dst, step).unwrap();
            }
        }
    }
    let mut sim = ShardedSimulation::new(topo, vec![[0u64; 4]; 4]);
    sim.record_trace();

    fn hop(
        hops_left: u8,
        target: u64,
        priority: u8,
        step: SimDuration,
    ) -> impl FnOnce(&mut [u64; 4], &mut ShardCtx<'_, [u64; 4]>) + 'static {
        move |w, ctx| {
            let idx = ORDER.iter().position(|&d| d == ctx.domain()).unwrap();
            fold(w, idx, ctx.now(), target, priority);
            if hops_left > 0 {
                let dst = ORDER[(idx + 1 + (target as usize % 3)) % 4];
                ctx.post_after(
                    dst,
                    step,
                    EventTag::target(target).priority(priority),
                    hop(hops_left - 1, mix(target), priority.wrapping_add(17), step),
                )
                .unwrap();
            }
        }
    }

    for &(domain_idx, start_ns, target, priority, hops) in jobs {
        sim.seed(
            ORDER[domain_idx % 4],
            SimTime::ZERO + SimDuration::from_ns(start_ns),
            EventTag::target(target).priority(priority),
            hop(hops, target, priority, step),
        )
        .unwrap();
    }
    sim.run();
    let worlds: [u64; 4] = std::array::from_fn(|i| sim.world_of(ORDER[i]).unwrap()[i]);
    (worlds, sim.take_trace().hash())
}

/// The same workload as plain-data events in one time-ordered heap: an
/// independent reference that shares no engine code. `fold` is a
/// commutative `wrapping_add`, so any time-ordered loop computes the same
/// worlds.
fn reference_run(jobs: &[(usize, u64, u64, u8, u8)], step: SimDuration) -> [u64; 4] {
    let mut worlds = [0u64; 4];
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    for &(domain_idx, start_ns, target, priority, hops) in jobs {
        let at = SimTime::ZERO + SimDuration::from_ns(start_ns);
        heap.push(Reverse((at, seq, domain_idx % 4, hops, target, priority)));
        seq += 1;
    }
    while let Some(Reverse((at, _, idx, hops, target, priority))) = heap.pop() {
        fold(&mut worlds, idx, at, target, priority);
        if hops > 0 {
            let next = (idx + 1 + (target as usize % 3)) % 4;
            let (target, priority) = (mix(target), priority.wrapping_add(17));
            heap.push(Reverse((at + step, seq, next, hops - 1, target, priority)));
            seq += 1;
        }
    }
    worlds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any random workload: the sharded engine is bit-identical across
    /// reruns (worlds AND canonical trace fingerprint), and its worlds match
    /// the single-queue reference loop's exactly.
    #[test]
    fn sharded_matches_single_queue_and_itself(
        jobs in prop::collection::vec(
            (0usize..4, 0u64..500, any::<u64>(), any::<u8>(), 0u8..12),
            1..24,
        ),
        step_ns in 1u64..50,
    ) {
        let step = SimDuration::from_ns(step_ns);
        let run = sharded_run(&jobs, step);
        prop_assert_eq!(sharded_run(&jobs, step), run);
        prop_assert_eq!(reference_run(&jobs, step), run.0);
    }
}
