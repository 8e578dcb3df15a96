//! Discrete-event simulation (DES) engine and queueing primitives for the
//! Coyote v2 platform model.
//!
//! The Coyote v2 paper evaluates an FPGA shell on real Alveo hardware. This
//! reproduction replaces the hardware with a deterministic simulation: the
//! platform crates (`coyote-mem`, `coyote-dma`, `coyote-net`, ...) thread
//! simulated time analytically through the primitives provided here, and
//! the event engine runs the synthetic event storms of the replay tooling
//! deterministically, bit for bit:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated clock.
//! * [`ShardedSimulation`] — the event loop. Events are boxed closures over
//!   a user-supplied per-shard *world* type, executed one at a time in
//!   [`EventKey`] order so execution is fully deterministic. A
//!   [`Topology`] declares the shards and the lookahead of every link; one
//!   shard with no links is the plain serial engine.
//! * [`LinkModel`] — a bandwidth-serialized, fixed-latency link (PCIe, HBM
//!   channel, 100G Ethernet, ICAP, disk, ...).
//! * [`RrQueue`] — round-robin fair queueing across keys, the mechanism
//!   behind Coyote v2's multi-tenant interleaving (§6.3 of the paper).
//! * [`CreditPool`] — the credit-based backpressure scheme of §7.2.
//! * [`PipelineModel`] — an initiation-interval/latency model for pipelined
//!   hardware kernels such as the 10-stage AES core of §9.5.
//! * [`stats`] — event counters used by the experiment harness.
//! * [`Fnv64`] — the FNV-1a-style 64-bit hash behind every determinism
//!   fingerprint.
//! * [`par_map`] — deterministic fork-join parallelism for the build flows
//!   and the experiment harness: results merge in input order, so output is
//!   bit-identical for any worker-thread count.
//! * [`params`] — every calibration constant of the reproduction, with the
//!   derivation from the paper's reported numbers.
//!
//! # Examples
//!
//! ```
//! use coyote_sim::{EventTag, ShardSpec, ShardedSimulation, SimDuration, SimTime, Topology};
//!
//! // One shard, no links: a single serial event queue.
//! let mut topo = Topology::new();
//! topo.add_shard(ShardSpec { domain: 1, name: "world" }).unwrap();
//! let mut sim = ShardedSimulation::new(topo, vec![0u64]);
//! for i in 0..10 {
//!     let at = SimTime::ZERO + SimDuration::from_ns(100 * i);
//!     sim.seed(1, at, EventTag::default(), |ticks: &mut u64, _ctx| *ticks += 1)
//!         .unwrap();
//! }
//! let end = sim.run();
//! assert_eq!(sim.world_of(1), Some(&10));
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_ns(900));
//! ```

#![forbid(unsafe_code)]

pub mod arbiter;
pub mod credit;
pub mod hash;
pub mod link;
pub mod par;
pub mod params;
pub mod pipeline;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod window;

pub use arbiter::RrQueue;
pub use credit::CreditPool;
pub use hash::Fnv64;
pub use link::{LinkModel, Transfer};
pub use par::{par_map, thread_budget};
pub use pipeline::PipelineModel;
pub use rng::Xorshift64Star;
pub use shard::{
    EventKey, EventTag, PostError, ShardCtx, ShardTrace, ShardTraceEntry, ShardedSimulation,
};
pub use time::{Bandwidth, Freq, SimDuration, SimTime};
pub use window::{
    ShardId, ShardSpec, Topology, TopologyError, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET,
    DOMAIN_SCHED,
};

/// The one-shard engine: a single shard with no links, the configuration
/// every serial event-loop user runs on.
#[cfg(test)]
mod engine {
    mod tests {
        use crate::{
            EventTag, ShardCtx, ShardSpec, ShardedSimulation, SimDuration, SimTime, Topology,
        };

        const DOMAIN: u64 = 1;

        fn one_shard<W>(world: W) -> ShardedSimulation<W> {
            let mut topo = Topology::new();
            topo.add_shard(ShardSpec {
                domain: DOMAIN,
                name: "world",
            })
            .unwrap();
            ShardedSimulation::new(topo, vec![world])
        }

        #[test]
        fn events_run_in_time_order() {
            let mut sim = one_shard(Vec::new());
            for (ns, v) in [(30, 3u32), (10, 1), (20, 2)] {
                let at = SimTime::ZERO + SimDuration::from_ns(ns);
                sim.seed(
                    DOMAIN,
                    at,
                    EventTag::default(),
                    move |w: &mut Vec<u32>, _| w.push(v),
                )
                .unwrap();
            }
            sim.run();
            assert_eq!(sim.world_of(DOMAIN), Some(&vec![1, 2, 3]));
        }

        #[test]
        fn same_instant_runs_in_scheduling_order() {
            let mut sim = one_shard(Vec::new());
            for i in 0..100u32 {
                sim.seed(
                    DOMAIN,
                    SimTime::ZERO,
                    EventTag::default(),
                    move |w: &mut Vec<u32>, _| w.push(i),
                )
                .unwrap();
            }
            sim.run();
            assert_eq!(sim.world_of(DOMAIN), Some(&(0..100).collect::<Vec<_>>()));
        }

        #[test]
        fn events_can_schedule_followups() {
            // A self-perpetuating ticker that stops after five ticks.
            fn tick(ticks: &mut u32, ctx: &mut ShardCtx<'_, u32>) {
                *ticks += 1;
                if *ticks < 5 {
                    ctx.schedule_after(SimDuration::from_ns(7), EventTag::default(), tick);
                }
            }
            let mut sim = one_shard(0u32);
            sim.seed(DOMAIN, SimTime::ZERO, EventTag::default(), tick)
                .unwrap();
            let end = sim.run();
            assert_eq!(sim.world_of(DOMAIN), Some(&5));
            assert_eq!(end, SimTime::ZERO + SimDuration::from_ns(28));
        }

        #[test]
        fn trace_off_by_default() {
            let mut sim = one_shard(());
            sim.seed(
                DOMAIN,
                SimTime::ZERO + SimDuration::from_ns(1),
                EventTag::default(),
                |_, _| {},
            )
            .unwrap();
            sim.run();
            assert_eq!(sim.events_executed(), 1);
            assert!(sim.take_trace().is_empty());
        }

        #[test]
        #[should_panic(expected = "scheduling into the past")]
        fn scheduling_into_past_panics() {
            let mut sim = one_shard(());
            let at = SimTime::ZERO + SimDuration::from_ns(10);
            sim.seed(
                DOMAIN,
                at,
                EventTag::default(),
                |_, ctx: &mut ShardCtx<'_, ()>| {
                    ctx.schedule_at(SimTime::ZERO, EventTag::default(), |_, _| {});
                },
            )
            .unwrap();
            sim.run();
        }
    }
}
