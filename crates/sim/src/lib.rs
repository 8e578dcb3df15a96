//! Discrete-event simulation (DES) engine and queueing primitives for the
//! Coyote v2 platform model.
//!
//! The Coyote v2 paper evaluates an FPGA shell on real Alveo hardware. This
//! reproduction replaces the hardware with a deterministic, single-threaded
//! discrete-event simulation. Every higher-level crate (`coyote-mem`,
//! `coyote-dma`, `coyote-net`, ...) expresses its timing behaviour in terms
//! of the primitives provided here:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated clock.
//! * [`Simulation`] / [`Scheduler`] — the event loop. Events are boxed
//!   closures over a user-supplied *world* type, ordered by `(time, seq)` so
//!   execution is fully deterministic.
//! * [`LinkModel`] — a bandwidth-serialized, fixed-latency link (PCIe, HBM
//!   channel, 100G Ethernet, ICAP, disk, ...).
//! * [`RrQueue`] — round-robin fair queueing across keys, the mechanism
//!   behind Coyote v2's multi-tenant interleaving (§6.3 of the paper).
//! * [`CreditPool`] — the credit-based backpressure scheme of §7.2.
//! * [`PipelineModel`] — an initiation-interval/latency model for pipelined
//!   hardware kernels such as the 10-stage AES core of §9.5.
//! * [`stats`] — event counters and trial series used by the experiment
//!   harness.
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
//! use coyote_sim::{Simulation, SimDuration};
//!
//! // A world holding a single counter.
//! struct World { ticks: u64 }
//!
//! let mut sim = Simulation::new(World { ticks: 0 });
//! for i in 0..10 {
//!     sim.schedule_after(SimDuration::from_ns(100 * i), |w: &mut World, _s| {
//!         w.ticks += 1;
//!     });
//! }
//! let end = sim.run_until_idle();
//! assert_eq!(sim.world.ticks, 10);
//! assert_eq!(end, coyote_sim::SimTime::ZERO + SimDuration::from_ns(900));
//! ```

#![forbid(unsafe_code)]

pub mod arbiter;
pub mod credit;
pub mod engine;
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
pub use engine::{EventTag, Scheduler, Simulation, TraceEntry, TracePhase};
pub use hash::Fnv64;
pub use link::{LinkModel, Transfer};
pub use par::{par_map, thread_budget};
pub use pipeline::PipelineModel;
pub use rng::Xorshift64Star;
pub use shard::{EventKey, PostError, ShardCtx, ShardTrace, ShardTraceEntry, ShardedSimulation};
pub use time::{Bandwidth, Freq, SimDuration, SimTime};
pub use window::{
    horizons, ShardId, ShardSpec, Topology, TopologyError, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET,
    DOMAIN_SCHED,
};
