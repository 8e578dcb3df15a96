//! Simulated time and queueing primitives for the Coyote v2 platform
//! model.
//!
//! The Coyote v2 paper evaluates an FPGA shell on real Alveo hardware. This
//! reproduction replaces the hardware with a deterministic model: the
//! platform crates (`coyote-mem`, `coyote-dma`, `coyote-net`, ...) thread
//! simulated time analytically through the primitives provided here, bit
//! for bit:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated clock.
//! * [`LinkModel`] — a bandwidth-serialized, fixed-latency link (PCIe, HBM
//!   channel, 100G Ethernet, ICAP, disk, ...).
//! * [`RrQueue`] — round-robin fair queueing across keys, the mechanism
//!   behind Coyote v2's multi-tenant interleaving (§6.3 of the paper); the
//!   XDMA engine keeps one per PCIe direction.
//! * [`CreditPool`] — the credit-based backpressure scheme of §7.2.
//! * [`PipelineModel`] — an initiation-interval/latency model for pipelined
//!   hardware kernels such as the 10-stage AES core of §9.5.
//! * [`Fnv64`] — the FNV-1a-style 64-bit hash behind every determinism
//!   fingerprint.
//! * [`par_map`] — deterministic fork-join parallelism for the build flows
//!   and the experiment harness: results merge in input order, so output is
//!   bit-identical for any worker-thread count.
//! * [`params`] — the platform's calibration constants (clocks, links,
//!   memories, ICAP, disk), with the derivation from the paper's reported
//!   numbers. Not every fitted constant lives here: the build model's
//!   per-operation costs (`coyote_synth::flow::cost`, whose
//!   `LINK_FRACTION` is fitted to Fig. 7(b)'s 15–20 % saving),
//!   `coyote_hls4ml::backend::PYNQ_CALL_OVERHEAD`, the GPU peer link in
//!   `coyote_mem::gpu` and the `ablation_*` experiments' link literals
//!   are fitted or chosen where they are used.
//!
//! # Examples
//!
//! ```
//! use coyote_sim::{Bandwidth, LinkModel, SimDuration, SimTime};
//!
//! // A 12 GB/s host link with 900 ns propagation latency: two 12 kB
//! // transfers booked at t = 0 serialize back to back.
//! let mut link = LinkModel::new(Bandwidth::gbps(12), SimDuration::from_ns(900));
//! let a = link.transmit(SimTime::ZERO, 12_000);
//! let b = link.transmit(SimTime::ZERO, 12_000);
//! assert_eq!(a.done, SimTime::ZERO + SimDuration::from_us(1));
//! assert_eq!(b.start, a.done);
//! assert_eq!(b.arrival, SimTime::ZERO + SimDuration::from_ns(2_900));
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
pub mod time;

pub use arbiter::RrQueue;
pub use credit::CreditPool;
pub use hash::Fnv64;
pub use link::{LinkModel, Transfer};
pub use par::{par_map, thread_budget};
pub use pipeline::PipelineModel;
pub use rng::Xorshift64Star;
pub use time::{Bandwidth, Freq, SimDuration, SimTime};
