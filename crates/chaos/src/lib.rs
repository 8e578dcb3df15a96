//! Deterministic fault injection for the Coyote v2 reproduction.
//!
//! A data-center shell must survive partial failures: lost, reordered,
//! duplicated and corrupted packets; bit-flips in partial bitstreams on the
//! way to the ICAP; transient ICAP rejections; DMA stalls; TLB shootdown
//! storms; and tenants dying mid-slot. This crate turns each of those into a
//! *typed*, *seeded*, *replayable* fault:
//!
//! * [`FaultPlan`] — a declarative plan: which [`FaultKind`] fires in which
//!   [`Domain`], triggered per-operation ([`Trigger::Rate`]), at an exact
//!   operation count ([`Trigger::AtOp`]) or at a simulated timestamp
//!   ([`Trigger::AtTime`]).
//! * [`Injector`] — the per-domain runtime a subsystem consults once per
//!   operation. Draws come from a [`coyote_sim::Xorshift64Star`] seeded from
//!   the plan seed and the domain tag, so two domains never share a random
//!   stream and the fault sequence is a pure function of `(seed, plan)` —
//!   independent of thread count or wall clock.
//! * [`FaultTrace`] — the ordered record of injected / detected / recovered
//!   events, with an FNV-64 [`FaultTrace::hash`] asserted in CI: chaos runs
//!   are reproducible artifacts, not flakes.
//! * [`Backoff`] / [`RetryPolicy`] — jitter-free exponential backoff with a
//!   bounded attempt budget, used by the driver's hardened retry paths.
//!
//! The consumers (switch, NIC, ICAP port, XDMA engine, interleaver, MMU)
//! each hold an `Option<Injector>`; with no injector attached their fast
//! paths are untouched.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod inject;
pub mod plan;
pub mod trace;

pub use backoff::{Backoff, RetryPolicy};
pub use inject::{Injector, MAX_STALL_PS};
pub use plan::{Domain, Fault, FaultKind, FaultPlan, Trigger};
pub use trace::{ChaosCounters, FaultTrace, TraceEvent, TraceKind};
