//! Deterministic fault injection for the Coyote v2 reproduction.
//!
//! A data-center shell must survive partial failures: lost, reordered,
//! duplicated and corrupted packets; bit-flips in partial bitstreams on the
//! way to the ICAP; and transient ICAP rejections. This crate turns each of
//! those into a *typed*, *seeded*, *replayable* fault:
//!
//! * [`FaultPlan`] — a declarative plan: which [`FaultKind`] fires in which
//!   [`Domain`], triggered per-operation ([`Trigger::Rate`]) or at an exact
//!   operation count ([`Trigger::AtOp`]).
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
//! The consumers (the switch and the ICAP port) each hold an
//! `Option<Injector>`; with no injector attached their fast paths are
//! untouched.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod inject;
pub mod plan;
pub mod trace;

pub use backoff::{Backoff, RetryPolicy};
pub use inject::Injector;
pub use plan::{Domain, Fault, FaultKind, FaultPlan, Trigger};
pub use trace::{FaultTrace, TraceEvent, TraceKind};
