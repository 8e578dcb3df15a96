//! Record/replay and divergence bisection for the deterministic sharded
//! DES: the determinism contract turned into a debugger.
//!
//! The engine's contract — the same config executes the same events in the
//! same order — makes every run a reproducible artifact. This crate makes
//! that artifact a first-class debugging tool:
//!
//! * **Recorder** ([`Recording`]) — capture a full storm run (scheduler
//!   events, fault-injection trace, final worlds) into a versioned,
//!   varint-encoded `.cyt` byte image closed by an FNV-64 footer matching
//!   the live fingerprint scheme. Decoding fails closed with typed
//!   [`ReplayError`]s.
//! * **Replayer** ([`verify`]) — re-execute the recorded configuration and
//!   assert per-event identity, reporting the first disagreement in each
//!   stream.
//! * **Bisector** ([`bisect`]) — binary-search two recordings (via prefix
//!   FNV-64 hashes) to the first divergent [`coyote_sim::EventKey`] and
//!   render an SRC/DS-style diagnosis through `coyote-lint`'s DS007 rule:
//!   domain, shard, time, priority, origin, link-lookahead context, plus
//!   the suspect rule family.
//!
//! The recordable workloads ([`StormConfig`]) are pure functions of their
//! config, so a recording *is* its own reproducer: the platform storm is
//! the one `coyote-bench`'s `replay_overhead` measures, and the ring storms
//! give the property tests small parameterizable shapes.
//!
//! The `coyote-replay` CLI fronts all three (`record` / `verify` /
//! `bisect`), with `coyote-lint`'s exit-code convention: 0 clean,
//! 1 divergence, 2 usage or I/O failure.

#![forbid(unsafe_code)]

pub mod bisect;
pub mod format;
pub mod replay;
pub mod scenario;
pub mod wire;

pub use bisect::{bisect, first_divergence, BisectFinding};
pub use format::{Recording, ReplayError, FORMAT_VERSION, MAGIC};
pub use replay::{compare, replay, verify, Divergence, VerifyOutcome};
pub use scenario::{
    fingerprint_of, run_storm, storm_domains, storm_plan, StormConfig, StormRun, StormTopology,
    MAX_RING,
};
