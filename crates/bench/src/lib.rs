//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§9), each returning a serializable result and printing the
//! same rows/series the paper reports, alongside the published values.
//!
//! Run everything with `cargo run -p coyote-bench --bin coyote-bench all`
//! (or a single experiment id: `table2`, `fig7a`, ...). Criterion wrappers
//! in `benches/` measure the wall-clock cost of regenerating each result.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod cache;
pub mod claims;
pub mod experiments;
pub mod netexp;
pub mod report;
pub mod storm;

pub use report::{ExperimentResult, Row};
