//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§9), each returning a serializable result and printing the
//! same rows/series the paper reports, alongside the published values.
//!
//! Run everything with `cargo run -p coyote-bench --bin coyote-bench all`
//! (or a single experiment id: `table2`, `fig7a`, ...). [`EXPERIMENTS`] is
//! the one list of experiment ids.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod claims;
pub mod experiments;
pub mod netexp;
pub mod report;
pub mod storm;

pub use report::{ExperimentResult, Row};

/// How an experiment computes its result.
#[derive(Clone, Copy)]
pub enum Run {
    /// From its own simulation.
    Alone(fn() -> ExperimentResult),
    /// From results other experiments computed: the ids it reads, and the
    /// evaluation over their results.
    Over(
        fn() -> Vec<&'static str>,
        fn(&[ExperimentResult]) -> ExperimentResult,
    ),
}

/// Every experiment, in `coyote-bench --list` order.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", Run::Alone(experiments::table1)),
    ("table2", Run::Alone(experiments::table2)),
    ("table3", Run::Alone(experiments::table3)),
    ("fig7a", Run::Alone(experiments::fig7a)),
    ("fig7b", Run::Alone(experiments::fig7b)),
    ("fig8", Run::Alone(experiments::fig8)),
    ("fig10a", Run::Alone(experiments::fig10a)),
    ("fig10b", Run::Alone(experiments::fig10b)),
    ("fig11", Run::Alone(experiments::fig11)),
    ("fig12", Run::Alone(experiments::fig12)),
    ("ablation_chunk", Run::Alone(ablations::ablation_chunk_size)),
    ("ablation_tlb", Run::Alone(ablations::ablation_tlb_geometry)),
    ("ablation_pages", Run::Alone(ablations::ablation_page_size)),
    ("ablation_credits", Run::Alone(ablations::ablation_credits)),
    (
        "ablation_virt",
        Run::Alone(ablations::ablation_virt_service),
    ),
    (
        "ablation_mt",
        Run::Alone(ablations::ablation_threads_vs_vfpgas),
    ),
    ("claims", Run::Over(claims::inputs, claims::claims)),
    ("reconfig_storm", Run::Alone(storm::reconfig_storm)),
    ("net_goodput", Run::Alone(netexp::net_goodput)),
    ("net_fanin", Run::Alone(netexp::net_fanin)),
    ("net_retransmit", Run::Alone(netexp::net_retransmit)),
    ("net_chaos", Run::Alone(netexp::net_chaos)),
    ("net_micro", Run::Alone(netexp::net_micro)),
];

/// How the experiment `id` runs, or `None` for an unknown id.
pub fn experiment(id: &str) -> Option<Run> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, run)| run)
}
