//! The build-toolchain substitute: synthesis, placement, routing, timing
//! and the nested shell/app build flows of §4 and §9.2.
//!
//! Vivado is unavailable in this environment, so this crate does the same
//! *kind* of work at reduced scale: IP blocks expand into pseudo-random
//! netlists (geometry seeded by the block identity), a simulated-annealing
//! placer assigns cells to tiles inside the partition rectangles of the
//! floorplan, a congestion-negotiating pattern router realizes each
//! connection as one of its two L-shaped paths, and static timing analysis
//! checks the 250 MHz constraint. Build *times* are modeled from the actual
//! operation counts of those algorithms (synthesis primitives, annealing
//! moves, router expansions, bitstream frames). The link step is the
//! exception: the app flow's link against a routed, locked shell
//! checkpoint is charged as [`flow::cost::LINK_FRACTION`] of the services'
//! build time, a constant fitted to the 15–20 % saving of Fig. 7(b). That
//! saving is therefore an input of the model, not a result it derives.
//!
//! One netlist cell represents [`netlist::PRIMITIVES_PER_CELL`] device
//! primitives; modeled times scale back up by the same factor.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod flow;
pub mod library;
pub mod netlist;
pub mod place;
pub mod route;
pub mod timing;

pub use checkpoint::ShellCheckpoint;
pub use flow::{
    app_flow, fig7b_configs, shell_flow, AppArtifacts, BuildReport, BuildRequest, ShellArtifacts,
};
pub use library::{Ip, IpBlock};
pub use netlist::{stage_width, CellKind, Net, Netlist};
pub use place::{Placement, Placer};
pub use route::{RouteResult, Router};
pub use timing::TimingReport;
