//! The CPU–FPGA link of the static layer (§5.1): an XDMA-style DMA engine
//! with descriptor-based channels, completion writeback and MSI-X
//! interrupts.
//!
//! "Coyote v2 uses the AMD XDMA core, which functions as a DMA wrapper on
//! top a hardened PCIe block on the FPGA, and importantly, can be
//! controlled from both the FPGA and the CPU."
//!
//! * [`XdmaEngine`] — host-to-card (H2C) and card-to-host (C2H) directions,
//!   each a 12 GB/s bandwidth-serialized link behind its own round-robin
//!   queue of tenant packets (`coyote_sim::RrQueue`, one packet per tenant
//!   per turn), so every tenant gets an equal share (§6.3, Fig. 8);
//!   per-descriptor overhead models the descriptor fetch.
//! * [`WritebackTable`] — "the writeback mechanism enables efficient
//!   completion tracking by updating host memory counters when data
//!   transfers finish", extended to all data services.
//! * [`MsiX`] — the interrupt path of the utility channel: page faults,
//!   reconfiguration completions, TLB invalidations and user interrupts.

#![forbid(unsafe_code)]

pub mod engine;
#[cfg(test)]
mod interleave;
pub mod msix;
pub mod writeback;

pub use engine::{DmaJob, JobId, PacketDone, XdmaDir, XdmaEngine};
pub use msix::{IrqReason, MsiVector, MsiX};
pub use writeback::WritebackTable;
