//! Multi-tenant fair sharing (§6.3) and per-stream crediting (§7.2).
//!
//! "To achieve fairness between multiple tenants on bandwidth-constrained
//! links (PCIe, network), Coyote v2 implements packetization, interleaving
//! and a dedicated credit-based system for all data requests."
//!
//! * [`packetize`] — splits arbitrary transfers into 4 KB (default) chunks
//!   at chunk-aligned boundaries, "requiring no user application
//!   involvement".
//! * [`CreditTable`] — per-key credit pools; requests stall (back-pressure
//!   onto the vFPGA) rather than flooding the shared fabric.
//!
//! The round-robin interleaving of those packets onto a shared link is
//! `coyote_sim::RrQueue`; the XDMA engine (`coyote-dma`) holds one per PCIe
//! direction in front of its link.

#![forbid(unsafe_code)]

pub mod credits;
pub mod packetizer;

pub use credits::CreditTable;
pub use packetizer::{packetize, packetize_iter, Packet, PacketIter};
