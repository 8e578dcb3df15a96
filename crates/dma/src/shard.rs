//! The DMA/XDMA path's identity in the sharded DES engine.
//!
//! The XDMA engine, writeback table and MSI-X path (plus the MMU, which
//! shares the PCIe/host-memory substrate) form one shard
//! ([`coyote_sim::DOMAIN_DMA`]).

use coyote_sim::params::PCIE_LATENCY;
use coyote_sim::{ShardSpec, SimDuration, DOMAIN_DMA};

/// Domain id the DMA shard owns.
pub const SHARD_DOMAIN: u64 = DOMAIN_DMA;

/// The shard declaration for topology construction.
pub fn shard_spec() -> ShardSpec {
    ShardSpec {
        domain: SHARD_DOMAIN,
        name: "dma",
    }
}

/// Egress lookahead of the DMA shard: nothing leaves the domain faster
/// than one PCIe round through the hardened block.
pub fn shard_lookahead() -> SimDuration {
    PCIE_LATENCY
}
