//! The reconfiguration fabric's identity in the sharded DES engine.
//!
//! The ICAP controller, bitstream parsing and configuration state form one
//! shard ([`coyote_sim::DOMAIN_FABRIC`]).

use coyote_sim::params::ICAP_BW;
use coyote_sim::{ShardSpec, SimDuration, DOMAIN_FABRIC};

/// Domain id the reconfiguration-fabric shard owns.
pub const SHARD_DOMAIN: u64 = DOMAIN_FABRIC;

/// The shard declaration for topology construction.
pub fn shard_spec() -> ShardSpec {
    ShardSpec {
        domain: SHARD_DOMAIN,
        name: "fabric",
    }
}

/// Egress lookahead of the fabric shard: the ICAP is the slowest actor in
/// the domain; nothing it does becomes observable elsewhere faster than
/// one 4 KiB configuration-frame burst takes to clock in.
pub fn shard_lookahead() -> SimDuration {
    ICAP_BW.time_for(4096)
}
