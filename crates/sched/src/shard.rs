//! The scheduler/control-plane's identity in the sharded DES engine.
//!
//! Packetization, interleaving and crediting form one shard
//! ([`coyote_sim::DOMAIN_SCHED`]).

use coyote_sim::params::INVOKE_SW_OVERHEAD;
use coyote_sim::{ShardSpec, SimDuration, DOMAIN_SCHED};

/// Domain id the scheduler shard owns.
pub const SHARD_DOMAIN: u64 = DOMAIN_SCHED;

/// The shard declaration for topology construction.
pub fn shard_spec() -> ShardSpec {
    ShardSpec {
        domain: SHARD_DOMAIN,
        name: "sched",
    }
}

/// Egress lookahead of the scheduler shard: control-plane decisions reach
/// other subsystems no faster than one software invocation overhead.
pub fn shard_lookahead() -> SimDuration {
    INVOKE_SW_OVERHEAD
}
