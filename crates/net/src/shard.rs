//! The network stack's identity in the sharded DES engine.
//!
//! The RoCE stack, switch fabric and QPs form one shard
//! ([`coyote_sim::DOMAIN_NET`]): everything they schedule stays on the
//! shard except traffic handed to other subsystems, which crosses a shard
//! link and therefore must respect the egress lookahead below.

use coyote_sim::params::{SWITCH_LATENCY, WIRE_LATENCY};
use coyote_sim::{ShardSpec, SimDuration, DOMAIN_NET};

/// Domain id the network shard owns (tag events with
/// `EventTag::domain(SHARD_DOMAIN)`).
pub const SHARD_DOMAIN: u64 = DOMAIN_NET;

/// The shard declaration for topology construction.
pub fn shard_spec() -> ShardSpec {
    ShardSpec {
        domain: SHARD_DOMAIN,
        name: "net",
    }
}

/// Egress lookahead of the network shard: nothing leaves the domain faster
/// than one wire plus one switch traversal, so links out of `net` may
/// promise that much latency.
pub fn shard_lookahead() -> SimDuration {
    WIRE_LATENCY + SWITCH_LATENCY
}
