//! The shard topology of the DES engine: shards, links and lookaheads.
//!
//! The engine ([`crate::shard`]) partitions a simulation into per-domain
//! shards. A directed link between two shards declares a *lookahead*: a
//! promise that no event executing on the source shard at time `t` can make
//! anything observable on the destination shard before `t + lookahead`. It
//! is a statement about the model — the minimum latency of the hardware
//! path between two domains — and [`crate::ShardCtx::post_after`] enforces
//! it on every cross-shard post (lint rule DS006 checks recorded traces).
//!
//! Zero lookahead is rejected at topology-construction time: every hardware
//! path takes time, and a strictly positive lookahead is what keeps a
//! cross-shard post out of an instant its destination may already have
//! executed, so each shard runs its own events in [`crate::EventKey`] order.

use crate::time::SimDuration;

/// Canonical shard-domain id of the network stack (RoCE/RDMA, switch, QPs).
pub const DOMAIN_NET: u64 = 0x006E_6574;
/// Canonical shard-domain id of the DMA/XDMA + memory path (incl. the MMU).
pub const DOMAIN_DMA: u64 = 0x0064_6D61;
/// Canonical shard-domain id of the reconfiguration fabric (ICAP, bitstreams).
pub const DOMAIN_FABRIC: u64 = 0x0066_6162;
/// Canonical shard-domain id of the scheduler / control plane.
pub const DOMAIN_SCHED: u64 = 0x0073_6368;

/// Index of a shard within a [`Topology`].
pub type ShardId = usize;

/// Declares one shard: the subsystem domain it owns (the id that
/// [`crate::EventTag::domain`] carries) and a display name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Domain id; must be unique within a topology.
    pub domain: u64,
    /// Display name for traces and diagnostics.
    pub name: &'static str,
}

/// Why a topology could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A link declared a zero lookahead: a post across it could land at an
    /// instant its destination has already executed.
    ZeroLookahead {
        /// Source shard of the offending link.
        src: ShardId,
        /// Destination shard of the offending link.
        dst: ShardId,
    },
    /// A link referenced a shard id outside the topology.
    UnknownShard(ShardId),
    /// A link from a shard to itself (intra-shard events need no link).
    SelfLink(ShardId),
    /// Two shards declared the same domain id.
    DuplicateDomain(u64),
    /// The same directed link was declared twice.
    DuplicateLink {
        /// Source shard of the duplicated link.
        src: ShardId,
        /// Destination shard of the duplicated link.
        dst: ShardId,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::ZeroLookahead { src, dst } => write!(
                f,
                "link {src}->{dst} declares zero lookahead: every cross-shard \
                 path must take time"
            ),
            TopologyError::UnknownShard(s) => write!(f, "unknown shard id {s}"),
            TopologyError::SelfLink(s) => write!(f, "self-link on shard {s}"),
            TopologyError::DuplicateDomain(d) => {
                write!(f, "duplicate shard domain {d:#x}")
            }
            TopologyError::DuplicateLink { src, dst } => {
                write!(f, "duplicate link {src}->{dst}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The shard graph: shards plus directed links with per-link lookahead.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    shards: Vec<ShardSpec>,
    // (src, dst) -> lookahead, kept sorted by insertion through `link`.
    links: Vec<(ShardId, ShardId, SimDuration)>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Add a shard; returns its id. Domains must be unique.
    pub fn add_shard(&mut self, spec: ShardSpec) -> Result<ShardId, TopologyError> {
        if self.shards.iter().any(|s| s.domain == spec.domain) {
            return Err(TopologyError::DuplicateDomain(spec.domain));
        }
        self.shards.push(spec);
        Ok(self.shards.len() - 1)
    }

    /// Declare a directed link `src -> dst` with the given lookahead: a
    /// promise that no event executing on `src` at time `t` makes anything
    /// observable on `dst` before `t + lookahead`.
    pub fn link(
        &mut self,
        src: ShardId,
        dst: ShardId,
        lookahead: SimDuration,
    ) -> Result<(), TopologyError> {
        for &s in &[src, dst] {
            if s >= self.shards.len() {
                return Err(TopologyError::UnknownShard(s));
            }
        }
        if src == dst {
            return Err(TopologyError::SelfLink(src));
        }
        if lookahead.is_zero() {
            return Err(TopologyError::ZeroLookahead { src, dst });
        }
        if self.links.iter().any(|&(s, d, _)| s == src && d == dst) {
            return Err(TopologyError::DuplicateLink { src, dst });
        }
        self.links.push((src, dst, lookahead));
        Ok(())
    }

    /// The shards, in id order.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the topology has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The lookahead of link `src -> dst`, if declared.
    pub fn lookahead(&self, src: ShardId, dst: ShardId) -> Option<SimDuration> {
        self.links
            .iter()
            .find(|&&(s, d, _)| s == src && d == dst)
            .map(|&(_, _, l)| l)
    }

    /// The shard owning `domain`, if any.
    pub fn shard_of_domain(&self, domain: u64) -> Option<ShardId> {
        self.shards.iter().position(|s| s.domain == domain)
    }

    /// Every declared link as `(src domain, dst domain, lookahead)` — the
    /// table the DS006 lint checks recorded traces against.
    pub fn lookahead_decls(&self) -> Vec<(u64, u64, SimDuration)> {
        self.links
            .iter()
            .map(|&(s, d, l)| (self.shards[s].domain, self.shards[d].domain, l))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(domain: u64, name: &'static str) -> ShardSpec {
        ShardSpec { domain, name }
    }

    fn two_shards() -> Topology {
        let mut t = Topology::new();
        t.add_shard(spec(1, "a")).unwrap();
        t.add_shard(spec(2, "b")).unwrap();
        t
    }

    #[test]
    fn zero_lookahead_is_rejected() {
        let mut t = two_shards();
        assert_eq!(
            t.link(0, 1, SimDuration::from_ps(0)),
            Err(TopologyError::ZeroLookahead { src: 0, dst: 1 })
        );
        assert!(t.link(0, 1, SimDuration::from_ps(1)).is_ok());
    }

    #[test]
    fn invalid_links_are_rejected() {
        let mut t = two_shards();
        assert_eq!(
            t.link(0, 2, SimDuration::from_ns(1)),
            Err(TopologyError::UnknownShard(2))
        );
        assert_eq!(
            t.link(1, 1, SimDuration::from_ns(1)),
            Err(TopologyError::SelfLink(1))
        );
        t.link(0, 1, SimDuration::from_ns(1)).unwrap();
        assert_eq!(
            t.link(0, 1, SimDuration::from_ns(2)),
            Err(TopologyError::DuplicateLink { src: 0, dst: 1 })
        );
    }

    #[test]
    fn duplicate_domains_are_rejected() {
        let mut t = two_shards();
        assert_eq!(
            t.add_shard(spec(1, "dup")),
            Err(TopologyError::DuplicateDomain(1))
        );
        assert_eq!(t.shard_of_domain(2), Some(1));
        assert_eq!(t.shard_of_domain(9), None);
    }

    #[test]
    fn lookahead_decls_report_domains() {
        let mut t = two_shards();
        t.link(0, 1, SimDuration::from_ns(3)).unwrap();
        assert_eq!(t.lookahead_decls(), vec![(1, 2, SimDuration::from_ns(3))]);
    }
}
