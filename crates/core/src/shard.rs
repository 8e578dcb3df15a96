//! The platform's shard topology for the sharded DES engine.
//!
//! The shell of the paper is four concurrent hardware domains — the RoCE
//! network stack, the XDMA/DMA path, the reconfiguration fabric and the
//! scheduler/control plane — and the sharded engine
//! ([`coyote_sim::ShardedSimulation`]) mirrors exactly that decomposition:
//! one shard per domain, fully connected, with each link's lookahead taken
//! from the *source* domain's egress latency (the slowest thing it can do
//! is still slower than the fastest thing it can make observable
//! elsewhere). Every lookahead is strictly positive by construction, so the
//! topology always validates.

use coyote_sim::{ShardSpec, SimDuration, Topology};

/// The four platform shards, in canonical order (net, dma, fabric, sched).
pub fn platform_shards() -> [ShardSpec; 4] {
    [
        coyote_net::shard::shard_spec(),
        coyote_dma::shard::shard_spec(),
        coyote_fabric::shard::shard_spec(),
        coyote_sched::shard::shard_spec(),
    ]
}

/// Per-shard egress lookaheads, aligned with [`platform_shards`].
pub fn platform_lookaheads() -> [SimDuration; 4] {
    [
        coyote_net::shard::shard_lookahead(),
        coyote_dma::shard::shard_lookahead(),
        coyote_fabric::shard::shard_lookahead(),
        coyote_sched::shard::shard_lookahead(),
    ]
}

/// The full platform topology: all four domain shards, fully connected,
/// with link `src -> dst` promising the source domain's egress lookahead.
pub fn platform_topology() -> Topology {
    let mut topo = Topology::new();
    let shards = platform_shards();
    let lookaheads = platform_lookaheads();
    for spec in shards {
        topo.add_shard(spec).expect("platform domains are unique");
    }
    for (src, la) in lookaheads.iter().enumerate() {
        for dst in 0..shards.len() {
            if src != dst {
                topo.link(src, dst, *la)
                    .expect("platform lookaheads are positive");
            }
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_sim::{DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_NET, DOMAIN_SCHED};

    #[test]
    fn topology_covers_all_four_domains() {
        let topo = platform_topology();
        assert_eq!(topo.len(), 4);
        for d in [DOMAIN_NET, DOMAIN_DMA, DOMAIN_FABRIC, DOMAIN_SCHED] {
            assert!(topo.shard_of_domain(d).is_some(), "domain {d:#x} missing");
        }
    }

    #[test]
    fn topology_is_fully_connected_with_positive_lookahead() {
        let topo = platform_topology();
        for src in 0..topo.len() {
            for dst in 0..topo.len() {
                if src == dst {
                    continue;
                }
                let la = topo.lookahead(src, dst).expect("link declared");
                assert!(!la.is_zero(), "zero lookahead on {src}->{dst}");
            }
        }
    }

    #[test]
    fn lookaheads_follow_source_egress() {
        let topo = platform_topology();
        let las = platform_lookaheads();
        // Every link out of shard s promises s's egress lookahead.
        for (src, la) in las.iter().enumerate() {
            for dst in 0..topo.len() {
                if src != dst {
                    assert_eq!(topo.lookahead(src, dst), Some(*la));
                }
            }
        }
    }
}
