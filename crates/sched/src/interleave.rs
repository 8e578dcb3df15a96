//! Round-robin interleaving of packets onto a shared link.
//!
//! "Interleaving distributes limited bandwidth links using round-robin
//! arbitration, guaranteeing equal resource allocation while preserving
//! in-order packet handling." (§6.3)
//!
//! The [`Interleaver`] owns the shared [`LinkModel`] (e.g. the 12 GB/s XDMA
//! host link) and an [`RrQueue`] of pending packets per tenant. Draining the
//! queue books each packet on the link in round-robin order and reports the
//! per-packet timing, which the shell turns into completion events.

use coyote_chaos::{FaultKind, Injector, MAX_STALL_PS};
use coyote_sim::{LinkModel, RrQueue, SimDuration, SimTime, Transfer};
use std::hash::Hash;

/// A packet delivered over the shared link.
#[derive(Debug, Clone)]
pub struct Delivered<K, P> {
    /// Tenant key.
    pub key: K,
    /// The packet.
    pub packet: P,
    /// Link timing.
    pub transfer: Transfer,
}

/// Fair-shares one link among tenants at packet granularity.
#[derive(Debug)]
pub struct Interleaver<K: Eq + Hash + Clone, P> {
    link: LinkModel,
    queue: RrQueue<K, P>,
}

impl<K: Eq + Hash + Clone, P: PacketLen> Interleaver<K, P> {
    /// Wrap a shared link.
    pub fn new(link: LinkModel) -> Self {
        Interleaver {
            link,
            queue: RrQueue::new(),
        }
    }

    /// The underlying link (stats access).
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Mutable link access (direct bookings that bypass arbitration).
    pub fn link_mut(&mut self) -> &mut LinkModel {
        &mut self.link
    }

    /// Queue a packet for `key`.
    pub fn submit(&mut self, key: K, packet: P) {
        self.queue.push(key, packet);
    }

    /// Packets waiting.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Book every queued packet on the link in round-robin order starting
    /// at `now`; returns per-packet timings in service order.
    pub fn drain(&mut self, now: SimTime) -> Vec<Delivered<K, P>> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some((key, packet)) = self.queue.pop() {
            let transfer = self.link.transmit(now, packet.packet_len());
            out.push(Delivered {
                key,
                packet,
                transfer,
            });
        }
        out
    }

    /// Drop a tenant's queued packets (reconfiguration of its vFPGA).
    pub fn evict(&mut self, key: &K) -> Vec<P> {
        self.queue.drain_key(key)
    }

    /// Drain every queued packet under a chaos injector (one injector op
    /// per packet served):
    ///
    /// * [`FaultKind::DmaStall`] delays that packet's arrival by the rule's
    ///   parameter, clamped to [`MAX_STALL_PS`] — a bounded stall, never a
    ///   hang. In-order completion is preserved because the link booking
    ///   order is unchanged.
    /// * [`FaultKind::TenantCrash`] kills the tenant being served: the
    ///   in-flight packet and everything else it queued are evicted without
    ///   touching the link, so surviving tenants keep their share.
    pub fn drain_chaos(&mut self, now: SimTime, inj: &mut Injector) -> ChaosDrain<K, P> {
        let mut delivered = Vec::with_capacity(self.queue.len());
        let mut crashed: Vec<(K, Vec<P>)> = Vec::new();
        while let Some((key, packet)) = self.queue.pop() {
            let mut stall = SimDuration::ZERO;
            let mut crash = false;
            for fault in inj.next_at(now) {
                match fault.kind {
                    FaultKind::DmaStall => {
                        stall += SimDuration::from_ps(fault.param.min(MAX_STALL_PS));
                    }
                    FaultKind::TenantCrash => crash = true,
                    _ => {}
                }
            }
            if crash {
                let mut lost = self.queue.drain_key(&key);
                lost.insert(0, packet);
                inj.record_detected(FaultKind::TenantCrash, lost.len() as u64);
                crashed.push((key, lost));
                continue;
            }
            let mut transfer = self.link.transmit(now, packet.packet_len());
            if stall > SimDuration::ZERO {
                transfer.arrival += stall;
                // A stalled packet still completes: the stall is absorbed,
                // bounded, and in-order.
                inj.record_recovered(FaultKind::DmaStall, stall.as_ps());
            }
            delivered.push(Delivered {
                key,
                packet,
                transfer,
            });
        }
        ChaosDrain { delivered, crashed }
    }
}

/// The outcome of [`Interleaver::drain_chaos`].
#[derive(Debug)]
pub struct ChaosDrain<K, P> {
    /// Packets that made it onto the link, in service order.
    pub delivered: Vec<Delivered<K, P>>,
    /// Tenants that crashed mid-slot, with the packets they lost (the
    /// in-flight one first).
    pub crashed: Vec<(K, Vec<P>)>,
}

/// Length in bytes of a schedulable packet.
pub trait PacketLen {
    /// Bytes this packet occupies on the link.
    fn packet_len(&self) -> u64;
}

impl PacketLen for crate::packetizer::Packet {
    fn packet_len(&self) -> u64 {
        self.len
    }
}

impl PacketLen for u64 {
    fn packet_len(&self) -> u64 {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_sim::time::Bandwidth;
    use coyote_sim::SimDuration;

    fn host_link() -> LinkModel {
        LinkModel::new(Bandwidth::gbps(12), SimDuration::from_ns(900))
    }

    #[test]
    fn fair_split_between_two_tenants() {
        // Two tenants, each with 100 x 4 KB packets: per-tenant completion
        // times interleave so both finish within one packet time of each
        // other, and each gets ~6 GB/s of the 12 GB/s link (Fig. 8).
        let mut il = Interleaver::new(host_link());
        for i in 0..100u64 {
            il.submit("a", 4096u64);
            il.submit("b", 4096u64);
            let _ = i;
        }
        let delivered = il.drain(SimTime::ZERO);
        assert_eq!(delivered.len(), 200);
        let last_a = delivered
            .iter()
            .rfind(|d| d.key == "a")
            .unwrap()
            .transfer
            .done;
        let last_b = delivered
            .iter()
            .rfind(|d| d.key == "b")
            .unwrap()
            .transfer
            .done;
        let gap = last_a
            .saturating_since(last_b)
            .max(last_b.saturating_since(last_a));
        let packet_time = Bandwidth::gbps(12).time_for(4096);
        assert!(gap <= packet_time, "tenants finish together (gap {gap})");

        // Per-tenant achieved rate.
        let span = last_a.max(last_b).since(SimTime::ZERO);
        let per_tenant = coyote_sim::time::rate(100 * 4096, span);
        assert!(
            (per_tenant.as_gbps_f64() - 6.0).abs() < 0.1,
            "got {per_tenant:?}"
        );
    }

    #[test]
    fn cumulative_throughput_is_constant() {
        // The arbiter and packetizer add no overhead: total rate equals the
        // link rate regardless of tenant count (the flat cumulative line of
        // Fig. 8).
        for tenants in [1usize, 2, 4, 8] {
            let mut il = Interleaver::new(host_link());
            let per_tenant = 64;
            for t in 0..tenants {
                for _ in 0..per_tenant {
                    il.submit(t, 4096u64);
                }
            }
            let delivered = il.drain(SimTime::ZERO);
            let last = delivered.iter().map(|d| d.transfer.done).max().unwrap();
            let total = (tenants * per_tenant * 4096) as u64;
            let rate = coyote_sim::time::rate(total, last.since(SimTime::ZERO));
            assert!(
                (rate.as_gbps_f64() - 12.0).abs() < 0.05,
                "{tenants} tenants: {rate:?}"
            );
        }
    }

    #[test]
    fn per_tenant_order_is_preserved() {
        let mut il = Interleaver::new(host_link());
        for i in 0..10u64 {
            il.submit("x", i);
        }
        let delivered = il.drain(SimTime::ZERO);
        let xs: Vec<u64> = delivered.iter().map(|d| d.packet).collect();
        assert_eq!(xs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn evict_drops_only_one_tenant() {
        let mut il = Interleaver::new(host_link());
        il.submit("keep", 1u64);
        il.submit("gone", 2u64);
        il.submit("gone", 3u64);
        assert_eq!(il.evict(&"gone"), vec![2, 3]);
        let rest = il.drain(SimTime::ZERO);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].key, "keep");
    }
}
