//! The XDMA data mover.
//!
//! Each direction (H2C, C2H) is one bandwidth-serialized PCIe pipe shared
//! by every tenant. Jobs are packetized into 4 KB chunks (§6.3) and the
//! chunks of concurrently active tenants interleave in round-robin order,
//! so host bandwidth is fair-shared (Fig. 8). Each *job* additionally pays
//! a fixed descriptor-processing overhead, which is what bends the small-
//! message end of Fig. 10(a).

use coyote_sched::{packetize_iter, Packet};
use coyote_sim::{params, LinkModel, RrQueue, SimTime, Transfer};
use std::collections::HashMap;

/// Transfer direction over PCIe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XdmaDir {
    /// Host to card (FPGA reads host memory).
    H2C,
    /// Card to host (FPGA writes host memory).
    C2H,
}

/// Identifier of one submitted DMA job.
pub type JobId = u64;

/// A DMA job: one side of an `invoke()` or a service-initiated transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaJob {
    /// Job id (unique per engine).
    pub id: JobId,
    /// Direction.
    pub dir: XdmaDir,
    /// Tenant (vFPGA) the bandwidth is accounted to.
    pub tenant: u8,
    /// Address on the host side (physical).
    pub host_addr: u64,
    /// Bytes to move.
    pub len: u64,
}

/// One packet of a job delivered over the link.
#[derive(Debug, Clone, Copy)]
pub struct PacketDone {
    /// Owning job.
    pub job: DmaJob,
    /// The packet (addresses are host-side).
    pub packet: Packet,
    /// Link timing; data is visible at `transfer.arrival`.
    pub transfer: Transfer,
    /// True when this packet completes its job.
    pub job_done: bool,
}

/// One PCIe direction: the tenants' packets, queued round-robin (§6.3), in
/// front of the bandwidth-serialized link they share.
#[derive(Debug)]
struct Channel {
    link: LinkModel,
    queue: RrQueue<u8, (DmaJob, Packet)>,
}

impl Channel {
    fn new() -> Channel {
        Channel {
            link: LinkModel::new(params::HOST_LINK_BW, params::PCIE_LATENCY),
            queue: RrQueue::new(),
        }
    }
}

/// The XDMA engine: two directions of fair-shared PCIe bandwidth.
#[derive(Debug)]
pub struct XdmaEngine {
    /// H2C and C2H, indexed by `XdmaDir as usize`.
    channels: [Channel; 2],
    /// Packets remaining per in-flight job.
    remaining: HashMap<JobId, u32>,
    next_id: JobId,
}

impl Default for XdmaEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl XdmaEngine {
    /// An engine with the calibrated U55C constants.
    pub fn new() -> XdmaEngine {
        XdmaEngine {
            channels: [Channel::new(), Channel::new()],
            remaining: HashMap::new(),
            next_id: 1,
        }
    }

    /// Allocate a job id.
    pub fn next_job_id(&mut self) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Submit a job: packetize and enqueue behind the tenant's earlier
    /// packets. Nothing is booked on the link until a drain call.
    pub fn submit(&mut self, job: DmaJob) {
        assert!(job.len > 0, "empty DMA job");
        let mut count = 0u32;
        let queue = &mut self.channels[job.dir as usize].queue;
        for packet in packetize_iter(job.host_addr, job.len, params::DEFAULT_PACKET_BYTES) {
            queue.push(job.tenant, (job, packet));
            count += 1;
        }
        self.remaining.insert(job.id, count);
    }

    /// Packets queued in a direction.
    pub fn pending(&self, dir: XdmaDir) -> usize {
        self.channels[dir as usize].queue.len()
    }

    /// Book everything queued in `dir` on its link, one packet per tenant
    /// per round-robin turn, starting at `now`; returns the packets in
    /// service order.
    pub fn book_all(&mut self, now: SimTime, dir: XdmaDir) -> Vec<PacketDone> {
        let ch = &mut self.channels[dir as usize];
        let mut out = Vec::with_capacity(ch.queue.len());
        while let Some((_, (job, packet))) = ch.queue.pop() {
            let mut transfer = ch.link.transmit(now, packet.len);
            // The descriptor fetch delays the stream's visibility: every
            // packet of the job arrives `XDMA_DESC_OVERHEAD` later than its
            // wire time (link occupancy is unchanged, and in-order delivery
            // is preserved).
            transfer.arrival += params::XDMA_DESC_OVERHEAD;
            let rem = self.remaining.get_mut(&job.id).expect("job bookkeeping");
            *rem -= 1;
            let job_done = *rem == 0;
            if job_done {
                self.remaining.remove(&job.id);
            }
            out.push(PacketDone {
                job,
                packet,
                transfer,
                job_done,
            });
        }
        out
    }

    /// Book one packet directly on a direction's link at or after `now`,
    /// bypassing the tenant queues. Used for per-packet output booking
    /// where the packets' ready times already reflect upstream fairness.
    pub fn book_direct(&mut self, now: SimTime, dir: XdmaDir, len: u64) -> Transfer {
        self.channels[dir as usize].link.transmit(now, len)
    }

    /// Bytes moved so far per direction.
    pub fn bytes_moved(&self, dir: XdmaDir) -> u64 {
        self.channels[dir as usize].link.bytes_total()
    }

    /// Drop a tenant's queued packets in both directions (vFPGA
    /// reconfiguration); in-flight job bookkeeping for dropped packets is
    /// removed.
    pub fn evict_tenant(&mut self, tenant: u8) {
        for ch in &mut self.channels {
            for (job, _) in ch.queue.drain_key(&tenant) {
                self.remaining.remove(&job.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_sim::time::Bandwidth;

    fn job(engine: &mut XdmaEngine, tenant: u8, len: u64, dir: XdmaDir) -> DmaJob {
        let id = engine.next_job_id();
        let j = DmaJob {
            id,
            dir,
            tenant,
            host_addr: 0,
            len,
        };
        engine.submit(j);
        j
    }

    #[test]
    fn single_job_timing() {
        let mut e = XdmaEngine::new();
        job(&mut e, 0, 64 << 10, XdmaDir::H2C);
        let done = e.book_all(SimTime::ZERO, XdmaDir::H2C);
        assert_eq!(done.len(), 16);
        assert!(done[15].job_done && !done[14].job_done);
        let last = done[15].transfer.done;
        let expect = Bandwidth::gbps(12).time_for(64 << 10);
        // Each packet's serialization time rounds up to a picosecond, so
        // the sum may exceed the one-shot figure by < 1 ps per packet.
        let slack = last.since(SimTime::ZERO).saturating_sub(expect);
        assert!(slack.as_ps() <= 16, "slack {slack}");
    }

    #[test]
    fn directions_are_independent() {
        let mut e = XdmaEngine::new();
        job(&mut e, 0, 1 << 20, XdmaDir::H2C);
        job(&mut e, 0, 1 << 20, XdmaDir::C2H);
        let h = e.book_all(SimTime::ZERO, XdmaDir::H2C);
        let c = e.book_all(SimTime::ZERO, XdmaDir::C2H);
        // Full duplex: both directions finish at the same instant.
        assert_eq!(
            h.last().unwrap().transfer.done,
            c.last().unwrap().transfer.done
        );
    }

    #[test]
    fn tenants_fair_share_one_direction() {
        let mut e = XdmaEngine::new();
        for t in 0..4u8 {
            job(&mut e, t, 1 << 20, XdmaDir::C2H);
        }
        let done = e.book_all(SimTime::ZERO, XdmaDir::C2H);
        // Completion instants of the four jobs lie within one packet time.
        let mut finishes: Vec<SimTime> = done
            .iter()
            .filter(|p| p.job_done)
            .map(|p| p.transfer.done)
            .collect();
        finishes.sort();
        assert_eq!(finishes.len(), 4);
        let spread = finishes[3].since(finishes[0]);
        assert!(
            spread <= Bandwidth::gbps(12).time_for(4096) * 4,
            "spread {spread}"
        );
    }

    #[test]
    fn descriptor_overhead_shifts_arrivals_uniformly() {
        let mut e = XdmaEngine::new();
        job(&mut e, 0, 8192, XdmaDir::H2C);
        let done = e.book_all(SimTime::ZERO, XdmaDir::H2C);
        for p in &done {
            let wire = p.transfer.done + coyote_sim::params::PCIE_LATENCY;
            assert_eq!(
                p.transfer.arrival.since(wire),
                coyote_sim::params::XDMA_DESC_OVERHEAD
            );
        }
        // In-order delivery: arrivals are non-decreasing.
        assert!(done
            .windows(2)
            .all(|w| w[1].transfer.arrival >= w[0].transfer.arrival));
    }

    #[test]
    fn evict_tenant_drops_queue() {
        // Evicting a tenant reclaims its queues in both directions and drops
        // its job bookkeeping; the other tenant's packets all still book
        // (the `job bookkeeping` expect would panic on a stale packet).
        let mut e = XdmaEngine::new();
        for dir in [XdmaDir::H2C, XdmaDir::C2H] {
            job(&mut e, 0, 1 << 20, dir);
            job(&mut e, 1, 1 << 20, dir);
            job(&mut e, 0, 8192, dir);
        }
        e.evict_tenant(0);
        assert_eq!(e.remaining.len(), 2, "only tenant 1's jobs remain");
        for dir in [XdmaDir::H2C, XdmaDir::C2H] {
            assert_eq!(e.pending(dir), 256);
            let done = e.book_all(SimTime::ZERO, dir);
            assert_eq!(done.len(), 256);
            assert!(done.iter().all(|p| p.job.tenant == 1));
            assert!(done[255].job_done);
            assert_eq!(e.pending(dir), 0);
        }
        assert!(e.remaining.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty DMA job")]
    fn empty_job_rejected() {
        let mut e = XdmaEngine::new();
        job(&mut e, 0, 0, XdmaDir::H2C);
    }
}
