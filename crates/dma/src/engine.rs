//! The XDMA data mover.
//!
//! Each direction (H2C, C2H) is one bandwidth-serialized PCIe pipe shared
//! by every tenant. Jobs are packetized into 4 KB chunks (§6.3) and the
//! chunks of concurrently active tenants interleave in round-robin order,
//! so host bandwidth is fair-shared (Fig. 8). Each *job* additionally pays
//! a fixed descriptor-processing overhead, which is what bends the small-
//! message end of Fig. 10(a).

use coyote_chaos::Injector;
use coyote_sched::{packetize_iter, Interleaver, Packet};
use coyote_sim::{params, LinkModel, SimTime, Transfer};
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

#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    job: DmaJob,
    packet: Packet,
}

impl coyote_sched::interleave::PacketLen for QueuedPacket {
    fn packet_len(&self) -> u64 {
        self.packet.len
    }
}

/// The XDMA engine: two directions of fair-shared PCIe bandwidth.
#[derive(Debug)]
pub struct XdmaEngine {
    h2c: Interleaver<u8, QueuedPacket>,
    c2h: Interleaver<u8, QueuedPacket>,
    /// Packets remaining per in-flight job.
    remaining: HashMap<JobId, u32>,
    next_id: JobId,
    chaos: Option<Injector>,
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
            h2c: Interleaver::new(LinkModel::new(params::HOST_LINK_BW, params::PCIE_LATENCY)),
            c2h: Interleaver::new(LinkModel::new(params::HOST_LINK_BW, params::PCIE_LATENCY)),
            remaining: HashMap::new(),
            next_id: 1,
            chaos: None,
        }
    }

    /// Attach a chaos injector, consulted once per packet served by
    /// [`XdmaEngine::book_all_chaos`] (`DmaStall`, `TenantCrash`).
    pub fn attach_chaos(&mut self, injector: Injector) {
        self.chaos = Some(injector);
    }

    /// The attached chaos injector.
    pub fn chaos(&self) -> Option<&Injector> {
        self.chaos.as_ref()
    }

    /// Mutable access to the attached chaos injector.
    pub fn chaos_mut(&mut self) -> Option<&mut Injector> {
        self.chaos.as_mut()
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
        let q = self.dir_mut(job.dir);
        for packet in packetize_iter(job.host_addr, job.len, params::DEFAULT_PACKET_BYTES) {
            q.submit(job.tenant, QueuedPacket { job, packet });
            count += 1;
        }
        self.remaining.insert(job.id, count);
    }

    fn dir_mut(&mut self, dir: XdmaDir) -> &mut Interleaver<u8, QueuedPacket> {
        match dir {
            XdmaDir::H2C => &mut self.h2c,
            XdmaDir::C2H => &mut self.c2h,
        }
    }

    /// Packets queued in a direction.
    pub fn pending(&self, dir: XdmaDir) -> usize {
        match dir {
            XdmaDir::H2C => self.h2c.pending(),
            XdmaDir::C2H => self.c2h.pending(),
        }
    }

    /// Book everything queued in `dir` (fast path when all tenants
    /// submitted before any service started).
    pub fn book_all(&mut self, now: SimTime, dir: XdmaDir) -> Vec<PacketDone> {
        let q = self.dir_mut(dir);
        let delivered = q.drain(now);
        delivered.into_iter().map(|d| self.finish(d)).collect()
    }

    /// [`XdmaEngine::book_all`] under the attached chaos injector: stalled
    /// packets arrive late (bounded by [`coyote_chaos::MAX_STALL_PS`]) but
    /// in order; a crashed tenant's packets are reclaimed from *both*
    /// directions and its in-flight job bookkeeping is dropped, so the
    /// surviving tenants' timing is unaffected beyond the freed bandwidth.
    ///
    /// Falls back to plain [`XdmaEngine::book_all`] when no injector is
    /// attached.
    pub fn book_all_chaos(&mut self, now: SimTime, dir: XdmaDir) -> ChaosBooked {
        let Some(mut inj) = self.chaos.take() else {
            return ChaosBooked {
                done: self.book_all(now, dir),
                crashed: Vec::new(),
            };
        };
        let drained = self.dir_mut(dir).drain_chaos(now, &mut inj);
        let mut crashed = Vec::new();
        for (tenant, lost) in drained.crashed {
            for qp in &lost {
                self.remaining.remove(&qp.job.id);
            }
            // Reclaim the tenant's queue in the other direction too: a dead
            // tenant holds no resources anywhere.
            self.evict_tenant(tenant);
            crashed.push(tenant);
        }
        let done = drained
            .delivered
            .into_iter()
            .map(|d| self.finish(d))
            .collect();
        self.chaos = Some(inj);
        ChaosBooked { done, crashed }
    }

    fn finish(&mut self, d: coyote_sched::Delivered<u8, QueuedPacket>) -> PacketDone {
        let QueuedPacket { job, packet } = d.packet;
        let mut transfer = d.transfer;
        // The descriptor fetch delays the stream's visibility: every packet
        // of the job arrives `XDMA_DESC_OVERHEAD` later than its wire time
        // (link occupancy is unchanged, and in-order delivery is preserved).
        transfer.arrival += params::XDMA_DESC_OVERHEAD;
        let rem = self.remaining.get_mut(&job.id).expect("job bookkeeping");
        *rem -= 1;
        let job_done = *rem == 0;
        if job_done {
            self.remaining.remove(&job.id);
        }
        PacketDone {
            job,
            packet,
            transfer,
            job_done,
        }
    }

    /// Book one packet directly on a direction's link at or after `now`,
    /// bypassing the tenant queues. Used for per-packet output booking
    /// where the packets' ready times already reflect upstream fairness.
    pub fn book_direct(&mut self, now: SimTime, dir: XdmaDir, len: u64) -> Transfer {
        match dir {
            XdmaDir::H2C => self.h2c.link_mut().transmit(now, len),
            XdmaDir::C2H => self.c2h.link_mut().transmit(now, len),
        }
    }

    /// Bytes moved so far per direction.
    pub fn bytes_moved(&self, dir: XdmaDir) -> u64 {
        match dir {
            XdmaDir::H2C => self.h2c.link().bytes_total(),
            XdmaDir::C2H => self.c2h.link().bytes_total(),
        }
    }

    /// Drop a tenant's queued packets in both directions (vFPGA
    /// reconfiguration); in-flight job bookkeeping for dropped packets is
    /// removed.
    pub fn evict_tenant(&mut self, tenant: u8) {
        for dir in [XdmaDir::H2C, XdmaDir::C2H] {
            let dropped = self.dir_mut(dir).evict(&tenant);
            for qp in dropped {
                self.remaining.remove(&qp.job.id);
            }
        }
    }
}

/// The outcome of [`XdmaEngine::book_all_chaos`].
#[derive(Debug)]
pub struct ChaosBooked {
    /// Packets that made it over the link, in service order.
    pub done: Vec<PacketDone>,
    /// Tenants that crashed mid-drain (queues reclaimed in both directions).
    pub crashed: Vec<u8>,
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
        let mut e = XdmaEngine::new();
        job(&mut e, 0, 1 << 20, XdmaDir::H2C);
        job(&mut e, 1, 1 << 20, XdmaDir::H2C);
        e.evict_tenant(0);
        let done = e.book_all(SimTime::ZERO, XdmaDir::H2C);
        assert!(done.iter().all(|p| p.job.tenant == 1));
    }

    #[test]
    #[should_panic(expected = "empty DMA job")]
    fn empty_job_rejected() {
        let mut e = XdmaEngine::new();
        job(&mut e, 0, 0, XdmaDir::H2C);
    }
}
