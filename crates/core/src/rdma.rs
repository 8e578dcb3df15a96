//! The BALBOA networking service wired into the shell (§6.2).
//!
//! "The network stack, since it implements RDMA, operates on virtual memory
//! addresses that are translated using Coyote v2's internal MMU and TLB,
//! before writing the data to host memory through the static layer."
//!
//! [`BalboaService`] owns the RC queue pairs; RDMA payloads are read from /
//! written to *virtual* addresses of the owning process, translated through
//! the driver's page tables — exactly the paper's integration of the
//! network stack with the shared-virtual-memory model. Frames leaving or
//! entering the CMAC pass the traffic sniffer when one is configured (§8).

use crate::platform::{Platform, PlatformError};
use coyote_driver::CoyoteDriver;
use coyote_mmu::MemLocation;
use coyote_net::sniffer::Direction;
use coyote_net::{
    Completion as NetCompletion, Frame, QpConfig, QueuePair, RdmaMemory, RocePacket, Verb,
};
use coyote_sim::SimTime;
use std::collections::BTreeMap;

/// RDMA memory adapter: virtual addresses of one process, resolved through
/// the driver page tables into whichever physical memory holds the page.
struct VirtualMemory<'a> {
    driver: &'a mut CoyoteDriver,
    hpid: u32,
}

impl RdmaMemory for VirtualMemory<'_> {
    fn read(&self, vaddr: u64, len: usize) -> Result<Vec<u8>, String> {
        self.driver
            .user_read(self.hpid, vaddr, len)
            .map_err(|e| e.to_string())
    }

    fn write(&mut self, vaddr: u64, data: &[u8]) -> Result<(), String> {
        self.driver
            .user_write(self.hpid, vaddr, data)
            .map_err(|e| e.to_string())
    }
}

/// The shell's RDMA service.
pub struct BalboaService {
    /// QPs by local QPN, each owned by a process.
    qps: BTreeMap<u32, (u32, QueuePair)>,
}

impl BalboaService {
    /// An empty service (QPs created per connection).
    pub fn new() -> BalboaService {
        BalboaService {
            qps: BTreeMap::new(),
        }
    }
}

impl Default for BalboaService {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform {
    /// Create an RC queue pair owned by `hpid` ("initiate Queue Pair (QP)
    /// numbers for RDMA connections", §7.3). Refuses a bad MTU or window
    /// with [`PlatformError::Qp`].
    pub fn rdma_create_qp(&mut self, hpid: u32, cfg: QpConfig) -> Result<u32, PlatformError> {
        let balboa = self
            .balboa
            .as_mut()
            .ok_or(PlatformError::MissingService("networking"))?;
        cfg.validate().map_err(PlatformError::Qp)?;
        let qpn = cfg.qpn;
        balboa.qps.insert(qpn, (hpid, QueuePair::new(cfg)));
        Ok(qpn)
    }

    /// Post a work request on a QP. Payload addresses are virtual.
    pub fn rdma_post(&mut self, qpn: u32, wr_id: u64, verb: Verb) -> Result<(), PlatformError> {
        let balboa = self
            .balboa
            .as_mut()
            .ok_or(PlatformError::MissingService("networking"))?;
        let (_, qp) = balboa
            .qps
            .get_mut(&qpn)
            .ok_or(PlatformError::MissingService("queue pair"))?;
        qp.post(wr_id, verb);
        Ok(())
    }

    /// Gather outbound frames from every QP as scatter-gather wire frames
    /// (the payload segment shares the staged message buffer). Frames pass
    /// the TX side of the sniffer.
    pub fn net_poll_tx(&mut self, now: SimTime) -> Vec<Frame> {
        let Some(balboa) = self.balboa.as_mut() else {
            return Vec::new();
        };
        let mut frames = Vec::new();
        for (hpid, qp) in balboa.qps.values_mut() {
            let mem = VirtualMemory {
                driver: &mut self.driver,
                hpid: *hpid,
            };
            frames.extend(qp.poll_tx_frames(&mem));
        }
        if let Some(sniffer) = self.sniffer.as_mut() {
            for f in &frames {
                sniffer.observe_frame(now, Direction::Tx, f);
            }
        }
        frames
    }

    /// Deliver a frame from the network at `now`; returns response frames
    /// (ACKs, read responses) for the caller to put back on the wire.
    pub fn net_rx(&mut self, now: SimTime, frame: &Frame) -> Vec<Frame> {
        if let Some(sniffer) = self.sniffer.as_mut() {
            sniffer.observe_frame(now, Direction::Rx, frame);
        }
        let Some(balboa) = self.balboa.as_mut() else {
            return Vec::new();
        };
        let Ok(pkt) = RocePacket::parse_frame(frame) else {
            return Vec::new(); // Corrupt on the wire; the CMAC drops it.
        };
        let Some((hpid, qp)) = balboa.qps.get_mut(&pkt.dest_qp) else {
            return Vec::new();
        };
        let mut mem = VirtualMemory {
            driver: &mut self.driver,
            hpid: *hpid,
        };
        let action = qp.on_rx(&pkt, &mut mem);
        let responses: Vec<Frame> = action.tx.iter().map(RocePacket::to_frame).collect();
        if let Some(sniffer) = self.sniffer.as_mut() {
            for f in &responses {
                sniffer.observe_frame(now, Direction::Tx, f);
            }
        }
        responses
    }

    /// Fire every QP's retransmission timer (frames pass the TX sniffer).
    /// Retransmitted frames reference the same staged payload buffers as
    /// the originals — re-framing is O(headers), not O(payload).
    pub fn rdma_timeout(&mut self, now: SimTime) -> Vec<Frame> {
        let Some(balboa) = self.balboa.as_mut() else {
            return Vec::new();
        };
        let mut frames = Vec::new();
        for (_, qp) in balboa.qps.values_mut() {
            frames.extend(qp.on_timeout_frames());
        }
        if let Some(sniffer) = self.sniffer.as_mut() {
            for f in &frames {
                sniffer.observe_frame(now, Direction::Tx, f);
            }
        }
        frames
    }

    /// RDMA completions across all QPs.
    pub fn rdma_completions(&mut self) -> Vec<(u32, NetCompletion)> {
        let Some(balboa) = self.balboa.as_mut() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (&qpn, (_, qp)) in balboa.qps.iter_mut() {
            for c in qp.poll_completions() {
                out.push((qpn, c));
            }
        }
        out
    }

    /// Whether a virtual buffer of `hpid` currently resides on the card
    /// (useful before RDMA: data is served from wherever it lives).
    pub fn buffer_location(&self, hpid: u32, vaddr: u64) -> Option<MemLocation> {
        self.driver.address_space(hpid)?.find(vaddr).map(|m| m.loc)
    }
}

/// Pump frames between a platform and a software NIC through a switch until
/// both sides go quiescent. Returns the number of frames exchanged.
pub fn run_with_nic(
    platform: &mut Platform,
    platform_port: coyote_net::PortId,
    nic: &mut coyote_net::CommodityNic,
    nic_port: coyote_net::PortId,
    switch: &mut coyote_net::Switch,
    start: SimTime,
) -> u64 {
    let mut exchanged = 0u64;
    let mut now = start;
    for _ in 0..10_000 {
        let mut activity = false;
        // Platform -> switch.
        for frame in platform.net_poll_tx(now) {
            activity = true;
            for d in switch.inject(now, platform_port, frame) {
                now = now.max(d.at);
                for resp in nic.on_frame(&d.bytes) {
                    for d2 in switch.inject(d.at, nic_port, resp.to_frame()) {
                        now = now.max(d2.at);
                        let more = platform.net_rx(d2.at, &d2.bytes);
                        for m in more {
                            for d3 in switch.inject(d2.at, platform_port, m) {
                                now = now.max(d3.at);
                                nic.on_frame(&d3.bytes);
                            }
                        }
                    }
                }
                exchanged += 1;
            }
        }
        // NIC -> switch.
        for frame in nic.poll_tx_frames() {
            activity = true;
            for d in switch.inject(now, nic_port, frame) {
                now = now.max(d.at);
                for resp in platform.net_rx(d.at, &d.bytes) {
                    for d2 in switch.inject(d.at, platform_port, resp) {
                        now = now.max(d2.at);
                        nic.on_frame(&d2.bytes);
                    }
                }
                exchanged += 1;
            }
        }
        if !activity {
            break;
        }
    }
    platform.advance_to(now);
    exchanged
}
