//! The traffic sniffer service (§8).
//!
//! "When enabled, a network filter is inserted between the available
//! network stacks (RDMA, TCP/IP) and the 100G CMAC. By utilizing Coyote
//! v2's control interface and exposing its own registers, the traffic
//! sniffer can be configured from the host software. Hence, RX- and
//! TX-traffic is filtered based on a user-configured filter. Additionally,
//! partial sniffing of only headers is possible through the same control
//! interface."
//!
//! [`TrafficSniffer`] is the filter + timestamping datapath; the vFPGA-side
//! application logic in `coyote-apps` stores the records to an HBM buffer,
//! and [`crate::pcap`] converts a synced capture to a PCAP file.

use crate::frame::Frame;
use crate::headers::{EthernetHdr, Ipv4Hdr, UdpHdr, ROCE_UDP_PORT};
use bytes::Bytes;
use coyote_sim::SimTime;

/// Traffic direction relative to the FPGA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// From the network into the shell.
    Rx,
    /// From the shell onto the network.
    Tx,
}

/// Filter configuration, as written through the control registers.
#[derive(Debug, Clone, Copy)]
pub struct SnifferConfig {
    /// Capture RX traffic.
    pub capture_rx: bool,
    /// Capture TX traffic.
    pub capture_tx: bool,
    /// Only RoCE v2 frames (UDP port 4791); otherwise everything.
    pub roce_only: bool,
    /// Restrict to one destination QPN.
    pub qpn_filter: Option<u32>,
    /// "Partial sniffing of only headers": truncate records to this many
    /// bytes (`None` = full frames).
    pub snap_len: Option<usize>,
}

impl Default for SnifferConfig {
    fn default() -> Self {
        SnifferConfig {
            capture_rx: true,
            capture_tx: true,
            roce_only: false,
            qpn_filter: None,
            snap_len: None,
        }
    }
}

/// One captured frame.
#[derive(Debug, Clone)]
pub struct CaptureRecord {
    /// Hardware timestamp.
    pub at: SimTime,
    /// Direction.
    pub direction: Direction,
    /// Original frame length before truncation.
    pub orig_len: u32,
    /// Captured bytes (possibly truncated to `snap_len`). Shared with the
    /// wire frame when the capture cut falls within the header segment.
    pub bytes: Bytes,
}

/// The on-path filter. It never modifies traffic; it only copies.
#[derive(Debug)]
pub struct TrafficSniffer {
    config: SnifferConfig,
    recording: bool,
    records: Vec<CaptureRecord>,
    observed: u64,
    captured: u64,
}

impl TrafficSniffer {
    /// An armed but not yet recording sniffer.
    pub fn new(config: SnifferConfig) -> TrafficSniffer {
        TrafficSniffer {
            config,
            recording: false,
            records: Vec::new(),
            observed: 0,
            captured: 0,
        }
    }

    /// Start recording ("with the same control interface, it is possible to
    /// start and stop the traffic recording").
    pub fn start(&mut self) {
        self.recording = true;
    }

    /// Stop recording.
    pub fn stop(&mut self) {
        self.recording = false;
    }

    /// Update the filter from the control registers.
    pub fn reconfigure(&mut self, config: SnifferConfig) {
        self.config = config;
    }

    /// Frames seen / frames captured.
    pub fn counters(&self) -> (u64, u64) {
        (self.observed, self.captured)
    }

    fn matches(&self, direction: Direction, frame: &[u8]) -> bool {
        match direction {
            Direction::Rx if !self.config.capture_rx => return false,
            Direction::Tx if !self.config.capture_tx => return false,
            _ => {}
        }
        if !self.config.roce_only && self.config.qpn_filter.is_none() {
            return true;
        }
        // Classify: Ethernet / IPv4 / UDP 4791 / BTH.
        let Some((eth, rest)) = EthernetHdr::parse(frame) else {
            return false;
        };
        if eth.ethertype != EthernetHdr::ETHERTYPE_IPV4 {
            return false;
        }
        let Some((ip, rest)) = Ipv4Hdr::parse(rest) else {
            return false;
        };
        if ip.protocol != Ipv4Hdr::PROTO_UDP {
            return false;
        }
        let Some((udp, bth)) = UdpHdr::parse(rest) else {
            return false;
        };
        if udp.dst_port != ROCE_UDP_PORT {
            return false;
        }
        if let Some(qpn) = self.config.qpn_filter {
            if bth.len() < 8 {
                return false;
            }
            let dest_qp = u32::from_be_bytes([bth[4], bth[5], bth[6], bth[7]]) & 0x00FF_FFFF;
            if dest_qp != qpn {
                return false;
            }
        }
        true
    }

    /// Observe a frame on the wire at `at`; the frame itself passes through
    /// untouched, a copy may be recorded.
    pub fn observe(&mut self, at: SimTime, direction: Direction, frame: &[u8]) {
        self.observed += 1;
        if !self.recording || !self.matches(direction, frame) {
            return;
        }
        self.captured += 1;
        let keep = self
            .config
            .snap_len
            .map_or(frame.len(), |s| s.min(frame.len()));
        self.records.push(CaptureRecord {
            at,
            direction,
            orig_len: frame.len() as u32,
            bytes: Bytes::copy_from_slice(&frame[..keep]),
        });
    }

    /// Observe a scatter-gather frame. Classification reads only the header
    /// segment; a header-only capture (`snap_len` within the headers) shares
    /// the frame's head instead of copying it.
    pub fn observe_frame(&mut self, at: SimTime, direction: Direction, frame: &Frame) {
        if frame.is_contiguous() {
            // Byte-identical to the classic path (same classifier).
            self.observe(at, direction, frame.head());
            return;
        }
        self.observed += 1;
        if !self.recording || !self.matches_head(direction, frame.head()) {
            return;
        }
        self.captured += 1;
        let keep = self
            .config
            .snap_len
            .map_or(frame.len(), |s| s.min(frame.len()));
        self.records.push(CaptureRecord {
            at,
            direction,
            orig_len: frame.len() as u32,
            bytes: frame.snapshot(keep),
        });
    }

    /// Classifier for segmented frames: the transport headers live entirely
    /// in `head`, but IP/UDP length fields cover the whole frame, so the
    /// strict [`Ipv4Hdr::parse`] cannot be used. Fixed-offset checks are
    /// equivalent for the IHL=5 frames this stack emits.
    fn matches_head(&self, direction: Direction, head: &[u8]) -> bool {
        match direction {
            Direction::Rx if !self.config.capture_rx => return false,
            Direction::Tx if !self.config.capture_tx => return false,
            _ => {}
        }
        if !self.config.roce_only && self.config.qpn_filter.is_none() {
            return true;
        }
        let ok = head.len() >= EthernetHdr::LEN + Ipv4Hdr::LEN + UdpHdr::LEN
            && u16::from_be_bytes([head[12], head[13]]) == EthernetHdr::ETHERTYPE_IPV4
            && head[14] == 0x45
            && head[23] == Ipv4Hdr::PROTO_UDP
            && u16::from_be_bytes([head[36], head[37]]) == ROCE_UDP_PORT;
        if !ok {
            return false;
        }
        if let Some(qpn) = self.config.qpn_filter {
            if head.len() < 50 {
                return false;
            }
            let dest_qp =
                u32::from_be_bytes([head[46], head[47], head[48], head[49]]) & 0x00FF_FFFF;
            if dest_qp != qpn {
                return false;
            }
        }
        true
    }

    /// Sync the capture buffer back (HBM -> host in the real system).
    pub fn take_records(&mut self) -> Vec<CaptureRecord> {
        std::mem::take(&mut self.records)
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::MacAddr;
    use crate::packet::{BthOpcode, RocePacket};
    use bytes::Bytes;

    fn roce_frame(qpn: u32) -> Vec<u8> {
        RocePacket {
            src_mac: MacAddr::node(1),
            dst_mac: MacAddr::node(2),
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            opcode: BthOpcode::SendOnly,
            dest_qp: qpn,
            psn: 0,
            ack_req: false,
            reth: None,
            aeth: None,
            payload: Bytes::from(vec![0xAB; 100]),
        }
        .serialize()
    }

    #[test]
    fn records_only_while_recording() {
        let mut s = TrafficSniffer::new(SnifferConfig::default());
        s.observe(SimTime::ZERO, Direction::Rx, &roce_frame(1));
        assert!(s.is_empty());
        s.start();
        s.observe(SimTime::ZERO, Direction::Rx, &roce_frame(1));
        s.stop();
        s.observe(SimTime::ZERO, Direction::Rx, &roce_frame(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.counters(), (3, 1));
    }

    #[test]
    fn qpn_filter_selects_flows() {
        let mut s = TrafficSniffer::new(SnifferConfig {
            qpn_filter: Some(7),
            roce_only: true,
            ..Default::default()
        });
        s.start();
        s.observe(SimTime::ZERO, Direction::Tx, &roce_frame(7));
        s.observe(SimTime::ZERO, Direction::Tx, &roce_frame(8));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn direction_filter() {
        let mut s = TrafficSniffer::new(SnifferConfig {
            capture_rx: false,
            ..Default::default()
        });
        s.start();
        s.observe(SimTime::ZERO, Direction::Rx, &roce_frame(1));
        s.observe(SimTime::ZERO, Direction::Tx, &roce_frame(1));
        let recs = s.take_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].direction, Direction::Tx);
        assert!(s.is_empty(), "take_records drains");
    }

    #[test]
    fn header_only_capture_truncates() {
        let mut s = TrafficSniffer::new(SnifferConfig {
            snap_len: Some(54),
            ..Default::default()
        });
        s.start();
        let frame = roce_frame(1);
        s.observe(SimTime::ZERO, Direction::Rx, &frame);
        let rec = &s.take_records()[0];
        assert_eq!(rec.bytes.len(), 54);
        assert_eq!(rec.orig_len as usize, frame.len());
    }

    #[test]
    fn roce_only_drops_other_traffic() {
        let mut s = TrafficSniffer::new(SnifferConfig {
            roce_only: true,
            ..Default::default()
        });
        s.start();
        s.observe(SimTime::ZERO, Direction::Rx, &[0u8; 64]); // Junk frame.
        s.observe(SimTime::ZERO, Direction::Rx, &roce_frame(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn timestamps_are_preserved() {
        let mut s = TrafficSniffer::new(SnifferConfig::default());
        s.start();
        let t = SimTime::ZERO + coyote_sim::SimDuration::from_us(33);
        s.observe(t, Direction::Rx, &roce_frame(1));
        assert_eq!(s.take_records()[0].at, t);
    }
}
