//! A simulated switched Ethernet fabric.
//!
//! §6.2 evaluates BALBOA "running over a switched network"; this is that
//! switch: MAC-learning, store-and-forward-free (cut-through latency
//! constant), with per-port 100G links and optional seeded packet-drop
//! injection for exercising the retransmission path.

use crate::frame::Frame;
use crate::headers::MacAddr;
use coyote_chaos::{FaultKind, Injector};
use coyote_sim::{params, LinkModel, SimTime};
use std::collections::HashMap;

/// A switch port index.
pub type PortId = usize;

/// A frame in flight: delivery time, egress port, wire bytes. The frame is
/// shared: on the flood path every delivery references the same segments.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// When the frame is visible at the destination endpoint.
    pub at: SimTime,
    /// Egress port.
    pub port: PortId,
    /// The frame.
    pub bytes: Frame,
}

/// Per-port statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortStats {
    /// Frames received from the endpoint.
    pub rx_frames: u64,
    /// Frames sent to the endpoint.
    pub tx_frames: u64,
    /// Bytes received from the endpoint.
    pub rx_bytes: u64,
    /// Bytes sent to the endpoint (counted per egress, flood included).
    pub tx_bytes: u64,
    /// Frames dropped by injection.
    pub dropped: u64,
    /// Frames corrupted by injection.
    pub corrupted: u64,
    /// Frames duplicated by injection.
    pub duplicated: u64,
    /// Frames held back (reordered) by injection.
    pub reordered: u64,
}

/// The switch.
#[derive(Debug)]
pub struct Switch {
    /// Ingress + egress serialization per port (the port's CMAC).
    ports: Vec<(LinkModel, LinkModel)>,
    stats: Vec<PortStats>,
    mac_table: HashMap<MacAddr, PortId>,
    chaos: Option<Injector>,
    /// Deliveries held back by a `NetReorder` fault, released after the
    /// next frame's deliveries.
    held: Vec<Delivery>,
}

impl Switch {
    /// A switch with `ports` 100G ports.
    pub fn new(ports: usize) -> Switch {
        Switch {
            ports: (0..ports)
                .map(|_| {
                    (
                        LinkModel::new(params::NET_LINK_BW, params::WIRE_LATENCY),
                        LinkModel::new(params::NET_LINK_BW, params::WIRE_LATENCY),
                    )
                })
                .collect(),
            stats: vec![PortStats::default(); ports],
            mac_table: HashMap::new(),
            chaos: None,
            held: Vec::new(),
        }
    }

    /// Enable seeded random frame dropping (testing retransmission).
    ///
    /// A convenience wrapper over [`Switch::attach_chaos`] with a loss-only
    /// injector; `1.0` is a valid rate (a blackhole dropping every frame).
    pub fn set_drop_rate(&mut self, rate: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&rate), "drop rate out of range");
        self.chaos = Some(Injector::loss_only(rate, seed));
    }

    /// Attach a chaos injector; it is consulted once per injected frame.
    pub fn attach_chaos(&mut self, injector: Injector) {
        self.chaos = Some(injector);
    }

    /// The attached chaos injector (its trace records every fault fired).
    pub fn chaos(&self) -> Option<&Injector> {
        self.chaos.as_ref()
    }

    /// Release any deliveries still held back by a reorder fault (call once
    /// the traffic pattern is done, so no frame stays in limbo).
    pub fn release_held(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.held)
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Per-port counters.
    pub fn stats(&self, port: PortId) -> PortStats {
        self.stats[port]
    }

    /// Inject a frame from the endpoint on `ingress` at `now`.
    ///
    /// Returns the deliveries this frame generates (one for known unicast,
    /// one per other port for unknown/broadcast destinations), or empty if
    /// the frame was dropped.
    pub fn inject(
        &mut self,
        now: SimTime,
        ingress: PortId,
        bytes: impl Into<Frame>,
    ) -> Vec<Delivery> {
        let mut frame: Frame = bytes.into();
        self.stats[ingress].rx_frames += 1;
        self.stats[ingress].rx_bytes += frame.len() as u64;

        // Deliveries held back by an earlier reorder fault are released
        // after this frame's own deliveries.
        let pending = std::mem::take(&mut self.held);

        // One chaos evaluation per frame.
        let mut corrupt = false;
        let mut duplicate = false;
        let mut reorder = false;
        if let Some(inj) = &mut self.chaos {
            let faults = inj.next_at(now);
            let dropped = faults.iter().any(|f| f.kind == FaultKind::NetLoss);
            corrupt = faults.iter().any(|f| f.kind == FaultKind::NetCorrupt);
            duplicate = faults.iter().any(|f| f.kind == FaultKind::NetDuplicate);
            reorder = faults.iter().any(|f| f.kind == FaultKind::NetReorder);
            if dropped {
                // Dropped before the forwarding pipeline: a frame the switch
                // never processed must not update the MAC table either.
                self.stats[ingress].dropped += 1;
                return pending;
            }
        }

        // Learn the source MAC (only for frames actually forwarded).
        let head = frame.head();
        if head.len() >= 14 {
            let mut src = [0u8; 6];
            src.copy_from_slice(&head[6..12]);
            self.mac_table.insert(MacAddr(src), ingress);
        }

        // Ingress serialization on the sender's CMAC.
        let len = frame.len() as u64;
        let in_xfer = self.ports[ingress].0.transmit(now, len);
        let at_switch = in_xfer.arrival + params::SWITCH_LATENCY;

        // Destination lookup.
        let dst = if head.len() >= 6 {
            let mut d = [0u8; 6];
            d.copy_from_slice(&head[0..6]);
            MacAddr(d)
        } else {
            MacAddr::BROADCAST
        };
        let egress_ports: Vec<PortId> = match self.mac_table.get(&dst) {
            Some(&p) if p != ingress => vec![p],
            Some(_) => vec![], // Destined to self; switch filters it.
            None => (0..self.ports.len()).filter(|&p| p != ingress).collect(), // Flood.
        };

        // Corruption happens after the routing decision (real switches
        // corrupt on the wire, not in the lookup): flip one bit of a
        // CRC-covered byte. The flatten-and-rebuild is a genuine copy and is
        // counted as one by the zero-copy accounting.
        if corrupt {
            let derived = self.chaos.as_ref().map_or(0, |i| i.derived(len));
            frame = corrupt_frame(&frame, derived);
            self.stats[ingress].corrupted += 1;
        }
        if duplicate {
            self.stats[ingress].duplicated += 1;
        }

        let mut out: Vec<Delivery> = Vec::new();
        for port in egress_ports {
            let copies = if duplicate { 2 } else { 1 };
            for _ in 0..copies {
                let xfer = self.ports[port].1.transmit(at_switch, len);
                self.stats[port].tx_frames += 1;
                self.stats[port].tx_bytes += len;
                out.push(Delivery {
                    at: xfer.arrival,
                    port,
                    // Reference-count bump; flood and duplication share one
                    // frame.
                    bytes: frame.clone(),
                });
            }
        }

        if reorder {
            // Hold this frame back; it is released after the next frame.
            self.stats[ingress].reordered += 1;
            self.held.append(&mut out);
        }
        out.extend(pending);
        out
    }
}

/// Flip one bit of a CRC-covered byte: a payload byte when the frame has a
/// payload segment, the frame's last byte (the ICRC trailer) otherwise.
fn corrupt_frame(frame: &Frame, derived: u64) -> Frame {
    let mut wire = frame.to_vec();
    if wire.is_empty() {
        return frame.clone();
    }
    let idx = if !frame.payload().is_empty() {
        frame.head().len() + (derived as usize % frame.payload().len())
    } else {
        wire.len() - 1
    };
    wire[idx] ^= 1 << (derived % 8);
    Frame::from(wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_sim::time::Bandwidth;

    fn frame(src: u16, dst: u16, len: usize) -> Vec<u8> {
        let mut f = vec![0u8; len.max(14)];
        f[0..6].copy_from_slice(&MacAddr::node(dst).0);
        f[6..12].copy_from_slice(&MacAddr::node(src).0);
        f
    }

    #[test]
    fn unknown_destination_floods() {
        let mut sw = Switch::new(4);
        let d = sw.inject(SimTime::ZERO, 0, frame(1, 2, 100));
        assert_eq!(d.len(), 3, "flooded to every other port");
    }

    #[test]
    fn learned_destination_is_unicast() {
        let mut sw = Switch::new(4);
        // Node 2 on port 1 speaks first; the switch learns it.
        sw.inject(SimTime::ZERO, 1, frame(2, 1, 64));
        let d = sw.inject(SimTime::ZERO, 0, frame(1, 2, 100));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].port, 1);
    }

    #[test]
    fn latency_includes_two_links_and_switch() {
        let mut sw = Switch::new(2);
        sw.inject(SimTime::ZERO, 1, frame(2, 1, 64)); // Learn.
        let d = sw.inject(SimTime::ZERO, 0, frame(1, 2, 1500));
        let ser = Bandwidth::gbits(100).time_for(1500);
        let expect =
            ser + params::WIRE_LATENCY + params::SWITCH_LATENCY + ser + params::WIRE_LATENCY;
        assert_eq!(d[0].at.since(SimTime::ZERO), expect);
    }

    #[test]
    fn line_rate_is_100g() {
        let mut sw = Switch::new(2);
        sw.inject(SimTime::ZERO, 1, frame(2, 1, 64));
        let mut last = SimTime::ZERO;
        let n = 1000u64;
        for _ in 0..n {
            let d = sw.inject(SimTime::ZERO, 0, frame(1, 2, 4096));
            last = d[0].at;
        }
        let rate = coyote_sim::time::rate(n * 4096, last.since(SimTime::ZERO));
        // Two serializations (in + out) pipeline, so the bottleneck is one
        // 100G link = 12.5 GB/s.
        assert!((rate.as_gbps_f64() - 12.5).abs() < 0.1, "got {rate:?}");
    }

    #[test]
    fn drop_injection_drops_roughly_at_rate() {
        let mut sw = Switch::new(2);
        sw.inject(SimTime::ZERO, 1, frame(2, 1, 64));
        sw.set_drop_rate(0.1, 42);
        let mut delivered = 0;
        for _ in 0..10_000 {
            if !sw.inject(SimTime::ZERO, 0, frame(1, 2, 100)).is_empty() {
                delivered += 1;
            }
        }
        assert!((8800..9200).contains(&delivered), "delivered {delivered}");
        assert!(sw.stats(0).dropped > 800);
    }

    #[test]
    fn stats_pinned_across_unicast_flood_and_drop() {
        let mut sw = Switch::new(3);
        // Flood: unknown destination, 100-byte frame from port 0 reaches
        // ports 1 and 2; tx_bytes must count once per egress.
        let d = sw.inject(SimTime::ZERO, 0, frame(1, 2, 100));
        assert_eq!(d.len(), 2);
        assert_eq!(sw.stats(0).rx_frames, 1);
        assert_eq!(sw.stats(0).rx_bytes, 100);
        assert_eq!(sw.stats(0).tx_bytes, 0);
        for p in [1, 2] {
            assert_eq!(sw.stats(p).tx_frames, 1);
            assert_eq!(sw.stats(p).tx_bytes, 100);
        }

        // Unicast: node 2 speaks from port 1 (unicast back to the already
        // learned node 1 on port 0), then node 1 sends to it.
        sw.inject(SimTime::ZERO, 1, frame(2, 1, 64));
        assert_eq!(sw.stats(0).tx_frames, 1);
        assert_eq!(sw.stats(0).tx_bytes, 64);
        let d = sw.inject(SimTime::ZERO, 0, frame(1, 2, 200));
        assert_eq!(d.len(), 1);
        assert_eq!(sw.stats(1).tx_frames, 2);
        assert_eq!(sw.stats(1).tx_bytes, 100 + 200);
        assert_eq!(sw.stats(2).tx_bytes, 100, "unicast skips port 2");

        // Drop: a dropped frame counts only as dropped — no tx anywhere,
        // and crucially no MAC learning from a frame that never forwarded.
        sw.set_drop_rate(0.999_999, 7);
        let before = sw.mac_table.clone();
        let d = sw.inject(SimTime::ZERO, 2, frame(9, 1, 300));
        assert!(d.is_empty(), "seeded rng drops the frame");
        assert_eq!(sw.stats(2).dropped, 1);
        assert_eq!(sw.stats(2).rx_frames, 1, "rx is still counted");
        assert_eq!(sw.stats(1).tx_frames, 2, "no egress for a dropped frame");
        assert_eq!(
            sw.mac_table, before,
            "dropped frame must not learn its source MAC"
        );
    }

    #[test]
    fn flood_deliveries_share_one_frame() {
        let mut sw = Switch::new(8);
        crate::frame::reset_payload_copies();
        let f = Frame::from_parts(
            frame(1, 2, 42),
            bytes::Bytes::from(vec![0xAB; 4096]),
            [1, 2, 3, 4],
        );
        let d = sw.inject(SimTime::ZERO, 0, f);
        assert_eq!(d.len(), 7);
        assert_eq!(
            crate::frame::payload_copies(),
            0,
            "flooding is refcounting, not copying"
        );
    }

    #[test]
    fn self_addressed_frame_is_filtered() {
        let mut sw = Switch::new(2);
        sw.inject(SimTime::ZERO, 0, frame(1, 9, 64)); // Learn node 1 @ port 0.
        let d = sw.inject(SimTime::ZERO, 0, frame(1, 1, 64));
        assert!(d.is_empty());
    }
}
