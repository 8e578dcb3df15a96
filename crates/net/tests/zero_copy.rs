//! The zero-copy data plane contract:
//!
//! * scatter-gather serialization is bit-identical to the single-buffer
//!   reference serializer (headers, ICRC and all);
//! * payload bytes flow QP TX -> switch -> NIC RX without a single
//!   redundant copy (asserted with the thread-local copy counter);
//! * retransmissions re-frame the staged payload (O(headers)) and put
//!   byte-identical frames on the wire;
//! * sniffer captures and the resulting pcap files are byte-identical
//!   between the classic contiguous path and the frame path.

use bytes::Bytes;
use coyote_net::packet::AethSyndrome;
use coyote_net::pcap::write_pcap;
use coyote_net::sniffer::{Direction, SnifferConfig, TrafficSniffer};
use coyote_net::{
    payload_copies, reset_payload_copies, BthOpcode, CommodityNic, Frame, MacAddr, QpConfig,
    QueuePair, RocePacket, Switch, Verb,
};
use coyote_sim::params::ROCE_MTU;
use coyote_sim::SimTime;

fn pkt(opcode: BthOpcode, psn: u32, payload: Vec<u8>) -> RocePacket {
    RocePacket {
        src_mac: MacAddr::node(1),
        dst_mac: MacAddr::node(2),
        src_ip: [10, 0, 0, 1],
        dst_ip: [10, 0, 0, 2],
        opcode,
        dest_qp: 0x1234,
        psn,
        ack_req: true,
        reth: opcode
            .has_reth()
            .then_some((0xDEAD_BEEF_0000, 0x42, payload.len() as u32)),
        aeth: opcode.has_aeth().then_some((AethSyndrome::Ack, psn)),
        payload: Bytes::from(payload),
    }
}

#[test]
fn frame_serialize_bit_identical_to_reference_at_edges() {
    let lens = [0usize, 1, ROCE_MTU];
    let opcodes = [
        BthOpcode::SendOnly,     // Plain BTH.
        BthOpcode::WriteOnly,    // BTH + RETH.
        BthOpcode::ReadRespOnly, // BTH + AETH.
        BthOpcode::Ack,          // BTH + AETH, typically empty.
        BthOpcode::ReadRequest,  // BTH + RETH, empty payload on the wire.
    ];
    for opcode in opcodes {
        for len in lens {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let p = pkt(opcode, 77, payload);
            let reference = p.reference_serialize();
            assert_eq!(
                p.to_frame().to_vec(),
                reference,
                "{opcode:?} len {len}: scatter-gather wire bytes differ"
            );
            assert_eq!(p.serialize(), reference);
            // And the frame parses back to the identical packet.
            let parsed = RocePacket::parse_frame(&p.to_frame()).unwrap();
            assert_eq!(parsed, p);
        }
    }
}

/// Pump one round of frames a -> switch -> b, responses back b -> a.
fn pump(a: &mut CommodityNic, b: &mut CommodityNic, switch: &mut Switch) {
    for round in 0..64 {
        let tx = a.poll_tx();
        if tx.is_empty() && round > 0 {
            break;
        }
        for p in tx {
            for d in switch.inject(SimTime::ZERO, 0, p.to_frame()) {
                for resp in b.on_frame(&d.bytes) {
                    for d2 in switch.inject(d.at, 1, resp.to_frame()) {
                        a.on_frame(&d2.bytes);
                    }
                }
            }
        }
    }
}

#[test]
fn send_delivers_with_zero_payload_copies() {
    let mut switch = Switch::new(2);
    let mut a = CommodityNic::new("a", 1 << 20);
    let mut b = CommodityNic::new("b", 1 << 20);
    let (qa, qb) = QpConfig::pair(0x10, 0x20);
    a.create_qp(qa);
    b.create_qp(qb);
    // Exactly one MTU: a single SendOnly fragment end to end.
    let payload: Vec<u8> = (0..ROCE_MTU).map(|i| (i % 241) as u8).collect();
    a.write_memory(0, &payload);
    a.post(
        0x10,
        1,
        Verb::Send {
            local_vaddr: 0,
            len: payload.len() as u64,
        },
    );
    reset_payload_copies();
    pump(&mut a, &mut b, &mut switch);
    assert_eq!(
        payload_copies(),
        0,
        "QP TX -> switch -> NIC RX must not copy payload bytes"
    );
    let inbox = b.take_inbox();
    assert_eq!(inbox.len(), 1);
    assert_eq!(inbox[0].0, 0x20);
    assert_eq!(inbox[0].1, payload);
}

#[test]
fn multi_packet_write_streams_with_zero_payload_copies() {
    let mut switch = Switch::new(2);
    let mut a = CommodityNic::new("a", 1 << 20);
    let mut b = CommodityNic::new("b", 1 << 20);
    let (qa, qb) = QpConfig::pair(0x11, 0x21);
    a.create_qp(qa);
    b.create_qp(qb);
    let payload: Vec<u8> = (0..50_000).map(|i| (i % 249) as u8).collect();
    a.write_memory(0, &payload);
    a.post(
        0x11,
        2,
        Verb::Write {
            remote_vaddr: 4096,
            local_vaddr: 0,
            len: payload.len() as u64,
        },
    );
    reset_payload_copies();
    pump(&mut a, &mut b, &mut switch);
    assert_eq!(
        payload_copies(),
        0,
        "WRITE fragments stream straight into remote memory"
    );
    assert_eq!(&b.memory()[4096..4096 + payload.len()], &payload[..]);
    let comps = a.poll_completions();
    assert_eq!(comps.len(), 1);
    assert!(comps[0].1.status.is_ok());
}

#[test]
fn retransmitted_wire_bytes_are_bit_identical() {
    let (ca, cb) = QpConfig::pair(0x30, 0x40);
    let mut a = QueuePair::new(ca);
    let mut b = QueuePair::new(cb);
    let mem: Vec<u8> = (0..30_000).map(|i| (i % 253) as u8).collect();
    a.post(
        1,
        Verb::Write {
            remote_vaddr: 0,
            local_vaddr: 0,
            len: mem.len() as u64,
        },
    );
    // First transmission: every frame is "lost" (never delivered).
    let first = a.poll_tx(&mem);
    let originals: Vec<Vec<u8>> = first.iter().map(|p| p.to_frame().to_vec()).collect();
    assert!(originals.len() > 5);
    let reference: Vec<Vec<u8>> = first.iter().map(RocePacket::reference_serialize).collect();
    assert_eq!(originals, reference);

    // The timer re-frames the staged payload without copying it...
    reset_payload_copies();
    let retx_frames: Vec<Frame> = a.on_timeout().iter().map(RocePacket::to_frame).collect();
    assert_eq!(
        payload_copies(),
        0,
        "retransmission re-framing is O(headers), not O(payload)"
    );
    // ...and the retransmitted wire bytes match the originals exactly.
    let retx: Vec<Vec<u8>> = retx_frames.iter().map(Frame::to_vec).collect();
    assert_eq!(retx, originals);
    // So do the cached frames the retransmission timer sends, on every
    // firing.
    for _ in 0..2 {
        let cached: Vec<Vec<u8>> = a.on_timeout_frames().iter().map(Frame::to_vec).collect();
        assert_eq!(cached, reference);
    }

    // The retransmissions alone complete the transfer.
    let mut bm = vec![0u8; mem.len()];
    for f in &retx_frames {
        let p = RocePacket::parse_frame(f).unwrap();
        for resp in b.on_rx(&p, &mut bm).tx {
            a.on_rx(&resp, &mut (vec![] as Vec<u8>));
        }
    }
    assert_eq!(bm, mem);
    assert!(a.poll_completions().iter().any(|c| c.status.is_ok()));
}

#[test]
fn pcap_output_bit_identical_between_observe_paths() {
    let configs = [
        SnifferConfig::default(),
        SnifferConfig {
            roce_only: true,
            qpn_filter: Some(0x1234),
            ..Default::default()
        },
        SnifferConfig {
            snap_len: Some(54), // Header-only snap, inside the head segment.
            ..Default::default()
        },
    ];
    for config in configs {
        let mut classic = TrafficSniffer::new(config);
        let mut framed = TrafficSniffer::new(config);
        classic.start();
        framed.start();
        let packets = [
            pkt(BthOpcode::SendOnly, 1, vec![0xAB; 900]),
            pkt(BthOpcode::WriteOnly, 2, vec![0xCD; 64]),
            pkt(BthOpcode::Ack, 3, Vec::new()),
        ];
        for (i, p) in packets.iter().enumerate() {
            let at = SimTime::ZERO + coyote_sim::SimDuration::from_us(i as u64);
            classic.observe(at, Direction::Tx, &p.serialize());
            framed.observe_frame(at, Direction::Tx, &p.to_frame());
        }
        assert_eq!(classic.counters(), framed.counters());
        let (mut f1, mut f2) = (Vec::new(), Vec::new());
        write_pcap(&mut f1, &classic.take_records(), 65_535).unwrap();
        write_pcap(&mut f2, &framed.take_records(), 65_535).unwrap();
        assert_eq!(f1, f2, "pcap files must be byte-identical");
    }
}

// --- Property: the RC transport converges under chaos, still zero-copy --

use coyote_chaos::{Domain, FaultPlan};
use proptest::prelude::*;

/// Lossy pump: fresh transmissions first, then reorder-held frames, then
/// the retransmission timers — timers only fire on an otherwise idle
/// round, as a real RTO would. Panics if the run does not quiesce.
fn pump_lossy(a: &mut CommodityNic, b: &mut CommodityNic, switch: &mut Switch) {
    use std::collections::VecDeque;
    for _ in 0..800 {
        let mut frames: VecDeque<(usize, Frame)> = VecDeque::new();
        frames.extend(a.poll_tx_frames().into_iter().map(|f| (0usize, f)));
        frames.extend(b.poll_tx_frames().into_iter().map(|f| (1usize, f)));
        if frames.is_empty() {
            let held = switch.release_held();
            if !held.is_empty() {
                for d in held {
                    let (rx, tx_port) = if d.port == 0 {
                        (&mut *a, 0)
                    } else {
                        (&mut *b, 1)
                    };
                    for resp in rx.on_frame(&d.bytes) {
                        frames.push_back((tx_port, resp.to_frame()));
                    }
                }
            } else {
                frames.extend(a.on_timeout_frames().into_iter().map(|f| (0usize, f)));
                frames.extend(b.on_timeout_frames().into_iter().map(|f| (1usize, f)));
                if frames.is_empty() {
                    return; // Quiescent.
                }
            }
        }
        while let Some((port, f)) = frames.pop_front() {
            for d in switch.inject(SimTime::ZERO, port, f) {
                let (rx, tx_port) = if d.port == 0 {
                    (&mut *a, 0)
                } else {
                    (&mut *b, 1)
                };
                for resp in rx.on_frame(&d.bytes) {
                    frames.push_back((tx_port, resp.to_frame()));
                }
            }
        }
    }
    panic!("lossy run did not quiesce within the round budget");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any mix of loss, reordering and duplication the RC QP
    /// converges: the remote bytes are identical, recovery went through
    /// retransmission, and not one payload byte was copied on the way.
    /// (Corruption is excluded by design: a corrupting switch must copy
    /// the frame it rewrites, which is exactly what this property forbids
    /// for the clean data plane.)
    #[test]
    fn rc_transport_converges_zero_copy_under_chaos(
        seed in any::<u64>(),
        loss in 0.0f64..0.35,
        reorder in 0.0f64..0.25,
        duplicate in 0.0f64..0.25,
        len in 1usize..48_000,
    ) {
        let plan = FaultPlan::new(seed)
            .net_loss(loss)
            .net_reorder(reorder)
            .net_duplicate(duplicate);
        let mut switch = Switch::new(2);
        switch.attach_chaos(plan.injector(Domain::NetSwitch));
        let mut a = CommodityNic::new("a", 1 << 20);
        let mut b = CommodityNic::new("b", 1 << 20);
        let (qa, qb) = QpConfig::pair(0x10, 0x20);
        a.create_qp(qa);
        b.create_qp(qb);
        let payload: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
        a.write_memory(0, &payload);
        a.post(0x10, 1, Verb::Write {
            remote_vaddr: 4096,
            local_vaddr: 0,
            len: len as u64,
        });

        reset_payload_copies();
        pump_lossy(&mut a, &mut b, &mut switch);

        prop_assert_eq!(payload_copies(), 0, "chaos recovery must not copy payload bytes");
        prop_assert_eq!(&b.memory()[4096..4096 + len], &payload[..]);
        let comps = a.poll_completions();
        prop_assert_eq!(comps.len(), 1);
        prop_assert!(comps[0].1.status.is_ok());
        let dropped = switch.stats(0).dropped + switch.stats(1).dropped;
        if dropped > 0 {
            let retx = a.qp_stats(0x10).unwrap().retransmits
                + b.qp_stats(0x20).unwrap().retransmits;
            prop_assert!(retx > 0, "{dropped} drops must force retransmission");
        }
    }
}
