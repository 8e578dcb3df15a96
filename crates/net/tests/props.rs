//! Property-based tests on the wire format and RC delivery, and on the
//! robustness of every decoder of untrusted bytes: arbitrary input and
//! every truncation of a valid encoding must be rejected, never panic.

use bytes::Bytes;
use coyote_net::icrc::icrc;
use coyote_net::packet::AethSyndrome;
use coyote_net::pcap::{read_pcap, write_pcap};
use coyote_net::sniffer::Direction;
use coyote_net::tcp::TcpFlags;
use coyote_net::{
    BthOpcode, CaptureRecord, EthernetHdr, Frame, Ipv4Hdr, MacAddr, QpConfig, QueuePair,
    RocePacket, TcpSegment, UdpHdr, Verb, ROCE_UDP_PORT,
};
use coyote_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_opcode() -> impl Strategy<Value = BthOpcode> {
    prop::sample::select(vec![
        BthOpcode::SendFirst,
        BthOpcode::SendMiddle,
        BthOpcode::SendLast,
        BthOpcode::SendOnly,
        BthOpcode::WriteFirst,
        BthOpcode::WriteMiddle,
        BthOpcode::WriteLast,
        BthOpcode::WriteOnly,
        BthOpcode::ReadRequest,
        BthOpcode::ReadRespFirst,
        BthOpcode::ReadRespMiddle,
        BthOpcode::ReadRespLast,
        BthOpcode::ReadRespOnly,
        BthOpcode::Ack,
    ])
}

/// A RoCE packet with the given fields between two fixed endpoints.
fn packet(
    opcode: BthOpcode,
    dest_qp: u32,
    psn: u32,
    ack_req: bool,
    vaddr: u64,
    payload: Vec<u8>,
) -> RocePacket {
    RocePacket {
        src_mac: MacAddr::node(1),
        dst_mac: MacAddr::node(2),
        src_ip: [10, 0, 0, 1],
        dst_ip: [10, 0, 0, 2],
        opcode,
        dest_qp,
        psn,
        ack_req,
        reth: opcode
            .has_reth()
            .then_some((vaddr, 0x42, payload.len() as u32)),
        aeth: opcode.has_aeth().then_some((AethSyndrome::Ack, psn)),
        payload: Bytes::from(payload),
    }
}

const TCP_SRC_IP: [u8; 4] = [10, 0, 0, 1];
const TCP_DST_IP: [u8; 4] = [10, 0, 0, 2];

proptest! {
    /// serialize -> parse is the identity over arbitrary field values.
    #[test]
    fn packet_roundtrip(opcode in arb_opcode(),
                        dest_qp in 0u32..0x00FF_FFFF,
                        psn in 0u32..0x00FF_FFFF,
                        ack_req in any::<bool>(),
                        vaddr in any::<u64>(),
                        payload in prop::collection::vec(any::<u8>(), 0..1500)) {
        let pkt = packet(opcode, dest_qp, psn, ack_req, vaddr, payload);
        let parsed = RocePacket::parse(&pkt.serialize()).unwrap();
        prop_assert_eq!(parsed, pkt);
    }

    /// The scatter-gather serializer and the two-segment parser agree with
    /// the single-buffer reference serializer over arbitrary packets.
    #[test]
    fn frame_path_matches_reference(opcode in arb_opcode(),
                                    dest_qp in 0u32..0x00FF_FFFF,
                                    psn in 0u32..0x00FF_FFFF,
                                    ack_req in any::<bool>(),
                                    vaddr in any::<u64>(),
                                    payload in prop::collection::vec(any::<u8>(), 0..4096)) {
        let pkt = packet(opcode, dest_qp, psn, ack_req, vaddr, payload);
        let frame = pkt.to_frame();
        prop_assert_eq!(frame.to_vec(), pkt.reference_serialize());
        prop_assert_eq!(RocePacket::parse_frame(&frame).unwrap(), pkt.clone());
        // The contiguous parser sees the same packet in the same bytes.
        prop_assert_eq!(RocePacket::parse(&frame.to_vec()).unwrap(), pkt);
    }

    /// An RDMA write delivers intact for any payload length and drop
    /// pattern that eventually lets packets through (go-back-N recovery).
    #[test]
    fn write_survives_drop_patterns(len in 1u64..60_000, drop_mask in any::<u32>()) {
        let (ca, cb) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let am = data.clone();
        let mut bm = vec![0u8; len as usize];
        a.post(1, Verb::Write { remote_vaddr: 0, local_vaddr: 0, len });
        let mut drop_round = 0u32;
        for _round in 0..200 {
            let mut tx = a.poll_tx(&am);
            if tx.is_empty() && a.in_flight() > 0 {
                tx = a.on_timeout();
            }
            if tx.is_empty() {
                break;
            }
            for pkt in tx {
                // Drop per the mask in the first rounds only, so the run
                // always terminates.
                let drop = drop_round < 32 && (drop_mask >> (drop_round % 32)) & 1 == 1;
                drop_round += 1;
                if drop {
                    continue;
                }
                let act = b.on_rx(&pkt, &mut bm);
                for resp in act.tx {
                    a.on_rx(&resp, &mut (vec![] as Vec<u8>));
                }
            }
            if a.poll_completions().iter().any(|c| c.status.is_ok()) {
                break;
            }
        }
        prop_assert_eq!(bm, data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic a decoder, in either frame layout.
    #[test]
    fn decoders_survive_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..256),
                                        split in any::<usize>()) {
        let _ = RocePacket::parse(&data);
        let _ = RocePacket::parse_frame(&Frame::from(data.clone()));
        // Any head/payload/tail split of the same bytes.
        let cut = split % (data.len() + 1);
        let mut tail = [0u8; 4];
        for (t, b) in tail.iter_mut().zip(data.iter().rev()) {
            *t = *b;
        }
        let frame = Frame::from_parts(data[..cut].to_vec(), Bytes::copy_from_slice(&data[cut..]), tail);
        let _ = RocePacket::parse_frame(&frame);
        if let Some((_, rest)) = EthernetHdr::parse(&data) {
            prop_assert_eq!(rest, &data[EthernetHdr::LEN..]);
        }
        let _ = Ipv4Hdr::parse(&data);
        let _ = UdpHdr::parse(&data);
        let _ = TcpSegment::parse(&data, TCP_SRC_IP, TCP_DST_IP);
        let _ = read_pcap(&data);
    }

    /// Arbitrary transport bytes behind valid Ethernet/IPv4/UDP framing and
    /// a valid ICRC reach the BTH/RETH/AETH decoder, which must not panic.
    #[test]
    fn transport_decoder_survives_arbitrary_bytes(
        transport in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut data = Vec::new();
        EthernetHdr { dst: MacAddr::node(2), src: MacAddr::node(1), ethertype: EthernetHdr::ETHERTYPE_IPV4 }
            .write(&mut data);
        let udp_len = (transport.len() + 4) as u16;
        Ipv4Hdr {
            src: TCP_SRC_IP,
            dst: TCP_DST_IP,
            payload_len: UdpHdr::LEN as u16 + udp_len,
            protocol: Ipv4Hdr::PROTO_UDP,
            ttl: 64,
            tos: 0,
        }
        .write(&mut data);
        UdpHdr { src_port: 1, dst_port: ROCE_UDP_PORT, payload_len: udp_len }.write(&mut data);
        data.extend_from_slice(&transport);
        let crc = icrc(&data[EthernetHdr::LEN..]);
        data.extend_from_slice(&crc.to_le_bytes());
        let parsed = RocePacket::parse(&data);
        prop_assert_eq!(RocePacket::parse_frame(&Frame::from(data)), parsed);
    }

    /// Every proper prefix of a valid RoCE packet is rejected, as bytes and
    /// as a frame, and so is every shortened payload segment of the
    /// scatter-gather frame.
    #[test]
    fn truncated_packets_are_rejected(opcode in arb_opcode(),
                                      psn in 0u32..0x00FF_FFFF,
                                      vaddr in any::<u64>(),
                                      payload in prop::collection::vec(any::<u8>(), 0..256)) {
        let pkt = packet(opcode, 7, psn, true, vaddr, payload);
        let bytes = pkt.serialize();
        for cut in 0..bytes.len() {
            prop_assert!(RocePacket::parse(&bytes[..cut]).is_err(), "cut {}", cut);
            let frame = Frame::from(bytes[..cut].to_vec());
            prop_assert!(RocePacket::parse_frame(&frame).is_err(), "cut {}", cut);
        }
        let frame = pkt.to_frame();
        let tail: [u8; 4] = frame.tail().try_into().unwrap();
        for cut in 0..frame.payload().len() {
            let short = Frame::from_parts(frame.head().to_vec(), frame.payload().slice(..cut), tail);
            prop_assert!(RocePacket::parse_frame(&short).is_err(), "payload cut {}", cut);
        }
    }

    /// Every proper prefix of a valid Ethernet/IPv4/UDP header stack, and
    /// of a valid TCP segment, is rejected.
    #[test]
    fn truncated_headers_are_rejected(payload in prop::collection::vec(any::<u8>(), 0..64),
                                      seq in any::<u32>(),
                                      flags in any::<u8>()) {
        let mut eth = Vec::new();
        EthernetHdr { dst: MacAddr::node(2), src: MacAddr::node(1), ethertype: EthernetHdr::ETHERTYPE_IPV4 }
            .write(&mut eth);
        let mut udp = Vec::new();
        UdpHdr { src_port: 1, dst_port: 2, payload_len: payload.len() as u16 }.write(&mut udp);
        udp.extend_from_slice(&payload);
        let mut ip = Vec::new();
        Ipv4Hdr {
            src: TCP_SRC_IP,
            dst: TCP_DST_IP,
            payload_len: udp.len() as u16,
            protocol: Ipv4Hdr::PROTO_UDP,
            ttl: 64,
            tos: 0,
        }
        .write(&mut ip);
        ip.extend_from_slice(&udp);
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq,
            ack: 0,
            flags: TcpFlags(flags),
            window: 4096,
            payload: payload.clone(),
        }
        .serialize(TCP_SRC_IP, TCP_DST_IP);
        prop_assert!(EthernetHdr::parse(&eth).is_some());
        prop_assert!(Ipv4Hdr::parse(&ip).is_some());
        prop_assert!(UdpHdr::parse(&udp).is_some());
        prop_assert!(TcpSegment::parse(&seg, TCP_SRC_IP, TCP_DST_IP).is_some());
        for cut in 0..eth.len() {
            prop_assert!(EthernetHdr::parse(&eth[..cut]).is_none(), "eth cut {}", cut);
        }
        for cut in 0..ip.len() {
            prop_assert!(Ipv4Hdr::parse(&ip[..cut]).is_none(), "ipv4 cut {}", cut);
        }
        for cut in 0..udp.len() {
            prop_assert!(UdpHdr::parse(&udp[..cut]).is_none(), "udp cut {}", cut);
        }
        for cut in 0..seg.len() {
            prop_assert!(TcpSegment::parse(&seg[..cut], TCP_SRC_IP, TCP_DST_IP).is_none(), "tcp cut {}", cut);
        }
    }

    /// A truncated pcap stream is an error unless the cut falls exactly on
    /// a record boundary, where it reads back as that prefix of the records.
    #[test]
    fn truncated_pcap_is_rejected_or_a_record_prefix(
        lens in prop::collection::vec(0usize..96, 1..6),
    ) {
        let records: Vec<CaptureRecord> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| CaptureRecord {
                at: SimTime::ZERO + SimDuration::from_us(i as u64),
                direction: Direction::Rx,
                orig_len: len as u32,
                bytes: (0..len).map(|b| (b + i) as u8).collect(),
            })
            .collect();
        let mut bytes = Vec::new();
        write_pcap(&mut bytes, &records, 65_535).unwrap();
        let full = read_pcap(&bytes).unwrap();
        prop_assert_eq!(full.len(), records.len());
        for cut in 0..bytes.len() {
            if let Ok(prefix) = read_pcap(&bytes[..cut]) {
                prop_assert!(prefix.len() < full.len(), "cut {}", cut);
                prop_assert_eq!(&prefix[..], &full[..prefix.len()]);
            }
        }
    }
}
