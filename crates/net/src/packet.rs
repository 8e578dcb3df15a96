//! Full RoCE v2 packets: BTH/RETH/AETH transport headers over
//! Ethernet/IPv4/UDP, with an ICRC trailer.

use crate::frame::{count_payload_copy, Frame};
use crate::headers::{ipv4_checksum, EthernetHdr, Ipv4Hdr, MacAddr, UdpHdr, ROCE_UDP_PORT};
use crate::icrc::{icrc, icrc_segments};
use bytes::Bytes;

/// RC transport opcodes (IBTA table 38, the subset BALBOA speaks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BthOpcode {
    /// First packet of a multi-packet SEND.
    SendFirst = 0x00,
    /// Middle packet of a SEND.
    SendMiddle = 0x01,
    /// Last packet of a SEND.
    SendLast = 0x02,
    /// Single-packet SEND.
    SendOnly = 0x04,
    /// First packet of an RDMA WRITE (carries RETH).
    WriteFirst = 0x06,
    /// Middle packet of an RDMA WRITE.
    WriteMiddle = 0x07,
    /// Last packet of an RDMA WRITE.
    WriteLast = 0x08,
    /// Single-packet RDMA WRITE (carries RETH).
    WriteOnly = 0x0A,
    /// RDMA READ request (carries RETH).
    ReadRequest = 0x0C,
    /// First packet of a READ response.
    ReadRespFirst = 0x0D,
    /// Middle packet of a READ response.
    ReadRespMiddle = 0x0E,
    /// Last packet of a READ response.
    ReadRespLast = 0x0F,
    /// Single-packet READ response.
    ReadRespOnly = 0x10,
    /// Acknowledge (carries AETH).
    Ack = 0x11,
}

impl BthOpcode {
    /// Parse an opcode byte.
    pub fn from_u8(v: u8) -> Option<BthOpcode> {
        use BthOpcode::*;
        Some(match v {
            0x00 => SendFirst,
            0x01 => SendMiddle,
            0x02 => SendLast,
            0x04 => SendOnly,
            0x06 => WriteFirst,
            0x07 => WriteMiddle,
            0x08 => WriteLast,
            0x0A => WriteOnly,
            0x0C => ReadRequest,
            0x0D => ReadRespFirst,
            0x0E => ReadRespMiddle,
            0x0F => ReadRespLast,
            0x10 => ReadRespOnly,
            0x11 => Ack,
            _ => return None,
        })
    }

    /// True if this packet type carries an RETH.
    pub fn has_reth(self) -> bool {
        matches!(
            self,
            BthOpcode::WriteFirst | BthOpcode::WriteOnly | BthOpcode::ReadRequest
        )
    }

    /// True if this packet type carries an AETH.
    pub fn has_aeth(self) -> bool {
        matches!(
            self,
            BthOpcode::Ack
                | BthOpcode::ReadRespFirst
                | BthOpcode::ReadRespMiddle
                | BthOpcode::ReadRespLast
                | BthOpcode::ReadRespOnly
        )
    }

    /// True for the packet that starts a new message at the responder.
    pub fn starts_message(self) -> bool {
        matches!(
            self,
            BthOpcode::SendFirst
                | BthOpcode::SendOnly
                | BthOpcode::WriteFirst
                | BthOpcode::WriteOnly
        )
    }

    /// True for the packet that ends a message.
    pub fn ends_message(self) -> bool {
        matches!(
            self,
            BthOpcode::SendLast | BthOpcode::SendOnly | BthOpcode::WriteLast | BthOpcode::WriteOnly
        )
    }
}

/// AETH syndromes (simplified: ACK or NAK-sequence-error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AethSyndrome {
    /// Positive acknowledgement of everything up to the PSN.
    Ack,
    /// Sequence error: retransmit from the PSN.
    NakSequence,
}

impl AethSyndrome {
    fn code(self) -> u8 {
        match self {
            AethSyndrome::Ack => 0x00,
            AethSyndrome::NakSequence => 0x60,
        }
    }

    fn from_code(v: u8) -> Option<AethSyndrome> {
        match v {
            0x00 => Some(AethSyndrome::Ack),
            0x60 => Some(AethSyndrome::NakSequence),
            _ => None,
        }
    }
}

/// A fully-formed RoCE v2 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RocePacket {
    /// L2 addresses.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// L3 addresses.
    pub src_ip: [u8; 4],
    /// Destination IP.
    pub dst_ip: [u8; 4],
    /// Transport opcode.
    pub opcode: BthOpcode,
    /// Destination queue pair number (24 bits used).
    pub dest_qp: u32,
    /// Packet sequence number (24 bits used).
    pub psn: u32,
    /// Request an acknowledge.
    pub ack_req: bool,
    /// RETH: `(remote vaddr, rkey, dma length)`.
    pub reth: Option<(u64, u32, u32)>,
    /// AETH: `(syndrome, msn)`. For read responses `msn` carries the
    /// request PSN (see crate-level simplifications).
    pub aeth: Option<(AethSyndrome, u32)>,
    /// Payload bytes.
    pub payload: Bytes,
}

/// BTH length on the wire.
const BTH_LEN: usize = 12;
/// RETH length.
const RETH_LEN: usize = 16;
/// AETH length.
const AETH_LEN: usize = 4;

/// Parse failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Not enough bytes / malformed framing.
    Malformed,
    /// Not an IPv4/UDP/RoCE packet.
    NotRoce,
    /// ICRC mismatch (corrupt in flight).
    BadIcrc,
    /// Unknown opcode.
    BadOpcode(u8),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Malformed => write!(f, "malformed packet"),
            PacketError::NotRoce => write!(f, "not a RoCE v2 packet"),
            PacketError::BadIcrc => write!(f, "ICRC mismatch"),
            PacketError::BadOpcode(op) => write!(f, "unknown BTH opcode {op:#x}"),
        }
    }
}

impl std::error::Error for PacketError {}

/// Transport-header fields shared by every parse path.
struct Transport {
    opcode: BthOpcode,
    dest_qp: u32,
    psn: u32,
    ack_req: bool,
    reth: Option<(u64, u32, u32)>,
    aeth: Option<(AethSyndrome, u32)>,
    /// Bytes of BTH + extension headers consumed from the front.
    header_len: usize,
}

/// Decode BTH (+RETH/AETH) from `bth`; the payload starts at `header_len`.
fn decode_transport(bth: &[u8]) -> Result<Transport, PacketError> {
    if bth.len() < BTH_LEN {
        return Err(PacketError::Malformed);
    }
    let opcode = BthOpcode::from_u8(bth[0]).ok_or(PacketError::BadOpcode(bth[0]))?;
    let dest_qp = u32::from_be_bytes([bth[4], bth[5], bth[6], bth[7]]) & 0x00FF_FFFF;
    let psn_word = u32::from_be_bytes([bth[8], bth[9], bth[10], bth[11]]);
    let ack_req = psn_word >> 31 == 1;
    let psn = psn_word & 0x00FF_FFFF;
    let mut off = BTH_LEN;
    let reth = if opcode.has_reth() {
        if bth.len() < off + RETH_LEN {
            return Err(PacketError::Malformed);
        }
        let vaddr = u64::from_be_bytes(bth[off..off + 8].try_into().expect("8"));
        let rkey = u32::from_be_bytes(bth[off + 8..off + 12].try_into().expect("4"));
        let dmalen = u32::from_be_bytes(bth[off + 12..off + 16].try_into().expect("4"));
        off += RETH_LEN;
        Some((vaddr, rkey, dmalen))
    } else {
        None
    };
    let aeth = if opcode.has_aeth() {
        if bth.len() < off + AETH_LEN {
            return Err(PacketError::Malformed);
        }
        let word = u32::from_be_bytes(bth[off..off + 4].try_into().expect("4"));
        let syn = AethSyndrome::from_code((word >> 24) as u8).ok_or(PacketError::Malformed)?;
        off += AETH_LEN;
        Some((syn, word & 0x00FF_FFFF))
    } else {
        None
    };
    Ok(Transport {
        opcode,
        dest_qp,
        psn,
        ack_req,
        reth,
        aeth,
        header_len: off,
    })
}

/// The outer framing of a contiguous RoCE frame, by offset.
struct RawParts {
    eth: EthernetHdr,
    ip: Ipv4Hdr,
    /// Offset of the BTH within the frame.
    bth_off: usize,
    /// Bytes of BTH + extensions + payload (ICRC excluded).
    bth_len: usize,
    /// Stored ICRC (little-endian trailer).
    stored: u32,
}

/// Validate Ethernet/IPv4/UDP framing of contiguous wire bytes.
fn split_raw(data: &[u8]) -> Result<RawParts, PacketError> {
    let (eth, rest) = EthernetHdr::parse(data).ok_or(PacketError::Malformed)?;
    if eth.ethertype != EthernetHdr::ETHERTYPE_IPV4 {
        return Err(PacketError::NotRoce);
    }
    let ip_start = EthernetHdr::LEN;
    let (ip, after_ip) = Ipv4Hdr::parse(rest).ok_or(PacketError::Malformed)?;
    if ip.protocol != Ipv4Hdr::PROTO_UDP {
        return Err(PacketError::NotRoce);
    }
    let (udp, udp_payload) = UdpHdr::parse(after_ip).ok_or(PacketError::Malformed)?;
    if udp.dst_port != ROCE_UDP_PORT {
        return Err(PacketError::NotRoce);
    }
    if udp_payload.len() < BTH_LEN + 4 {
        return Err(PacketError::Malformed);
    }
    let total_ip_len = Ipv4Hdr::LEN + UdpHdr::LEN + udp_payload.len();
    let stored = u32::from_le_bytes(
        data[ip_start + total_ip_len - 4..ip_start + total_ip_len]
            .try_into()
            .expect("4 bytes"),
    );
    Ok(RawParts {
        eth,
        ip,
        bth_off: ip_start + Ipv4Hdr::LEN + UdpHdr::LEN,
        bth_len: udp_payload.len() - 4,
        stored,
    })
}

impl RocePacket {
    /// Build the contiguous header segment (Ethernet through the transport
    /// headers) and the ICRC for this packet, without touching the payload.
    fn wire_head(&self) -> (Vec<u8>, u32) {
        let mut ext = 0;
        if self.opcode.has_reth() {
            ext += RETH_LEN;
        }
        if self.opcode.has_aeth() {
            ext += AETH_LEN;
        }
        let transport_len = BTH_LEN + ext + self.payload.len() + 4; // + ICRC.
        let udp = UdpHdr {
            // Derive the source port from the QPN for ECMP entropy, as real
            // stacks do.
            src_port: 0xC000 | (self.dest_qp as u16 & 0x3FFF),
            dst_port: ROCE_UDP_PORT,
            payload_len: transport_len as u16,
        };
        let ip = Ipv4Hdr {
            src: self.src_ip,
            dst: self.dst_ip,
            payload_len: (UdpHdr::LEN + transport_len) as u16,
            protocol: Ipv4Hdr::PROTO_UDP,
            ttl: 64,
            tos: 0,
        };
        let eth = EthernetHdr {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EthernetHdr::ETHERTYPE_IPV4,
        };
        let mut head =
            Vec::with_capacity(EthernetHdr::LEN + Ipv4Hdr::LEN + UdpHdr::LEN + BTH_LEN + ext);
        eth.write(&mut head);
        ip.write(&mut head);
        udp.write(&mut head);
        head.push(self.opcode as u8);
        head.push(0x40); // SE=0, M=0, Pad=0, TVer=0; bit kept for layout.
        head.extend_from_slice(&0xFFFFu16.to_be_bytes()); // Default pkey.
        head.extend_from_slice(&self.dest_qp.to_be_bytes()); // 8 reserved + 24 QPN.
        let psn_word = ((self.ack_req as u32) << 31) | (self.psn & 0x00FF_FFFF);
        head.extend_from_slice(&psn_word.to_be_bytes());
        if let Some((vaddr, rkey, dmalen)) = self.reth {
            debug_assert!(self.opcode.has_reth());
            head.extend_from_slice(&vaddr.to_be_bytes());
            head.extend_from_slice(&rkey.to_be_bytes());
            head.extend_from_slice(&dmalen.to_be_bytes());
        }
        if let Some((syn, msn)) = self.aeth {
            debug_assert!(self.opcode.has_aeth());
            let word = ((syn.code() as u32) << 24) | (msn & 0x00FF_FFFF);
            head.extend_from_slice(&word.to_be_bytes());
        }
        let crc = icrc_segments(&[&head[EthernetHdr::LEN..], &self.payload]);
        (head, crc)
    }

    /// Serialize to a scatter-gather wire frame: the payload segment is a
    /// shared slice of this packet's payload, never a copy. The flattened
    /// bytes are identical to [`RocePacket::serialize`]. The frame memoizes
    /// its ICRC, so a receiver of it (or of a clone) does not re-hash it.
    pub fn to_frame(&self) -> Frame {
        let (head, crc) = self.wire_head();
        Frame::with_icrc(head, self.payload.clone(), crc)
    }

    /// Serialize to contiguous wire bytes, computing the IPv4 checksum and
    /// ICRC. This flattens the frame (one payload copy); hot paths keep the
    /// scatter-gather [`RocePacket::to_frame`] form instead.
    pub fn serialize(&self) -> Vec<u8> {
        self.to_frame().to_vec()
    }

    /// The original single-buffer serializer, kept as the differential
    /// reference for the scatter-gather path: tests assert
    /// `to_frame().to_vec() == reference_serialize()` byte for byte, for
    /// first transmissions and for cached retransmission frames.
    pub fn reference_serialize(&self) -> Vec<u8> {
        let mut bth = Vec::with_capacity(BTH_LEN + RETH_LEN + AETH_LEN + self.payload.len());
        bth.push(self.opcode as u8);
        bth.push(0x40); // SE=0, M=0, Pad=0, TVer=0; bit kept for layout.
        bth.extend_from_slice(&0xFFFFu16.to_be_bytes()); // Default pkey.
        bth.extend_from_slice(&self.dest_qp.to_be_bytes()); // 8 reserved + 24 QPN.
        let psn_word = ((self.ack_req as u32) << 31) | (self.psn & 0x00FF_FFFF);
        bth.extend_from_slice(&psn_word.to_be_bytes());
        debug_assert_eq!(bth.len(), BTH_LEN);
        if let Some((vaddr, rkey, dmalen)) = self.reth {
            debug_assert!(self.opcode.has_reth());
            bth.extend_from_slice(&vaddr.to_be_bytes());
            bth.extend_from_slice(&rkey.to_be_bytes());
            bth.extend_from_slice(&dmalen.to_be_bytes());
        }
        if let Some((syn, msn)) = self.aeth {
            debug_assert!(self.opcode.has_aeth());
            let word = ((syn.code() as u32) << 24) | (msn & 0x00FF_FFFF);
            bth.extend_from_slice(&word.to_be_bytes());
        }
        bth.extend_from_slice(&self.payload);
        count_payload_copy(self.payload.len());

        let udp = UdpHdr {
            src_port: 0xC000 | (self.dest_qp as u16 & 0x3FFF),
            dst_port: ROCE_UDP_PORT,
            payload_len: (bth.len() + 4) as u16, // + ICRC.
        };
        let ip = Ipv4Hdr {
            src: self.src_ip,
            dst: self.dst_ip,
            payload_len: UdpHdr::LEN as u16 + udp.payload_len,
            protocol: Ipv4Hdr::PROTO_UDP,
            ttl: 64,
            tos: 0,
        };
        let eth = EthernetHdr {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EthernetHdr::ETHERTYPE_IPV4,
        };

        let mut out =
            Vec::with_capacity(EthernetHdr::LEN + Ipv4Hdr::LEN + UdpHdr::LEN + bth.len() + 4);
        eth.write(&mut out);
        let ip_start = out.len();
        ip.write(&mut out);
        udp.write(&mut out);
        out.extend_from_slice(&bth);
        count_payload_copy(self.payload.len());
        let crc = {
            // The seed masked a full copy of the covered region; the
            // streaming ICRC is value-identical without the copy.
            icrc(&out[ip_start..])
        };
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse wire bytes, verifying framing and ICRC. Copies the payload out
    /// of the borrowed buffer; zero-copy paths use
    /// [`RocePacket::parse_frame`].
    pub fn parse(data: &[u8]) -> Result<RocePacket, PacketError> {
        let raw = split_raw(data)?;
        let covered = &data[EthernetHdr::LEN..raw.bth_off + raw.bth_len];
        if icrc(covered) != raw.stored {
            return Err(PacketError::BadIcrc);
        }
        let bth = &data[raw.bth_off..raw.bth_off + raw.bth_len];
        let t = decode_transport(bth)?;
        count_payload_copy(bth.len() - t.header_len);
        let payload = Bytes::copy_from_slice(&bth[t.header_len..]);
        Ok(Self::assemble(&raw, t, payload))
    }

    /// Parse a wire frame, verifying framing and ICRC, without copying
    /// payload bytes: for a scatter-gather frame the payload is the frame's
    /// shared payload segment; for a contiguous frame it is a shared slice
    /// of the frame's buffer.
    pub fn parse_frame(frame: &Frame) -> Result<RocePacket, PacketError> {
        if frame.is_contiguous() {
            let data = frame.head_bytes();
            let raw = split_raw(data)?;
            let covered = &data[EthernetHdr::LEN..raw.bth_off + raw.bth_len];
            if icrc(covered) != raw.stored {
                return Err(PacketError::BadIcrc);
            }
            let t = decode_transport(&data[raw.bth_off..raw.bth_off + raw.bth_len])?;
            let payload = data.slice(raw.bth_off + t.header_len..raw.bth_off + raw.bth_len);
            return Ok(Self::assemble(&raw, t, payload));
        }
        Self::parse_segmented(frame)
    }

    /// The segmented-frame parse path: headers live entirely in the head
    /// segment, the payload is shared, the tail is the ICRC.
    fn parse_segmented(frame: &Frame) -> Result<RocePacket, PacketError> {
        let head = frame.head();
        let payload = frame.payload();
        let (eth, rest) = EthernetHdr::parse(head).ok_or(PacketError::Malformed)?;
        if eth.ethertype != EthernetHdr::ETHERTYPE_IPV4 {
            return Err(PacketError::NotRoce);
        }
        // The IPv4 header cannot go through `Ipv4Hdr::parse`: its total
        // length covers the payload and tail segments, not just the head.
        if rest.len() < Ipv4Hdr::LEN || rest[0] != 0x45 {
            return Err(PacketError::Malformed);
        }
        if ipv4_checksum(&rest[..Ipv4Hdr::LEN]) != 0 {
            return Err(PacketError::Malformed);
        }
        if rest[9] != Ipv4Hdr::PROTO_UDP {
            return Err(PacketError::NotRoce);
        }
        let ip_total = u16::from_be_bytes([rest[2], rest[3]]) as usize;
        let logical_ip_len = (head.len() - EthernetHdr::LEN) + payload.len() + frame.tail().len();
        if ip_total != logical_ip_len {
            return Err(PacketError::Malformed);
        }
        let ip = Ipv4Hdr {
            src: rest[12..16].try_into().expect("4"),
            dst: rest[16..20].try_into().expect("4"),
            payload_len: (ip_total - Ipv4Hdr::LEN) as u16,
            protocol: rest[9],
            ttl: rest[8],
            tos: rest[1],
        };
        let udp = &rest[Ipv4Hdr::LEN..];
        if udp.len() < UdpHdr::LEN {
            return Err(PacketError::Malformed);
        }
        if u16::from_be_bytes([udp[2], udp[3]]) != ROCE_UDP_PORT {
            return Err(PacketError::NotRoce);
        }
        let udp_len = u16::from_be_bytes([udp[4], udp[5]]) as usize;
        if udp_len != logical_ip_len - Ipv4Hdr::LEN {
            return Err(PacketError::Malformed);
        }
        let bth = &udp[UdpHdr::LEN..];
        let tail: [u8; 4] = frame
            .tail()
            .try_into()
            .map_err(|_| PacketError::Malformed)?;
        // A frame `to_frame` built carries the ICRC of these very bytes;
        // one rebuilt from bytes (corrupted, `from_parts`) is hashed here.
        let covered: [&[u8]; 2] = [&head[EthernetHdr::LEN..], payload];
        let crc = match frame.icrc_memo() {
            Some(memo) => {
                debug_assert_eq!(memo, icrc_segments(&covered), "stale ICRC memo");
                memo
            }
            None => icrc_segments(&covered),
        };
        if crc != u32::from_le_bytes(tail) {
            return Err(PacketError::BadIcrc);
        }
        let t = decode_transport(bth)?;
        if t.header_len != bth.len() {
            // Payload bytes may not straddle the head/payload boundary.
            return Err(PacketError::Malformed);
        }
        let raw = RawParts {
            eth,
            ip,
            bth_off: 0,
            bth_len: 0,
            stored: 0,
        };
        Ok(Self::assemble(&raw, t, payload.clone()))
    }

    fn assemble(raw: &RawParts, t: Transport, payload: Bytes) -> RocePacket {
        RocePacket {
            src_mac: raw.eth.src,
            dst_mac: raw.eth.dst,
            src_ip: raw.ip.src,
            dst_ip: raw.ip.dst,
            opcode: t.opcode,
            dest_qp: t.dest_qp,
            psn: t.psn,
            ack_req: t.ack_req,
            reth: t.reth,
            aeth: t.aeth,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(opcode: BthOpcode, payload: &[u8]) -> RocePacket {
        RocePacket {
            src_mac: MacAddr::node(1),
            dst_mac: MacAddr::node(2),
            src_ip: [10, 1, 0, 1],
            dst_ip: [10, 1, 0, 2],
            opcode,
            dest_qp: 0x1234,
            psn: 77,
            ack_req: true,
            reth: opcode
                .has_reth()
                .then_some((0xDEAD_BEEF_0000, 0x42, payload.len() as u32)),
            aeth: opcode.has_aeth().then_some((AethSyndrome::Ack, 5)),
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn serialize_parse_roundtrip_all_opcodes() {
        use BthOpcode::*;
        for op in [
            SendFirst,
            SendMiddle,
            SendLast,
            SendOnly,
            WriteFirst,
            WriteMiddle,
            WriteLast,
            WriteOnly,
            ReadRequest,
            ReadRespFirst,
            ReadRespMiddle,
            ReadRespLast,
            ReadRespOnly,
            Ack,
        ] {
            let pkt = sample(op, b"payload bytes here");
            let wire = pkt.serialize();
            let parsed = RocePacket::parse(&wire).unwrap_or_else(|e| panic!("{op:?}: {e}"));
            assert_eq!(parsed, pkt, "{op:?}");
        }
    }

    #[test]
    fn corrupt_payload_fails_icrc() {
        let pkt = sample(BthOpcode::SendOnly, &[9u8; 256]);
        let mut wire = pkt.serialize();
        let n = wire.len();
        wire[n - 40] ^= 0x80;
        assert_eq!(RocePacket::parse(&wire), Err(PacketError::BadIcrc));
    }

    #[test]
    fn router_rewrites_keep_icrc_valid() {
        // A router decrements TTL and fixes the IP checksum; the receiver
        // must still accept the packet.
        let pkt = sample(BthOpcode::WriteOnly, b"data");
        let mut wire = pkt.serialize();
        let ip_start = EthernetHdr::LEN;
        wire[ip_start + 8] -= 1; // TTL.
        wire[ip_start + 10] = 0;
        wire[ip_start + 11] = 0;
        let csum = crate::headers::ipv4_checksum(&wire[ip_start..ip_start + Ipv4Hdr::LEN]);
        wire[ip_start + 10..ip_start + 12].copy_from_slice(&csum.to_be_bytes());
        let parsed = RocePacket::parse(&wire).unwrap();
        assert_eq!(parsed.payload, pkt.payload);
    }

    #[test]
    fn non_roce_udp_rejected() {
        let pkt = sample(BthOpcode::SendOnly, b"x");
        let mut wire = pkt.serialize();
        // Rewrite the UDP destination port and patch nothing else; the
        // parser must classify before checking the ICRC.
        let udp_start = EthernetHdr::LEN + Ipv4Hdr::LEN;
        wire[udp_start + 2] = 0;
        wire[udp_start + 3] = 80;
        assert_eq!(RocePacket::parse(&wire), Err(PacketError::NotRoce));
    }

    #[test]
    fn empty_payload_packets() {
        let pkt = sample(BthOpcode::Ack, b"");
        let parsed = RocePacket::parse(&pkt.serialize()).unwrap();
        assert!(parsed.payload.is_empty());
        assert_eq!(parsed.aeth, Some((AethSyndrome::Ack, 5)));
    }

    #[test]
    fn psn_is_24_bits() {
        let mut pkt = sample(BthOpcode::SendOnly, b"x");
        pkt.psn = 0x01FF_FFFF; // Bit 24 set: must truncate on the wire.
        let parsed = RocePacket::parse(&pkt.serialize()).unwrap();
        assert_eq!(parsed.psn, 0x00FF_FFFF);
    }
}
