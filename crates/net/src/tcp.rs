//! A TCP/IP stack: the second of BALBOA's "available network stacks
//! (RDMA, TCP/IP)" (§8, Table 1).
//!
//! A compact but real TCP over the same Ethernet/IPv4 layer the RoCE v2
//! stack uses: three-way handshake, MSS segmentation, cumulative ACKs with
//! go-back-N retransmission, out-of-order reassembly, receive-window flow
//! control, FIN/RST teardown. Like [`crate::qp`], the state machines are
//! pure — callers pump `poll_tx` / `on_segment` / `on_timeout` — so the
//! protocol is fully unit-testable without a network.

use crate::headers::{ipv4_checksum, EthernetHdr, Ipv4Hdr, MacAddr};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// TCP protocol number in IPv4.
pub const PROTO_TCP: u8 = 6;
/// Maximum segment size (fits one 4 KB shell packet with headers).
pub const MSS: usize = 1460;
/// Default receive window in bytes.
pub const DEFAULT_WINDOW: u32 = 64 * 1024;

bitflags_lite! {
    /// TCP flag bits (subset).
    pub struct TcpFlags: u8 {
        const FIN = 0x01;
        const SYN = 0x02;
        const RST = 0x04;
        const PSH = 0x08;
        const ACK = 0x10;
    }
}

/// Minimal bitflags without the external crate.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $(const $flag:ident = $value:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name(pub $ty);
        impl $name {
            $(
                pub const $flag: $name = $name($value);
            )*
            /// No flags.
            pub const fn empty() -> $name { $name(0) }
            /// Whether all bits of `other` are set.
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
        }
        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }
    };
}
use bitflags_lite;

/// A TCP segment (transport header + payload), IP/Ethernet added at the
/// stack boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number (valid with ACK).
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u32,
    /// Payload.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// Header length (no options).
    pub const HEADER_LEN: usize = 20;

    /// Serialize with a valid checksum over the IPv4 pseudo-header.
    pub fn serialize(&self, src_ip: [u8; 4], dst_ip: [u8; 4]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(5 << 4); // Data offset 5 words.
        out.push(self.flags.0);
        // Window scaled down to 16 bits.
        out.extend_from_slice(&(self.window.min(0xFFFF) as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]); // Checksum placeholder.
        out.extend_from_slice(&[0, 0]); // Urgent pointer.
        out.extend_from_slice(&self.payload);
        let csum = tcp_checksum(src_ip, dst_ip, &out);
        out[16..18].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Parse and verify the checksum.
    pub fn parse(data: &[u8], src_ip: [u8; 4], dst_ip: [u8; 4]) -> Option<TcpSegment> {
        if data.len() < Self::HEADER_LEN {
            return None;
        }
        if tcp_checksum(src_ip, dst_ip, data) != 0 {
            return None; // Corrupt.
        }
        let offset = (data[12] >> 4) as usize * 4;
        if offset < Self::HEADER_LEN || offset > data.len() {
            return None;
        }
        Some(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]) as u32,
            payload: data[offset..].to_vec(),
        })
    }
}

/// Ones-complement checksum over the TCP pseudo-header + segment.
fn tcp_checksum(src_ip: [u8; 4], dst_ip: [u8; 4], segment: &[u8]) -> u16 {
    let mut pseudo = Vec::with_capacity(12 + segment.len());
    pseudo.extend_from_slice(&src_ip);
    pseudo.extend_from_slice(&dst_ip);
    pseudo.push(0);
    pseudo.push(PROTO_TCP);
    pseudo.extend_from_slice(&(segment.len() as u16).to_be_bytes());
    pseudo.extend_from_slice(segment);
    ipv4_checksum(&pseudo)
}

/// Connection states (RFC 793 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open, waiting for SYN.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN+ACK sent.
    SynRcvd,
    /// Data may flow.
    Established,
    /// We closed first; FIN sent.
    FinWait1,
    /// Our FIN acked; waiting for theirs.
    FinWait2,
    /// They closed first; we can still send.
    CloseWait,
    /// We closed after them; FIN sent.
    LastAck,
    /// Both sides closed.
    TimeWait,
}

/// One endpoint of a connection.
#[derive(Debug)]
pub struct TcpSocket {
    /// Local port.
    pub local_port: u16,
    /// Remote port (0 while listening).
    pub remote_port: u16,
    state: TcpState,
    // Send side.
    snd_una: u32,
    snd_nxt: u32,
    send_buf: VecDeque<u8>,
    /// Segments sent but unacknowledged: (seq, payload, fin).
    inflight: VecDeque<(u32, Vec<u8>, bool)>,
    peer_window: u32,
    fin_queued: bool,
    fin_sent: bool,
    // Receive side.
    rcv_nxt: u32,
    recv_buf: Vec<u8>,
    /// Out-of-order segments by sequence number.
    ooo: BTreeMap<u32, Vec<u8>>,
    peer_fin_seq: Option<u32>,
    ack_pending: bool,
    // Stats.
    retransmits: u64,
}

impl TcpSocket {
    fn new(local_port: u16, remote_port: u16, state: TcpState, isn: u32) -> TcpSocket {
        TcpSocket {
            local_port,
            remote_port,
            state,
            snd_una: isn,
            snd_nxt: isn,
            send_buf: VecDeque::new(),
            inflight: VecDeque::new(),
            peer_window: DEFAULT_WINDOW,
            fin_queued: false,
            fin_sent: false,
            rcv_nxt: 0,
            recv_buf: Vec::new(),
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            ack_pending: false,
            retransmits: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Retransmitted segments so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Queue application data for transmission.
    pub fn send(&mut self, data: &[u8]) {
        assert!(
            matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynRcvd
            ),
            "send on a closed socket"
        );
        self.send_buf.extend(data.iter().copied());
    }

    /// Take everything received so far, in order.
    pub fn recv(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.recv_buf)
    }

    /// Start an orderly close (FIN after all queued data).
    pub fn close(&mut self) {
        match self.state {
            TcpState::Established | TcpState::SynRcvd => {
                self.fin_queued = true;
                self.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.fin_queued = true;
                self.state = TcpState::LastAck;
            }
            _ => {}
        }
    }

    /// True once the connection is fully terminated.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, TcpState::Closed | TcpState::TimeWait)
    }

    fn seg(&self, flags: TcpFlags, seq: u32, payload: Vec<u8>) -> TcpSegment {
        TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: DEFAULT_WINDOW,
            payload,
        }
    }

    /// Gather segments to transmit: handshake, data within the peer's
    /// window, FIN, pending ACKs.
    pub fn poll_tx(&mut self) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        match self.state {
            TcpState::SynSent if self.snd_nxt == self.snd_una => {
                // (Re)send SYN.
                out.push(self.seg(TcpFlags::SYN, self.snd_una, Vec::new()));
                self.snd_nxt = self.snd_una.wrapping_add(1);
                self.inflight.push_back((self.snd_una, Vec::new(), false));
            }
            TcpState::Established
            | TcpState::CloseWait
            | TcpState::FinWait1
            | TcpState::LastAck => {
                // Data segments, bounded by the peer's advertised window.
                let mut in_window = self
                    .peer_window
                    .saturating_sub(self.snd_nxt.wrapping_sub(self.snd_una));
                while !self.send_buf.is_empty() && in_window > 0 {
                    let n = MSS.min(self.send_buf.len()).min(in_window as usize);
                    let payload: Vec<u8> = self.send_buf.drain(..n).collect();
                    out.push(self.seg(
                        TcpFlags::ACK | TcpFlags::PSH,
                        self.snd_nxt,
                        payload.clone(),
                    ));
                    self.inflight.push_back((self.snd_nxt, payload, false));
                    self.snd_nxt = self.snd_nxt.wrapping_add(n as u32);
                    in_window -= n as u32;
                    self.ack_pending = false;
                }
                // FIN once the buffer drained.
                if self.fin_queued && !self.fin_sent && self.send_buf.is_empty() {
                    out.push(self.seg(TcpFlags::FIN | TcpFlags::ACK, self.snd_nxt, Vec::new()));
                    self.inflight.push_back((self.snd_nxt, Vec::new(), true));
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.fin_sent = true;
                    self.ack_pending = false;
                }
            }
            _ => {}
        }
        if self.ack_pending {
            out.push(self.seg(TcpFlags::ACK, self.snd_nxt, Vec::new()));
            self.ack_pending = false;
        }
        out
    }

    /// Retransmission timer: resend everything in flight (go-back-N).
    pub fn on_timeout(&mut self) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        for (seq, payload, fin) in &self.inflight {
            let flags = if *fin {
                TcpFlags::FIN | TcpFlags::ACK
            } else if payload.is_empty() && self.state == TcpState::SynSent {
                TcpFlags::SYN
            } else {
                TcpFlags::ACK | TcpFlags::PSH
            };
            out.push(TcpSegment {
                src_port: self.local_port,
                dst_port: self.remote_port,
                seq: *seq,
                ack: self.rcv_nxt,
                flags,
                window: DEFAULT_WINDOW,
                payload: payload.clone(),
            });
            self.retransmits += 1;
        }
        out
    }

    /// Handle a received segment addressed to this socket.
    pub fn on_segment(&mut self, seg: &TcpSegment) {
        self.peer_window = seg.window.max(1);
        // RST tears everything down.
        if seg.flags.contains(TcpFlags::RST) {
            self.state = TcpState::Closed;
            return;
        }
        // ACK processing: drop acknowledged in-flight segments.
        if seg.flags.contains(TcpFlags::ACK) {
            let ack = seg.ack;
            while let Some((s, p, fin)) = self.inflight.front() {
                let end = s.wrapping_add(p.len().max(usize::from(*fin || p.is_empty())) as u32);
                // SYN and FIN occupy one sequence number; data its length.
                let consumed = if p.is_empty() { s.wrapping_add(1) } else { end };
                if seq_leq(consumed, ack) {
                    self.inflight.pop_front();
                } else {
                    break;
                }
            }
            if seq_leq(self.snd_una, ack) {
                self.snd_una = ack;
            }
            // State transitions driven by our FIN being acked.
            match self.state {
                TcpState::SynSent | TcpState::SynRcvd => {}
                TcpState::FinWait1 if self.fin_sent && ack == self.snd_nxt => {
                    self.state = TcpState::FinWait2;
                }
                TcpState::LastAck if self.fin_sent && ack == self.snd_nxt => {
                    self.state = TcpState::Closed;
                }
                _ => {}
            }
        }
        match self.state {
            TcpState::SynSent
                if seg.flags.contains(TcpFlags::SYN) && seg.flags.contains(TcpFlags::ACK) =>
            {
                self.rcv_nxt = seg.seq.wrapping_add(1);
                self.state = TcpState::Established;
                self.ack_pending = true;
            }
            TcpState::SynRcvd => {
                if seg.flags.contains(TcpFlags::ACK) {
                    self.state = TcpState::Established;
                }
                self.absorb_data(seg);
            }
            TcpState::Established
            | TcpState::FinWait1
            | TcpState::FinWait2
            | TcpState::CloseWait
            | TcpState::LastAck => {
                self.absorb_data(seg);
            }
            _ => {}
        }
        // Their FIN.
        if seg.flags.contains(TcpFlags::FIN) {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            self.peer_fin_seq = Some(fin_seq);
        }
        if let Some(fin_seq) = self.peer_fin_seq {
            if self.rcv_nxt == fin_seq {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.ack_pending = true;
                self.state = match self.state {
                    TcpState::Established => TcpState::CloseWait,
                    TcpState::FinWait1 => TcpState::TimeWait, // Simultaneous close.
                    TcpState::FinWait2 => TcpState::TimeWait,
                    s => s,
                };
                self.peer_fin_seq = None;
            }
        }
    }

    fn absorb_data(&mut self, seg: &TcpSegment) {
        if seg.payload.is_empty() {
            return;
        }
        if seg.seq == self.rcv_nxt {
            self.recv_buf.extend_from_slice(&seg.payload);
            self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
            // Drain any out-of-order segments that became contiguous.
            while let Some((&s, _)) = self.ooo.iter().next() {
                if s != self.rcv_nxt {
                    if seq_leq(s.wrapping_add(1), self.rcv_nxt) {
                        // Fully duplicate; drop.
                        self.ooo.remove(&s);
                        continue;
                    }
                    break;
                }
                let p = self.ooo.remove(&s).expect("key just seen");
                self.rcv_nxt = self.rcv_nxt.wrapping_add(p.len() as u32);
                self.recv_buf.extend_from_slice(&p);
            }
            self.ack_pending = true;
        } else if seq_leq(self.rcv_nxt, seg.seq) {
            // Future segment: buffer for reassembly, ACK the gap.
            self.ooo.insert(seg.seq, seg.payload.clone());
            self.ack_pending = true;
        } else {
            // Duplicate of already-delivered data: re-ACK.
            self.ack_pending = true;
        }
    }
}

/// seq a <= b in 32-bit wraparound arithmetic.
fn seq_leq(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) < 0x8000_0000
}

/// A host's TCP stack: sockets demuxed by (local port, remote port), framed
/// over the same Ethernet/IPv4 layer as RoCE.
pub struct TcpStack {
    mac: MacAddr,
    ip: [u8; 4],
    sockets: BTreeMap<(u16, u16), TcpSocket>,
    listeners: HashMap<u16, ()>,
    /// Peer L2/L3 addresses by remote port (learned from SYNs / configured
    /// at connect).
    peers: HashMap<u16, (MacAddr, [u8; 4])>,
    isn: u32,
}

impl TcpStack {
    /// A stack bound to one interface.
    pub fn new(mac: MacAddr, ip: [u8; 4]) -> TcpStack {
        TcpStack {
            mac,
            ip,
            sockets: BTreeMap::new(),
            listeners: HashMap::new(),
            peers: HashMap::new(),
            isn: 0x1000,
        }
    }

    /// Passive open.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port, ());
    }

    /// Active open to `remote` at `(mac, ip)`.
    pub fn connect(
        &mut self,
        local_port: u16,
        remote_port: u16,
        remote_mac: MacAddr,
        remote_ip: [u8; 4],
    ) -> (u16, u16) {
        self.isn = self.isn.wrapping_add(0x10_0000);
        let sock = TcpSocket::new(local_port, remote_port, TcpState::SynSent, self.isn);
        self.sockets.insert((local_port, remote_port), sock);
        self.peers.insert(remote_port, (remote_mac, remote_ip));
        (local_port, remote_port)
    }

    /// Access a socket.
    pub fn socket(&mut self, key: (u16, u16)) -> Option<&mut TcpSocket> {
        self.sockets.get_mut(&key)
    }

    /// Frame a segment for the wire.
    fn frame(&self, seg: &TcpSegment, dst_mac: MacAddr, dst_ip: [u8; 4]) -> Vec<u8> {
        let tcp = seg.serialize(self.ip, dst_ip);
        let ip = Ipv4Hdr {
            src: self.ip,
            dst: dst_ip,
            payload_len: tcp.len() as u16,
            protocol: PROTO_TCP,
            ttl: 64,
            tos: 0,
        };
        let eth = EthernetHdr {
            dst: dst_mac,
            src: self.mac,
            ethertype: EthernetHdr::ETHERTYPE_IPV4,
        };
        let mut out = Vec::with_capacity(EthernetHdr::LEN + Ipv4Hdr::LEN + tcp.len());
        eth.write(&mut out);
        ip.write(&mut out);
        out.extend_from_slice(&tcp);
        out
    }

    /// Gather outbound frames from every socket.
    pub fn poll_tx(&mut self) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let keys: Vec<(u16, u16)> = self.sockets.keys().copied().collect();
        for key in keys {
            let peer = self.peers.get(&key.1).copied();
            let segs = self.sockets.get_mut(&key).expect("key exists").poll_tx();
            if let Some((mac, ip)) = peer {
                for seg in segs {
                    frames.push(self.frame(&seg, mac, ip));
                }
            }
        }
        frames
    }

    /// Retransmission timers for every socket.
    pub fn on_timeout(&mut self) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let keys: Vec<(u16, u16)> = self.sockets.keys().copied().collect();
        for key in keys {
            let peer = self.peers.get(&key.1).copied();
            let segs = self.sockets.get_mut(&key).expect("key exists").on_timeout();
            if let Some((mac, ip)) = peer {
                for seg in segs {
                    frames.push(self.frame(&seg, mac, ip));
                }
            }
        }
        frames
    }

    /// Deliver a received frame; returns response frames (e.g. SYN+ACK,
    /// RST for unknown ports).
    pub fn on_wire(&mut self, frame: &[u8]) -> Vec<Vec<u8>> {
        let Some((eth, rest)) = EthernetHdr::parse(frame) else {
            return Vec::new();
        };
        if eth.ethertype != EthernetHdr::ETHERTYPE_IPV4 {
            return Vec::new();
        }
        let Some((ip, tcp_bytes)) = Ipv4Hdr::parse(rest) else {
            return Vec::new();
        };
        if ip.protocol != PROTO_TCP || ip.dst != self.ip {
            return Vec::new();
        }
        let Some(seg) = TcpSegment::parse(tcp_bytes, ip.src, ip.dst) else {
            return Vec::new(); // Checksum failure: dropped.
        };
        let key = (seg.dst_port, seg.src_port);
        self.peers.insert(seg.src_port, (eth.src, ip.src));
        if let Some(sock) = self.sockets.get_mut(&key) {
            sock.on_segment(&seg);
            return Vec::new(); // Responses flow via poll_tx.
        }
        // New connection to a listener?
        if seg.flags.contains(TcpFlags::SYN) && self.listeners.contains_key(&seg.dst_port) {
            self.isn = self.isn.wrapping_add(0x10_0000);
            let mut sock = TcpSocket::new(seg.dst_port, seg.src_port, TcpState::SynRcvd, self.isn);
            sock.rcv_nxt = seg.seq.wrapping_add(1);
            let synack = TcpSegment {
                src_port: seg.dst_port,
                dst_port: seg.src_port,
                seq: sock.snd_una,
                ack: sock.rcv_nxt,
                flags: TcpFlags::SYN | TcpFlags::ACK,
                window: DEFAULT_WINDOW,
                payload: Vec::new(),
            };
            sock.snd_nxt = sock.snd_una.wrapping_add(1);
            sock.inflight.push_back((sock.snd_una, Vec::new(), false));
            self.sockets.insert(key, sock);
            return vec![self.frame(&synack, eth.src, ip.src)];
        }
        // Unknown port: RST.
        let rst = TcpSegment {
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: seg.ack,
            ack: seg.seq.wrapping_add(seg.payload.len() as u32 + 1),
            flags: TcpFlags::RST | TcpFlags::ACK,
            window: 0,
            payload: Vec::new(),
        };
        vec![self.frame(&rst, eth.src, ip.src)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpStack, TcpStack) {
        (
            TcpStack::new(MacAddr::node(1), [10, 0, 0, 1]),
            TcpStack::new(MacAddr::node(2), [10, 0, 0, 2]),
        )
    }

    /// Shuttle frames between two stacks until quiescent, dropping by
    /// predicate.
    fn pump<F: FnMut(&[u8]) -> bool>(a: &mut TcpStack, b: &mut TcpStack, mut drop: F) {
        for _round in 0..200 {
            let mut any = false;
            let deliver =
                |frames: Vec<Vec<u8>>, to: &mut TcpStack, back: &mut Vec<Vec<u8>>, drop: &mut F| {
                    for f in frames {
                        if drop(&f) {
                            continue;
                        }
                        back.extend(to.on_wire(&f));
                    }
                };
            let mut backlog_b = Vec::new();
            let fa = a.poll_tx();
            any |= !fa.is_empty();
            deliver(fa, b, &mut backlog_b, &mut drop);
            let mut backlog_a = Vec::new();
            let fb = b.poll_tx();
            any |= !fb.is_empty();
            deliver(fb, a, &mut backlog_a, &mut drop);
            // Immediate responses (SYN+ACK, RST).
            any |= !backlog_a.is_empty() || !backlog_b.is_empty();
            for f in backlog_b {
                if !drop(&f) {
                    for r in a.on_wire(&f) {
                        b.on_wire(&r);
                    }
                }
            }
            for f in backlog_a {
                if !drop(&f) {
                    for r in b.on_wire(&f) {
                        a.on_wire(&r);
                    }
                }
            }
            if !any {
                break;
            }
        }
    }

    #[test]
    fn segment_roundtrip_with_checksum() {
        let seg = TcpSegment {
            src_port: 5000,
            dst_port: 80,
            seq: 0x01020304,
            ack: 0x0A0B0C0D,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 32_000,
            payload: b"hello tcp".to_vec(),
        };
        let bytes = seg.serialize([1, 2, 3, 4], [5, 6, 7, 8]);
        let parsed = TcpSegment::parse(&bytes, [1, 2, 3, 4], [5, 6, 7, 8]).unwrap();
        assert_eq!(parsed, seg);
        // Corruption fails the checksum.
        let mut bad = bytes.clone();
        bad[25] ^= 1;
        assert!(TcpSegment::parse(&bad, [1, 2, 3, 4], [5, 6, 7, 8]).is_none());
        // Wrong pseudo-header (different IPs) also fails.
        assert!(TcpSegment::parse(&bytes, [9, 9, 9, 9], [5, 6, 7, 8]).is_none());
    }

    #[test]
    fn three_way_handshake() {
        let (mut a, mut b) = pair();
        b.listen(80);
        let key_a = a.connect(5000, 80, MacAddr::node(2), [10, 0, 0, 2]);
        pump(&mut a, &mut b, |_| false);
        assert_eq!(a.socket(key_a).unwrap().state(), TcpState::Established);
        assert_eq!(b.socket((80, 5000)).unwrap().state(), TcpState::Established);
    }

    #[test]
    fn bidirectional_data_transfer() {
        let (mut a, mut b) = pair();
        b.listen(80);
        let ka = a.connect(5000, 80, MacAddr::node(2), [10, 0, 0, 2]);
        pump(&mut a, &mut b, |_| false);
        let req: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        a.socket(ka).unwrap().send(&req);
        pump(&mut a, &mut b, |_| false);
        let kb = (80, 5000);
        assert_eq!(b.socket(kb).unwrap().recv(), req);
        let resp = vec![0x55u8; 5000];
        b.socket(kb).unwrap().send(&resp);
        pump(&mut a, &mut b, |_| false);
        assert_eq!(a.socket(ka).unwrap().recv(), resp);
    }

    #[test]
    fn loss_recovers_by_retransmission() {
        let (mut a, mut b) = pair();
        b.listen(80);
        let ka = a.connect(5000, 80, MacAddr::node(2), [10, 0, 0, 2]);
        pump(&mut a, &mut b, |_| false);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 239) as u8).collect();
        a.socket(ka).unwrap().send(&data);
        // Drop every third frame on the first pass.
        let mut n = 0;
        pump(&mut a, &mut b, |_| {
            n += 1;
            n % 3 == 0
        });
        // Fire the retransmission timer until everything lands.
        for _ in 0..20 {
            let frames = a.on_timeout();
            for f in frames {
                for r in b.on_wire(&f) {
                    a.on_wire(&r);
                }
            }
            pump(&mut a, &mut b, |_| false);
            if b.socket((80, 5000)).map(|s| s.recv_buf.len()).unwrap_or(0) >= data.len() {
                break;
            }
        }
        assert_eq!(b.socket((80, 5000)).unwrap().recv(), data);
        assert!(a.socket(ka).unwrap().retransmits() > 0);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut sock = TcpSocket::new(80, 5000, TcpState::Established, 100);
        sock.rcv_nxt = 0;
        let seg = |seq: u32, payload: &[u8]| TcpSegment {
            src_port: 5000,
            dst_port: 80,
            seq,
            ack: 0,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: DEFAULT_WINDOW,
            payload: payload.to_vec(),
        };
        // Deliver 10..20 before 0..10.
        sock.on_segment(&seg(10, b"0123456789"));
        assert!(sock.recv().is_empty(), "gap holds delivery");
        sock.on_segment(&seg(0, b"abcdefghij"));
        assert_eq!(sock.recv(), b"abcdefghij0123456789");
    }

    #[test]
    fn duplicate_segments_ignored() {
        let mut sock = TcpSocket::new(80, 5000, TcpState::Established, 100);
        sock.rcv_nxt = 0;
        let seg = TcpSegment {
            src_port: 5000,
            dst_port: 80,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: DEFAULT_WINDOW,
            payload: b"dup".to_vec(),
        };
        sock.on_segment(&seg);
        sock.on_segment(&seg);
        assert_eq!(sock.recv(), b"dup");
    }

    #[test]
    fn orderly_teardown() {
        let (mut a, mut b) = pair();
        b.listen(80);
        let ka = a.connect(5000, 80, MacAddr::node(2), [10, 0, 0, 2]);
        pump(&mut a, &mut b, |_| false);
        a.socket(ka).unwrap().send(b"bye");
        a.socket(ka).unwrap().close();
        pump(&mut a, &mut b, |_| false);
        let kb = (80, 5000);
        assert_eq!(b.socket(kb).unwrap().recv(), b"bye");
        assert_eq!(b.socket(kb).unwrap().state(), TcpState::CloseWait);
        b.socket(kb).unwrap().close();
        pump(&mut a, &mut b, |_| false);
        assert!(
            a.socket(ka).unwrap().is_closed(),
            "{:?}",
            a.socket(ka).unwrap().state()
        );
        assert!(
            b.socket(kb).unwrap().is_closed(),
            "{:?}",
            b.socket(kb).unwrap().state()
        );
    }

    #[test]
    fn rst_on_unknown_port() {
        let (mut a, mut b) = pair();
        // No listener on b.
        let ka = a.connect(5000, 81, MacAddr::node(2), [10, 0, 0, 2]);
        let syn = a.poll_tx();
        assert_eq!(syn.len(), 1);
        let rst = b.on_wire(&syn[0]);
        assert_eq!(rst.len(), 1);
        a.on_wire(&rst[0]);
        assert_eq!(a.socket(ka).unwrap().state(), TcpState::Closed);
    }

    #[test]
    fn window_limits_inflight_bytes() {
        let mut sock = TcpSocket::new(5000, 80, TcpState::Established, 0);
        sock.peer_window = 3000; // Two MSS + change.
        sock.send(&vec![1u8; 100_000]);
        let first = sock.poll_tx();
        let sent: usize = first.iter().map(|s| s.payload.len()).sum();
        assert!(sent <= 3000, "sent {sent} past the window");
        assert!(sock.poll_tx().is_empty(), "window exhausted");
        // An ACK opening the window releases more.
        let ack = TcpSegment {
            src_port: 80,
            dst_port: 5000,
            seq: 0,
            ack: sent as u32,
            flags: TcpFlags::ACK,
            window: 10_000,
            payload: Vec::new(),
        };
        sock.on_segment(&ack);
        assert!(!sock.poll_tx().is_empty());
    }
}
