//! Reliable-connection (RC) queue pairs: segmentation, PSN tracking,
//! acknowledgements and go-back-N retransmission.
//!
//! Both endpoints of the paper's interop story — the FPGA shell's BALBOA
//! stack and a commodity NIC — are instances of [`QueuePair`] operating on
//! their own memory through the [`RdmaMemory`] trait (the shell wires it to
//! MMU-translated host memory, `CommodityNic` to plain buffers).
//!
//! The state machine is pure (no simulated time inside): callers pump
//! [`QueuePair::poll_tx`] for packets to put on the wire, feed received
//! packets to [`QueuePair::on_rx`], and invoke [`QueuePair::on_timeout`]
//! when their retransmission timer fires. This keeps the protocol
//! unit-testable without a network.
//!
//! Simplification: PSNs are assumed not to wrap within a simulation run
//! (24-bit space, < 16M packets per QP), which every experiment satisfies.
//!
//! A WRITE fragment or READ request outside the responder's memory is
//! answered with a remote-access NAK, and its work request completes with
//! an error. Unlike a full RC stack, the responder QP stays usable
//! afterwards. A retransmitted READ is refused again. So is a retransmitted
//! WRITE fragment at the PSN the responder last refused, and the rest of
//! that WRITE's message is answered with the same NAK instead of an ACK:
//! the requester's timeout repeats a lost NAK. Only an ACK for a later
//! message covers the refused PSN; if every NAK is lost before that ACK
//! arrives, the WRITE completes `Ok`.

use crate::frame::{count_payload_copy, Frame};
use crate::headers::MacAddr;
use crate::packet::{AethSyndrome, BthOpcode, RocePacket};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// Access to the memory a QP reads payloads from / writes payloads into.
pub trait RdmaMemory {
    /// Read `len` bytes at `vaddr`.
    fn read(&self, vaddr: u64, len: usize) -> Result<Vec<u8>, String>;
    /// Write `data` at `vaddr`.
    fn write(&mut self, vaddr: u64, data: &[u8]) -> Result<(), String>;

    /// Read `len` bytes at `vaddr` as shared bytes. The QP stages a whole
    /// message through this once and carves MTU segments as zero-copy
    /// slices, so implementations backed by owned buffers should avoid
    /// intermediate copies where they can. The default wraps [`Self::read`]
    /// (one DMA-equivalent copy out of the memory, never more).
    fn read_bytes(&self, vaddr: u64, len: usize) -> Result<Bytes, String> {
        self.read(vaddr, len).map(Bytes::from)
    }

    /// Read exactly `buf.len()` bytes at `vaddr` into a caller-provided
    /// buffer, skipping the intermediate `Vec` of [`Self::read`].
    fn read_into(&self, vaddr: u64, buf: &mut [u8]) -> Result<(), String> {
        let data = self.read(vaddr, buf.len())?;
        buf.copy_from_slice(&data);
        Ok(())
    }
}

/// Plain-buffer memory for tests and the software NIC.
impl RdmaMemory for Vec<u8> {
    fn read(&self, vaddr: u64, len: usize) -> Result<Vec<u8>, String> {
        let start = vaddr as usize;
        self.get(start..start + len)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| format!("oob read at {vaddr:#x}"))
    }

    fn write(&mut self, vaddr: u64, data: &[u8]) -> Result<(), String> {
        let start = vaddr as usize;
        let end = start + data.len();
        if end > self.len() {
            return Err(format!("oob write at {vaddr:#x}"));
        }
        self[start..end].copy_from_slice(data);
        Ok(())
    }

    fn read_into(&self, vaddr: u64, buf: &mut [u8]) -> Result<(), String> {
        let start = vaddr as usize;
        let src = self
            .get(start..start + buf.len())
            .ok_or_else(|| format!("oob read at {vaddr:#x}"))?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

/// Connection parameters of one QP.
#[derive(Debug, Clone)]
pub struct QpConfig {
    /// Local queue pair number.
    pub qpn: u32,
    /// Remote queue pair number.
    pub remote_qpn: u32,
    /// Local MAC.
    pub src_mac: MacAddr,
    /// Remote MAC.
    pub dst_mac: MacAddr,
    /// Local IP.
    pub src_ip: [u8; 4],
    /// Remote IP.
    pub dst_ip: [u8; 4],
    /// Path MTU (payload bytes per packet).
    pub mtu: usize,
    /// Maximum outstanding (unacknowledged) packets.
    pub window: usize,
}

/// A connection parameter no queue pair can run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpConfigError {
    /// The MTU is not a power of two in `1..=ROCE_MTU`.
    BadMtu(usize),
    /// A window of zero packets: nothing can ever be in flight.
    ZeroWindow,
}

impl std::fmt::Display for QpConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpConfigError::BadMtu(mtu) => write!(
                f,
                "MTU {mtu} invalid: must be a power of two in 1..={}",
                coyote_sim::params::ROCE_MTU
            ),
            QpConfigError::ZeroWindow => write!(
                f,
                "retransmission window of 0 packets: no packet can ever be in flight"
            ),
        }
    }
}

impl std::error::Error for QpConfigError {}

impl QpConfig {
    /// Check the transport parameters: the MTU must be a power of two no
    /// larger than the RoCE maximum, and the window at least one packet.
    pub fn validate(&self) -> Result<(), QpConfigError> {
        if !self.mtu.is_power_of_two() || self.mtu > coyote_sim::params::ROCE_MTU {
            return Err(QpConfigError::BadMtu(self.mtu));
        }
        if self.window == 0 {
            return Err(QpConfigError::ZeroWindow);
        }
        Ok(())
    }

    /// A loopback-style config for tests, with the BALBOA defaults
    /// (4096 MTU, 64-deep window).
    pub fn pair(qpn_a: u32, qpn_b: u32) -> (QpConfig, QpConfig) {
        let a = QpConfig {
            qpn: qpn_a,
            remote_qpn: qpn_b,
            src_mac: MacAddr::node(1),
            dst_mac: MacAddr::node(2),
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            mtu: coyote_sim::params::ROCE_MTU,
            window: 64,
        };
        let b = QpConfig {
            qpn: qpn_b,
            remote_qpn: qpn_a,
            src_mac: a.dst_mac,
            dst_mac: a.src_mac,
            src_ip: a.dst_ip,
            dst_ip: a.src_ip,
            mtu: a.mtu,
            window: a.window,
        };
        (a, b)
    }
}

/// Work request verbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// Two-sided send; the payload is read from local memory at
    /// transmission time.
    Send {
        /// Local source address.
        local_vaddr: u64,
        /// Message length.
        len: u64,
    },
    /// One-sided RDMA write into remote virtual memory.
    Write {
        /// Remote destination address.
        remote_vaddr: u64,
        /// Local source address.
        local_vaddr: u64,
        /// Transfer length.
        len: u64,
    },
    /// One-sided RDMA read from remote virtual memory.
    Read {
        /// Remote source address.
        remote_vaddr: u64,
        /// Local destination address.
        local_vaddr: u64,
        /// Transfer length.
        len: u64,
    },
}

/// A completed work request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Caller-chosen work-request id.
    pub wr_id: u64,
    /// `Ok` or a fatal error string.
    pub status: Result<(), String>,
}

/// What `on_rx` produced.
#[derive(Debug, Default)]
pub struct RxAction {
    /// Packets the QP wants transmitted in response (ACKs, NAKs, read
    /// responses, retransmissions).
    pub tx: Vec<RocePacket>,
    /// Fully reassembled incoming SEND messages. A single-fragment message
    /// is the packet's shared payload slice; only multi-fragment messages
    /// are stitched into a fresh buffer.
    pub received: Vec<Bytes>,
}

/// Protocol counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct QpStats {
    /// Data packets sent (first transmissions).
    pub tx_packets: u64,
    /// Packets retransmitted (timeout or NAK).
    pub retransmits: u64,
    /// ACK/NAK packets sent.
    pub acks_sent: u64,
    /// Duplicate packets discarded at the responder.
    pub duplicates: u64,
    /// Out-of-order packets that triggered a NAK.
    pub naks_sent: u64,
    /// WRITE fragments and READ requests the responder refused with a
    /// remote-access NAK because they fall outside its memory.
    pub access_errors: u64,
}

#[derive(Debug, Clone)]
struct OutPkt {
    psn: u32,
    pkt: RocePacket,
    /// `Some(wr_id)`: acking this packet completes that WR.
    completes: Option<u64>,
    is_read_req: bool,
    /// The wire frame, built once (headers + ICRC) at first framing; a
    /// retransmission clones it instead of re-serializing.
    frame: Option<Frame>,
}

impl OutPkt {
    /// The cached wire frame, framing the packet on first use.
    fn frame_cached(&mut self) -> &Frame {
        self.frame.get_or_insert_with(|| self.pkt.to_frame())
    }
}

#[derive(Debug)]
struct PendingWqe {
    wr_id: u64,
    verb: Verb,
    offset: u64,
    /// The whole message, read from local memory once at the first segment;
    /// every MTU segment is a zero-copy slice of this buffer.
    staged: Option<Bytes>,
}

#[derive(Debug)]
struct ReadState {
    wr_id: u64,
    local_vaddr: u64,
    total_len: u64,
    frags: BTreeMap<u32, Bytes>,
    last_frag: Option<u32>,
}

#[derive(Debug)]
struct InMsg {
    is_send: bool,
    write_vaddr: u64,
    /// Bytes of this message written/collected so far.
    offset: u64,
    /// SEND fragments, stitched only at message end (and only when there is
    /// more than one). RDMA WRITE fragments go straight to memory instead.
    parts: Vec<Bytes>,
}

/// One RC queue pair.
#[derive(Debug)]
pub struct QueuePair {
    cfg: QpConfig,
    // Requester side.
    sq: VecDeque<PendingWqe>,
    next_psn: u32,
    outstanding: VecDeque<OutPkt>,
    reads: BTreeMap<u32, ReadState>,
    completions: VecDeque<Completion>,
    // Responder side.
    expect_psn: u32,
    cur_msg: Option<InMsg>,
    /// The PSN of the last WRITE fragment refused, NAK'd again when it or
    /// the rest of its message arrives.
    refused_write: Option<u32>,
    pending_tx: VecDeque<RocePacket>,
    stats: QpStats,
}

impl QueuePair {
    /// A fresh QP in the RTS state.
    pub fn new(cfg: QpConfig) -> QueuePair {
        QueuePair {
            cfg,
            sq: VecDeque::new(),
            next_psn: 0,
            outstanding: VecDeque::new(),
            reads: BTreeMap::new(),
            completions: VecDeque::new(),
            expect_psn: 0,
            cur_msg: None,
            refused_write: None,
            pending_tx: VecDeque::new(),
            stats: QpStats::default(),
        }
    }

    /// Connection parameters.
    pub fn config(&self) -> &QpConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> QpStats {
        self.stats
    }

    /// Post a work request.
    pub fn post(&mut self, wr_id: u64, verb: Verb) {
        self.sq.push_back(PendingWqe {
            wr_id,
            verb,
            offset: 0,
            staged: None,
        });
    }

    /// Unacknowledged packets in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Take finished completions.
    pub fn poll_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }

    fn base_packet(&self, opcode: BthOpcode, psn: u32) -> RocePacket {
        RocePacket {
            src_mac: self.cfg.src_mac,
            dst_mac: self.cfg.dst_mac,
            src_ip: self.cfg.src_ip,
            dst_ip: self.cfg.dst_ip,
            opcode,
            dest_qp: self.cfg.remote_qpn,
            psn,
            ack_req: false,
            reth: None,
            aeth: None,
            payload: Bytes::new(),
        }
    }

    /// Produce the next packets to transmit: responder-generated packets
    /// first, then new requester segments while window space remains.
    pub fn poll_tx<M: RdmaMemory>(&mut self, mem: &M) -> Vec<RocePacket> {
        let mut out: Vec<RocePacket> = self.pending_tx.drain(..).collect();
        while self.outstanding.len() < self.cfg.window {
            let Some(wqe) = self.sq.front_mut() else {
                break;
            };
            match &wqe.verb {
                Verb::Read {
                    remote_vaddr,
                    local_vaddr,
                    len,
                } => {
                    let psn = self.next_psn;
                    let (rv, lv, l) = (*remote_vaddr, *local_vaddr, *len);
                    let wr_id = wqe.wr_id;
                    self.next_psn += 1;
                    let mut pkt = self.base_packet(BthOpcode::ReadRequest, psn);
                    pkt.reth = Some((rv, 0, l as u32));
                    pkt.ack_req = true;
                    self.reads.insert(
                        psn,
                        ReadState {
                            wr_id,
                            local_vaddr: lv,
                            total_len: l,
                            frags: BTreeMap::new(),
                            last_frag: None,
                        },
                    );
                    self.outstanding.push_back(OutPkt {
                        psn,
                        pkt: pkt.clone(),
                        completes: None,
                        is_read_req: true,
                        frame: None,
                    });
                    self.stats.tx_packets += 1;
                    out.push(pkt);
                    self.sq.pop_front();
                }
                Verb::Send { local_vaddr, len }
                | Verb::Write {
                    local_vaddr, len, ..
                } => {
                    let is_send = matches!(wqe.verb, Verb::Send { .. });
                    let total = *len;
                    let lv = *local_vaddr;
                    let remote = match &wqe.verb {
                        Verb::Write { remote_vaddr, .. } => *remote_vaddr,
                        _ => 0,
                    };
                    let wr_id = wqe.wr_id;
                    let mtu = self.cfg.mtu as u64;
                    let off = wqe.offset;
                    let n = mtu.min(total - off);
                    let first = off == 0;
                    let last = off + n == total;
                    let opcode = match (is_send, first, last) {
                        (true, true, true) => BthOpcode::SendOnly,
                        (true, true, false) => BthOpcode::SendFirst,
                        (true, false, false) => BthOpcode::SendMiddle,
                        (true, false, true) => BthOpcode::SendLast,
                        (false, true, true) => BthOpcode::WriteOnly,
                        (false, true, false) => BthOpcode::WriteFirst,
                        (false, false, false) => BthOpcode::WriteMiddle,
                        (false, false, true) => BthOpcode::WriteLast,
                    };
                    // Stage the whole message out of local memory once; each
                    // MTU segment below is a zero-copy slice of it.
                    if wqe.staged.is_none() {
                        match mem.read_bytes(lv, total as usize) {
                            Ok(d) => wqe.staged = Some(d),
                            Err(e) => {
                                self.completions.push_back(Completion {
                                    wr_id,
                                    status: Err(e),
                                });
                                self.sq.pop_front();
                                continue;
                            }
                        }
                    }
                    let staged = wqe.staged.as_ref().expect("staged above");
                    let data = staged.slice(off as usize..(off + n) as usize);
                    let psn = self.next_psn;
                    self.next_psn += 1;
                    let mut pkt = self.base_packet(opcode, psn);
                    if opcode.has_reth() {
                        pkt.reth = Some((remote, 0, total as u32));
                    }
                    // Request an ACK at message end, and also on the packet
                    // that fills the window: a message longer than
                    // window x MTU would otherwise never elicit an ACK and
                    // the flow would stall with the window full.
                    pkt.ack_req = last || self.outstanding.len() + 1 >= self.cfg.window;
                    pkt.payload = data;
                    let completes = last.then_some(wr_id);
                    self.outstanding.push_back(OutPkt {
                        psn,
                        pkt: pkt.clone(),
                        completes,
                        is_read_req: false,
                        frame: None,
                    });
                    self.stats.tx_packets += 1;
                    out.push(pkt);
                    if last {
                        self.sq.pop_front();
                    } else {
                        self.sq.front_mut().expect("wqe still queued").offset += n;
                    }
                }
            }
        }
        out
    }

    /// Handle a received packet.
    pub fn on_rx<M: RdmaMemory>(&mut self, pkt: &RocePacket, mem: &mut M) -> RxAction {
        let mut action = RxAction::default();
        if pkt.dest_qp != self.cfg.qpn {
            return action; // Not ours; the shell's QP demux drops it.
        }
        match pkt.opcode {
            BthOpcode::Ack => self.on_ack(pkt),
            BthOpcode::ReadRespFirst
            | BthOpcode::ReadRespMiddle
            | BthOpcode::ReadRespLast
            | BthOpcode::ReadRespOnly => self.on_read_resp(pkt, mem),
            BthOpcode::ReadRequest => self.on_read_request(pkt, mem, &mut action),
            _ => self.on_data(pkt, mem, &mut action),
        }
        // Everything the handlers queued goes out with this action; callers
        // may also pick it up via the next poll_tx, whichever they pump.
        action.tx.extend(self.pending_tx.drain(..));
        action
    }

    fn on_ack(&mut self, pkt: &RocePacket) {
        let Some((syndrome, acked_psn)) = pkt.aeth else {
            return;
        };
        match syndrome {
            AethSyndrome::Ack => self.acknowledge(acked_psn),
            AethSyndrome::NakSequence => {
                // Go-back-N from the NAK'd PSN.
                for out in &self.outstanding {
                    if out.psn >= acked_psn {
                        self.pending_tx.push_back(out.pkt.clone());
                        self.stats.retransmits += 1;
                    }
                }
            }
            AethSyndrome::NakRemoteAccess => {
                // The responder consumed every PSN before the refused one.
                if let Some(before) = acked_psn.checked_sub(1) {
                    self.acknowledge(before);
                }
                self.on_refused(acked_psn);
            }
        }
    }

    /// Everything up to `acked_psn` reached the responder: retire it.
    fn acknowledge(&mut self, acked_psn: u32) {
        while let Some(front) = self.outstanding.front() {
            if front.psn <= acked_psn && !front.is_read_req {
                let done = self.outstanding.pop_front().expect("front exists");
                if let Some(wr_id) = done.completes {
                    self.completions.push_back(Completion {
                        wr_id,
                        status: Ok(()),
                    });
                }
            } else if front.psn <= acked_psn && front.is_read_req {
                // Reads complete on response data, not on ACK; but a
                // cumulative ACK past the request PSN means the
                // responder saw it. Keep it for timeout-based
                // recovery until the data arrives.
                break;
            } else {
                break;
            }
        }
    }

    /// The responder refused the packet at `psn`: fail its work request. The
    /// responder consumed that PSN, so the packet leaves the retransmit
    /// buffer; the WR's other sent fragments stay, to be acknowledged (or
    /// retransmitted) like any packet, but no longer complete it.
    fn on_refused(&mut self, psn: u32) {
        let Some(at) = self.outstanding.iter().position(|o| o.psn == psn) else {
            return; // Already failed: a repeated NAK.
        };
        let refused = self.outstanding.remove(at).expect("position is in range");
        let wr_id = if refused.is_read_req {
            self.reads.remove(&psn).map(|r| r.wr_id)
        } else {
            // A WR's fragments have consecutive PSNs and its last one
            // carries its id. While that one is unsent, the WR is still at
            // the head of the send queue and nothing after it has been sent.
            refused
                .completes
                .or_else(|| {
                    self.outstanding
                        .iter_mut()
                        .skip(at)
                        .find_map(|o| o.completes.take())
                })
                .or_else(|| {
                    let partly_sent = self.sq.front().is_some_and(|w| w.offset > 0);
                    partly_sent.then(|| self.sq.pop_front().expect("front exists").wr_id)
                })
        };
        if let Some(wr_id) = wr_id {
            self.completions.push_back(Completion {
                wr_id,
                status: Err(format!("remote access error at PSN {psn}")),
            });
        }
    }

    fn on_read_resp<M: RdmaMemory>(&mut self, pkt: &RocePacket, mem: &mut M) {
        let Some((_, req_psn)) = pkt.aeth else { return };
        let Some(state) = self.reads.get_mut(&req_psn) else {
            return; // Duplicate response after completion.
        };
        let frag_idx = pkt.psn;
        state.frags.insert(frag_idx, pkt.payload.clone());
        if matches!(
            pkt.opcode,
            BthOpcode::ReadRespLast | BthOpcode::ReadRespOnly
        ) {
            state.last_frag = Some(frag_idx);
        }
        let complete = state
            .last_frag
            .map(|last| state.frags.len() as u32 == last + 1)
            .unwrap_or(false);
        if complete {
            let state = self.reads.remove(&req_psn).expect("state present");
            let got: u64 = state.frags.values().map(|f| f.len() as u64).sum();
            let status = if got != state.total_len {
                Err(format!("short read: {got} of {}", state.total_len))
            } else {
                // Land each fragment directly at its offset — no
                // intermediate message-sized buffer.
                let mut off = state.local_vaddr;
                let mut status = Ok(());
                for frag in state.frags.values() {
                    if let Err(e) = mem.write(off, frag) {
                        status = Err(e);
                        break;
                    }
                    off += frag.len() as u64;
                }
                status
            };
            self.completions.push_back(Completion {
                wr_id: state.wr_id,
                status,
            });
            // Clear the request from the retransmit buffer.
            self.outstanding
                .retain(|o| !(o.is_read_req && o.psn == req_psn));
        }
    }

    fn on_read_request<M: RdmaMemory>(
        &mut self,
        pkt: &RocePacket,
        mem: &mut M,
        _action: &mut RxAction,
    ) {
        // Sequence handling mirrors on_data.
        if pkt.psn < self.expect_psn {
            self.stats.duplicates += 1;
            // Regenerate the responses: the requester likely lost them.
        } else if pkt.psn > self.expect_psn {
            self.queue_nak();
            return;
        } else {
            self.expect_psn += 1;
        }
        let Some((vaddr, _rkey, dmalen)) = pkt.reth else {
            return;
        };
        // One staged read of the requested region; response fragments are
        // zero-copy slices of it.
        let Ok(data) = mem.read_bytes(vaddr, dmalen as usize) else {
            self.refuse(pkt.psn);
            return;
        };
        let mtu = self.cfg.mtu;
        let n = data.len().div_ceil(mtu).max(1);
        for i in 0..n {
            let opcode = match (i == 0, i == n - 1) {
                (true, true) => BthOpcode::ReadRespOnly,
                (true, false) => BthOpcode::ReadRespFirst,
                (false, false) => BthOpcode::ReadRespMiddle,
                (false, true) => BthOpcode::ReadRespLast,
            };
            let mut resp = self.base_packet(opcode, i as u32);
            resp.aeth = Some((AethSyndrome::Ack, pkt.psn));
            resp.payload = data.slice(i * mtu..data.len().min((i + 1) * mtu));
            self.pending_tx.push_back(resp);
            self.stats.tx_packets += 1;
        }
    }

    fn on_data<M: RdmaMemory>(&mut self, pkt: &RocePacket, mem: &mut M, action: &mut RxAction) {
        if pkt.psn < self.expect_psn {
            // Duplicate from a go-back-N retransmission; re-ACK so the
            // requester makes progress, or refuse it again if it was.
            self.stats.duplicates += 1;
            if self.refused_write == Some(pkt.psn) {
                self.refuse(pkt.psn);
            } else {
                self.queue_ack();
            }
            return;
        }
        if pkt.psn > self.expect_psn {
            self.queue_nak();
            return;
        }
        self.expect_psn += 1;
        if pkt.opcode.starts_message() {
            self.cur_msg = Some(InMsg {
                is_send: matches!(pkt.opcode, BthOpcode::SendFirst | BthOpcode::SendOnly),
                write_vaddr: pkt.reth.map(|(v, _, _)| v).unwrap_or(0),
                offset: 0,
                parts: Vec::new(),
            });
        }
        // With no current message (the rest of a refused WRITE), the
        // fragment is consumed unread and answered with the refusal.
        let rest_of_refused = self.cur_msg.is_none();
        if let Some(msg) = self.cur_msg.as_mut() {
            if msg.is_send {
                // SEND fragments are delivered as a message; keep the shared
                // slices and stitch only if there is more than one.
                msg.parts.push(pkt.payload.clone());
            } else if mem
                .write(msg.write_vaddr + msg.offset, &pkt.payload)
                .is_err()
            {
                // RDMA WRITE fragments stream straight into memory at their
                // offset, with no per-message reassembly buffer. One that
                // misses the memory is NAK'd instead of ACK'd, and the rest
                // of its message is dropped.
                self.cur_msg = None;
                self.refused_write = Some(pkt.psn);
                self.refuse(pkt.psn);
                return;
            }
            msg.offset += pkt.payload.len() as u64;
        }
        if pkt.opcode.ends_message() {
            if let Some(mut msg) = self.cur_msg.take().filter(|m| m.is_send) {
                let delivered = if msg.parts.len() == 1 {
                    msg.parts.pop().expect("one part")
                } else {
                    // Multi-fragment delivery copy: counted, per the
                    // zero-copy contract in `frame`.
                    let total: usize = msg.parts.iter().map(Bytes::len).sum();
                    count_payload_copy(total);
                    let mut buf = Vec::with_capacity(total);
                    for part in &msg.parts {
                        buf.extend_from_slice(part);
                    }
                    Bytes::from(buf)
                };
                action.received.push(delivered);
            }
        }
        if pkt.ack_req || pkt.opcode.ends_message() {
            match self.refused_write.filter(|_| rest_of_refused) {
                Some(refused) => self.queue_nak_refused(refused),
                None => self.queue_ack(),
            }
        }
    }

    fn queue_ack(&mut self) {
        let mut ack = self.base_packet(BthOpcode::Ack, self.expect_psn.wrapping_sub(1));
        ack.aeth = Some((AethSyndrome::Ack, self.expect_psn.wrapping_sub(1)));
        self.pending_tx.push_back(ack);
        self.stats.acks_sent += 1;
    }

    fn queue_nak(&mut self) {
        // One NAK per gap event would need extra state; NAK every time, the
        // requester tolerates duplicates.
        let mut nak = self.base_packet(BthOpcode::Ack, self.expect_psn);
        nak.aeth = Some((AethSyndrome::NakSequence, self.expect_psn));
        self.pending_tx.push_back(nak);
        self.stats.naks_sent += 1;
    }

    /// Refuse the packet at `psn`: count it and NAK it with a remote access
    /// error.
    fn refuse(&mut self, psn: u32) {
        self.stats.access_errors += 1;
        self.queue_nak_refused(psn);
    }

    fn queue_nak_refused(&mut self, psn: u32) {
        let mut nak = self.base_packet(BthOpcode::Ack, psn);
        nak.aeth = Some((AethSyndrome::NakRemoteAccess, psn));
        self.pending_tx.push_back(nak);
    }

    /// Retransmission timer fired: go-back-N over everything outstanding.
    pub fn on_timeout(&mut self) -> Vec<RocePacket> {
        let out: Vec<RocePacket> = self.outstanding.iter().map(|o| o.pkt.clone()).collect();
        self.stats.retransmits += out.len() as u64;
        out
    }

    /// Like [`Self::poll_tx`], but returns ready wire frames and caches each
    /// requester frame on its outstanding entry: a later retransmission of
    /// the same packet reuses the cached headers and ICRC.
    pub fn poll_tx_frames<M: RdmaMemory>(&mut self, mem: &M) -> Vec<Frame> {
        let pkts = self.poll_tx(mem);
        pkts.iter()
            .map(|p| {
                let frame = p.to_frame();
                // Responder packets (ACK/NAK/read responses, all AETH-
                // bearing) are not outstanding; everything else is, keyed
                // by its unique in-window PSN.
                if p.aeth.is_none() {
                    if let Some(out) = self.outstanding.iter_mut().find(|o| o.psn == p.psn) {
                        out.frame = Some(frame.clone());
                    }
                }
                frame
            })
            .collect()
    }

    /// Like [`Self::on_timeout`], but returns wire frames. Each outstanding
    /// packet is framed at most once across its lifetime (here or in
    /// [`Self::poll_tx_frames`]); repeat retransmissions are O(1) clones of
    /// the cached frame and bit-identical to the original transmission.
    pub fn on_timeout_frames(&mut self) -> Vec<Frame> {
        self.stats.retransmits += self.outstanding.len() as u64;
        self.outstanding
            .iter_mut()
            .map(|o| o.frame_cached().clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shuttle every pending packet between two QPs until quiescent,
    /// optionally dropping by predicate. Returns total packets delivered.
    fn run<FA>(
        a: &mut QueuePair,
        am: &mut Vec<u8>,
        b: &mut QueuePair,
        bm: &mut Vec<u8>,
        mut drop: FA,
    ) -> u64
    where
        FA: FnMut(&RocePacket) -> bool,
    {
        let mut delivered = 0u64;
        let mut received_by_b = Vec::new();
        for _round in 0..1000 {
            let from_a = a.poll_tx(am);
            let from_b = b.poll_tx(bm);
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            for pkt in from_a {
                if drop(&pkt) {
                    continue;
                }
                // Wire round trip: frame and reparse, like the switch.
                let parsed = RocePacket::parse_frame(&pkt.to_frame()).unwrap();
                let act = b.on_rx(&parsed, bm);
                received_by_b.extend(act.received);
                for resp in act.tx {
                    b.enqueue_for_test(resp);
                }
                delivered += 1;
            }
            for pkt in from_b {
                if drop(&pkt) {
                    continue;
                }
                let parsed = RocePacket::parse_frame(&pkt.to_frame()).unwrap();
                let act = a.on_rx(&parsed, am);
                for resp in act.tx {
                    a.enqueue_for_test(resp);
                }
                delivered += 1;
            }
        }
        B_RECEIVED.with(|r| *r.borrow_mut() = received_by_b);
        delivered
    }

    thread_local! {
        static B_RECEIVED: std::cell::RefCell<Vec<Bytes>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    impl QueuePair {
        fn enqueue_for_test(&mut self, pkt: RocePacket) {
            self.pending_tx.push_back(pkt);
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn rdma_write_places_data_remotely() {
        let (ca, cb) = QpConfig::pair(0x11, 0x22);
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let data = payload(10_000);
        let mut am = data.clone();
        let mut bm = vec![0u8; 20_000];
        a.post(
            1,
            Verb::Write {
                remote_vaddr: 5000,
                local_vaddr: 0,
                len: 10_000,
            },
        );
        run(&mut a, &mut am, &mut b, &mut bm, |_| false);
        assert_eq!(&bm[5000..15_000], &data[..]);
        let comps = a.poll_completions();
        assert_eq!(
            comps,
            vec![Completion {
                wr_id: 1,
                status: Ok(())
            }]
        );
    }

    #[test]
    fn rdma_read_fetches_remote_data() {
        let (ca, cb) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let data = payload(9_000); // 3 MTU fragments.
        let mut am = vec![0u8; 9_000];
        let mut bm = data.clone();
        a.post(
            7,
            Verb::Read {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 9_000,
            },
        );
        run(&mut a, &mut am, &mut b, &mut bm, |_| false);
        assert_eq!(am, data);
        assert_eq!(
            a.poll_completions(),
            vec![Completion {
                wr_id: 7,
                status: Ok(())
            }]
        );
        assert_eq!(a.in_flight(), 0, "read request cleared after completion");
    }

    #[test]
    fn send_is_delivered_as_message() {
        let (ca, cb) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let data = payload(12_345);
        let mut am = data.clone();
        let mut bm = Vec::new();
        a.post(
            3,
            Verb::Send {
                local_vaddr: 0,
                len: 12_345,
            },
        );
        run(&mut a, &mut am, &mut b, &mut bm, |_| false);
        B_RECEIVED.with(|r| {
            let msgs = r.borrow();
            assert_eq!(msgs.len(), 1);
            assert_eq!(msgs[0], data);
        });
    }

    #[test]
    fn single_drop_recovers_via_nak() {
        let (ca, cb) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let data = payload(40_960); // 10 packets.
        let mut am = data.clone();
        let mut bm = vec![0u8; 40_960];
        a.post(
            1,
            Verb::Write {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 40_960,
            },
        );
        let mut dropped = false;
        run(&mut a, &mut am, &mut b, &mut bm, |pkt| {
            // Drop exactly the 4th data packet once.
            if !dropped && pkt.psn == 3 && !pkt.opcode.has_aeth() {
                dropped = true;
                return true;
            }
            false
        });
        assert_eq!(bm, data, "data intact after retransmission");
        assert!(a.stats().retransmits > 0, "go-back-N fired");
        assert!(b.stats().naks_sent > 0 || b.stats().duplicates > 0);
        assert_eq!(a.poll_completions().len(), 1);
    }

    #[test]
    fn timeout_retransmits_everything_outstanding() {
        let (ca, cb) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let data = payload(8192);
        let mut am = data.clone();
        let mut bm = vec![0u8; 8192];
        a.post(
            1,
            Verb::Write {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 8192,
            },
        );
        // All first transmissions vanish (switch blackout).
        let lost = a.poll_tx(&am);
        assert_eq!(lost.len(), 2);
        // Timer fires; retransmissions reach the responder.
        for pkt in a.on_timeout() {
            let act = b.on_rx(&pkt, &mut bm);
            for resp in act.tx {
                a.on_rx(&resp, &mut am);
            }
        }
        assert_eq!(bm, data);
        assert_eq!(a.poll_completions().len(), 1);
        assert_eq!(a.stats().retransmits, 2);
    }

    #[test]
    fn window_limits_outstanding_packets() {
        let (mut ca, _) = QpConfig::pair(1, 2);
        ca.window = 4;
        let mut a = QueuePair::new(ca);
        let am = payload(100_000);
        a.post(
            1,
            Verb::Write {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 100_000,
            },
        );
        let first = a.poll_tx(&am);
        assert_eq!(first.len(), 4, "window caps the burst");
        assert_eq!(a.in_flight(), 4);
        assert!(a.poll_tx(&am).is_empty(), "no window space, no packets");
    }

    #[test]
    fn message_longer_than_window_completes() {
        // A single message spanning many windows must keep eliciting ACKs:
        // the packet that fills the window carries ack_req, so the window
        // reopens before the (distant) last packet is ever generated.
        let (mut ca, cb) = QpConfig::pair(1, 2);
        ca.window = 4;
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let len = 40 * 4096; // 40 packets = 10 full windows.
        let data = payload(len);
        let mut am = data.clone();
        let mut bm = vec![0u8; len];
        a.post(
            1,
            Verb::Write {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: len as u64,
            },
        );
        run(&mut a, &mut am, &mut b, &mut bm, |_| false);
        assert_eq!(bm, data, "full message delivered");
        assert_eq!(a.poll_completions().len(), 1);
        assert_eq!(a.in_flight(), 0, "everything acknowledged");
    }

    #[test]
    fn multiple_wrs_complete_in_order() {
        let (ca, cb) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let mut am = payload(30_000);
        let mut bm = vec![0u8; 30_000];
        for i in 0..3u64 {
            a.post(
                i,
                Verb::Write {
                    remote_vaddr: i * 10_000,
                    local_vaddr: i * 10_000,
                    len: 10_000,
                },
            );
        }
        run(&mut a, &mut am, &mut b, &mut bm, |_| false);
        assert_eq!(bm, am);
        let ids: Vec<u64> = a.poll_completions().iter().map(|c| c.wr_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn out_of_range_remote_access_is_counted_and_dropped() {
        // A 200-byte WRITE or READ against a 100-byte responder: one
        // fragment or request, refused by the memory, counted once, NAK'd
        // with a remote access error, and failed at the requester without
        // a retransmission.
        let write = Verb::Write {
            remote_vaddr: 0,
            local_vaddr: 0,
            len: 200,
        };
        let read = Verb::Read {
            remote_vaddr: 0,
            local_vaddr: 0,
            len: 200,
        };
        for verb in [write, read] {
            let (ca, cb) = QpConfig::pair(1, 2);
            let mut a = QueuePair::new(ca);
            let mut b = QueuePair::new(cb);
            let mut am = payload(200);
            let mut bm = payload(100);
            a.post(3, verb.clone());
            run(&mut a, &mut am, &mut b, &mut bm, |_| false);
            assert_eq!(b.stats().access_errors, 1, "{verb:?}");
            assert_eq!(bm, payload(100), "{verb:?}: responder memory unchanged");
            assert_eq!(a.stats().access_errors, 0, "{verb:?}");
            assert_eq!(b.stats().acks_sent, 0, "{verb:?}: NAK'd, not ACK'd");
            let comps = a.poll_completions();
            assert_eq!(comps.len(), 1, "{verb:?}: {comps:?}");
            assert_eq!(comps[0].wr_id, 3);
            assert!(comps[0].status.is_err(), "{verb:?}: {comps:?}");
            assert_eq!(a.in_flight(), 0, "{verb:?}: nothing left to retransmit");
            for _ in 0..3 {
                assert!(a.on_timeout().is_empty(), "{verb:?}");
            }
            assert_eq!(a.stats().retransmits, 0, "{verb:?}");
            assert_eq!(am, payload(200), "{verb:?}: requester memory unchanged");
        }
    }

    #[test]
    fn a_refused_write_fragment_fails_only_its_wr() {
        // Three 3-packet WRITEs to a 16 KiB responder: the second runs past
        // its end at its third fragment. Only that WR fails; the rest of the
        // stream is still acknowledged, written and completed.
        let (ca, cb) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let len = 3 * 4096;
        let mut am = payload(len);
        let mut bm = vec![0u8; 4 * 4096];
        for (wr_id, remote_vaddr) in [(0, 0), (1, 2 * 4096), (2, 4096)] {
            a.post(
                wr_id,
                Verb::Write {
                    remote_vaddr,
                    local_vaddr: 0,
                    len: len as u64,
                },
            );
        }
        run(&mut a, &mut am, &mut b, &mut bm, |_| false);
        let comps = a.poll_completions();
        let ids: Vec<(u64, bool)> = comps.iter().map(|c| (c.wr_id, c.status.is_ok())).collect();
        assert_eq!(ids, [(0, true), (1, false), (2, true)], "{comps:?}");
        assert_eq!(b.stats().access_errors, 1);
        assert_eq!(&bm[4096..], &am[..], "the last WRITE landed");
        assert_eq!(a.in_flight(), 0, "every consumed packet acknowledged");
        assert!(a.on_timeout().is_empty());

        // A 2-packet window: the refused second fragment's NAK arrives
        // while the WR's last two are unsent. They are never sent, and the
        // NAK retires the first fragment, which no ACK covered.
        let (mut ca, cb) = QpConfig::pair(1, 2);
        ca.window = 2;
        let mut a = QueuePair::new(ca);
        let mut b = QueuePair::new(cb);
        let mut am = payload(4 * 4096);
        let mut bm = vec![0u8; 4096];
        a.post(
            7,
            Verb::Write {
                remote_vaddr: 0,
                local_vaddr: 0,
                len: 4 * 4096,
            },
        );
        run(&mut a, &mut am, &mut b, &mut bm, |_| false);
        let comps = a.poll_completions();
        assert_eq!(comps.len(), 1, "{comps:?}");
        assert_eq!(comps[0].wr_id, 7);
        assert!(comps[0].status.is_err(), "{comps:?}");
        assert_eq!(a.stats().tx_packets, 2, "the unsent fragments stay unsent");
        assert_eq!(a.in_flight(), 0);
        assert_eq!(bm, am[..4096], "the first fragment landed");
    }

    #[test]
    fn a_lost_refusal_is_repeated_and_the_write_never_completes_ok() {
        // A one-fragment WRITE refused whole, and a three-fragment WRITE
        // refused at its second fragment, each with its first remote-access
        // NAK lost. The requester learns of the refusal from the rest of the
        // message or from its own retransmission, never from an ACK.
        for (len, responder_bytes, landed) in [(200, 100, 0), (3 * 4096, 4096 + 100, 4096)] {
            let (ca, cb) = QpConfig::pair(1, 2);
            let mut a = QueuePair::new(ca);
            let mut b = QueuePair::new(cb);
            let mut am = payload(len);
            let mut bm = vec![0u8; responder_bytes];
            a.post(
                5,
                Verb::Write {
                    remote_vaddr: 0,
                    local_vaddr: 0,
                    len: len as u64,
                },
            );
            let mut lost = false;
            run(&mut a, &mut am, &mut b, &mut bm, |pkt| {
                let refusal = matches!(pkt.aeth, Some((AethSyndrome::NakRemoteAccess, _)));
                let drop = refusal && !lost;
                lost |= refusal;
                drop
            });
            assert!(lost, "len {len}: a NAK was dropped");
            let mut comps = a.poll_completions();
            for _ in 0..3 {
                for pkt in a.on_timeout() {
                    for resp in b.on_rx(&pkt, &mut bm).tx {
                        a.on_rx(&resp, &mut am);
                    }
                }
                comps.extend(a.poll_completions());
            }
            assert_eq!(comps.len(), 1, "len {len}: {comps:?}");
            assert_eq!(comps[0].wr_id, 5);
            assert!(comps[0].status.is_err(), "len {len}: {comps:?}");
            assert_eq!(a.in_flight(), 0, "len {len}: every consumed packet retired");
            assert_eq!(
                bm[..landed],
                am[..landed],
                "len {len}: fragments before the refusal"
            );
            assert!(
                bm[landed..].iter().all(|&x| x == 0),
                "len {len}: nothing after it"
            );
        }
    }

    #[test]
    fn oob_local_read_fails_the_wr() {
        let (ca, _) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let am = vec![0u8; 100];
        a.post(
            9,
            Verb::Send {
                local_vaddr: 0,
                len: 1000,
            },
        );
        let pkts = a.poll_tx(&am);
        assert!(pkts.is_empty());
        let comps = a.poll_completions();
        assert_eq!(comps.len(), 1);
        assert!(comps[0].status.is_err());
    }

    #[test]
    fn wrong_qpn_is_ignored() {
        let (ca, _) = QpConfig::pair(1, 2);
        let mut a = QueuePair::new(ca);
        let mut am = Vec::new();
        let mut stray = RocePacket {
            src_mac: MacAddr::node(9),
            dst_mac: MacAddr::node(1),
            src_ip: [9, 9, 9, 9],
            dst_ip: [10, 0, 0, 1],
            opcode: BthOpcode::SendOnly,
            dest_qp: 0xBEEF, // Not our QPN.
            psn: 0,
            ack_req: true,
            reth: None,
            aeth: None,
            payload: Bytes::from_static(b"stray"),
        };
        let act = a.on_rx(&stray, &mut am);
        assert!(act.tx.is_empty() && act.received.is_empty());
        stray.dest_qp = 1;
        let act = a.on_rx(&stray, &mut am);
        assert_eq!(act.received.len(), 1, "now accepted as a SEND message");
        assert_eq!(act.tx.len(), 1, "and acknowledged");
    }
}
