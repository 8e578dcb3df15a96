//! Scatter-gather Ethernet frames.
//!
//! A [`Frame`] is the unit the simulated wire carries: a small contiguous
//! header segment, an optional shared payload segment and an optional
//! trailer (the RoCE ICRC). Cloning a frame — for the switch's flood path,
//! the retransmission queue, or a sniffer capture — bumps reference counts
//! instead of copying payload bytes; flattening to a contiguous byte vector
//! is an explicit, counted operation.
//!
//! The payload-copy counter exists so tests can assert the zero-copy
//! contract: it counts every *redundant* payload-byte copy the networking
//! crate performs (flattening a frame, re-parsing raw bytes, reassembling
//! multi-fragment messages). Endpoint DMA — the memory read that produces a
//! payload and the memory write that places it — is the transfer itself and
//! is never counted.

use bytes::Bytes;
use std::borrow::Cow;
use std::cell::Cell;

thread_local! {
    static PAYLOAD_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Record `n` payload bytes copied on a copy path (crate-internal).
pub(crate) fn count_payload_copy(n: usize) {
    PAYLOAD_COPIES.with(|c| c.set(c.get() + n as u64));
}

/// Payload bytes copied by this thread's networking code since the last
/// [`reset_payload_copies`]. Zero across a QP TX → switch → NIC RX pump is
/// the zero-copy contract.
pub fn payload_copies() -> u64 {
    PAYLOAD_COPIES.with(Cell::get)
}

/// Reset the per-thread payload-copy counter.
pub fn reset_payload_copies() {
    PAYLOAD_COPIES.with(|c| c.set(0));
}

/// One frame on the wire, as up to three logical segments.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Contiguous prefix: Ethernet through the transport headers — or the
    /// entire frame for contiguous (non-RoCE or pre-serialized) traffic.
    head: Bytes,
    /// Shared payload slice (empty for head-only frames).
    payload: Bytes,
    /// Trailer (the 4-byte ICRC; empty for head-only frames).
    tail: Bytes,
    /// The ICRC of the covered bytes, memoized by the one constructor that
    /// computes it over exactly `head` and `payload` (`RocePacket::to_frame`).
    /// Sound because the segments are private and `Bytes` never mutates:
    /// clones carry it, and every frame rebuilt from bytes starts without it.
    icrc: Option<u32>,
}

/// Equality is over the wire bytes' segments; the ICRC memo is a cache and
/// a memoized frame equals its memo-less rebuild.
impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.head == other.head && self.payload == other.payload && self.tail == other.tail
    }
}

impl Eq for Frame {}

impl Frame {
    /// A frame whose bytes are already contiguous. Zero-copy for `Bytes`
    /// and a move for `Vec<u8>`.
    pub fn from_contiguous(bytes: impl Into<Bytes>) -> Frame {
        Frame {
            head: bytes.into(),
            payload: Bytes::new(),
            tail: Bytes::new(),
            icrc: None,
        }
    }

    /// A scatter-gather frame: headers, shared payload, ICRC trailer.
    pub fn from_parts(head: Vec<u8>, payload: Bytes, tail: [u8; 4]) -> Frame {
        Frame {
            head: Bytes::from(head),
            payload,
            tail: Bytes::copy_from_slice(&tail),
            icrc: None,
        }
    }

    /// A scatter-gather frame whose ICRC over `head[14..]` and `payload` is
    /// already known to be `icrc`: the caller computed it over these very
    /// bytes (crate-internal; only `RocePacket::to_frame` may vouch).
    pub(crate) fn with_icrc(head: Vec<u8>, payload: Bytes, icrc: u32) -> Frame {
        Frame {
            icrc: Some(icrc),
            ..Frame::from_parts(head, payload, icrc.to_le_bytes())
        }
    }

    /// The memoized ICRC of the covered bytes, if this frame was built by
    /// `RocePacket::to_frame` (or is a clone of one).
    pub(crate) fn icrc_memo(&self) -> Option<u32> {
        self.icrc
    }

    /// Total length on the wire.
    pub fn len(&self) -> usize {
        self.head.len() + self.payload.len() + self.tail.len()
    }

    /// True if the frame carries no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the whole frame lives in the head segment.
    pub fn is_contiguous(&self) -> bool {
        self.payload.is_empty() && self.tail.is_empty()
    }

    /// The contiguous header segment (the whole frame when contiguous).
    pub fn head(&self) -> &[u8] {
        &self.head
    }

    /// The head segment as shared bytes (for zero-copy sub-slicing).
    pub fn head_bytes(&self) -> &Bytes {
        &self.head
    }

    /// The shared payload segment.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The trailer segment.
    pub fn tail(&self) -> &[u8] {
        &self.tail
    }

    /// The three segments in wire order.
    pub fn segments(&self) -> [&[u8]; 3] {
        [&self.head, &self.payload, &self.tail]
    }

    /// Flatten to contiguous wire bytes. This is the explicit copy path:
    /// payload bytes copied here are counted.
    pub fn to_vec(&self) -> Vec<u8> {
        count_payload_copy(self.payload.len());
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(&self.head);
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.tail);
        out
    }

    /// The frame as one contiguous slice: borrowed when already contiguous,
    /// flattened (and counted) otherwise.
    pub fn contiguous(&self) -> Cow<'_, [u8]> {
        if self.is_contiguous() {
            Cow::Borrowed(&self.head)
        } else {
            Cow::Owned(self.to_vec())
        }
    }

    /// Copy up to `limit` leading bytes (sniffer snapshots). When the cut
    /// falls entirely inside the head of a frame the slice is shared, not
    /// copied; otherwise only the captured payload bytes are counted.
    pub fn snapshot(&self, limit: usize) -> Bytes {
        let keep = limit.min(self.len());
        if keep <= self.head.len() {
            return self.head.slice(..keep);
        }
        let mut out = Vec::with_capacity(keep);
        for seg in self.segments() {
            if out.len() >= keep {
                break;
            }
            let n = seg.len().min(keep - out.len());
            out.extend_from_slice(&seg[..n]);
        }
        count_payload_copy(out.len().saturating_sub(self.head.len()));
        Bytes::from(out)
    }
}

impl From<Vec<u8>> for Frame {
    fn from(bytes: Vec<u8>) -> Frame {
        Frame::from_contiguous(bytes)
    }
}

impl From<Bytes> for Frame {
    fn from(bytes: Bytes) -> Frame {
        Frame::from_contiguous(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sg() -> Frame {
        Frame::from_parts(vec![1, 2, 3], Bytes::from(vec![4, 5, 6, 7]), [8, 9, 10, 11])
    }

    #[test]
    fn segments_cover_the_wire_in_order() {
        let f = sg();
        assert_eq!(f.len(), 11);
        assert!(!f.is_contiguous());
        let flat = f.to_vec();
        assert_eq!(flat, (1..=11).collect::<Vec<u8>>());
        assert_eq!(f.segments().concat(), flat);
    }

    #[test]
    fn contiguous_frame_borrows() {
        let f = Frame::from(vec![9u8; 64]);
        assert!(f.is_contiguous());
        reset_payload_copies();
        assert!(matches!(f.contiguous(), Cow::Borrowed(_)));
        assert_eq!(payload_copies(), 0);
    }

    #[test]
    fn flatten_counts_payload_bytes_only() {
        reset_payload_copies();
        let f = sg();
        let _ = f.to_vec();
        assert_eq!(payload_copies(), 4, "only the payload segment counts");
    }

    #[test]
    fn clone_is_not_a_copy() {
        reset_payload_copies();
        let f = sg();
        let g = f.clone();
        assert_eq!(payload_copies(), 0);
        assert_eq!(f, g);
    }

    #[test]
    fn equality_ignores_the_icrc_memo() {
        use crate::headers::MacAddr;
        use crate::packet::{BthOpcode, RocePacket};
        let pkt = RocePacket {
            src_mac: MacAddr::node(1),
            dst_mac: MacAddr::node(2),
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            opcode: BthOpcode::SendOnly,
            dest_qp: 7,
            psn: 3,
            ack_req: true,
            reth: None,
            aeth: None,
            payload: Bytes::from(vec![0x5A; 64]),
        };
        let built = pkt.to_frame();
        let tail: [u8; 4] = built.tail().try_into().unwrap();
        let rebuilt = Frame::from_parts(built.head().to_vec(), built.payload().clone(), tail);
        assert!(built.icrc_memo().is_some());
        assert_eq!(built.clone().icrc_memo(), built.icrc_memo());
        assert_eq!(rebuilt.icrc_memo(), None);
        assert_eq!(built, rebuilt);
    }

    #[test]
    fn snapshot_within_head_is_shared() {
        reset_payload_copies();
        let f = sg();
        assert_eq!(f.snapshot(2), Bytes::from(vec![1, 2]));
        assert_eq!(
            payload_copies(),
            0,
            "head-only snapshot never copies payload"
        );
        assert_eq!(f.snapshot(5), Bytes::from(vec![1, 2, 3, 4, 5]));
        assert_eq!(payload_copies(), 2, "two payload bytes captured");
        assert_eq!(f.snapshot(100).len(), 11);
    }
}
