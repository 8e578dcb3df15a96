//! The RoCE v2 invariant CRC (ICRC).
//!
//! The ICRC is a CRC-32 over the packet from the IP header through the
//! payload, with fields that routers may legitimately rewrite replaced by
//! ones: TTL, DSCP/ECN and the IP header checksum (and the UDP checksum,
//! which RoCE v2 keeps zero anyway), preceded by eight 0xFF bytes standing
//! in for the masked LRH of native InfiniBand.

use coyote_fabric::crc::Crc32;

/// Offsets within the IP header that get masked (relative to the start of
/// the IPv4 header).
const MASKED_IP_OFFSETS: [usize; 4] = [1, 8, 10, 11]; // tos, ttl, csum hi/lo.

/// Every masked byte lies within the first `MASKED_PREFIX` bytes of the
/// covered region (IPv4 header + UDP header with IHL=5).
const MASKED_PREFIX: usize = 28;

/// Compute the ICRC over `ip_and_beyond`, the bytes from the start of the
/// IPv4 header through the end of the BTH + payload (ICRC itself excluded).
pub fn icrc(ip_and_beyond: &[u8]) -> u32 {
    icrc_segments(&[ip_and_beyond])
}

/// Compute the ICRC over a logically contiguous region presented as
/// scatter-gather segments (e.g. a header slice plus a shared payload
/// slice). Only the first `MASKED_PREFIX` (28) bytes of the stream ever need
/// masking, so they go through a small stack buffer and everything after —
/// the payload in particular — streams through the CRC without a copy.
pub fn icrc_segments(segments: &[&[u8]]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[0xFF; 8]);
    let mut pos = 0usize;
    for seg in segments {
        let mut rest: &[u8] = seg;
        if pos < MASKED_PREFIX {
            let n = rest.len().min(MASKED_PREFIX - pos);
            let mut head = [0u8; MASKED_PREFIX];
            head[..n].copy_from_slice(&rest[..n]);
            for off in MASKED_IP_OFFSETS {
                if off >= pos && off < pos + n {
                    head[off - pos] = 0xFF;
                }
            }
            // UDP checksum field (offsets 26..28 from IP start with IHL=5).
            for off in 26..MASKED_PREFIX {
                if off >= pos && off < pos + n {
                    head[off - pos] = 0xFF;
                }
            }
            crc.update(&head[..n]);
            pos += n;
            rest = &rest[n..];
        }
        crc.update(rest);
        pos += rest.len();
    }
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_under_router_rewrites() {
        // Rewriting TTL or the IP checksum must not change the ICRC: that is
        // the whole point of the invariance mask.
        let mut pkt = vec![0u8; 64];
        for (i, b) in pkt.iter_mut().enumerate() {
            *b = (i * 31) as u8;
        }
        let base = icrc(&pkt);
        let mut rewritten = pkt.clone();
        rewritten[8] = 0x11; // TTL decremented by a router.
        rewritten[10] = 0xAB; // Checksum recomputed.
        rewritten[11] = 0xCD;
        rewritten[1] = 0x2E; // DSCP remarked.
        assert_eq!(icrc(&rewritten), base);
    }

    #[test]
    fn sensitive_to_payload_corruption() {
        let pkt = vec![0x5Au8; 128];
        let base = icrc(&pkt);
        let mut bad = pkt.clone();
        bad[100] ^= 1;
        assert_ne!(icrc(&bad), base);
    }

    #[test]
    fn segmented_equals_contiguous_at_every_split() {
        // The scatter-gather ICRC must match the single-buffer one no matter
        // where the header/payload boundary falls — including splits inside
        // the masked prefix.
        let mut pkt = vec![0u8; 200];
        for (i, b) in pkt.iter_mut().enumerate() {
            *b = (i * 131 + 7) as u8;
        }
        let base = icrc(&pkt);
        for split in 0..=pkt.len() {
            let (a, b) = pkt.split_at(split);
            assert_eq!(icrc_segments(&[a, b]), base, "split at {split}");
        }
        // Three-way splits across the masked region too.
        assert_eq!(icrc_segments(&[&pkt[..10], &pkt[10..27], &pkt[27..]]), base);
        assert_eq!(icrc_segments(&[&[], &pkt, &[]]), base);
    }

    #[test]
    fn full_mtu_frames_match_the_portable_crc_at_every_split() {
        use crate::headers::{EthernetHdr, MacAddr};
        use crate::packet::{AethSyndrome, BthOpcode, RocePacket};
        use coyote_fabric::crc::crc32_portable;

        // The ICRC over the masked stream, on the table loop alone.
        fn portable(covered: &[u8]) -> u32 {
            let mut stream = vec![0xFF; 8];
            stream.extend_from_slice(covered);
            for off in MASKED_IP_OFFSETS.into_iter().chain(26..MASKED_PREFIX) {
                stream[8 + off] = 0xFF;
            }
            crc32_portable(&stream)
        }

        let mtu = coyote_sim::params::ROCE_MTU;
        let payload: Vec<u8> = (0..mtu as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        for opcode in [
            BthOpcode::WriteFirst,
            BthOpcode::WriteMiddle,
            BthOpcode::ReadRespLast,
        ] {
            let pkt = RocePacket {
                src_mac: MacAddr::node(1),
                dst_mac: MacAddr::node(2),
                src_ip: [10, 0, 0, 1],
                dst_ip: [10, 0, 0, 2],
                opcode,
                dest_qp: 0x11,
                psn: 3,
                ack_req: false,
                reth: opcode.has_reth().then_some((0x4000, 0, 4 * mtu as u32)),
                aeth: opcode.has_aeth().then_some((AethSyndrome::Ack, 2)),
                payload: payload.clone().into(),
            };
            let wire = pkt.to_frame().to_vec();
            let covered = &wire[EthernetHdr::LEN..wire.len() - 4];
            let want = portable(covered);
            assert_eq!(wire[wire.len() - 4..], want.to_le_bytes(), "{opcode:?}");
            for split in 0..=covered.len() {
                let (a, b) = covered.split_at(split);
                assert_eq!(icrc_segments(&[a, b]), want, "{opcode:?}, split at {split}");
            }
        }
    }

    #[test]
    fn sensitive_to_addresses() {
        let mut a = vec![0u8; 40];
        let mut b = vec![0u8; 40];
        a[16] = 1; // Different destination IP.
        b[16] = 2;
        assert_ne!(icrc(&a), icrc(&b));
    }
}
