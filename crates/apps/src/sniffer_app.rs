//! The vFPGA side of the traffic sniffer (§8).
//!
//! "On the data plane, the traffic sniffer connects to the shell's
//! networking stacks, the CMAC, and the application layer, which is used to
//! timestamp the data and store it to a previously allocated HBM buffer.
//! ... the capture data can be synced back to host memory, where a software
//! parser converts the raw packet recordings to a default PCAP file."
//!
//! [`SnifferApp`] defines the on-card capture record format (what the vFPGA
//! writes into the HBM buffer), the software parser back to
//! [`CaptureRecord`]s, and the PCAP conversion.

use coyote::kernel::{Kernel, KernelTiming};
use coyote_net::pcap::write_pcap;
use coyote_net::sniffer::Direction;
use coyote_net::CaptureRecord;
use coyote_sim::SimTime;

/// Magic prefix of each on-card record.
const RECORD_MAGIC: u32 = 0x534E_4946; // "SNIF"

/// Serialize capture records into the on-card buffer format:
/// per record: magic, timestamp (ps), direction, original length, captured
/// length, bytes.
pub fn encode_records(records: &[CaptureRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        out.extend_from_slice(&r.at.as_ps().to_le_bytes());
        out.push(match r.direction {
            Direction::Rx => 0,
            Direction::Tx => 1,
        });
        out.extend_from_slice(&r.orig_len.to_le_bytes());
        out.extend_from_slice(&(r.bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&r.bytes);
    }
    out
}

/// The software parser: on-card bytes back to records.
pub fn decode_records(data: &[u8]) -> Result<Vec<CaptureRecord>, String> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        // Trailing zeroes of an oversized buffer end the capture.
        if data[off..].iter().all(|&b| b == 0) {
            break;
        }
        if data.len() - off < 21 {
            return Err("truncated record header".into());
        }
        let magic = u32::from_le_bytes(data[off..off + 4].try_into().expect("4"));
        if magic != RECORD_MAGIC {
            return Err(format!("bad record magic at offset {off}"));
        }
        let ts = u64::from_le_bytes(data[off + 4..off + 12].try_into().expect("8"));
        let dir = match data[off + 12] {
            0 => Direction::Rx,
            1 => Direction::Tx,
            d => return Err(format!("bad direction {d}")),
        };
        let orig_len = u32::from_le_bytes(data[off + 13..off + 17].try_into().expect("4"));
        let cap_len = u32::from_le_bytes(data[off + 17..off + 21].try_into().expect("4")) as usize;
        off += 21;
        if off + cap_len > data.len() {
            return Err("truncated record body".into());
        }
        out.push(CaptureRecord {
            at: SimTime(ts),
            direction: dir,
            orig_len,
            bytes: bytes::Bytes::copy_from_slice(&data[off..off + cap_len]),
        });
        off += cap_len;
    }
    Ok(out)
}

/// Convert decoded records to a PCAP byte stream.
pub fn records_to_pcap(records: &[CaptureRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    write_pcap(&mut out, records, 65_535).expect("Vec<u8> sink never fails");
    out
}

/// The capture-path kernel: passes record bytes through to the HBM buffer
/// at line rate (the timestamping itself happens in the filter; this is the
/// store datapath).
#[derive(Debug, Default)]
pub struct SnifferApp {
    bytes_captured: u64,
    recording: bool,
}

impl Kernel for SnifferApp {
    fn name(&self) -> &str {
        "sniffer_app"
    }

    fn ip(&self) -> coyote_synth::Ip {
        coyote_synth::Ip::Sniffer
    }

    fn timing(&self) -> KernelTiming {
        KernelTiming::Streaming {
            bytes_per_cycle: 64,
            latency_cycles: 3,
        }
    }

    fn process_packet(&mut self, _tid: u16, data: &mut Vec<u8>) {
        if self.recording {
            self.bytes_captured += data.len() as u64;
        } else {
            data.clear();
        }
    }

    fn csr_write(&mut self, offset: u64, value: u64) {
        if offset == 0 {
            self.recording = value != 0;
        }
    }

    fn csr_read(&self, offset: u64) -> u64 {
        match offset {
            0 => self.recording as u64,
            8 => self.bytes_captured,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_net::pcap::read_pcap;
    use coyote_sim::SimDuration;

    fn sample_records() -> Vec<CaptureRecord> {
        vec![
            CaptureRecord {
                at: SimTime::ZERO + SimDuration::from_us(10),
                direction: Direction::Rx,
                orig_len: 1500,
                bytes: vec![0xAA; 54].into(),
            },
            CaptureRecord {
                at: SimTime::ZERO + SimDuration::from_us(25),
                direction: Direction::Tx,
                orig_len: 64,
                bytes: vec![0xBB; 64].into(),
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        let records = sample_records();
        let encoded = encode_records(&records);
        let decoded = decode_records(&encoded).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].at, records[0].at);
        assert_eq!(decoded[0].orig_len, 1500);
        assert_eq!(decoded[0].bytes, records[0].bytes);
        assert_eq!(decoded[1].direction, Direction::Tx);
    }

    #[test]
    fn trailing_zeroes_tolerated() {
        // A synced HBM buffer is larger than the capture.
        let mut encoded = encode_records(&sample_records());
        encoded.extend_from_slice(&[0u8; 1024]);
        assert_eq!(decode_records(&encoded).unwrap().len(), 2);
    }

    #[test]
    fn truncated_record_header_rejected() {
        let records = sample_records();
        let first_len = encode_records(&records[..1]).len();
        let mut encoded = encode_records(&records);
        encoded.truncate(first_len + 10);
        assert_eq!(
            decode_records(&encoded).unwrap_err(),
            "truncated record header"
        );
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut encoded = encode_records(&sample_records());
        encoded[0] ^= 0xFF;
        assert!(decode_records(&encoded).is_err());
    }

    #[test]
    fn pcap_conversion_is_readable() {
        let pcap = records_to_pcap(&sample_records());
        let parsed = read_pcap(&pcap).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].orig_len, 1500);
        assert_eq!(parsed[0].bytes.len(), 54);
    }

    #[test]
    fn app_gates_on_recording_csr() {
        use coyote::kernel::Kernel as _;
        let mut app = SnifferApp::default();
        assert!(crate::process(&mut app, 0, &[1, 2, 3]).is_empty());
        app.csr_write(0, 1);
        assert_eq!(crate::process(&mut app, 0, &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(app.csr_read(8), 3);
    }
}
