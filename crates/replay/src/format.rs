//! The `.cyt` recording format: a versioned, varint-encoded capture of one
//! storm run, closed by an FNV-64 footer that must match the live
//! fingerprint scheme.
//!
//! ```text
//! magic  "CYRT"
//! version       uvarint   (= 2)
//! config:
//!   scenario    u8        1 = platform, 2 = ring
//!   ring_len    uvarint   (0 for platform)
//!   seeds       uvarint
//!   hops        uvarint
//!   flags       u8        bit0 chaos_seed present, bit1 perturb present
//!   [chaos_seed uvarint]
//!   [perturb    uvarint]
//! events        uvarint   count, then per entry:
//!   shard       uvarint
//!   at_ps       uvarint
//!   flags       u8        bit0 domain, bit1 target, bit2 priority,
//!                         bit3 src_domain present
//!   [domain     uvarint] [target uvarint] [priority u8] [src_domain uvarint]
//!   posted_at   uvarint
//!   origin      uvarint
//!   origin_seq  uvarint
//! faults        uvarint   count, then per event:
//!   domain_tag  uvarint   (must decode via Domain::from_tag)
//!   op          uvarint
//!   at_ps       uvarint
//!   kind_tag    uvarint   (TraceKind::from_tag)
//!   fault_tag   uvarint   (FaultKind::from_tag)
//!   detail      uvarint
//! worlds        uvarint   count, then one uvarint per shard accumulator
//! executed      uvarint   total events executed
//! footer        8 bytes LE ShardTrace hash, 8 bytes LE FaultTrace hash,
//!               8 bytes LE run fingerprint (covers worlds + executed too)
//! ```
//!
//! Decoding fails **closed**: bad magic, unknown version, unknown tags,
//! truncation, trailing bytes, non-canonical entry order and a footer that
//! does not match the decoded payload are all typed errors, never a
//! best-effort recording. Version 1 carried a worker-count varint after
//! `hops`; the engine no longer has workers, so a version-1 image is
//! rejected as [`ReplayError::UnsupportedVersion`].

use crate::scenario::{fingerprint_of, run_storm, StormConfig, StormRun, StormTopology, MAX_RING};
use crate::wire::{put_uvarint, write_uvarint, Reader};
use coyote_chaos::{Domain, FaultKind, FaultTrace, TraceKind};
use coyote_sim::{ShardTrace, ShardTraceEntry, SimTime};
use std::path::Path;

/// File magic: "Coyote Replay Trace".
pub const MAGIC: [u8; 4] = *b"CYRT";

/// Current format version.
pub const FORMAT_VERSION: u64 = 2;

/// Largest encoded trace entry: seven varints of at most ten bytes, the
/// flags byte and the priority byte.
const MAX_ENTRY_BYTES: usize = 7 * 10 + 2;

/// Why a recording could not be decoded (or written).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Filesystem failure, with the OS error text.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not one this build reads.
    UnsupportedVersion(u64),
    /// The file ends mid-field.
    Truncated,
    /// Bytes remain after the footer.
    TrailingBytes,
    /// A field decoded to a value the format forbids.
    BadValue(&'static str),
    /// The footer hash does not match the decoded payload.
    FooterMismatch {
        /// Which trace disagreed (`"events"` or `"faults"`).
        which: &'static str,
        /// The hash the footer recorded.
        expected: u64,
        /// The hash of the decoded payload.
        actual: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "i/o: {e}"),
            ReplayError::BadMagic => write!(f, "not a .cyt recording (bad magic)"),
            ReplayError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported recording version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            ReplayError::Truncated => write!(f, "recording truncated mid-field"),
            ReplayError::TrailingBytes => write!(f, "trailing bytes after the footer"),
            ReplayError::BadValue(what) => write!(f, "malformed recording: {what}"),
            ReplayError::FooterMismatch {
                which,
                expected,
                actual,
            } => write!(
                f,
                "footer mismatch on the {which} trace: footer {expected:016x}, \
                 payload {actual:016x} — the recording is corrupt"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A captured run: config + traces + outcome + fingerprint material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// The storm configuration that produced the run.
    pub config: StormConfig,
    /// The canonically merged execution trace.
    pub trace: ShardTrace,
    /// The canonically merged fault trace.
    pub faults: FaultTrace,
    /// Final per-shard accumulators.
    pub worlds: Vec<u64>,
    /// Total events executed.
    pub events_executed: u64,
    /// Canonical stream hashes (the first two footer fields), carried over
    /// from the run rather than recomputed: the FNV chain over the trace
    /// costs a visible fraction of executing the storm, and the recorder's
    /// overhead contract (< 10% of the run) depends on paying it once.
    /// Private so only canonical constructors can set them; `from_bytes`
    /// stores them only after validating the footer against the decoded
    /// streams.
    trace_hash: u64,
    fault_hash: u64,
}

impl Recording {
    /// Wrap an already-executed run (no re-execution, no re-hashing;
    /// recording cost is serialization only — this is what keeps bench
    /// overhead low).
    pub fn from_run(config: StormConfig, run: StormRun) -> Recording {
        Recording {
            config,
            trace: run.trace,
            faults: run.faults,
            worlds: run.worlds,
            events_executed: run.events,
            trace_hash: run.trace_hash,
            fault_hash: run.fault_hash,
        }
    }

    /// Execute the storm and capture it.
    pub fn record(config: StormConfig) -> Recording {
        let run = run_storm(&config);
        Recording::from_run(config, run)
    }

    /// The canonical event-trace hash (equals `self.trace.hash()`).
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// The canonical fault-trace hash (equals `self.faults.hash()`).
    pub fn fault_hash(&self) -> u64 {
        self.fault_hash
    }

    /// The run fingerprint (same scheme as [`StormRun::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(
            self.events_executed,
            &self.worlds,
            self.trace_hash,
            self.fault_hash,
        )
    }

    /// Serialize to the canonical byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.trace.len() * 24 + self.faults.len() * 12);
        buf.extend_from_slice(&MAGIC);
        put_uvarint(&mut buf, FORMAT_VERSION);

        // Config.
        let (scenario, ring_len) = match self.config.topology {
            StormTopology::Platform => (1u8, 0u64),
            StormTopology::Ring(n) => (2u8, n as u64),
        };
        buf.push(scenario);
        put_uvarint(&mut buf, ring_len);
        put_uvarint(&mut buf, self.config.seeds);
        put_uvarint(&mut buf, self.config.hops as u64);
        let mut flags = 0u8;
        if self.config.chaos_seed.is_some() {
            flags |= 1;
        }
        if self.config.perturb.is_some() {
            flags |= 2;
        }
        buf.push(flags);
        if let Some(seed) = self.config.chaos_seed {
            put_uvarint(&mut buf, seed);
        }
        if let Some(idx) = self.config.perturb {
            put_uvarint(&mut buf, idx);
        }

        // Events: the bulk of the image. Grow the buffer by the largest
        // possible encoding of a batch of entries, write each entry straight
        // into that slice, then cut it back to what was written.
        put_uvarint(&mut buf, self.trace.len() as u64);
        for batch in self.trace.entries().chunks(256) {
            let mut pos = buf.len();
            buf.resize(pos + batch.len() * MAX_ENTRY_BYTES, 0);
            let out = buf.as_mut_slice();
            for e in batch {
                write_uvarint(out, &mut pos, e.shard as u64);
                write_uvarint(out, &mut pos, e.at_ps);
                out[pos] = u8::from(e.domain.is_some())
                    | u8::from(e.target.is_some()) << 1
                    | u8::from(e.priority.is_some()) << 2
                    | u8::from(e.src_domain.is_some()) << 3;
                pos += 1;
                if let Some(d) = e.domain {
                    write_uvarint(out, &mut pos, d);
                }
                if let Some(t) = e.target {
                    write_uvarint(out, &mut pos, t);
                }
                if let Some(p) = e.priority {
                    out[pos] = p;
                    pos += 1;
                }
                if let Some(s) = e.src_domain {
                    write_uvarint(out, &mut pos, s);
                }
                write_uvarint(out, &mut pos, e.posted_at_ps);
                write_uvarint(out, &mut pos, e.origin as u64);
                write_uvarint(out, &mut pos, e.origin_seq);
            }
            buf.truncate(pos);
        }

        // Faults.
        put_uvarint(&mut buf, self.faults.len() as u64);
        for f in self.faults.events() {
            put_uvarint(&mut buf, f.domain.tag());
            put_uvarint(&mut buf, f.op);
            put_uvarint(&mut buf, f.at_ps);
            put_uvarint(&mut buf, f.kind.tag());
            put_uvarint(&mut buf, f.fault.tag());
            put_uvarint(&mut buf, f.detail);
        }

        // Outcome.
        put_uvarint(&mut buf, self.worlds.len() as u64);
        for &w in &self.worlds {
            put_uvarint(&mut buf, w);
        }
        put_uvarint(&mut buf, self.events_executed);

        // Footer.
        buf.extend_from_slice(&self.trace_hash.to_le_bytes());
        buf.extend_from_slice(&self.fault_hash.to_le_bytes());
        buf.extend_from_slice(&self.fingerprint().to_le_bytes());
        buf
    }

    /// Decode a byte image, failing closed on every malformation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, ReplayError> {
        let mut r = Reader::new(bytes);
        if r.bytes(4).map_err(|_| ReplayError::BadMagic)? != MAGIC {
            return Err(ReplayError::BadMagic);
        }
        let version = r.uvarint()?;
        if version != FORMAT_VERSION {
            return Err(ReplayError::UnsupportedVersion(version));
        }

        // Config.
        let topology = match r.u8()? {
            1 => StormTopology::Platform,
            2 => {
                let n = r.uvarint()? as usize;
                if !(2..=MAX_RING).contains(&n) {
                    return Err(ReplayError::BadValue("ring length out of range"));
                }
                StormTopology::Ring(n)
            }
            _ => return Err(ReplayError::BadValue("unknown scenario tag")),
        };
        if topology == StormTopology::Platform && {
            let ring_len = r.uvarint()?;
            ring_len != 0
        } {
            return Err(ReplayError::BadValue("platform recording with ring length"));
        }
        let seeds = r.uvarint()?;
        let hops_raw = r.uvarint()?;
        let hops = u32::try_from(hops_raw)
            .map_err(|_| ReplayError::BadValue("hop count overflows u32"))?;
        let flags = r.u8()?;
        if flags & !0b11 != 0 {
            return Err(ReplayError::BadValue("unknown config flag bits"));
        }
        let chaos_seed = if flags & 1 != 0 {
            Some(r.uvarint()?)
        } else {
            None
        };
        let perturb = if flags & 2 != 0 {
            Some(r.uvarint()?)
        } else {
            None
        };
        let config = StormConfig {
            topology,
            seeds,
            hops,
            chaos_seed,
            perturb,
        };

        // Events.
        let n_events = r.uvarint()? as usize;
        let mut entries = Vec::with_capacity(n_events.min(1 << 20));
        for _ in 0..n_events {
            let shard = r.uvarint()? as usize;
            let at_ps = r.uvarint()?;
            let flags = r.u8()?;
            if flags & !0b1111 != 0 {
                return Err(ReplayError::BadValue("unknown event flag bits"));
            }
            let domain = if flags & 1 != 0 {
                Some(r.uvarint()?)
            } else {
                None
            };
            let target = if flags & 2 != 0 {
                Some(r.uvarint()?)
            } else {
                None
            };
            let priority = if flags & 4 != 0 { Some(r.u8()?) } else { None };
            let src_domain = if flags & 8 != 0 {
                Some(r.uvarint()?)
            } else {
                None
            };
            let posted_at_ps = r.uvarint()?;
            let origin = r.uvarint()? as usize;
            let origin_seq = r.uvarint()?;
            if posted_at_ps > at_ps {
                return Err(ReplayError::BadValue("event posted after it executed"));
            }
            entries.push(ShardTraceEntry {
                shard,
                at_ps,
                domain,
                target,
                priority,
                src_domain,
                posted_at_ps,
                origin,
                origin_seq,
            });
        }
        // The byte image must already be canonical: merged() re-sorts, and
        // any movement means the file was reordered after recording.
        let trace = ShardTrace::merged([entries.clone()]);
        if trace.entries() != entries.as_slice() {
            return Err(ReplayError::BadValue(
                "event entries not in canonical order",
            ));
        }

        // Faults.
        let n_faults = r.uvarint()? as usize;
        let mut faults = FaultTrace::new();
        for _ in 0..n_faults {
            let domain = Domain::from_tag(r.uvarint()?)
                .ok_or(ReplayError::BadValue("unknown fault domain tag"))?;
            let op = r.uvarint()?;
            let at_ps = r.uvarint()?;
            let kind = TraceKind::from_tag(r.uvarint()?)
                .ok_or(ReplayError::BadValue("unknown trace kind tag"))?;
            let fault = FaultKind::from_tag(r.uvarint()?)
                .ok_or(ReplayError::BadValue("unknown fault kind tag"))?;
            let detail = r.uvarint()?;
            faults.push(domain, op, SimTime(at_ps), kind, fault, detail);
        }

        // Outcome.
        let n_worlds = r.uvarint()? as usize;
        let mut worlds = Vec::with_capacity(n_worlds.min(1 << 16));
        for _ in 0..n_worlds {
            worlds.push(r.uvarint()?);
        }
        let events_executed = r.uvarint()?;

        // Footer.
        let footer_trace =
            u64::from_le_bytes(r.bytes(8)?.try_into().expect("eight bytes were just read"));
        let footer_faults =
            u64::from_le_bytes(r.bytes(8)?.try_into().expect("eight bytes were just read"));
        let footer_fp =
            u64::from_le_bytes(r.bytes(8)?.try_into().expect("eight bytes were just read"));
        if r.remaining() != 0 {
            return Err(ReplayError::TrailingBytes);
        }
        let trace_hash = trace.hash();
        if trace_hash != footer_trace {
            return Err(ReplayError::FooterMismatch {
                which: "events",
                expected: footer_trace,
                actual: trace_hash,
            });
        }
        let fault_hash = faults.hash();
        if fault_hash != footer_faults {
            return Err(ReplayError::FooterMismatch {
                which: "faults",
                expected: footer_faults,
                actual: fault_hash,
            });
        }
        let fp = fingerprint_of(events_executed, &worlds, trace_hash, fault_hash);
        if fp != footer_fp {
            return Err(ReplayError::FooterMismatch {
                which: "fingerprint",
                expected: footer_fp,
                actual: fp,
            });
        }

        Ok(Recording {
            config,
            trace,
            faults,
            worlds,
            events_executed,
            trace_hash,
            fault_hash,
        })
    }

    /// Write the canonical byte image to `path`.
    pub fn write_to(&self, path: &Path) -> Result<(), ReplayError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| ReplayError::Io(e.to_string()))
    }

    /// Read and decode a recording from `path`.
    pub fn read_from(path: &Path) -> Result<Recording, ReplayError> {
        let bytes = std::fs::read(path).map_err(|e| ReplayError::Io(e.to_string()))?;
        Recording::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recording {
        Recording::record(StormConfig::platform(12, 8).with_chaos(0xC0FFEE))
    }

    #[test]
    fn byte_image_round_trips_bit_for_bit() {
        let rec = sample();
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.to_bytes(), bytes, "canonical re-encode");
        assert_eq!(back.fingerprint(), rec.fingerprint());
    }

    #[test]
    fn ring_and_perturbed_metas_round_trip() {
        for cfg in [
            StormConfig::ring(5, 10, 6),
            StormConfig::platform(8, 4).with_perturb(3),
            StormConfig::ring(2, 6, 3).with_chaos(9).with_perturb(1),
        ] {
            let rec = Recording::record(cfg);
            let back = Recording::from_bytes(&rec.to_bytes()).unwrap();
            assert_eq!(back.config, cfg);
        }
    }

    #[test]
    fn version_1_images_are_rejected() {
        // A version-1 image is this one with version 1 and a worker-count
        // varint after `hops` (scenario, ring length, seeds and hops of the
        // sample take one byte each).
        let v2 = sample().to_bytes();
        let mut v1 = MAGIC.to_vec();
        v1.push(1);
        v1.extend_from_slice(&v2[5..9]);
        v1.push(2); // workers
        v1.extend_from_slice(&v2[9..]);
        assert_eq!(
            Recording::from_bytes(&v1).unwrap_err(),
            ReplayError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Recording::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ReplayError::BadMagic
                        | ReplayError::Truncated
                        | ReplayError::BadValue(_)
                        | ReplayError::FooterMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_magic_version_and_footer_are_typed_errors() {
        let rec = sample();
        let good = rec.to_bytes();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(
            Recording::from_bytes(&bad).unwrap_err(),
            ReplayError::BadMagic
        );

        let mut bad = good.clone();
        bad[4] = 9; // version varint
        assert_eq!(
            Recording::from_bytes(&bad).unwrap_err(),
            ReplayError::UnsupportedVersion(9)
        );

        // Flip a footer byte: the payload hash no longer matches.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 20] ^= 0xFF; // inside the events-hash field
        assert!(matches!(
            Recording::from_bytes(&bad).unwrap_err(),
            ReplayError::FooterMismatch {
                which: "events",
                ..
            }
        ));

        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(
            Recording::from_bytes(&bad).unwrap_err(),
            ReplayError::TrailingBytes
        );
    }

    #[test]
    fn single_bit_corruption_never_decodes_to_the_original() {
        // Flip the low bit of every byte in turn. Each flip must either
        // fail closed with a typed error (hashed payload, framing, footer)
        // or decode to a *different* recording (unhashed meta fields), never
        // silently reproduce the original.
        let rec = sample();
        let good = rec.to_bytes();
        let mut errored = 0;
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            match Recording::from_bytes(&bad) {
                Ok(r) => assert_ne!(r, rec, "corruption at byte {i} decoded to the original"),
                Err(_) => errored += 1,
            }
        }
        assert!(
            errored > good.len() / 2,
            "most flips land in hashed regions"
        );
    }
}
