//! Partial and full bitstreams as concrete byte blobs.
//!
//! §4: "Coyote v2 will then synthesize all the necessary partial bitstreams
//! which can dynamically be loaded onto the FPGA". The build flows in
//! `coyote-synth` *assemble* these blobs; the driver loads them from disk,
//! copies them to kernel space and streams them through a configuration
//! port, which *parses and validates* them. Sizes follow directly from the
//! floorplan's frame counts, which is what gives Table 3 its latencies.
//!
//! Those latencies depend on an image's length alone, never on its payload.
//! So [`Bitstream::assemble`] records just the header, and the bytes are
//! written by the first [`Bitstream::bytes`] call; clones share them, so an
//! image is resident at most once, and only once something reads it.
//! [`Bitstream::validate`] checks a borrowed blob in place and returns its
//! [`BitstreamHeader`], which is all the configuration port needs; handed
//! the buffer of a resident image, it answers by identity and reads none of
//! its bytes.
//!
//! # Format
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CYT2"
//! 4       2     version (= 2), little-endian
//! 6       2     device id
//! 8       1     kind: 0 full, 1 shell, 2 app
//! 9       1     vFPGA id (0xFF unless kind = app)
//! 10      8     frame count
//! 18      8     design digest (identifies the routed design)
//! 26      6     reserved, zero
//! 32      n*376 frames: 4-byte frame address + 372-byte payload
//! 32+n*376 4    CRC-32 over everything before it
//! ```

use crate::cache::{
    content_hash64, fold_block_hashes, BitstreamCache, BlockHasher, ImageBytes, HASH_BLOCK_BYTES,
};
use crate::crc::{crc32, crc32_concat, Crc32};
use crate::device::{DeviceKind, FRAME_RECORD_BYTES};
use coyote_sim::par_map;
use std::sync::{Arc, Mutex, OnceLock};

/// Header length in bytes.
pub const HEADER_BYTES: usize = 32;
/// Magic bytes.
pub const MAGIC: &[u8; 4] = b"CYT2";
/// Format version.
pub const VERSION: u16 = 2;

/// What a bitstream reconfigures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitstreamKind {
    /// Whole device (Vivado Hardware Manager flow; Table 3 baseline).
    Full,
    /// The shell partition: services + all vFPGA regions (§4).
    Shell,
    /// A single vFPGA region.
    App {
        /// Target region index.
        vfpga: u8,
    },
}

impl BitstreamKind {
    fn code(self) -> (u8, u8) {
        match self {
            BitstreamKind::Full => (0, 0xFF),
            BitstreamKind::Shell => (1, 0xFF),
            BitstreamKind::App { vfpga } => (2, vfpga),
        }
    }

    fn from_code(kind: u8, vfpga: u8) -> Option<BitstreamKind> {
        match kind {
            0 => Some(BitstreamKind::Full),
            1 => Some(BitstreamKind::Shell),
            2 => Some(BitstreamKind::App { vfpga }),
            _ => None,
        }
    }
}

/// Validation failures when parsing a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// Shorter than a header + trailer.
    TooShort(usize),
    /// Wrong magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown device id.
    UnknownDevice(u16),
    /// Unknown kind code.
    BadKind(u8),
    /// Declared frame count disagrees with the byte length.
    Truncated {
        /// Frames the header promised.
        expected_frames: u64,
        /// Bytes actually present for frame data.
        have_bytes: usize,
    },
    /// Integrity check failed.
    CrcMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the body.
        computed: u32,
    },
    /// A frame record carries the wrong frame address. Frame records are
    /// written sequentially from zero; anything else means the blob was
    /// assembled wrong or rewritten (with a re-stamped CRC).
    BadFrameAddress {
        /// Record index within the blob.
        index: u64,
        /// Address found in the record header.
        found: u32,
    },
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::TooShort(n) => write!(f, "bitstream of {n} bytes is too short"),
            BitstreamError::BadMagic => write!(f, "bad magic (not a Coyote v2 bitstream)"),
            BitstreamError::BadVersion(v) => write!(f, "unsupported bitstream version {v}"),
            BitstreamError::UnknownDevice(id) => write!(f, "unknown device id {id:#06x}"),
            BitstreamError::BadKind(k) => write!(f, "unknown bitstream kind {k}"),
            BitstreamError::Truncated {
                expected_frames,
                have_bytes,
            } => {
                write!(f, "truncated: header promises {expected_frames} frames, {have_bytes} bytes present")
            }
            BitstreamError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            BitstreamError::BadFrameAddress { index, found } => {
                write!(
                    f,
                    "frame record {index} carries address {found} (expected {index})"
                )
            }
        }
    }
}

impl std::error::Error for BitstreamError {}

/// The header of a validated bitstream: everything a reconfiguration needs
/// to time and commit an image. Every Table 2/3 latency scales with
/// [`BitstreamHeader::blob_len`], never with the payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamHeader {
    /// Target device.
    pub device: DeviceKind,
    /// What the bitstream reconfigures.
    pub kind: BitstreamKind,
    /// Frame count.
    pub frames: u64,
    /// Design digest (identifies the routed design the blob encodes).
    pub digest: u64,
}

impl BitstreamHeader {
    /// Length of the blob this header describes: header, frame records
    /// and CRC trailer.
    pub fn blob_len(&self) -> u64 {
        (HEADER_BYTES + 4) as u64 + self.frames * FRAME_RECORD_BYTES as u64
    }

    /// The 32 header bytes (the CRC trailer covers them like the frames).
    fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut header = [0u8; HEADER_BYTES];
        header[0..4].copy_from_slice(MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&self.device.id().to_le_bytes());
        let (k, v) = self.kind.code();
        header[8] = k;
        header[9] = v;
        header[10..18].copy_from_slice(&self.frames.to_le_bytes());
        header[18..26].copy_from_slice(&self.digest.to_le_bytes());
        header
    }

    /// Decode a blob's header and check its frame count against the blob
    /// length. Constant time: the CRC and frame scan are
    /// [`Bitstream::validate`]'s job.
    fn parse(bytes: &[u8]) -> Result<BitstreamHeader, BitstreamError> {
        if bytes.len() < HEADER_BYTES + 4 {
            return Err(BitstreamError::TooShort(bytes.len()));
        }
        if &bytes[0..4] != MAGIC {
            return Err(BitstreamError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(BitstreamError::BadVersion(version));
        }
        let dev_id = u16::from_le_bytes([bytes[6], bytes[7]]);
        let device = DeviceKind::from_id(dev_id).ok_or(BitstreamError::UnknownDevice(dev_id))?;
        let kind = BitstreamKind::from_code(bytes[8], bytes[9])
            .ok_or(BitstreamError::BadKind(bytes[8]))?;
        let frames = u64::from_le_bytes(bytes[10..18].try_into().expect("slice len 8"));
        let digest = u64::from_le_bytes(bytes[18..26].try_into().expect("slice len 8"));
        let frame_bytes = (bytes.len() - HEADER_BYTES - 4) as u64;
        // Checked arithmetic: a corrupted frame count must yield a clean
        // error, not an overflow (found by proptest).
        match frames.checked_mul(FRAME_RECORD_BYTES as u64) {
            Some(expected) if expected == frame_bytes => Ok(BitstreamHeader {
                device,
                kind,
                frames,
                digest,
            }),
            _ => Err(BitstreamError::Truncated {
                expected_frames: frames,
                have_bytes: frame_bytes as usize,
            }),
        }
    }

    /// Split `blob`, the validated image this header was read from, into
    /// contiguous frame runs for batched ICAP application: one address
    /// setup and one CRC check per *run* instead of per frame.
    /// `max_frames_per_run = None` yields a single run covering the whole
    /// blob, which programs in exactly the time the unbatched path took.
    ///
    /// Run 0 absorbs the 32-byte header and the last run absorbs the
    /// 4-byte CRC trailer, so the runs' byte lengths sum to the blob length
    /// and streaming every run moves the same bytes as streaming the blob.
    /// Each run carries a CRC-32 over its pristine byte range; a bit flip
    /// anywhere in a run's bytes (header and trailer included) fails that
    /// run's check without touching the others.
    ///
    /// Handed the exact buffer of a resident image, the process-wide
    /// [`BitstreamCache`] remembers the image's last split, so redeploying
    /// it at the same run size reads none of its bytes here. Any other
    /// blob is split afresh. A remembered run's CRC is also its CRC memo:
    /// [`ConfigPort::program_run`] handed the run's own unflipped bytes
    /// uses it instead of re-hashing them.
    ///
    /// [`ConfigPort::program_run`]: crate::ConfigPort::program_run
    pub fn frame_runs(&self, blob: &[u8], max_frames_per_run: Option<u64>) -> Arc<[FrameRun]> {
        self.frame_runs_in(BitstreamCache::global(), blob, max_frames_per_run)
    }

    /// [`BitstreamHeader::frame_runs`] against an explicit cache instance.
    pub(crate) fn frame_runs_in(
        &self,
        cache: &BitstreamCache,
        blob: &[u8],
        max_frames_per_run: Option<u64>,
    ) -> Arc<[FrameRun]> {
        debug_assert_eq!(blob.len() as u64, self.blob_len(), "blob/header mismatch");
        let per = max_frames_per_run.unwrap_or(u64::MAX).max(1);
        if let Some(runs) = cache.resident_runs(blob, per) {
            return runs;
        }
        let runs = self.split_runs(blob, per);
        cache.remember_runs(blob, per, &runs);
        runs
    }

    /// Split `blob` into runs of at most `per` frames, checksumming each.
    fn split_runs(&self, blob: &[u8], per: u64) -> Arc<[FrameRun]> {
        #[cfg(test)]
        RUN_SPLITS.with(|n| n.set(n.get() + 1));
        let n_runs = self.frames.div_ceil(per).max(1);
        let mut runs = Vec::with_capacity(n_runs as usize);
        for i in 0..n_runs {
            let first_frame = i * per;
            let frames = per.min(self.frames - first_frame);
            let byte_off = if i == 0 {
                0
            } else {
                HEADER_BYTES + first_frame as usize * FRAME_RECORD_BYTES
            };
            let byte_end = if i == n_runs - 1 {
                blob.len()
            } else {
                HEADER_BYTES + (first_frame + frames) as usize * FRAME_RECORD_BYTES
            };
            runs.push(FrameRun {
                index: i as u32,
                first_frame,
                frames,
                byte_off,
                byte_len: byte_end - byte_off,
                crc: crc32(&blob[byte_off..byte_end]),
            });
        }
        runs.into()
    }
}

#[cfg(test)]
thread_local! {
    /// Frame-run splits this thread has computed (memo misses).
    static RUN_SPLITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A validated bitstream: its header, plus the image bytes.
///
/// An assembled image's bytes are a pure function of its header, so they
/// are written on the first [`Bitstream::bytes`] call rather than at
/// assembly: an image nobody reads never becomes resident. Clones share the
/// bytes, so each image is in memory at most once.
#[derive(Debug, Clone)]
pub struct Bitstream {
    header: BitstreamHeader,
    /// Empty until an assembled image is first read; always filled for an
    /// image that came from [`Bitstream::from_bytes`]. Only ever lent out
    /// shared, which the cache's identity index relies on.
    bytes: Arc<ImageBytes>,
}

impl PartialEq for Bitstream {
    fn eq(&self, other: &Bitstream) -> bool {
        self.header == other.header
            && match (self.bytes.get(), other.bytes.get()) {
                // Both unwritten, so both assembled from equal headers.
                (None, None) => true,
                _ => self.bytes() == other.bytes(),
            }
    }
}

impl Eq for Bitstream {}

impl Bitstream {
    /// Assemble a bitstream covering `frames` configuration frames for a
    /// design identified by `digest`. Frame payloads are a deterministic
    /// function of `(digest, frame index)` so distinct designs produce
    /// distinct, reproducible blobs. No bytes are written until the first
    /// [`Bitstream::bytes`] call.
    pub fn assemble(
        device: DeviceKind,
        kind: BitstreamKind,
        frames: u64,
        digest: u64,
    ) -> Bitstream {
        Bitstream {
            header: BitstreamHeader {
                device,
                kind,
                frames,
                digest,
            },
            bytes: Arc::default(),
        }
    }

    /// Validate a blob and take ownership of it. The image is then
    /// resident: validating its [`Bitstream::bytes`] again reads none of
    /// them.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Bitstream, BitstreamError> {
        let header = Bitstream::validate(&bytes)?;
        let bytes = Arc::new(OnceLock::from(bytes));
        let owned = bytes.get().expect("filled above");
        BitstreamCache::global().insert_resident(&bytes, owned, header);
        Ok(Bitstream { header, bytes })
    }

    /// Validate a blob in place, consulting the process-wide
    /// [`BitstreamCache`]:
    ///
    /// - the exact buffer of a resident image (one whose bytes were written
    ///   by [`Bitstream::bytes`] or taken over by [`Bitstream::from_bytes`])
    ///   is answered by identity, reading none of its bytes;
    /// - any other blob is content-hashed, and a hit skips the CRC and
    ///   frame-scan passes (any mutation of the bytes changes the hash and
    ///   falls back to full validation).
    pub fn validate(blob: &[u8]) -> Result<BitstreamHeader, BitstreamError> {
        Bitstream::validate_in(BitstreamCache::global(), blob)
    }

    /// [`Bitstream::validate`] against an explicit cache instance
    /// (experiments that report cache statistics use a private cache so
    /// concurrent unrelated traffic cannot perturb their counters). Only
    /// the process-wide cache indexes resident images, so a private one
    /// always takes the content path.
    pub fn validate_in(
        cache: &BitstreamCache,
        blob: &[u8],
    ) -> Result<BitstreamHeader, BitstreamError> {
        if let Some(header) = cache.lookup_resident(blob) {
            return Ok(header);
        }
        let hash = content_hash64(blob);
        if let Some(cached) = cache.lookup(blob.len() as u64, hash) {
            // The header cross-check defeats a hash collision between
            // blobs whose headers differ.
            if BitstreamHeader::parse(blob) == Ok(cached) {
                return Ok(cached);
            }
        }
        let header = BitstreamHeader::parse(blob)?;
        // Serial on the caller, like `content_hash64`: validation sits on
        // the reconfiguration path, not in a build.
        let body = &blob[..blob.len() - 4];
        let computed = crc32(body);
        let stored = u32::from_le_bytes(blob[blob.len() - 4..].try_into().expect("slice len 4"));
        if stored != computed {
            return Err(BitstreamError::CrcMismatch { stored, computed });
        }
        // Frame addresses must be the sequence 0..frames. The CRC does not
        // protect against a blob that was *assembled* wrong (and therefore
        // carries a CRC over the wrong addresses), so this is a separate
        // typed check, not a corruption check.
        for (index, record) in body[HEADER_BYTES..]
            .chunks_exact(FRAME_RECORD_BYTES)
            .enumerate()
        {
            let found = u32::from_le_bytes(record[..4].try_into().expect("slice len 4"));
            if found as u64 != index as u64 {
                return Err(BitstreamError::BadFrameAddress {
                    index: index as u64,
                    found,
                });
            }
        }
        cache.insert(hash, header);
        Ok(header)
    }

    /// The raw blob (what sits in the `.bin` file). The first call on an
    /// assembled image writes it, and admits it to the process-wide
    /// [`BitstreamCache`] by content and by identity: it is valid by
    /// construction, so even its first deployment skips the CRC and frame
    /// scan, and [`Bitstream::validate`] on the returned slice reads none of
    /// its bytes.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.get_or_init(|| {
            let (bytes, hash) = write_image(&self.header);
            let cache = BitstreamCache::global();
            cache.insert(hash, self.header);
            cache.insert_resident(&self.bytes, &bytes, self.header);
            bytes
        })
    }

    /// Whether the image bytes are in memory.
    #[cfg(test)]
    fn is_resident(&self) -> bool {
        self.bytes.get().is_some()
    }

    /// The header, without touching the bytes.
    pub fn header(&self) -> &BitstreamHeader {
        &self.header
    }

    /// Blob length in bytes; the quantity every reconfiguration latency in
    /// Tables 2 and 3 scales with.
    pub fn len(&self) -> u64 {
        self.header.blob_len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Target device.
    pub fn device(&self) -> DeviceKind {
        self.header.device
    }

    /// What this bitstream reconfigures.
    pub fn kind(&self) -> BitstreamKind {
        self.header.kind
    }

    /// Frame count.
    pub fn frames(&self) -> u64 {
        self.header.frames
    }

    /// Design digest (identifies the routed design the blob encodes).
    pub fn digest(&self) -> u64 {
        self.header.digest
    }
}

/// Write the image `header` describes, returning it with its
/// [`content_hash64`].
///
/// The blob is written in [`HASH_BLOCK_BYTES`] chunks on the `par_map`
/// worker budget. Each chunk is checksummed and content-hashed while it is
/// cache-hot; the chunk CRCs fold into the trailer (see
/// [`crate::crc::crc32_combine`]), so the bytes do not depend on the budget.
fn write_image(header: &BitstreamHeader) -> (Vec<u8>, u64) {
    let body_len = HEADER_BYTES + header.frames as usize * FRAME_RECORD_BYTES;
    let head = header.encode();
    // One sized allocation, filled in place: shell images run to tens of
    // megabytes. Each worker gets its own disjoint chunk.
    let mut bytes = vec![0u8; body_len + 4];
    let chunks: Vec<Mutex<&mut [u8]>> =
        bytes.chunks_mut(HASH_BLOCK_BYTES).map(Mutex::new).collect();
    let fills = par_map(&chunks, |i, chunk| {
        let mut chunk = chunk.lock().expect("chunk lock poisoned");
        fill_chunk(
            &mut chunk,
            i * HASH_BLOCK_BYTES,
            body_len,
            &head,
            header.digest,
        )
    });
    drop(chunks);

    let crc = crc32_concat(fills.iter().map(|fill| (fill.crc, fill.body_len)));
    bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    // The trailer is stamped: finish the last chunk's hash over it.
    let hash = fold_block_hashes(
        fills
            .iter()
            .zip(bytes.chunks(HASH_BLOCK_BYTES))
            .map(|(fill, block)| fill.hasher.finish(&block[fill.hashed..], block.len())),
        bytes.len(),
    );
    (bytes, hash)
}

/// One contiguous run of frame records, as applied by the batched ICAP
/// path (see [`BitstreamHeader::frame_runs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRun {
    /// Run index within the batch.
    pub index: u32,
    /// First frame covered by this run.
    pub first_frame: u64,
    /// Frames in this run.
    pub frames: u64,
    /// Byte offset of the run within the blob.
    pub byte_off: usize,
    /// Bytes streamed for this run (run 0 includes the header, the last
    /// run includes the CRC trailer).
    pub byte_len: usize,
    /// CRC-32 over the pristine run bytes; the per-run integrity check,
    /// and for a resident image's run its CRC memo.
    pub crc: u32,
}

/// Splitmix64 increment; also the stream's starting offset from the digest.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// Splitmix words drawn per frame record: 46 whole words plus one for the
/// 4-byte tail of the 372-byte payload.
const WORDS_PER_RECORD: u64 = (FRAME_RECORD_BYTES as u64 - 4).div_ceil(8);

/// Write frame record `index`: its address, then a payload drawn from the
/// digest's splitmix64 stream starting at word `WORDS_PER_RECORD * index`,
/// so any record can be written without its predecessors.
#[inline(always)]
fn fill_record(record: &mut [u8; FRAME_RECORD_BYTES], index: usize, digest: u64) {
    #[inline(always)]
    fn next(word: &mut u64) -> u64 {
        *word = word.wrapping_add(GAMMA);
        let mut z = *word;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut word =
        (digest ^ GAMMA).wrapping_add((WORDS_PER_RECORD * index as u64).wrapping_mul(GAMMA));
    record[..4].copy_from_slice(&(index as u32).to_le_bytes());
    let mut words = record[4..].chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&next(&mut word).to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = next(&mut word).to_le_bytes();
    let n = tail.len();
    tail.copy_from_slice(&last[..n]);
}

/// What [`fill_chunk`] learned about its chunk while writing it.
struct ChunkFill {
    /// CRC-32 of the chunk's body bytes (everything before the trailer).
    crc: u32,
    /// Body bytes in the chunk.
    body_len: usize,
    /// Hash state over the chunk's first `hashed` bytes.
    hasher: BlockHasher,
    hashed: usize,
}

/// Write the body bytes of `chunk`, the blob range starting at `offset`:
/// header, then frame records (the trailer, past `body_len`, stays zero).
/// Each record is checksummed and hashed right after it is written.
fn fill_chunk(
    chunk: &mut [u8],
    offset: usize,
    body_len: usize,
    header: &[u8; HEADER_BYTES],
    digest: u64,
) -> ChunkFill {
    let body = body_len.saturating_sub(offset).min(chunk.len());
    let chunk = &mut chunk[..body];
    let mut crc = Crc32::new();
    let mut hasher = BlockHasher::new();
    let mut hashed = 0;
    let mut pos = 0;
    while pos < body {
        let at = offset + pos;
        let n = if at < HEADER_BYTES {
            let n = (HEADER_BYTES - at).min(body - pos);
            chunk[pos..pos + n].copy_from_slice(&header[at..at + n]);
            n
        } else {
            let index = (at - HEADER_BYTES) / FRAME_RECORD_BYTES;
            let skip = (at - HEADER_BYTES) % FRAME_RECORD_BYTES;
            let n = (FRAME_RECORD_BYTES - skip).min(body - pos);
            let dst = &mut chunk[pos..pos + n];
            if let Ok(record) = <&mut [u8; FRAME_RECORD_BYTES]>::try_from(&mut *dst) {
                fill_record(record, index, digest);
            } else {
                // A record cut by the chunk boundary: write it whole
                // aside and copy this chunk's share.
                let mut record = [0u8; FRAME_RECORD_BYTES];
                fill_record(&mut record, index, digest);
                dst.copy_from_slice(&record[skip..skip + n]);
            }
            n
        };
        crc.update(&chunk[pos..pos + n]);
        pos += n;
        // The hash takes whole words; a partial one waits for the next
        // record (or, at the blob's end, for the trailer).
        let words = pos / 32 * 32;
        hasher.absorb(&chunk[hashed..words]);
        hashed = words;
    }
    ChunkFill {
        crc: crc.finish(),
        body_len: body,
        hasher,
        hashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Floorplan, ShellProfile};

    #[test]
    fn assemble_parse_roundtrip() {
        let bs = Bitstream::assemble(
            DeviceKind::U55C,
            BitstreamKind::App { vfpga: 3 },
            100,
            0xABCD,
        );
        let parsed = Bitstream::from_bytes(bs.bytes().to_vec()).unwrap();
        assert_eq!(parsed.device(), DeviceKind::U55C);
        assert_eq!(parsed.kind(), BitstreamKind::App { vfpga: 3 });
        assert_eq!(parsed.frames(), 100);
        assert_eq!(parsed.digest(), 0xABCD);
        assert_eq!(parsed.len(), bs.len());
    }

    #[test]
    fn shell_bitstream_size_matches_floorplan() {
        let fp = Floorplan::preset(DeviceKind::U55C, ShellProfile::HostOnly, 1);
        let bs = fp.image(BitstreamKind::Shell, 1).unwrap();
        let expected = HEADER_BYTES as u64 + bs.frames() * FRAME_RECORD_BYTES as u64 + 4;
        assert_eq!(bs.len(), expected);
        // ~37 MB: the scenario #1 shell of Table 3.
        assert!((37.0..37.5).contains(&(bs.len() as f64 / 1e6)));
    }

    #[test]
    fn corruption_is_detected() {
        let bs = Bitstream::assemble(DeviceKind::U250, BitstreamKind::Shell, 10, 7);
        let mut bytes = bs.bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            Bitstream::from_bytes(bytes),
            Err(BitstreamError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 10, 7);
        let mut bytes = bs.bytes().to_vec();
        bytes.truncate(bytes.len() - FRAME_RECORD_BYTES);
        // Re-stamp a valid CRC so only the length check can catch it.
        let body_end = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        assert!(matches!(
            Bitstream::from_bytes(bytes),
            Err(BitstreamError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 1, 0);
        let mut bad_magic = bs.bytes().to_vec();
        bad_magic[0] = b'X';
        assert_eq!(
            Bitstream::from_bytes(bad_magic).unwrap_err(),
            BitstreamError::BadMagic
        );

        let mut bad_version = bs.bytes().to_vec();
        bad_version[4] = 9;
        // CRC will also mismatch, but version is checked first.
        assert_eq!(
            Bitstream::from_bytes(bad_version).unwrap_err(),
            BitstreamError::BadVersion(9)
        );
    }

    #[test]
    fn distinct_digests_give_distinct_payloads() {
        let a = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 5, 1);
        let b = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 5, 2);
        assert_ne!(a.bytes()[HEADER_BYTES..], b.bytes()[HEADER_BYTES..]);
    }

    #[test]
    fn too_short_rejected() {
        assert!(matches!(
            Bitstream::from_bytes(vec![0u8; 10]),
            Err(BitstreamError::TooShort(10))
        ));
    }

    #[test]
    fn rewritten_frame_address_rejected_despite_valid_crc() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 8, 3);
        let mut bytes = bs.bytes().to_vec();
        // Rewrite the address of frame record 5, then re-stamp the CRC so
        // only the address check can catch it.
        let off = HEADER_BYTES + 5 * FRAME_RECORD_BYTES;
        bytes[off..off + 4].copy_from_slice(&999u32.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        assert_eq!(
            Bitstream::from_bytes(bytes).unwrap_err(),
            BitstreamError::BadFrameAddress {
                index: 5,
                found: 999
            }
        );
    }

    #[test]
    fn unknown_device_and_kind_rejected() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 1, 0);
        let mut bad_dev = bs.bytes().to_vec();
        bad_dev[6..8].copy_from_slice(&0xDEADu16.to_le_bytes());
        assert_eq!(
            Bitstream::from_bytes(bad_dev).unwrap_err(),
            BitstreamError::UnknownDevice(0xDEAD)
        );
        let mut bad_kind = bs.bytes().to_vec();
        bad_kind[8] = 7;
        assert_eq!(
            Bitstream::from_bytes(bad_kind).unwrap_err(),
            BitstreamError::BadKind(7)
        );
    }

    #[test]
    fn frame_runs_partition_the_blob_exactly() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 10, 3);
        // Single run covers everything.
        let single = bs.header().frame_runs(bs.bytes(), None);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].byte_off, 0);
        assert_eq!(single[0].byte_len as u64, bs.len());
        assert_eq!(single[0].frames, 10);
        assert_eq!(single[0].crc, crc32(bs.bytes()));

        // 4-frame runs: 4 + 4 + 2, contiguous, summing to the blob length.
        let runs = bs.header().frame_runs(bs.bytes(), Some(4));
        assert_eq!(runs.len(), 3);
        assert_eq!(runs.iter().map(|r| r.frames).sum::<u64>(), 10);
        assert_eq!(
            runs.iter().map(|r| r.byte_len as u64).sum::<u64>(),
            bs.len()
        );
        let mut off = 0;
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index as usize, i);
            assert_eq!(run.byte_off, off, "runs are contiguous");
            let range = &bs.bytes()[run.byte_off..run.byte_off + run.byte_len];
            assert_eq!(run.crc, crc32(range), "per-run CRC covers the run bytes");
            off += run.byte_len;
        }
        assert_eq!(runs[0].byte_off, 0, "run 0 absorbs the header");
        assert_eq!(off as u64, bs.len(), "last run absorbs the trailer");
    }

    #[test]
    fn cache_hit_skips_validation_but_matches_full_parse() {
        let cache = crate::cache::BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U280, BitstreamKind::App { vfpga: 2 }, 20, 42);
        let first = Bitstream::validate_in(&cache, bs.bytes()).unwrap();
        let second = Bitstream::validate_in(&cache, bs.bytes()).unwrap();
        assert_eq!(first, second, "cached header is the parsed one");
        assert_eq!(&second, bs.header());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "first parse validates fully");
        assert_eq!(stats.hits, 1, "second parse is answered from the cache");
    }

    #[test]
    fn mutated_blob_misses_cache_and_is_still_rejected() {
        let cache = crate::cache::BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 12, 9);
        Bitstream::validate_in(&cache, bs.bytes()).unwrap();
        // Flip one payload bit: the content hash changes, so the cached
        // entry cannot mask the corruption.
        let mut corrupt = bs.bytes().to_vec();
        corrupt[HEADER_BYTES + 100] ^= 0x01;
        assert!(matches!(
            Bitstream::validate_in(&cache, &corrupt),
            Err(BitstreamError::CrcMismatch { .. })
        ));
        assert_eq!(cache.stats().misses, 2);
    }

    /// The serial assembly the chunked one must reproduce byte for byte:
    /// one splitmix64 stream over every record, then one CRC pass.
    fn reference_assemble(
        device: DeviceKind,
        kind: BitstreamKind,
        frames: u64,
        digest: u64,
    ) -> Vec<u8> {
        let mut bytes = vec![0u8; HEADER_BYTES];
        bytes[0..4].copy_from_slice(MAGIC);
        bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
        bytes[6..8].copy_from_slice(&device.id().to_le_bytes());
        let (k, v) = kind.code();
        bytes[8] = k;
        bytes[9] = v;
        bytes[10..18].copy_from_slice(&frames.to_le_bytes());
        bytes[18..26].copy_from_slice(&digest.to_le_bytes());
        let mut word = digest ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            word = word.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = word;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)).to_le_bytes()
        };
        for addr in 0..frames {
            bytes.extend_from_slice(&(addr as u32).to_le_bytes());
            for _ in 0..46 {
                bytes.extend_from_slice(&next());
            }
            bytes.extend_from_slice(&next()[..4]);
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn chunked_assembly_matches_serial_reference() {
        let c = (HASH_BLOCK_BYTES / FRAME_RECORD_BYTES) as u64;
        // A body that ends exactly on a chunk boundary leaves the trailer
        // alone in the last chunk.
        let aligned = (1..)
            .find(|n| (HEADER_BYTES + n * FRAME_RECORD_BYTES).is_multiple_of(HASH_BLOCK_BYTES))
            .expect("some frame count fills whole chunks") as u64;
        for frames in [1, c - 1, c, c + 1, 3 * c + 7, aligned] {
            let want = reference_assemble(DeviceKind::U280, BitstreamKind::Shell, frames, 0x5EED);
            let header =
                Bitstream::assemble(DeviceKind::U280, BitstreamKind::Shell, frames, 0x5EED).header;
            for threads in [1, 2] {
                let (got, hash) = crate::at_budget(threads, || write_image(&header));
                assert!(got == want, "{frames} frames at budget {threads}");
                // The hash fused into the fill is the one a parse computes.
                assert_eq!(
                    hash,
                    content_hash64(&want),
                    "{frames} frames at budget {threads}"
                );
            }
        }
    }

    #[test]
    fn chunked_validation_reports_the_first_bad_frame() {
        // Bad addresses in two different chunks: the lower index wins at
        // every budget, as in a front-to-back scan.
        let c = HASH_BLOCK_BYTES / FRAME_RECORD_BYTES;
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 3 * c as u64, 3);
        let mut bytes = bs.bytes().to_vec();
        for index in [c + 5, 2 * c + 9] {
            let off = HEADER_BYTES + index * FRAME_RECORD_BYTES;
            bytes[off..off + 4].copy_from_slice(&7u32.to_le_bytes());
        }
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        for threads in [1, 2] {
            let cache = crate::cache::BitstreamCache::new(1);
            let err = crate::at_budget(threads, || {
                Bitstream::validate_in(&cache, &bytes).unwrap_err()
            });
            assert_eq!(
                err,
                BitstreamError::BadFrameAddress {
                    index: c as u64 + 5,
                    found: 7
                }
            );
        }
    }

    #[test]
    fn overflowing_frame_count_rejected() {
        // A frame count whose byte size overflows u64 must yield Truncated,
        // not a panic.
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Full, 1, 0);
        let mut bytes = bs.bytes().to_vec();
        bytes[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        assert!(matches!(
            Bitstream::from_bytes(bytes),
            Err(BitstreamError::Truncated { .. })
        ));
    }

    /// An image spanning three whole [`HASH_BLOCK_BYTES`] blocks and a
    /// partial one.
    fn four_block_image() -> Bitstream {
        let c = (HASH_BLOCK_BYTES / FRAME_RECORD_BYTES) as u64;
        Bitstream::assemble(DeviceKind::U280, BitstreamKind::Shell, 3 * c + 7, 0x5EED)
    }

    #[test]
    fn lazily_written_image_keeps_its_pinned_bytes() {
        // Pinned from the eager writer the lazy one replaced: same payload,
        // same trailer, same content hash.
        let bs = four_block_image();
        let bytes = bs.bytes();
        assert_eq!(bytes.len(), 3_147_532);
        assert_eq!(bytes.len() / HASH_BLOCK_BYTES, 3);
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        assert_eq!(crc, 0x4eca_850e);
        assert_eq!(content_hash64(bytes), 0x10de_0522_61e3_803b);
    }

    #[test]
    fn header_reads_leave_the_image_unwritten() {
        let bs = four_block_image();
        let twin = bs.clone();
        assert_eq!(bs.len(), 3_147_532);
        assert_eq!(bs.digest(), 0x5EED);
        assert_eq!(bs.frames(), twin.frames());
        assert_eq!(
            (bs.kind(), bs.device()),
            (BitstreamKind::Shell, DeviceKind::U280)
        );
        assert_eq!(bs.header().blob_len(), bs.len());
        assert_eq!(bs, four_block_image(), "equal headers, both unwritten");
        assert!(!bs.is_resident() && !twin.is_resident());

        // The first read writes the shared copy and admits it.
        let hash = content_hash64(twin.bytes());
        assert!(bs.is_resident(), "clones share the written bytes");
        assert_eq!(
            BitstreamCache::global().lookup(bs.len(), hash),
            Some(*bs.header())
        );
        assert_eq!(
            bs,
            four_block_image(),
            "written and unwritten compare by bytes"
        );
    }

    #[test]
    fn clones_share_one_copy() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 1 }, 40, 5);
        let before = bs.clone();
        let after = {
            bs.bytes();
            bs.clone()
        };
        assert_eq!(bs.bytes().as_ptr(), before.bytes().as_ptr());
        assert_eq!(bs.bytes().as_ptr(), after.bytes().as_ptr());
        let parsed = Bitstream::from_bytes(bs.bytes().to_vec()).unwrap();
        assert_eq!(parsed.bytes().as_ptr(), parsed.clone().bytes().as_ptr());
        assert_eq!(parsed, bs);
    }

    /// Re-stamp the trailer so only the checks after the CRC can fail.
    fn restamp(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        bytes
    }

    #[test]
    fn validate_in_place_matches_from_bytes_for_every_error() {
        let good = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 6, 8)
            .bytes()
            .to_vec();
        let edit = |at: usize, with: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + with.len()].copy_from_slice(with);
            bytes
        };
        let blobs = [
            vec![0u8; 20],
            edit(0, b"X"),
            edit(4, &[9]),
            edit(6, &0xDEADu16.to_le_bytes()),
            edit(8, &[7]),
            restamp(edit(10, &u64::MAX.to_le_bytes())),
            edit(HEADER_BYTES + 100, &[!good[HEADER_BYTES + 100]]),
            restamp(edit(HEADER_BYTES + 2 * FRAME_RECORD_BYTES, &[9])),
        ];
        let mut seen = Vec::new();
        for blob in &blobs {
            let err = Bitstream::validate(blob).unwrap_err();
            let owned = Bitstream::from_bytes(blob.to_vec()).map(|bs| *bs.header());
            assert_eq!(owned, Err(err.clone()));
            // Exhaustive: a new variant must be added to `blobs`.
            seen.push(match err {
                BitstreamError::TooShort(_) => 0,
                BitstreamError::BadMagic => 1,
                BitstreamError::BadVersion(_) => 2,
                BitstreamError::UnknownDevice(_) => 3,
                BitstreamError::BadKind(_) => 4,
                BitstreamError::Truncated { .. } => 5,
                BitstreamError::CrcMismatch { .. } => 6,
                BitstreamError::BadFrameAddress { .. } => 7,
            });
        }
        assert_eq!(seen, (0..8).collect::<Vec<_>>(), "one blob per variant");
        assert_eq!(
            Bitstream::validate(&good),
            Ok(Bitstream::from_bytes(good.clone()).unwrap().header)
        );
    }

    /// Bytes `f` passes to `content_hash64` on this thread, and its value.
    fn hashing<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = crate::cache::hashed_bytes();
        let out = f();
        (crate::cache::hashed_bytes() - before, out)
    }

    /// Index `bs` in a private cache, as the process-wide cache does when
    /// its bytes are first written, so counters are this test's alone.
    fn resident_in(cache: &BitstreamCache, bs: &Bitstream) {
        cache.insert_resident(&bs.bytes, bs.bytes(), bs.header);
    }

    #[test]
    fn redeploying_a_resident_image_hashes_nothing() {
        let app = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 2 }, 30, 11);
        let shell = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 50, 12);
        let upload = Bitstream::from_bytes(app.bytes().to_vec()).unwrap();
        for bs in [&app, &shell, &upload] {
            for _ in 0..3 {
                let (hashed, header) = hashing(|| Bitstream::validate(bs.bytes()));
                assert_eq!(hashed, 0, "{:?}", bs.kind());
                assert_eq!(header, Ok(bs.header));
            }
        }
    }

    #[test]
    fn a_copy_of_a_resident_image_hits_by_content() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U280, BitstreamKind::App { vfpga: 1 }, 25, 4);
        // Prove the bytes once through the content path, then index them.
        Bitstream::validate_in(&cache, bs.bytes()).unwrap();
        resident_in(&cache, &bs);
        let copy = bs.bytes().to_vec();
        let (hashed, header) = hashing(|| Bitstream::validate_in(&cache, &copy));
        assert_eq!(hashed, copy.len() as u64, "a copy is hashed");
        assert_eq!(header, Ok(bs.header));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "hit by content");
    }

    #[test]
    fn a_flipped_copy_fails_while_the_resident_image_validates() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 40, 6);
        resident_in(&cache, &bs);
        let mut flipped = bs.bytes().to_vec();
        flipped[HEADER_BYTES + 3 * FRAME_RECORD_BYTES + 17] ^= 0x10;
        assert!(matches!(
            Bitstream::validate_in(&cache, &flipped),
            Err(BitstreamError::CrcMismatch { .. })
        ));
        let (hashed, header) = hashing(|| Bitstream::validate_in(&cache, bs.bytes()));
        assert_eq!((hashed, header), (0, Ok(bs.header)));
        // Sub-slices of the resident buffer are not the image either.
        let whole = bs.bytes();
        for part in [&whole[..whole.len() - 4], &whole[4..]] {
            let (hashed, header) = hashing(|| Bitstream::validate_in(&cache, part));
            assert_eq!(hashed, part.len() as u64);
            assert!(header.is_err());
        }
    }

    #[test]
    fn a_recycled_address_never_hits() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 0 }, 20, 8);
        resident_in(&cache, &bs);
        let (addr, len) = (bs.bytes().as_ptr(), bs.bytes().len());
        drop(bs);
        // Same-length buffers, kept alive so each is a new allocation,
        // until the allocator hands the dropped image's address back or
        // the tries run out.
        let mut fresh = Vec::new();
        while fresh.len() < 64 && !fresh.iter().any(|b: &Vec<u8>| b.as_ptr() == addr) {
            fresh.push(vec![0u8; len]);
        }
        for blob in &fresh {
            assert_eq!(
                Bitstream::validate_in(&cache, blob),
                Err(BitstreamError::BadMagic)
            );
        }
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn clones_share_one_identity_entry() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U250, BitstreamKind::App { vfpga: 3 }, 15, 2);
        let twin = bs.clone();
        resident_in(&cache, &bs);
        resident_in(&cache, &twin);
        assert_eq!(cache.resident_len(), 1);
        let (hashed, header) = hashing(|| Bitstream::validate_in(&cache, twin.bytes()));
        assert_eq!((hashed, header), (0, Ok(bs.header)));
    }

    #[test]
    fn identity_hits_count_and_clear_empties_the_index() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 10, 3);
        resident_in(&cache, &bs);
        for _ in 0..2 {
            Bitstream::validate_in(&cache, bs.bytes()).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 0, 0));
        cache.clear();
        assert_eq!(cache.resident_len(), 0);
        let (hashed, _) = hashing(|| Bitstream::validate_in(&cache, bs.bytes()));
        assert_eq!(hashed, bs.len(), "cleared: back to the content path");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn a_private_cache_never_sees_global_identity_entries() {
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 1 }, 12, 21);
        let parsed = Bitstream::from_bytes(bs.bytes().to_vec()).unwrap();
        let cache = BitstreamCache::new(8);
        for image in [&bs, &parsed] {
            let (hashed, header) = hashing(|| Bitstream::validate_in(&cache, image.bytes()));
            assert_eq!((hashed, header), (image.len(), Ok(bs.header)));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "content path only");
        assert_eq!(cache.resident_len(), 0);
    }

    #[test]
    fn identity_index_forgets_dropped_images_before_live_ones() {
        let cache = BitstreamCache::new(2);
        let live = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 9, 1);
        resident_in(&cache, &live);
        // Images that come and go, as uploads do, never push out a live one.
        for digest in 2..10 {
            let gone = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 9, digest);
            resident_in(&cache, &gone);
        }
        assert!(cache.resident_len() <= 2);
        let (hashed, _) = hashing(|| Bitstream::validate_in(&cache, live.bytes()));
        assert_eq!(hashed, 0, "the live image is still indexed");
        // Live images past capacity evict the oldest.
        let a = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 9, 20);
        let b = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 9, 21);
        resident_in(&cache, &a);
        resident_in(&cache, &b);
        assert_eq!(cache.resident_len(), 2);
        let (hashed, _) = hashing(|| Bitstream::validate_in(&cache, live.bytes()));
        assert_eq!(hashed, live.len(), "oldest evicted");
    }

    /// Frame-run splits `f` computes on this thread, and its value.
    fn splitting<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = RUN_SPLITS.with(|n| n.get());
        let out = f();
        (RUN_SPLITS.with(|n| n.get()) - before, out)
    }

    #[test]
    fn memoised_runs_equal_a_fresh_split() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 1 }, 30, 31);
        resident_in(&cache, &bs);
        let (split, first) = splitting(|| bs.header.frame_runs_in(&cache, bs.bytes(), Some(4)));
        assert_eq!(split, 1);
        for _ in 0..3 {
            let (split, again) = splitting(|| bs.header.frame_runs_in(&cache, bs.bytes(), Some(4)));
            assert_eq!(split, 0, "remembered");
            assert!(Arc::ptr_eq(&first, &again));
        }
        let fresh = bs.header.split_runs(bs.bytes(), 4);
        assert_eq!(first, fresh);
        for run in first.iter() {
            let range = &bs.bytes()[run.byte_off..run.byte_off + run.byte_len];
            assert_eq!(run.crc, crc32(range));
        }
    }

    #[test]
    fn anything_but_the_resident_buffer_at_the_same_run_size_recomputes() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U280, BitstreamKind::Shell, 24, 32);
        resident_in(&cache, &bs);
        let runs = |header: &BitstreamHeader, blob: &[u8], per| {
            splitting(|| header.frame_runs_in(&cache, blob, per))
        };
        let (split, memo) = runs(&bs.header, bs.bytes(), Some(5));
        assert_eq!(split, 1);
        // A copy: same bytes, another buffer.
        let copy = bs.bytes().to_vec();
        for _ in 0..2 {
            let (split, of_copy) = runs(&bs.header, &copy, Some(5));
            assert_eq!((split, &of_copy), (1, &memo));
        }
        // A sub-slice at the image's address, split with its own header.
        let short = BitstreamHeader {
            frames: bs.frames() - 1,
            ..bs.header
        };
        let part = &bs.bytes()[..short.blob_len() as usize];
        for _ in 0..2 {
            assert_eq!(runs(&short, part, Some(5)).0, 1);
        }
        // Another run size replaces the remembered split.
        for (per, want) in [
            (Some(6), 1),
            (Some(6), 0),
            (None, 1),
            (None, 0),
            (Some(5), 1),
            (Some(5), 0),
        ] {
            assert_eq!(runs(&bs.header, bs.bytes(), per).0, want, "{per:?}");
        }
        // Unindexed in another cache: always a fresh split.
        let other = BitstreamCache::new(8);
        let (split, _) = splitting(|| bs.header.frame_runs_in(&other, bs.bytes(), Some(5)));
        assert_eq!(split, 1);
    }

    #[test]
    fn a_recycled_address_recomputes_its_runs() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 0 }, 20, 33);
        resident_in(&cache, &bs);
        bs.header.frame_runs_in(&cache, bs.bytes(), Some(3));
        let header = bs.header;
        let addr = bs.bytes().as_ptr();
        // Another design of the same size, so a stale split would differ.
        let other = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 0 }, 20, 34)
            .bytes()
            .to_vec();
        drop(bs);
        // New resident images of the same length, kept alive so each is a
        // new allocation, until one lands on the dropped image's address.
        let mut fresh: Vec<Arc<ImageBytes>> = Vec::new();
        while fresh.len() < 64 && !fresh.iter().any(|b| b.get().unwrap().as_ptr() == addr) {
            let image = Arc::new(OnceLock::from(other.clone()));
            cache.insert_resident(&image, image.get().unwrap(), header);
            fresh.push(image);
        }
        for image in &fresh {
            let blob = image.get().unwrap();
            let (split, runs) = splitting(|| header.frame_runs_in(&cache, blob, Some(3)));
            assert_eq!(split, 1, "a new image starts with no runs");
            assert_eq!(runs, header.split_runs(&other, 3));
        }
    }

    #[test]
    fn run_memo_lookups_leave_the_cache_counters_alone() {
        let cache = BitstreamCache::new(8);
        let bs = Bitstream::assemble(DeviceKind::U250, BitstreamKind::Shell, 16, 35);
        resident_in(&cache, &bs);
        Bitstream::validate_in(&cache, bs.bytes()).unwrap();
        let before = cache.stats();
        let copy = bs.bytes().to_vec();
        for per in [Some(4), Some(4), Some(7), None] {
            bs.header.frame_runs_in(&cache, bs.bytes(), per);
            bs.header.frame_runs_in(&cache, &copy, per);
        }
        assert_eq!(cache.stats(), before);
        assert_eq!(cache.len(), 0, "runs are not content entries");
    }

    #[test]
    fn redeploying_a_resident_image_splits_it_once() {
        // Through the process-wide cache, as the batched driver path does.
        let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::App { vfpga: 3 }, 40, 36);
        let twin = bs.clone();
        let (split, first) = splitting(|| bs.header().frame_runs(bs.bytes(), Some(8)));
        assert_eq!(split, 1);
        let (split, again) = splitting(|| twin.header().frame_runs(twin.bytes(), Some(8)));
        assert_eq!(split, 0, "clones share the image and its runs");
        assert!(Arc::ptr_eq(&first, &again));
    }
}
