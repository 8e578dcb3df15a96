//! Fleet-wide parsed-bitstream metadata cache.
//!
//! Validating a raw blob means checking its header, a CRC over tens of
//! megabytes and a full frame-address scan. On the real system the
//! orchestrator caches validated bitstream artifacts fleet-wide and keys
//! them by content hash, so a repeat deployment of the same blob, by any
//! tenant, skips straight to the ICAP.
//!
//! [`BitstreamCache`] is that artifact cache. It maps a fast 64-bit content
//! hash (plus the blob length) to the blob's [`BitstreamHeader`].
//! [`Bitstream::validate`] consults the process-wide instance: on a hit it
//! returns the header without re-running the CRC or the frame scan; on a
//! miss it validates fully and inserts. An assembled image is admitted when
//! its bytes are first written ([`Bitstream::bytes`]), because those bytes
//! are valid by construction. An image nobody reads is never admitted, and
//! need not be: nobody can validate bytes that were never written.
//!
//! Beside the content map sits an *identity index*: the buffer address of
//! every resident image, that is one whose bytes were written by
//! [`Bitstream::bytes`] or taken over by [`Bitstream::from_bytes`], mapped
//! to a [`Weak`] of the image's shared bytes and its header. Redeploying an
//! in-memory image (§9.3) hands `validate` exactly that buffer, and the
//! index answers it without hashing: a redeployment reads none of the
//! image's bytes.
//!
//! # Coherence
//!
//! The content map is keyed by *content*, not by name: any mutation of a
//! blob — an injected bit flip, a rewritten frame address, a truncation —
//! changes the content hash and therefore misses, falling back to full
//! validation. A cached entry can never mask corruption, it can only skip
//! re-proving the validity of bytes that were already proven valid. On a
//! hit the 32-byte header is additionally cross-checked against the cached
//! metadata, so a (astronomically unlikely) hash collision between two
//! well-formed blobs would still need identical headers to go unnoticed.
//!
//! The identity index is keyed by *where* the bytes are, and is sound
//! without any trust in the caller:
//!
//! - A resident image's bytes sit in an `Arc<OnceLock<Vec<u8>>>` that hands
//!   out only shared references, and the index's live `Weak` makes
//!   `Arc::get_mut` fail. Once admitted, the bytes cannot change.
//! - A hit needs the `Weak` to upgrade *and* the image's buffer to start at
//!   the caller's slice with the same length. The caller's slice is live
//!   for the whole call, and two live allocations never share an address,
//!   so the slice *is* the image's buffer, byte for byte.
//! - Everything else misses into the content path unchanged: a copy (other
//!   address), a sub-slice (other address or length), the recycled address
//!   of a dropped image (its `Weak` no longer upgrades).
//!
//! Each identity entry also remembers the image's last frame-run split,
//! with its frames per run ([`BitstreamHeader::frame_runs`]). The runs are
//! a pure function of the bytes and the run size, and the bytes cannot
//! change while the `Weak` lives, so the same hit test makes the memo
//! sound: only the exact buffer of a live resident image, asked for the
//! same run size, gets the remembered runs. Anything else splits afresh,
//! and a recycled address's new entry starts with none. Memo lookups never
//! touch [`CacheStats`].
//!
//! The remembered runs also stand in for the configuration port's per-run
//! CRC. A slice is a resident image's run when the `Weak` upgrades, the
//! image's buffer holds the slice at the run's byte offset with the run's
//! length, and the remembered split's run of that index equals the run.
//! The split computed that run's CRC over those same bytes, which cannot
//! have changed since, so the run's CRC is the slice's. A copy, a chaos-
//! flipped copy, another image's bytes, another split's runs or a run
//! whose fields were edited all fail the test and are hashed.
//!
//! Only the process-wide cache is filled: a private cache never sees an
//! identity entry, so its counters still come from content lookups alone.
//! Addresses are lookup keys only; none reaches a result, a recording or a
//! file.
//!
//! # Determinism
//!
//! The cache only affects host wall-clock, never simulated time: a hit and
//! a miss return the same header. Concurrent `par_map`
//! workers may race on insertions, but the *result* of every lookup is a
//! pure function of the blob bytes, so determinism fingerprints are unaffected.
//!
//! [`Bitstream::validate`]: crate::Bitstream::validate
//! [`Bitstream::bytes`]: crate::Bitstream::bytes
//! [`Bitstream::from_bytes`]: crate::Bitstream::from_bytes

use crate::bitstream::{BitstreamHeader, FrameRun};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// A bitstream's bytes as its clones share them: empty until written.
pub(crate) type ImageBytes = OnceLock<Vec<u8>>;

/// Default entry capacity of the process-wide cache, for the content map
/// and the identity index each. Entries are ~100 bytes of metadata (the
/// blob bytes themselves are never retained, the index holds `Weak`s), so
/// this bounds the cache to a few tens of kilobytes.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (validation skipped), by content
    /// or by identity.
    pub hits: u64,
    /// Lookups that fell back to full validation.
    pub misses: u64,
    /// Entries inserted (after a miss, or when an assembled image is
    /// first written).
    pub insertions: u64,
    /// Entries dropped by FIFO capacity eviction.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A resident image in the identity index.
#[derive(Debug)]
struct Resident {
    image: Weak<ImageBytes>,
    header: BitstreamHeader,
    /// The last frame-run split asked of the image, with its frames per
    /// run.
    runs: Option<(u64, Arc<[FrameRun]>)>,
}

#[derive(Debug, Default)]
struct CacheInner {
    // Keyed by (blob length, content hash). Lookup tables only — never
    // iterated, so bucket order cannot leak into any artifact.
    map: HashMap<(u64, u64), BitstreamHeader>,
    // FIFO insertion order for deterministic capacity eviction.
    order: VecDeque<(u64, u64)>,
    // The identity index, keyed by buffer address (two live buffers never
    // share one); a lookup table like `map`, bounded the same way through
    // `resident_order`.
    resident: HashMap<usize, Resident>,
    resident_order: VecDeque<usize>,
    stats: CacheStats,
}

impl CacheInner {
    /// The identity entry of the live resident image whose buffer holds
    /// `part` at byte `off`, and that buffer's length (see the module docs'
    /// "Coherence").
    fn resident_holding(&mut self, part: &[u8], off: usize) -> Option<(&mut Resident, usize)> {
        let start = (part.as_ptr() as usize).wrapping_sub(off);
        let entry = self.resident.get_mut(&start)?;
        let image = entry.image.upgrade()?;
        let bytes = image.get()?;
        let own = bytes.get(off..)?.get(..part.len())?;
        let len = bytes.len();
        (own.as_ptr() == part.as_ptr()).then_some((entry, len))
    }

    /// The identity entry of the live resident image whose buffer is
    /// exactly `blob`.
    fn resident_of(&mut self, blob: &[u8]) -> Option<&mut Resident> {
        match self.resident_holding(blob, 0)? {
            (entry, len) if len == blob.len() => Some(entry),
            _ => None,
        }
    }
}

/// A bounded, thread-safe map from blob content hash to parsed metadata.
#[derive(Debug)]
pub struct BitstreamCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl BitstreamCache {
    /// An empty cache holding at most `capacity` entries (FIFO eviction).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BitstreamCache {
        assert!(capacity > 0, "zero-capacity bitstream cache");
        BitstreamCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
        }
    }

    /// The process-wide cache shared by every driver and tenant
    /// ([`Bitstream::validate`] consults it).
    ///
    /// [`Bitstream::validate`]: crate::Bitstream::validate
    pub fn global() -> &'static BitstreamCache {
        static GLOBAL: OnceLock<BitstreamCache> = OnceLock::new();
        GLOBAL.get_or_init(|| BitstreamCache::new(DEFAULT_CACHE_CAPACITY))
    }

    /// Look up a blob by `(len, hash)`. Counts a hit or a miss.
    pub(crate) fn lookup(&self, len: u64, hash: u64) -> Option<BitstreamHeader> {
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        match inner.map.get(&(len, hash)).copied() {
            Some(meta) => {
                inner.stats.hits += 1;
                Some(meta)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert the header of a validated blob whose [`content_hash64`] is
    /// `hash`.
    pub(crate) fn insert(&self, hash: u64, header: BitstreamHeader) {
        let key = (header.blob_len(), hash);
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        if inner.map.insert(key, header).is_none() {
            inner.order.push_back(key);
            inner.stats.insertions += 1;
            while inner.order.len() > self.capacity {
                let oldest = inner.order.pop_front().expect("non-empty order queue");
                inner.map.remove(&oldest);
                inner.stats.evictions += 1;
            }
        }
    }

    /// The header of `blob` if it is exactly the buffer of a live resident
    /// image (see the module docs' "Coherence"). Counts a hit when it is;
    /// anything else is left to the content lookup, which counts.
    pub(crate) fn lookup_resident(&self, blob: &[u8]) -> Option<BitstreamHeader> {
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        let header = inner.resident_of(blob)?.header;
        inner.stats.hits += 1;
        Some(header)
    }

    /// The frame runs remembered for `blob` split at `per` frames per run,
    /// if `blob` is exactly the buffer of a live resident image. Counts
    /// nothing.
    pub(crate) fn resident_runs(&self, blob: &[u8], per: u64) -> Option<Arc<[FrameRun]>> {
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        match &inner.resident_of(blob)?.runs {
            Some((at, runs)) if *at == per => Some(Arc::clone(runs)),
            _ => None,
        }
    }

    /// Whether `bytes` is `run` of a live resident image as the image's
    /// remembered split cut it: the image's own bytes at `run.byte_off`,
    /// `run.byte_len` long, and `run` equal to the split's run of that
    /// index. Then `run.crc` is the CRC-32 of `bytes`, computed by the
    /// split over these same immutable bytes. Counts nothing.
    pub(crate) fn is_resident_run(&self, run: &FrameRun, bytes: &[u8]) -> bool {
        if bytes.len() != run.byte_len {
            return false;
        }
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        inner
            .resident_holding(bytes, run.byte_off)
            .and_then(|(entry, _)| entry.runs.as_ref())
            .is_some_and(|(_, runs)| runs.get(run.index as usize) == Some(run))
    }

    /// Remember `runs`, the split of `blob` at `per` frames per run, if
    /// `blob` is exactly the buffer of a live resident image. Replaces the
    /// image's previous split.
    pub(crate) fn remember_runs(&self, blob: &[u8], per: u64, runs: &Arc<[FrameRun]>) {
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        if let Some(entry) = inner.resident_of(blob) {
            entry.runs = Some((per, Arc::clone(runs)));
        }
    }

    /// Index `bytes`, valid for `header`, as the buffer `image` holds (or
    /// is about to hold: a lookup checks the buffer is really there).
    pub(crate) fn insert_resident(
        &self,
        image: &Arc<ImageBytes>,
        bytes: &[u8],
        header: BitstreamHeader,
    ) {
        let key = bytes.as_ptr() as usize;
        let entry = Resident {
            image: Arc::downgrade(image),
            header,
            runs: None,
        };
        let mut inner = self.inner.lock().expect("bitstream cache poisoned");
        let CacheInner {
            resident,
            resident_order,
            ..
        } = &mut *inner;
        // A recycled address replaces its dead entry, and its runs, in place.
        if resident.insert(key, entry).is_some() {
            return;
        }
        resident_order.push_back(key);
        if resident_order.len() > self.capacity {
            // Forget dropped images before evicting a live one.
            resident_order.retain(|key| {
                let live = resident
                    .get(key)
                    .is_some_and(|r| r.image.strong_count() > 0);
                if !live {
                    resident.remove(key);
                }
                live
            });
            if resident_order.len() > self.capacity {
                let oldest = resident_order.pop_front().expect("non-empty order queue");
                resident.remove(&oldest);
            }
        }
    }

    /// Identity entries currently held.
    #[cfg(test)]
    pub(crate) fn resident_len(&self) -> usize {
        self.inner
            .lock()
            .expect("bitstream cache poisoned")
            .resident
            .len()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("bitstream cache poisoned")
            .map
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("bitstream cache poisoned").stats
    }

    /// Drop every entry, identity entries included, and zero the counters.
    pub fn clear(&self) {
        *self.inner.lock().expect("bitstream cache poisoned") = CacheInner::default();
    }
}

/// Block size of [`content_hash64`]. Blocks hash independently, so the
/// hash can be fused into the pass that writes the blocks, on whichever
/// worker writes each one (see `Bitstream::assemble`).
pub const HASH_BLOCK_BYTES: usize = 1 << 20;

const M: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline(always)]
fn mix(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(M);
    x ^ (x >> 29)
}

/// The hash state of one block: four interleaved multiply-xorshift lanes
/// (each bijective per step, so every input bit perturbs its lane), fed
/// whole 32-byte words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockHasher {
    lanes: [u64; 4],
}

impl BlockHasher {
    pub(crate) fn new() -> BlockHasher {
        BlockHasher {
            lanes: [
                0xCBF2_9CE4_8422_2325,
                0x9AE1_6A3B_2F90_404F,
                0xC2B2_AE3D_27D4_EB4F,
                0x1656_67B1_9E37_79F9,
            ],
        }
    }

    /// Absorb `words`, whose length must be a multiple of 32.
    #[inline]
    pub(crate) fn absorb(&mut self, words: &[u8]) {
        debug_assert_eq!(words.len() % 32, 0, "whole 32-byte words only");
        for chunk in words.chunks_exact(32) {
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let word = u64::from_le_bytes(chunk[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
                *lane = mix(*lane, word);
            }
        }
    }

    /// Absorb the block's remaining bytes (any length) and finish the hash
    /// of a block of `block_len` bytes.
    pub(crate) fn finish(mut self, rest: &[u8], block_len: usize) -> u64 {
        let whole = rest.len() / 32 * 32;
        self.absorb(&rest[..whole]);
        // Tail: fold the remaining 0..31 bytes into lane 0 eight at a time,
        // zero-padded, then mix in the true length so padding is unambiguous.
        let lanes = &mut self.lanes;
        for part in rest[whole..].chunks(8) {
            let mut word = [0u8; 8];
            word[..part.len()].copy_from_slice(part);
            lanes[0] = mix(lanes[0], u64::from_le_bytes(word));
        }
        let mut h = mix(lanes[0], block_len as u64);
        h = mix(h, lanes[1]);
        h = mix(h, lanes[2]);
        h = mix(h, lanes[3]);
        h ^ (h >> 32)
    }
}

/// Fold per-block hashes, in block order, with the blob length.
pub(crate) fn fold_block_hashes(blocks: impl IntoIterator<Item = u64>, len: usize) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for block in blocks {
        h = mix(h, block);
    }
    h = mix(h, len as u64);
    h ^ (h >> 32)
}

/// Fast 64-bit content hash over a blob: a 4-lane hash of each
/// [`HASH_BLOCK_BYTES`] block, folded in order with the length.
///
/// The value is an in-memory cache key only and is never persisted. It
/// runs on the caller's thread: every reconfiguration and upload pays it,
/// and a worker spawned per call would tie each one's latency to the load
/// on the other core. On a fresh 40 MiB buffer it runs at 0.144–0.147
/// ns/B, a little slower than the hardware CRC a hit skips (0.118–0.123
/// ns/B; release, 2-vCPU x86-64 host): a hit saves about the frame scan,
/// and a miss pays the hash on top of the CRC and the scan.
pub fn content_hash64(bytes: &[u8]) -> u64 {
    #[cfg(test)]
    HASHED_BYTES.with(|n| n.set(n.get() + bytes.len() as u64));
    let hashes = bytes
        .chunks(HASH_BLOCK_BYTES)
        .map(|block| BlockHasher::new().finish(block, block.len()));
    fold_block_hashes(hashes, bytes.len())
}

#[cfg(test)]
thread_local! {
    /// Bytes this thread has passed to [`content_hash64`]; validation runs
    /// on the caller's thread, so a test reads its own count.
    static HASHED_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes the calling thread has passed to [`content_hash64`] so far.
#[cfg(test)]
pub(crate) fn hashed_bytes() -> u64 {
    HASHED_BYTES.with(|n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitstreamKind, DeviceKind};

    #[test]
    fn hash_is_bit_sensitive() {
        let mut blob = vec![0u8; 4096];
        let base = content_hash64(&blob);
        for byte in [0usize, 7, 31, 32, 4063, 4095] {
            for bit in 0..8 {
                blob[byte] ^= 1 << bit;
                assert_ne!(content_hash64(&blob), base, "byte {byte} bit {bit}");
                blob[byte] ^= 1 << bit;
            }
        }
        assert_eq!(content_hash64(&blob), base);
    }

    #[test]
    fn hash_distinguishes_lengths_and_padding() {
        // A blob and its zero-extended sibling must not collide even though
        // the tail is zero-padded into the same lane words.
        let a = vec![1u8; 33];
        let mut b = a.clone();
        b.push(0);
        assert_ne!(content_hash64(&a), content_hash64(&b));
        assert_ne!(content_hash64(&[]), content_hash64(&[0]));
    }

    #[test]
    fn hash_is_budget_invariant_and_block_sensitive() {
        // Three blocks and a partial one; a flip in any block moves the hash.
        let mut blob: Vec<u8> = (0..3 * HASH_BLOCK_BYTES as u64 + 77)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        let one = crate::at_budget(1, || content_hash64(&blob));
        let two = crate::at_budget(2, || content_hash64(&blob));
        assert_eq!(one, two);
        for at in [
            0,
            HASH_BLOCK_BYTES - 1,
            HASH_BLOCK_BYTES,
            3 * HASH_BLOCK_BYTES + 76,
        ] {
            blob[at] ^= 0x80;
            assert_ne!(content_hash64(&blob), one, "flip at {at}");
            blob[at] ^= 0x80;
        }
        // Swapping two whole blocks is not invisible either.
        let (a, b) = blob.split_at_mut(HASH_BLOCK_BYTES);
        a.swap_with_slice(&mut b[..HASH_BLOCK_BYTES]);
        assert_ne!(content_hash64(&blob), one);
    }

    #[test]
    fn fifo_eviction_is_bounded() {
        let cache = BitstreamCache::new(2);
        let meta = BitstreamHeader {
            device: DeviceKind::U55C,
            kind: BitstreamKind::Full,
            frames: 1,
            digest: 0,
        };
        cache.insert(1, meta);
        cache.insert(2, meta);
        cache.insert(3, meta);
        assert_eq!(cache.len(), 2);
        let len = meta.blob_len();
        assert!(cache.lookup(len, 1).is_none(), "oldest entry evicted");
        assert!(cache.lookup(len, 2).is_some());
        assert!(cache.lookup(len, 3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn reinsert_does_not_duplicate_order() {
        let cache = BitstreamCache::new(2);
        let meta = BitstreamHeader {
            device: DeviceKind::U55C,
            kind: BitstreamKind::Full,
            frames: 1,
            digest: 0,
        };
        for _ in 0..10 {
            cache.insert(1, meta);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }
}
