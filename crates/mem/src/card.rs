//! Card memory: HBM pseudo-channels (U55C/U280) or DDR4 channels (U250).
//!
//! §6.1: "Coyote v2 also abstracts the creation of any memory controllers
//! (HBM/DDR) on the FPGA and is highly configurable, allowing developers to
//! set options such as number of memory channels, memory clock frequency
//! etc. ... To maximize throughput, Coyote v2 implements memory striping,
//! partitioning data buffers across multiple HBM banks."
//!
//! Each channel is an independent [`LinkModel`]; striping maps consecutive
//! stripes of a buffer onto consecutive channels so a single vFPGA can pull
//! from many channels in parallel — the mechanism behind Fig. 7(a).

use crate::alloc::RangeAlloc;
use crate::sparse::{MemAccessError, SparseBytes};
use crate::PhysAddr;
use coyote_sim::time::Bandwidth;
use coyote_sim::{params, LinkModel, SimDuration, SimTime, Transfer};

/// Stripe granularity: one packet per channel turn.
const STRIPE_BYTES: u64 = params::DEFAULT_PACKET_BYTES;

/// Which technology backs the card memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CardMemKind {
    /// HBM2 stack (U55C: 16 GB over 32 pseudo-channels).
    Hbm,
    /// DDR4 (U250: 64 GB over 4 channels).
    Ddr,
}

impl CardMemKind {
    /// Default channel count.
    pub fn default_channels(self) -> usize {
        match self {
            CardMemKind::Hbm => params::HBM_CHANNELS,
            CardMemKind::Ddr => 4,
        }
    }

    /// Per-channel sustained bandwidth.
    pub fn channel_bandwidth(self) -> Bandwidth {
        match self {
            CardMemKind::Hbm => params::HBM_CHANNEL_BW,
            CardMemKind::Ddr => params::DDR_CHANNEL_BW,
        }
    }

    /// Access latency.
    pub fn latency(self) -> SimDuration {
        match self {
            CardMemKind::Hbm => params::HBM_LATENCY,
            CardMemKind::Ddr => params::DDR_LATENCY,
        }
    }

    /// Default per-channel capacity.
    pub fn channel_capacity(self) -> u64 {
        match self {
            CardMemKind::Hbm => params::HBM_CHANNEL_BYTES,
            CardMemKind::Ddr => 16 << 30,
        }
    }
}

/// Card-side memory with per-channel bandwidth models and striping.
#[derive(Debug)]
pub struct CardMemory {
    kind: CardMemKind,
    channels: Vec<LinkModel>,
    store: SparseBytes,
    alloc: RangeAlloc,
}

impl CardMemory {
    /// Card memory with the default channel count for `kind`.
    pub fn new(kind: CardMemKind) -> CardMemory {
        Self::with_channels(kind, kind.default_channels())
    }

    /// Card memory with an explicit channel count (the §9.1 sweep).
    pub fn with_channels(kind: CardMemKind, n: usize) -> CardMemory {
        assert!(n >= 1, "at least one channel");
        let capacity = kind.channel_capacity() * n as u64;
        CardMemory {
            kind,
            channels: (0..n)
                .map(|_| LinkModel::new(kind.channel_bandwidth(), kind.latency()))
                .collect(),
            store: SparseBytes::new(capacity),
            alloc: RangeAlloc::new(capacity),
        }
    }

    /// Technology kind.
    pub fn kind(&self) -> CardMemKind {
        self.kind
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.store.capacity()
    }

    /// Channel serving the stripe containing `addr`.
    pub fn channel_of(&self, addr: PhysAddr) -> usize {
        ((addr / STRIPE_BYTES) % self.channels.len() as u64) as usize
    }

    /// Allocate a card buffer (`getMem` with a card-memory target).
    pub fn alloc_buffer(&mut self, len: u64) -> Option<PhysAddr> {
        // Stripe-aligned so striping starts on channel boundaries.
        self.alloc.alloc(len.max(1), STRIPE_BYTES)
    }

    /// Free a card buffer.
    pub fn free_buffer(&mut self, addr: PhysAddr, len: u64) {
        self.alloc.free(addr, len.max(1));
    }

    /// Book the data movement of `len` bytes at `addr` on the owning
    /// channels, one booking per stripe. Returns the per-stripe transfers;
    /// the overall completion is their maximum `arrival`.
    ///
    /// This only models *time*; pair with [`CardMemory::write`] /
    /// [`CardMemory::read_into`] for the data itself.
    pub fn book_access(&mut self, now: SimTime, addr: PhysAddr, len: u64) -> Vec<Transfer> {
        let mut out = Vec::new();
        let mut a = addr;
        let end = addr + len;
        while a < end {
            let stripe_end = (a / STRIPE_BYTES + 1) * STRIPE_BYTES;
            let n = stripe_end.min(end) - a;
            let ch = self.channel_of(a);
            out.push(self.channels[ch].transmit(now, n));
            a += n;
        }
        out
    }

    /// Completion instant of a booked access.
    pub fn completion_of(transfers: &[Transfer]) -> SimTime {
        transfers
            .iter()
            .map(|t| t.arrival)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Write data.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), MemAccessError> {
        self.store.write(addr, data)
    }

    /// Fill `out` with the data at `addr`.
    pub fn read_into(&self, addr: PhysAddr, out: &mut [u8]) -> Result<(), MemAccessError> {
        self.store.read_into(addr, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u55c_hbm_geometry() {
        let hbm = CardMemory::new(CardMemKind::Hbm);
        assert_eq!(hbm.channel_count(), 32);
        assert_eq!(hbm.capacity(), 16 << 30);
    }

    #[test]
    fn striping_distributes_consecutive_stripes() {
        let hbm = CardMemory::with_channels(CardMemKind::Hbm, 8);
        for i in 0..16 {
            assert_eq!(hbm.channel_of(i * STRIPE_BYTES), (i % 8) as usize);
        }
    }

    #[test]
    fn striped_access_uses_all_channels_in_parallel() {
        let mut hbm = CardMemory::with_channels(CardMemKind::Hbm, 4);
        let len = 16 * STRIPE_BYTES;
        let transfers = hbm.book_access(SimTime::ZERO, 0, len);
        assert_eq!(transfers.len(), 16);
        let done = CardMemory::completion_of(&transfers);
        // 16 stripes over 4 channels: 4 serialized stripes per channel.
        let per_stripe = CardMemKind::Hbm.channel_bandwidth().time_for(STRIPE_BYTES);
        let expected = SimTime::ZERO + per_stripe * 4 + CardMemKind::Hbm.latency();
        assert_eq!(done, expected);
    }

    #[test]
    fn unaligned_access_straddles_stripes() {
        let mut hbm = CardMemory::with_channels(CardMemKind::Hbm, 2);
        let transfers = hbm.book_access(SimTime::ZERO, STRIPE_BYTES - 100, 200);
        assert_eq!(transfers.len(), 2, "split at the stripe boundary");
    }

    #[test]
    fn data_roundtrip_with_alloc() {
        let mut hbm = CardMemory::with_channels(CardMemKind::Hbm, 4);
        let addr = hbm.alloc_buffer(1 << 20).unwrap();
        let data: Vec<u8> = (0..1 << 20).map(|i| (i % 253) as u8).collect();
        hbm.write(addr, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        hbm.read_into(addr, &mut back).unwrap();
        assert_eq!(back, data);
        hbm.free_buffer(addr, 1 << 20);
    }

    #[test]
    fn ddr_defaults() {
        let ddr = CardMemory::new(CardMemKind::Ddr);
        assert_eq!(ddr.channel_count(), 4);
        assert_eq!(ddr.capacity(), 64 << 30);
    }
}
