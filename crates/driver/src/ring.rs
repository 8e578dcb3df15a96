//! Doorbell + completion ring for the batched reconfiguration path.
//!
//! Mirrors the XDMA writeback model the data plane already uses: software
//! posts a batch of frame runs, rings a doorbell register, and the engine
//! writes one completion record per run into a host-memory ring as it
//! finishes. Software reaps the ring instead of blocking per op, and chaos
//! faults surface as completion *statuses* rather than synchronous errors
//! ([`CompletionStatus::FlipDetected`], [`CompletionStatus::Rejected`]).
//!
//! The ring holds a fixed [`RING_SLOTS`] completions, one per in-flight
//! run: a batch larger than the ring would have the engine stall on
//! writeback while software waits for the doorbell's batch to finish —
//! deadlock by construction. The driver refuses such submissions at the
//! doorbell (`ReconfigError::RingTooSmall`); the batch size is the
//! caller's choice of frames per run, so no shell configuration can
//! reach that refusal.

use coyote_sim::SimTime;
use std::collections::VecDeque;

/// Completion-ring capacity: the most frame runs one batched
/// reconfiguration may post.
pub const RING_SLOTS: usize = 16;

/// Terminal status of one frame-run submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// The run streamed through the port and passed its CRC.
    Done,
    /// The run's in-flight copy was corrupted and the per-run CRC caught
    /// it before the fabric was touched (chaos `BitstreamFlip`).
    FlipDetected,
    /// The port transiently refused the run (chaos `IcapReject`).
    Rejected,
    /// Post-commit verify-after-write found the wrong digest.
    VerifyFailed,
}

/// One writeback record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Doorbell sequence number of the owning submission.
    pub op: u64,
    /// Frame-run index within the batch.
    pub run: u32,
    /// 1-based attempt number for this run (retries re-queue only the
    /// failed run, so its attempt counter advances alone).
    pub attempt: u32,
    /// How the run ended.
    pub status: CompletionStatus,
    /// Simulated instant the writeback landed.
    pub at: SimTime,
}

/// Returned when a writeback would overflow the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

/// The submission doorbell: a monotone op counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Doorbell {
    rings: u64,
}

impl Doorbell {
    /// Ring the doorbell for a new batch; returns the op sequence number.
    pub fn ring(&mut self) -> u64 {
        let op = self.rings;
        self.rings += 1;
        op
    }
}

/// A writeback ring of [`RING_SLOTS`] entries.
#[derive(Debug, Clone, Default)]
pub struct CompletionRing {
    entries: VecDeque<Completion>,
    high_water: usize,
}

impl CompletionRing {
    /// True if a batch of `batch` runs can complete without software
    /// reaping in between.
    pub fn can_hold(&self, batch: usize) -> bool {
        batch <= RING_SLOTS - self.entries.len()
    }

    /// Engine-side writeback of one completion record.
    pub fn push(&mut self, completion: Completion) -> Result<(), RingFull> {
        if self.entries.len() >= RING_SLOTS {
            return Err(RingFull);
        }
        self.entries.push_back(completion);
        self.high_water = self.high_water.max(self.entries.len());
        Ok(())
    }

    /// Software-side reap: drain every pending record in writeback order.
    pub fn reap(&mut self) -> Vec<Completion> {
        self.entries.drain(..).collect()
    }

    /// Peak occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(run: u32) -> Completion {
        Completion {
            op: 0,
            run,
            attempt: 1,
            status: CompletionStatus::Done,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn push_reap_preserves_writeback_order() {
        let mut ring = CompletionRing::default();
        for run in 0..3 {
            ring.push(record(run)).unwrap();
        }
        assert_eq!(ring.high_water(), 3);
        assert!(!ring.can_hold(RING_SLOTS - 2));
        let reaped = ring.reap();
        assert_eq!(reaped.iter().map(|c| c.run).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(ring.can_hold(RING_SLOTS));
        assert_eq!(ring.high_water(), 3, "the peak outlives the reap");
    }

    #[test]
    fn overflow_is_refused() {
        let mut ring = CompletionRing::default();
        for run in 0..RING_SLOTS as u32 {
            ring.push(record(run)).unwrap();
        }
        assert_eq!(ring.push(record(RING_SLOTS as u32)), Err(RingFull));
        assert!(!ring.can_hold(1));
        ring.reap();
        assert!(ring.can_hold(RING_SLOTS));
        assert!(!ring.can_hold(RING_SLOTS + 1));
    }

    #[test]
    fn doorbell_sequences_ops() {
        let mut bell = Doorbell::default();
        assert_eq!(bell.ring(), 0);
        assert_eq!(bell.ring(), 1);
    }
}
