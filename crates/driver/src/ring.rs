//! Doorbell + completion ring for the batched reconfiguration path.
//!
//! Mirrors the XDMA writeback model the data plane already uses: software
//! posts a batch of frame runs, rings a doorbell register, and the engine
//! writes one completion record per run into a host-memory ring as it
//! finishes. Software reaps the ring instead of blocking per op, and chaos
//! faults surface as completion *statuses* rather than synchronous errors
//! ([`CompletionStatus::FlipDetected`], [`CompletionStatus::Rejected`]).
//!
//! The ring must be able to hold one completion per in-flight run: a batch
//! larger than the ring would have the engine stall on writeback while
//! software waits for the doorbell's batch to finish — deadlock by
//! construction. The driver refuses such submissions at the doorbell
//! (`ReconfigError::RingTooSmall`), and `coyote-lint` reports the same
//! condition for a shell spec as WF001.

use coyote_sim::SimTime;
use std::collections::VecDeque;

/// Default completion-ring capacity a driver probes with (overridden by
/// `ShellConfig::reconfig_ring_slots` when a platform loads).
pub const DEFAULT_RING_SLOTS: usize = 16;

/// The static wait facts of one completion ring, exported for
/// `coyote-lint`'s WF001.
///
/// The runtime guard (`ReconfigError::RingTooSmall`) and WF001 must agree
/// on when the ICAP engine can stall on writeback; this struct is the
/// single definition both key on:
/// with `concurrent` batches of up to `max_batch` runs in flight against
/// one ring, the engine blocks iff the ring cannot hold every in-flight
/// completion at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingWaitFacts {
    /// Completion-ring capacity.
    pub slots: usize,
    /// Largest frame-run batch one submission may post.
    pub max_batch: usize,
    /// Batches that may be in flight against the ring concurrently.
    pub concurrent: usize,
}

impl RingWaitFacts {
    /// Slots the ring needs so no writeback can ever block: one completion
    /// per run of every concurrently in-flight batch.
    pub fn required_slots(&self) -> usize {
        self.max_batch.saturating_mul(self.concurrent.max(1))
    }

    /// True when a full concurrent load can wedge the engine on writeback:
    /// the `engine -> ring` edge of the platform wait-for graph exists.
    pub fn engine_waits_on_ring(&self) -> bool {
        self.slots < self.required_slots()
    }
}

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
pub struct RingFull {
    /// Capacity of the ring that refused the record.
    pub slots: usize,
}

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

/// A bounded writeback ring.
#[derive(Debug, Clone)]
pub struct CompletionRing {
    slots: usize,
    entries: VecDeque<Completion>,
    pushed: u64,
    reaped: u64,
    high_water: usize,
}

impl CompletionRing {
    /// A ring with `slots` entries.
    pub fn new(slots: usize) -> CompletionRing {
        CompletionRing {
            slots,
            // Grown on use: `slots` comes from a shell config and bounds
            // occupancy, not the allocation.
            entries: VecDeque::new(),
            pushed: 0,
            reaped: 0,
            high_water: 0,
        }
    }

    /// Capacity.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Records currently waiting to be reaped.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// True if a batch of `batch` runs can complete without software
    /// reaping in between.
    pub fn can_hold(&self, batch: usize) -> bool {
        batch <= self.slots.saturating_sub(self.entries.len())
    }

    /// Engine-side writeback of one completion record.
    pub fn push(&mut self, completion: Completion) -> Result<(), RingFull> {
        if self.entries.len() >= self.slots {
            return Err(RingFull { slots: self.slots });
        }
        self.entries.push_back(completion);
        self.pushed += 1;
        self.high_water = self.high_water.max(self.entries.len());
        Ok(())
    }

    /// Software-side reap: drain every pending record in writeback order.
    pub fn reap(&mut self) -> Vec<Completion> {
        self.reaped += self.entries.len() as u64;
        self.entries.drain(..).collect()
    }

    /// Records ever written.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Records ever reaped.
    pub fn reaped(&self) -> u64 {
        self.reaped
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
        let mut ring = CompletionRing::new(4);
        for run in 0..3 {
            ring.push(record(run)).unwrap();
        }
        assert_eq!(ring.in_flight(), 3);
        assert_eq!(ring.high_water(), 3);
        let reaped = ring.reap();
        assert_eq!(reaped.iter().map(|c| c.run).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(ring.in_flight(), 0);
        assert_eq!(ring.pushed(), 3);
        assert_eq!(ring.reaped(), 3);
    }

    #[test]
    fn overflow_is_refused() {
        let mut ring = CompletionRing::new(2);
        ring.push(record(0)).unwrap();
        ring.push(record(1)).unwrap();
        assert_eq!(ring.push(record(2)), Err(RingFull { slots: 2 }));
        assert!(!ring.can_hold(1));
        ring.reap();
        assert!(ring.can_hold(2));
    }

    #[test]
    fn wait_facts_mirror_ring_occupancy() {
        // The static predicate and the live ring agree: with
        // `concurrent - 1` unreaped batches resident, the next batch fits
        // iff the facts say the engine never waits on the ring.
        for (slots, batch, concurrent) in [(16, 8, 1), (16, 8, 2), (24, 8, 3), (7, 8, 1)] {
            let facts = RingWaitFacts {
                slots,
                max_batch: batch,
                concurrent,
            };
            let mut ring = CompletionRing::new(slots);
            let mut stalled = false;
            for _ in 0..concurrent {
                if !ring.can_hold(batch) {
                    stalled = true;
                    break;
                }
                for run in 0..batch {
                    ring.push(record(run as u32)).unwrap();
                }
            }
            assert_eq!(
                facts.engine_waits_on_ring(),
                stalled,
                "{slots}/{batch}/{concurrent}"
            );
        }
        assert_eq!(
            RingWaitFacts {
                slots: 8,
                max_batch: 4,
                concurrent: 0
            }
            .required_slots(),
            4,
            "zero concurrency clamps to one batch"
        );
    }

    #[test]
    fn doorbell_sequences_ops() {
        let mut bell = Doorbell::default();
        assert_eq!(bell.ring(), 0);
        assert_eq!(bell.ring(), 1);
    }
}
