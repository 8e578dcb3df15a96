//! Property-based tests on the simulation primitives.

use coyote_sim::time::Bandwidth;
use coyote_sim::{LinkModel, RrQueue, SimDuration, SimTime, Xorshift64Star};
use proptest::prelude::*;

proptest! {
    /// Everything pushed into an RrQueue pops exactly once, and per-key
    /// order is FIFO.
    #[test]
    fn rr_queue_is_a_fair_permutation(items in prop::collection::vec((0u8..8, 0u32..1000), 0..200)) {
        let mut q = RrQueue::new();
        for &(k, v) in &items {
            q.push(k, v);
        }
        let mut popped: Vec<(u8, u32)> = Vec::new();
        while let Some((k, v)) = q.pop() {
            popped.push((k, v));
        }
        prop_assert_eq!(popped.len(), items.len());
        // Per-key order preserved.
        for key in 0u8..8 {
            let pushed: Vec<u32> = items.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
            let got: Vec<u32> = popped.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
            prop_assert_eq!(pushed, got, "key {}", key);
        }
    }

    /// A link never starts a transfer before `now`, never overlaps
    /// transfers, and total busy time equals the sum of serialization times.
    #[test]
    fn link_is_work_conserving(sizes in prop::collection::vec(1u64..100_000, 1..50),
                               gaps in prop::collection::vec(0u64..10_000, 1..50)) {
        let mut link = LinkModel::new(Bandwidth::gbps(10), SimDuration::from_ns(100));
        let mut now = SimTime::ZERO;
        let mut prev_done = SimTime::ZERO;
        for (size, gap) in sizes.iter().zip(&gaps) {
            now += SimDuration::from_ns(*gap);
            let t = link.transmit(now, *size);
            prop_assert!(t.start >= now);
            prop_assert!(t.start >= prev_done, "transfers must not overlap");
            prop_assert!(t.done > t.start);
            prop_assert_eq!(t.arrival, t.done + SimDuration::from_ns(100));
            prev_done = t.done;
        }
    }

    /// gen_range stays in bounds for arbitrary seeds and bounds.
    #[test]
    fn rng_range_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xorshift64Star::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }
}
