//! Property-based tests on the memory substrates.

use coyote_mem::{RangeAlloc, SparseBytes};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// Live allocations never overlap, regardless of the alloc/free
    /// interleaving.
    #[test]
    fn allocations_never_overlap(ops in prop::collection::vec((1u64..10_000, 0usize..4), 1..100)) {
        let mut a = RangeAlloc::new(1 << 20);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (len, action) in ops {
            if action == 0 && !live.is_empty() {
                let (start, l) = live.swap_remove(live.len() / 2);
                a.free(start, l);
            } else if let Some(start) = a.alloc(len, 64) {
                prop_assert_eq!(start % 64, 0, "alignment");
                for &(s, l) in &live {
                    prop_assert!(start + len <= s || s + l <= start,
                        "overlap: [{}, {}) vs [{}, {})", start, start + len, s, s + l);
                }
                live.push((start, len));
            }
        }
        // Free everything: the allocator must coalesce back to one extent.
        for (s, l) in live {
            a.free(s, l);
        }
        prop_assert_eq!(a.largest_free(), 1 << 20);
        prop_assert_eq!(a.allocated(), 0);
    }

    /// SparseBytes agrees with a simple byte-map model under random writes.
    #[test]
    fn sparse_bytes_matches_model(writes in prop::collection::vec((0u64..60_000, prop::collection::vec(any::<u8>(), 1..200)), 1..40)) {
        let mut s = SparseBytes::new(1 << 16);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (addr, data) in &writes {
            let addr = (*addr).min((1 << 16) - data.len() as u64);
            s.write(addr, data).unwrap();
            for (i, &b) in data.iter().enumerate() {
                model.insert(addr + i as u64, b);
            }
        }
        // Check random offsets.
        for probe in (0..(1u64 << 16)).step_by(997) {
            let mut got = [0xA5u8];
            s.read_into(probe, &mut got).unwrap();
            let got = got[0];
            let expect = model.get(&probe).copied().unwrap_or(0);
            prop_assert_eq!(got, expect, "at {}", probe);
        }
    }
}
