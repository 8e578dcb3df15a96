//! Per-key credit tables.
//!
//! §7.2: "For each vFPGA, Coyote v2 implements a per-stream crediting
//! mechanism ... Crediting applies to all data requests: host, card memory
//! and, network, with independent crediters implemented for each of the
//! three, maximizing performance and parallelism."
//!
//! A [`CreditTable`] maps an arbitrary key — in the shell,
//! `(vfpga, stream, direction)` — to an independent [`CreditPool`].

use coyote_sim::CreditPool;
use std::collections::BTreeMap;

/// Independent credit pools per key, created on first use.
#[derive(Debug, Clone)]
pub struct CreditTable<K: Ord + Clone> {
    pools: BTreeMap<K, CreditPool>,
    default_capacity: u64,
}

impl<K: Ord + Clone> CreditTable<K> {
    /// A table whose pools hold `default_capacity` credits each.
    pub fn new(default_capacity: u64) -> Self {
        CreditTable {
            pools: BTreeMap::new(),
            default_capacity,
        }
    }

    /// The pool for `key`, created on demand.
    pub fn pool(&mut self, key: K) -> &mut CreditPool {
        self.pools
            .entry(key)
            .or_insert_with(|| CreditPool::new(self.default_capacity))
    }

    /// Try to take `n` credits for `key`.
    pub fn try_acquire(&mut self, key: K, n: u64) -> bool {
        self.pool(key).try_acquire(n)
    }

    /// Return `n` credits for `key`.
    ///
    /// # Panics
    ///
    /// Panics on over-release (completion double-count).
    pub fn release(&mut self, key: K, n: u64) {
        self.pool(key).release(n);
    }

    /// Total stalls across all pools (back-pressure events).
    pub fn total_stalls(&self) -> u64 {
        self.pools.values().map(CreditPool::stalls).sum()
    }

    /// Remove a key's pool (vFPGA teardown). In-flight credits are
    /// forgotten with it.
    pub fn remove(&mut self, key: &K) {
        self.pools.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shell's real key shape.
    type StreamKey = (u8, u8, bool);

    #[test]
    fn independent_pools_per_stream() {
        let mut table: CreditTable<StreamKey> = CreditTable::new(2);
        // Exhaust vFPGA 0, stream 0, read direction.
        assert!(table.try_acquire((0, 0, false), 2));
        assert!(!table.try_acquire((0, 0, false), 1));
        // Other streams and vFPGAs unaffected ("independent crediters").
        assert!(table.try_acquire((0, 1, false), 1));
        assert!(table.try_acquire((0, 0, true), 1));
        assert!(table.try_acquire((1, 0, false), 1));
        assert_eq!(table.total_stalls(), 1);
    }

    #[test]
    fn release_restores() {
        let mut table: CreditTable<u8> = CreditTable::new(1);
        assert!(table.try_acquire(0, 1));
        assert!(!table.try_acquire(0, 1));
        table.release(0, 1);
        assert!(table.try_acquire(0, 1));
    }

    #[test]
    fn remove_forgets_key() {
        let mut table: CreditTable<u8> = CreditTable::new(1);
        assert!(table.try_acquire(5, 1));
        table.remove(&5);
        // Fresh pool after re-creation.
        assert!(table.try_acquire(5, 1));
    }
}
