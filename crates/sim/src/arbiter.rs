//! Round-robin fair queueing.
//!
//! Coyote v2 interleaves 4 KB packets from all vFPGAs onto bandwidth-
//! constrained links "using round-robin arbitration, guaranteeing equal
//! resource allocation while preserving in-order packet handling" (§6.3).
//! [`RrQueue`] is that arbiter: per-key FIFOs plus a rotation of active keys.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A round-robin arbiter over per-key FIFO queues.
///
/// Items pushed under the same key pop in FIFO order; across keys the arbiter
/// rotates, serving one item per active key per round.
#[derive(Debug, Clone)]
pub struct RrQueue<K: Eq + Hash + Clone, T> {
    queues: HashMap<K, VecDeque<T>>,
    /// Rotation of keys that currently have queued items.
    rotation: VecDeque<K>,
    len: usize,
}

impl<K: Eq + Hash + Clone, T> Default for RrQueue<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, T> RrQueue<K, T> {
    /// An empty arbiter.
    pub fn new() -> Self {
        RrQueue {
            queues: HashMap::new(),
            rotation: VecDeque::new(),
            len: 0,
        }
    }

    /// Total queued items across all keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueue `item` under `key`.
    pub fn push(&mut self, key: K, item: T) {
        let q = self.queues.entry(key.clone()).or_default();
        if q.is_empty() {
            // The key re-enters the rotation at the back: a newly active
            // tenant waits for the current round to finish, like a hardware
            // round-robin grant.
            self.rotation.push_back(key);
        }
        q.push_back(item);
        self.len += 1;
    }

    /// Dequeue the next item in round-robin order.
    pub fn pop(&mut self) -> Option<(K, T)> {
        let key = self.rotation.pop_front()?;
        let q = self.queues.get_mut(&key).expect("rotation key has a queue");
        let item = q.pop_front().expect("rotation key has a non-empty queue");
        self.len -= 1;
        if q.is_empty() {
            self.queues.remove(&key);
        } else {
            self.rotation.push_back(key.clone());
        }
        Some((key, item))
    }

    /// Drop every queued item under `key` (e.g. a vFPGA being reconfigured).
    ///
    /// Returns the dropped items in FIFO order.
    pub fn drain_key(&mut self, key: &K) -> Vec<T> {
        let Some(q) = self.queues.remove(key) else {
            return Vec::new();
        };
        self.len -= q.len();
        self.rotation.retain(|k| k != key);
        q.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_key() {
        let mut q = RrQueue::new();
        q.push("a", 1);
        q.push("a", 2);
        q.push("a", 3);
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.pop(), Some(("a", 2)));
        assert_eq!(q.pop(), Some(("a", 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn round_robin_across_keys() {
        let mut q = RrQueue::new();
        for i in 0..3 {
            q.push("a", ("a", i));
            q.push("b", ("b", i));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(k, _)| k).collect();
        assert_eq!(order, vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn empty_keys_leave_rotation() {
        let mut q = RrQueue::new();
        q.push(1u32, 'x');
        q.push(2u32, 'y');
        q.push(2u32, 'z');
        assert_eq!(q.pop(), Some((1, 'x')));
        // Key 1 is now empty; only key 2 remains.
        assert_eq!(q.pop(), Some((2, 'y')));
        assert_eq!(q.pop(), Some((2, 'z')));
        assert!(q.is_empty());
    }

    #[test]
    fn late_joiner_waits_for_round() {
        let mut q = RrQueue::new();
        q.push("a", 0);
        q.push("a", 1);
        q.push("b", 0);
        assert_eq!(q.pop(), Some(("a", 0)));
        // "c" joins after the round started; it goes behind "a" and "b".
        q.push("c", 0);
        assert_eq!(q.pop(), Some(("b", 0)));
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.pop(), Some(("c", 0)));
    }

    #[test]
    fn drain_key_removes_everything() {
        let mut q = RrQueue::new();
        q.push("a", 1);
        q.push("b", 2);
        q.push("a", 3);
        assert_eq!(q.drain_key(&"a"), vec![1, 3]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(("b", 2)));
        assert_eq!(q.drain_key(&"missing"), Vec::<i32>::new());
    }

    #[test]
    fn fairness_over_long_run() {
        // Three tenants with deep backlogs each get exactly one grant per
        // round: after 3*n pops every tenant has been served n times.
        let mut q = RrQueue::new();
        for i in 0..300 {
            q.push(0u8, i);
            q.push(1u8, i);
            q.push(2u8, i);
        }
        let mut counts = [0u32; 3];
        for _ in 0..3 * 100 {
            let (k, _) = q.pop().unwrap();
            counts[k as usize] += 1;
        }
        assert_eq!(counts, [100, 100, 100]);
    }
}
