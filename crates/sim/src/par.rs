//! Deterministic fork-join parallelism.
//!
//! The platform model runs on one thread by design, but the build flows
//! and the experiment harness fan out over *independent* units of work:
//! vFPGA app partitions, seeded placement attempts, whole experiments. This
//! module provides the one primitive they all share: [`par_map`], an
//! indexed map that runs on scoped worker threads and returns results in
//! input order.
//!
//! The determinism contract: the output of `par_map(items, f)` is
//! bit-identical to `items.iter().enumerate().map(f).collect()` for any
//! thread count, provided `f` is a pure function of its arguments. Workers
//! race only over *which* index they claim next; every result lands in the
//! slot of its input index, so the merge order never depends on scheduling.
//! Nothing here uses `unsafe`: the workspace's only `unsafe` is the call
//! into the hardware AES path, checked by `tests/unsafe_code.rs`.
//!
//! # Cost model
//!
//! Two properties keep tiny work items from paying parallelism overhead
//! (the `claims`/`fig7a` pathology: sub-millisecond experiments once spent
//! >1000× their compute in setup):
//!
//! * **No nested fan-out.** A `par_map` reached from inside another
//!   `par_map` runs inline on the already-busy worker — the outer fan-out
//!   *is* the pool, so nesting would only oversubscribe the machine with
//!   `workers²` threads fighting for `workers` cores. A thread-local flag
//!   makes nesting free instead.
//! * **Chunked claiming.** Workers claim runs of indices (≈4 chunks per
//!   worker) rather than single items, so the per-claim synchronization is
//!   amortized over the run and false sharing on the slot array is rare.
//! * **Min-work threshold.** Batches below `MIN_PAR_ITEMS` (a single
//!   item) run inline on the caller. Two items already fan out: a spawn
//!   costs tens of microseconds, and the two-item batches of the build
//!   flows (two placement seeds, services + one app partition, a blob of
//!   two 1 MiB blocks) carry milliseconds each.
//!
//! The calling thread participates as a worker, so `par_map` spawns at most
//! `workers - 1` threads and a 1-worker budget spawns none.
//!
//! The nesting rule has a cost: code running inside a `par_map` (every
//! experiment `coyote-bench` runs) executes its inner sections serially, so
//! their parallel paths only run when reached from outside one.

use std::cell::Cell;
#[expect(
    clippy::disallowed_types,
    reason = "the claim counter only picks which worker computes a slot; its value never reaches a result"
)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread budget.
pub const THREADS_ENV: &str = "COYOTE_THREADS";

thread_local! {
    /// True while this thread is executing inside a `par_map` section; a
    /// nested call then runs inline instead of oversubscribing the machine.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Batches smaller than this run inline on the caller: one item leaves a
/// spawned worker nothing to do.
const MIN_PAR_ITEMS: usize = 2;

/// RAII for [`IN_POOL`]: restores the previous value even if `f` panics, so
/// a caller thread that survives an unwind does not stay marked busy.
struct PoolGuard(bool);

impl PoolGuard {
    fn enter() -> PoolGuard {
        PoolGuard(IN_POOL.with(|c| c.replace(true)))
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.0;
        IN_POOL.with(|c| c.set(prev));
    }
}

/// Worker threads to use for fork-join sections.
///
/// Reads [`THREADS_ENV`] (clamped to at least 1); falls back to the
/// machine's available parallelism.
pub fn thread_budget() -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "by the par_map contract the thread count can only change wall-clock, never results"
    )]
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` on up to [`thread_budget`] scoped threads,
/// returning results in input order.
///
/// `f` receives `(index, &item)`. Results are written to per-index slots,
/// so the returned `Vec` is ordered like `items` regardless of which worker
/// ran which item. A panic in any worker propagates out of the scope.
///
/// Calls nested inside a running `par_map` section execute inline on the
/// current worker (see the module docs), so fan-out composes without
/// oversubscription.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    // Run inline when nested (the outer fan-out already owns the cores) or
    // when the batch is too small to amortize a spawn.
    let workers = if IN_POOL.with(Cell::get) || n < MIN_PAR_ITEMS {
        1
    } else {
        thread_budget().min(n)
    };
    if workers <= 1 {
        let _guard = PoolGuard::enter();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    #[expect(
        clippy::disallowed_types,
        reason = "the claim counter only picks which worker computes a slot; its value never reaches a result"
    )]
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // ~4 claims per worker: enough slack for uneven items, few enough that
    // sub-millisecond batches do one atomic op per worker, not per item.
    let chunk = (n / (workers * 4)).max(1);
    let work = || {
        let _guard = PoolGuard::enter();
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for (i, item) in items
                .iter()
                .enumerate()
                .take((start + chunk).min(n))
                .skip(start)
            {
                // Uncontended by construction: each index has one claimant.
                *slots[i].lock().expect("result slot poisoned") = Some(f(i, item));
            }
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned fan-out: results land in per-index slots, so the merge below is input-ordered by construction"
    )]
    std::thread::scope(|scope| {
        for _ in 0..workers - 1 {
            #[expect(
                clippy::disallowed_methods,
                reason = "worker of the sanctioned fan-out"
            )]
            scope.spawn(work); // Copy: the closure captures only shared refs.
        }
        work(); // The caller is the last worker.
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without writing its slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_for_any_budget() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37_79B9)).collect();
        let out = par_map(&items, |_, &x| x.wrapping_mul(0x9E37_79B9));
        assert_eq!(out, serial);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn threads_actually_run_concurrently() {
        // With >1 workers, at least two distinct thread ids should appear
        // for a large enough batch (not guaranteed in theory, but with 64
        // slow items this is robust in practice).
        if thread_budget() < 2 {
            return; // Single-core CI box: nothing to assert.
        }
        let items: Vec<u32> = (0..64).collect();
        let ids = par_map(&items, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected multiple workers");
    }

    #[test]
    fn nested_sections_run_inline() {
        // The inner par_map must not spawn: every inner item runs on the
        // same thread as its outer item.
        let outer: Vec<u32> = (0..8).collect();
        let results = par_map(&outer, |_, _| {
            let me = std::thread::current().id();
            let inner: Vec<u32> = (0..16).collect();
            let ids = par_map(&inner, |_, _| std::thread::current().id());
            ids.into_iter().all(|id| id == me)
        });
        assert!(results.into_iter().all(|inline| inline));
    }

    #[test]
    fn nested_results_still_input_ordered() {
        let outer: Vec<u64> = (0..8).collect();
        let out = par_map(&outer, |_, &x| {
            let inner: Vec<u64> = (0..32).collect();
            par_map(&inner, |_, &y| x * 100 + y)
        });
        for (x, row) in out.iter().enumerate() {
            let want: Vec<u64> = (0..32).map(|y| x as u64 * 100 + y).collect();
            assert_eq!(row, &want);
        }
    }

    #[test]
    fn tiny_batches_run_inline_on_the_caller() {
        // Below the min-work threshold no worker is spawned: every item
        // executes on the calling thread, results unchanged.
        let me = std::thread::current().id();
        let items: Vec<u32> = (0..MIN_PAR_ITEMS as u32 - 1).collect();
        let ids = par_map(&items, |_, _| std::thread::current().id());
        assert!(ids.into_iter().all(|id| id == me));
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u32, x);
            x + 1
        });
        assert_eq!(out, (1..MIN_PAR_ITEMS as u32).collect::<Vec<_>>());
    }

    #[test]
    fn two_items_fan_out_at_budget_two() {
        // Each item signals the other, then waits (bounded) for the other's
        // signal. On two threads both return at once; run inline, the first
        // item times out and both report the caller's id.
        std::env::set_var(THREADS_ENV, "2");
        let (to_0, from_1) = std::sync::mpsc::channel::<()>();
        let (to_1, from_0) = std::sync::mpsc::channel::<()>();
        let senders = [to_1, to_0];
        let inboxes = [Mutex::new(from_1), Mutex::new(from_0)];
        let ids = par_map(&[0usize, 1], |i, _| {
            senders[i].send(()).expect("peer inbox alive");
            let inbox = inboxes[i].lock().expect("inbox lock");
            let _ = inbox.recv_timeout(std::time::Duration::from_secs(5));
            std::thread::current().id()
        });
        std::env::remove_var(THREADS_ENV);
        assert_ne!(ids[0], ids[1], "a 2-item batch at budget 2 ran inline");
        // A single item stays on the caller.
        let me = std::thread::current().id();
        assert_eq!(
            par_map(&[0u8], |_, _| std::thread::current().id()),
            vec![me]
        );
    }

    #[test]
    fn caller_flag_restored_after_section() {
        let items: Vec<u32> = (0..4).collect();
        let _ = par_map(&items, |_, &x| x);
        // A fresh top-level call after the section may parallelize again —
        // i.e. the caller's IN_POOL flag was restored.
        assert!(!IN_POOL.with(Cell::get));
    }
}
