//! The multi-run map: independent runs fan out over scoped worker threads
//! and merge back in input order.
//!
//! A run is single-threaded, so this is the only place the workspace
//! spawns threads. [`ShardPool::map_ordered_into`] writes each result into
//! its input-indexed slot, so the merged output is a pure function of the
//! input — byte-identical for any worker count, including the inline
//! `workers == 1` path.
//!
//! * No `unsafe`: one `Mutex` guards the iterator over disjoint output
//!   chunks. A worker locks it only to take its next chunk and fills that
//!   chunk outside the lock.
//! * Thread scheduling cannot reach the results: workers share nothing
//!   mutable but the chunk iterator, and the `#[cfg(test)]` oracle re-runs
//!   the closure inline and asserts slot-for-slot equality on every
//!   parallel call in test builds.
//! * A panicking item panics the call: the scope re-raises a worker's
//!   panic once every worker has stopped, so no slot is silently dropped.
//! * Allocation: the inline path allocates nothing beyond the caller's
//!   reusable output buffer; the parallel path allocates per worker
//!   spawned, never per item.

use std::sync::Mutex;

/// How many chunks each worker gets on average: few enough that taking a
/// chunk amortizes the lock, enough that an early-finishing worker finds
/// more work instead of idling at the end of the scope.
const CHUNKS_PER_WORKER: usize = 4;

/// A worker-count policy for mapping independent runs. It holds no
/// threads: workers are scoped to each call.
#[derive(Debug)]
pub struct ShardPool {
    workers: usize,
}

impl ShardPool {
    /// Creates a pool with the given worker count; `0` means "auto" (the
    /// machine's available parallelism). The count only affects wall-clock
    /// speed, never results.
    pub fn new(workers: usize) -> ShardPool {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |c| c.get())
        } else {
            workers
        };
        ShardPool { workers }
    }

    /// Maps `f` over `items`, writing `f(i, &items[i])` into `out[i]`.
    /// `out` is cleared and resized to `items.len()`; reusing the same
    /// buffer across calls makes the inline path allocation-free once its
    /// capacity has warmed up.
    ///
    /// `f` must be deterministic per item (every caller's is: one
    /// `(config, seed)` run or one experiment id). Under that contract the
    /// output is byte-identical for every worker count. If `f` panics on
    /// any item, the call panics.
    pub fn map_ordered_into<T, R, F>(&self, items: &[T], out: &mut Vec<R>, f: F)
    where
        T: Sync,
        R: Send + Clone + Default + PartialEq + std::fmt::Debug,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        out.clear();
        out.resize(n, R::default());
        if n == 0 {
            return;
        }
        let workers = self.workers.min(n);
        if workers <= 1 {
            for (i, (slot, item)) in out.iter_mut().zip(items).enumerate() {
                *slot = f(i, item);
            }
            return;
        }
        let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER);
        let chunks = Mutex::new(out.chunks_mut(chunk).enumerate());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // The guard is a temporary: the lock is held only while
                    // the next chunk is taken, never while `f` runs.
                    let next = chunks
                        .lock()
                        .expect("no worker panics holding the lock")
                        .next();
                    let Some((c, slots)) = next else { break };
                    let base = c * chunk;
                    for (k, slot) in slots.iter_mut().enumerate() {
                        *slot = f(base + k, &items[base + k]);
                    }
                });
            }
        });

        // In test builds, every parallel fan-out is checked against an
        // inline re-run: the merged output must be slot-for-slot equal to
        // a serial evaluation, or thread scheduling has leaked into the
        // results.
        #[cfg(test)]
        for (i, (got, item)) in out.iter().zip(items).enumerate() {
            let want = f(i, item);
            assert_eq!(*got, want, "pool oracle: slot {i} diverged from inline run");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_identical_across_worker_counts() {
        let items: Vec<u64> = (0..1037).collect();
        let f = |i: usize, &x: &u64| {
            assert_eq!(i as u64, x);
            // A result whose bytes would expose any index mix-up.
            (x * 2654435761) ^ (x << 7)
        };
        let mut reference: Vec<u64> = Vec::new();
        ShardPool::new(1).map_ordered_into(&items, &mut reference, f);
        for workers in [2, 3, 4, 8] {
            let mut out: Vec<u64> = Vec::new();
            ShardPool::new(workers).map_ordered_into(&items, &mut out, f);
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let pool = ShardPool::new(8);
        let mut out: Vec<u64> = vec![99; 5];
        pool.map_ordered_into(&[], &mut out, |_, &x: &u64| x);
        assert!(out.is_empty());
        pool.map_ordered_into(&[7u64], &mut out, |_, &x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn map_reuses_output_capacity() {
        let pool = ShardPool::new(1);
        let items: Vec<u64> = (0..256).collect();
        let mut out: Vec<u64> = Vec::new();
        pool.map_ordered_into(&items, &mut out, |_, &x| x);
        let cap = out.capacity();
        for _ in 0..4 {
            pool.map_ordered_into(&items, &mut out, |_, &x| x * 2);
            assert_eq!(out.capacity(), cap, "warm buffer must not reallocate");
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_item_panics_the_call() {
        // A dead worker must abort the map, not leave its slots at the
        // default value.
        let items: Vec<u64> = (0..64).collect();
        let mut out: Vec<u64> = Vec::new();
        ShardPool::new(4).map_ordered_into(&items, &mut out, |_, &x| {
            assert_ne!(x, 37, "item 37 fails");
            x
        });
    }
}
