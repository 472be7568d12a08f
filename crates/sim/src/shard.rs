//! Intra-run shard orchestration: deterministic parallel fan-out.
//!
//! A [`ShardPool`] runs *pure, per-item* work on worker threads and writes
//! each result into its input-indexed slot, so the composed output is a
//! pure function of the input — byte-identical for any worker count,
//! including the inline `workers == 1` path. Inside a run the engine joins
//! its report's two independent sections through it; across runs,
//! replications and `repro` map their inputs through it and merge the
//! results back in input order.
//!
//! Safety/discipline notes, in the house style:
//!
//! * No `unsafe`: disjoint output chunks are handed to workers as
//!   `Mutex<&mut [R]>` slices (each mutex is locked exactly once, by the
//!   worker that claims the chunk off the shared atomic work queue —
//!   uncontended by construction).
//! * Thread nondeterminism cannot leak into results: workers never share
//!   mutable state beyond the claim counter, and every result lands in a
//!   slot determined by its input index. The `#[cfg(test)]` oracle
//!   re-runs the closure inline and asserts slot-for-slot equality on
//!   every parallel call in test builds.
//! * Steady-state allocation: the inline path allocates nothing beyond
//!   the caller's (reusable, amortized) output buffer; the parallel path
//!   allocates `O(chunks + workers)` *per fan-out call* — never per item.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// How many chunks each worker gets on average: small enough that claiming
/// a chunk amortizes the atomic, large enough that an early-finishing
/// worker finds more work instead of idling at the barrier.
const CHUNKS_PER_WORKER: usize = 4;

/// A bounded worker pool for deterministic intra-run fan-out.
///
/// The pool itself holds no threads — workers are scoped to each call, so
/// a `ShardPool` is just a worker-count policy and is cheap to store on
/// the engine world. `workers <= 1` short-circuits every operation to an
/// inline, allocation-free serial run.
#[derive(Clone, Copy, Debug)]
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

    /// The resolved worker count (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items`, writing `f(i, &items[i])` into `out[i]`.
    /// `out` is cleared and resized to `items.len()`; reusing the same
    /// buffer across calls makes the inline path allocation-free once its
    /// capacity has warmed up.
    ///
    /// `f` must be deterministic per item (every engine use is: pure reads
    /// of frozen snapshot state). Under that contract the output is
    /// byte-identical for every worker count.
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
        let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<&mut [R]>> = out.chunks_mut(chunk).map(Mutex::new).collect();
        crossbeam::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= slots.len() {
                        break;
                    }
                    let base = c * chunk;
                    let mut guard = slots[c].lock();
                    for (k, slot) in guard.iter_mut().enumerate() {
                        *slot = f(base + k, &items[base + k]);
                    }
                });
            }
        })
        .expect("shard pool worker panicked");

        // In test builds, every parallel fan-out is checked against an
        // inline re-run: the merged output must be slot-for-slot equal to
        // a serial evaluation, or thread scheduling has leaked into the
        // results.
        #[cfg(test)]
        for (i, (got, item)) in out.iter().zip(items).enumerate() {
            let want = f(i, item);
            assert_eq!(*got, want, "shard oracle: slot {i} diverged from inline run");
        }
    }

    /// Runs two independent tasks, in parallel when the pool has spare
    /// workers, and returns `(fa(), fb())`. At `workers <= 1` the tasks
    /// run inline in that fixed order — results must not depend on
    /// ordering for the parallel path to be equivalent, which holds for
    /// every engine use (disjoint report sections).
    pub fn join<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if self.workers <= 1 {
            let a = fa();
            let b = fb();
            return (a, b);
        }
        let mut out_a = None;
        let mut out_b = None;
        crossbeam::scope(|scope| {
            let handle = scope.spawn(move |_| fa());
            out_b = Some(fb());
            out_a = Some(handle.join().expect("shard pool join task panicked"));
        })
        .expect("shard pool worker panicked");
        (
            out_a.expect("join task a completed"),
            out_b.expect("join task b completed"),
        )
    }
}

impl Default for ShardPool {
    /// The auto-sized pool (available parallelism).
    fn default() -> ShardPool {
        ShardPool::new(0)
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
    fn auto_pool_resolves_to_at_least_one_worker() {
        assert!(ShardPool::new(0).workers() >= 1);
        assert!(ShardPool::default().workers() >= 1);
        assert_eq!(ShardPool::new(3).workers(), 3);
    }

    #[test]
    fn join_returns_both_results_in_order() {
        for workers in [1, 4] {
            let pool = ShardPool::new(workers);
            let xs: Vec<u64> = (0..100).collect();
            let (a, b) = pool.join(
                || xs.iter().sum::<u64>(),
                || xs.iter().map(|x| x * x).sum::<u64>(),
            );
            assert_eq!(a, 4950, "workers={workers}");
            assert_eq!(b, 328350, "workers={workers}");
        }
    }
}
