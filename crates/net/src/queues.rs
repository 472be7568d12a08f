//! Size-interval upload queues and the SIBS bound computation
//! (Algorithm 3).
//!
//! Highly variable job sizes let one large upload block many small ones, so
//! the optimization partitions upload work into small / medium / large
//! queues. Bounds between the intervals come from Algorithm 3: identify the
//! burst-candidate jobs (no-load EC completion beats the IC's drain time),
//! sort their sizes, and split the sorted list proportionally to each
//! queue's normalized *leftover* capacity. Small jobs may ride a higher
//! queue's capacity, never the reverse.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// A burst candidate's estimates, all in seconds except `size` (bytes):
/// inputs to Algorithm 3's candidate filter.
#[derive(Clone, Copy, Debug)]
pub struct SibsCandidate {
    /// Job input size in bytes.
    pub size: u64,
    /// Estimated upload seconds under no contention (`job.t_up`).
    pub t_up: f64,
    /// Estimated EC execution seconds (`job.e_ec`).
    pub e_ec: f64,
    /// Estimated download seconds for the result (`job.t_down`).
    pub t_down: f64,
    /// Estimated IC execution seconds (`job.e_ic`).
    pub e_ic: f64,
}

/// The size-interval bounds produced by Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SibsBounds {
    /// Upper bound (bytes) of the small queue.
    pub s_bound: u64,
    /// Upper bound (bytes) of the medium queue.
    pub m_bound: u64,
}

impl SibsBounds {
    /// Classifies a job size against the bounds.
    pub fn classify(&self, size: u64) -> SizeClass {
        if size <= self.s_bound {
            SizeClass::Small
        } else if size <= self.m_bound {
            SizeClass::Medium
        } else {
            SizeClass::Large
        }
    }
}

/// The three size intervals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// Smallest interval — isolated from larger traffic.
    Small,
    /// Middle interval.
    Medium,
    /// Largest interval.
    Large,
}

impl SizeClass {
    /// All classes, smallest first.
    pub const ALL: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    fn index(self) -> usize {
        match self {
            SizeClass::Small => 0,
            SizeClass::Medium => 1,
            SizeClass::Large => 2,
        }
    }
}

/// Computes the SIBS size-interval bounds (Algorithm 3).
///
/// * `batch` — ordered burst candidates with their current estimates;
/// * `iload_secs` — initial compute load already queued in the IC (line 6's
///   `iload`);
/// * `n_ic` — number of IC processors (line 6's `n`);
/// * `queued_bytes` — bytes currently waiting in the (small, medium, large)
///   upload queues (`s_up`, `m_up`, `l_up`).
///
/// Returns `None` when no candidate passes the filter (callers fall back to
/// a single-interval queue, which is also the documented behaviour when size
/// variability is low).
pub fn sibs_bounds(
    batch: &[SibsCandidate],
    iload_secs: f64,
    n_ic: usize,
    queued_bytes: (u64, u64, u64),
) -> Option<SibsBounds> {
    assert!(n_ic >= 1);
    // Lines 3–12: collect sizes of jobs whose no-load EC completion beats
    // the IC drain estimate; accumulate their IC load into rload.
    let mut l: Vec<u64> = Vec::new();
    let mut rload = 0.0;
    for job in batch {
        let t_ec = job.t_up + job.e_ec + job.t_down;
        if t_ec < iload_secs + rload / n_ic as f64 {
            l.push(job.size);
            rload += job.e_ic;
        }
    }
    if l.is_empty() {
        return None;
    }
    // Line 13: normalized leftover capacity per queue.
    let (s_up, m_up, l_up) = (queued_bytes.0 as f64, queued_bytes.1 as f64, queued_bytes.2 as f64);
    let total = s_up + m_up + l_up;
    let (ws, wm, wl) = if total <= 0.0 {
        // Empty queues: equal leftover capacity.
        (1.0, 1.0, 1.0)
    } else {
        (1.0 - s_up / total, 1.0 - m_up / total, 1.0 - l_up / total)
    };
    let wsum = ws + wm + wl;
    // Lines 14–17: sort and partition proportionally; bounds are the last
    // element of the small and medium partitions.
    l.sort_unstable();
    let n = l.len();
    let n_s = ((ws / wsum) * n as f64).round() as usize;
    let n_m = ((wm / wsum) * n as f64).round() as usize;
    let n_s = n_s.clamp(1, n);
    let n_m = n_m.min(n - n_s);
    let s_bound = l[n_s - 1];
    let m_bound = if n_m == 0 { s_bound } else { l[n_s + n_m - 1] };
    Some(SibsBounds { s_bound, m_bound: m_bound.max(s_bound) })
}

/// The three FIFO upload queues with the paper's ride-up policy: a transfer
/// slot of class `c` serves its own queue first, then any *lower* class —
/// "we allow lower sized jobs to travel through higher sized job queue to
/// EC. But we do not allow higher sized jobs to travel through lower sized
/// job queue."
#[derive(Clone, Debug, Default)]
pub struct SibsQueues<T> {
    queues: [VecDeque<(T, u64)>; 3],
    bytes: [u64; 3],
}

impl<T> SibsQueues<T> {
    /// Empty queues.
    pub fn new() -> Self {
        SibsQueues { queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()], bytes: [0; 3] }
    }

    /// Enqueues an item of `bytes` into its class queue.
    pub fn push(&mut self, class: SizeClass, item: T, bytes: u64) {
        self.queues[class.index()].push_back((item, bytes));
        self.bytes[class.index()] += bytes;
    }

    /// Dequeues work for a transfer slot of the given class: own queue
    /// first, then strictly lower classes (largest-lower first).
    // conform::hot_root
    pub fn pop_for(&mut self, class: SizeClass) -> Option<(T, u64)> {
        for idx in (0..=class.index()).rev() {
            if let Some((item, bytes)) = self.queues[idx].pop_front() {
                self.bytes[idx] -= bytes;
                return Some((item, bytes));
            }
        }
        None
    }

    /// Re-enqueues an item at the *head* of its class queue — used by the
    /// chaos-recovery path to retry a timed-out transfer without losing its
    /// FIFO position ahead of younger work.
    pub fn push_front(&mut self, class: SizeClass, item: T, bytes: u64) {
        self.queues[class.index()].push_front((item, bytes));
        self.bytes[class.index()] += bytes;
    }

    /// Peeks the head of one class queue without removing it.
    pub fn front(&self, class: SizeClass) -> Option<(&T, u64)> {
        self.queues[class.index()].front().map(|(t, b)| (t, *b))
    }

    /// Dequeues the head of exactly one class queue (no ride-up) — used by
    /// the pull-back rescheduling extension to reclaim a specific head job.
    pub fn pop_front_class(&mut self, class: SizeClass) -> Option<(T, u64)> {
        let (item, bytes) = self.queues[class.index()].pop_front()?;
        self.bytes[class.index()] -= bytes;
        Some((item, bytes))
    }

    /// Bytes currently queued per class `(small, medium, large)` — the
    /// `s_up/m_up/l_up` inputs of Algorithm 3.
    pub fn queued_bytes(&self) -> (u64, u64, u64) {
        (self.bytes[0], self.bytes[1], self.bytes[2])
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// True iff no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(size_mb: u64, t_ec_secs: f64, e_ic: f64) -> SibsCandidate {
        SibsCandidate {
            size: size_mb * 1_000_000,
            t_up: t_ec_secs * 0.4,
            e_ec: t_ec_secs * 0.4,
            t_down: t_ec_secs * 0.2,
            e_ic,
        }
    }

    #[test]
    fn no_candidates_returns_none() {
        // EC completion slower than an empty IC: nothing qualifies.
        let batch = vec![cand(10, 1000.0, 100.0)];
        assert_eq!(sibs_bounds(&batch, 0.0, 8, (0, 0, 0)), None);
        assert_eq!(sibs_bounds(&[], 100.0, 8, (0, 0, 0)), None);
    }

    #[test]
    fn equal_leftover_splits_sorted_sizes_in_thirds() {
        // 9 candidates with distinct sizes, all qualifying easily.
        let batch: Vec<SibsCandidate> =
            (1..=9).map(|i| cand(i * 10, 10.0, 50.0)).collect();
        let b = sibs_bounds(&batch, 10_000.0, 8, (0, 0, 0))
            .expect("every candidate qualifies under a 10000 s iload");
        assert_eq!(b.s_bound, 30 * 1_000_000);
        assert_eq!(b.m_bound, 60 * 1_000_000);
    }

    #[test]
    fn fuller_queue_gets_smaller_share() {
        let batch: Vec<SibsCandidate> =
            (1..=9).map(|i| cand(i * 10, 10.0, 50.0)).collect();
        // Small queue stuffed: its leftover capacity shrinks, so its bound
        // drops relative to the balanced case.
        let stuffed = sibs_bounds(&batch, 10_000.0, 8, (80_000_000, 10_000_000, 10_000_000))
            .expect("every candidate qualifies under a 10000 s iload");
        let balanced = sibs_bounds(&batch, 10_000.0, 8, (0, 0, 0))
            .expect("every candidate qualifies under a 10000 s iload");
        assert!(stuffed.s_bound < balanced.s_bound, "{stuffed:?} vs {balanced:?}");
    }

    #[test]
    fn candidate_filter_respects_growing_rload() {
        // iload small: the first candidates qualify and push rload up; at
        // some point later candidates with slow EC estimates stop
        // qualifying. Build ECs that hover near the threshold.
        let batch: Vec<SibsCandidate> = (0..10).map(|_| cand(50, 120.0, 800.0)).collect();
        // iload 100 s, n=1: first job: t_ec=120 ≥ 100 → rejected; with n=8
        // the same job qualifies only after rload grows — it never does.
        assert_eq!(sibs_bounds(&batch, 100.0, 1, (0, 0, 0)), None);
        // Larger iload: everything qualifies.
        let b = sibs_bounds(&batch, 1_000.0, 1, (0, 0, 0))
            .expect("a 1000 s iload admits every candidate");
        assert_eq!(b.classify(50 * 1_000_000), SizeClass::Small); // all equal sizes
    }

    #[test]
    fn classify_bounds_are_inclusive() {
        let b = SibsBounds { s_bound: 100, m_bound: 200 };
        assert_eq!(b.classify(100), SizeClass::Small);
        assert_eq!(b.classify(101), SizeClass::Medium);
        assert_eq!(b.classify(200), SizeClass::Medium);
        assert_eq!(b.classify(201), SizeClass::Large);
    }

    #[test]
    fn queues_ride_up_but_never_down() {
        let mut q: SibsQueues<&str> = SibsQueues::new();
        q.push(SizeClass::Small, "s1", 10);
        q.push(SizeClass::Large, "l1", 300);
        // A large slot prefers its own queue…
        assert_eq!(q.pop_for(SizeClass::Large).expect("large queue holds l1").0, "l1");
        // …then serves lower classes.
        assert_eq!(q.pop_for(SizeClass::Large).expect("small queue rides up to a large slot").0, "s1");
        // A small slot never serves medium/large work.
        q.push(SizeClass::Medium, "m1", 100);
        assert!(q.pop_for(SizeClass::Small).is_none());
        assert_eq!(q.pop_for(SizeClass::Medium).expect("medium queue holds m1").0, "m1");
    }

    #[test]
    fn queued_bytes_tracks_pushes_and_pops() {
        let mut q: SibsQueues<u32> = SibsQueues::new();
        q.push(SizeClass::Small, 1, 10);
        q.push(SizeClass::Medium, 2, 100);
        q.push(SizeClass::Large, 3, 300);
        assert_eq!(q.queued_bytes(), (10, 100, 300));
        assert_eq!(q.len(), 3);
        q.pop_for(SizeClass::Medium);
        assert_eq!(q.queued_bytes(), (10, 0, 300));
        assert!(!q.is_empty());
        q.push_front(SizeClass::Small, 4, 20);
        assert_eq!(q.queued_bytes(), (30, 0, 300));
        assert_eq!(q.pop_front_class(SizeClass::Small), Some((4, 20)));
        assert_eq!(q.queued_bytes(), (10, 0, 300));
        assert_eq!(q.pop_front_class(SizeClass::Large), Some((3, 300)));
        assert_eq!(q.pop_front_class(SizeClass::Medium), None);
        assert_eq!(q.queued_bytes(), (10, 0, 0));
        assert_eq!(q.len(), 1);

        // An all-`Small` queue drained through a `Large` slot is one FIFO
        // (the engine's download pipe); `push_front` jumps the line.
        let mut fifo: SibsQueues<u32> = SibsQueues::new();
        for (item, bytes) in [(1, 5), (2, 7), (3, 11)] {
            fifo.push(SizeClass::Small, item, bytes);
        }
        fifo.push_front(SizeClass::Small, 0, 3);
        assert_eq!(fifo.queued_bytes(), (26, 0, 0));
        let mut order = Vec::new();
        while let Some((item, bytes)) = fifo.pop_for(SizeClass::Large) {
            order.push(item);
            let (s, m, l) = fifo.queued_bytes();
            assert_eq!((m, l), (0, 0));
            assert_eq!(s + bytes, [26, 23, 18, 11][order.len() - 1]);
        }
        assert_eq!(order, [0, 1, 2, 3]);
        assert_eq!(fifo.queued_bytes(), (0, 0, 0));
        assert!(fifo.is_empty());
    }

    #[test]
    fn medium_slot_serves_small_before_nothing() {
        let mut q: SibsQueues<&str> = SibsQueues::new();
        q.push(SizeClass::Small, "s1", 10);
        assert_eq!(q.pop_for(SizeClass::Medium).expect("small queue rides up to a medium slot").0, "s1");
        assert!(q.pop_for(SizeClass::Medium).is_none());
    }
}
