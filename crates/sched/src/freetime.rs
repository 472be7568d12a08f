//! An indexed min-structure over machine free-times.
//!
//! The engine's decision path repeatedly asks "which machine frees
//! earliest?" while replaying an FCFS drain: the naive form is a linear
//! `min_by` scan per queued job, `O(queue × machines)` per decision. The
//! [`FreeTimeIndex`] is a flat tournament (segment) tree over the
//! free-time array: find-min is `O(1)`, committing a job onto the earliest
//! machine is `O(log machines)`, and a rebuild from a fresh running-state
//! snapshot is `O(machines)`.
//!
//! **Tie-breaking contract.** `Iterator::min_by` returns the *first*
//! element among equal minima, so every consumer replaced by this index
//! historically resolved ties toward the lowest machine index. Nodes hold
//! `(value-bits, machine-index)` packed into one integer key, so the
//! tournament minimum resolves value ties toward the lowest index by
//! construction — reports stay byte-identical to the linear scan (see the
//! equivalence tests and the engine's `#[cfg(test)]` rescan oracles).

use cloudburst_sim::SimTime;

/// Sentinel leaf for power-of-two padding; compares as +∞.
const NO_LEAF: u32 = u32::MAX;

/// A tournament node: the winning free-time's IEEE-754 bits in the high
/// 64, the winning machine index in the low 32. Free-times are
/// non-negative, and non-negative doubles order identically to their bit
/// patterns, so one integer `min` per level gives both the smaller value
/// *and* — on equal values — the smaller machine index, which is exactly
/// `Iterator::min_by`'s first-of-equals contract. One load, one branchless
/// select per level; no data-dependent branches to mispredict.
fn pack(value: f64, idx: u32) -> u128 {
    debug_assert!(!value.is_sign_negative(), "free-times are non-negative");
    ((value.to_bits() as u128) << 64) | idx as u128
}

/// Padding key: +∞ free-time, `NO_LEAF` index — loses to any real leaf.
const PAD_KEY: u128 = ((f64::INFINITY.to_bits() as u128) << 64) | NO_LEAF as u128;

/// Tournament tree over per-machine free-times (seconds).
#[derive(Clone, Debug, Default)]
pub struct FreeTimeIndex {
    /// Current free-time per machine, indexed by machine id.
    vals: Vec<f64>,
    /// Power-of-two leaf count (`>= vals.len()`).
    base: usize,
    /// `2 × base` packed winner keys; `tree[1]` is the root, leaves start
    /// at `base`.
    tree: Vec<u128>,
}

impl FreeTimeIndex {
    /// An empty index; call [`FreeTimeIndex::reset_from`] before use.
    pub fn new() -> FreeTimeIndex {
        FreeTimeIndex::default()
    }

    /// Number of machines currently indexed.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no machines are indexed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The tracked free-times, indexed by machine id.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Free-time of one machine.
    pub fn value(&self, idx: usize) -> f64 {
        self.vals[idx]
    }

    /// Rebuilds the index from a fresh free-time snapshot, reusing the
    /// existing storage (allocates only when the machine count grows past
    /// any previous capacity).
    pub fn reset_from(&mut self, free: &[f64]) {
        self.vals.clear();
        self.vals.extend_from_slice(free);
        let base = free.len().next_power_of_two().max(1);
        self.base = base;
        self.tree.clear();
        self.tree.resize(2 * base, PAD_KEY);
        for (i, &v) in free.iter().enumerate() {
            self.tree[base + i] = pack(v, i as u32);
        }
        for node in (1..base).rev() {
            self.combine(node);
        }
    }

    /// The earliest-free machine: lowest index among equal minima (the
    /// `Iterator::min_by` first-of-equals contract).
    pub fn min_index(&self) -> usize {
        debug_assert!(!self.vals.is_empty(), "min of an empty index");
        self.tree[1] as u32 as usize
    }

    /// The earliest free-time, read from the root in `O(1)`; `+∞` when no
    /// machines are indexed (the padding key), like a `min` fold from
    /// `f64::INFINITY` over an empty pool.
    pub fn min_value(&self) -> f64 {
        f64::from_bits((self.tree[1] >> 64) as u64)
    }

    /// Sets one machine's free-time and repairs the tournament path.
    pub fn set(&mut self, idx: usize, value: f64) {
        self.vals[idx] = value;
        self.tree[self.base + idx] = pack(value, idx as u32);
        let mut node = (self.base + idx) / 2;
        while node >= 1 {
            self.combine(node);
            node /= 2;
        }
    }

    /// FCFS commit: adds `cost` seconds onto the earliest-free machine
    /// (ties to the lowest index) and returns that machine's index. The
    /// arithmetic is exactly the linear scan's `free[idx] += cost`.
    // conform::hot_root
    pub fn fcfs_commit(&mut self, cost: f64) -> usize {
        let idx = self.min_index();
        let v = self.vals[idx] + cost;
        self.set(idx, v);
        idx
    }

    /// Tournament combine: the packed-key integer minimum (see [`pack`]).
    /// Padding (+∞, `NO_LEAF`) loses to any real leaf.
    fn combine(&mut self, node: usize) {
        let l = 2 * node;
        self.tree[node] = self.tree[l].min(self.tree[l + 1]);
    }
}

/// The incrementally maintained pool of outstanding estimated completions
/// (the `T_i` slack anchors of Eq. 1), replacing the per-decision rebuild
/// from the engine's `est_completion` table.
///
/// Jobs enter at admission and leave at completion via constant-time
/// swap-remove; the stored order is therefore *not* job-id order, which is
/// safe because the only consumer is the slack anchor `max(T_i)` — an
/// order-independent reduction ([`crate::api::Planner::slack`]).
///
/// Job ids and slots are stored as `u32` (16 bytes per outstanding job
/// instead of 24), so an id must be below `u32::MAX`; [`insert`] asserts
/// it.
///
/// [`insert`]: OutstandingSet::insert
#[derive(Clone, Debug, Default)]
pub struct OutstandingSet {
    /// Outstanding completion estimates, unordered.
    vals: Vec<SimTime>,
    /// Job id backing each slot of `vals` (to repair `pos` on swap-remove).
    job_at: Vec<u32>,
    /// Slot of each job id in `vals`; [`GONE`] once completed.
    pos: Vec<u32>,
}

/// Sentinel for "job no longer outstanding" (also the first id that does
/// not fit).
const GONE: u32 = u32::MAX;

impl OutstandingSet {
    /// An empty pool.
    pub fn new() -> OutstandingSet {
        OutstandingSet::default()
    }

    /// Number of outstanding jobs.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The outstanding completion estimates, in no particular order.
    pub fn values(&self) -> &[SimTime] {
        &self.vals
    }

    /// Reserves room for exactly `additional` more job ids (and as many
    /// outstanding slots): a closed run sizes the pool for the whole run at
    /// its first batch, so it never regrows.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.vals.reserve_exact(additional);
        self.job_at.reserve_exact(additional);
        self.pos.reserve_exact(additional);
    }

    /// The capacity of each column (`vals`, `job_at`, `pos`), for the
    /// engine's exact-capacity test. A test accessor: nothing else reads it.
    #[doc(hidden)]
    pub fn capacities(&self) -> [usize; 3] {
        [self.vals.capacity(), self.job_at.capacity(), self.pos.capacity()]
    }

    /// Registers job `id`'s completion estimate at admission. A fresh id
    /// must be the next dense one (the engine's FCFS id space); serving
    /// also re-admits the recycled id of a completed job.
    pub fn insert(&mut self, id: u64, est_completion: SimTime) {
        assert!(id < u64::from(GONE), "job id {id} does not fit the outstanding set's u32 index");
        if id as usize == self.pos.len() {
            self.pos.push(GONE);
        }
        assert_eq!(
            self.pos.get(id as usize),
            Some(&GONE),
            "ids must arrive densely in order, or be recycled after completion"
        );
        self.add_slot(id, est_completion);
    }

    /// Re-registers (or revises) job `id`'s estimate after a fault
    /// re-dispatch: a job stranded on a crashed machine or dead link
    /// re-enters the outstanding pool with a fresh `T_i` anchor — its old
    /// estimate was rescinded the moment the fault made it unmeetable.
    /// Updates in place when the job is still outstanding.
    pub fn reinstate(&mut self, id: u64, est_completion: SimTime) {
        let slot = self.pos[id as usize];
        if slot != GONE {
            self.vals[slot as usize] = est_completion;
            return;
        }
        self.add_slot(id, est_completion);
    }

    /// Appends job `id` (known to fit and not outstanding) as a new slot.
    fn add_slot(&mut self, id: u64, est_completion: SimTime) {
        // Fewer outstanding jobs than ids, and every id is below `GONE`.
        self.pos[id as usize] = self.vals.len() as u32;
        self.vals.push(est_completion);
        self.job_at.push(id as u32);
    }

    /// Removes job `id` when its result lands. No-op if already removed.
    pub fn remove(&mut self, id: u64) {
        let slot = self.pos[id as usize];
        if slot == GONE {
            return;
        }
        self.pos[id as usize] = GONE;
        let slot = slot as usize;
        self.vals.swap_remove(slot);
        self.job_at.swap_remove(slot);
        if slot < self.vals.len() {
            self.pos[self.job_at[slot] as usize] = slot as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear-scan oracle the index replaces.
    fn linear_commit(free: &mut [f64], cost: f64) -> usize {
        let (idx, _) = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("machines exist");
        free[idx] += cost;
        idx
    }

    #[test]
    fn min_breaks_ties_to_lowest_index() {
        let mut ix = FreeTimeIndex::new();
        ix.reset_from(&[5.0, 3.0, 3.0, 7.0]);
        assert_eq!(ix.min_index(), 1);
        ix.set(1, 3.5);
        assert_eq!(ix.min_index(), 2);
        ix.set(0, 3.5);
        assert_eq!(ix.min_index(), 2);
        ix.set(2, 9.0);
        assert_eq!(ix.min_index(), 0, "equal 3.5s: lowest index wins");
    }

    #[test]
    fn fcfs_commit_matches_linear_scan_exactly() {
        // Deterministic pseudo-random drains over awkward pool sizes
        // (non-powers of two included).
        for m in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            let mut free: Vec<f64> = (0..m).map(|i| ((i * 37) % 11) as f64 * 0.5).collect();
            let mut ix = FreeTimeIndex::new();
            ix.reset_from(&free);
            let mut state = 0x9e37_79b9_u64;
            for step in 0..400 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let cost = ((state >> 33) % 1000) as f64 / 7.0;
                let want_idx = linear_commit(&mut free, cost);
                let got_idx = ix.fcfs_commit(cost);
                assert_eq!(got_idx, want_idx, "m={m} step={step}");
                // Bitwise equality, not approximate: the engine's golden
                // reports depend on identical f64 arithmetic.
                assert_eq!(ix.values(), &free[..], "m={m} step={step}");
            }
        }
    }

    #[test]
    fn reset_reuses_storage_across_sizes() {
        let mut ix = FreeTimeIndex::new();
        ix.reset_from(&[1.0, 2.0, 3.0]);
        assert_eq!(ix.len(), 3);
        ix.reset_from(&[4.0]);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.min_index(), 0);
        ix.reset_from(&[]);
        assert!(ix.is_empty());
    }

    #[test]
    fn outstanding_set_tracks_insert_remove() {
        let t = SimTime::from_secs;
        let mut s = OutstandingSet::new();
        assert!(s.is_empty());
        s.insert(0, t(10));
        s.insert(1, t(30));
        s.insert(2, t(20));
        assert_eq!(s.len(), 3);
        assert_eq!(s.values().iter().copied().max(), Some(t(30)));
        s.remove(1);
        assert_eq!(s.values().iter().copied().max(), Some(t(20)));
        s.remove(1); // idempotent
        s.remove(0);
        s.remove(2);
        assert!(s.is_empty());
        s.insert(3, t(99));
        assert_eq!(s.values(), &[t(99)]);
        // A completed id is re-admitted when serving recycles its slot.
        s.insert(1, t(42));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert_eq!(s.values(), &[t(42)]);
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn insert_rejects_an_outstanding_id() {
        let mut s = OutstandingSet::new();
        s.insert(0, SimTime::from_secs(1));
        s.insert(0, SimTime::from_secs(2));
    }

    /// The largest id is refused before anything is allocated, so the
    /// check costs no memory even at the limit.
    #[test]
    #[should_panic(expected = "job id 4294967295 does not fit the outstanding set's u32 index")]
    fn insert_rejects_an_id_beyond_u32() {
        let mut s = OutstandingSet::new();
        s.insert(u64::from(u32::MAX), SimTime::from_secs(1));
    }

    #[test]
    fn reinstate_revises_or_reinserts() {
        let t = SimTime::from_secs;
        let mut s = OutstandingSet::new();
        s.insert(0, t(10));
        s.insert(1, t(20));
        // Still outstanding: estimate revised in place.
        s.reinstate(0, t(50));
        assert_eq!(s.len(), 2);
        assert_eq!(s.values().iter().copied().max(), Some(t(50)));
        // Completed then re-dispatched: re-enters the pool.
        s.remove(1);
        assert_eq!(s.len(), 1);
        s.reinstate(1, t(70));
        assert_eq!(s.len(), 2);
        assert_eq!(s.values().iter().copied().max(), Some(t(70)));
        // Normal completion still removes it.
        s.remove(1);
        assert_eq!(s.values(), &[t(50)]);
    }

    #[test]
    fn outstanding_set_matches_rebuilt_pool_under_churn() {
        // Oracle: the old per-decision rebuild from an Option table.
        let t = SimTime::from_secs;
        let mut table: Vec<Option<SimTime>> = Vec::new();
        let mut s = OutstandingSet::new();
        let mut state = 7u64;
        for id in 0..500u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let est = t(1 + (state >> 40));
            table.push(Some(est));
            s.insert(id, est);
            // Complete a pseudo-random earlier job half the time.
            if state.is_multiple_of(2) {
                let victim = (state >> 8) % (id + 1);
                table[victim as usize] = None;
                s.remove(victim);
            }
            let mut want: Vec<SimTime> = table.iter().flatten().copied().collect();
            let mut got: Vec<SimTime> = s.values().to_vec();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "id={id}");
        }
    }
}
