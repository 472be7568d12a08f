//! A pool of machines with an FCFS wait queue — one cloud (IC or EC).
//!
//! The execution layer costs O(log m) per event on an `m`-machine pool:
//! running jobs sit in per-machine slots behind a `(finish, machine)`
//! min-heap, and idle capacity is a bitset read a word at a time. The
//! linear scans these replaced survive as `#[cfg(test)]` oracles that
//! every pick is checked against (DESIGN.md §7).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cloudburst_sim::{SimDuration, SimTime};

use crate::machine::{Machine, MachineId};

/// The pool state a shard exchanges at an epoch barrier: everything the
/// engine's decision layer is allowed to read about one machine pool,
/// frozen at the barrier instant. Plain `Copy` data — no borrows into the
/// cloud — so boundary snapshots can cross shard workers freely while the
/// pool itself stays owned by its site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolBoundary {
    /// Jobs waiting in the FCFS queue (not yet on a machine).
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Machines dispatch could fill right now: idle, up, and below the
    /// active limit. So `queued > 0` implies `idle == 0` (FCFS).
    pub idle: usize,
    /// Total declared drain cost of the queue, in integer microsecond
    /// ticks (the depth-flat drain's O(1) load signal).
    pub queued_cost_ticks: u64,
}

/// A job execution that finished, reported by [`Cloud::advance_into`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecCompletion<K> {
    /// The caller's job key.
    pub key: K,
    /// Completion instant.
    pub at: SimTime,
    /// Machine that ran the job.
    pub machine: MachineId,
    /// When execution (not queueing) started.
    pub started: SimTime,
}

/// The job in one machine's running slot (the machine is the slot index).
#[derive(Clone, Copy, Debug)]
struct Running<K> {
    key: K,
    started: SimTime,
}

/// One FCFS queue entry: the caller's key, the ground-truth standard
/// seconds the simulation will charge, and the caller-declared *drain
/// cost* in integer microsecond ticks (typically the scheduler's estimate
/// of `exec / speed` — never ground truth). The cost rides inside the
/// queue because dispatch consumes entries internally; integer ticks make
/// the maintained total exactly invertible under mid-queue removals and
/// independent of insertion order, which f64 sums are not.
#[derive(Clone, Copy, Debug)]
struct Queued<K> {
    key: K,
    standard_secs: f64,
    cost_ticks: u64,
}

/// A simulated cloud: `n` machines, FCFS queue, deterministic service.
///
/// Passive API in the style of `cloudburst_net::Link`: the engine submits
/// work, then alternates [`Cloud::next_wake`] / [`Cloud::advance_into`].
#[derive(Clone, Debug)]
pub struct Cloud<K> {
    name: String,
    machines: Vec<Machine>,
    queue: VecDeque<Queued<K>>,
    /// Sum of `cost_ticks` over the queue, maintained on every queue
    /// mutation — the O(1) aggregate the engine's depth-flat fluid drain
    /// reads instead of rescanning the queue.
    queued_cost_ticks: u64,
    /// Per-machine running slots: `running[m]` is the job on machine `m`.
    running: Vec<Option<Running<K>>>,
    /// `(finish, machine)` min-heap with one entry per occupied slot.
    /// Pre-sized to the machine count, so pushes never reallocate.
    completions: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Bit `m` is set iff machine `m` is idle and not crashed, whatever
    /// the active limit; readers mask it to `[0, active_limit)`.
    idle: Vec<u64>,
    clock: SimTime,
    completed: u64,
    /// Only machines `[0, active_limit)` accept new work — the elastic-EC
    /// scaling extension shrinks/grows this without disturbing running jobs.
    active_limit: usize,
    /// Chaos-crashed machines: excluded from dispatch until recovery.
    /// All-false on the fault-free path (`n_failed` gates every check).
    failed: Vec<bool>,
    /// Count of `true` entries in `failed`.
    n_failed: usize,
}

impl<K: Copy + PartialEq + std::fmt::Debug> Cloud<K> {
    /// Creates a cloud of `n` machines with uniform `speed`.
    pub fn homogeneous(name: impl Into<String>, n: usize, speed: f64) -> Cloud<K> {
        assert!(n >= 1, "a cloud needs at least one machine");
        Cloud::with_speeds(name, &vec![speed; n])
    }

    /// Creates a cloud from explicit machine speeds (heterogeneous pools).
    pub fn with_speeds(name: impl Into<String>, speeds: &[f64]) -> Cloud<K> {
        assert!(!speeds.is_empty());
        let n = speeds.len();
        let mut idle = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            idle[n / 64] = (1 << (n % 64)) - 1;
        }
        Cloud {
            name: name.into(),
            machines: speeds.iter().enumerate().map(|(i, &s)| Machine::new(MachineId(i), s)).collect(),
            queue: VecDeque::new(),
            queued_cost_ticks: 0,
            running: vec![None; n],
            completions: BinaryHeap::with_capacity(n),
            idle,
            clock: SimTime::ZERO,
            completed: 0,
            active_limit: n,
            failed: vec![false; n],
            n_failed: 0,
        }
    }

    /// Limits dispatch to the first `n` machines (clamped to the pool size;
    /// at least 1). Running jobs on deactivated machines finish normally.
    pub fn set_active_limit(&mut self, n: usize) {
        self.active_limit = n.clamp(1, self.machines.len());
        self.dispatch();
    }

    /// Current dispatch limit.
    pub fn active_limit(&self) -> usize {
        self.active_limit
    }

    /// The cloud's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Machines dispatch could fill right now: idle, up, and below the
    /// active limit. Crashed and deactivated machines are not idle
    /// capacity. A masked popcount, O(active_limit / 64).
    pub fn idle_machines(&self) -> usize {
        let idle = self.dispatchable_words().map(|w| w.count_ones() as usize).sum();
        #[cfg(test)]
        assert_eq!(idle, self.scan_idle().count(), "idle bitset diverged from the machine scan");
        idle
    }

    /// The idle bitset's words masked to `[0, active_limit)`.
    fn dispatchable_words(&self) -> impl Iterator<Item = u64> + '_ {
        let limit = self.active_limit;
        self.idle[..limit.div_ceil(64)].iter().enumerate().map(move |(w, &word)| {
            let bits = limit - w * 64;
            if bits < 64 { word & ((1 << bits) - 1) } else { word }
        })
    }

    /// Lowest idle, up machine below the active limit: the first set bit.
    fn lowest_idle(&self) -> Option<usize> {
        self.dispatchable_words()
            .enumerate()
            .find(|&(_, word)| word != 0)
            .map(|(w, word)| w * 64 + word.trailing_zeros() as usize)
    }

    fn set_idle(&mut self, m: usize, idle: bool) {
        let bit = 1 << (m % 64);
        if idle {
            self.idle[m / 64] |= bit;
        } else {
            self.idle[m / 64] &= !bit;
        }
    }

    /// Machines currently crashed.
    pub fn failed_machines(&self) -> usize {
        self.n_failed
    }

    /// True iff the machine is currently crashed.
    pub fn is_failed(&self, machine: MachineId) -> bool {
        self.failed[machine.0]
    }

    /// Crashes a machine (chaos injection): it stops accepting work until
    /// [`Cloud::recover_machine`]. If a job was running there it is aborted
    /// — busy time up to `now` still accrues, the job does *not* complete —
    /// and its key plus the wasted execution span are returned so the
    /// engine can re-dispatch it and attribute the loss. No-op (returning
    /// `None`) if the machine is already down.
    pub fn fail_machine(&mut self, now: SimTime, machine: MachineId) -> Option<(K, SimDuration)> {
        assert!(now >= self.clock, "cloud must be advanced before fail_machine");
        self.clock = now;
        let idx = machine.0;
        if self.failed[idx] {
            return None;
        }
        self.failed[idx] = true;
        self.n_failed += 1;
        self.set_idle(idx, false);
        let r = self.running[idx].take()?;
        // O(machines), but crashes are rare.
        self.completions.retain(|&Reverse((_, m))| m != idx);
        let span = self.machines[idx].abort(now);
        Some((r.key, span))
    }

    /// Recovers a crashed machine: it rejoins the dispatchable pool and
    /// immediately pulls queued work. No-op if the machine was up.
    pub fn recover_machine(&mut self, now: SimTime, machine: MachineId) {
        assert!(now >= self.clock, "cloud must be advanced before recover_machine");
        self.clock = now;
        let idx = machine.0;
        if !self.failed[idx] {
            return;
        }
        self.failed[idx] = false;
        self.n_failed -= 1;
        // A crash aborted whatever ran here, so the machine is idle.
        self.set_idle(idx, true);
        self.dispatch();
    }

    /// Jobs waiting in the FCFS queue (not yet on a machine).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Frees the wait queue's storage if the queue is empty (a no-op
    /// otherwise). An emptied queue keeps the capacity of its deepest
    /// point; a caller done submitting releases it here.
    pub fn release_queue(&mut self) {
        if self.queue.is_empty() {
            self.queue = VecDeque::new();
        }
    }

    /// The wait queue's capacity, for the engine's release test. A test
    /// accessor: nothing else reads it.
    #[doc(hidden)]
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Total declared drain cost of the queue, in integer microsecond
    /// ticks — O(1), maintained across submit/dispatch/cancel. Feeds the
    /// engine's fluid-prefix drain (DESIGN.md §7).
    pub fn queued_cost_ticks(&self) -> u64 {
        self.queued_cost_ticks
    }

    /// `(key, cost_ticks)` of every queued job in FCFS order — the rescan
    /// form of [`Cloud::queued_cost_ticks`], for oracles and probes.
    pub fn queued_detail(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.queue.iter().map(|q| (q.key, q.cost_ticks))
    }

    /// `(key, cost_ticks)` of the last `n` queued jobs in FCFS order (the
    /// whole queue when `n` covers it). O(1) to construct: the exact tail
    /// window of the depth-flat drain.
    pub fn queued_tail(&self, n: usize) -> impl Iterator<Item = (K, u64)> + '_ {
        let start = self.queue.len().saturating_sub(n);
        self.queue.range(start..).map(|q| (q.key, q.cost_ticks))
    }

    /// Number of jobs currently executing.
    pub fn running(&self) -> usize {
        self.completions.len()
    }

    /// Full detail of running jobs: `(key, machine, started)` — the input
    /// schedulers need to estimate per-machine drain times. Iterates in
    /// machine order.
    pub fn running_detail(&self) -> impl Iterator<Item = (K, MachineId, SimTime)> + '_ {
        self.running
            .iter()
            .enumerate()
            .filter_map(|(m, r)| r.map(|r| (r.key, MachineId(m), r.started)))
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The epoch-barrier snapshot of this pool: the decision layer reads
    /// clouds only through this (one coherent freeze instead of piecemeal
    /// accessor calls interleaved with mutation).
    pub fn boundary(&self) -> PoolBoundary {
        PoolBoundary {
            queued: self.queue.len(),
            running: self.running(),
            idle: self.idle_machines(),
            queued_cost_ticks: self.queued_cost_ticks,
        }
    }

    /// Submits a job requiring `standard_secs` of standard-machine work.
    /// The caller must have advanced the cloud to `now`. The job carries a
    /// zero drain cost; callers that feed the depth-flat drain use
    /// [`Cloud::submit_weighted`] instead.
    pub fn submit(&mut self, now: SimTime, key: K, standard_secs: f64) {
        self.submit_weighted(now, key, standard_secs, 0);
    }

    /// As [`Cloud::submit`], declaring the job's estimated drain cost in
    /// integer microsecond ticks. The cost is the *caller's estimate* of
    /// the job's seconds-to-drain on this pool (the engine uses
    /// `est_exec / speed`); the cloud only aggregates it.
    pub fn submit_weighted(&mut self, now: SimTime, key: K, standard_secs: f64, cost_ticks: u64) {
        assert!(now >= self.clock, "cloud must be advanced before submit");
        self.clock = now;
        self.queue.push_back(Queued { key, standard_secs, cost_ticks });
        self.queued_cost_ticks += cost_ticks;
        self.dispatch();
    }

    /// Removes a queued (not yet running) job; used by rescheduling
    /// extensions. Returns the remaining standard seconds if found.
    ///
    /// Keys are unique in the queue (a caller queues a job at most once),
    /// so the search runs from the back: push-out cancels jobs from the
    /// queue's tail window, and a front-first scan would walk the whole
    /// deep prefix to reach them.
    pub fn cancel_queued(&mut self, key: K) -> Option<f64> {
        debug_assert!(
            self.queue.iter().filter(|q| q.key == key).count() <= 1,
            "queued keys are unique"
        );
        let idx = self.queue.iter().rposition(|q| q.key == key)?;
        self.queue.remove(idx).map(|q| {
            self.queued_cost_ticks -= q.cost_ticks;
            q.standard_secs
        })
    }

    /// Pops the *last* queued job (tail scan helper for the push-out
    /// rescheduling strategy of Sec. IV-D).
    pub fn pop_back_queued(&mut self) -> Option<(K, f64)> {
        self.queue.pop_back().map(|q| {
            self.queued_cost_ticks -= q.cost_ticks;
            (q.key, q.standard_secs)
        })
    }

    /// Advances to `to`, returning completions in chronological order.
    /// Test-only convenience wrapper over [`Cloud::advance_into`]: every
    /// production caller uses the buffer-reusing form, so the allocating
    /// wrapper is compiled out of non-test builds and listed under
    /// `disallowed-methods` in `clippy.toml`.
    #[cfg(test)]
    pub fn advance(&mut self, to: SimTime) -> Vec<ExecCompletion<K>> {
        let mut done = Vec::new();
        self.advance_into(to, &mut done);
        done
    }

    /// Advances to `to`, appending completions to the caller-owned `done`
    /// buffer in chronological order, so a driver loop can reuse one
    /// allocation across every wake.
    pub fn advance_into(&mut self, to: SimTime, done: &mut Vec<ExecCompletion<K>>) {
        loop {
            // Earliest finishing running job not after `to`: the heap top.
            // `(finish, machine)` is unique, since a machine runs one job.
            let next = self.completions.peek().map(|&Reverse(e)| e).filter(|&(f, _)| f <= to);
            #[cfg(test)]
            assert_eq!(
                next,
                self.scan_earliest().filter(|&(f, _)| f <= to),
                "completion heap diverged from the running scan"
            );
            let Some((finish, m)) = next else { break };
            self.completions.pop();
            // Every heap entry names an occupied slot (the oracle above
            // checks the pair against the machines in test builds).
            let Some(r) = self.running[m].take() else { continue };
            self.clock = self.clock.max(finish);
            self.machines[m].finish();
            self.set_idle(m, true);
            self.completed += 1;
            done.push(ExecCompletion { key: r.key, at: finish, machine: MachineId(m), started: r.started });
            self.dispatch();
        }
        self.clock = self.clock.max(to);
    }

    /// Earliest pending completion, if any work is running.
    pub fn next_wake(&self) -> Option<SimTime> {
        let wake = self.completions.peek().map(|&Reverse((finish, _))| finish);
        #[cfg(test)]
        assert_eq!(wake, self.scan_earliest().map(|(f, _)| f), "completion heap diverged from the running scan");
        wake
    }

    /// Assigns queued jobs to idle machines (FCFS; lowest machine id first).
    // conform::hot_root
    fn dispatch(&mut self) {
        while !self.queue.is_empty() {
            let pick = self.lowest_idle();
            #[cfg(test)]
            assert_eq!(pick, self.scan_idle().next(), "idle bitset diverged from the machine scan");
            let Some(m) = pick else { break };
            let q = self.queue.pop_front().expect("non-empty queue");
            self.queued_cost_ticks -= q.cost_ticks;
            let finish = self.machines[m].start(self.clock, q.standard_secs);
            self.set_idle(m, false);
            self.running[m] = Some(Running { key: q.key, started: self.clock });
            self.completions.push(Reverse((finish, m)));
        }
    }

    /// Scan oracle for the idle bitset: the idle, up machines below the
    /// active limit, in id order, read off the machines themselves.
    #[cfg(test)]
    fn scan_idle(&self) -> impl Iterator<Item = usize> + '_ {
        self.machines[..self.active_limit]
            .iter()
            .enumerate()
            .filter(|&(i, m)| !m.is_busy() && !self.failed[i])
            .map(|(i, _)| i)
    }

    /// Scan oracle for the completion heap: the earliest `(finish,
    /// machine)` over every busy machine.
    #[cfg(test)]
    fn scan_earliest(&self) -> Option<(SimTime, usize)> {
        self.machines.iter().enumerate().filter_map(|(i, m)| m.busy_until().map(|f| (f, i))).min()
    }

    /// Average utilization over the pool up to `now` (Eq. 9).
    pub fn average_utilization(&self, now: SimTime) -> f64 {
        if self.machines.is_empty() || now == SimTime::ZERO {
            return 0.0;
        }
        self.machines.iter().map(|m| m.utilization(now)).sum::<f64>() / self.machines.len() as f64
    }

    /// Total busy machine-time up to `now`.
    pub fn total_busy(&self, now: SimTime) -> SimDuration {
        self.machines
            .iter()
            .fold(SimDuration::ZERO, |acc, m| acc + m.busy_time(now))
    }

    /// Read access to the machine pool.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }
}

#[cfg(test)]
// Unit tests are the sanctioned consumer of the allocating `advance`
// wrapper (it only exists under cfg(test)).
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn single_machine_fcfs() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 1, 1.0);
        c.submit(SimTime::ZERO, 1, 100.0);
        c.submit(SimTime::ZERO, 2, 50.0);
        assert_eq!(c.queued(), 1);
        let done = c.advance(SimTime::from_secs(200));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].key, 1);
        assert_eq!(done[0].at, SimTime::from_secs(100));
        assert_eq!(done[1].key, 2);
        assert_eq!(done[1].at, SimTime::from_secs(150));
        assert_eq!(c.completed(), 2);
    }

    #[test]
    fn parallel_machines_run_concurrently() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 2, 1.0);
        c.submit(SimTime::ZERO, 1, 100.0);
        c.submit(SimTime::ZERO, 2, 100.0);
        c.submit(SimTime::ZERO, 3, 100.0);
        let done = c.advance(SimTime::from_secs(100));
        assert_eq!(done.len(), 2, "two run in parallel");
        let done2 = c.advance(SimTime::from_secs(200));
        assert_eq!(done2.len(), 1);
        assert_eq!(done2[0].at, SimTime::from_secs(200));
    }

    #[test]
    fn next_wake_is_earliest_finish() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 2, 1.0);
        assert_eq!(c.next_wake(), None);
        c.submit(SimTime::ZERO, 1, 100.0);
        c.submit(SimTime::ZERO, 2, 60.0);
        assert_eq!(c.next_wake(), Some(SimTime::from_secs(60)));
    }

    #[test]
    fn freed_machine_picks_next_queued() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 1, 1.0);
        c.submit(SimTime::ZERO, 1, 10.0);
        c.submit(SimTime::ZERO, 2, 10.0);
        c.submit(SimTime::ZERO, 3, 10.0);
        let done = c.advance(SimTime::from_secs(25));
        assert_eq!(done.iter().map(|d| d.key).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(c.queued(), 0, "third is running");
        assert_eq!(c.running(), 1);
    }

    #[test]
    fn heterogeneous_speeds() {
        let mut c: Cloud<u32> = Cloud::with_speeds("ec", &[1.0, 4.0]);
        c.submit(SimTime::ZERO, 1, 100.0); // machine 0 (slow): 100 s
        c.submit(SimTime::ZERO, 2, 100.0); // machine 1 (fast): 25 s
        let done = c.advance(SimTime::from_secs(100));
        assert_eq!(done[0].key, 2);
        assert_eq!(done[0].at, SimTime::from_secs(25));
        assert_eq!(done[1].key, 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 2, 1.0);
        c.submit(SimTime::ZERO, 1, 50.0);
        c.advance(SimTime::from_secs(100));
        // One machine busy 50 of 100 s, the other idle → average 25 %.
        assert!((c.average_utilization(SimTime::from_secs(100)) - 0.25).abs() < 1e-12);
        assert_eq!(c.total_busy(SimTime::from_secs(100)), SimDuration::from_secs(50));
    }

    #[test]
    fn cancel_and_pop_back() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 1, 1.0);
        c.submit(SimTime::ZERO, 1, 10.0);
        c.submit(SimTime::ZERO, 2, 20.0);
        c.submit(SimTime::ZERO, 3, 30.0);
        assert_eq!(c.cancel_queued(2), Some(20.0));
        assert_eq!(c.cancel_queued(2), None);
        assert_eq!(c.cancel_queued(1), None, "running job cannot be cancelled");
        assert_eq!(c.pop_back_queued(), Some((3, 30.0)));
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn cancelling_a_tail_key_of_a_deep_queue_keeps_fcfs_order_and_cost() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 2, 1.0);
        for k in 0..2_000u32 {
            c.submit_weighted(SimTime::ZERO, k, 1.0 + k as f64, 3 + 7 * k as u64);
        }
        // Keys 0 and 1 run; 2..2000 wait. Cancel from the tail window,
        // the last key, and one key near the front.
        for key in [1_990, 1_999, 1_500, 3] {
            assert_eq!(c.cancel_queued(key), Some(1.0 + key as f64));
            assert_eq!(c.cancel_queued(key), None, "a cancelled key is gone");
        }
        let want: Vec<u32> = (2..2_000).filter(|k| ![1_990, 1_999, 1_500, 3].contains(k)).collect();
        let keys: Vec<u32> = c.queued_detail().map(|(k, _)| k).collect();
        assert_eq!(keys, want, "FCFS order of the rest");
        let rescan: u64 = c.queued_detail().map(|(_, t)| t).sum();
        let closed_form: u64 = want.iter().map(|&k| 3 + 7 * k as u64).sum();
        assert_eq!(c.queued_cost_ticks(), rescan);
        assert_eq!(c.queued_cost_ticks(), closed_form);
        // Dispatch still pops the FCFS head.
        let done = c.advance(SimTime::from_secs(2));
        assert_eq!(done.iter().map(|d| d.key).collect::<Vec<_>>(), vec![0, 1]);
        let head: Vec<u32> = c.queued_detail().take(2).map(|(k, _)| k).collect();
        assert_eq!(head, vec![5, 6], "2 and 4 started");
    }

    #[test]
    fn queued_cost_ticks_track_every_queue_mutation() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 1, 1.0);
        let rescan = |c: &Cloud<u32>| c.queued_detail().map(|(_, t)| t).sum::<u64>();
        c.submit_weighted(SimTime::ZERO, 1, 10.0, 7); // runs immediately
        assert_eq!(c.queued_cost_ticks(), 0, "running jobs carry no queue cost");
        c.submit_weighted(SimTime::ZERO, 2, 20.0, 100);
        c.submit_weighted(SimTime::ZERO, 3, 30.0, 200);
        c.submit_weighted(SimTime::ZERO, 4, 40.0, 400);
        assert_eq!(c.queued_cost_ticks(), 700);
        assert_eq!(c.queued_cost_ticks(), rescan(&c));
        // Mid-queue removal subtracts exactly (integer ticks invert).
        assert_eq!(c.cancel_queued(3), Some(30.0));
        assert_eq!(c.queued_cost_ticks(), 500);
        assert_eq!(c.pop_back_queued(), Some((4, 40.0)));
        assert_eq!(c.queued_cost_ticks(), 100);
        // Dispatch pops the front and subtracts.
        c.advance(SimTime::from_secs(10));
        assert_eq!(c.queued_cost_ticks(), 0);
        assert_eq!(c.queued_cost_ticks(), rescan(&c));
        // Plain submit declares zero cost.
        c.submit(SimTime::from_secs(10), 5, 10.0);
        c.submit(SimTime::from_secs(10), 6, 10.0);
        assert_eq!(c.queued_cost_ticks(), 0);
    }

    #[test]
    fn queued_tail_returns_last_n_in_fcfs_order() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 1, 1.0);
        for (i, w) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            c.submit_weighted(SimTime::ZERO, i, 5.0, w);
        }
        // Job 1 is running; 2, 3, 4 queued.
        assert_eq!(c.queued_tail(2).collect::<Vec<_>>(), vec![(3, 30), (4, 40)]);
        assert_eq!(c.queued_tail(99).collect::<Vec<_>>(), vec![(2, 20), (3, 30), (4, 40)]);
        assert_eq!(c.queued_tail(0).count(), 0);
        assert_eq!(c.queued_detail().collect::<Vec<_>>(), vec![(2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn queued_detail_keys_reflect_fcfs_order() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 1, 1.0);
        c.submit(SimTime::ZERO, 1, 10.0);
        c.submit(SimTime::ZERO, 2, 10.0);
        c.submit(SimTime::ZERO, 3, 10.0);
        assert_eq!(c.queued_detail().map(|(k, _)| k).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn failed_machine_aborts_job_and_leaves_pool() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 2, 1.0);
        c.submit(SimTime::ZERO, 1, 100.0);
        c.submit(SimTime::ZERO, 2, 100.0);
        c.submit(SimTime::ZERO, 3, 100.0);
        assert_eq!(c.idle_machines(), 0);
        // Crash machine 0 mid-job: job 1 comes back for re-dispatch, the
        // waiting job 3 must NOT land on the dead machine.
        c.advance(SimTime::from_secs(40));
        let aborted = c.fail_machine(SimTime::from_secs(40), MachineId(0));
        assert_eq!(aborted, Some((1, SimDuration::from_secs(40))));
        assert_eq!(c.failed_machines(), 1);
        assert!(c.is_failed(MachineId(0)));
        assert_eq!(c.running(), 1, "only machine 1's job survives");
        assert_eq!(c.idle_machines(), 0, "dead machine is not idle capacity");
        // Busy time accrued up to the crash, but no completion counted.
        assert_eq!(c.machines()[0].busy_time(SimTime::from_secs(40)), SimDuration::from_secs(40));
        assert_eq!(c.machines()[0].completed(), 0);
        // Job 2 finishes at t=100; job 3 then starts on machine 1 (not 0).
        let done = c.advance(SimTime::from_secs(100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].key, 2);
        assert_eq!(c.running_detail().next().map(|(k, m, _)| (k, m)), Some((3, MachineId(1))));
        // Double-fail is a no-op.
        assert_eq!(c.fail_machine(SimTime::from_secs(100), MachineId(0)), None);
    }

    #[test]
    fn recovered_machine_pulls_queued_work() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 1, 1.0);
        c.fail_machine(SimTime::ZERO, MachineId(0));
        c.submit(SimTime::ZERO, 1, 10.0);
        assert_eq!(c.queued(), 1, "dead pool queues instead of running");
        assert_eq!(c.next_wake(), None);
        c.recover_machine(SimTime::from_secs(5), MachineId(0));
        assert_eq!(c.queued(), 0);
        assert_eq!(c.running(), 1);
        let done = c.advance(SimTime::from_secs(20));
        assert_eq!(done[0].at, SimTime::from_secs(15), "started at recovery");
        // Recovering an up machine is a no-op.
        c.recover_machine(SimTime::from_secs(20), MachineId(0));
        assert_eq!(c.failed_machines(), 0);
    }

    #[test]
    fn fail_idle_machine_returns_no_job() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 2, 1.0);
        assert_eq!(c.fail_machine(SimTime::ZERO, MachineId(1)), None);
        c.submit(SimTime::ZERO, 1, 10.0);
        assert_eq!(c.running_detail().next().map(|(_, m, _)| m), Some(MachineId(0)));
        assert_eq!(c.idle_machines(), 0);
    }

    #[test]
    fn deactivated_machines_are_not_idle_capacity() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ec", 4, 1.0);
        c.set_active_limit(2);
        for k in 1..=3 {
            c.submit(SimTime::ZERO, k, 10.0);
        }
        // Machines 2 and 3 are idle but deactivated: a job still waits, so
        // the boundary must report no dispatchable idle machine.
        let b = c.boundary();
        assert_eq!((b.queued, b.running, b.idle), (1, 2, 0));
        c.set_active_limit(4);
        assert_eq!((c.queued(), c.running(), c.idle_machines()), (0, 3, 1));
        c.set_active_limit(1);
        assert_eq!(c.idle_machines(), 0, "running jobs finish on deactivated machines");
        c.advance(SimTime::from_secs(10));
        assert_eq!((c.running(), c.idle_machines()), (0, 1));
    }

    #[test]
    fn idle_bitset_spans_word_boundaries() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 130, 1.0);
        assert_eq!(c.idle_machines(), 130);
        for k in 0..129 {
            c.submit(SimTime::ZERO, k, 10.0 + f64::from(k));
        }
        assert_eq!(c.running_detail().last().map(|(k, m, _)| (k, m)), Some((128, MachineId(128))));
        assert_eq!(c.idle_machines(), 1);
        c.fail_machine(SimTime::ZERO, MachineId(129));
        c.submit(SimTime::ZERO, 129, 1.0);
        assert_eq!((c.queued(), c.idle_machines()), (1, 0));
        // Machine 0 frees first and takes the waiting job.
        let done = c.advance(SimTime::from_secs(10));
        assert_eq!(done.iter().map(|d| d.key).collect::<Vec<_>>(), vec![0]);
        assert_eq!(c.running_detail().next().map(|(k, m, _)| (k, m)), Some((129, MachineId(0))));
        c.set_active_limit(64);
        c.recover_machine(SimTime::from_secs(10), MachineId(129));
        assert_eq!(c.idle_machines(), 0, "machine 129 is up but above the limit");
        c.set_active_limit(130);
        assert_eq!(c.idle_machines(), 1);
    }

    #[test]
    fn equal_finishes_complete_in_machine_order() {
        let mut c: Cloud<u32> = Cloud::with_speeds("ec", &[2.0, 1.0, 2.0, 4.0]);
        // 20 s of standard work finishes at t = 10 on machines 0 and 2;
        // 10 s finishes at t = 10 on machine 1; 40 s at t = 10 on machine 3.
        for (k, secs) in [(1, 20.0), (2, 10.0), (3, 20.0), (4, 40.0)] {
            c.submit(SimTime::ZERO, k, secs);
        }
        c.submit(SimTime::ZERO, 5, 0.0);
        let done = c.advance(SimTime::from_secs(10));
        let order: Vec<_> = done.iter().map(|d| (d.key, d.machine.0)).collect();
        // Job 5 starts on machine 0 at t = 10 and, taking no time, completes
        // there before machine 1's job is collected.
        assert_eq!(order, vec![(1, 0), (5, 0), (2, 1), (3, 2), (4, 3)]);
    }

    #[test]
    fn submissions_at_different_times() {
        let mut c: Cloud<u32> = Cloud::homogeneous("ic", 1, 1.0);
        c.submit(SimTime::ZERO, 1, 100.0);
        c.advance(SimTime::from_secs(30));
        c.submit(SimTime::from_secs(30), 2, 10.0);
        let done = c.advance(SimTime::from_secs(500));
        assert_eq!(done[0].at, SimTime::from_secs(100));
        assert_eq!(done[1].at, SimTime::from_secs(110));
        assert_eq!(done[1].started, SimTime::from_secs(100));
    }
}
