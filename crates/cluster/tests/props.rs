//! Property tests for the compute-cloud substrate: FCFS discipline, work
//! conservation and utilization accounting under arbitrary submissions,
//! and equivalence of the heap/bitset execution layer with the linear
//! scans it replaced.

use std::collections::VecDeque;

use proptest::prelude::*;

use cloudburst_cluster::{Cloud, ExecCompletion, Machine, MachineId, PoolBoundary};
use cloudburst_sim::{SimDuration, SimTime};

/// The scan oracle: the linear-scan execution layer that `Cloud`'s
/// completion heap and idle bitset replaced, rebuilt over the public
/// `Machine`. Running jobs sit in a `Vec` in dispatch order; every
/// completion scans it for the earliest `(finish, machine)` and shifts it
/// with `remove`, and every dispatch scans the machines for the lowest
/// idle, up id below the active limit. Its idle count covers the same
/// machines dispatch may use.
struct ScanCloud {
    machines: Vec<Machine>,
    failed: Vec<bool>,
    active_limit: usize,
    /// `(key, standard_secs, cost_ticks)` in FCFS order.
    queue: VecDeque<(usize, f64, u64)>,
    /// `(key, machine, started, finish)` in dispatch order.
    running: Vec<(usize, MachineId, SimTime, SimTime)>,
    clock: SimTime,
}

impl ScanCloud {
    fn new(speeds: &[f64]) -> ScanCloud {
        ScanCloud {
            machines: speeds.iter().enumerate().map(|(i, &s)| Machine::new(MachineId(i), s)).collect(),
            failed: vec![false; speeds.len()],
            active_limit: speeds.len(),
            queue: VecDeque::new(),
            running: Vec::new(),
            clock: SimTime::ZERO,
        }
    }

    fn submit(&mut self, now: SimTime, key: usize, secs: f64, ticks: u64) {
        self.clock = now;
        self.queue.push_back((key, secs, ticks));
        self.dispatch();
    }

    fn pop_back_queued(&mut self) -> Option<(usize, f64)> {
        self.queue.pop_back().map(|(k, secs, _)| (k, secs))
    }

    fn set_active_limit(&mut self, n: usize) {
        self.active_limit = n.clamp(1, self.machines.len());
        self.dispatch();
    }

    fn fail_machine(&mut self, now: SimTime, m: usize) -> Option<(usize, SimDuration)> {
        self.clock = now;
        if self.failed[m] {
            return None;
        }
        self.failed[m] = true;
        let pos = self.running.iter().position(|r| r.1 .0 == m)?;
        let (key, ..) = self.running.remove(pos);
        Some((key, self.machines[m].abort(now)))
    }

    fn recover_machine(&mut self, now: SimTime, m: usize) {
        self.clock = now;
        if self.failed[m] {
            self.failed[m] = false;
            self.dispatch();
        }
    }

    fn advance_into(&mut self, to: SimTime, done: &mut Vec<ExecCompletion<usize>>) {
        loop {
            let next = self
                .running
                .iter()
                .enumerate()
                .filter(|(_, r)| r.3 <= to)
                .min_by_key(|(_, r)| (r.3, r.1))
                .map(|(i, _)| i);
            let Some(i) = next else { break };
            let (key, machine, started, finish) = self.running.remove(i);
            self.clock = self.clock.max(finish);
            self.machines[machine.0].finish();
            done.push(ExecCompletion { key, at: finish, machine, started });
            self.dispatch();
        }
        self.clock = self.clock.max(to);
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.running.iter().map(|r| r.3).min()
    }

    fn dispatch(&mut self) {
        while !self.queue.is_empty() {
            let failed = &self.failed;
            let Some(m) = self.machines[..self.active_limit]
                .iter()
                .enumerate()
                .position(|(i, m)| !m.is_busy() && !failed[i])
            else {
                break;
            };
            let (key, secs, _) = self.queue.pop_front().expect("non-empty queue");
            let finish = self.machines[m].start(self.clock, secs);
            self.running.push((key, MachineId(m), self.clock, finish));
        }
    }

    fn boundary(&self) -> PoolBoundary {
        let idle = (0..self.active_limit)
            .filter(|&i| !self.machines[i].is_busy() && !self.failed[i])
            .count();
        PoolBoundary {
            queued: self.queue.len(),
            running: self.running.len(),
            idle,
            queued_cost_ticks: self.queue.iter().map(|q| q.2).sum(),
        }
    }

    /// The running set as `(key, machine, started)`, sorted.
    fn running_set(&self) -> Vec<(usize, MachineId, SimTime)> {
        let mut set: Vec<_> = self.running.iter().map(|r| (r.0, r.1, r.2)).collect();
        set.sort_unstable();
        set
    }
}

/// One step of a random `Cloud` workload.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Submit `n` jobs now, each `secs` standard seconds at `ticks` cost.
    Submit { n: usize, secs: u32, ticks: u64 },
    /// Advance the clock by `secs`.
    Advance(u32),
    /// Advance exactly to the next completion, if any.
    ToWake,
    Fail(usize),
    Recover(usize),
    Limit(usize),
    PopBack,
}

/// Service times in standard seconds. With steps in multiples of 5 s and
/// power-of-two speeds, many completions land on the same instant, so the
/// `(finish, machine)` tie-break decides their order; zero-second jobs
/// complete the instant they start.
const SECS: [u32; 6] = [0, 5, 10, 20, 40, 80];

/// Machine speeds a pool draws from.
const SPEEDS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

impl Op {
    /// Decodes a raw `(kind, arg, ticks)` draw for an `n`-machine pool.
    fn decode((kind, arg, ticks): (u32, u32, u64), n: usize) -> Op {
        let arg = arg as usize;
        match kind {
            0..=3 => Op::Submit { n: 1 + arg / 6 % 3, secs: SECS[arg % 6], ticks },
            // A burst deep enough to queue behind every machine.
            4 => Op::Submit { n: 20 + arg % 70, secs: SECS[arg % 6], ticks },
            5..=7 => Op::Advance(5 * (arg % 8) as u32),
            8 | 9 => Op::ToWake,
            10 => Op::Fail(arg % n),
            11 => Op::Recover(arg % n),
            // Includes 0 and n + 1, which the limit clamps.
            12 => Op::Limit(arg % (n + 2)),
            _ => Op::PopBack,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every submitted job completes exactly once; completions are
    /// chronological; total busy time equals total work (homogeneous
    /// speed-1 pool).
    #[test]
    fn work_is_conserved(
        services in prop::collection::vec(1u64..2_000, 1..40),
        submit_gaps in prop::collection::vec(0u64..100, 40),
        n_machines in 1usize..6,
    ) {
        let mut cloud: Cloud<usize> = Cloud::homogeneous("p", n_machines, 1.0);
        let mut t = SimTime::ZERO;
        let mut done = Vec::new();
        for (i, &svc) in services.iter().enumerate() {
            t += SimDuration::from_secs(submit_gaps[i]);
            cloud.advance_into(t, &mut done);
            cloud.submit(t, i, svc as f64);
        }
        while let Some(w) = cloud.next_wake() {
            cloud.advance_into(w, &mut done);
        }
        prop_assert_eq!(done.len(), services.len());
        let mut ids: Vec<usize> = done.iter().map(|c| c.key).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..services.len()).collect::<Vec<_>>());
        for w in done.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        // Each job ran for exactly its service time.
        for c in &done {
            let svc = services[c.key] as f64;
            prop_assert!(((c.at - c.started).as_secs_f64() - svc).abs() < 1e-6);
        }
        // Busy time equals total work.
        let end = done.iter().map(|c| c.at).max().unwrap();
        let total_work: u64 = services.iter().sum();
        prop_assert!(
            (cloud.total_busy(end).as_secs_f64() - total_work as f64).abs() < 1e-3
        );
        // Utilization is bounded by 1 and consistent with busy time.
        let u = cloud.average_utilization(end);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
    }

    /// Execution *starts* follow FCFS: job i never starts after job j > i
    /// when both were queued (single machine ⇒ completion order is exactly
    /// submission order).
    #[test]
    fn single_machine_is_fcfs(services in prop::collection::vec(1u64..500, 1..30)) {
        let mut cloud: Cloud<usize> = Cloud::homogeneous("p", 1, 1.0);
        for (i, &svc) in services.iter().enumerate() {
            cloud.submit(SimTime::ZERO, i, svc as f64);
        }
        let mut done = Vec::new();
        while let Some(w) = cloud.next_wake() {
            cloud.advance_into(w, &mut done);
        }
        let ids: Vec<usize> = done.iter().map(|c| c.key).collect();
        prop_assert_eq!(ids, (0..services.len()).collect::<Vec<_>>());
        // Completion time telescopes to the prefix sum of services.
        let mut acc = 0.0;
        for c in &done {
            acc += services[c.key] as f64;
            prop_assert!((c.at.as_secs_f64() - acc).abs() < 1e-6);
        }
    }

    /// Shrinking the active limit delays completions but loses nothing;
    /// restoring it drains the queue.
    #[test]
    fn active_limit_throttles_without_loss(
        services in prop::collection::vec(10u64..200, 4..20),
        limit in 1usize..3,
    ) {
        let mut cloud: Cloud<usize> = Cloud::homogeneous("p", 4, 1.0);
        cloud.set_active_limit(limit);
        for (i, &svc) in services.iter().enumerate() {
            cloud.submit(SimTime::ZERO, i, svc as f64);
        }
        // Run half the work, then scale back up.
        let half = SimTime::from_secs(services.iter().sum::<u64>() / 2);
        let mut done = Vec::new();
        cloud.advance_into(half, &mut done);
        cloud.set_active_limit(4);
        while let Some(w) = cloud.next_wake() {
            cloud.advance_into(w, &mut done);
        }
        prop_assert_eq!(done.len(), services.len());
        prop_assert_eq!(cloud.queued(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The heap/bitset `Cloud` makes exactly the picks of the scan oracle
    /// under random interleavings of submissions, advances, crashes,
    /// recoveries, active-limit changes and tail pops on heterogeneous
    /// pools (small ones, and ones that straddle a 64-bit bitset word):
    /// the same completion sequence, `next_wake`, `boundary()` (queued
    /// cost included, against the oracle's rescan) and running set after
    /// every step. The boundary also keeps FCFS: no job waits while a
    /// machine dispatch could use is idle.
    #[test]
    fn heap_and_bitset_match_the_scan_oracle(
        big in any::<bool>(),
        small_n in 1usize..6,
        big_n in 62usize..72,
        speed_idx in prop::collection::vec(0usize..4, 72),
        raw_ops in prop::collection::vec((0u32..14, 0u32..100, 0u64..1_000), 1..120),
    ) {
        let n = if big { big_n } else { small_n };
        let speeds: Vec<f64> = speed_idx[..n].iter().map(|&i| SPEEDS[i]).collect();
        let ops = raw_ops.iter().map(|&raw| Op::decode(raw, n)).chain([Op::Limit(n)]);
        let mut cloud: Cloud<usize> = Cloud::with_speeds("p", &speeds);
        let mut scan = ScanCloud::new(&speeds);
        let (mut done, mut scan_done) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        let mut key = 0;
        for op in ops {
            match op {
                Op::Submit { n, secs, ticks } => {
                    for _ in 0..n {
                        cloud.submit_weighted(now, key, f64::from(secs), ticks);
                        scan.submit(now, key, f64::from(secs), ticks);
                        key += 1;
                    }
                }
                Op::Advance(secs) => {
                    now += SimDuration::from_secs(u64::from(secs));
                    cloud.advance_into(now, &mut done);
                    scan.advance_into(now, &mut scan_done);
                }
                Op::ToWake => {
                    if let Some(w) = cloud.next_wake() {
                        now = w;
                        cloud.advance_into(now, &mut done);
                        scan.advance_into(now, &mut scan_done);
                    }
                }
                Op::Fail(m) => {
                    prop_assert_eq!(cloud.fail_machine(now, MachineId(m)), scan.fail_machine(now, m));
                }
                Op::Recover(m) => {
                    cloud.recover_machine(now, MachineId(m));
                    scan.recover_machine(now, m);
                }
                Op::Limit(k) => {
                    cloud.set_active_limit(k);
                    scan.set_active_limit(k);
                }
                Op::PopBack => prop_assert_eq!(cloud.pop_back_queued(), scan.pop_back_queued()),
            }
            prop_assert_eq!(&done, &scan_done);
            prop_assert_eq!(cloud.next_wake(), scan.next_wake());
            let b = cloud.boundary();
            prop_assert_eq!(b, scan.boundary());
            prop_assert!(b.queued == 0 || b.idle == 0, "work waits beside a dispatchable machine: {:?}", b);
            let mut running: Vec<_> = cloud.running_detail().collect();
            running.sort_unstable();
            prop_assert_eq!(running, scan.running_set());
        }
        // Recover every machine and drain both to empty.
        for m in 0..n {
            cloud.recover_machine(now, MachineId(m));
            scan.recover_machine(now, m);
        }
        while let Some(w) = cloud.next_wake() {
            cloud.advance_into(w, &mut done);
            scan.advance_into(w, &mut scan_done);
        }
        prop_assert_eq!(scan.next_wake(), None);
        prop_assert_eq!(&done, &scan_done);
        prop_assert_eq!(cloud.boundary(), scan.boundary());
    }
}
