//! Scheduler-facing types: placement decisions, the system-state snapshot,
//! and the planning helper that turns estimates into finish times.

use cloudburst_net::SibsBounds;
use cloudburst_sim::{SimDuration, SimTime};
use cloudburst_workload::Job;
use serde::{Deserialize, Serialize};

use crate::estimates::EstimateProvider;
use crate::freetime::FreeTimeIndex;

/// Where a job was placed (the decision variable `d_i` of Sec. II-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// Run in the internal cloud.
    Internal,
    /// Burst to the external cloud.
    External,
}

/// Snapshot of system state the engine hands to a scheduler at a decision
/// point. All quantities are *estimates or observables* — never ground
/// truth.
///
/// The slice fields *borrow* engine-owned (or [`LoadModelBuf`]-owned)
/// storage: building a snapshot per decision is allocation-free on the
/// engine's steady-state path.
#[derive(Clone, Copy, Debug)]
pub struct LoadModel<'a> {
    /// Decision instant.
    pub now: SimTime,
    /// Estimated seconds until each IC machine is free, including its
    /// queued share (0 = idle). One entry per machine.
    pub ic_free_secs: &'a [f64],
    /// Same for the EC machines.
    pub ec_free_secs: &'a [f64],
    /// Bytes queued ahead in the upload direction.
    pub upload_backlog_bytes: u64,
    /// Bytes queued ahead in the download direction.
    pub download_backlog_bytes: u64,
    /// Estimated completion instants of every previously scheduled,
    /// not-yet-finished job (the scheduler's own past estimates) — the
    /// `T_i` pool for slack computation across batch boundaries. Unordered.
    pub outstanding_est_completions: &'a [SimTime],
}

impl LoadModel<'_> {
    /// `iload` of Algorithm 3: the average estimated seconds of compute
    /// already committed per IC machine.
    pub fn ic_initial_load_secs(&self) -> f64 {
        if self.ic_free_secs.is_empty() {
            return 0.0;
        }
        self.ic_free_secs.iter().sum::<f64>() / self.ic_free_secs.len() as f64
    }
}

/// Owned backing storage for a [`LoadModel`]. The engine keeps one of
/// these and refreshes it in place each decision; tests build one, tweak
/// the fields, and call [`LoadModelBuf::as_model`].
#[derive(Clone, Debug, Default)]
pub struct LoadModelBuf {
    /// Decision instant.
    pub now: SimTime,
    /// Per-IC-machine estimated seconds until free.
    pub ic_free_secs: Vec<f64>,
    /// Per-EC-machine estimated seconds until free.
    pub ec_free_secs: Vec<f64>,
    /// Bytes queued ahead in the upload direction.
    pub upload_backlog_bytes: u64,
    /// Bytes queued ahead in the download direction.
    pub download_backlog_bytes: u64,
    /// Outstanding estimated completion instants, unordered.
    pub outstanding_est_completions: Vec<SimTime>,
}

impl LoadModelBuf {
    /// An idle system with the given pool sizes (convenient for tests).
    pub fn idle(now: SimTime, n_ic: usize, n_ec: usize) -> LoadModelBuf {
        LoadModelBuf {
            now,
            ic_free_secs: vec![0.0; n_ic],
            ec_free_secs: vec![0.0; n_ec],
            upload_backlog_bytes: 0,
            download_backlog_bytes: 0,
            outstanding_est_completions: Vec::new(),
        }
    }

    /// The borrowed snapshot view over this storage.
    pub fn as_model(&self) -> LoadModel<'_> {
        LoadModel {
            now: self.now,
            ic_free_secs: &self.ic_free_secs,
            ec_free_secs: &self.ec_free_secs,
            upload_backlog_bytes: self.upload_backlog_bytes,
            download_backlog_bytes: self.download_backlog_bytes,
            outstanding_est_completions: &self.outstanding_est_completions,
        }
    }
}

/// One job of a [`BatchSchedule`]: its placement and its QRSM estimate.
#[derive(Clone, Debug)]
pub struct ScheduledJob {
    /// The job (possibly a chunk). Its id is provisional; the engine
    /// re-indexes on enqueue.
    pub job: Job,
    /// Where the scheduler placed it.
    pub placement: Placement,
    /// [`EstimateProvider::exec_secs`] of `job` in standard-machine
    /// seconds, computed once by the scheduler. The planner, the SIBS
    /// bounds and the engine's admission all read this value instead of
    /// predicting the job again.
    pub est_secs: f64,
    /// The job's estimated completion instant: what the scheduler's own
    /// [`Planner::commit`] returned for it, over the batch's snapshot and
    /// every earlier job of the batch. The engine records it (the `T_i`
    /// pool, the ticket quote) instead of planning the job again.
    pub est_ct: SimTime,
}

/// The outcome of scheduling one batch.
#[derive(Clone, Debug)]
pub struct BatchSchedule {
    /// Jobs (possibly expanded by chunking) in queue order, with their
    /// placements and estimates.
    pub jobs: Vec<ScheduledJob>,
    /// Size-interval bounds, when the scheduler uses SIBS upload queues.
    pub sibs: Option<SibsBounds>,
}

impl BatchSchedule {
    /// Number of jobs bursted to the EC.
    pub fn n_bursted(&self) -> usize {
        self.jobs.iter().filter(|s| s.placement == Placement::External).count()
    }
}

/// A cloud-bursting scheduler: turns a batch plus a state snapshot into
/// placements (Sec. IV: "when, where and how much to burst out").
pub trait BurstScheduler {
    /// Short label used in reports ("greedy", "op", "op+sibs", "ic-only").
    fn name(&self) -> &'static str;

    /// Schedules one arriving batch. May split jobs (chunking); must return
    /// every input job (or its chunks) exactly once, preserving queue order.
    fn schedule_batch(
        &mut self,
        batch: Vec<Job>,
        load: &LoadModel<'_>,
        est: &EstimateProvider,
    ) -> BatchSchedule;

    /// Engine hook: the current `(small, medium, large)` upload-queue byte
    /// backlogs, refreshed before each batch. Only SIBS cares; the default
    /// ignores it.
    fn set_upload_queue_state(&mut self, _queued: (u64, u64, u64)) {}
}

/// Incremental finish-time planner shared by the schedulers.
///
/// Wraps a [`LoadModel`] and *commits* each placement as it is decided, so
/// job `i+1`'s estimates see job `i`'s load — the recursive structure of
/// Algorithms 1 and 2. A commit's return is the job's estimated completion,
/// which the scheduler hands on in [`ScheduledJob::est_ct`]; each admitted
/// job is planned once per batch.
///
/// Every read takes the job's standard-machine execution estimate
/// (`est_secs`, [`EstimateProvider::exec_secs`]) from the caller, so a job
/// is predicted once however many times it is planned. The decision
/// instant is fixed for the planner's life, so the upload rate at it is
/// read once, at construction.
///
/// The planned per-machine free-times live in two [`FreeTimeIndex`]
/// tournament trees, so the earliest-free read behind `ft_ic`/`ft_ec` is
/// `O(1)` and a commit is `O(log machines)`: a batch plans in
/// `O(batch · log machines)` instead of rescanning every machine per job.
/// The index resolves equal free-times toward the lowest machine index —
/// the first-of-equals `min_by` contract the linear scan had — and adds
/// with the same `+=` arithmetic, so plans are bitwise unchanged (the
/// `#[cfg(test)]` linear planner is the oracle).
#[derive(Clone, Debug)]
pub struct Planner<'a> {
    est: &'a EstimateProvider,
    now: SimTime,
    ic_free: FreeTimeIndex,
    ec_free: FreeTimeIndex,
    /// [`EstimateProvider::upload_rate`] at `now`.
    upload_rate: f64,
    upload_backlog_secs: f64,
    /// Eq. 1's slack anchor: `max` estimated completion over everything
    /// scheduled and unfinished, including commitments made through this
    /// planner. Maintained as a running max — `max` is order-independent,
    /// so folding on construction and on each commit is exactly the old
    /// full-pool rescan, without holding (or re-scanning) the pool itself:
    /// the per-job `slack()` call in Algorithm 2's batch loop was the last
    /// `O(outstanding)` step on the decision path at megascale.
    slack_anchor: Option<SimTime>,
}

impl<'a> Planner<'a> {
    /// Builds a planner over the current load snapshot. The planner owns
    /// its indexed copies of the free-times — it runs once per *batch*,
    /// not per decision, so building them is off the steady-state hot
    /// path.
    pub fn new(load: &LoadModel<'_>, est: &'a EstimateProvider) -> Planner<'a> {
        let upload_rate = est.upload_rate(load.now);
        let upload_backlog_secs = initial_upload_backlog_secs(load, upload_rate);
        let mut ic_free = FreeTimeIndex::new();
        ic_free.reset_from(load.ic_free_secs);
        let mut ec_free = FreeTimeIndex::new();
        ec_free.reset_from(load.ec_free_secs);
        Planner {
            est,
            now: load.now,
            ic_free,
            ec_free,
            upload_rate,
            upload_backlog_secs,
            slack_anchor: load.outstanding_est_completions.iter().copied().max(),
        }
    }

    /// `ft^ic(i, S)`: estimated completion instant if a job estimated at
    /// `est_secs` were scheduled in the IC right now.
    pub fn ft_ic(&self, est_secs: f64) -> SimTime {
        self.ic_finish(est_secs / self.est.ic_speed)
    }

    /// `ft^ec(i, S)`: estimated completion instant if `job` were bursted
    /// right now — upload-queue wait, upload, EC queue wait, remote
    /// execution, result download.
    pub fn ft_ec(&self, job: &Job, est_secs: f64) -> SimTime {
        self.ec_finish(self.round_trip_parts(job, est_secs))
    }

    /// IC completion of `exec` seconds started on the earliest-free
    /// machine (+∞ free-time, hence a saturated instant, on an empty pool).
    fn ic_finish(&self, exec: f64) -> SimTime {
        self.now + SimDuration::from_secs_f64(self.ic_free.min_value() + exec)
    }

    /// EC completion of a round trip with the given parts.
    fn ec_finish(&self, (wait, up, exec, down): (f64, f64, f64, f64)) -> SimTime {
        let start_ec = (wait + up).max(self.ec_free.min_value());
        self.now + SimDuration::from_secs_f64(start_ec + exec + down)
    }

    /// The EC round-trip *duration* components for a burst starting now,
    /// `(upload_wait, upload, exec, download)` — inputs to Eq. 2.
    pub fn round_trip_parts(&self, job: &Job, est_secs: f64) -> (f64, f64, f64, f64) {
        self.est.round_trip_parts_at_rate(
            self.now,
            job,
            est_secs,
            self.upload_backlog_secs,
            self.upload_rate,
        )
    }

    /// Eq. 1: the slack anchor — max estimated completion of all work ahead
    /// of the next job. `None` when nothing is ahead.
    pub fn slack(&self) -> Option<SimTime> {
        self.slack_anchor
    }

    /// Commits `job` to the given placement, updating the planned load and
    /// the estimated-completion pool. Returns the job's estimated
    /// completion instant. The target pool must have at least one machine.
    pub fn commit(&mut self, job: &Job, est_secs: f64, placement: Placement) -> SimTime {
        let ft = match placement {
            Placement::Internal => {
                debug_assert!(!self.ic_free.is_empty(), "IC has machines");
                let exec = est_secs / self.est.ic_speed;
                let ft = self.ic_finish(exec);
                self.ic_free.fcfs_commit(exec);
                ft
            }
            Placement::External => {
                debug_assert!(!self.ec_free.is_empty(), "EC has machines");
                let parts = self.round_trip_parts(job, est_secs);
                let ft = self.ec_finish(parts);
                let (wait, up, exec, _down) = parts;
                self.upload_backlog_secs += up;
                let idx = self.ec_free.min_index();
                self.ec_free.set(idx, self.ec_free.value(idx).max(wait + up) + exec);
                ft
            }
        };
        self.slack_anchor = Some(self.slack_anchor.map_or(ft, |a| a.max(ft)));
        ft
    }

    /// Decision instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current planned upload backlog in seconds.
    pub fn upload_backlog_secs(&self) -> f64 {
        self.upload_backlog_secs
    }
}

/// The snapshot's upload backlog in seconds at `upload_rate`
/// ([`EstimateProvider::upload_rate`] at `load.now`): the wait ahead of a
/// batch's first burst.
pub(crate) fn initial_upload_backlog_secs(load: &LoadModel<'_>, upload_rate: f64) -> f64 {
    if load.upload_backlog_bytes > 0 {
        load.upload_backlog_bytes as f64 / upload_rate
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimates::tests_support::provider_and_jobs;
    use proptest::prelude::*;

    #[test]
    fn ft_ic_uses_earliest_free_machine() {
        let (est, jobs) = provider_and_jobs(&[50, 50]);
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 2, 1);
        buf.ic_free_secs = vec![100.0, 10.0];
        let planner = Planner::new(&buf.as_model(), &est);
        let exec = est.exec_secs(&jobs[0]);
        let ft = planner.ft_ic(exec);
        assert!((ft.as_secs_f64() - (10.0 + exec)).abs() < 1e-6);
    }

    #[test]
    fn commit_internal_loads_the_machine() {
        let (est, jobs) = provider_and_jobs(&[50, 50]);
        let buf = LoadModelBuf::idle(SimTime::ZERO, 1, 1);
        let mut planner = Planner::new(&buf.as_model(), &est);
        let ft1 = planner.commit(&jobs[0], est.exec_secs(&jobs[0]), Placement::Internal);
        let ft2 = planner.ft_ic(est.exec_secs(&jobs[1]));
        assert!(ft2 > ft1, "second job queues behind the first");
    }

    #[test]
    fn ft_ec_includes_all_four_legs() {
        let (est, jobs) = provider_and_jobs(&[100]);
        let buf = LoadModelBuf::idle(SimTime::ZERO, 1, 1);
        let planner = Planner::new(&buf.as_model(), &est);
        let est_secs = est.exec_secs(&jobs[0]);
        let (wait, up, exec, down) = planner.round_trip_parts(&jobs[0], est_secs);
        assert_eq!(wait, 0.0);
        let ft = planner.ft_ec(&jobs[0], est_secs);
        assert!((ft.as_secs_f64() - (up + exec + down)).abs() < 1e-6);
    }

    #[test]
    fn commit_external_grows_upload_backlog() {
        let (est, jobs) = provider_and_jobs(&[100, 100]);
        let buf = LoadModelBuf::idle(SimTime::ZERO, 1, 2);
        let mut planner = Planner::new(&buf.as_model(), &est);
        assert_eq!(planner.upload_backlog_secs(), 0.0);
        planner.commit(&jobs[0], est.exec_secs(&jobs[0]), Placement::External);
        assert!(planner.upload_backlog_secs() > 0.0);
        // Second burst sees the first upload ahead of it.
        let est_1 = est.exec_secs(&jobs[1]);
        let ft2 = planner.ft_ec(&jobs[1], est_1);
        let mut fresh = Planner::new(&buf.as_model(), &est);
        let ft2_fresh = fresh.ft_ec(&jobs[1], est_1);
        assert!(ft2 > ft2_fresh);
        let _ = &mut fresh;
    }

    #[test]
    fn slack_tracks_commitments_and_outstanding_work() {
        let (est, jobs) = provider_and_jobs(&[50, 50]);
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 4, 1);
        assert!(Planner::new(&buf.as_model(), &est).slack().is_none());
        buf.outstanding_est_completions = vec![SimTime::from_secs(500)];
        let mut planner = Planner::new(&buf.as_model(), &est);
        assert_eq!(planner.slack(), Some(SimTime::from_secs(500)));
        let ft = planner.commit(&jobs[0], est.exec_secs(&jobs[0]), Placement::Internal);
        assert_eq!(planner.slack(), Some(ft.max(SimTime::from_secs(500))));
        let _ = jobs;
    }

    #[test]
    fn idle_load_model_helpers() {
        let buf = LoadModelBuf::idle(SimTime::from_secs(5), 8, 2);
        let load = buf.as_model();
        assert_eq!(load.ic_free_secs.len(), 8);
        assert_eq!(load.ic_initial_load_secs(), 0.0);
        let loaded = LoadModelBuf {
            ic_free_secs: vec![10.0, 30.0],
            ..LoadModelBuf::idle(SimTime::ZERO, 2, 1)
        };
        assert_eq!(loaded.as_model().ic_initial_load_secs(), 20.0);
    }

    /// The linear-scan planner the indexed one replaced: an `f64::min`
    /// fold for each earliest-free read and a first-of-equals `min_by`
    /// argmin for each commit. The oracle for the equivalence tests.
    struct LinearPlanner<'a> {
        est: &'a EstimateProvider,
        now: SimTime,
        ic_free: Vec<f64>,
        ec_free: Vec<f64>,
        upload_backlog_secs: f64,
        slack_anchor: Option<SimTime>,
    }

    impl<'a> LinearPlanner<'a> {
        fn new(load: &LoadModel<'_>, est: &'a EstimateProvider) -> LinearPlanner<'a> {
            let upload_backlog_secs = if load.upload_backlog_bytes > 0 {
                est.upload_secs(load.now, load.upload_backlog_bytes)
            } else {
                0.0
            };
            LinearPlanner {
                est,
                now: load.now,
                ic_free: load.ic_free_secs.to_vec(),
                ec_free: load.ec_free_secs.to_vec(),
                upload_backlog_secs,
                slack_anchor: load.outstanding_est_completions.iter().copied().max(),
            }
        }

        fn ft_ic(&self, job: &Job) -> SimTime {
            let exec = self.est.exec_secs_ic(job);
            let free = self.ic_free.iter().copied().fold(f64::INFINITY, f64::min);
            self.now + SimDuration::from_secs_f64(free + exec)
        }

        fn ft_ec(&self, job: &Job) -> SimTime {
            let (wait, up, exec, down) = self.est.round_trip_parts(
                self.now,
                job,
                self.est.exec_secs(job),
                self.upload_backlog_secs,
            );
            let arrive_ec = wait + up;
            let ec_free = self.ec_free.iter().copied().fold(f64::INFINITY, f64::min);
            let start_ec = arrive_ec.max(ec_free);
            self.now + SimDuration::from_secs_f64(start_ec + exec + down)
        }

        fn commit(&mut self, job: &Job, placement: Placement) -> SimTime {
            let ft = match placement {
                Placement::Internal => {
                    let ft = self.ft_ic(job);
                    let exec = self.est.exec_secs_ic(job);
                    let (idx, _) = self
                        .ic_free
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN load"))
                        .expect("IC has machines");
                    self.ic_free[idx] += exec;
                    ft
                }
                Placement::External => {
                    let ft = self.ft_ec(job);
                    let (wait, up, exec, _down) = self.est.round_trip_parts(
                        self.now,
                        job,
                        self.est.exec_secs(job),
                        self.upload_backlog_secs,
                    );
                    let arrive_ec = wait + up;
                    self.upload_backlog_secs += up;
                    let (idx, _) = self
                        .ec_free
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN load"))
                        .expect("EC has machines");
                    self.ec_free[idx] = self.ec_free[idx].max(arrive_ec) + exec;
                    ft
                }
            };
            self.slack_anchor = Some(self.slack_anchor.map_or(ft, |a| a.max(ft)));
            ft
        }
    }

    /// Mirrors the engine's finite crashed-machine free-time sentinel.
    const DEAD_FREE_SECS: f64 = 1_000_000_000.0;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// A free-time drawn from a palette dense in exact ties: idle zeros,
    /// two shared values, a crashed-machine sentinel, and arbitrary loads.
    fn palette(code: usize, x: f64) -> f64 {
        match code {
            0 => 0.0,
            1 => 120.0,
            2 => 900.5,
            3 => DEAD_FREE_SECS,
            _ => x,
        }
    }

    fn pool(draws: &[(usize, f64)]) -> Vec<f64> {
        draws.iter().map(|&(c, x)| palette(c, x)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Interleaved IC/EC commits: every read and every commit agrees
        /// bitwise with the linear planner, and so do both free-time
        /// arrays after every step — over exact ties, zeros, crashed
        /// machines, and 1-machine pools. The bandwidth estimators hold a
        /// different rate in every hour, so an upload rate cached at the
        /// wrong instant would show.
        #[test]
        fn indexed_planner_matches_linear_planner(
            ic in prop::collection::vec((0usize..6, 0.0f64..3_000.0), 1..9),
            ec in prop::collection::vec((0usize..6, 0.0f64..3_000.0), 1..5),
            ops in prop::collection::vec((any::<bool>(), 0usize..6), 1..60),
            (backlog, anchor, now) in (0u64..2, 0u64..4_000, 0u64..86_400),
        ) {
            let (mut est, jobs) = provider_and_jobs(&[1, 12, 60, 150, 240, 300]);
            for h in 0..24u64 {
                let t = SimTime::from_secs(h * 3_600);
                est.up.observe(t, 150_000.0 + 20_000.0 * h as f64);
                est.down.observe(t, 400_000.0 - 10_000.0 * h as f64);
            }
            let buf = LoadModelBuf {
                ic_free_secs: pool(&ic),
                ec_free_secs: pool(&ec),
                upload_backlog_bytes: backlog * 40_000_000,
                outstanding_est_completions: vec![SimTime::from_secs(anchor)],
                ..LoadModelBuf::idle(SimTime::from_secs(now), 0, 0)
            };
            let load = buf.as_model();
            let mut fast = Planner::new(&load, &est);
            let mut slow = LinearPlanner::new(&load, &est);
            for (step, &(external, j)) in ops.iter().enumerate() {
                let job = &jobs[j];
                let e = est.exec_secs(job);
                prop_assert_eq!(fast.ft_ic(e), slow.ft_ic(job), "ft_ic at step {}", step);
                prop_assert_eq!(fast.ft_ec(job, e), slow.ft_ec(job), "ft_ec at step {}", step);
                let placement = if external { Placement::External } else { Placement::Internal };
                prop_assert_eq!(fast.commit(job, e, placement), slow.commit(job, placement));
                prop_assert_eq!(bits(fast.ic_free.values()), bits(&slow.ic_free), "IC at {}", step);
                prop_assert_eq!(bits(fast.ec_free.values()), bits(&slow.ec_free), "EC at {}", step);
                prop_assert_eq!(fast.upload_backlog_secs.to_bits(), slow.upload_backlog_secs.to_bits());
                prop_assert_eq!(fast.slack(), slow.slack_anchor);
            }
        }
    }

    #[test]
    fn empty_pools_read_as_never_free() {
        // An empty pool's earliest free-time is +∞, exactly as the linear
        // fold from f64::INFINITY: both planners saturate identically.
        let (est, jobs) = provider_and_jobs(&[50]);
        let buf = LoadModelBuf::idle(SimTime::from_secs(7), 0, 0);
        let fast = Planner::new(&buf.as_model(), &est);
        let slow = LinearPlanner::new(&buf.as_model(), &est);
        assert_eq!(fast.ic_free.min_value(), f64::INFINITY);
        assert_eq!(fast.ec_free.min_value(), f64::INFINITY);
        let e = est.exec_secs(&jobs[0]);
        assert_eq!(fast.ft_ic(e), slow.ft_ic(&jobs[0]));
        assert_eq!(fast.ft_ec(&jobs[0], e), slow.ft_ec(&jobs[0]));
    }
}
