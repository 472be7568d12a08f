//! The schedulers of Sec. IV — Algorithms 1–3 and the IC-only baseline —
//! as one batch planner keyed by [`SchedulerKind`].
//!
//! Every kind runs the same recursive loop over the batch: predict a job
//! (QRSM), test its placement against the plan so far, commit it to the
//! plan ([`Planner`]). The kinds differ in three places only:
//!
//! * **the chunk pass** (Algorithm 2 lines 3–10): Op and SIBS first split
//!   the jobs whose sliding size-deviation window `σ(i..i+x)` exceeds the
//!   threshold ([`ChunkStream`]), splicing the chunks in at the job's
//!   position;
//! * **the placement test**: IC-only never bursts; Greedy (Algorithm 1)
//!   places each job where it is expected to finish earliest, ties to the
//!   IC (line 4's `t_ic ≤ t_ec`), which can put bursts on the critical
//!   path; the Op kinds (Algorithm 2 lines 11–17) burst a job only if its
//!   estimated EC completion fits inside its slack (Eq. 1–2), so bursts
//!   are never on the critical path and the schedule is robust to
//!   bandwidth dips (Sec. IV-B);
//! * **the size-interval bounds** (Algorithm 3): SIBS keeps Op's
//!   placements and also derives the `(s_bound, m_bound)` the engine
//!   routes uploads by. Isolating small uploads from large ones raises the
//!   EC arrival rate and hence EC utilization (Sec. V-B-4: EC 44 % → ~58 %
//!   on the large bucket).
//!
//! A schedule reads only its arguments: no scheduler state survives a
//! batch.

use cloudburst_net::queues::SibsCandidate;
use cloudburst_net::{sibs_bounds, SibsBounds};
use cloudburst_sim::SimTime;
use cloudburst_workload::chunk::{chunked_len, ChunkPolicy, ChunkStream};
use cloudburst_workload::Job;
use serde::{Deserialize, Serialize};

use crate::api::{
    initial_upload_backlog_secs, BatchSchedule, LoadModel, Placement, Planner, ScheduledJob,
};
use crate::estimates::EstimateProvider;

/// Which scheduler drives the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Baseline: never burst.
    IcOnly,
    /// Algorithm 1.
    Greedy,
    /// Algorithm 2.
    OrderPreserving,
    /// Algorithm 2 without the chunking phase (ablation).
    OrderPreservingNoChunk,
    /// Algorithm 2 + Algorithm 3 upload routing.
    Sibs,
}

impl SchedulerKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::IcOnly => "ic-only",
            SchedulerKind::Greedy => "greedy",
            SchedulerKind::OrderPreserving => "op",
            SchedulerKind::OrderPreservingNoChunk => "op-nochunk",
            SchedulerKind::Sibs => "op+sibs",
        }
    }

    /// The scheduler line-up compared in Fig. 6.
    pub const FIG6: [SchedulerKind; 3] =
        [SchedulerKind::IcOnly, SchedulerKind::Greedy, SchedulerKind::OrderPreserving];

    /// Every kind, in declaration order.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::IcOnly,
        SchedulerKind::Greedy,
        SchedulerKind::OrderPreserving,
        SchedulerKind::OrderPreservingNoChunk,
        SchedulerKind::Sibs,
    ];
}

/// Schedules one arriving batch under `kind`: chunks it (Op and SIBS, by
/// `chunk_policy`), places every job in queue order over the `load`
/// snapshot, and, under SIBS, derives the size-interval bounds. Returns
/// every input job (or its chunks) exactly once, in queue order, each with
/// its QRSM estimate and the completion its commit planned.
///
/// [`batch_jobs`] through a [`BatchPlan`], collected: the engine admits the
/// same stream job by job instead.
pub fn schedule_batch(
    kind: SchedulerKind,
    chunk_policy: &ChunkPolicy,
    batch: Vec<Job>,
    load: &LoadModel<'_>,
    est: &EstimateProvider,
) -> BatchSchedule {
    let mut candidates = Vec::new();
    let mut plan = BatchPlan::new(kind, load, est, &mut candidates);
    let jobs = batch_jobs(kind, chunk_policy, batch).map(|job| plan.place(job)).collect();
    BatchSchedule { jobs, sibs: plan.finish() }
}

/// The jobs `kind` plans for `batch`, in queue order: the chunk pass's
/// stream under Op and SIBS, the batch as it arrived otherwise.
pub fn batch_jobs(kind: SchedulerKind, chunk_policy: &ChunkPolicy, batch: Vec<Job>) -> ChunkStream {
    ChunkStream::new(batch, chunks(kind).then_some(chunk_policy))
}

/// How many jobs [`schedule_batch`] returns for `batch` under `kind`: the
/// chunk-expanded length under Op and SIBS, the batch's own otherwise.
pub fn scheduled_len(kind: SchedulerKind, chunk_policy: &ChunkPolicy, batch: &[Job]) -> usize {
    if chunks(kind) {
        chunked_len(batch, chunk_policy)
    } else {
        batch.len()
    }
}

/// Whether `kind` runs Algorithm 2's chunk pass before planning.
fn chunks(kind: SchedulerKind) -> bool {
    matches!(kind, SchedulerKind::OrderPreserving | SchedulerKind::Sibs)
}

/// One batch's plan under `kind`, fed a job at a time in queue order:
/// [`BatchPlan::place`] predicts, tests and commits each job;
/// [`BatchPlan::finish`] then derives the SIBS bounds.
///
/// Construction copies everything the plan reads from the snapshot (the
/// [`Planner`]'s free-times, speeds, instant, upload rate and backlog;
/// under SIBS also the backlog seconds, IC initial load, processor count
/// and queued upload bytes), so the snapshot's borrows end with `new` and
/// the caller may mutate the state it was taken from while placing.
#[derive(Debug)]
pub struct BatchPlan<'a> {
    kind: SchedulerKind,
    est: &'a EstimateProvider,
    planner: Planner<'a>,
    sibs: Option<SibsPlan<'a>>,
}

/// Algorithm 3's inputs: round trips estimated under no contention (a
/// fresh plan's: the snapshot's instant, upload rate and backlog), IC
/// initial load, processor count and per-class upload backlogs from the
/// snapshot, and one candidate per placed job.
#[derive(Debug)]
struct SibsPlan<'a> {
    now: SimTime,
    upload_rate: f64,
    backlog_secs: f64,
    ec_speed: f64,
    ic_speed: f64,
    ic_initial_load_secs: f64,
    n_ic: usize,
    queued_bytes: (u64, u64, u64),
    candidates: &'a mut Vec<SibsCandidate>,
}

impl<'a> BatchPlan<'a> {
    /// A plan over the `load` snapshot. `candidates` is the caller's
    /// scratch for SIBS's per-job candidates: cleared here, filled by
    /// [`BatchPlan::place`] under SIBS only.
    pub fn new(
        kind: SchedulerKind,
        load: &LoadModel<'_>,
        est: &'a EstimateProvider,
        candidates: &'a mut Vec<SibsCandidate>,
    ) -> BatchPlan<'a> {
        candidates.clear();
        let sibs = (kind == SchedulerKind::Sibs).then(|| {
            let upload_rate = est.upload_rate(load.now);
            SibsPlan {
                now: load.now,
                upload_rate,
                backlog_secs: initial_upload_backlog_secs(load, upload_rate),
                ec_speed: load.ec_speed,
                ic_speed: load.ic_speed,
                ic_initial_load_secs: load.ic_initial_load_secs(),
                n_ic: load.ic_free_secs.len().max(1),
                queued_bytes: load.upload_queued_bytes,
                candidates,
            }
        });
        BatchPlan { kind, est, planner: Planner::new(load, est), sibs }
    }

    /// Places the next job of the batch: predicts it once (QRSM), tests
    /// its placement against the plan so far, and commits it.
    // Inlined across the crate boundary: the workspace builds without LTO,
    // and admission calls this once per job.
    #[inline]
    pub fn place(&mut self, job: Job) -> ScheduledJob {
        let est_secs = self.est.exec_secs(&job);
        let planner = &mut self.planner;
        let placement = match self.kind {
            // No decision reads the plan, but admission records the
            // estimate and the commit: one of each per job.
            SchedulerKind::IcOnly => Placement::Internal,
            // Algorithm 1 line 4: t_ic ≤ t_ec → IC, else EC.
            // `t_ic ≤ ec_floor ≤ t_ec` decides IC without the download
            // estimate behind `t_ec`.
            SchedulerKind::Greedy => {
                let t_ic = planner.ft_ic(est_secs);
                if t_ic <= planner.ec_floor(&job, est_secs) || t_ic <= planner.ft_ec(&job, est_secs)
                {
                    Placement::Internal
                } else {
                    Placement::External
                }
            }
            // Algorithm 2 lines 11–12: burst iff t_ec ≤ slack(J, i). The
            // exact floor `ec_floor ≤ ft_ec` settles most jobs without a
            // download estimate: a floor past the slack is a round trip
            // past it. No cushion (head of an empty system), or a round
            // trip that would outlast it: run locally.
            SchedulerKind::OrderPreserving
            | SchedulerKind::OrderPreservingNoChunk
            | SchedulerKind::Sibs => match planner.slack() {
                Some(slack)
                    if planner.ec_floor(&job, est_secs) <= slack
                        && planner.ft_ec(&job, est_secs) <= slack =>
                {
                    Placement::External
                }
                _ => Placement::Internal,
            },
        };
        let est_ct = planner.commit(&job, est_secs, placement);
        if let Some(s) = &mut self.sibs {
            let (_wait, up, exec, down) = self.est.round_trip_parts(
                s.now,
                &job,
                est_secs,
                s.ec_speed,
                s.backlog_secs,
                s.upload_rate,
            );
            s.candidates.push(SibsCandidate {
                size: job.input_bytes(),
                t_up: up,
                e_ec: exec,
                t_down: down,
                e_ic: est_secs / s.ic_speed,
            });
        }
        ScheduledJob { job, placement, est_secs, est_ct }
    }

    /// Ends the batch: Algorithm 3 over every placed job's candidate under
    /// SIBS (`None` when no candidate qualifies), `None` for every other
    /// kind.
    pub fn finish(self) -> Option<SibsBounds> {
        let s = self.sibs?;
        sibs_bounds(s.candidates, s.ic_initial_load_secs, s.n_ic, s.queued_bytes)
    }
}

/// [`schedule_batch`]'s placements without the `ec_floor` short cuts:
/// every burst test reads the full `ft_ec`, and no bounds are derived.
/// The oracle the floored loop is held to.
#[cfg(test)]
pub(crate) fn schedule_batch_floor_free(
    kind: SchedulerKind,
    chunk_policy: &ChunkPolicy,
    batch: Vec<Job>,
    load: &LoadModel<'_>,
    est: &EstimateProvider,
) -> BatchSchedule {
    let mut planner = Planner::new(load, est);
    let mut jobs = Vec::new();
    for job in batch_jobs(kind, chunk_policy, batch) {
        let est_secs = est.exec_secs(&job);
        let placement = match (kind, planner.slack()) {
            (SchedulerKind::IcOnly, _) => Placement::Internal,
            (SchedulerKind::Greedy, _) => {
                if planner.ft_ic(est_secs) <= planner.ft_ec(&job, est_secs) {
                    Placement::Internal
                } else {
                    Placement::External
                }
            }
            (_, Some(slack)) if planner.ft_ec(&job, est_secs) <= slack => Placement::External,
            _ => Placement::Internal,
        };
        let est_ct = planner.commit(&job, est_secs, placement);
        jobs.push(ScheduledJob { job, placement, est_secs, est_ct });
    }
    BatchSchedule { jobs, sibs: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LoadModelBuf;
    use crate::estimates::tests_support::{job_with_id, provider};
    use cloudburst_net::SizeClass;
    use cloudburst_sim::SimTime;

    fn run(kind: SchedulerKind, batch: Vec<Job>, load: &LoadModelBuf) -> BatchSchedule {
        schedule_batch(kind, &ChunkPolicy::default(), batch, &load.as_model(), &provider())
    }

    fn placements(s: &BatchSchedule) -> Vec<Placement> {
        s.jobs.iter().map(|s| s.placement).collect()
    }

    /// Number of jobs bursted to the EC.
    fn n_bursted(s: &BatchSchedule) -> usize {
        s.jobs.iter().filter(|s| s.placement == Placement::External).count()
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["ic-only", "greedy", "op", "op-nochunk", "op+sibs"]);
        assert_eq!(SchedulerKind::FIG6.len(), 3);
    }

    #[test]
    fn serde_names_are_pinned_and_round_trip() {
        let names = ["IcOnly", "Greedy", "OrderPreserving", "OrderPreservingNoChunk", "Sibs"];
        for (kind, name) in SchedulerKind::ALL.into_iter().zip(names) {
            let js = serde_json::to_string(&kind).unwrap();
            assert_eq!(js, format!("\"{name}\""));
            assert_eq!(serde_json::from_str::<SchedulerKind>(&js).unwrap(), kind);
        }
    }

    #[test]
    fn ic_only_never_bursts_even_under_extreme_load() {
        let batch: Vec<_> = (0..10).map(|i| job_with_id(i, 200)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 1, 8);
        buf.ic_free_secs = vec![1e9];
        let s = run(SchedulerKind::IcOnly, batch, &buf);
        assert_eq!(n_bursted(&s), 0);
        assert_eq!(s.jobs.len(), 10);
        assert!(s.sibs.is_none());
    }

    #[test]
    fn greedy_idle_system_keeps_jobs_internal() {
        // With all machines idle, ft_ic = exec while ft_ec adds transfers:
        // nothing bursts.
        let batch: Vec<_> = (0..4).map(|i| job_with_id(i, 60)).collect();
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let s = run(SchedulerKind::Greedy, batch, &buf);
        assert_eq!(n_bursted(&s), 0);
        assert_eq!(s.jobs.len(), 4);
    }

    #[test]
    fn greedy_loaded_ic_pushes_overflow_to_ec() {
        // One IC machine with a deep backlog: later jobs finish earlier via
        // the EC round trip.
        let batch: Vec<_> = (0..6).map(|i| job_with_id(i, 40)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 1, 2);
        buf.ic_free_secs = vec![20_000.0];
        let s = run(SchedulerKind::Greedy, batch, &buf);
        assert_eq!(n_bursted(&s), 6, "everything beats a 20k-second backlog");
    }

    #[test]
    fn greedy_placement_is_recursive_not_independent() {
        // With a moderately loaded IC, the first jobs fill the EC pipe until
        // bursting stops paying off — the planner's commits must make later
        // decisions differ from earlier ones.
        let batch: Vec<_> = (0..10).map(|i| job_with_id(i, 80)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 2, 1);
        buf.ic_free_secs = vec![1_500.0, 1_500.0];
        let s = run(SchedulerKind::Greedy, batch, &buf);
        let placements = placements(&s);
        let n_ec = n_bursted(&s);
        assert!(n_ec > 0, "some jobs should burst: {placements:?}");
        assert!(n_ec < 10, "not all jobs should burst: {placements:?}");
    }

    #[test]
    fn greedy_order_is_preserved() {
        let batch: Vec<_> = (0..5).map(|i| job_with_id(i, 30 + i * 10)).collect();
        let ids: Vec<_> = batch.iter().map(|j| j.id).collect();
        let buf = LoadModelBuf::idle(SimTime::ZERO, 2, 1);
        let s = run(SchedulerKind::Greedy, batch, &buf);
        let out_ids: Vec<_> = s.jobs.iter().map(|s| s.job.id).collect();
        assert_eq!(ids, out_ids);
    }

    #[test]
    fn op_idle_system_stays_internal() {
        // Empty system: first job has no slack; subsequent jobs have slack
        // equal to a short IC drain that an EC round trip cannot beat.
        let batch: Vec<_> = (0..4).map(|i| job_with_id(i, 40)).collect();
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let s = run(SchedulerKind::OrderPreserving, batch, &buf);
        assert_eq!(n_bursted(&s), 0);
    }

    #[test]
    fn op_deep_backlog_creates_slack_and_bursts() {
        // A deep IC backlog gives later jobs a big cushion: their EC round
        // trips fit, so they burst.
        let batch: Vec<_> = (0..8).map(|i| job_with_id(i, 60)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 2, 2);
        buf.ic_free_secs = vec![4_000.0, 4_000.0];
        buf.outstanding_est_completions = vec![SimTime::from_secs(4_000)];
        let s = run(SchedulerKind::OrderPreserving, batch, &buf);
        assert!(n_bursted(&s) > 0, "deep backlog should trigger bursting");
    }

    #[test]
    fn op_bursted_jobs_satisfy_eq2_under_own_estimates() {
        // Property: for every EC placement, replaying the planner must show
        // t_ec ≤ slack at decision time.
        let est = provider();
        let batch: Vec<_> = (0..10).map(|i| job_with_id(i, 30 + (i % 5) * 50)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 2, 2);
        buf.ic_free_secs = vec![3_000.0, 3_500.0];
        buf.outstanding_est_completions = vec![SimTime::from_secs(3_500)];
        let s = run(SchedulerKind::OrderPreserving, batch, &buf);

        // Replay with an identical planner.
        let mut planner = Planner::new(&buf.as_model(), &est);
        for s in &s.jobs {
            let e = est.exec_secs(&s.job);
            if s.placement == Placement::External {
                let slack = planner.slack().expect("bursted job must have predecessors");
                let t_ec = planner.ft_ec(&s.job, e);
                assert!(t_ec <= slack, "Eq. 2 violated: t_ec={t_ec:?} slack={slack:?}");
            }
            planner.commit(&s.job, e, s.placement);
        }
    }

    #[test]
    fn op_chunking_splits_large_jobs_in_variable_batches() {
        // Small jobs around a 290 MB monster: high window σ.
        let batch =
            vec![job_with_id(0, 5), job_with_id(1, 290), job_with_id(2, 8), job_with_id(3, 6)];
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let s = run(SchedulerKind::OrderPreserving, batch, &buf);
        assert!(s.jobs.len() > 4, "the 290 MB job should be chunked");
        let n_chunks = s.jobs.iter().filter(|s| s.job.is_chunk()).count();
        assert_eq!(n_chunks, 4, "ceil(290/80) = 4 chunks");
    }

    /// The engine sizes a closed run's columns from `scheduled_len`, so it
    /// must count exactly what `schedule_batch` returns, for every kind.
    #[test]
    fn scheduled_len_counts_what_schedule_batch_returns() {
        let batch =
            vec![job_with_id(0, 5), job_with_id(1, 290), job_with_id(2, 8), job_with_id(3, 6)];
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let policy = ChunkPolicy::default();
        for kind in SchedulerKind::ALL {
            let want = run(kind, batch.clone(), &buf).jobs.len();
            assert_eq!(scheduled_len(kind, &policy, &batch), want, "{}", kind.label());
        }
        assert_eq!(scheduled_len(SchedulerKind::Sibs, &policy, &batch), 7, "4 chunks + 3 whole");
    }

    #[test]
    fn op_nochunk_passes_jobs_through() {
        let batch = vec![job_with_id(0, 5), job_with_id(1, 290), job_with_id(2, 8)];
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let s = run(SchedulerKind::OrderPreservingNoChunk, batch, &buf);
        assert_eq!(s.jobs.len(), 3);
        assert!(s.jobs.iter().all(|s| !s.job.is_chunk()));
    }

    fn loaded_model() -> LoadModelBuf {
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 4, 2);
        buf.ic_free_secs = vec![4_000.0; 4];
        buf.outstanding_est_completions = vec![SimTime::from_secs(4_000)];
        buf
    }

    #[test]
    fn sibs_placements_match_op() {
        let batch: Vec<_> = (0..8).map(|i| job_with_id(i, 20 + (i % 4) * 60)).collect();
        let load = loaded_model();
        let a = run(SchedulerKind::Sibs, batch.clone(), &load);
        let b = run(SchedulerKind::OrderPreserving, batch, &load);
        assert_eq!(placements(&a), placements(&b), "SIBS must not change placements, only routing");
    }

    #[test]
    fn only_sibs_derives_bounds() {
        let batch: Vec<_> = (0..9).map(|i| job_with_id(i, 10 + i * 30)).collect();
        let load = loaded_model();
        for kind in SchedulerKind::ALL {
            let s = run(kind, batch.clone(), &load);
            assert_eq!(s.sibs.is_some(), kind == SchedulerKind::Sibs, "{}", kind.label());
        }
    }

    #[test]
    fn sibs_bounds_appear_when_jobs_qualify() {
        let batch: Vec<_> = (0..9).map(|i| job_with_id(i, 10 + i * 30)).collect();
        let s = run(SchedulerKind::Sibs, batch, &loaded_model());
        let bounds = s.sibs.expect("deep backlog yields burst candidates");
        assert!(bounds.s_bound <= bounds.m_bound);
        // The bounds classify the batch into non-empty small class at least.
        let n_small = s
            .jobs
            .iter()
            .filter(|s| bounds.classify(s.job.input_bytes()) == SizeClass::Small)
            .count();
        assert!(n_small > 0);
    }

    #[test]
    fn sibs_no_candidates_no_bounds() {
        let batch: Vec<_> = (0..3).map(|i| job_with_id(i, 30)).collect();
        // Idle system: EC completion never beats an empty IC → no candidates.
        let load = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let s = run(SchedulerKind::Sibs, batch, &load);
        assert!(s.sibs.is_none(), "defaults to a single interval");
    }

    #[test]
    fn sibs_queued_bytes_shift_bounds() {
        let batch: Vec<_> = (0..9).map(|i| job_with_id(i, 10 + i * 30)).collect();
        let mut load = loaded_model();
        let b1 = run(SchedulerKind::Sibs, batch.clone(), &load).sibs.unwrap();
        load.upload_queued_bytes = (500_000_000, 0, 0);
        let b2 = run(SchedulerKind::Sibs, batch, &load).sibs.unwrap();
        assert!(b2.s_bound <= b1.s_bound, "a full small queue shrinks its share");
    }
}
