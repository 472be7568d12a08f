//! The Order-Preserving scheduler (Algorithm 2).
//!
//! Two phases per batch:
//!
//! 1. **Variance reduction** (lines 3–10): walk the job list with a sliding
//!    size-deviation window `σ(i..i+x)`; when it exceeds the threshold,
//!    split the offending job with `pdfchunk` and splice the chunks back at
//!    its position.
//! 2. **Slack-gated bursting** (lines 11–17): burst a job only if its
//!    estimated EC completion `t_ec` fits inside its slack (Eq. 1–2) — the
//!    max estimated completion of everything ahead of it. Jobs bursted this
//!    way are never on the critical path, so the schedule is robust to
//!    bandwidth dips (Sec. IV-B).

use cloudburst_workload::chunk::{chunk_batch, ChunkPolicy};
use cloudburst_workload::Job;

use crate::api::{BatchSchedule, BurstScheduler, LoadModel, Placement, Planner, ScheduledJob};
use crate::estimates::EstimateProvider;

/// Algorithm 2: chunk for variance, then burst within slack.
#[derive(Clone, Debug)]
pub struct OrderPreservingScheduler {
    /// Chunking policy (window `x`, threshold `th`, target chunk size).
    pub chunk_policy: ChunkPolicy,
    /// Set `false` to disable chunking (the `ablate-chunk` experiment).
    pub chunking_enabled: bool,
}

impl Default for OrderPreservingScheduler {
    /// Paper-default policy.
    fn default() -> OrderPreservingScheduler {
        OrderPreservingScheduler::new(ChunkPolicy::default())
    }
}

impl OrderPreservingScheduler {
    /// Creates the scheduler with the given chunking policy.
    pub fn new(chunk_policy: ChunkPolicy) -> OrderPreservingScheduler {
        OrderPreservingScheduler { chunk_policy, chunking_enabled: true }
    }

    /// Disables the chunking phase (ablation).
    pub fn without_chunking(mut self) -> OrderPreservingScheduler {
        self.chunking_enabled = false;
        self
    }

    /// Algorithm 2 lines 3–10 over the batch ([`chunk_batch`]), unless
    /// chunking is ablated.
    fn chunk_phase(&self, jobs: Vec<Job>) -> Vec<Job> {
        if !self.chunking_enabled {
            return jobs;
        }
        chunk_batch(jobs, &self.chunk_policy)
    }
}

impl BurstScheduler for OrderPreservingScheduler {
    fn name(&self) -> &'static str {
        if self.chunking_enabled {
            "op"
        } else {
            "op-nochunk"
        }
    }

    fn schedule_batch(
        &mut self,
        batch: Vec<Job>,
        load: &LoadModel<'_>,
        est: &EstimateProvider,
    ) -> BatchSchedule {
        let expanded = self.chunk_phase(batch);
        let mut planner = Planner::new(load, est);
        let mut jobs = Vec::with_capacity(expanded.len());
        for job in expanded {
            let est_secs = est.exec_secs(&job);
            // Line 11–12: burst iff t_ec ≤ slack(J, i). The exact floor
            // `ec_floor ≤ ft_ec` settles most jobs without a download
            // estimate: a floor past the slack is a round trip past it.
            let placement = match planner.slack() {
                Some(slack)
                    if planner.ec_floor(&job, est_secs) <= slack
                        && planner.ft_ec(&job, est_secs) <= slack =>
                {
                    Placement::External
                }
                // No cushion (head of an empty system), or a round trip
                // that would outlast it: run locally.
                _ => Placement::Internal,
            };
            let est_ct = planner.commit(&job, est_secs, placement);
            jobs.push(ScheduledJob { job, placement, est_secs, est_ct });
        }
        BatchSchedule { jobs, sibs: None }
    }
}

#[cfg(test)]
impl OrderPreservingScheduler {
    /// [`BurstScheduler::schedule_batch`] without the `ec_floor`
    /// pre-check: every slack test reads the full `ft_ec`. The oracle the
    /// floored loop is held to.
    pub(crate) fn schedule_batch_floor_free(
        &self,
        batch: Vec<Job>,
        load: &LoadModel<'_>,
        est: &EstimateProvider,
    ) -> BatchSchedule {
        let mut planner = Planner::new(load, est);
        let mut jobs = Vec::new();
        for job in self.chunk_phase(batch) {
            let est_secs = est.exec_secs(&job);
            let placement = match planner.slack() {
                Some(slack) if planner.ft_ec(&job, est_secs) <= slack => Placement::External,
                _ => Placement::Internal,
            };
            let est_ct = planner.commit(&job, est_secs, placement);
            jobs.push(ScheduledJob { job, placement, est_secs, est_ct });
        }
        BatchSchedule { jobs, sibs: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LoadModelBuf;
    use crate::estimates::tests_support::{job_with_id, provider};
    use cloudburst_sim::SimTime;

    fn op() -> OrderPreservingScheduler {
        OrderPreservingScheduler::default()
    }

    #[test]
    fn idle_system_stays_internal() {
        // Empty system: first job has no slack; subsequent jobs have slack
        // equal to a short IC drain that an EC round trip cannot beat.
        let est = provider();
        let batch: Vec<_> = (0..4).map(|i| job_with_id(i, 40)).collect();
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let s = op().schedule_batch(batch, &buf.as_model(), &est);
        assert_eq!(s.n_bursted(), 0);
    }

    #[test]
    fn deep_backlog_creates_slack_and_bursts() {
        // A deep IC backlog gives later jobs a big cushion: their EC round
        // trips fit, so they burst.
        let est = provider();
        let batch: Vec<_> = (0..8).map(|i| job_with_id(i, 60)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 2, 2);
        buf.ic_free_secs = vec![4_000.0, 4_000.0];
        buf.outstanding_est_completions = vec![SimTime::from_secs(4_000)];
        let s = op().schedule_batch(batch, &buf.as_model(), &est);
        assert!(s.n_bursted() > 0, "deep backlog should trigger bursting");
    }

    #[test]
    fn bursted_jobs_satisfy_eq2_under_own_estimates() {
        // Property: for every EC placement, replaying the planner must show
        // t_ec ≤ slack at decision time.
        let est = provider();
        let batch: Vec<_> = (0..10).map(|i| job_with_id(i, 30 + (i % 5) * 50)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 2, 2);
        buf.ic_free_secs = vec![3_000.0, 3_500.0];
        buf.outstanding_est_completions = vec![SimTime::from_secs(3_500)];
        let s = op().schedule_batch(batch.clone(), &buf.as_model(), &est);

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
    fn chunking_splits_large_jobs_in_variable_batches() {
        let est = provider();
        // Small jobs around a 290 MB monster: high window σ.
        let batch =
            vec![job_with_id(0, 5), job_with_id(1, 290), job_with_id(2, 8), job_with_id(3, 6)];
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let s = op().schedule_batch(batch, &buf.as_model(), &est);
        assert!(s.jobs.len() > 4, "the 290 MB job should be chunked");
        let n_chunks = s.jobs.iter().filter(|s| s.job.is_chunk()).count();
        assert_eq!(n_chunks, 4, "ceil(290/80) = 4 chunks");
    }

    #[test]
    fn without_chunking_passes_jobs_through() {
        let est = provider();
        let batch = vec![job_with_id(0, 5), job_with_id(1, 290), job_with_id(2, 8)];
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let mut sched = op().without_chunking();
        assert_eq!(sched.name(), "op-nochunk");
        let s = sched.schedule_batch(batch, &buf.as_model(), &est);
        assert_eq!(s.jobs.len(), 3);
    }
}
