//! Order-Preserving scheduling with Size-Interval Bandwidth Splitting
//! (Algorithm 3 layered on Algorithm 2).
//!
//! Placements are exactly the Order-Preserving scheduler's; additionally
//! the batch's burst candidates are analysed per Algorithm 3 to produce the
//! size-interval bounds `(s_bound, m_bound)` that the engine uses to route
//! uploads through the small/medium/large queues. Isolating small uploads
//! from large ones raises the EC arrival rate and hence EC utilization
//! (Sec. V-B-4: EC 44 % → ~58 % on the large bucket).

use cloudburst_net::queues::SibsCandidate;
use cloudburst_net::sibs_bounds;
use cloudburst_workload::Job;

use crate::api::{initial_upload_backlog_secs, BatchSchedule, BurstScheduler, LoadModel};
use crate::estimates::EstimateProvider;
use crate::order_preserving::OrderPreservingScheduler;

/// Algorithm 3: Op placements plus size-interval upload bounds.
#[derive(Clone, Debug, Default)]
pub struct SibsScheduler {
    inner: OrderPreservingScheduler,
    /// Bytes currently queued in the (small, medium, large) upload queues —
    /// refreshed by the engine before each batch via
    /// [`SibsScheduler::set_queued_bytes`].
    queued_bytes: (u64, u64, u64),
}

impl SibsScheduler {
    /// Wraps an Order-Preserving scheduler.
    pub fn new(inner: OrderPreservingScheduler) -> SibsScheduler {
        SibsScheduler { inner, queued_bytes: (0, 0, 0) }
    }

    /// Engine hook: the current `s_up/m_up/l_up` byte backlogs (Algorithm 3
    /// inputs).
    pub fn set_queued_bytes(&mut self, queued: (u64, u64, u64)) {
        self.queued_bytes = queued;
    }
}

impl BurstScheduler for SibsScheduler {
    fn name(&self) -> &'static str {
        "op+sibs"
    }

    fn set_upload_queue_state(&mut self, queued: (u64, u64, u64)) {
        self.set_queued_bytes(queued);
    }

    fn schedule_batch(
        &mut self,
        batch: Vec<Job>,
        load: &LoadModel<'_>,
        est: &EstimateProvider,
    ) -> BatchSchedule {
        let mut schedule = self.inner.schedule_batch(batch, load, est);
        // Algorithm 3 on the (chunk-expanded) batch: estimates under no
        // contention (a fresh plan's round trips: the snapshot's instant,
        // upload rate and backlog), IC initial load and processor count
        // from the snapshot.
        let upload_rate = est.upload_rate(load.now);
        let backlog_secs = initial_upload_backlog_secs(load, upload_rate);
        let candidates: Vec<SibsCandidate> = schedule
            .jobs
            .iter()
            .map(|s| {
                let (_wait, up, exec, down) = est.round_trip_parts_at_rate(
                    load.now,
                    &s.job,
                    s.est_secs,
                    backlog_secs,
                    upload_rate,
                );
                SibsCandidate {
                    size: s.job.input_bytes(),
                    t_up: up,
                    e_ec: exec,
                    t_down: down,
                    e_ic: s.est_secs / est.ic_speed,
                }
            })
            .collect();
        schedule.sibs = sibs_bounds(
            &candidates,
            load.ic_initial_load_secs(),
            load.ic_free_secs.len().max(1),
            self.queued_bytes,
        );
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{LoadModelBuf, Placement};
    use crate::estimates::tests_support::{job_with_id, provider};
    use cloudburst_net::SizeClass;
    use cloudburst_sim::SimTime;

    fn loaded_model() -> LoadModelBuf {
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 4, 2);
        buf.ic_free_secs = vec![4_000.0; 4];
        buf.outstanding_est_completions = vec![SimTime::from_secs(4_000)];
        buf
    }

    #[test]
    fn placements_match_op() {
        let est = provider();
        let batch: Vec<_> = (0..8).map(|i| job_with_id(i, 20 + (i % 4) * 60)).collect();
        let load = loaded_model();
        let mut sibs = SibsScheduler::default();
        let mut op = crate::order_preserving::OrderPreservingScheduler::default();
        let a = sibs.schedule_batch(batch.clone(), &load.as_model(), &est);
        let b = op.schedule_batch(batch, &load.as_model(), &est);
        let pa: Vec<Placement> = a.jobs.iter().map(|s| s.placement).collect();
        let pb: Vec<Placement> = b.jobs.iter().map(|s| s.placement).collect();
        assert_eq!(pa, pb, "SIBS must not change placements, only routing");
    }

    #[test]
    fn bounds_appear_when_jobs_qualify() {
        let est = provider();
        let batch: Vec<_> = (0..9).map(|i| job_with_id(i, 10 + i * 30)).collect();
        let load = loaded_model();
        let mut sibs = SibsScheduler::default();
        let s = sibs.schedule_batch(batch, &load.as_model(), &est);
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
    fn no_candidates_no_bounds() {
        let est = provider();
        let batch: Vec<_> = (0..3).map(|i| job_with_id(i, 30)).collect();
        // Idle system: EC completion never beats an empty IC → no candidates.
        let load = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let mut sibs = SibsScheduler::default();
        let s = sibs.schedule_batch(batch, &load.as_model(), &est);
        assert!(s.sibs.is_none(), "defaults to a single interval");
        assert_eq!(sibs.name(), "op+sibs");
    }

    #[test]
    fn queued_bytes_shift_bounds() {
        let est = provider();
        let batch: Vec<_> = (0..9).map(|i| job_with_id(i, 10 + i * 30)).collect();
        let load = loaded_model();
        let mut balanced = SibsScheduler::default();
        let b1 = balanced.schedule_batch(batch.clone(), &load.as_model(), &est).sibs.unwrap();
        let mut stuffed = SibsScheduler::default();
        stuffed.set_queued_bytes((500_000_000, 0, 0));
        let b2 = stuffed.schedule_batch(batch, &load.as_model(), &est).sibs.unwrap();
        assert!(b2.s_bound <= b1.s_bound, "a full small queue shrinks its share");
    }
}
