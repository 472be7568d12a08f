//! The Greedy scheduler (Algorithm 1).
//!
//! For each job in batch order, estimate `ft^ic` and `ft^ec` and place the
//! job wherever it is expected to complete earliest. Ties go to the IC
//! (line 4's `t_ic ≤ t_ec`). Simple, but bursted jobs can land on the
//! critical path, making the schedule fragile to estimation errors and
//! bandwidth dips (Sec. IV-D).

use cloudburst_workload::Job;

use crate::api::{BatchSchedule, BurstScheduler, LoadModel, Placement, Planner, ScheduledJob};
use crate::estimates::EstimateProvider;

/// Algorithm 1: job-level earliest-finish-time placement.
#[derive(Clone, Debug, Default)]
pub struct GreedyScheduler;

impl GreedyScheduler {
    /// Creates the scheduler.
    pub fn new() -> GreedyScheduler {
        GreedyScheduler
    }
}

impl BurstScheduler for GreedyScheduler {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn schedule_batch(
        &mut self,
        batch: Vec<Job>,
        load: &LoadModel<'_>,
        est: &EstimateProvider,
    ) -> BatchSchedule {
        let mut planner = Planner::new(load, est);
        let mut jobs = Vec::with_capacity(batch.len());
        for job in batch {
            let est_secs = est.exec_secs(&job);
            let t_ic = planner.ft_ic(est_secs);
            let t_ec = planner.ft_ec(&job, est_secs);
            // Line 4: t_ic ≤ t_ec → IC, else EC.
            let placement = if t_ic <= t_ec { Placement::Internal } else { Placement::External };
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

    #[test]
    fn idle_system_keeps_jobs_internal() {
        // With all machines idle, ft_ic = exec while ft_ec adds transfers:
        // nothing bursts.
        let est = provider();
        let batch: Vec<_> = (0..4).map(|i| job_with_id(i, 60)).collect();
        let buf = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
        let s = GreedyScheduler::new().schedule_batch(batch, &buf.as_model(), &est);
        assert_eq!(s.n_bursted(), 0);
        assert_eq!(s.jobs.len(), 4);
    }

    #[test]
    fn loaded_ic_pushes_overflow_to_ec() {
        // One IC machine with a deep backlog: later jobs finish earlier via
        // the EC round trip.
        let est = provider();
        let batch: Vec<_> = (0..6).map(|i| job_with_id(i, 40)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 1, 2);
        buf.ic_free_secs = vec![20_000.0];
        let s = GreedyScheduler::new().schedule_batch(batch, &buf.as_model(), &est);
        assert_eq!(s.n_bursted(), 6, "everything beats a 20k-second backlog");
    }

    #[test]
    fn placement_is_recursive_not_independent() {
        // With a moderately loaded IC, the first jobs fill the EC pipe until
        // bursting stops paying off — the planner's commits must make later
        // decisions differ from earlier ones.
        let est = provider();
        let batch: Vec<_> = (0..10).map(|i| job_with_id(i, 80)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 2, 1);
        buf.ic_free_secs = vec![1_500.0, 1_500.0];
        let s = GreedyScheduler::new().schedule_batch(batch, &buf.as_model(), &est);
        let placements: Vec<_> = s.jobs.iter().map(|s| s.placement).collect();
        let n_ec = s.n_bursted();
        assert!(n_ec > 0, "some jobs should burst: {placements:?}");
        assert!(n_ec < 10, "not all jobs should burst: {placements:?}");
    }

    #[test]
    fn order_is_preserved() {
        let est = provider();
        let batch: Vec<_> = (0..5).map(|i| job_with_id(i, 30 + i * 10)).collect();
        let ids: Vec<_> = batch.iter().map(|j| j.id).collect();
        let buf = LoadModelBuf::idle(SimTime::ZERO, 2, 1);
        let s = GreedyScheduler::new().schedule_batch(batch, &buf.as_model(), &est);
        let out_ids: Vec<_> = s.jobs.iter().map(|s| s.job.id).collect();
        assert_eq!(ids, out_ids);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(GreedyScheduler::new().name(), "greedy");
    }
}
