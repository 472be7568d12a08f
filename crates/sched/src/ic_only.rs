//! The IC-only baseline: never bursts. Used throughout the evaluation as
//! the reference point (Figs. 6 and 10).

use cloudburst_workload::Job;

use crate::api::{BatchSchedule, BurstScheduler, LoadModel, Placement, Planner, ScheduledJob};
use crate::estimates::EstimateProvider;

/// Baseline scheduler: every job runs in the internal cloud.
#[derive(Clone, Debug, Default)]
pub struct IcOnlyScheduler;

impl IcOnlyScheduler {
    /// Creates the scheduler.
    pub fn new() -> IcOnlyScheduler {
        IcOnlyScheduler
    }
}

impl BurstScheduler for IcOnlyScheduler {
    fn name(&self) -> &'static str {
        "ic-only"
    }

    fn schedule_batch(
        &mut self,
        batch: Vec<Job>,
        load: &LoadModel<'_>,
        est: &EstimateProvider,
    ) -> BatchSchedule {
        // No decision reads the estimate or the plan here, but admission
        // records both: one prediction and one commit per job.
        let mut planner = Planner::new(load, est);
        let jobs = batch
            .into_iter()
            .map(|job| {
                let est_secs = est.exec_secs(&job);
                let est_ct = planner.commit(&job, est_secs, Placement::Internal);
                ScheduledJob { job, placement: Placement::Internal, est_secs, est_ct }
            })
            .collect();
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
    fn never_bursts_even_under_extreme_load() {
        let est = provider();
        let batch: Vec<_> = (0..10).map(|i| job_with_id(i, 200)).collect();
        let mut buf = LoadModelBuf::idle(SimTime::ZERO, 1, 8);
        buf.ic_free_secs = vec![1e9];
        let s = IcOnlyScheduler::new().schedule_batch(batch, &buf.as_model(), &est);
        assert_eq!(s.n_bursted(), 0);
        assert_eq!(s.jobs.len(), 10);
        assert!(s.sibs.is_none());
        assert_eq!(IcOnlyScheduler::new().name(), "ic-only");
    }
}
