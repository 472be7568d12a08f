//! Multi-run drivers: replications of one configuration across seeds, and
//! the aggregation helper the paper's tables are built from.
//!
//! Replications fan out through [`ShardPool::map_ordered_into`], the one
//! thread coordinator of the workspace: each worker runs an independent
//! `(config, seed)` experiment and writes its report into that seed's
//! input slot, so callers always see reports in seed order, byte-identical
//! to a serial loop.

use cloudburst_core::{run_experiment, ExperimentConfig};
use cloudburst_sim::ShardPool;
use cloudburst_sla::RunReport;

/// Runs the same configuration across `seeds` on the auto-sized pool,
/// returning reports in seed order.
pub fn run_replications(base: &ExperimentConfig, seeds: &[u64]) -> Vec<RunReport> {
    let mut out: Vec<Option<RunReport>> = Vec::new();
    ShardPool::new(0).map_ordered_into(seeds, &mut out, |_, &seed| {
        let mut cfg = base.clone();
        cfg.seed = seed;
        Some(run_experiment(&cfg))
    });
    out.into_iter().map(|r| r.expect("the pool fills every slot")).collect()
}

/// Mean of a metric over reports.
pub fn mean_of(reports: &[RunReport], f: impl Fn(&RunReport) -> f64) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::SchedulerKind;
    use cloudburst_workload::{ArrivalConfig, SizeBucket};

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            arrivals: ArrivalConfig {
                n_batches: 2,
                jobs_per_batch: 4.0,
                bucket: SizeBucket::SmallBiased,
                ..ArrivalConfig::default()
            },
            training_docs: 120,
            scheduler: SchedulerKind::Greedy,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn replications_preserve_seed_order_and_determinism() {
        let reports = run_replications(&tiny(), &[11, 12, 11]);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].seed, 11);
        assert_eq!(reports[1].seed, 12);
        assert_eq!(reports[0].makespan_secs, reports[2].makespan_secs, "same seed, same run");
        assert_ne!(reports[0].makespan_secs, reports[1].makespan_secs);
        assert!(run_replications(&tiny(), &[]).is_empty());
    }

    #[test]
    fn replications_are_byte_equal_to_a_serial_loop() {
        // A repeated seed, and no palindrome, so a reversed merge shows.
        let seeds = [11, 12, 11, 13];
        let serialize = |r: &RunReport| serde_json::to_string(r).expect("serialize report");
        let pooled: Vec<String> = run_replications(&tiny(), &seeds).iter().map(serialize).collect();
        let serial: Vec<String> = seeds
            .iter()
            .map(|&seed| {
                let mut cfg = tiny();
                cfg.seed = seed;
                serialize(&run_experiment(&cfg))
            })
            .collect();
        assert_eq!(pooled, serial);
    }

    #[test]
    fn mean_helper() {
        let reports = run_replications(&tiny(), &[1, 2]);
        let m = mean_of(&reports, |r| r.makespan_secs);
        assert!(m > 0.0);
        assert_eq!(mean_of(&[], |r| r.makespan_secs), 0.0);
    }
}
