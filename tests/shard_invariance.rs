//! `ExperimentConfig::shard_workers` is ignored: a run is single-threaded,
//! and the field stays only so configs and callers that set it still
//! decode and compile. A paper-scale run and a canonical faulty run at
//! `None`, `Some(1)` and `Some(8)` must serialize to the same report.

use cloudburst_repro::chaos::{CrashLaw, FaultProfile, RetryPolicy};
use cloudburst_repro::core::{run_experiment, ExperimentConfig, SchedulerKind};
use cloudburst_repro::workload::{ArrivalConfig, SizeBucket};

/// The chaos scenario from `chaos_golden.rs`: EC crashes, a scripted
/// blackout, payload losses and execution failures under a tight retry
/// budget.
fn faulty_config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 31,
        scheduler: SchedulerKind::OrderPreserving,
        arrivals: ArrivalConfig {
            n_batches: 3,
            jobs_per_batch: 6.0,
            bucket: SizeBucket::Uniform,
            ..ArrivalConfig::default()
        },
        n_ic: 2, // starve the IC so the scheduler actually bursts
        training_docs: 150,
        faults: Some(
            FaultProfile {
                ec_crash: Some(CrashLaw {
                    mean_uptime_secs: 600.0,
                    mean_downtime_secs: 120.0,
                    max_faults_per_machine: 2,
                }),
                transfer_loss_prob: 0.2,
                exec_failure_prob: 0.15,
                retry: RetryPolicy {
                    base_backoff_secs: 5.0,
                    backoff_cap_secs: 30.0,
                    max_transfer_retries: 2,
                    max_exec_retries: 3,
                    timeout_factor: 2.0,
                    min_timeout_secs: 20.0,
                },
                ..FaultProfile::dormant()
            }
            .with_blackout(300.0, 1500.0),
        ),
        ..ExperimentConfig::default()
    }
}

/// Runs `cfg` at `shard_workers` `None`, `Some(1)` and `Some(8)` and
/// requires the same report JSON from each.
fn assert_worker_count_invariant(cfg: &ExperimentConfig, label: &str) {
    let report_at = |workers: Option<usize>| {
        let cfg = ExperimentConfig {
            shard_workers: workers,
            ..cfg.clone()
        };
        serde_json::to_string(&run_experiment(&cfg)).expect("RunReport serializes")
    };
    let reference = report_at(None);
    for workers in [Some(1), Some(8)] {
        assert_eq!(
            report_at(workers),
            reference,
            "{label}: shard_workers {workers:?} changed the report"
        );
    }
}

#[test]
fn paper_run_is_worker_count_invariant() {
    let cfg = ExperimentConfig::paper(SchedulerKind::OrderPreserving, SizeBucket::LargeBiased, 22);
    assert_worker_count_invariant(&cfg, "paper config");
}

#[test]
fn faulty_run_is_worker_count_invariant() {
    assert_worker_count_invariant(&faulty_config(), "faulty config");
}
