//! Cross-crate integration tests: structural invariants that must hold for
//! every scheduler on every workload, end to end through the full pipeline.

use cloudburst_repro::core::{run_experiment, ExperimentConfig, SchedulerKind};
use cloudburst_repro::sla::RunReport;
use cloudburst_repro::workload::{ArrivalConfig, SizeBucket};

fn cfg(kind: SchedulerKind, bucket: SizeBucket, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        scheduler: kind,
        arrivals: ArrivalConfig {
            n_batches: 3,
            jobs_per_batch: 8.0,
            bucket,
            ..ArrivalConfig::default()
        },
        training_docs: 150,
        ..ExperimentConfig::default()
    }
}

fn check_invariants(r: &RunReport) {
    let ctx = format!("scheduler={} bucket={} seed={}", r.scheduler, r.bucket, r.seed);
    // Every job completed, once, at a positive time.
    assert_eq!(r.completion_times.len(), r.n_jobs, "{ctx}");
    assert!(r.n_jobs > 0, "{ctx}");
    // Makespan is the max completion.
    let max_ct = r.completion_times.iter().map(|t| t.as_secs_f64()).fold(0.0, f64::max);
    assert!((r.makespan_secs - max_ct).abs() < 1e-6, "{ctx}");
    // Utilizations and ratios are fractions.
    assert!((0.0..=1.0).contains(&r.ic_utilization), "{ctx}: ic={}", r.ic_utilization);
    assert!((0.0..=1.0).contains(&r.ec_utilization), "{ctx}: ec={}", r.ec_utilization);
    assert!((0.0..=1.0).contains(&r.burst_ratio), "{ctx}");
    for b in &r.burst_ratio_per_batch {
        assert!((0.0..=1.0).contains(b), "{ctx}");
    }
    // Speed-up can never exceed the total machine count (10 here).
    assert!(r.speedup > 0.0 && r.speedup <= 10.0 + 1e-9, "{ctx}: speedup={}", r.speedup);
    // Makespan can never beat perfectly parallel execution on all machines.
    assert!(
        r.makespan_secs >= r.sequential_secs / 10.0 * 0.999,
        "{ctx}: makespan {} vs bound {}",
        r.makespan_secs,
        r.sequential_secs / 10.0
    );
    // OO series is monotone non-decreasing, and the horizon extends past
    // the makespan so the final sample has every job ordered (tolerance 0
    // ⇒ eventually everything is in order once all jobs complete).
    for w in r.oo_series.windows(2) {
        assert!(w[1].o_t >= w[0].o_t, "{ctx}: OO series regressed");
    }
    let final_oo = r.final_ordered_bytes();
    assert!(final_oo > 0, "{ctx}: completed run must end with ordered output");
    // Bursted runs move bytes; IC-only runs move none.
    if r.burst_ratio == 0.0 {
        assert_eq!(r.uploaded_bytes, 0, "{ctx}");
        assert_eq!(r.downloaded_bytes, 0, "{ctx}");
    } else {
        assert!(r.uploaded_bytes > 0, "{ctx}");
        assert!(r.downloaded_bytes > 0, "{ctx}");
    }
    // Completion-delay series has one entry per job.
    assert_eq!(r.completion_delays.len(), r.n_jobs, "{ctx}");
}

#[test]
fn invariants_hold_for_every_scheduler_and_bucket() {
    for kind in SchedulerKind::ALL {
        for bucket in SizeBucket::ALL {
            let r = run_experiment(&cfg(kind, bucket, 17));
            check_invariants(&r);
        }
    }
}

#[test]
fn invariants_hold_under_high_network_variation() {
    for kind in [SchedulerKind::Greedy, SchedulerKind::OrderPreserving, SchedulerKind::Sibs] {
        let mut c = cfg(kind, SizeBucket::LargeBiased, 23);
        c.upload_model = cloudburst_repro::net::BandwidthModel::high_variation(23);
        c.download_model = cloudburst_repro::net::BandwidthModel::high_variation(24);
        check_invariants(&run_experiment(&c));
    }
}

#[test]
fn invariants_hold_with_all_extensions_enabled() {
    let mut c = cfg(SchedulerKind::Sibs, SizeBucket::Uniform, 31);
    c.rescheduling = true;
    c.scaling = Some(cloudburst_repro::core::config::ScalingPolicy {
        min_instances: 1,
        max_instances: 2,
        period: cloudburst_repro::sim::SimDuration::from_mins(2),
    });
    c.extra_ec_sites = vec![cloudburst_repro::core::config::EcSiteConfig {
        n_machines: 1,
        speed: 1.0,
        upload_model: cloudburst_repro::net::BandwidthModel::Constant(150_000.0),
        download_model: cloudburst_repro::net::BandwidthModel::Constant(150_000.0),
        price: None,
    }];
    check_invariants(&run_experiment(&c));
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = run_experiment(&cfg(SchedulerKind::Sibs, SizeBucket::LargeBiased, 5));
    let b = run_experiment(&cfg(SchedulerKind::Sibs, SizeBucket::LargeBiased, 5));
    assert_eq!(a.completion_times, b.completion_times);
    assert_eq!(a.makespan_secs, b.makespan_secs);
    assert_eq!(a.burst_ratio_per_batch, b.burst_ratio_per_batch);
    assert_eq!(a.uploaded_bytes, b.uploaded_bytes);
    let c = run_experiment(&cfg(SchedulerKind::Sibs, SizeBucket::LargeBiased, 6));
    assert_ne!(a.completion_times, c.completion_times, "different seed, different run");
}

#[test]
fn tolerance_never_reduces_ordered_availability() {
    let mut last = 0.0;
    for tol in [0u64, 2, 4, 8] {
        let mut c = cfg(SchedulerKind::Greedy, SizeBucket::LargeBiased, 9);
        c.oo.tolerance = tol;
        let r = run_experiment(&c);
        let mean = r.mean_ordered_bytes();
        assert!(
            mean >= last - 1.0,
            "tolerance {tol} reduced mean ordered bytes: {mean} < {last}"
        );
        last = mean;
    }
}

#[test]
fn ic_only_completes_in_queue_dominated_order() {
    // With a single queue and 8 identical machines, IC-only execution
    // starts in FCFS order, so a job can finish at most ~one service time
    // after any later-started job — the delay series must be bounded by the
    // largest single service time.
    let r = run_experiment(&cfg(SchedulerKind::IcOnly, SizeBucket::Uniform, 13));
    let max_service = r.sequential_secs; // loose upper bound on any delay
    for d in &r.completion_delays {
        assert!(*d <= max_service, "delay {d} out of bounds");
    }
}
