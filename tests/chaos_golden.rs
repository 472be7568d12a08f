//! Chaos golden tests: a seeded faulty run must be byte-reproducible —
//! across repeated runs *and* across a serialize → replay round trip of
//! its compiled `FaultPlan` — and the canonical mid-batch EC blackout
//! scenario must complete every job through the recovery path
//! (timeout → backoff retries → IC re-dispatch).

use proptest::prelude::*;

use cloudburst_repro::chaos::{CrashLaw, FaultPlan, FaultProfile, RetryPolicy};
use cloudburst_repro::core::{
    run_experiment, run_experiment_detailed, run_with_plan, ExperimentConfig, SchedulerKind,
};
use cloudburst_repro::core::config::EcSiteConfig;
use cloudburst_repro::econ::{
    AdmissionPolicy, BrokerPolicy, EconConfig, Money, PenaltySchedule, PriceModel,
};
use cloudburst_repro::sim::RngFactory;
use cloudburst_repro::workload::{ArrivalConfig, Batch, BatchArrivals, SizeBucket};

fn small_cfg(kind: SchedulerKind, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        scheduler: kind,
        arrivals: ArrivalConfig {
            n_batches: 3,
            jobs_per_batch: 6.0,
            bucket: SizeBucket::Uniform,
            ..ArrivalConfig::default()
        },
        n_ic: 2, // starve the IC so the schedulers actually burst
        training_docs: 150,
        ..ExperimentConfig::default()
    }
}

/// The full chaos menu: EC crashes, a scripted blackout, payload losses
/// and execution failures, with a tight retry budget so the recovery
/// machinery is exercised end to end.
fn chaotic_profile() -> FaultProfile {
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
    .with_blackout(300.0, 1500.0)
}

fn batches_for(cfg: &ExperimentConfig) -> Vec<Batch> {
    BatchArrivals::new(cfg.arrivals.clone()).generate(&RngFactory::new(cfg.seed), &cfg.truth)
}

#[test]
fn seeded_faulty_run_is_byte_reproducible() {
    let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 31);
    cfg.faults = Some(chaotic_profile());
    let (r1, w1) = run_experiment_detailed(&cfg);
    let (r2, _) = run_experiment_detailed(&cfg);
    let j1 = serde_json::to_string(&r1).expect("report serializes");
    let j2 = serde_json::to_string(&r2).expect("report serializes");
    assert_eq!(j1, j2, "same profile + seed must reproduce the report byte-for-byte");
    assert_eq!(r1.completion_times.len(), r1.n_jobs, "faulty run lost jobs");
    assert!(
        r1.faults.recovery_actions() > 0,
        "the chaotic profile should force recovery work: {:?}",
        r1.faults
    );
    // The timeline record (every per-job stage stamp) must replay too.
    let m1 = w1.fault_metrics().expect("chaos armed").clone();
    assert_eq!(m1, r1.faults);
}

#[test]
fn fault_plan_replay_round_trips_byte_identically() {
    let mut cfg = small_cfg(SchedulerKind::Sibs, 47);
    cfg.faults = Some(chaotic_profile());
    let (r1, w1) = run_experiment_detailed(&cfg);
    let plan_json = w1.fault_plan().expect("chaos armed").to_json();
    let plan = FaultPlan::from_json(&plan_json).expect("plan parses");
    assert_eq!(plan.to_json(), plan_json, "plan JSON must round-trip exactly");
    // Replay from the deserialized plan (the profile is *not* recompiled).
    let (r2, w2) = run_with_plan(&cfg, batches_for(&cfg), Some(plan));
    assert_eq!(
        serde_json::to_string(&r1).expect("serializes"),
        serde_json::to_string(&r2).expect("serializes"),
        "replaying a serialized plan must reproduce the run byte-for-byte"
    );
    assert_eq!(
        format!("{:?}", w1.timelines()),
        format!("{:?}", w2.timelines()),
        "replay must reproduce every per-job stage stamp"
    );
}

#[test]
fn mid_batch_blackout_completes_all_jobs_via_redispatch() {
    // Blackout only: every EC link goes dark from t = 300 s (mid second
    // batch) to t = 2400 s — longer than the whole retry budget of any
    // transfer. In-flight uploads freeze, time out, retry into the same
    // dark window, exhaust the budget and re-dispatch to the IC — Eq. 1
    // slackness owns them again from there.
    let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 23);
    cfg.faults = Some(
        FaultProfile {
            retry: RetryPolicy {
                base_backoff_secs: 5.0,
                backoff_cap_secs: 20.0,
                max_transfer_retries: 1,
                max_exec_retries: 3,
                timeout_factor: 1.0,
                min_timeout_secs: 10.0,
            },
            ..FaultProfile::dormant()
        }
        .with_blackout(300.0, 2400.0),
    );
    let r = run_experiment(&cfg);
    assert_eq!(r.completion_times.len(), r.n_jobs, "blackout run lost jobs");
    assert!(r.faults.transfer_timeouts > 0, "no transfer timed out: {:?}", r.faults);
    assert!(r.faults.transfer_retries > 0, "no retry was attempted: {:?}", r.faults);
    assert!(r.faults.redispatches > 0, "no job was re-dispatched: {:?}", r.faults);
    assert!((r.faults.blackout_secs - 2100.0).abs() < 1e-9, "{:?}", r.faults);

    // Fault attribution against the fault-free twin. Makespan can land a
    // hair *under* the twin's (re-dispatched jobs skip the network round
    // trip entirely), but the blackout must hurt in-order availability:
    // jobs stuck in timeout/retry churn deliver their output late.
    let mut clean = cfg.clone();
    clean.faults = None;
    let base = run_experiment(&clean);
    assert!(base.faults.is_clean());
    let attr = cloudburst_repro::sla::fault_attribution(&r, &base);
    assert!(attr.oo_mean_degradation > 0.0, "blackout left the OO metric unharmed: {attr:?}");
}

/// Golden byte-stability, mirroring `golden_determinism.rs` and the conform
/// golden-workspace test: the canonical chaos scenario (EC crashes + a
/// scripted blackout + losses/exec failures under a tight retry budget)
/// must reproduce the checked-in SLA report *file* byte for byte. Catches
/// cross-commit drift that the run-vs-run tests above cannot see.
///
/// Regenerate after an intentional engine/chaos change with:
/// `CHAOS_GOLDEN_BLESS=1 cargo test --test chaos_golden golden`.
#[test]
fn golden_chaos_report_is_byte_stable() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chaos_scenario.report.json");
    let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 31);
    cfg.faults = Some(chaotic_profile());
    let report = run_experiment(&cfg);
    let fresh = serde_json::to_string(&report).expect("report serializes");
    if std::env::var_os("CHAOS_GOLDEN_BLESS").is_some() {
        std::fs::write(path, format!("{fresh}\n")).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden fixture exists (bless to create)");
    assert_eq!(
        fresh,
        golden.trim_end(),
        "chaos scenario report drifted from {path}; if intentional, re-bless"
    );
}

/// The multi-site rescheduling scenario: a starved-IC SIBS run with the
/// Sec. IV-D pull-back/push-out extension on, two extra priced EC sites
/// under the cost-aware broker, and the full chaos menu. It covers what
/// the single-site golden above cannot: several sites' upload, execution
/// and download wakes interleaving with pull-back and push-out decisions.
fn resched_multisite_cfg() -> ExperimentConfig {
    let mut cfg = small_cfg(SchedulerKind::Sibs, 27);
    cfg.rescheduling = true;
    let site = |cents_per_hour: i64| EcSiteConfig {
        n_machines: 2,
        speed: 1.0,
        upload_model: cfg.upload_model.clone(),
        download_model: cfg.download_model.clone(),
        price: Some(PriceModel::OnDemand {
            usd_per_machine_hour: Money::from_cents(cents_per_hour),
            usd_per_gb_transfer: Money::from_cents(9),
        }),
    };
    cfg.extra_ec_sites = vec![site(180), site(300)];
    cfg.econ = Some(EconConfig {
        primary_price: Some(PriceModel::OnDemand {
            usd_per_machine_hour: Money::from_cents(240),
            usd_per_gb_transfer: Money::from_cents(9),
        }),
        penalty: PenaltySchedule::PerHourLate { usd_per_hour: Money::from_cents(60) },
        admission: AdmissionPolicy::AdmitAll,
        broker: BrokerPolicy::CostAware,
    });
    cfg.faults = Some(chaotic_profile());
    cfg
}

/// Cross-commit golden for [`resched_multisite_cfg`], blessed like the
/// single-site fixture above:
/// `CHAOS_GOLDEN_BLESS=1 cargo test --test chaos_golden golden`.
#[test]
fn golden_resched_multisite_report_is_byte_stable() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/resched_multisite.report.json");
    let (report, world) = run_experiment_detailed(&resched_multisite_cfg());
    // Pin the premise: the fixture exercises pull-back, push-out and
    // every site, under faults.
    assert!(world.pull_backs() > 0, "scenario never pulled a job back");
    assert!(world.push_outs() > 0, "scenario never pushed a job out");
    assert!(
        (0..3).all(|s| world.ec_cloud(s).completed() > 0),
        "scenario should run bursts on every site"
    );
    assert!(report.faults.recovery_actions() > 0, "{:?}", report.faults);
    let fresh = serde_json::to_string(&report).expect("report serializes");
    if std::env::var_os("CHAOS_GOLDEN_BLESS").is_some() {
        std::fs::write(path, format!("{fresh}\n")).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden fixture exists (bless to create)");
    assert_eq!(
        fresh,
        golden.trim_end(),
        "multi-site rescheduling report drifted from {path}; if intentional, re-bless"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite guard: a dormant profile (or an explicit zero-probability
    /// one) must leave the run byte-identical to `faults: None` — reports
    /// *and* per-job timelines — across all three burst schedulers.
    #[test]
    fn dormant_profile_is_byte_equivalent_to_no_faults(
        seed in 1u64..500,
        kind_idx in 0usize..3,
        n_ic in 2usize..6,
        rescheduling in any::<bool>(),
    ) {
        let kind = [SchedulerKind::Greedy, SchedulerKind::OrderPreserving, SchedulerKind::Sibs]
            [kind_idx];
        let mut clean = small_cfg(kind, seed);
        clean.n_ic = n_ic;
        clean.rescheduling = rescheduling;
        let mut dormant = clean.clone();
        dormant.faults = Some(FaultProfile::dormant());
        let (r1, w1) = run_experiment_detailed(&clean);
        let (r2, w2) = run_experiment_detailed(&dormant);
        prop_assert_eq!(
            serde_json::to_string(&r1).expect("serializes"),
            serde_json::to_string(&r2).expect("serializes"),
            "dormant chaos perturbed the report ({:?}, seed {})", kind, seed
        );
        prop_assert_eq!(
            format!("{:?}", w1.timelines()),
            format!("{:?}", w2.timelines()),
            "dormant chaos perturbed the event timeline ({:?}, seed {})", kind, seed
        );
        prop_assert!(r2.faults.is_clean());
    }
}
