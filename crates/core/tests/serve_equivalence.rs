//! Closed-batch vs open-serving equivalence golden (ISSUE 9, satellite 3).
//!
//! With a flat envelope, no bursts and no fault profile, an open serving
//! session over `OpenArrivalConfig::matching_closed(..)` must realize the
//! *same physical run* as closed-batch mode: identical jobs at identical
//! instants on identical machines. Job ids are recycled in serve mode, so
//! the comparison goes through order- and id-insensitive invariants plus a
//! windowed oracle: the closed run's per-job admission/completion stream,
//! replayed through a fresh [`WindowSeries`], must reproduce the serving
//! engine's per-window rows byte for byte (via their JSON encoding).
//!
//! Chaos stays OFF here by design: the fault plan hashes per-attempt
//! decisions off the job id, so id recycling legitimately changes fault
//! realization — equivalence is a fault-free claim.

use cloudburst_core::{
    run_experiment_detailed, serve_experiment_detailed, ExperimentConfig, SchedulerKind,
    ServeConfig,
};
use cloudburst_sim::{SimDuration, SimTime};
use cloudburst_sla::{FaultMetrics, WindowConfig, WindowSeries};
use cloudburst_workload::{ArrivalConfig, OpenArrivalConfig, SizeBucket};

/// A closed config plus the serve section that streams the identical
/// workload: same epoch spacing, rate and bucket, horizon = exactly the
/// closed batch count.
fn paired_cfg(kind: SchedulerKind, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        seed,
        scheduler: kind,
        arrivals: ArrivalConfig {
            n_batches: 6,
            jobs_per_batch: 5.0,
            bucket: SizeBucket::SmallBiased,
            ..ArrivalConfig::default()
        },
        training_docs: 150,
        ..ExperimentConfig::default()
    };
    cfg.serve = Some(ServeConfig {
        arrivals: OpenArrivalConfig::matching_closed(&cfg.arrivals),
        horizon: cfg.arrivals.batch_interval * cfg.arrivals.n_batches as u64,
        // Deliberately not a multiple of the 3-minute epoch, so window
        // boundaries fall inside epochs as well as between them.
        window: WindowConfig { window: SimDuration::from_secs(300), oo_tolerance: 0 },
    });
    cfg
}

#[test]
fn open_stream_replays_the_closed_run() {
    for (kind, seed) in
        [(SchedulerKind::OrderPreserving, 11), (SchedulerKind::Greedy, 12), (SchedulerKind::Sibs, 13)]
    {
        let cfg = paired_cfg(kind, seed);
        let (closed, closed_world) = run_experiment_detailed(&cfg);
        let (serve, serve_world) = serve_experiment_detailed(&cfg);

        // Same job population, fully drained.
        assert_eq!(serve.jobs_admitted as usize, closed.n_jobs, "seed {seed}");
        assert_eq!(serve.jobs_completed as usize, closed.n_jobs, "seed {seed}");
        assert_eq!(serve_world.serve_live_jobs(), 0);
        assert!(serve.faults.is_clean(), "no chaos armed, no fault realized");

        // Same delivered bytes (sum over the closed run's per-job ledger).
        let total_bytes: u64 =
            (0..closed.n_jobs as u64).map(|i| closed_world.job_output_bytes(i)).sum();
        assert_eq!(serve.output_bytes, total_bytes, "seed {seed}");

        // Windowed oracle: replay the closed run's stream. Closed-mode ids
        // are dense in admission order, so id == admission seq.
        let tls = closed_world.timelines();
        assert_eq!(tls.len(), closed.n_jobs);
        // (time, kind, id): kind orders same-instant admissions before
        // nothing in particular — completion/admission collisions would
        // need a service time landing on an exact epoch multiple, which the
        // continuous noise law makes a measure-zero event.
        let mut events: Vec<(SimTime, u8, u64)> = Vec::new();
        for tl in tls.iter() {
            events.push((tl.arrival, 0, tl.id));
            events.push((tl.completed.get().expect("closed run drains"), 1, tl.id));
        }
        events.sort();
        let serve_cfg = cfg.serve.clone().expect("paired config has a serve section");
        let mut oracle = WindowSeries::new(serve_cfg.window);
        let clean = FaultMetrics::default();
        for (t, kind, id) in events {
            match kind {
                0 => oracle.on_admit(id, t),
                _ => {
                    let tl = tls.get(id as usize).expect("admitted job");
                    let turnaround = (t - tl.arrival).as_secs_f64();
                    let met = t <= closed.tickets[id as usize].promised;
                    oracle.on_complete(id, t, closed_world.job_output_bytes(id), turnaround, Some(met));
                }
            }
        }
        let end = SimTime::from_secs_f64(serve.drained_at_secs);
        oracle.finish(end + serve_cfg.window.window, &clean);
        let oracle_rows = oracle.drain_closed();

        assert_eq!(serve.windows.len(), oracle_rows.len(), "seed {seed}");
        for (got, want) in serve.windows.iter().zip(&oracle_rows) {
            assert_eq!(
                serde_json::to_string(got).expect("row"),
                serde_json::to_string(want).expect("row"),
                "seed {seed} window {} diverged from the closed-run oracle",
                want.index,
            );
        }
    }
}

#[test]
fn serve_mode_leaves_closed_mode_bytes_untouched() {
    // The same config run closed must not see the serve section at all:
    // reports with and without it are byte-identical.
    let with = paired_cfg(SchedulerKind::OrderPreserving, 21);
    let mut without = with.clone();
    without.serve = None;
    let (a, _) = run_experiment_detailed(&with);
    let (b, _) = run_experiment_detailed(&without);
    assert_eq!(
        serde_json::to_string(&a).expect("report"),
        serde_json::to_string(&b).expect("report"),
        "closed-batch mode must ignore the serve section byte-for-byte"
    );
}
