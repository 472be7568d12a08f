//! `perfsmoke` — the small-probe line of the perf record.
//!
//! Times the raw event kernel (schedule/fire cascade and schedule/cancel
//! churn, as events per second), a dormant-chaos and a dormant-econ probe
//! (small engine runs with a zero-probability fault profile or a price-free
//! econ section armed, each against its clean twin: a dormant section must
//! cost nothing), the cost-aware broker decision rate, and sustained
//! open-system serving (a 24-virtual-hour stream vs its draw-identical
//! closed-batch twin, plus the per-window live-bytes high-water curve).
//! Every paired probe is timed one way: interleaved best-of-blocks
//! ([`best_of_interleaved`]). Prints one line of JSON, which `perfgate`
//! checks against `BENCH.json`:
//!
//! ```text
//! perfsmoke            print the JSON line to stdout
//! perfsmoke <path>     additionally write it to <path>
//! ```

// Timing wall-clock durations is this binary's whole purpose; the
// disallowed-methods ban on Instant::now targets deterministic library
// code, not the perf harness.
#![allow(clippy::disallowed_methods)]

use std::io::Write as _;
use std::time::Instant;

use cloudburst_chaos::FaultProfile;
use cloudburst_core::config::EcSiteConfig;
use cloudburst_core::{
    run_experiment, EngineHarness, ExperimentConfig, SchedulerKind, ServeConfig, ServeHarness,
};
use cloudburst_econ::{BrokerPolicy, EconConfig, Money, PriceModel};
use cloudburst_sim::{Sim, SimDuration, SimTime};
use cloudburst_sla::WindowConfig;
use cloudburst_testsupport::{high_water_bytes, reset_high_water, CountingAlloc};
use cloudburst_workload::{ArrivalConfig, OpenArrivalConfig, SizeBucket};
use serde_json::json;

// The sustained-serving probe reports per-window live-bytes high-water
// marks, so the whole binary runs under the counting allocator. Its two
// relaxed atomics cost every probe low single-digit percent at most —
// far inside the 5x perfgate headroom — and the `BENCH.json` PR 9 record
// was measured under the same allocator.
#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Self-rescheduling cascade: one live chain, `n` sequential fires — the
/// pure schedule→fire hot path with maximal slot reuse.
fn kernel_cascade(n: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    fn chain(remaining: u64) -> impl FnOnce(&mut u64, &mut Sim<u64>) + 'static {
        move |w, sim| {
            *w += 1;
            if remaining > 0 {
                sim.schedule_in(SimDuration::from_micros(1), chain(remaining - 1));
            }
        }
    }
    sim.schedule_now(chain(n - 1));
    let mut fired = 0u64;
    let t0 = Instant::now();
    sim.run(&mut fired);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(fired, n);
    n as f64 / secs
}

/// Schedule/cancel churn: batches where half the scheduled events are
/// cancelled before firing — the tombstone-free cancellation path.
fn kernel_churn(batches: u64, per_batch: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    let mut ops = 0u64;
    let t0 = Instant::now();
    for b in 0..batches {
        let ids: Vec<_> = (0..per_batch)
            .map(|i| {
                sim.schedule_in(SimDuration::from_micros(1 + (i % 7)), |w: &mut u64, _| *w += 1)
            })
            .collect();
        for id in ids.iter().skip(b as usize % 2).step_by(2) {
            sim.cancel(*id);
        }
        let mut fired = 0u64;
        sim.run(&mut fired);
        ops += per_batch;
    }
    let secs = t0.elapsed().as_secs_f64();
    ops as f64 / secs
}

/// Times two workloads the one way every paired probe here is timed: one
/// untimed warm-up call of each (first-touch pages, lazy init), then
/// `blocks` interleaved blocks of `reps` calls per side, the side that
/// goes first alternating block by block. Returns `(best_a, best_b,
/// a_over_b)`: each side's best block in seconds, for its rate, and the
/// median over block pairs of `a`'s time over `b`'s, for the ratio. A
/// pair runs back to back, so its ratio cancels the host-speed drift that
/// makes a ratio of two bests swing (0.76–1.06 against 0.98–1.02 for the
/// median, dormant econ over 16 runs on a shared 2-core VM).
fn best_of_interleaved(
    blocks: usize,
    reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64, f64) {
    a();
    b();
    let block = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(blocks);
    for i in 0..blocks {
        let (ta, tb) = if i % 2 == 0 {
            let ta = block(&mut a);
            (ta, block(&mut b))
        } else {
            let tb = block(&mut b);
            (block(&mut a), tb)
        };
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
        ratios.push(ta / tb);
    }
    ratios.sort_by(f64::total_cmp);
    (best_a, best_b, ratios[blocks / 2])
}

/// The small paper-testbed run both dormant-section probes time.
fn small_run() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(SchedulerKind::OrderPreserving, SizeBucket::Uniform, 7);
    cfg.arrivals.n_batches = 3;
    cfg.arrivals.jobs_per_batch = 8.0;
    cfg.n_ic = 2;
    cfg.training_docs = 150;
    cfg
}

/// Dormant-chaos overhead: `faults: None` vs a zero-probability profile
/// armed. A dormant profile compiles to an empty plan, so both take the
/// same code path; the gated throughput key catches any cost creeping into
/// the hot loop when no faults are scheduled. Returns
/// `(dormant_runs_per_sec, dormant_over_clean_secs)`.
fn chaos_dormant_probe(reps: usize, blocks: usize) -> (f64, f64) {
    let clean = small_run();
    let dormant = ExperimentConfig { faults: Some(FaultProfile::dormant()), ..small_run() };
    let (_, dormant_secs, clean_over_dormant) = best_of_interleaved(
        blocks,
        reps,
        || {
            run_experiment(&clean);
        },
        || {
            run_experiment(&dormant);
        },
    );
    (reps as f64 / dormant_secs, 1.0 / clean_over_dormant)
}

/// Dormant-econ overhead: `econ: None` vs a dormant `EconConfig` section
/// armed (no prices anywhere). A dormant section never builds `EconState`,
/// so both execute the identical code path (the engine byte-identity test
/// pins the semantic half of that claim); this probe pins the wall-clock
/// half. Returns `(dormant_runs_per_sec, dormant_over_clean_throughput)`.
fn econ_dormant_probe(reps: usize, blocks: usize) -> (f64, f64) {
    let clean = small_run();
    let dormant = ExperimentConfig { econ: Some(EconConfig::default()), ..small_run() };
    let (_, dormant_secs, clean_over_dormant) = best_of_interleaved(
        blocks,
        reps,
        || {
            run_experiment(&clean);
        },
        || {
            run_experiment(&dormant);
        },
    );
    (reps as f64 / dormant_secs, clean_over_dormant)
}

/// Cost-aware broker decision throughput: one armed world with a priced
/// primary site plus three priced extra sites, timed over repeated
/// `broker_site_choice` calls — the per-burst site pick the econ layer
/// adds to the hot path (a bounded scan over sites, never the queue).
fn econ_broker_probe(n: usize) -> f64 {
    let mut cfg = ExperimentConfig::default();
    let site = |rate_cents: u64| EcSiteConfig {
        n_machines: 2,
        speed: 1.0,
        upload_model: cfg.upload_model.clone(),
        download_model: cfg.download_model.clone(),
        price: Some(PriceModel::OnDemand {
            usd_per_machine_hour: Money::from_cents(rate_cents as i64),
            usd_per_gb_transfer: Money::from_cents(9),
        }),
    };
    cfg.extra_ec_sites = vec![site(240), site(180), site(300)];
    cfg.econ = Some(EconConfig {
        primary_price: Some(PriceModel::flat(Money::from_cents(210))),
        broker: BrokerPolicy::CostAware,
        ..EconConfig::default()
    });
    let h = EngineHarness::new(&cfg, Vec::new());
    let mut sink = 0usize;
    let t0 = Instant::now();
    for i in 0..n {
        sink += h.world().broker_site_choice(SimTime::from_secs((i % 3_600) as u64));
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(sink < n * 8, "broker picked an out-of-range site");
    n as f64 / secs
}

/// Sustained open-system serving vs its closed-batch twin over the
/// draw-identical workload (flat envelope, no bursts): a 24-simulated-hour
/// stream on a stable estate, stepped window by window with closed rows
/// drained as they land. Writes the `serve_*` keys into `doc`, among them
/// `serve_mem_curve_*`: the post-warm-up per-window live-bytes high-water
/// marks — the O(live-jobs) memory record `perfgate` holds flat.
fn serve_sustained_probe(doc: &mut serde_json::Map) {
    const EPOCHS: u32 = 720; // 24h of 2-minute epochs
    const WINDOWS: u64 = 12; // 2h windows
    const WARMUP: u64 = 3;
    let mut cfg = ExperimentConfig {
        seed: 97,
        scheduler: SchedulerKind::OrderPreserving,
        ..ExperimentConfig::default()
    };
    // Stable service: fast machines + small-biased jobs keep utilization
    // well under 1, so live jobs (and live bytes) plateau.
    cfg.ic_speed = 4.0;
    cfg.arrivals = ArrivalConfig {
        n_batches: EPOCHS,
        jobs_per_batch: 10.0,
        bucket: SizeBucket::SmallBiased,
        batch_interval: SimDuration::from_secs(120),
        ..ArrivalConfig::default()
    };
    let window = SimDuration::from_secs(7_200);
    cfg.serve = Some(ServeConfig {
        arrivals: OpenArrivalConfig::matching_closed(&cfg.arrivals),
        horizon: cfg.arrivals.batch_interval * EPOCHS as u64,
        window: WindowConfig { window, oo_tolerance: 0 },
    });

    // One serve pass: window-stepped with rows drained as they land,
    // recording the per-window live-bytes high-water curve.
    let serve_pass = |cfg: &ExperimentConfig| {
        let mut h = ServeHarness::new(cfg);
        h.run_until(SimTime::ZERO + window * WARMUP);
        h.world_mut().drain_serve_windows();
        let mut curve = Vec::new();
        for k in WARMUP..WINDOWS {
            reset_high_water();
            h.run_until(SimTime::ZERO + window * (k + 1));
            h.world_mut().drain_serve_windows();
            curve.push((k, high_water_bytes()));
        }
        h.run();
        let (report, _world) = h.finish();
        assert_eq!(report.jobs_completed, report.jobs_admitted, "serve stream must drain");
        (report, curve)
    };

    // Closed-batch twin: same draws, whole-run accumulation. Both streams
    // admit the same jobs, so the throughput ratio is the time ratio.
    let closed_cfg = ExperimentConfig { serve: None, ..cfg.clone() };
    let (mut closed, mut served) = (None, None);
    let (closed_best, serve_best, closed_over_serve) = best_of_interleaved(
        10,
        1,
        || closed = Some(run_experiment(&closed_cfg)),
        || served = Some(serve_pass(&cfg)),
    );
    let closed = closed.expect("the closed twin ran");
    let (report, curve) = served.expect("the serve pass ran");
    assert_eq!(
        report.jobs_admitted as usize, closed.n_jobs,
        "matching_closed stream must admit the closed run's jobs"
    );
    let jobs = report.jobs_completed;
    doc.insert("serve_sustained_jobs_per_sec".into(), json!(jobs as f64 / serve_best));
    doc.insert("serve_closed_jobs_per_sec".into(), json!(closed.n_jobs as f64 / closed_best));
    doc.insert("serve_sustained_over_closed".into(), json!(closed_over_serve));
    doc.insert("serve_jobs".into(), json!(jobs));
    doc.insert("serve_live_high_water_jobs".into(), json!(report.live_high_water));
    for (k, bytes) in &curve {
        doc.insert(format!("serve_mem_curve_w{k:02}_live_bytes"), json!(bytes));
    }
}

fn main() {
    let out_path = std::env::args().nth(1);

    // Warm-up keeps first-touch page faults and lazy init out of the numbers.
    kernel_cascade(10_000);
    let cascade_eps = kernel_cascade(200_000);
    let churn_eps = kernel_churn(100, 1_000);

    let (chaos_dormant_rps, chaos_dormant_ratio) = chaos_dormant_probe(4, 60);
    let (econ_dormant_rps, econ_dormant_over_clean) = econ_dormant_probe(4, 60);
    let econ_broker_dps = econ_broker_probe(2_000_000);

    let mut doc = serde_json::Map::new();
    doc.insert("bench".into(), json!("perfsmoke"));
    doc.insert("kernel_cascade_events_per_sec".into(), json!(cascade_eps));
    doc.insert("kernel_churn_events_per_sec".into(), json!(churn_eps));
    doc.insert("chaos_dormant_runs_per_sec".into(), json!(chaos_dormant_rps));
    doc.insert("chaos_dormant_overhead_ratio".into(), json!(chaos_dormant_ratio));
    doc.insert("econ_dormant_runs_per_sec".into(), json!(econ_dormant_rps));
    doc.insert("econ_dormant_over_clean".into(), json!(econ_dormant_over_clean));
    doc.insert("econ_broker_decisions_per_sec".into(), json!(econ_broker_dps));
    serve_sustained_probe(&mut doc);
    // Host metadata, uniform across the records: the core count, so
    // numbers stay interpretable across machines.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    doc.insert("host_cores".into(), json!(host_cores));

    let line = serde_json::to_string(&serde_json::Value::Object(doc)).expect("serialize");
    println!("{line}");
    if let Some(path) = out_path {
        let mut f = std::fs::File::create(&path).expect("create output file");
        writeln!(f, "{line}").expect("write output file");
    }
}
