//! `perfprobe` — the perf record's probes, timed and gated in one process.
//!
//! ```text
//! perfprobe                    CI run: small probes, then reduced-scale probes; gated
//! perfprobe --full             small probes, then full-scale probes (re-recording); gated
//! perfprobe --e2e <jobs>       one order-preserving end-to-end run
//! perfprobe --serve-scale <jobs> [speed] [rate]   one serve-scale run
//! ```
//!
//! The gated modes print one JSON line on stdout (progress and checks go
//! to stderr) and check it against `BENCH.json`, compiled in. The probes,
//! in order:
//!
//! * **Kernel** — the raw event kernel: schedule/fire cascade and
//!   schedule/cancel churn, as events per second.
//! * **Dormant sections** — small engine runs with a zero-probability
//!   fault profile or a price-free econ section armed, each against its
//!   clean twin: a dormant section must cost nothing.
//! * **Broker** — the cost-aware broker's decision rate.
//! * **Sustained serving** — a 24-virtual-hour stream against its
//!   draw-identical closed-batch twin, plus the per-window live-bytes
//!   high-water curve.
//! * **Decision loop** — an [`EngineHarness`] advanced to a mid-run state
//!   with every batch admitted (tens of thousands of queued jobs), then
//!   `load_snapshot` timed in place. Before it is timed, the hybrid drain
//!   is spot-checked bitwise against an independent full-rescan replica of
//!   its semantics at every probed scale.
//! * **Depth curve** — `decision_curve_<depth>_*`: full decision sweeps
//!   (load-model refresh + rescheduling evaluation) timed at queue depths
//!   from ≈ 50k to ≈ 2M.
//! * **End to end** — full `run_with_batches` runs of the megascale
//!   workload (batches of ≈ 10 000 jobs, 64 + 64 machines) for the greedy,
//!   order-preserving and SIBS schedulers, as jobs per second.
//! * **Serve scale** — `serve_scale_*`: a stable open-system stream (10M
//!   jobs full, 150k reduced, utilization-matched) stepped window by
//!   window: sustained jobs/s, the live-jobs high-water mark and the
//!   first/last post-warm-up window live-bytes high-water pair.
//!
//! Every paired probe is timed one way: interleaved best-of-blocks
//! ([`best_of_interleaved`]). Each probe's state is dropped before the
//! next one runs. Generic (unsuffixed) scale keys always describe the
//! primary scale — 100k jobs full, 20k reduced — so a reduced CI line
//! carries the key set the full-run records do.
//!
//! `BENCH.json` is the append-only perf record: one `{"pr":N,"record":{…}}`
//! line per recorded probe run, in PR order, each record carried verbatim
//! as it was measured. Every row of [`RULES`] is checked once:
//!
//! * **floors** — every throughput key (`*_per_sec`) the fresh line
//!   shares with the records must reach the largest recorded value ÷ 5.
//!   The 5× headroom makes the floor a regression tripwire (a return to a
//!   linear or allocating path shows up as 10–100×), not a flake on a
//!   busy host. A retired probe hands its recorded values to the successor
//!   key [`RETIRED`] names, so retiring it loosens nothing. Every floor the
//!   fresh line does not carry is printed: a [`FULL_ONLY`] key is skipped
//!   on a reduced line, and any other missing floor fails the gate — a
//!   probe that stops emitting a key cannot drop its floor silently.
//! * **fresh-line rules** — invariants of the run itself, read from the
//!   fresh line only (a baseline measured on other hardware would add
//!   noise, not teeth): the decisions/s-vs-depth curve stays flat, the
//!   serving live-bytes curves end within 1.5× of where they started, open
//!   serving holds ≥ 0.9× its closed-batch twin and a dormant econ
//!   section ≥ 0.95× the econ-free run. A rule whose keys the line does
//!   not carry is not armed.
//!
//! Exits non-zero if any check fails, or if the fresh line shares no
//! floor key with the records (a silently toothless gate is itself a
//! failure).

// Timing wall-clock durations is this binary's whole purpose; the
// disallowed-methods ban on Instant::now targets deterministic library
// code, not the perf harness.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use cloudburst_chaos::FaultProfile;
use cloudburst_cluster::Cloud;
use cloudburst_core::config::EcSiteConfig;
use cloudburst_core::engine::run_with_batches;
use cloudburst_core::{
    run_experiment, EngineHarness, ExperimentConfig, SchedulerKind, ServeConfig, ServeHarness,
};
use cloudburst_econ::{BrokerPolicy, EconConfig, Money, PriceModel};
use cloudburst_sched::{fluid_fill_level, DRAIN_WINDOW};
use cloudburst_sim::{RngFactory, Sim, SimDuration, SimTime};
use cloudburst_sla::{ServeReport, WindowConfig};
use cloudburst_testsupport::{high_water_bytes, reset_high_water, CountingAlloc};
use cloudburst_workload::{ArrivalConfig, BatchArrivals, JobId, OpenArrivalConfig, SizeBucket};
use serde_json::{json, Map, Value};
use Kind::{AtLeast, Dropped, Floor, FullOnly, LastOverFirst, MaxOverMin};

// The serving probes report per-window live-bytes high-water marks, so
// the whole binary runs under the counting allocator. Its two relaxed
// atomics cost every probe low single-digit percent at most — far inside
// the 5x floor headroom — and every `BENCH.json` record since PR 9 was
// measured under the same allocator.
#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The append-only perf record every gated line is checked against.
const BENCH: &str = include_str!("../../../../BENCH.json");

// ---------------------------------------------------------------------------
// Small probes
// ---------------------------------------------------------------------------

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

/// One serving run stepped window by window with closed rows drained as
/// they land: `warmup` windows unmeasured, then the live-bytes high-water
/// mark of each later window up to `windows`, as `(window, bytes)`. Runs
/// the stream to its end and checks that it drained.
fn serve_windows(
    cfg: &ExperimentConfig,
    window: SimDuration,
    warmup: u64,
    windows: u64,
) -> (ServeReport, Vec<(u64, usize)>) {
    let mut h = ServeHarness::new(cfg);
    h.run_until(SimTime::ZERO + window * warmup);
    h.world_mut().drain_serve_windows();
    let mut curve = Vec::with_capacity((windows - warmup) as usize);
    for k in warmup..windows {
        reset_high_water();
        h.run_until(SimTime::ZERO + window * (k + 1));
        h.world_mut().drain_serve_windows();
        curve.push((k, high_water_bytes()));
    }
    h.run();
    let (report, _world) = h.finish();
    assert_eq!(report.jobs_completed, report.jobs_admitted, "serve stream must drain");
    (report, curve)
}

/// Sustained open-system serving vs its closed-batch twin over the
/// draw-identical workload (flat envelope, no bursts): a 24-simulated-hour
/// stream on a stable estate, timed through [`serve_windows`]. Writes the
/// `serve_*` keys into `doc`, among them `serve_mem_curve_*`: the
/// post-warm-up per-window live-bytes high-water marks — the O(live-jobs)
/// memory record the gate holds flat.
fn serve_sustained_probe(doc: &mut Map) {
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

    // Closed-batch twin: same draws, whole-run accumulation. Both streams
    // admit the same jobs, so the throughput ratio is the time ratio.
    let closed_cfg = ExperimentConfig { serve: None, ..cfg.clone() };
    let (mut closed, mut served) = (None, None);
    let (closed_best, serve_best, closed_over_serve) = best_of_interleaved(
        10,
        1,
        || closed = Some(run_experiment(&closed_cfg)),
        || served = Some(serve_windows(&cfg, window, WARMUP, WINDOWS)),
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

// ---------------------------------------------------------------------------
// Scale probes
// ---------------------------------------------------------------------------

/// Mirror of the engine's dead-machine free-time sentinel. The probes run
/// fault-free, so no entry ever reaches it — the filter below is kept only
/// so the replica states the full production semantics.
const DEAD_FREE_SECS: f64 = 1_000_000_000.0;

/// Independent full-rescan replica of the engine's *hybrid* drain
/// semantics: fluid water-fill of the first `queue − DRAIN_WINDOW` jobs'
/// maintained tick cost onto the live bases, then a linear `min_by`
/// replay of the exact tail window. Release-mode counterpart of the
/// engine's `#[cfg(test)]` oracle, so every probed scale re-proves the
/// production drain bitwise before it is timed.
fn hybrid_est_free_secs(
    est_exec: &[f64],
    cloud: &Cloud<JobId>,
    speed: f64,
    now: SimTime,
) -> Vec<f64> {
    let mut free = vec![0.0; cloud.n_machines()];
    for (key, machine, started) in cloud.running_detail() {
        let est = est_exec[key.0 as usize];
        let elapsed_std = (now - started).as_secs_f64() * speed;
        free[machine.0] = (est - elapsed_std).max(0.0) / speed;
    }
    let q = cloud.queued();
    let mut tail_start = 0;
    if q > DRAIN_WINDOW && free.iter().any(|v| *v < DEAD_FREE_SECS) {
        tail_start = q - DRAIN_WINDOW;
        let prefix_ticks: u64 = cloud.queued_detail().take(tail_start).map(|(_, t)| t).sum();
        let prefix_secs = SimDuration::from_micros(prefix_ticks).as_secs_f64();
        let mut bases: Vec<f64> = free.iter().copied().filter(|v| *v < DEAD_FREE_SECS).collect();
        bases.sort_unstable_by(f64::total_cmp);
        let level = fluid_fill_level(&bases, prefix_secs);
        for v in free.iter_mut() {
            if *v < DEAD_FREE_SECS && *v < level {
                *v = level;
            }
        }
    }
    for (key, _) in cloud.queued_detail().skip(tail_start) {
        let est = est_exec[key.0 as usize];
        let (idx, _) = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("machines exist");
        free[idx] += est / speed;
    }
    free
}

/// Builds the harness for `cfg` and advances it to the instant after the
/// last batch arrival — the deepest queue state of the run.
fn mid_run_harness(cfg: ExperimentConfig) -> (EngineHarness, SimTime) {
    let rngs = RngFactory::new(cfg.seed);
    let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
    let last_arrival = batches.last().expect("at least one batch").arrival;
    let mut h = EngineHarness::new(&cfg, batches);
    h.run_until(last_arrival + SimDuration::from_secs(1));
    let now = h.now();
    (h, now)
}

/// Decision-loop probe at one scale: (decisions/s, queued jobs at the
/// probed instant).
fn decision_probe(total_jobs: u64, iters: usize) -> (f64, usize) {
    let cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, total_jobs, 71);
    let (mut h, now) = mid_run_harness(cfg);
    let w = h.world_mut();
    let queued = w.ic_cloud().queued();
    assert!(queued > 0, "mid-run probe state must have a backlog");

    // Spot-check: the hybrid drain agrees bitwise with the independent
    // full-rescan replica of its semantics over the megascale queue, IC
    // and EC.
    let speed = w.config().ic_speed;
    let ec_speed = w.config().ec_speed;
    let got_ic = w.load_snapshot(now).ic_free_secs.to_vec();
    let got_ec = w.load_snapshot(now).ec_free_secs.to_vec();
    let want_ic = hybrid_est_free_secs(w.est_exec_estimates(), w.ic_cloud(), speed, now);
    let want_ec = hybrid_est_free_secs(w.est_exec_estimates(), w.ec_cloud(0), ec_speed, now);
    assert_eq!(got_ic, want_ic, "hybrid IC drain diverged from the rescan replica at scale");
    assert_eq!(got_ec, want_ec, "hybrid EC drain diverged from the rescan replica at scale");

    // Warm, then time the indexed path.
    w.decision_sweep(now);
    let t0 = Instant::now();
    for _ in 0..iters {
        let load = w.load_snapshot(now);
        assert!(!load.ic_free_secs.is_empty());
    }
    (iters as f64 / t0.elapsed().as_secs_f64(), queued)
}

/// Depth-curve probe: full decision sweeps (load-model refresh plus
/// pull-back/push-out evaluation, rescheduling on) timed at one queue
/// depth. Returns (decisions/s, queued jobs at the probed instant). Each
/// depth first re-proves the hybrid drain bitwise against the rescan
/// replica, so the curve only ever times verified decisions.
fn curve_probe(total_jobs: u64, iters: usize) -> (f64, usize) {
    let mut cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, total_jobs, 71);
    cfg.rescheduling = true;
    let (mut h, now) = mid_run_harness(cfg);
    let w = h.world_mut();
    let queued = w.ic_cloud().queued();
    assert!(queued > 0, "curve probe state must have a backlog");

    let speed = w.config().ic_speed;
    let got_ic = w.load_snapshot(now).ic_free_secs.to_vec();
    let want_ic = hybrid_est_free_secs(w.est_exec_estimates(), w.ic_cloud(), speed, now);
    assert_eq!(got_ic, want_ic, "hybrid IC drain diverged from the rescan replica on the curve");

    // Warm to the sweep's fixed point (the first sweeps may move a job
    // via push-out; the backlog dwarfs any handful of moves).
    let mut moves = (w.pull_backs(), w.push_outs());
    for _ in 0..32 {
        w.decision_sweep(now);
        let after = (w.pull_backs(), w.push_outs());
        if after == moves {
            break;
        }
        moves = after;
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        w.decision_sweep(now);
    }
    (iters as f64 / t0.elapsed().as_secs_f64(), queued)
}

/// End-to-end probe: a full megascale run, reported as jobs per second of
/// wall clock (workload generation excluded). The QRSM training fit is
/// memoised per training key and thread, so only the first run of a key
/// on a thread pays for it.
fn e2e_probe(kind: SchedulerKind, total_jobs: u64, seed: u64) -> (f64, usize) {
    let cfg = ExperimentConfig::megascale(kind, total_jobs, seed);
    let rngs = RngFactory::new(cfg.seed);
    let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
    let t0 = Instant::now();
    let (report, _world) = run_with_batches(&cfg, batches);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.completion_times.len(), report.n_jobs, "megascale run must complete");
    (report.n_jobs as f64 / secs, report.n_jobs)
}

/// Open-stream megascale probe: a *stable* sustained stream of
/// ≈ `total_jobs` jobs against the megascale estate, timed through
/// [`serve_windows`]. Machine speed is scaled with the offered rate so
/// utilization stays ≈ 0.5 — comfortably stable, because the point is
/// sustained serving, not backlog growth (near critical load the IC
/// backlog spills into EC bursts that crawl behind the WAN pipe and live
/// state grows for the whole horizon). Writes the `serve_scale_*` keys
/// into `doc`; the first and last post-warm-up window high-water marks
/// are the memory-flatness record the gate compares.
fn serve_scale_probe(doc: &mut Map, total_jobs: u64, ic_speed: f64, jobs_per_epoch: f64) {
    const WINDOWS: u64 = 16;
    const WARMUP: u64 = 3;
    let epoch = SimDuration::from_secs(180);
    let epochs = ((total_jobs as f64 / jobs_per_epoch).ceil() as u64).max(1);
    let mut cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, total_jobs, 71);
    cfg.ic_speed = ic_speed;
    cfg.ec_speed = ic_speed;
    let horizon = epoch * epochs;
    let window = SimDuration::from_secs_f64(horizon.as_secs_f64() / WINDOWS as f64);
    cfg.serve = Some(ServeConfig {
        arrivals: OpenArrivalConfig {
            epoch,
            jobs_per_epoch,
            bucket: cfg.arrivals.bucket,
            envelope: cloudburst_workload::RateEnvelope::Flat,
            burst: None,
        },
        horizon,
        window: WindowConfig { window, oo_tolerance: 0 },
    });

    let t0 = Instant::now();
    let (report, curve) = serve_windows(&cfg, window, WARMUP, WINDOWS);
    let jps = report.jobs_completed as f64 / t0.elapsed().as_secs_f64();
    doc.insert("serve_scale_jobs_per_sec".into(), json!(jps));
    doc.insert("serve_scale_jobs".into(), json!(report.jobs_completed));
    doc.insert("serve_scale_live_bytes_first_window".into(), json!(curve[0].1));
    doc.insert("serve_scale_live_bytes_last_window".into(), json!(curve[curve.len() - 1].1));
    doc.insert("serve_scale_live_high_water_jobs".into(), json!(report.live_high_water));
}

const SCHEDULERS: [(SchedulerKind, &str); 3] = [
    (SchedulerKind::Greedy, "greedy"),
    (SchedulerKind::OrderPreserving, "op"),
    (SchedulerKind::Sibs, "op_sibs"),
];

/// Stage progress on stderr (stdout carries only the JSON line).
fn stage(t0: Instant, what: &str) {
    eprintln!("[perfprobe {:7.1}s] {what}", t0.elapsed().as_secs_f64());
}

/// Every probe, in record order: the small set, then the scale set at
/// full or reduced (CI) size.
fn probe_line(full: bool) -> Map {
    let t0 = Instant::now();
    let mut doc = Map::new();
    doc.insert("bench".into(), json!("perfprobe"));
    doc.insert("reduced".into(), json!(!full));
    doc.insert("host_cores".into(), json!(host_cores()));

    stage(t0, "event kernel, dormant sections, broker");
    // Warm-up keeps first-touch page faults and lazy init out of the numbers.
    kernel_cascade(10_000);
    doc.insert("kernel_cascade_events_per_sec".into(), json!(kernel_cascade(200_000)));
    doc.insert("kernel_churn_events_per_sec".into(), json!(kernel_churn(100, 1_000)));
    let (chaos_dormant_rps, chaos_dormant_ratio) = chaos_dormant_probe(4, 60);
    doc.insert("chaos_dormant_runs_per_sec".into(), json!(chaos_dormant_rps));
    doc.insert("chaos_dormant_overhead_ratio".into(), json!(chaos_dormant_ratio));
    let (econ_dormant_rps, econ_dormant_over_clean) = econ_dormant_probe(4, 60);
    doc.insert("econ_dormant_runs_per_sec".into(), json!(econ_dormant_rps));
    doc.insert("econ_dormant_over_clean".into(), json!(econ_dormant_over_clean));
    doc.insert("econ_broker_decisions_per_sec".into(), json!(econ_broker_probe(2_000_000)));
    stage(t0, "sustained serving vs its closed twin");
    serve_sustained_probe(&mut doc);

    let (primary, extra_scales, iters): (u64, &[(u64, &str)], usize) =
        if full { (100_000, &[(1_000_000, "1m")], 200) } else { (20_000, &[], 40) };
    // Depth curve: total jobs chosen so OP chunking (≈ 2× ids) lands the
    // probed queue near the labeled depth. Reduced CI mode runs the two
    // cheapest depths; the full-run records carry all four.
    let curve: &[(u64, &str)] = if full {
        &[(25_000, "d50k"), (100_000, "d200k"), (400_000, "d800k"), (1_000_000, "d2m")]
    } else {
        &[(25_000, "d50k"), (100_000, "d200k")]
    };
    let curve_iters = if full { 100 } else { 40 };
    doc.insert("primary_scale_jobs".into(), json!(primary));

    // Decision loop at the primary scale (generic keys: the floor set).
    stage(t0, "decision probe (primary scale)");
    let (rate, queued) = decision_probe(primary, iters);
    doc.insert("decision_queue_depth".into(), json!(queued));
    doc.insert("decision_loop_decisions_per_sec".into(), json!(rate));

    // Decisions/s-vs-depth curve (the depth-flatness record the gate
    // holds: max/min ratio across these keys stays bounded).
    for &(scale, label) in curve {
        stage(t0, &format!("decision curve {label}"));
        let (rate, queued) = curve_probe(scale, curve_iters);
        doc.insert(format!("decision_curve_{label}_decisions_per_sec"), json!(rate));
        doc.insert(format!("decision_curve_{label}_queue_depth"), json!(queued));
    }

    // End to end at the primary scale.
    for (kind, label) in SCHEDULERS {
        stage(t0, &format!("e2e {label} (primary scale)"));
        let (jps, n) = e2e_probe(kind, primary, 73);
        doc.insert(format!("e2e_{label}_jobs_per_sec"), json!(jps));
        doc.insert(format!("e2e_{label}_jobs"), json!(n));
    }

    // Open-stream sustained serving: full mode drives the >= 10M-job
    // stream behind the EXPERIMENTS.md record; reduced CI mode shrinks the
    // stream (and the machine speed, keeping utilization matched) but
    // emits the same generic keys, so the memory-flatness comparison
    // against the full-run records stays well-typed.
    let (serve_jobs, serve_speed, serve_rate) =
        if full { (10_000_000, 100.0, 6_000.0) } else { (150_000, 10.0, 600.0) };
    stage(t0, &format!("serve-scale probe ({serve_jobs} jobs)"));
    serve_scale_probe(&mut doc, serve_jobs, serve_speed, serve_rate);

    // Larger scales (full mode only): suffixed record keys.
    for &(scale, suffix) in extra_scales {
        stage(t0, &format!("decision probe ({suffix})"));
        let (rate, queued) = decision_probe(scale, iters / 4);
        doc.insert(format!("decision_queue_depth_{suffix}"), json!(queued));
        doc.insert(format!("decision_loop_decisions_per_sec_{suffix}"), json!(rate));
        for (kind, label) in SCHEDULERS {
            stage(t0, &format!("e2e {label} ({suffix})"));
            let (jps, n) = e2e_probe(kind, scale, 73);
            doc.insert(format!("e2e_{label}_jobs_per_sec_{suffix}"), json!(jps));
            doc.insert(format!("e2e_{label}_jobs_{suffix}"), json!(n));
        }
    }
    stage(t0, "done");
    doc
}

/// Host metadata every line carries: the core count, so recorded numbers
/// stay interpretable across machines.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------

/// What a [`Rule`] bounds; the last two kinds mark a folded floor whose
/// key the fresh line does not carry.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// A fresh key ≥ the largest recorded value of that key ÷ bound.
    Floor,
    /// max ÷ min over the matched fresh keys ≤ bound (two keys or more).
    MaxOverMin,
    /// last ÷ first over the matched fresh keys, in key order, ≤ bound.
    LastOverFirst,
    /// The fresh key ≥ bound.
    AtLeast,
    /// A [`FULL_ONLY`] floor on a reduced line: skipped.
    FullOnly,
    /// Any other floor the fresh line lacks: a failure.
    Dropped,
}

/// One row of the gate: a key or a one-`*` key pattern, a kind and a bound.
#[derive(Clone, Copy, Debug)]
struct Rule {
    keys: &'static str,
    kind: Kind,
    bound: f64,
}

const fn row(keys: &'static str, kind: Kind, bound: f64) -> Rule {
    Rule { keys, kind, bound }
}

const RULES: &[Rule] = &[
    row("*_per_sec", Floor, 5.0),
    // `--full` lines record the 1M-job rates under a `_1m` suffix, which
    // the pattern above cannot reach.
    row("*_per_sec_1m", Floor, 5.0),
    // A decision loop that regressed to O(queue) spreads 10–40× across
    // the probed depths long before any absolute floor trips.
    row("decision_curve_*_decisions_per_sec", MaxOverMin, 3.0),
    // A serving loop that re-grew whole-run state shows up as a monotone
    // live-bytes ramp, typically 10×+ across the stream (key order is
    // time order for both curves).
    row("serve_mem_curve_*_live_bytes", LastOverFirst, 1.5),
    row("serve_scale_live_bytes_*_window", LastOverFirst, 1.5),
    row("serve_sustained_over_closed", AtLeast, 0.9),
    // A dormant econ section runs the identical code path, so the ratio
    // reads ~1.0 and 0.95 is noise margin, not headroom.
    row("econ_dormant_over_clean", AtLeast, 0.95),
];

/// Retired probes: a recorded key (or one-`*` pattern) and the fresh key
/// that took over its measurement. A retired key's recorded values floor
/// its successor instead of itself.
const RETIRED: &[(&str, &str)] = &[
    // The threads curve timed the intra-run shard map, which is gone. Its
    // runs were the OP megascale run (seed 73, primary scale) that
    // `e2e_op_jobs_per_sec` still times.
    ("threads_curve_w*_jobs_per_sec", "e2e_op_jobs_per_sec"),
    // The linear-rescan decision loop, timed beside the indexed one in
    // the early records; the rescan survives only as a test oracle. Its
    // rates sit three orders of magnitude below its successor's, so the
    // fold raises no floor.
    ("decision_loop_legacy_decisions_per_sec", "decision_loop_decisions_per_sec"),
    ("decision_loop_legacy_decisions_per_sec_1m", "decision_loop_decisions_per_sec_1m"),
];

/// Floor keys only a `--full` line carries: the 1M-job rates and the two
/// deepest decision-curve depths.
const FULL_ONLY: &[&str] = &["*_per_sec_1m", "decision_curve_d800k_*", "decision_curve_d2m_*"];

/// `key` matches `pattern` exactly, or around the pattern's one `*`.
fn matches(pattern: &str, key: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == key,
        Some((head, tail)) => {
            key.len() >= head.len() + tail.len() && key.starts_with(head) && key.ends_with(tail)
        }
    }
}

/// The folded floor table: for every fresh key a floor row reaches, the
/// largest recorded value feeding it ÷ that row's bound. A [`RETIRED`]
/// key feeds its successor.
fn floors(records: &[Map], rules: &[Rule]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for rule in rules.iter().filter(|r| r.kind == Floor) {
        for record in records {
            for (key, value) in record.iter().filter(|(k, _)| matches(rule.keys, k)) {
                let Some(v) = value.as_f64() else { continue };
                let retired = RETIRED.iter().find(|(old, _)| matches(old, key));
                let target = retired.map_or(key.as_str(), |&(_, successor)| successor);
                let floor = out.entry(target.to_string()).or_insert(f64::MIN);
                *floor = f64::max(*floor, v / rule.bound);
            }
        }
    }
    out
}

/// The statistic a fresh-line rule bounds, or `None` when `line` does not
/// carry the keys that arm it.
fn statistic(rule: &Rule, line: &Map) -> Option<f64> {
    let mut vals: Vec<(&String, f64)> = line
        .iter()
        .filter(|(k, _)| matches(rule.keys, k))
        .filter_map(|(k, v)| v.as_f64().map(|f| (k, f)))
        .collect();
    vals.sort_by(|a, b| a.0.cmp(b.0));
    let first = vals.first()?.1;
    let last = vals.last()?.1;
    match rule.kind {
        MaxOverMin | LastOverFirst if vals.len() < 2 => None,
        MaxOverMin => {
            let max = vals.iter().map(|v| v.1).fold(f64::MIN, f64::max);
            let min = vals.iter().map(|v| v.1).fold(f64::MAX, f64::min);
            assert!(min > 0.0, "perfprobe: {} values must be positive", rule.keys);
            Some(max / min)
        }
        LastOverFirst => {
            assert!(
                first > 0.0,
                "perfprobe: {} values must be positive",
                rule.keys
            );
            Some(last / first)
        }
        AtLeast => Some(first),
        Floor | FullOnly | Dropped => None,
    }
}

/// One evaluated check.
#[derive(Debug)]
struct Check {
    kind: Kind,
    what: String,
    value: f64,
    bound: f64,
}

impl Check {
    fn ok(&self) -> bool {
        match self.kind {
            Floor | AtLeast => self.value >= self.bound,
            MaxOverMin | LastOverFirst => self.value <= self.bound,
            FullOnly => true,
            Dropped => false,
        }
    }
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = match self.kind {
            FullOnly => "skip",
            _ if self.ok() => "ok  ",
            _ => "FAIL",
        };
        let (what, value, bound) = (&self.what, self.value, self.bound);
        match self.kind {
            Floor => {
                write!(
                    f,
                    "{verdict} {what}: fresh {value:.3e} vs floor {bound:.3e}"
                )
            }
            FullOnly => write!(f, "{verdict} {what}: floor {bound:.3e}, a --full key"),
            Dropped => write!(
                f,
                "{verdict} {what}: floor {bound:.3e}, not in the fresh line (retire it in RETIRED)"
            ),
            MaxOverMin => write!(f, "{verdict} {what}: max/min {value:.3} (bound {bound})"),
            LastOverFirst => {
                write!(f, "{verdict} {what}: last/first {value:.3} (bound {bound})")
            }
            AtLeast => write!(f, "{verdict} {what}: {value:.3} (need >= {bound})"),
        }
    }
}

/// Every folded floor — checked when the fresh line carries its key,
/// [`FullOnly`] or [`Dropped`] when it does not — then every armed
/// fresh-line rule, each once.
fn checks(fresh: &Map, records: &[Map], rules: &[Rule]) -> Vec<Check> {
    let reduced = fresh.get("reduced").and_then(Value::as_bool) == Some(true);
    let mut out: Vec<Check> = floors(records, rules)
        .into_iter()
        .map(|(key, bound)| {
            let full_only = || reduced && FULL_ONLY.iter().any(|p| matches(p, &key));
            let (kind, value) = match fresh.get(&key).and_then(Value::as_f64) {
                Some(value) => (Floor, value),
                None if full_only() => (FullOnly, f64::NAN),
                None => (Dropped, f64::NAN),
            };
            Check {
                kind,
                what: key,
                value,
                bound,
            }
        })
        .collect();
    for rule in rules {
        if let Some(value) = statistic(rule, fresh) {
            out.push(Check {
                kind: rule.kind,
                what: rule.keys.to_string(),
                value,
                bound: rule.bound,
            });
        }
    }
    out
}

fn object(value: Value, what: &str) -> Map {
    match value {
        Value::Object(m) => m,
        _ => panic!("perfprobe: {what} is not a JSON object"),
    }
}

/// The records of a `BENCH.json` text, in file order.
fn records(text: &str) -> Vec<Map> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let what = format!("record line {}", i + 1);
            let value = serde_json::from_str_value(line)
                .unwrap_or_else(|e| panic!("perfprobe: {what}: {e:?}"));
            let mut row = object(value, &what);
            object(row.remove("record").unwrap_or(Value::Null), &what)
        })
        .collect()
}

/// Checks `fresh` against the `BENCH.json` records and reports each check
/// on stderr: failure if any check fails or none is a floor.
fn gate(fresh: &Map) -> ExitCode {
    let checks = checks(fresh, &records(BENCH), RULES);
    for c in &checks {
        eprintln!("{c}");
    }
    let floors = checks.iter().filter(|c| c.kind == Floor).count();
    let skipped = checks.iter().filter(|c| c.kind == FullOnly).count();
    let failed = checks.iter().filter(|c| !c.ok()).count();
    eprintln!(
        "perfprobe: {} checks ({floors} floors, {skipped} --full floors skipped), {failed} failed",
        checks.len()
    );
    if floors == 0 {
        eprintln!("perfprobe: no *_per_sec key of the fresh line has a floor in BENCH.json");
        return ExitCode::FAILURE;
    }
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

const USAGE: &str =
    "usage: perfprobe [--full | --e2e <jobs> | --serve-scale <jobs> [speed] [rate]]";

/// Argument `i`, parsed; `None` when absent or malformed.
fn arg<T: std::str::FromStr>(args: &[String], i: usize) -> Option<T> {
    args.get(i).and_then(|s| s.parse().ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let t0 = Instant::now();
    let mut doc = match (args.first().map(String::as_str), arg::<u64>(&args, 1)) {
        (None | Some("--full"), _) => {
            let line = probe_line(!args.is_empty());
            println!("{}", Value::Object(line.clone()));
            return gate(&line);
        }
        // One-shot: a single order-preserving end-to-end probe at any
        // scale — how the EXPERIMENTS.md 10M-job run is reproduced
        // (`perfprobe --e2e 10000000`).
        (Some("--e2e"), Some(jobs)) => {
            stage(t0, &format!("one-shot e2e op: {jobs} jobs"));
            let (jps, n) = e2e_probe(SchedulerKind::OrderPreserving, jobs, 73);
            let doc = json!({
                "bench": "perfprobe-e2e",
                "total_jobs": jobs,
                "host_cores": host_cores(),
                "e2e_op_jobs_per_sec": jps,
                "e2e_op_jobs": n,
            });
            object(doc, "the e2e line")
        }
        // One-shot: only the open-stream serving probe at any scale — how
        // the EXPERIMENTS.md 10M-job sustained-serving record (and the
        // serve half of the `BENCH.json` PR 9 record) is reproduced.
        // `speed`/`rate` default to the full-mode shape (100x machines,
        // 6 000 jobs/epoch, utilization ~ 0.5); scale them together when
        // probing far smaller streams so utilization stays put.
        (Some("--serve-scale"), Some(jobs)) => {
            stage(t0, &format!("one-shot serve-scale: {jobs} jobs"));
            let (speed, rate) = (arg(&args, 2).unwrap_or(100.0), arg(&args, 3).unwrap_or(6_000.0));
            let mut doc = Map::new();
            doc.insert("bench".into(), json!("perfprobe-serve"));
            doc.insert("host_cores".into(), json!(host_cores()));
            serve_scale_probe(&mut doc, jobs, speed, rate);
            doc
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    stage(t0, "done");
    doc.insert("wall_secs".into(), json!(t0.elapsed().as_secs_f64()));
    println!("{}", Value::Object(doc));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(pairs: &[(&str, f64)]) -> Map {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), serde_json::json!(v)))
            .collect()
    }

    /// The bounds a record was held to when it was checked in: the same
    /// rules, but a recorded depth curve must be flat within 2×.
    fn record_rules() -> Vec<Rule> {
        RULES
            .iter()
            .map(|r| match r.kind {
                MaxOverMin => Rule { bound: 2.0, ..*r },
                _ => *r,
            })
            .collect()
    }

    #[test]
    fn records_are_in_pr_order() {
        let prs: Vec<u64> = BENCH
            .lines()
            .map(|l| {
                let Ok(Value::Object(row)) = serde_json::from_str_value(l) else {
                    panic!("not an object: {l}")
                };
                row["pr"].as_u64().expect("pr number")
            })
            .collect();
        assert_eq!(prs, [2, 4, 5, 6, 7, 9, 10]);
    }

    #[test]
    fn every_record_holds_the_record_rules() {
        let rules = record_rules();
        let mut armed = 0;
        for (i, record) in records(BENCH).iter().enumerate() {
            // No records to fold: only the fresh-line rules are checked.
            for check in checks(record, &[], &rules) {
                assert!(check.ok(), "record {}: {check}", i + 1);
                armed += 1;
            }
        }
        // Two depth curves, three memory curves, two open/closed ratios
        // and one dormant-econ ratio: the test is not vacuous.
        assert_eq!(armed, 8);
    }

    #[test]
    fn folded_floors_are_the_max_over_records() {
        let records = records(BENCH);
        let folded = floors(&records, RULES);
        let max_of = |pattern: &str| {
            records
                .iter()
                .flat_map(|r| r.iter())
                .filter(|(k, _)| matches(pattern, k))
                .filter_map(|(_, v)| v.as_f64())
                .fold(f64::MIN, f64::max)
        };
        for (key, floor) in &folded {
            let want = RETIRED
                .iter()
                .filter(|(_, successor)| successor == key)
                .map(|(old, _)| max_of(old))
                .fold(max_of(key), f64::max);
            assert_eq!(*floor, want / 5.0, "{key}");
            assert!(RETIRED.iter().all(|(old, _)| !matches(old, key)), "{key} is retired");
        }
        // The tightest retired threads-curve floor, 73,715 jobs/s ÷ 5.
        assert!((folded["e2e_op_jobs_per_sec"] - 14_743.0).abs() < 0.1);
        assert!(folded["e2e_op_jobs_per_sec"] > max_of("e2e_op_jobs_per_sec") / 5.0);
        // 16 `*_per_sec` floors plus four `*_per_sec_1m` ones: the threads
        // curve and the legacy decision loop fold into their successors.
        assert_eq!(folded.keys().filter(|k| k.ends_with("_per_sec_1m")).count(), 4);
        assert_eq!(folded.len(), 20);
    }

    #[test]
    fn a_floor_missing_from_the_fresh_line_fails_unless_full_only() {
        let rec = [line(&[
            ("x_per_sec", 10.0),
            ("x_per_sec_1m", 10.0),
            ("decision_curve_d2m_decisions_per_sec", 10.0),
            ("decision_loop_legacy_decisions_per_sec_1m", 10.0),
        ])];
        let kinds = |fresh: &Map| -> Vec<(String, Kind, bool)> {
            checks(fresh, &rec, RULES)
                .into_iter()
                .map(|c| (c.ok(), c))
                .map(|(ok, c)| (c.what, c.kind, ok))
                .collect()
        };
        let k = |what: &str, kind: Kind, ok: bool| (what.to_string(), kind, ok);
        let (d2m, loop_1m) =
            ("decision_curve_d2m_decisions_per_sec", "decision_loop_decisions_per_sec_1m");

        // A reduced line skips the full-only floors, the retired key's
        // successor among them; the key it lost fails.
        let mut reduced = line(&[("y_per_sec", 1.0)]);
        reduced.insert("reduced".into(), serde_json::json!(true));
        assert_eq!(
            kinds(&reduced),
            [
                k(d2m, FullOnly, true),
                k(loop_1m, FullOnly, true),
                k("x_per_sec", Dropped, false),
                k("x_per_sec_1m", FullOnly, true),
            ]
        );
        // A full line must carry every floor, full-only ones included.
        let full = line(&[(d2m, 2.0), (loop_1m, 2.0), ("x_per_sec", 2.0)]);
        assert_eq!(
            kinds(&full),
            [
                k(d2m, Floor, true),
                k(loop_1m, Floor, true),
                k("x_per_sec", Floor, true),
                k("x_per_sec_1m", Dropped, false),
            ]
        );
        let shown = checks(&full, &rec, RULES).iter().map(|c| c.to_string()).collect::<Vec<_>>();
        assert!(shown[3].starts_with("FAIL x_per_sec_1m: floor"), "{}", shown[3]);
    }

    #[test]
    fn each_kind_passes_at_its_bound_and_fails_just_past_it() {
        let past = |x: f64, up: bool| {
            if up {
                x * (1.0 + 1e-9)
            } else {
                x * (1.0 - 1e-9)
            }
        };
        let verdicts = |fresh: &Map, records: &[Map]| -> Vec<bool> {
            checks(fresh, records, RULES)
                .iter()
                .map(Check::ok)
                .collect()
        };
        let rec = [line(&[
            ("x_per_sec", 10.0),
            ("threads_curve_w4_jobs_per_sec", 20.0),
        ])];

        // Floors: the record max ÷ 5, and the successor's inherited floor
        // (the successor's key sorts first).
        let op = "e2e_op_jobs_per_sec";
        let floors = |x: f64, o: f64| verdicts(&line(&[("x_per_sec", x), (op, o)]), &rec);
        assert_eq!(floors(2.0, 4.0), [true, true]);
        assert_eq!(floors(past(2.0, false), 4.0), [true, false]);
        assert_eq!(floors(2.0, past(4.0, false)), [false, true]);

        // Fresh-line rules, each alongside the two passing floors.
        let with_floor = |pairs: &[(&str, f64)]| {
            let mut l = line(pairs);
            l.insert("x_per_sec".into(), serde_json::json!(2.0));
            l.insert(op.into(), serde_json::json!(4.0));
            verdicts(&l, &rec)
        };
        let curve = |hi: f64| {
            with_floor(&[
                ("decision_curve_d1_decisions_per_sec", hi),
                ("decision_curve_d2_decisions_per_sec", 1.0),
            ])
        };
        assert_eq!(curve(3.0), [true, true, true]);
        assert_eq!(curve(past(3.0, true)), [true, true, false]);
        let mem = |last: f64| {
            with_floor(&[
                ("serve_mem_curve_w03_live_bytes", 1.0),
                ("serve_mem_curve_w11_live_bytes", last),
            ])
        };
        assert_eq!(mem(1.5), [true, true, true]);
        assert_eq!(mem(past(1.5, true)), [true, true, false]);
        let scale = |last: f64| {
            with_floor(&[
                ("serve_scale_live_bytes_first_window", 1.0),
                ("serve_scale_live_bytes_last_window", last),
            ])
        };
        assert_eq!(scale(1.5), [true, true, true]);
        assert_eq!(scale(past(1.5, true)), [true, true, false]);
        for (key, bound) in [
            ("serve_sustained_over_closed", 0.9),
            ("econ_dormant_over_clean", 0.95),
        ] {
            assert_eq!(with_floor(&[(key, bound)]), [true, true, true]);
            assert_eq!(with_floor(&[(key, past(bound, false))]), [true, true, false]);
        }

        // One key arms no curve rule, and an unshared key has no floor.
        assert_eq!(
            with_floor(&[("decision_curve_d1_decisions_per_sec", 99.0)]),
            [true, true]
        );
        assert_eq!(with_floor(&[("y_per_sec", 0.0)]), [true, true]);
    }

    #[test]
    fn patterns_match_around_one_star() {
        assert!(matches("*_per_sec", "a_per_sec"));
        assert!(!matches("*_per_sec", "a_per_secs"));
        assert!(!matches("*_per_sec", "a_per_sec_1m"));
        assert!(matches("*_per_sec_1m", "a_per_sec_1m"));
        assert!(matches(
            "serve_scale_live_bytes_*_window",
            "serve_scale_live_bytes_first_window"
        ));
        assert!(!matches("a_*_a", "a_a"));
        assert!(matches(
            "econ_dormant_over_clean",
            "econ_dormant_over_clean"
        ));
    }
}
