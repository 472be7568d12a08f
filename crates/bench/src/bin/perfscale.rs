//! `perfscale` — megascale decision-loop and end-to-end throughput probes.
//!
//! Writes one line of JSON, which `perfgate` checks against `BENCH.json`:
//!
//! * **Decision loop** — an [`EngineHarness`] is advanced to a mid-run
//!   state with every batch admitted (tens of thousands of queued jobs),
//!   then `load_snapshot` is timed in place. Before it is timed, the
//!   hybrid drain is spot-checked bitwise against an independent
//!   full-rescan replica of its semantics at every probed scale.
//! * **Depth curve** — `decision_curve_<depth>_*`: full decision sweeps
//!   (load-model refresh + rescheduling evaluation) timed at queue depths
//!   from ≈ 50k to ≈ 2M. The hybrid drain makes one decision independent
//!   of backlog, so `perfgate` holds this curve flat (bounded max/min
//!   ratio across depths).
//! * **End to end** — full `run_with_batches` runs of the megascale
//!   workload (batches of ≈ 10 000 jobs, 64 + 64 machines) for the greedy,
//!   order-preserving and SIBS schedulers, reported as jobs per second.
//! * **Serve scale** — `serve_scale_*`: a stable open-system serving
//!   stream (10M jobs full mode, 150k reduced, utilization-matched)
//!   stepped window by window, reporting sustained jobs/s, the live-jobs
//!   high-water mark and the first/last post-warm-up window live-bytes
//!   high-water pair that `perfgate` holds within 1.5×.
//!
//! ```text
//! perfscale                      full probe (100k and 1M jobs + 4-depth curve)
//! perfscale <path>               additionally write the JSON line to <path>
//! perfscale --reduced [path]     CI mode: 20k jobs, 2-depth curve, fewer iters
//! perfscale --e2e <jobs>         one order-preserving end-to-end run
//! perfscale --serve-scale <jobs> [speed] [rate]   one serve-scale run
//! ```
//!
//! Generic (unsuffixed) keys always describe the primary scale — 100k in
//! full mode, 20k in reduced mode — so a reduced CI run produces the same
//! key set that `perfgate` reads from the full-run records.

// Timing wall-clock durations is this binary's whole purpose; the
// disallowed-methods ban on Instant::now targets deterministic library
// code, not the perf harness.
#![allow(clippy::disallowed_methods)]

use std::io::Write as _;
use std::time::Instant;

use cloudburst_cluster::Cloud;
use cloudburst_core::engine::run_with_batches;
use cloudburst_core::{EngineHarness, ExperimentConfig, SchedulerKind, ServeConfig, ServeHarness};
use cloudburst_sched::{fluid_fill_level, DRAIN_WINDOW};
use cloudburst_sim::{RngFactory, SimDuration, SimTime};
use cloudburst_sla::WindowConfig;
use cloudburst_testsupport::{high_water_bytes, reset_high_water, CountingAlloc};
use cloudburst_workload::{BatchArrivals, JobId, OpenArrivalConfig};
use serde_json::json;

// The serve-scale probe reports per-window live-bytes high-water marks,
// so the binary runs under the counting allocator; its two relaxed
// atomics are noise against the 5x perfgate headroom, and the hot loop
// itself is allocation-free (alloc_free*.rs).
#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

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
        let est = est_exec.get(key.0 as usize).copied().unwrap_or(60.0);
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
        let est = est_exec.get(key.0 as usize).copied().unwrap_or(60.0);
        let (idx, _) = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("machines exist");
        free[idx] += est / speed;
    }
    free
}

/// Builds the megascale harness and advances it to the instant after the
/// last batch arrival — the deepest queue state of the run.
fn mid_run_harness(kind: SchedulerKind, total_jobs: u64, seed: u64) -> (EngineHarness, SimTime) {
    mid_run_harness_cfg(ExperimentConfig::megascale(kind, total_jobs, seed))
}

/// As [`mid_run_harness`], from an explicit (possibly customized) config.
fn mid_run_harness_cfg(cfg: ExperimentConfig) -> (EngineHarness, SimTime) {
    let rngs = RngFactory::new(cfg.seed);
    let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
    let last_arrival = batches.last().expect("at least one batch").arrival;
    let mut h = EngineHarness::new(&cfg, batches);
    h.run_until(last_arrival + cloudburst_sim::SimDuration::from_secs(1));
    let now = h.now();
    (h, now)
}

/// Decision-loop probe at one scale: (decisions/s, queued jobs at the
/// probed instant).
fn decision_probe(total_jobs: u64, iters: usize) -> (f64, usize) {
    let (mut h, now) = mid_run_harness(SchedulerKind::OrderPreserving, total_jobs, 71);
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
    let (mut h, now) = mid_run_harness_cfg(cfg);
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
/// ≈ `total_jobs` jobs against the megascale estate, stepped window by
/// window with closed rows drained as they land. Machine speed is scaled
/// with the offered rate so utilization stays ≈ 0.5 — comfortably stable,
/// because the point is sustained serving, not backlog growth (near
/// critical load the IC backlog spills into EC bursts that crawl behind
/// the WAN pipe and live state grows for the whole horizon). Returns
/// `(jobs_per_sec, jobs, first_window_hw_bytes, last_window_hw_bytes,
/// live_high_water_jobs)`: the two window high-water marks are the
/// memory-flatness record `perfgate` compares (first is the first
/// post-warm-up window).
fn serve_scale_probe(total_jobs: u64, ic_speed: f64, jobs_per_epoch: f64) -> (f64, u64, usize, usize, u64) {
    let epoch = SimDuration::from_secs(180);
    let epochs = ((total_jobs as f64 / jobs_per_epoch).ceil() as u64).max(1);
    let mut cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, total_jobs, 71);
    cfg.ic_speed = ic_speed;
    cfg.ec_speed = ic_speed;
    let horizon = epoch * epochs;
    const WINDOWS: u64 = 16;
    const WARMUP: u64 = 3;
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
    let mut h = ServeHarness::new(&cfg);
    h.run_until(SimTime::ZERO + window * WARMUP);
    h.world_mut().drain_serve_windows();
    let mut first = 0usize;
    let mut last = 0usize;
    for k in WARMUP..WINDOWS {
        reset_high_water();
        h.run_until(SimTime::ZERO + window * (k + 1));
        h.world_mut().drain_serve_windows();
        let hw = high_water_bytes();
        if k == WARMUP {
            first = hw;
        }
        last = hw;
    }
    h.run();
    let (report, _world) = h.finish();
    let jps = report.jobs_completed as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(report.jobs_completed, report.jobs_admitted, "serve stream must drain");
    (jps, report.jobs_completed, first, last, report.live_high_water)
}

const SCHEDULERS: [(SchedulerKind, &str); 3] = [
    (SchedulerKind::Greedy, "greedy"),
    (SchedulerKind::OrderPreserving, "op"),
    (SchedulerKind::Sibs, "op_sibs"),
];

/// Stage progress on stderr (stdout carries only the JSON line).
fn stage(t0: Instant, what: &str) {
    eprintln!("[perfscale {:7.1}s] {what}", t0.elapsed().as_secs_f64());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Host metadata: every record names the machine's core count, so
    // recorded numbers stay interpretable across machines.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // One-shot mode: `perfscale --e2e <jobs>` runs a single
    // order-preserving end-to-end probe at an arbitrary scale and prints
    // one JSON line — how the EXPERIMENTS.md 10M-job run is reproduced
    // (`perfscale --e2e 10000000`).
    if let Some(pos) = args.iter().position(|a| a == "--e2e") {
        let jobs: u64 = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("usage: perfscale --e2e <jobs>");
        let t0 = Instant::now();
        stage(t0, &format!("one-shot e2e op: {jobs} jobs"));
        let (jps, n) = e2e_probe(SchedulerKind::OrderPreserving, jobs, 73);
        stage(t0, "done");
        let doc = json!({
            "bench": "perfscale-e2e",
            "total_jobs": jobs,
            "host_cores": host_cores,
            "e2e_op_jobs_per_sec": jps,
            "e2e_op_jobs": n,
            "wall_secs": t0.elapsed().as_secs_f64(),
        });
        println!("{doc}");
        return;
    }

    // One-shot mode: `perfscale --serve-scale <jobs> [speed] [rate]` runs
    // only the open-stream serving probe at an arbitrary scale — how the
    // EXPERIMENTS.md 10M-job sustained-serving record (and the serve half
    // of the `BENCH.json` PR 9 record) is reproduced without paying for
    // the full probe suite. `speed`/`rate` default to the full-mode shape
    // (100x machines, 6 000 jobs/epoch, utilization ~ 0.5); scale them
    // together when probing far smaller streams so utilization stays put.
    if let Some(pos) = args.iter().position(|a| a == "--serve-scale") {
        let jobs: u64 = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("usage: perfscale --serve-scale <jobs>");
        let t0 = Instant::now();
        stage(t0, &format!("one-shot serve-scale: {jobs} jobs"));
        let speed: f64 = args.get(pos + 2).and_then(|s| s.parse().ok()).unwrap_or(100.0);
        let rate: f64 = args.get(pos + 3).and_then(|s| s.parse().ok()).unwrap_or(6_000.0);
        let (jps, n, first, last, live_hw) = serve_scale_probe(jobs, speed, rate);
        stage(t0, "done");
        let doc = json!({
            "bench": "perfscale-serve",
            "host_cores": host_cores,
            "serve_scale_jobs_per_sec": jps,
            "serve_scale_jobs": n,
            "serve_scale_live_bytes_first_window": first,
            "serve_scale_live_bytes_last_window": last,
            "serve_scale_live_high_water_jobs": live_hw,
            "wall_secs": t0.elapsed().as_secs_f64(),
        });
        println!("{doc}");
        return;
    }

    let reduced = args.iter().any(|a| a == "--reduced");
    args.retain(|a| a != "--reduced");
    let out_path = args.first().cloned();

    let (primary, extra_scales, iters): (u64, &[(u64, &str)], usize) = if reduced {
        (20_000, &[], 40)
    } else {
        (100_000, &[(1_000_000, "1m")], 200)
    };
    // Depth curve: total jobs chosen so OP chunking (≈ 2× ids) lands the
    // probed queue near the labeled depth. Reduced CI mode runs the two
    // cheapest depths; the full-run records carry all four.
    let curve: &[(u64, &str)] = if reduced {
        &[(25_000, "d50k"), (100_000, "d200k")]
    } else {
        &[(25_000, "d50k"), (100_000, "d200k"), (400_000, "d800k"), (1_000_000, "d2m")]
    };
    let curve_iters = if reduced { 40 } else { 100 };

    let t0 = Instant::now();
    let mut doc = serde_json::Map::new();
    doc.insert("bench".into(), json!("perfscale"));
    doc.insert("reduced".into(), json!(reduced));
    doc.insert("primary_scale_jobs".into(), json!(primary));
    doc.insert("host_cores".into(), json!(host_cores));

    // Decision loop at the primary scale (generic keys: the perfgate set).
    stage(t0, "decision probe (primary scale)");
    let (rate, queued) = decision_probe(primary, iters);
    doc.insert("decision_queue_depth".into(), json!(queued));
    doc.insert("decision_loop_decisions_per_sec".into(), json!(rate));

    // Decisions/s-vs-depth curve (the depth-flatness record perfgate
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
        if reduced { (150_000, 10.0, 600.0) } else { (10_000_000, 100.0, 6_000.0) };
    stage(t0, &format!("serve-scale probe ({serve_jobs} jobs)"));
    let (sjps, sn, sfirst, slast, slive) = serve_scale_probe(serve_jobs, serve_speed, serve_rate);
    doc.insert("serve_scale_jobs_per_sec".into(), json!(sjps));
    doc.insert("serve_scale_jobs".into(), json!(sn));
    doc.insert("serve_scale_live_bytes_first_window".into(), json!(sfirst));
    doc.insert("serve_scale_live_bytes_last_window".into(), json!(slast));
    doc.insert("serve_scale_live_high_water_jobs".into(), json!(slive));

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

    let line = serde_json::to_string(&serde_json::Value::Object(doc)).expect("serialize");
    println!("{line}");
    if let Some(path) = out_path {
        let mut f = std::fs::File::create(&path).expect("create output file");
        writeln!(f, "{line}").expect("write output file");
    }
}
