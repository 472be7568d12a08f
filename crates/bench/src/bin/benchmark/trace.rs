//! The traced run: spans around every call the benchmark makes into the
//! engine, a log-bucket histogram of step times, periodic probes of the
//! live world, and replays that time one layer's public functions in
//! isolation on this workload's own inputs.
//!
//! Everything here is measured from outside the engine, through its public
//! API. A traced run must leave the simulated outcome byte-identical to an
//! untraced one; the caller checks the report digest.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use cloudburst_chaos::EstateShape;
use cloudburst_cluster::Cloud;
use cloudburst_core::engine::EngineWorld;
use cloudburst_core::ExperimentConfig;
use cloudburst_econ::CostMetrics;
use cloudburst_net::{Link, TransferId};
use cloudburst_qrsm::QrsModel;
use cloudburst_sched::FreeTimeIndex;
use cloudburst_sim::{RngFactory, SimTime};
use cloudburst_sla::{
    oo_series, CompletionRecord, FaultMetrics, RunReport, ServeReport, WindowStats,
};
use cloudburst_workload::arrival::training_corpus;
use cloudburst_workload::{Batch, Job, JobId, OpenArrivals};

use crate::workloads::{Rep, Stepper, DRAIN_EVERY};

/// Probe the live world (scheduler snapshot, broker choice, queue depths)
/// every this many events.
pub const PROBE_EVERY: u64 = 64;

/// Replays run over at most this many inputs, so a replay costs well under
/// a second whatever the workload's size.
const REPLAY_CAP: usize = 50_000;

/// Observations per timed QRSM refit in the observe/refit replay.
const OBSERVES_PER_REFIT: usize = 64;

/// Transfers kept in flight on the replayed link, and threads per transfer.
const LINK_IN_FLIGHT: usize = 8;
const LINK_THREADS: u32 = 4;

/// Per-layer metrics, in print order: `(name, unit)`. `BENCHMARK.json`
/// declares the same list with a direction for each; a unit test holds the
/// two in step.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("sim.events", "count"),
    ("sim.event_us_p50", "us"),
    ("sim.event_us_p99", "us"),
    ("core.admit_events", "count"),
    ("core.admit_ms_p50", "ms"),
    ("core.admit_ms_max", "ms"),
    ("core.admit_share", "fraction"),
    ("core.finish_ms", "ms"),
    ("workload.generate_ms", "ms"),
    ("workload.docs", "count"),
    ("workload.jobs_per_doc", "ratio"),
    ("qrsm.fit_ms", "ms"),
    ("qrsm.observe_ns", "ns"),
    ("qrsm.refit_us", "us"),
    ("qrsm.observes", "count"),
    ("sched.snapshot_us_p50", "us"),
    ("sched.snapshot_us_p99", "us"),
    ("sched.ic_queue_max", "count"),
    ("sched.fcfs_commit_ns", "ns"),
    ("sched.pull_backs", "count"),
    ("sched.push_outs", "count"),
    ("cluster.ic_util", "fraction"),
    ("cluster.ec_util", "fraction"),
    ("cluster.ec_queue_max", "count"),
    ("cluster.dispatch_ns", "ns"),
    ("net.burst_ratio", "fraction"),
    ("net.uploaded_gb", "GB"),
    ("net.downloaded_gb", "GB"),
    ("net.advance_ns", "ns"),
    ("sla.oo_series_ms", "ms"),
    ("sla.window_rows", "count"),
    ("sla.drain_us_p50", "us"),
    ("sla.ordered_mb", "MB"),
    ("sla.ticket_met_frac", "fraction"),
    ("chaos.compile_ms", "ms"),
    ("chaos.exec_failures", "count"),
    ("chaos.timeouts", "count"),
    ("chaos.retries", "count"),
    ("chaos.redispatches", "count"),
    ("chaos.useful_exec_frac", "fraction"),
    ("chaos.dormant_over_clean", "ratio"),
    ("econ.broker_ns_p50", "ns"),
    ("econ.spot_revocations", "count"),
    ("econ.net_cost_usd", "USD"),
    ("econ.dormant_over_clean", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Tail quantiles in per-mille, tried from the highest down.
const TAIL_PER_MILLE: [u64; 4] = [990, 950, 900, 750];

/// A tail percentile is reported only with at least this many samples
/// beyond its rank; with fewer, the maximum stands in for it.
pub const MIN_BEYOND: u64 = 10;

/// Nearest rank (1-based) of the per-mille quantile `q` among `n > 0`
/// samples. Integer arithmetic, so `990 × 1000` lands on rank 990 exactly.
fn rank(n: u64, q_per_mille: u64) -> u64 {
    (q_per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The highest tail quantile (per-mille) that keeps at least
/// [`MIN_BEYOND`] of `n` samples beyond its rank, or `None` when even the
/// lowest candidate does not — then report the median and the maximum.
pub fn tail_per_mille(n: u64) -> Option<u64> {
    TAIL_PER_MILLE
        .into_iter()
        .find(|&q| n >= 1 && n - rank(n, q) >= MIN_BEYOND)
}

/// Median and tail of exact samples: `(p50, tail)`, where the tail is the
/// highest percentile [`tail_per_mille`] allows, else the maximum. Zeros
/// when there are no samples (the layer did no such work).
fn summarize(samples: &mut [u64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    samples.sort_unstable();
    let n = samples.len() as u64;
    let at = |r: u64| samples[(r - 1) as usize] as f64;
    let tail = tail_per_mille(n).map_or(at(n), |q| at(rank(n, q)));
    (at(rank(n, 500)), tail)
}

/// Step durations in nanoseconds, folded into log buckets: eight per
/// octave (≤ 1/8 relative width), exact below 16 ns.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    n: u64,
}

impl LogHistogram {
    const SUB_BITS: u32 = 3;

    fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; 64 << Self::SUB_BITS],
            n: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        let sub = 1u64 << Self::SUB_BITS;
        if v < sub {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - Self::SUB_BITS;
        (((shift + 1) as u64) << Self::SUB_BITS | ((v >> shift) & (sub - 1))) as usize
    }

    /// Midpoint of bucket `i`'s value range.
    fn midpoint(i: usize) -> f64 {
        let sub = 1usize << Self::SUB_BITS;
        if i < sub {
            return i as f64;
        }
        let shift = (i >> Self::SUB_BITS) - 1;
        let lower = ((sub + (i & (sub - 1))) as u64) << shift;
        lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    fn add(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    fn at_rank(&self, r: u64) -> f64 {
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= r {
                return Self::midpoint(i);
            }
        }
        0.0
    }

    /// `(p50, tail)` under the same rule as [`summarize`].
    fn summarize(&self) -> (f64, f64) {
        if self.n == 0 {
            return (0.0, 0.0);
        }
        let tail = tail_per_mille(self.n).map_or(self.n, |q| rank(self.n, q));
        (self.at_rank(rank(self.n, 500)), self.at_rank(tail))
    }
}

/// One timed interval. `id` is the index in the span list.
#[derive(Clone, Copy, Debug)]
struct Span {
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Counters folded in after each run of the traced pass.
#[derive(Debug, Default)]
struct Totals {
    runs: u64,
    docs: u64,
    admitted: u64,
    completed: u64,
    drain_rows: u64,
    pull_backs: u64,
    push_outs: u64,
    ic_util: f64,
    ec_util: f64,
    burst_ratio: f64,
    uploaded: u64,
    downloaded: u64,
    faults: FaultMetrics,
    spot_revocations: u64,
    net_cost_usd: f64,
}

/// Layer measurements made after the traced pass.
#[derive(Clone, Copy, Debug, Default)]
struct Replays {
    observes: u64,
    observe_ns: f64,
    refit_us: f64,
    fcfs_commit_ns: f64,
    dispatch_ns: f64,
    advance_ns: f64,
}

/// Span recorder and per-layer collector. [`Tracer::off`] makes every
/// method a no-op, so the timed reps and the traced pass share the per-run
/// code in `workloads`; only the stepping loop differs, as
/// `workloads::drive` hands a traced run to [`Tracer::drive`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    steps: LogHistogram,
    step_ns: u64,
    admit_ns: Vec<u64>,
    snapshot_ns: Vec<u64>,
    broker_ns: Vec<u64>,
    drain_ns: Vec<u64>,
    events: u64,
    ic_queue_max: usize,
    ec_queue_max: usize,
    totals: Totals,
    replays: Replays,
    /// Replay inputs: the first [`REPLAY_CAP`] generated documents, the
    /// engine's recorded execution estimates, and the first run's config.
    docs: Vec<Job>,
    est_costs: Vec<f64>,
    env: Option<ExperimentConfig>,
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// A recording tracer; span times count from now.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            steps: LogHistogram::new(),
            step_ns: 0,
            admit_ns: Vec::new(),
            snapshot_ns: Vec::new(),
            broker_ns: Vec::new(),
            drain_ns: Vec::new(),
            events: 0,
            ic_queue_max: 0,
            ec_queue_max: 0,
            totals: Totals::default(),
            replays: Replays::default(),
            docs: Vec::new(),
            est_costs: Vec::new(),
            env: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Total nanoseconds inside spans named `name`.
    fn span_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Records an already-measured interval under the innermost open span.
    fn record(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        let start_ns = self.ns(start);
        let parent = self.open.last().copied();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Runs `f` inside a span named `name`.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The traced twin of the plain stepping loop in `workloads::drive`:
    /// same events, same drain cadence, plus step timing and probes.
    pub fn drive<H: Stepper>(&mut self, h: &mut H, rows: &mut Vec<WindowStats>) {
        let mut fired = 0u64;
        loop {
            let before = h.admitted();
            let start = Instant::now();
            let more = h.step();
            let ns = elapsed_ns(start);
            if !more {
                break;
            }
            fired += 1;
            self.step_ns += ns;
            if h.admitted() > before {
                self.admit_ns.push(ns);
                self.record("admit", start, ns);
            } else {
                self.steps.add(ns);
            }
            if fired.is_multiple_of(PROBE_EVERY) {
                self.probe(h);
            }
            if H::SERVE && fired.is_multiple_of(DRAIN_EVERY) {
                let start = Instant::now();
                rows.append(&mut h.world_mut().drain_serve_windows());
                let ns = elapsed_ns(start);
                self.drain_ns.push(ns);
                self.record("drain", start, ns);
            }
        }
        self.events += fired;
    }

    /// One probe batch: the scheduler's load snapshot and the broker's site
    /// choice on the live world, plus the queue depths they see.
    fn probe<H: Stepper>(&mut self, h: &mut H) {
        let start = Instant::now();
        let now = h.now();
        let w = h.world_mut();
        let t = Instant::now();
        black_box(w.load_snapshot(now).ic_free_secs.len());
        self.snapshot_ns.push(elapsed_ns(t));
        let t = Instant::now();
        black_box(w.broker_site_choice(now));
        self.broker_ns.push(elapsed_ns(t));
        self.ic_queue_max = self.ic_queue_max.max(w.ic_cloud().queued());
        for site in 0..=w.config().extra_ec_sites.len() {
            self.ec_queue_max = self.ec_queue_max.max(w.ec_cloud(site).queued());
        }
        let ns = elapsed_ns(start);
        self.record("probe", start, ns);
    }

    /// Keeps a closed workload's generated documents for the replays.
    pub fn note_batches(&mut self, batches: &[Batch]) {
        if !self.on {
            return;
        }
        for b in batches {
            self.totals.docs += b.jobs.len() as u64;
            let room = REPLAY_CAP - self.docs.len();
            self.docs.extend(b.jobs.iter().take(room).cloned());
        }
    }

    /// Folds in one finished closed run and times `oo_series` over its
    /// completions.
    pub fn after_closed(
        &mut self,
        cfg: &ExperimentConfig,
        report: &RunReport,
        world: &EngineWorld,
    ) {
        if !self.on {
            return;
        }
        let n = report.n_jobs as u64;
        self.after_run(cfg, world, n, n, &report.faults, report.econ.as_ref());
        let t = &mut self.totals;
        t.ic_util += report.ic_utilization;
        t.ec_util += report.ec_utilization;
        t.burst_ratio += report.burst_ratio;
        t.uploaded += report.uploaded_bytes;
        t.downloaded += report.downloaded_bytes;

        let records: Vec<CompletionRecord> = report
            .completion_times
            .iter()
            .enumerate()
            .map(|(i, &at)| CompletionRecord {
                id: i as u64,
                at,
                bytes: world.job_output_bytes(i as u64),
            })
            .collect();
        let horizon = SimTime::from_secs_f64(report.makespan_secs) + cfg.oo.sample_interval;
        black_box(self.timed("replay.sla.oo_series", || {
            oo_series(&records, records.len().max(1), horizon, cfg.oo)
        }));
    }

    /// Folds in one finished serve run and replays its arrival generator
    /// (the engine draws arrivals lazily, inside the run).
    pub fn after_serve(
        &mut self,
        cfg: &ExperimentConfig,
        report: &ServeReport,
        rows: &[WindowStats],
        world: &EngineWorld,
    ) {
        if !self.on {
            return;
        }
        self.after_run(
            cfg,
            world,
            report.jobs_admitted,
            report.jobs_completed,
            &report.faults,
            report.econ.as_ref(),
        );
        let end = SimTime::from_secs_f64(report.drained_at_secs);
        let sites: Vec<&Cloud<JobId>> = (0..=cfg.extra_ec_sites.len())
            .map(|s| world.ec_cloud(s))
            .collect();
        let ec_machines: usize = sites.iter().map(|c| c.n_machines()).sum();
        let t = &mut self.totals;
        t.ic_util += world.ic_cloud().average_utilization(end);
        t.ec_util += sites
            .iter()
            .map(|c| c.average_utilization(end) * c.n_machines() as f64)
            .sum::<f64>()
            / ec_machines.max(1) as f64;
        t.burst_ratio += world.serve_bursted_jobs() as f64 / report.jobs_admitted.max(1) as f64;
        t.drain_rows += rows.len() as u64;

        let serve = cfg
            .serve
            .clone()
            .expect("serve workload has a serve section");
        let room = REPLAY_CAP - self.docs.len();
        let (generated, docs) = self.timed("replay.workload.generate", || {
            let rngs = RngFactory::new(cfg.seed);
            let mut gen = OpenArrivals::new(serve.arrivals, &rngs, cfg.truth.clone());
            let horizon = SimTime::ZERO + serve.horizon;
            let mut docs = Vec::new();
            while gen.next_arrival() < horizon {
                docs.extend(gen.next_batch().jobs.into_iter().take(room - docs.len()));
            }
            (gen.jobs_generated(), docs)
        });
        self.totals.docs += generated;
        self.docs.extend(docs);
    }

    /// What closed and serve runs share: counters, and the per-run fit and
    /// fault-plan compile replays.
    fn after_run(
        &mut self,
        cfg: &ExperimentConfig,
        world: &EngineWorld,
        admitted: u64,
        completed: u64,
        faults: &FaultMetrics,
        econ: Option<&CostMetrics>,
    ) {
        let t = &mut self.totals;
        t.runs += 1;
        t.admitted += admitted;
        t.completed += completed;
        t.pull_backs += world.pull_backs();
        t.push_outs += world.push_outs();
        t.faults.exec_failures += faults.exec_failures;
        t.faults.transfer_timeouts += faults.transfer_timeouts;
        t.faults.transfer_retries += faults.transfer_retries;
        t.faults.redispatches += faults.redispatches;
        if let Some(e) = econ {
            t.spot_revocations += e.spot_revocations;
            t.net_cost_usd += e.net_cost().as_usd_f64();
        }
        let room = REPLAY_CAP - self.est_costs.len();
        self.est_costs.extend(
            world
                .est_exec_estimates()
                .iter()
                .take(room)
                .map(|e| e / cfg.ic_speed),
        );

        black_box(self.timed("replay.qrsm.fit", || training_fit(cfg)));
        if let Some(profile) = &cfg.faults {
            let shape = estate_shape(cfg);
            black_box(self.timed("replay.chaos.compile", || profile.compile(cfg.seed, &shape)));
        }
        if self.env.is_none() {
            self.env = Some(cfg.clone());
        }
    }

    /// Times the per-call layer functions on the collected inputs: QRSM
    /// observe + refit, the FCFS free-time index, cloud dispatch, and the
    /// upload link over bursted payload sizes.
    pub fn replay_layers(&mut self) {
        let Some(cfg) = self.env.clone() else { return };
        let docs = std::mem::take(&mut self.docs);
        let costs = std::mem::take(&mut self.est_costs);

        (
            self.replays.observes,
            self.replays.observe_ns,
            self.replays.refit_us,
        ) = self.timed("replay.qrsm.observe_refit", || replay_qrsm(&cfg, &docs));
        self.replays.fcfs_commit_ns =
            self.timed("replay.sched.fcfs_commit", || replay_fcfs(cfg.n_ic, &costs));
        self.replays.dispatch_ns =
            self.timed("replay.cluster.dispatch", || replay_dispatch(&cfg, &docs));
        let burst = self.totals.burst_ratio / self.totals.runs.max(1) as f64;
        if burst > 0.0 {
            let stride = (1.0 / burst).round().max(1.0) as usize;
            let payloads: Vec<u64> = docs.iter().step_by(stride).map(Job::input_bytes).collect();
            self.replays.advance_ns =
                self.timed("replay.net.advance", || replay_link(&cfg, &payloads));
        }
    }

    /// Per-layer metric values in [`PER_LAYER`] order. `rep` is the traced
    /// pass; `dormant` carries the chaos and econ dormant/clean throughput
    /// ratios where measured; `overhead` is traced seconds over the
    /// untraced median.
    pub fn per_layer(
        &mut self,
        rep: &Rep,
        dormant: Option<(f64, f64)>,
        overhead: f64,
    ) -> Vec<(&'static str, f64)> {
        let (event_p50, event_tail) = self.steps.summarize();
        let admit_total: u64 = self.admit_ns.iter().sum();
        let admit_max = self.admit_ns.iter().copied().max().unwrap_or(0);
        let (admit_p50, _) = summarize(&mut self.admit_ns);
        let (snap_p50, snap_tail) = summarize(&mut self.snapshot_ns);
        let (drain_p50, _) = summarize(&mut self.drain_ns);
        let (broker_p50, _) = summarize(&mut self.broker_ns);
        let (t, r) = (&self.totals, &self.replays);
        let runs = t.runs.max(1) as f64;
        let (chaos_ratio, econ_ratio) = dormant.unwrap_or((0.0, 0.0));
        let ms = |ns: u64| ns as f64 / 1e6;
        let span_ms = |name: &str| ms(self.span_ns(name));
        vec![
            ("sim.events", self.events as f64),
            ("sim.event_us_p50", event_p50 / 1e3),
            ("sim.event_us_p99", event_tail / 1e3),
            ("core.admit_events", self.admit_ns.len() as f64),
            ("core.admit_ms_p50", admit_p50 / 1e6),
            ("core.admit_ms_max", ms(admit_max)),
            (
                "core.admit_share",
                admit_total as f64 / self.step_ns.max(1) as f64,
            ),
            ("core.finish_ms", span_ms("finish")),
            (
                "workload.generate_ms",
                span_ms("generate") + span_ms("replay.workload.generate"),
            ),
            ("workload.docs", t.docs as f64),
            (
                "workload.jobs_per_doc",
                t.admitted as f64 / t.docs.max(1) as f64,
            ),
            ("qrsm.fit_ms", span_ms("replay.qrsm.fit")),
            ("qrsm.observe_ns", r.observe_ns),
            ("qrsm.refit_us", r.refit_us),
            ("qrsm.observes", r.observes as f64),
            ("sched.snapshot_us_p50", snap_p50 / 1e3),
            ("sched.snapshot_us_p99", snap_tail / 1e3),
            ("sched.ic_queue_max", self.ic_queue_max as f64),
            ("sched.fcfs_commit_ns", r.fcfs_commit_ns),
            ("sched.pull_backs", t.pull_backs as f64),
            ("sched.push_outs", t.push_outs as f64),
            ("cluster.ic_util", t.ic_util / runs),
            ("cluster.ec_util", t.ec_util / runs),
            ("cluster.ec_queue_max", self.ec_queue_max as f64),
            ("cluster.dispatch_ns", r.dispatch_ns),
            ("net.burst_ratio", t.burst_ratio / runs),
            ("net.uploaded_gb", t.uploaded as f64 / 1e9),
            ("net.downloaded_gb", t.downloaded as f64 / 1e9),
            ("net.advance_ns", r.advance_ns),
            ("sla.oo_series_ms", span_ms("replay.sla.oo_series")),
            ("sla.window_rows", t.drain_rows as f64),
            ("sla.drain_us_p50", drain_p50 / 1e3),
            ("sla.ordered_mb", rep.ordered_mb / runs),
            (
                "sla.ticket_met_frac",
                rep.tickets_met as f64 / rep.tickets.max(1) as f64,
            ),
            ("chaos.compile_ms", span_ms("replay.chaos.compile")),
            ("chaos.exec_failures", t.faults.exec_failures as f64),
            ("chaos.timeouts", t.faults.transfer_timeouts as f64),
            ("chaos.retries", t.faults.transfer_retries as f64),
            ("chaos.redispatches", t.faults.redispatches as f64),
            (
                "chaos.useful_exec_frac",
                t.completed as f64 / (t.completed + t.faults.exec_failures).max(1) as f64,
            ),
            ("chaos.dormant_over_clean", chaos_ratio),
            ("econ.broker_ns_p50", broker_p50),
            ("econ.spot_revocations", t.spot_revocations as f64),
            ("econ.net_cost_usd", t.net_cost_usd),
            ("econ.dormant_over_clean", econ_ratio),
            ("trace.overhead", overhead),
        ]
    }

    /// Which tail percentile each `_p99` metric reports, for the log.
    pub fn tail_notes(&self) -> String {
        let label = |n: u64| match tail_per_mille(n) {
            Some(q) => format!("p{} of {n}", q as f64 / 10.0),
            None => format!("max of {n}"),
        };
        format!(
            "sim.event_us_p99 = {}; sched.snapshot_us_p99 = {}",
            label(self.steps.n),
            label(self.snapshot_ns.len() as u64)
        )
    }

    /// Writes every span as one JSON line:
    /// `{"id","parent","name","start_ns","end_ns"}`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The engine's start-up QRSM fit, as `EngineWorld` builds it: training
/// corpus from the run's `qrsm/training` stream, then the pooled fit.
fn training_fit(cfg: &ExperimentConfig) -> QrsModel {
    let mut rng = RngFactory::new(cfg.seed).stream("qrsm/training");
    let corpus = training_corpus(&mut rng, &cfg.truth, cfg.training_docs.max(64));
    let xs: Vec<Vec<f64>> = corpus.iter().map(|(f, _)| f.regressors()).collect();
    let ys: Vec<f64> = corpus.iter().map(|(_, t)| *t).collect();
    QrsModel::fit(&xs, &ys, cfg.fit.to_method()).expect("training corpus supports a quadratic fit")
}

fn estate_shape(cfg: &ExperimentConfig) -> EstateShape {
    EstateShape {
        n_ic: cfg.n_ic as u32,
        ec_machines: std::iter::once(cfg.n_ec)
            .chain(cfg.extra_ec_sites.iter().map(|s| s.n_machines))
            .map(|n| n.max(1) as u32)
            .collect(),
    }
}

/// `(observations, ns per observe_queued, µs per refit)` over the docs'
/// features and true service times.
fn replay_qrsm(cfg: &ExperimentConfig, docs: &[Job]) -> (u64, f64, f64) {
    let mut model = training_fit(cfg).with_refit_every(1);
    let (mut observe_ns, mut refit_ns, mut refits) = (0u64, 0u64, 0u64);
    for chunk in docs.chunks(OBSERVES_PER_REFIT) {
        let t = Instant::now();
        for d in chunk {
            model.observe_queued(&d.features.regressors_arr(), d.true_service_secs);
        }
        observe_ns += elapsed_ns(t);
        let t = Instant::now();
        black_box(model.refit().is_ok());
        refit_ns += elapsed_ns(t);
        refits += 1;
    }
    let n = docs.len() as u64;
    (
        n,
        observe_ns as f64 / n.max(1) as f64,
        refit_ns as f64 / 1e3 / refits.max(1) as f64,
    )
}

/// ns per FCFS commit of the recorded estimate costs onto `machines`.
fn replay_fcfs(machines: usize, costs: &[f64]) -> f64 {
    let mut index = FreeTimeIndex::new();
    index.reset_from(&vec![0.0; machines.max(1)]);
    let t = Instant::now();
    let mut sink = 0usize;
    for &c in costs {
        sink ^= index.fcfs_commit(c);
    }
    black_box(sink);
    elapsed_ns(t) as f64 / costs.len().max(1) as f64
}

/// ns per job to submit every doc to an IC-shaped pool and run it dry.
fn replay_dispatch(cfg: &ExperimentConfig, docs: &[Job]) -> f64 {
    let mut cloud: Cloud<JobId> = Cloud::homogeneous("replay", cfg.n_ic.max(1), cfg.ic_speed);
    let mut done = Vec::new();
    let t = Instant::now();
    for d in docs {
        cloud.submit(SimTime::ZERO, d.id, d.true_service_secs);
    }
    while let Some(at) = cloud.next_wake() {
        cloud.advance_into(at, &mut done);
    }
    let ns = elapsed_ns(t);
    assert_eq!(done.len(), docs.len(), "replayed pool must run every job");
    ns as f64 / docs.len().max(1) as f64
}

/// ns per transfer to push the payloads through the run's upload link,
/// [`LINK_IN_FLIGHT`] at a time.
fn replay_link(cfg: &ExperimentConfig, payloads: &[u64]) -> f64 {
    let mut link = Link::new(cfg.upload_model.clone(), cfg.kappa, cfg.link_slot)
        .with_latency(cfg.last_hop_latency);
    let mut done = Vec::new();
    let t = Instant::now();
    for (i, &bytes) in payloads.iter().enumerate() {
        while link.in_flight() >= LINK_IN_FLIGHT {
            let at = link.next_wake().expect("a busy link has a next wake");
            link.advance_into(at, &mut done);
        }
        link.start(link.now(), TransferId(i as u64), bytes, LINK_THREADS);
    }
    while let Some(at) = link.next_wake() {
        link.advance_into(at, &mut done);
    }
    let ns = elapsed_ns(t);
    assert_eq!(
        done.len(),
        payloads.len(),
        "replayed link must deliver every payload"
    );
    ns as f64 / payloads.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        for n in 0..5_000u64 {
            if let Some(q) = tail_per_mille(n) {
                assert!(
                    n - rank(n, q) >= MIN_BEYOND,
                    "p{q}‰ of {n} has too few beyond"
                );
            }
        }
        assert_eq!(
            tail_per_mille(1_000),
            Some(990),
            "1 000 samples support p99"
        );
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(
            tail_per_mille(39),
            None,
            "too few for any tail: report the max"
        );

        let mut few: Vec<u64> = (1..=30).collect();
        assert_eq!(
            summarize(&mut few),
            (15.0, 30.0),
            "30 samples: p50 and the max"
        );
        let mut many: Vec<u64> = (1..=1_000).collect();
        assert_eq!(summarize(&mut many), (500.0, 990.0));
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_tight() {
        let mut prev = 0;
        for v in 0..100_000u64 {
            let b = LogHistogram::bucket(v);
            assert!(b == prev || b == prev + 1, "bucket jumped at {v}");
            prev = b;
            let mid = LogHistogram::midpoint(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 8.0 + 0.5,
                "{v} -> {mid}"
            );
        }
        let mut h = LogHistogram::new();
        for v in 1..=1_000u64 {
            h.add(v * 1_000);
        }
        let (p50, p99) = h.summarize();
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.07, "{p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.07, "{p99}");
    }
}
