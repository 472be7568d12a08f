//! The four workloads and the code that runs one pass ("rep") over a
//! workload's runs through the engine's public API.

use std::time::Instant;

use cloudburst_bench::price_regimes;
use cloudburst_chaos::{CrashLaw, FaultProfile};
use cloudburst_core::config::EcSiteConfig;
use cloudburst_core::engine::EngineWorld;
use cloudburst_core::{
    run_with_batches, EngineHarness, ExperimentConfig, SchedulerKind, ServeConfig, ServeHarness,
};
use cloudburst_econ::{EconConfig, Money, PriceModel};
use cloudburst_sim::{RngFactory, SimDuration, SimTime};
use cloudburst_sla::{WindowConfig, WindowStats};
use cloudburst_testsupport::{high_water_bytes, live_bytes, reset_high_water};
use cloudburst_workload::{BatchArrivals, OpenArrivalConfig, RateEnvelope, SizeBucket};

use crate::gauge::Gauge;
use crate::trace::Tracer;

/// Closed serve windows are drained every this many events, so the row
/// buffer inside the engine stays O(1).
pub const DRAIN_EVERY: u64 = 65_536;

/// The untraced stepping loop offers the host gauge a slice every this
/// many steps.
const TICK_STEPS: u64 = 256;

/// A named set of runs. See the README for why each one exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ClosedOp,
    ServeDiurnal,
    ChaosEcon,
    PaperSweep,
}

/// The schedulers the paper sweep runs, each over every size bucket.
const SWEEP_SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::IcOnly,
    SchedulerKind::Greedy,
    SchedulerKind::OrderPreserving,
    SchedulerKind::OrderPreservingNoChunk,
    SchedulerKind::Sibs,
];

/// `full × scale`, rounded, at least 1.
fn scaled(full: u64, scale: f64) -> u64 {
    ((full as f64 * scale).round() as u64).max(1)
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClosedOp,
        Workload::ServeDiurnal,
        Workload::ChaosEcon,
        Workload::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedOp => "closed-op",
            Workload::ServeDiurnal => "serve-diurnal",
            Workload::ChaosEcon => "chaos-econ",
            Workload::PaperSweep => "paper-sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How much harder than the host gauge this workload's run slows under
    /// contention (see `gauge.rs`): the heap-heavy runs slow with it, the
    /// small-working-set ones harder.
    pub fn run_elasticity(self) -> f64 {
        match self {
            Workload::ClosedOp | Workload::ChaosEcon => 1.0,
            Workload::ServeDiurnal | Workload::PaperSweep => 1.5,
        }
    }

    /// The runs of one rep, made from `seed`; `scale` 1.0 is full size.
    pub fn configs(self, seed: u64, scale: f64) -> Vec<ExperimentConfig> {
        match self {
            Workload::ClosedOp => vec![closed_op(seed, scale)],
            Workload::ServeDiurnal => vec![serve_diurnal(seed, scale)],
            Workload::ChaosEcon => vec![chaos_econ(seed, scale)],
            Workload::PaperSweep => (0..scaled(130, scale))
                .flat_map(|i| {
                    SWEEP_SCHEDULERS.into_iter().flat_map(move |kind| {
                        SizeBucket::ALL
                            .into_iter()
                            .map(move |b| paper(kind, b, seed.wrapping_add(i)))
                    })
                })
                .collect(),
        }
    }
}

/// ≈ 100k documents in 10 batches on the 256 + 64 megascale estate.
pub fn closed_op(seed: u64, scale: f64) -> ExperimentConfig {
    ExperimentConfig::megascale(SchedulerKind::OrderPreserving, scaled(100_000, scale), seed)
}

/// One paper-testbed run on a single shard worker. With auto workers the
/// ~15-job batches spend more on thread start-up than the fan-out saves
/// (runs 2.5x slower), and thread start-up is the noisiest work on a
/// shared host: pinned, the sweep's spread across runs halves.
fn paper(kind: SchedulerKind, bucket: SizeBucket, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        shard_workers: Some(1),
        ..ExperimentConfig::paper(kind, bucket, seed)
    }
}

/// One virtual day of diurnal demand (±80 %) on the megascale estate at
/// speed 25: 480 three-minute epochs of 750 documents (mean). No flash
/// crowds: the peak heap would follow the largest crowd a seed happens to
/// draw (4.7–17.6 MB over five seeds), too unsteady for a bounded metric.
fn serve_diurnal(seed: u64, scale: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, 1, seed);
    cfg.ic_speed = 25.0;
    cfg.ec_speed = 25.0;
    let epoch = SimDuration::from_secs(180);
    cfg.serve = Some(ServeConfig {
        arrivals: OpenArrivalConfig {
            epoch,
            jobs_per_epoch: 750.0,
            bucket: cfg.arrivals.bucket,
            envelope: RateEnvelope::diurnal(0.8, 0.0),
            burst: None,
        },
        horizon: epoch * scaled(480, scale),
        window: WindowConfig {
            window: SimDuration::from_mins(15),
            oo_tolerance: 0,
        },
    });
    cfg
}

/// ≈ 60k SIBS documents with rescheduling, three priced extra EC sites,
/// the spot-revocable regime under the cost-aware broker, and crashes,
/// transfer stalls and losses, and exec failures armed.
fn chaos_econ(seed: u64, scale: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::megascale(SchedulerKind::Sibs, scaled(60_000, scale), seed);
    cfg.rescheduling = true;
    let site = |cents_per_hour: i64| EcSiteConfig {
        n_machines: 32,
        speed: 1.0,
        upload_model: cfg.upload_model.clone(),
        download_model: cfg.download_model.clone(),
        price: Some(PriceModel::OnDemand {
            usd_per_machine_hour: Money::from_cents(cents_per_hour),
            usd_per_gb_transfer: Money::from_cents(9),
        }),
    };
    cfg.extra_ec_sites = vec![site(240), site(180), site(300)];
    let (_, spot) = price_regimes()
        .into_iter()
        .find(|(name, _)| *name == "spot-revocable")
        .expect("the econ sweep defines a spot-revocable regime");
    cfg.econ = Some(spot);
    let crash = CrashLaw {
        mean_uptime_secs: 20_000.0,
        mean_downtime_secs: 600.0,
        max_faults_per_machine: 2,
    };
    cfg.faults = Some(FaultProfile {
        ic_crash: Some(crash),
        ec_crash: Some(crash),
        transfer_stall_prob: 0.01,
        transfer_loss_prob: 0.01,
        exec_failure_prob: 0.02,
        ..FaultProfile::dormant()
    });
    cfg
}

/// What one rep produced, summed over the workload's runs.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub runs: u64,
    pub admitted: u64,
    pub completed: u64,
    /// Host seconds of workload generation plus harness construction.
    pub setup_secs: f64,
    /// Host seconds of stepping the engine dry plus `finish`.
    pub run_secs: f64,
    /// Mean host gauge slice seconds over the rep (0 for the traced pass).
    pub slice_secs: f64,
    /// Highest live-heap high-water of any run, above the live heap at the
    /// run's start.
    pub peak_bytes: usize,
    /// FNV-1a over every run's serialized report (and serve rows).
    pub digest: u64,
    /// Eq. 7 makespan (serve: drain instant), simulated seconds, summed.
    pub makespan_secs: f64,
    /// Time-averaged ordered output o_t (Eq. 6), MB, summed.
    pub ordered_mb: f64,
    pub tickets_met: u64,
    pub tickets: u64,
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The two engine harnesses, seen the same way by the stepping loops.
pub trait Stepper {
    /// Open-system serving (windows to drain) rather than a closed batch.
    const SERVE: bool;
    fn step(&mut self) -> bool;
    fn now(&self) -> SimTime;
    fn world_mut(&mut self) -> &mut EngineWorld;
    /// Jobs admitted so far; a step that raises it was an admission.
    fn admitted(&self) -> u64;
}

impl Stepper for EngineHarness {
    const SERVE: bool = false;
    fn step(&mut self) -> bool {
        EngineHarness::step(self)
    }
    fn now(&self) -> SimTime {
        EngineHarness::now(self)
    }
    fn world_mut(&mut self) -> &mut EngineWorld {
        EngineHarness::world_mut(self)
    }
    fn admitted(&self) -> u64 {
        self.world().timelines().len() as u64
    }
}

impl Stepper for ServeHarness {
    const SERVE: bool = true;
    fn step(&mut self) -> bool {
        ServeHarness::step(self)
    }
    fn now(&self) -> SimTime {
        ServeHarness::now(self)
    }
    fn world_mut(&mut self) -> &mut EngineWorld {
        ServeHarness::world_mut(self)
    }
    fn admitted(&self) -> u64 {
        self.world().serve_admitted_jobs()
    }
}

/// Steps `h` until its event queue is empty, draining closed serve windows
/// into `rows` every [`DRAIN_EVERY`] events and offering `gauge` a slice
/// every [`TICK_STEPS`]. The traced variant lives in [`Tracer::drive`] and
/// keeps the same drain cadence.
fn drive<H: Stepper>(h: &mut H, tr: &mut Tracer, gauge: &mut Gauge, rows: &mut Vec<WindowStats>) {
    if tr.enabled() {
        return tr.drive(h, rows);
    }
    let mut fired = 0u64;
    while h.step() {
        fired += 1;
        if H::SERVE && fired.is_multiple_of(DRAIN_EVERY) {
            rows.append(&mut h.world_mut().drain_serve_windows());
        }
        if fired.is_multiple_of(TICK_STEPS) {
            gauge.tick();
        }
    }
}

/// Runs every config of one rep of `workload`, timing it on `gauge`'s
/// clock and offering the gauge a slice before each run.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    scale: f64,
    tr: &mut Tracer,
    gauge: &mut Gauge,
) -> Rep {
    let mut rep = Rep::default();
    let mut fnv = Fnv::new();
    gauge.restart();
    for cfg in workload.configs(seed, scale) {
        gauge.tick();
        // The peak counts what the run holds above the harness's own live
        // heap, such as the config list and the host gauge's buffers.
        reset_high_water();
        let base = live_bytes();
        if cfg.serve.is_some() {
            run_serve(&cfg, tr, gauge, &mut fnv, &mut rep, base);
        } else {
            run_closed(&cfg, tr, gauge, &mut fnv, &mut rep, base);
        }
    }
    rep.digest = fnv.0;
    rep.slice_secs = gauge.mean_slice_secs();
    rep
}

fn run_closed(
    cfg: &ExperimentConfig,
    tr: &mut Tracer,
    gauge: &mut Gauge,
    fnv: &mut Fnv,
    rep: &mut Rep,
    heap_base: usize,
) {
    let setup = tr.enter("setup");
    let t0 = gauge.clock();
    let span = tr.enter("generate");
    let batches =
        BatchArrivals::new(cfg.arrivals.clone()).generate(&RngFactory::new(cfg.seed), &cfg.truth);
    tr.exit(span);
    tr.note_batches(&batches);
    let span = tr.enter("new");
    let mut h = EngineHarness::new(cfg, batches);
    tr.exit(span);
    rep.setup_secs += gauge.clock() - t0;
    tr.exit(setup);

    let t0 = gauge.clock();
    let span = tr.enter("run");
    drive(&mut h, tr, gauge, &mut Vec::new());
    tr.exit(span);
    rep.runs += 1;
    let admitted = Stepper::admitted(&h);
    rep.admitted += admitted;
    let stuck = h.world().outstanding_jobs() as u64;
    if stuck > 0 {
        // `finish` would panic on the deadlock; count the stuck jobs and
        // poison the digest instead.
        rep.completed += admitted - stuck;
        fnv.write(b"undrained");
        return;
    }
    let span = tr.enter("finish");
    let (report, world) = h.finish();
    tr.exit(span);
    rep.run_secs += gauge.clock() - t0;
    rep.peak_bytes = rep
        .peak_bytes
        .max(high_water_bytes().saturating_sub(heap_base));

    rep.completed += report.completion_times.len() as u64;
    rep.makespan_secs += report.makespan_secs;
    rep.ordered_mb += report.mean_ordered_bytes() / 1e6;
    rep.tickets += report.tickets.len() as u64;
    rep.tickets_met += report.tickets.iter().filter(|t| t.met()).count() as u64;
    tr.after_closed(cfg, &report, &world);
    fnv.write(
        serde_json::to_string(&report)
            .expect("reports serialize")
            .as_bytes(),
    );
}

fn run_serve(
    cfg: &ExperimentConfig,
    tr: &mut Tracer,
    gauge: &mut Gauge,
    fnv: &mut Fnv,
    rep: &mut Rep,
    heap_base: usize,
) {
    let setup = tr.enter("setup");
    let t0 = gauge.clock();
    let span = tr.enter("new");
    let mut h = ServeHarness::new(cfg);
    tr.exit(span);
    rep.setup_secs += gauge.clock() - t0;
    tr.exit(setup);

    let t0 = gauge.clock();
    let span = tr.enter("run");
    let mut rows = Vec::new();
    drive(&mut h, tr, gauge, &mut rows);
    tr.exit(span);
    rep.runs += 1;
    let admitted = Stepper::admitted(&h);
    rep.admitted += admitted;
    let live = h.world().serve_live_jobs();
    if live > 0 {
        rep.completed += admitted - live;
        fnv.write(b"undrained");
        return;
    }
    let span = tr.enter("finish");
    let (mut report, world) = h.finish();
    tr.exit(span);
    rep.run_secs += gauge.clock() - t0;
    rep.peak_bytes = rep
        .peak_bytes
        .max(high_water_bytes().saturating_sub(heap_base));

    // Rows drained mid-run and the report's remaining rows form one
    // series; hashing it apart from the report keeps the digest
    // independent of the drain cadence.
    rows.append(&mut report.windows);
    rep.completed += report.jobs_completed;
    rep.makespan_secs += report.drained_at_secs;
    rep.ordered_mb +=
        rows.iter().map(|w| w.ordered_bytes as f64).sum::<f64>() / rows.len().max(1) as f64 / 1e6;
    rep.tickets_met += rows.iter().map(|w| w.tickets_met).sum::<u64>();
    rep.tickets += rows
        .iter()
        .map(|w| w.tickets_met + w.tickets_missed)
        .sum::<u64>();
    tr.after_serve(cfg, &report, &rows, &world);
    for row in &rows {
        fnv.write(
            serde_json::to_string(row)
                .expect("rows serialize")
                .as_bytes(),
        );
    }
    fnv.write(
        serde_json::to_string(&report)
            .expect("reports serialize")
            .as_bytes(),
    );
}

/// Chaos and econ dormant-over-clean throughput ratios (ROADMAP A.5) on
/// `base`, a fault-free, econ-free closed config. Each twin times three
/// interleaved clean/dormant pairs, alternating which side runs first, and
/// reports the best clean secs ÷ the best dormant secs (above 1: the
/// dormant side ran faster). Also returns the jobs run, and the jobs of
/// every pair whose two reports differ — a dormant section must change
/// nothing.
pub fn dormant_ratios(base: &ExperimentConfig, tr: &mut Tracer) -> ((f64, f64), u64, u64) {
    let batches = BatchArrivals::new(base.arrivals.clone())
        .generate(&RngFactory::new(base.seed), &base.truth);
    let (mut jobs_run, mut mismatched) = (0, 0);
    let mut twin = |name: &'static str, dormant: ExperimentConfig| {
        let span = tr.enter(name);
        let mut best = [f64::MAX; 2];
        for pair in 0..3 {
            let mut reports = [String::new(), String::new()];
            let mut jobs = 0;
            for side in [pair % 2, 1 - pair % 2] {
                let run = tr.enter(["clean", "dormant"][side]);
                let t0 = Instant::now();
                let (report, _) = run_with_batches([base, &dormant][side], batches.clone());
                best[side] = best[side].min(t0.elapsed().as_secs_f64());
                tr.exit(run);
                jobs = report.n_jobs as u64;
                jobs_run += jobs;
                reports[side] = serde_json::to_string(&report).expect("reports serialize");
            }
            if reports[0] != reports[1] {
                mismatched += jobs;
            }
        }
        tr.exit(span);
        best[0] / best[1]
    };
    let chaos = twin(
        "dormant.chaos",
        ExperimentConfig {
            faults: Some(FaultProfile::dormant()),
            ..base.clone()
        },
    );
    let econ = twin(
        "dormant.econ",
        ExperimentConfig {
            econ: Some(EconConfig::default()),
            ..base.clone()
        },
    );
    ((chaos, econ), jobs_run, mismatched)
}
