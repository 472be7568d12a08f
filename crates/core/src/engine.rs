//! The discrete-event cloud-bursting pipeline (Fig. 5).
//!
//! One [`EngineWorld`] holds the whole system: the IC pool, one or more EC
//! sites (each with its own upload/download pipe and queues), the estimate
//! provider, and the scheduler under test. Events drive the pipeline:
//!
//! 1. a **batch arrival** invokes the controller, which snapshots the
//!    estimated load, runs the scheduler, re-indexes (possibly chunked)
//!    jobs into the global FCFS id space, and dispatches placements;
//! 2. the **engine wake**, one event armed at the earliest link, cloud or
//!    chaos-timer deadline, advances every component: completed uploads
//!    submit to the EC, completed downloads land results in the result
//!    queue, IC completions go straight to the result queue, and EC
//!    completions enter the download queue;
//! 3. every completion feeds the autonomic models (QRSM window, bandwidth
//!    EWMAs, thread tuners) — the system learns while it runs.
//!
//! Ground truth (service times, link capacity) is only ever touched by the
//! simulation itself; the scheduler sees estimates. This split is what lets
//! the experiments reproduce the paper's robustness comparisons.

use cloudburst_chaos::{sample_spot_revocations, EstateShape, FaultPlan, FaultProfile, Pool};
use cloudburst_cluster::{Cloud, ExecCompletion, MachineId};
use cloudburst_econ::{AdmissionPolicy, BrokerPolicy, CostMetrics, Money, PenaltySchedule, PriceModel};
use cloudburst_net::link::{CapacityFault, Completion};
use cloudburst_net::queues::{SibsCandidate, SibsQueues, SizeClass};
use cloudburst_net::{BandwidthModel, Link, SibsBounds, TransferId};
use cloudburst_sched::api::Planner;
#[cfg(test)]
use cloudburst_sched::drain::fluid_fill_level;
use cloudburst_sched::drain::{FluidScratch, DRAIN_WINDOW};
use cloudburst_sched::resched::{
    eq1_slack, pull_back_candidate, push_out_candidate, PullBackCandidate,
};
use cloudburst_sched::{
    batch_jobs, scheduled_len, BatchPlan, EstimateProvider, FreeTimeIndex, LoadModel,
    OutstandingSet, Placement, ScheduledJob,
};
use cloudburst_sim::{EventId, FxHashMap, RngFactory, Sim, SimDuration, SimTime};
use cloudburst_sla::{
    metrics, oo_series, CompletionRecord, FaultMetrics, RunReport, ServeReport, WindowSeries,
    WindowStats,
};
use cloudburst_workload::{BatchArrivals, Job, JobId, JobType, OpenArrivals};

use crate::config::{EcSiteConfig, ExperimentConfig, SchedulerKind};
#[cfg(test)]
use crate::timeline::Stamp;
use crate::timeline::{
    JobTimeline, Stage, TimelineRow, TimelineStore, Timelines, TransferStamps, NO_TRANSFER,
};

/// Size of the autonomic probe transfers (Sec. III-A-2: "periodic test
/// uploads/downloads of size 1MB").
const PROBE_BYTES: u64 = 1_000_000;

/// Writes `v` into slot `idx` of a per-job column: a fresh slot
/// (`idx == len`) is pushed, a recycled one is overwritten in place.
fn put<T>(col: &mut Vec<T>, idx: usize, v: T) {
    if idx == col.len() {
        col.push(v);
    } else {
        col[idx] = v;
    }
}

/// Integer-tick drain weight a queued job contributes to its pool: its
/// estimated wall seconds on that pool, rounded to microsecond ticks.
/// Integer ticks make the Cloud's maintained queue total exactly
/// invertible under push/pop/cancel in any order — f64 sums are not.
fn drain_cost_ticks(est_exec: &[f64], id: JobId, speed: f64) -> u64 {
    SimDuration::from_secs_f64(est_exec[id.0 as usize] / speed).as_micros()
}

/// Free-time sentinel for a crashed machine: "never frees" while staying
/// finite, because `SimDuration::from_secs_f64` saturates non-finite input
/// to zero — an `INFINITY` sentinel would wrap to "free now" the moment a
/// drain converts it back into a duration.
const DEAD_FREE_SECS: f64 = 1_000_000_000.0;

/// Max over machine free-times that still count as live (crashed machines
/// must not donate their sentinel as Eq. 1 cushion).
fn live_max(free: &[f64]) -> f64 {
    free.iter().copied().filter(|v| *v < DEAD_FREE_SECS).fold(0.0, f64::max)
}

/// Fills `buf` with estimated seconds until each machine frees from its
/// *running* job only (scheduler-side estimates, never ground truth).
/// Reuses `buf`'s capacity; free function so callers can borrow disjoint
/// `EngineWorld` fields.
fn fill_running_free(
    est_exec: &[f64],
    buf: &mut Vec<f64>,
    cloud: &Cloud<JobId>,
    speed: f64,
    now: SimTime,
) {
    buf.clear();
    buf.resize(cloud.n_machines(), 0.0);
    for (key, machine, started) in cloud.running_detail() {
        let est = est_exec[key.0 as usize];
        let elapsed_std = (now - started).as_secs_f64() * speed;
        buf[machine.0] = (est - elapsed_std).max(0.0) / speed;
    }
    if cloud.failed_machines() > 0 {
        for (i, v) in buf.iter_mut().enumerate() {
            if cloud.is_failed(MachineId(i)) {
                *v = DEAD_FREE_SECS;
            }
        }
    }
}

/// The depth-flat hybrid drain's one decision. Past [`DRAIN_WINDOW`]
/// queued jobs, the maintained integer-tick cost of all but the last
/// `DRAIN_WINDOW` water-fills the live entries of `free` (the running
/// free-times) to a common level — O(m log m), independent of queue depth
/// — and `DRAIN_WINDOW` tail jobs are left to replay exactly. At or below
/// the window, or with every machine dead (depth-flatness is moot then),
/// `free` is untouched and the whole queue replays. Returns the tail
/// length, for `cloud.queued_tail`.
fn drain_prefix(fluid: &mut FluidScratch, free: &mut [f64], cloud: &Cloud<JobId>) -> usize {
    let q = cloud.queued();
    if q > DRAIN_WINDOW {
        let tail_ticks: u64 = cloud.queued_tail(DRAIN_WINDOW).map(|(_, t)| t).sum();
        let prefix_secs =
            SimDuration::from_micros(cloud.queued_cost_ticks() - tail_ticks).as_secs_f64();
        if fluid.fill(free, prefix_secs, DEAD_FREE_SECS).is_some() {
            return DRAIN_WINDOW;
        }
    }
    q
}

/// Fills `buf` with estimated seconds until each machine frees, including
/// the FCFS drain of the queue: the [`drain_prefix`] fill, then its tail
/// replayed through the tournament tree in O(log m) per job, bitwise
/// identical to the rescan oracle `EngineWorld::est_free_secs`.
fn fill_est_free(
    est_exec: &[f64],
    ft: &mut FreeTimeIndex,
    fluid: &mut FluidScratch,
    buf: &mut Vec<f64>,
    cloud: &Cloud<JobId>,
    speed: f64,
    now: SimTime,
) {
    fill_running_free(est_exec, buf, cloud, speed, now);
    let tail = drain_prefix(fluid, buf, cloud);
    ft.reset_from(buf);
    for (key, _) in cloud.queued_tail(tail) {
        let est = est_exec[key.0 as usize];
        ft.fcfs_commit(est / speed);
    }
    buf.clear();
    buf.extend_from_slice(ft.values());
}

/// What an in-flight transfer carries.
#[derive(Clone, Copy, Debug)]
enum Payload {
    /// A job's input (upload) or result (download).
    Job(JobId),
    /// An autonomic probe.
    Probe,
}

/// One transfer direction of an EC site: its link, queues, slots and
/// in-flight transfers. Uploads queue by size class behind one slot per
/// class under SIBS routing; otherwise every job queues as `Small` behind
/// a single `Large` slot (which serves all classes), i.e. one FIFO pipe.
/// Downloads always use the FIFO layout.
struct Pipe {
    link: Link,
    queues: SibsQueues<JobId>,
    slots: Vec<(SizeClass, Option<TransferId>)>,
    /// Transfer bookkeeping: id → payload and thread count. Ids are dense
    /// trusted integers, so the map uses the fast in-tree Fx hasher.
    in_flight: FxHashMap<TransferId, (Payload, u32)>,
    /// Job payload bytes this pipe has carried (probes excluded).
    moved_bytes: u64,
}

impl Pipe {
    fn new(link: Link, classes: &[SizeClass]) -> Pipe {
        Pipe {
            link,
            queues: SibsQueues::new(),
            slots: classes.iter().map(|&c| (c, None)).collect(),
            in_flight: FxHashMap::default(),
            moved_bytes: 0,
        }
    }

    /// Estimated backlog in bytes: queued plus in-flight remainder. Reads
    /// the link through its epoch-boundary snapshot.
    fn backlog_bytes(&self) -> u64 {
        let (s, m, l) = self.queues.queued_bytes();
        s + m + l + self.link.boundary().remaining_bytes
    }

    /// Jobs queued or in flight on this pipe.
    fn jobs(&self) -> usize {
        self.queues.len()
            + self.in_flight.values().filter(|(p, _)| matches!(p, Payload::Job(_))).count()
    }

    /// Frees the slot that carried transfer `tid`.
    fn free_slot(&mut self, tid: TransferId) {
        if let Some(slot) = self.slots.iter_mut().find(|(_, t)| *t == Some(tid)) {
            slot.1 = None;
        }
    }
}

/// One external-cloud site: compute pool plus its own pipes and queues.
struct EcSite {
    cloud: Cloud<JobId>,
    /// The site's machine speed (`EcSiteConfig::speed`; the primary's is
    /// `ExperimentConfig::ec_speed`): what the engine scales this pool's
    /// estimates and observed execution times by.
    speed: f64,
    up: Pipe,
    down: Pipe,
    /// The latest size-interval bounds a batch planned for this site:
    /// only `SchedulerKind::Sibs` derives any, so uploads of every other
    /// kind stay in one queue.
    sibs_bounds: Option<SibsBounds>,
}

impl EcSite {
    fn new(cfg: &ExperimentConfig, site_cfg: &EcSiteConfig, sibs: bool, name: String) -> EcSite {
        let link = |model: &BandwidthModel| {
            Link::new(model.clone(), cfg.kappa, cfg.link_slot).with_latency(cfg.last_hop_latency)
        };
        let fifo = [SizeClass::Large];
        EcSite {
            cloud: Cloud::homogeneous(name, site_cfg.n_machines.max(1), site_cfg.speed),
            speed: site_cfg.speed,
            up: Pipe::new(link(&site_cfg.upload_model), if sibs { &SizeClass::ALL } else { &fifo }),
            down: Pipe::new(link(&site_cfg.download_model), &fifo),
            sibs_bounds: None,
        }
    }

    fn pipe(&mut self, upload: bool) -> &mut Pipe {
        if upload {
            &mut self.up
        } else {
            &mut self.down
        }
    }

    /// Jobs anywhere in this site's pipeline (upload queue/flight, EC
    /// queue/exec, download queue/flight).
    fn pipeline_jobs(&self) -> usize {
        let pool = self.cloud.boundary();
        self.up.jobs() + pool.queued + pool.running + self.down.jobs()
    }
}

/// The scheduler's snapshot over the freshly refilled load-model buffers,
/// with `site` (the broker's pick) as its EC view. A free function over
/// field borrows, so the snapshot stays disjoint from the world's
/// scheduler and estimates.
fn load_model<'a>(
    now: SimTime,
    ic_free_secs: &'a [f64],
    ec_free_secs: &'a [f64],
    ic_speed: f64,
    site: &EcSite,
    outstanding: &'a OutstandingSet,
) -> LoadModel<'a> {
    LoadModel {
        now,
        ic_free_secs,
        ec_free_secs,
        ic_speed,
        ec_speed: site.speed,
        upload_backlog_bytes: site.up.backlog_bytes(),
        download_backlog_bytes: site.down.backlog_bytes(),
        upload_queued_bytes: site.up.queues.queued_bytes(),
        outstanding_est_completions: outstanding.values(),
    }
}

/// A pending chaos-recovery timer, fired by `process_chaos_timers` in
/// (deadline, seq) order at the first wake that reaches the deadline.
/// `upload` picks the site's pipe.
#[derive(Clone, Copy, Debug)]
enum ChaosTimer {
    /// An in-flight transfer's recovery deadline.
    Timeout { site: usize, upload: bool, tid: TransferId, started: SimTime },
    /// Backoff expiry: re-queue the job's transfer at the head of its queue.
    Retry { site: usize, upload: bool, id: JobId },
}

/// A heap entry for the pending-timer queue. `Ord` is reversed on
/// (deadline, seq) so `BinaryHeap` (a max-heap) pops the earliest timer
/// first, with the arming sequence breaking deadline ties.
struct TimerEntry {
    at: SimTime,
    seq: u64,
    timer: ChaosTimer,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Live chaos bookkeeping. `EngineWorld::chaos` is `None` whenever the
/// compiled plan is empty, so a dormant profile leaves every code path —
/// and therefore every byte of the run — identical to a fault-free one.
struct ChaosState {
    plan: FaultPlan,
    /// Failed attempts so far per job slot (reset on admission); the
    /// current attempt index keys the plan's hashed per-attempt deciders.
    attempts: Vec<Attempts>,
    /// Pending recovery timers, ordered by (deadline, seq): peeking the
    /// next deadline and popping the earliest matured timer are O(1) and
    /// O(log n) instead of the linear rescans the unordered Vec needed.
    timers: std::collections::BinaryHeap<TimerEntry>,
    /// Rescan oracle for `timers`: the unordered set the heap replaced.
    /// Test builds mirror every arm/pop and assert the heap's choice
    /// matches the linear (deadline, seq)-minimum scan.
    #[cfg(test)]
    timers_oracle: Vec<(SimTime, u64, ChaosTimer)>,
    /// Tie-break sequence for timers sharing a deadline.
    seq: u64,
    metrics: FaultMetrics,
}

/// One job's failed attempts per stage.
#[derive(Clone, Copy, Debug, Default)]
struct Attempts {
    exec: u32,
    up: u32,
    down: u32,
}

impl Attempts {
    fn transfer(&mut self, upload: bool) -> &mut u32 {
        if upload {
            &mut self.up
        } else {
            &mut self.down
        }
    }
}

impl ChaosState {
    fn arm(&mut self, at: SimTime, timer: ChaosTimer) {
        let seq = self.seq;
        self.seq += 1;
        self.timers.push(TimerEntry { at, seq, timer });
        #[cfg(test)]
        self.timers_oracle.push((at, seq, timer));
    }

    /// Pops the earliest matured timer, in (deadline, seq) order.
    fn pop_matured(&mut self, now: SimTime) -> Option<ChaosTimer> {
        let e = match self.timers.peek_mut() {
            Some(top) if top.at <= now => std::collections::binary_heap::PeekMut::pop(top),
            _ => {
                #[cfg(test)]
                assert!(
                    !self.timers_oracle.iter().any(|&(t, _, _)| t <= now),
                    "heap says no matured timer but the rescan oracle found one"
                );
                return None;
            }
        };
        #[cfg(test)]
        {
            let i = self
                .timers_oracle
                .iter()
                .enumerate()
                .filter(|(_, (t, _, _))| *t <= now)
                .min_by_key(|(_, (t, s, _))| (*t, *s))
                .map(|(i, _)| i)
                .expect("oracle must agree a timer matured");
            let (t, s, _) = self.timers_oracle.swap_remove(i);
            assert_eq!((t, s), (e.at, e.seq), "heap pop diverged from the rescan oracle");
        }
        Some(e.timer)
    }

    /// Earliest timer deadline, one input to the engine wake (see `resync`).
    fn next_deadline(&self) -> Option<SimTime> {
        let next = self.timers.peek().map(|e| e.at);
        #[cfg(test)]
        assert_eq!(
            next,
            self.timers_oracle.iter().map(|&(t, _, _)| t).min(),
            "heap peek diverged from the rescan oracle"
        );
        next
    }
}

/// Live economics bookkeeping. `EngineWorld::econ` is `None` whenever the
/// config's econ section is dormant (or absent) and no site carries a
/// price, so an unpriced run leaves every code path — and therefore every
/// byte of the run — identical to a pre-econ one.
struct EconState {
    /// Deadline-miss penalty schedule.
    penalty: PenaltySchedule,
    /// Admission commitment policy.
    admission: AdmissionPolicy,
    /// Broker site-selection discipline.
    broker: BrokerPolicy,
    /// Price per EC site (index 0 = the primary site); `None` = free,
    /// like the IC.
    prices: Vec<Option<PriceModel>>,
    /// Hourly-rental high-water mark per site per machine: the first
    /// unpaid wall-clock hour index (see [`PriceModel::exec_charge`]).
    paid_until: Vec<Vec<u64>>,
    /// The realized dollar ledger.
    metrics: CostMetrics,
}

/// Open-system serving state. `EngineWorld::serve` is `None` in classic
/// closed-batch mode, so every serving branch is untaken there and a
/// closed run's bytes are identical to what they were before the mode
/// existed.
///
/// The memory contract: completed jobs return their id (= slot in every
/// per-job column) to the free list, the next admission pops it and
/// *overwrites* the slot instead of pushing (see [`put`]), and the
/// whole-run accumulators (`batch_decisions`, per-window aggregates) are
/// replaced by the streaming [`WindowSeries`] — so the columns plateau at
/// the live-job high-water mark no matter how many jobs stream through.
/// Each epoch that can raise that mark grows the columns by exactly the
/// slots it may take, and serving keeps no per-job timeline, so a slot
/// holds only what serving reads: the job, its estimate, its ticket
/// promise, its arrival sequence and its outstanding estimate.
struct ServeState {
    /// Lazy arrival generator; one epoch event is pending at any time.
    arrivals: OpenArrivals,
    /// Generation stops at the first epoch at or past this instant.
    horizon: SimTime,
    /// Streaming windowed aggregates (the `RunReport` replacement).
    windows: WindowSeries,
    /// Head of the recycled job ids (= slots), LIFO; [`NO_SLOT`] when
    /// every slot is live. Completion order is deterministic, so recycling
    /// is too.
    free_head: u64,
    /// Dense, never-recycled arrival sequence per live slot — the ordered
    /// consumption order the OO frontier runs on (job ids recycle; the
    /// sequence does not). A free slot's entry links the next free id
    /// instead, so the free list needs no column of its own.
    seq_of: Vec<u64>,
    /// Jobs placed externally at admission (closed mode's
    /// `batch_decisions`, collapsed to the counter serving actually needs).
    bursted_jobs: u64,
    /// Running total of delivered output bytes (windows may be drained
    /// incrementally, so the report cannot re-sum them at the end).
    output_bytes_total: u64,
    /// Peak live jobs across the run.
    live_high_water: u64,
    /// The generator reached the horizon; the pipeline is draining.
    arrivals_done: bool,
}

/// End of serving's free-slot list.
const NO_SLOT: u64 = u64::MAX;

impl ServeState {
    /// Takes the most recently freed slot, if any.
    fn pop_free(&mut self) -> Option<u64> {
        let id = self.free_head;
        if id == NO_SLOT {
            return None;
        }
        self.free_head = self.seq_of[id as usize];
        Some(id)
    }

    /// Frees a completed job's slot; its arrival sequence must already be
    /// read, because the link overwrites it.
    fn push_free(&mut self, id: u64) {
        self.seq_of[id as usize] = self.free_head;
        self.free_head = id;
    }
}

/// The whole simulated system.
pub struct EngineWorld {
    cfg: ExperimentConfig,
    est: EstimateProvider,
    ic: Cloud<JobId>,
    sites: Vec<EcSite>,
    /// All jobs in final (post-chunking) FCFS id order.
    jobs: Vec<Job>,
    /// QRSM estimate (standard seconds) recorded at scheduling time.
    est_exec: Vec<f64>,
    /// The scheduler's own completion estimates for unfinished jobs,
    /// maintained incrementally on admission/completion (the load model's
    /// `T_i` pool, no longer rebuilt per decision).
    outstanding: OutstandingSet,
    /// Rebuild oracle for `outstanding`: the per-job completion-estimate
    /// table the pool used to be re-collected from each decision. Kept in
    /// test builds so every decision can assert pool equivalence.
    #[cfg(test)]
    est_completion: Vec<Option<SimTime>>,
    /// Completion promise quoted at admission (estimate + margin).
    ticket_promise: Vec<SimTime>,
    /// Per-job lifecycle stamps, including the current placement `d_i`
    /// and the completion instant (result in the result queue). Closed
    /// runs only: the report, `--timelines` and the goldens read them, and
    /// serving, which folds completions into windows, keeps none.
    timelines: TimelineStore,
    /// Exactness oracle for `timelines`: the dense per-job rows the store
    /// replaced, stamped at the same sites; `finish` asserts the store
    /// rebuilds them exactly.
    #[cfg(test)]
    timeline_shadow: Vec<JobTimeline>,
    /// Jobs per batch with their placements (burst-ratio per batch).
    batch_decisions: Vec<Vec<bool>>,
    /// A closed run's batches by arrival index, each taken by its arrival
    /// event; the first arrival counts the rest to size the per-job
    /// columns once (in `on_batch`). Empty in serving mode.
    pending: Vec<Option<Vec<Job>>>,
    /// The one pending engine wake: the earliest deadline over every
    /// component (see [`resync`]).
    wake: Option<EventId>,
    batches_total: u32,
    batches_seen: u32,
    next_tid: u64,
    /// Stream the autonomic probe draws its site from.
    rng_probe: rand::rngs::StdRng,
    /// Ground-truth stream for sampling chunk service times.
    rng_chunk_truth: rand::rngs::StdRng,
    n_pull_backs: u64,
    n_push_outs: u64,
    /// Integral of active EC machines over time (instance-seconds) — the
    /// cost measure for the elastic-scaling extension.
    ec_provisioned_machine_secs: f64,
    last_provision_accrual: SimTime,
    /// Reusable drain buffers for `on_wake` — completions are copied out
    /// of the components into these so the wake loop never allocates.
    scratch_exec: Vec<ExecCompletion<JobId>>,
    scratch_link: Vec<Completion>,
    /// Tournament tree over machine free-times: replays FCFS drains in
    /// O(log m) per queued job instead of the oracle's O(m) rescan.
    ft_index: FreeTimeIndex,
    /// Water-fill scratch for the hybrid drain's fluid prefix.
    fluid: FluidScratch,
    /// Load-model backing storage, refreshed in place each decision so the
    /// borrowed [`LoadModel`] snapshot allocates nothing.
    ic_free_buf: Vec<f64>,
    ec_free_buf: Vec<f64>,
    /// Pull-back scratch: candidates and their (site, class, id) keys in
    /// lock-step, so `pull_back_candidate` gets a slice directly instead of
    /// a per-iteration double-collect.
    pb_cands: Vec<PullBackCandidate>,
    pb_meta: Vec<(usize, SizeClass, JobId)>,
    /// Push-out scratch: the IC wait queue snapshot and each job's Eq. 1
    /// slack anchor.
    po_waiting: Vec<JobId>,
    po_slack: Vec<Option<SimTime>>,
    /// Admission scratch: the plan's per-job Algorithm 3 candidates
    /// (SIBS only), and the admitted bursts' `(id, input bytes)`, queued
    /// once the batch's bounds are known.
    sibs_candidates: Vec<SibsCandidate>,
    uploads: Vec<(JobId, u64)>,
    /// Fault-injection bookkeeping; `None` ⇔ no fault can ever realize.
    chaos: Option<ChaosState>,
    /// Open-system serving state; `None` ⇔ classic closed-batch mode.
    serve: Option<ServeState>,
    /// Economics state; `None` ⇔ no price, penalty, admission commitment
    /// or broker policy can ever affect this run.
    econ: Option<EconState>,
}

/// The timeline store's growing writes, kept with the engine's other
/// per-job pushes: rows and batch pairs land in capacity a closed run
/// reserves once, at its first batch; the transfer table grows by one
/// entry per job at its first External placement (admission or push-out).
impl TimelineStore {
    /// Sizes the rows and batch pairs of a closed run, once.
    fn reserve_exact(&mut self, rows: usize, batches: usize) {
        self.rows.reserve_exact(rows);
        self.batches.reserve_exact(batches);
    }

    /// Opens a batch admitted at `at`, whose first admitted job (if any)
    /// takes id `first`.
    fn open_batch(&mut self, first: u64, at: SimTime) {
        self.batches.push((first, at));
    }

    /// Job `id`'s row at admission, with its transfer entry if it bursts.
    fn admit(&mut self, id: usize, placement: Placement) {
        debug_assert_eq!(id, self.rows.len(), "closed-run ids are dense");
        self.rows.push(TimelineRow::new(placement));
        self.move_to(id, placement);
    }

    /// Moves job `id` to `placement`. Its first External placement opens
    /// its transfer entry, which it keeps: a pulled-back or re-dispatched
    /// job keeps the stamps its transfer attempts left.
    fn move_to(&mut self, id: usize, placement: Placement) {
        let row = &mut self.rows[id];
        row.placement = placement;
        if placement == Placement::External && row.transfer == NO_TRANSFER {
            // At most one entry per job, and job ids fit a u32.
            row.transfer = self.transfers.len() as u32;
            self.transfers.push(TransferStamps::NONE);
        }
    }
}

impl Timelines<'_> {
    /// The dense copy, row for row what the run stamped. It sits with the
    /// engine's allocating writes because the conformance linter resolves
    /// method calls by name, and the QRSM solver's slice `.to_vec()` puts
    /// every workspace `fn to_vec` on the decision cone.
    pub fn to_vec(&self) -> Vec<JobTimeline> {
        self.iter().collect()
    }
}

impl std::fmt::Debug for EngineWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineWorld")
            .field("jobs", &self.jobs.len())
            .field("sites", &self.sites.len())
            .field("outstanding", &self.outstanding.len())
            .finish_non_exhaustive()
    }
}

impl EngineWorld {
    fn new(cfg: ExperimentConfig, plan: Option<FaultPlan>) -> EngineWorld {
        // Initial QRSM: trained on the standard production corpus, once
        // per training key and thread.
        let time_model = crate::training::trained_model(&cfg);

        // Bandwidth prior: the pre-run calibration pass. Seeded with the
        // true mean so runs start sensibly calibrated; the EWMAs keep
        // adapting from real observations afterwards.
        let prior_up = cfg
            .upload_model
            .mean_rate_bps(SimTime::ZERO, SimTime::from_secs(86_400), SimDuration::from_mins(30));
        let mut est = EstimateProvider::with_model(time_model);
        est.up = cloudburst_net::BandwidthEstimator::new(cfg.ewma_slots.max(1), cfg.ewma_alpha)
            .with_prior(prior_up);
        est.down = cloudburst_net::BandwidthEstimator::new(cfg.ewma_slots.max(1), cfg.ewma_alpha)
            .with_prior(prior_up);
        est.kappa = cfg.kappa;

        let sibs = cfg.scheduler == SchedulerKind::Sibs;

        // The primary EC site from the main config, plus any extras.
        let mut site_cfgs = vec![EcSiteConfig {
            n_machines: cfg.n_ec,
            speed: cfg.ec_speed,
            upload_model: cfg.upload_model.clone(),
            download_model: cfg.download_model.clone(),
            price: None,
        }];
        site_cfgs.extend(cfg.extra_ec_sites.iter().cloned());
        let mut sites: Vec<EcSite> = site_cfgs
            .iter()
            .enumerate()
            .map(|(i, sc)| EcSite::new(&cfg, sc, sibs, format!("ec{i}")))
            .collect();

        // Economics: armed iff the econ section is non-dormant or any site
        // carries a price. A dormant (or absent) section arms nothing,
        // keeping the run byte-identical to an econ-free one.
        let econ_cfg = cfg.econ.clone().unwrap_or_default();
        let prices: Vec<Option<PriceModel>> = std::iter::once(econ_cfg.primary_price.clone())
            .chain(cfg.extra_ec_sites.iter().map(|s| s.price.clone()))
            .collect();
        let econ_armed = !econ_cfg.is_dormant() || prices.iter().any(|p| p.is_some());
        let mut econ = econ_armed.then(|| EconState {
            penalty: econ_cfg.penalty,
            admission: econ_cfg.admission,
            broker: econ_cfg.broker,
            paid_until: site_cfgs.iter().map(|s| vec![0u64; s.n_machines.max(1)]).collect(),
            metrics: CostMetrics::with_sites(site_cfgs.len()),
            prices,
        });

        // Chaos: an explicit plan (replay path) wins verbatim; otherwise
        // compile the config's profile against this estate, then merge in
        // the revocation cycles of any spot-priced site — the spot model's
        // revocation law is realized through the same fault machinery, so
        // revocations are ordinary machine crash/recover events and a pure
        // function of the seeded plan. An empty plan arms nothing, keeping
        // the run byte-identical to a fault-free one.
        let shape = EstateShape {
            n_ic: cfg.n_ic as u32,
            ec_machines: site_cfgs.iter().map(|s| s.n_machines.max(1) as u32).collect(),
        };
        let explicit_plan = plan.is_some();
        let mut plan = plan.or_else(|| cfg.faults.as_ref().map(|p| p.compile(cfg.seed, &shape)));
        if !explicit_plan {
            if let Some(econ) = &mut econ {
                let horizon = cfg.faults.as_ref().map(|p| p.horizon_secs).unwrap_or(86_400.0);
                let mut spot = Vec::new();
                for (site, price) in econ.prices.iter().enumerate() {
                    if let Some(law) = price.as_ref().and_then(|p| p.revocation_law()) {
                        sample_spot_revocations(
                            cfg.seed,
                            site as u32,
                            site_cfgs[site].n_machines.max(1) as u32,
                            law,
                            horizon,
                            &mut spot,
                        );
                    }
                }
                if !spot.is_empty() {
                    econ.metrics.spot_revocations = spot.len() as u64;
                    plan.get_or_insert_with(|| FaultProfile::dormant().compile(cfg.seed, &shape))
                        .machine_faults
                        .extend(spot);
                }
            }
        }
        let chaos = plan.filter(|p| !p.is_empty()).map(|plan| ChaosState {
            metrics: FaultMetrics {
                blackout_secs: plan.blackout_secs(),
                ..FaultMetrics::default()
            },
            attempts: Vec::new(),
            timers: std::collections::BinaryHeap::new(),
            #[cfg(test)]
            timers_oracle: Vec::new(),
            seq: 0,
            plan,
        });
        if let Some(ch) = &chaos {
            for (i, site) in sites.iter_mut().enumerate() {
                let windows: Vec<CapacityFault> = ch
                    .plan
                    .windows_for_site(i)
                    .iter()
                    .map(|f| CapacityFault {
                        from: SimTime::from_secs_f64(f.from_secs),
                        until: SimTime::from_secs_f64(f.until_secs),
                        factor: f.factor,
                    })
                    .collect();
                if !windows.is_empty() {
                    site.up.link.set_faults(windows.clone());
                    site.down.link.set_faults(windows);
                }
            }
        }

        let rngs = RngFactory::new(cfg.seed);
        let rng_probe = rngs.stream("probe");
        let rng_chunk_truth = rngs.stream("chunk-truth");
        EngineWorld {
            ic: Cloud::homogeneous("ic", cfg.n_ic, cfg.ic_speed),
            sites,
            est,
            jobs: Vec::new(),
            est_exec: Vec::new(),
            outstanding: OutstandingSet::new(),
            #[cfg(test)]
            est_completion: Vec::new(),
            ticket_promise: Vec::new(),
            timelines: TimelineStore::default(),
            #[cfg(test)]
            timeline_shadow: Vec::new(),
            batch_decisions: Vec::new(),
            pending: Vec::new(),
            wake: None,
            batches_total: cfg.arrivals.n_batches,
            batches_seen: 0,
            next_tid: 0,
            rng_probe,
            rng_chunk_truth,
            cfg,
            n_pull_backs: 0,
            n_push_outs: 0,
            ec_provisioned_machine_secs: 0.0,
            last_provision_accrual: SimTime::ZERO,
            scratch_exec: Vec::new(),
            scratch_link: Vec::new(),
            ft_index: FreeTimeIndex::new(),
            fluid: FluidScratch::new(),
            ic_free_buf: Vec::new(),
            ec_free_buf: Vec::new(),
            pb_cands: Vec::new(),
            pb_meta: Vec::new(),
            po_waiting: Vec::new(),
            po_slack: Vec::new(),
            sibs_candidates: Vec::new(),
            uploads: Vec::new(),
            chaos,
            serve: None,
            econ,
        }
    }

    /// Accrues active-EC instance-seconds up to `now`. Called whenever the
    /// active limits are about to change, and once at run end.
    fn accrue_provisioning(&mut self, now: SimTime) {
        let span = (now - self.last_provision_accrual).as_secs_f64();
        if span > 0.0 {
            let active: usize = self.sites.iter().map(|s| s.cloud.active_limit()).sum();
            self.ec_provisioned_machine_secs += active as f64 * span;
            self.last_provision_accrual = now;
        }
    }

    /// Instance-seconds of EC capacity provisioned over the run.
    pub fn ec_provisioned_machine_secs(&self) -> f64 {
        self.ec_provisioned_machine_secs
    }

    /// Per-job lifecycle timelines, indexed by job id: a view that
    /// rebuilds each row on read and allocates nothing. Empty in serving,
    /// which keeps none.
    pub fn timelines(&self) -> Timelines<'_> {
        self.timelines.view(&self.jobs)
    }

    /// Job slots held: every job of a closed run, serving's live
    /// high-water. A test accessor: nothing else reads it.
    #[doc(hidden)]
    pub fn job_slots(&self) -> usize {
        self.jobs.len()
    }

    /// Stamps `stage` of job `id` at `at` in a closed run's timelines (and
    /// their test-build shadow); serving keeps none.
    fn stamp(&mut self, id: JobId, stage: Stage, at: SimTime) {
        if self.serve.is_some() {
            return;
        }
        self.timelines.stamp(id.0 as usize, stage, at);
        #[cfg(test)]
        {
            *self.timeline_shadow[id.0 as usize].stage_mut(stage) = Stamp::some(at);
        }
    }

    /// Records job `id`'s new placement in a closed run's timelines (and
    /// their test-build shadow); serving keeps none.
    fn move_job(&mut self, id: JobId, placement: Placement) {
        if self.serve.is_some() {
            return;
        }
        self.timelines.move_to(id.0 as usize, placement);
        #[cfg(test)]
        {
            self.timeline_shadow[id.0 as usize].placement = placement;
        }
    }

    /// The internal-cloud pool (probe API — lets external probes replay
    /// the decision loop's inputs through the public `Cloud` iterators).
    pub fn ic_cloud(&self) -> &Cloud<JobId> {
        &self.ic
    }

    /// An external-cloud pool (probe API; site 0 is the primary EC).
    pub fn ec_cloud(&self, site: usize) -> &Cloud<JobId> {
        &self.sites[site].cloud
    }

    /// The recorded QRSM estimate (standard seconds) per admitted job.
    pub fn est_exec_estimates(&self) -> &[f64] {
        &self.est_exec
    }

    /// Number of admitted jobs still outstanding (no result delivered).
    pub fn outstanding_jobs(&self) -> usize {
        self.outstanding.len()
    }

    /// The experiment configuration this world was built from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    fn fresh_tid(&mut self) -> TransferId {
        self.next_tid += 1;
        TransferId(self.next_tid)
    }

    /// Every arrival is in: the last batch was admitted, or the serving
    /// stream reached its horizon.
    fn arrivals_done(&self) -> bool {
        match &self.serve {
            Some(s) => s.arrivals_done,
            None => self.batches_seen == self.batches_total,
        }
    }

    /// Every arrival is in and every admitted job has delivered — O(1) in
    /// both modes.
    fn all_done(&self) -> bool {
        #[cfg(test)]
        match &self.serve {
            None => assert_eq!(
                self.outstanding.is_empty(),
                self.timelines.completions().all(|c| c.is_some()),
                "outstanding pool diverged from the timelines' completion stamps"
            ),
            Some(serve) => assert_eq!(
                self.outstanding.len() as u64,
                serve.windows.live(),
                "outstanding pool diverged from the windows' live count"
            ),
        }
        self.arrivals_done() && self.outstanding.is_empty()
    }

    /// No decision will read the QRSM again. Only `on_batch`,
    /// `try_pull_back` and `try_push_out` read it; once every arrival is
    /// in, no batch remains, and with rescheduling off neither
    /// rescheduling path runs. From then on completions are not observed:
    /// the window would only feed refits nobody reads.
    fn qrsm_sealed(&self) -> bool {
        !self.cfg.rescheduling && self.arrivals_done()
    }

    /// Rescan oracle for [`fill_running_free`]: estimated seconds until
    /// each machine frees from its *running* job only.
    #[cfg(test)]
    fn est_running_free_secs(&self, cloud: &Cloud<JobId>, speed: f64, now: SimTime) -> Vec<f64> {
        let mut free = vec![0.0; cloud.n_machines()];
        for (key, machine, started) in cloud.running_detail() {
            let est = self.est_exec[key.0 as usize];
            let elapsed_std = (now - started).as_secs_f64() * speed;
            free[machine.0] = (est - elapsed_std).max(0.0) / speed;
        }
        if cloud.failed_machines() > 0 {
            for (i, v) in free.iter_mut().enumerate() {
                if cloud.is_failed(MachineId(i)) {
                    *v = DEAD_FREE_SECS;
                }
            }
        }
        free
    }

    /// Rescan oracle for [`fill_est_free`]: re-derives the hybrid drain
    /// semantics by full O(queue × machines) rescan — the original linear
    /// `min_by` replay at or below [`DRAIN_WINDOW`], and an independently
    /// recomputed fluid-prefix + exact-tail drain above it (prefix ticks
    /// re-summed from `queued_detail`, bases independently sorted, level
    /// via the shared [`fluid_fill_level`] fold). Retained so tests can
    /// pin the indexed path to it decision by decision, bitwise.
    #[cfg(test)]
    fn est_free_secs(&self, cloud: &Cloud<JobId>, speed: f64, now: SimTime) -> Vec<f64> {
        let mut free = self.est_running_free_secs(cloud, speed, now);
        let q = cloud.queued();
        let mut tail_start = 0;
        if q > DRAIN_WINDOW && free.iter().any(|v| *v < DEAD_FREE_SECS) {
            tail_start = q - DRAIN_WINDOW;
            // Prefix ticks re-summed job by job, independent of the
            // Cloud's maintained total.
            let prefix_ticks: u64 =
                cloud.queued_detail().take(tail_start).map(|(_, t)| t).sum();
            let prefix_secs = SimDuration::from_micros(prefix_ticks).as_secs_f64();
            let mut bases: Vec<f64> =
                free.iter().copied().filter(|v| *v < DEAD_FREE_SECS).collect();
            bases.sort_unstable_by(f64::total_cmp);
            let level = fluid_fill_level(&bases, prefix_secs);
            for v in free.iter_mut() {
                if *v < DEAD_FREE_SECS && *v < level {
                    *v = level;
                }
            }
        }
        // Tail jobs drain onto the earliest-free machines, FCFS.
        for (key, _) in cloud.queued_detail().skip(tail_start) {
            let est = self.est_exec[key.0 as usize];
            let (idx, _) = free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                .expect("machines exist");
            free[idx] += est / speed;
        }
        free
    }

    /// Refreshes the load-model backing buffers in place and returns the
    /// broker's site choice. Allocation-free once the buffers are warm.
    fn refresh_load_model(&mut self, now: SimTime) -> usize {
        let site = self.broker_site(now);
        fill_est_free(
            &self.est_exec,
            &mut self.ft_index,
            &mut self.fluid,
            &mut self.ic_free_buf,
            &self.ic,
            self.cfg.ic_speed,
            now,
        );
        fill_est_free(
            &self.est_exec,
            &mut self.ft_index,
            &mut self.fluid,
            &mut self.ec_free_buf,
            &self.sites[site].cloud,
            self.sites[site].speed,
            now,
        );
        #[cfg(test)]
        self.assert_decision_state_matches_oracles(site, now);
        site
    }

    /// Probe API: refreshes and returns the scheduler's state snapshot as
    /// of `now`, exactly as the controller would see it before a batch.
    /// Read-only with respect to pipeline state; allocation-free once warm.
    pub fn load_snapshot(&mut self, now: SimTime) -> LoadModel<'_> {
        let site = self.refresh_load_model(now);
        load_model(
            now,
            &self.ic_free_buf,
            &self.ec_free_buf,
            self.cfg.ic_speed,
            &self.sites[site],
            &self.outstanding,
        )
    }

    /// Probe API: one steady-state decision sweep — refresh the load
    /// model, then (when the rescheduling extension is on) evaluate
    /// pull-back and push-out. This is the engine's per-event decision
    /// cost without the event-queue machinery around it; live drivers
    /// must still re-arm the engine wake after any state change.
    // conform::hot_root
    pub fn decision_sweep(&mut self, now: SimTime) {
        let _ = self.load_snapshot(now);
        if self.cfg.rescheduling {
            try_pull_back(self, now);
            try_push_out(self, now);
        }
    }

    /// In test builds every decision cross-checks the indexed free-time
    /// drain and the incremental outstanding pool against the retained
    /// rescan oracles — bitwise for free-times, multiset for the pool.
    #[cfg(test)]
    fn assert_decision_state_matches_oracles(&self, site: usize, now: SimTime) {
        let ic_oracle = self.est_free_secs(&self.ic, self.cfg.ic_speed, now);
        assert_eq!(self.ic_free_buf, ic_oracle, "indexed IC drain diverged from rescan");
        let s = &self.sites[site];
        let ec_oracle = self.est_free_secs(&s.cloud, s.speed, now);
        assert_eq!(self.ec_free_buf, ec_oracle, "indexed EC drain diverged from rescan");
        let mut want: Vec<SimTime> = self.est_completion.iter().flatten().copied().collect();
        let mut got: Vec<SimTime> = self.outstanding.values().to_vec();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "incremental outstanding pool diverged from rebuild");
        // The maintained queue-cost tick totals the fluid prefix relies on
        // must equal a per-job recompute from the estimate table.
        let tick_rescan = |cloud: &Cloud<JobId>, speed: f64| -> u64 {
            cloud
                .queued_detail()
                .map(|(key, _)| drain_cost_ticks(&self.est_exec, key, speed))
                .sum()
        };
        assert_eq!(
            self.ic.queued_cost_ticks(),
            tick_rescan(&self.ic, self.cfg.ic_speed),
            "maintained IC queue-cost ticks diverged from rescan"
        );
        for (i, s) in self.sites.iter().enumerate() {
            assert_eq!(
                s.cloud.queued_cost_ticks(),
                tick_rescan(&s.cloud, s.speed),
                "maintained EC queue-cost ticks diverged from rescan (site {i})"
            );
        }
    }

    /// Test oracle for [`Self::broker_site`]'s earliest-round-trip pick:
    /// least upload backlog plus EC queue, ties to the lowest index.
    #[cfg(test)]
    fn least_loaded_site(&self) -> usize {
        self.sites
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.up.backlog_bytes() + s.cloud.boundary().queued as u64, *i))
            .map(|(i, _)| i)
            .expect("at least one EC site")
    }

    /// The broker's site pick for the next burst: one scan minimizing
    /// `(dollar score, upload backlog + EC queue, index)`. Under
    /// [`BrokerPolicy::CostAware`] the score is the site's hourly rate as
    /// of `now` (spot prices vary) plus its per-GB rate plus the penalty a
    /// job would accrue waiting out its upload backlog, in integer
    /// [`Money`]; an unpriced site scores only the penalty. Otherwise every
    /// score is zero and the backlog key alone decides, which test builds
    /// assert against [`Self::least_loaded_site`] (cost-aware picks too,
    /// when prices are equal and the penalty free).
    fn broker_site(&self, now: SimTime) -> usize {
        let cost_aware = self.econ.as_ref().filter(|e| e.broker == BrokerPolicy::CostAware);
        let at_micros = (now - SimTime::ZERO).as_micros();
        let mut best: Option<((Money, u64, usize), usize)> = None;
        for (i, s) in self.sites.iter().enumerate() {
            let backlog = s.up.backlog_bytes();
            let score = match cost_aware {
                None => Money::ZERO,
                Some(econ) => {
                    let wait = self.est.upload_secs(now, backlog);
                    let penalty = econ.penalty.charge(SimDuration::from_secs_f64(wait).as_micros());
                    match &econ.prices[i] {
                        None => penalty,
                        Some(p) => p.hourly_rate_at(at_micros) + p.transfer_rate() + penalty,
                    }
                }
            };
            let key = (score, backlog + s.cloud.boundary().queued as u64, i);
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                best = Some((key, i));
            }
        }
        let site = best.map(|(_, i)| i).unwrap_or(0);
        #[cfg(test)]
        if cost_aware
            .is_none_or(|e| e.prices.iter().all(|p| *p == e.prices[0]) && e.penalty.is_free())
        {
            assert_eq!(site, self.least_loaded_site(), "broker pick diverged from its oracle");
        }
        site
    }

    /// Probe API: the broker's current site choice at `now`, exactly as
    /// the next burst decision would compute it (golden tie-break tests
    /// and the perf probes drive this directly).
    pub fn broker_site_choice(&self, now: SimTime) -> usize {
        self.broker_site(now)
    }

    fn classify(&self, site: usize, bytes: u64) -> SizeClass {
        self.sites[site].sibs_bounds.map_or(SizeClass::Small, |b| b.classify(bytes))
    }

    fn report(&self, end: SimTime) -> RunReport {
        let completion_times: Vec<SimTime> =
            self.timelines.completions().map(|c| c.expect("run finished")).collect();
        let arrival = SimTime::ZERO;
        let makespan_secs = metrics::makespan(&completion_times, arrival);
        // Eq. 11/12 use the *decision-time* placements per batch; the
        // timelines' placements can differ after rescheduling moves jobs.
        let (per_batch, overall) = metrics::burst_ratio_batched(&self.batch_decisions);
        let jobs = &self.jobs;
        let ct = &completion_times;
        // Each section's temporaries live in its own block, so the
        // completion records are freed before the batch section allocates.
        let oo = {
            let oo_cfg = self.cfg.oo;
            let horizon = SimTime::from_secs_f64(makespan_secs) + oo_cfg.sample_interval;
            let records: Vec<CompletionRecord> = ct
                .iter()
                .enumerate()
                .map(|(i, &at)| CompletionRecord {
                    id: i as u64,
                    at,
                    bytes: jobs[i].output_bytes,
                })
                .collect();
            oo_series(&records, jobs.len().max(1), horizon, oo_cfg)
        };
        let batch_turnaround_secs = {
            let batch_of: Vec<u32> = jobs.iter().map(|j| j.batch).collect();
            let n_batches = batch_of.iter().map(|&b| b as usize + 1).max().unwrap_or(0);
            // First-arrival per batch in a single pass over the jobs (the
            // old per-batch `find` scan was O(batches·n)).
            let mut batch_arrivals = vec![SimTime::ZERO; n_batches];
            let mut seen = vec![false; n_batches];
            for j in jobs.iter() {
                let b = j.batch as usize;
                if !seen[b] {
                    seen[b] = true;
                    batch_arrivals[b] = j.arrival;
                }
            }
            metrics::batch_turnarounds(ct, &batch_of, &batch_arrivals)
        };
        let sequential: f64 = jobs.iter().map(|j| j.true_service_secs).sum();
        let tickets: Vec<cloudburst_sla::TicketOutcome> = ct
            .iter()
            .enumerate()
            .map(|(i, &completed)| cloudburst_sla::TicketOutcome {
                id: i as u64,
                issued: jobs[i].arrival,
                promised: self.ticket_promise[i],
                completed,
            })
            .collect();
        let completion_delays = metrics::completion_delay_series(ct, arrival);
        RunReport {
            scheduler: self.cfg.scheduler.label().to_string(),
            bucket: self.cfg.arrivals.bucket.label().to_string(),
            seed: self.cfg.seed,
            n_jobs: self.jobs.len(),
            makespan_secs,
            speedup: metrics::speedup(sequential, makespan_secs),
            sequential_secs: sequential,
            ic_utilization: self.ic.average_utilization(end.min(
                SimTime::from_secs_f64(makespan_secs),
            )),
            ec_utilization: {
                let t = end.min(SimTime::from_secs_f64(makespan_secs));
                let n: usize = self.sites.iter().map(|s| s.cloud.n_machines()).sum();
                if n == 0 {
                    0.0
                } else {
                    self.sites
                        .iter()
                        .map(|s| s.cloud.average_utilization(t) * s.cloud.n_machines() as f64)
                        .sum::<f64>()
                        / n as f64
                }
            },
            burst_ratio: overall,
            burst_ratio_per_batch: per_batch,
            batch_turnaround_secs,
            completion_delays,
            completion_times,
            oo_series: oo,
            uploaded_bytes: self.sites.iter().map(|s| s.up.moved_bytes).sum(),
            downloaded_bytes: self.sites.iter().map(|s| s.down.moved_bytes).sum(),
            tickets,
            faults: self.chaos.as_ref().map(|c| c.metrics.clone()).unwrap_or_default(),
            econ: self.econ.as_ref().map(|e| e.metrics.clone()),
        }
    }

    /// Realized fault/recovery counters (`None` on fault-free runs, where
    /// no chaos state is armed at all).
    pub fn fault_metrics(&self) -> Option<&FaultMetrics> {
        self.chaos.as_ref().map(|c| &c.metrics)
    }

    /// Realized economics ledger (`None` when no econ layer is armed).
    #[cfg(test)]
    pub fn econ_metrics(&self) -> Option<&CostMetrics> {
        self.econ.as_ref().map(|e| &e.metrics)
    }

    /// The compiled fault plan driving this run, if any — serialize it with
    /// [`FaultPlan::to_json`] for a byte-identical replay.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.chaos.as_ref().map(|c| &c.plan)
    }

    /// Number of pull-back rescheduling actions taken (diagnostics).
    pub fn pull_backs(&self) -> u64 {
        self.n_pull_backs
    }

    /// Number of push-out rescheduling actions taken (diagnostics).
    pub fn push_outs(&self) -> u64 {
        self.n_push_outs
    }

    /// Delivered output bytes recorded for job `id` (0 until delivery).
    /// Used by the closed-vs-open equivalence oracle to replay the closed
    /// run's byte stream through a fresh [`WindowSeries`]. Closed runs
    /// only: serving recycles ids, so an id names no one job there, and
    /// keeps no completion stamps; panics in serving.
    pub fn job_output_bytes(&self, id: u64) -> u64 {
        assert!(self.serve.is_none(), "job_output_bytes reads a closed run's per-job ledger");
        let delivered = self.timelines.completed(id as usize).is_some();
        if delivered {
            self.jobs[id as usize].output_bytes
        } else {
            0
        }
    }

    /// Serving: live (admitted, not yet delivered) jobs right now.
    /// Panics unless the world is in serve mode.
    pub fn serve_live_jobs(&self) -> u64 {
        self.serve.as_ref().expect("serve-mode world").windows.live()
    }

    /// Serving: jobs admitted so far.
    pub fn serve_admitted_jobs(&self) -> u64 {
        self.serve.as_ref().expect("serve-mode world").windows.total_admitted()
    }

    /// Serving: jobs placed externally at admission so far.
    pub fn serve_bursted_jobs(&self) -> u64 {
        self.serve.as_ref().expect("serve-mode world").bursted_jobs
    }

    /// Serving: takes the closed per-window rows buffered so far, leaving
    /// the series running — long-run probes call this every window so the
    /// buffer never grows past O(1). Rows drained here are *not* repeated
    /// in the final [`ServeReport`].
    pub fn drain_serve_windows(&mut self) -> Vec<WindowStats> {
        self.serve.as_mut().expect("serve-mode world").windows.drain_closed()
    }

    /// Serving: assembles the windowed report at drain time. Closes every
    /// window up to (and including the partial one containing) `end`.
    fn serve_report(&mut self, end: SimTime) -> ServeReport {
        let faults = self.chaos.as_ref().map(|c| c.metrics.clone()).unwrap_or_default();
        let econ = self.econ.as_ref().map(|e| e.metrics.clone());
        let scheduler = self.cfg.scheduler.label().to_string();
        let seed = self.cfg.seed;
        let serve = self.serve.as_mut().expect("serve-mode world");
        let window = serve.windows.config().window;
        // Final econ snapshot, so the last (partial) window's delta covers
        // everything billed since the previous epoch heartbeat.
        if let Some(e) = &econ {
            serve.windows.observe_econ(end, e.snapshot());
        }
        // `end + window` flushes the partial final window (advance_to only
        // closes windows that end at or before the flush instant).
        serve.windows.finish(end + window, &faults);
        let windows = serve.windows.drain_closed();
        let drained_at_secs = (end - SimTime::ZERO).as_secs_f64();
        ServeReport {
            scheduler,
            seed,
            horizon_secs: (serve.horizon - SimTime::ZERO).as_secs_f64(),
            drained_at_secs,
            jobs_admitted: serve.windows.total_admitted(),
            jobs_completed: serve.windows.total_completed(),
            output_bytes: serve.output_bytes_total,
            mean_completion_rate_per_sec: if drained_at_secs > 0.0 {
                serve.windows.total_completed() as f64 / drained_at_secs
            } else {
                0.0
            },
            live_high_water: serve.live_high_water,
            faults,
            windows,
            econ,
        }
    }
}

// ---------------------------------------------------------------------------
// Event handlers
// ---------------------------------------------------------------------------

type W = EngineWorld;

/// Cancels the pending engine wake and re-arms it at the earliest
/// component deadline: IC completions, each site's execution, upload and
/// download completions, and the next chaos timer.
///
/// One event stands for all of them because every one would run the same
/// [`on_wake`], which advances *all* components and ends back here. Only
/// the earliest deadline could ever fire before the next re-arm, and it
/// takes its `seq` from this same call, so its `(at, seq)` rank against
/// batch, probe, scaling and fault events is what a per-component event
/// would have had. The closure captures nothing, so arming it allocates
/// nothing either.
fn resync(w: &mut W, sim: &mut Sim<W>) {
    if let Some(id) = w.wake.take() {
        sim.cancel(id);
    }
    let sites = w.sites.iter().flat_map(|s| {
        [s.cloud.next_wake(), s.up.link.next_wake(), s.down.link.next_wake()]
    });
    let chaos = w.chaos.as_ref().and_then(ChaosState::next_deadline);
    let next = std::iter::once(w.ic.next_wake()).chain(sites).chain([chaos]).flatten().min();
    if let Some(t) = next {
        w.wake = Some(sim.schedule_at(t, |w, sim| {
            w.wake = None;
            on_wake(w, sim);
        }));
    }
}

/// Advances every component to `now` and handles all completions, looping
/// until quiescent, then pumps idle slots. The engine wake runs it, and so
/// does every batch and fault handler before its own work.
fn on_wake(w: &mut W, sim: &mut Sim<W>) {
    let now = sim.now();
    // The drain buffers live on the world; they're taken out for the loop
    // (completions are `Copy`) so handlers below can borrow `w` freely.
    let mut execs = std::mem::take(&mut w.scratch_exec);
    let mut transfers = std::mem::take(&mut w.scratch_link);
    loop {
        let mut any = false;

        // IC executions.
        execs.clear();
        w.ic.advance_into(now, &mut execs);
        for c in &execs {
            if chaos_exec_failed(w, c, now, Pool::Ic) {
                continue;
            }
            finish_exec(w, c.key, c.at, c.started, Pool::Ic);
            // IC result goes straight to the result queue.
            record_completion(w, c.key, c.at);
        }
        if !execs.is_empty() {
            any = true;
            if w.cfg.rescheduling {
                try_pull_back(w, now);
            }
        }

        for i in 0..w.sites.len() {
            // Upload completions.
            transfers.clear();
            w.sites[i].up.link.advance_into(now, &mut transfers);
            for &c in &transfers {
                any = true;
                on_transfer_done(w, i, true, c);
            }
            // EC executions.
            execs.clear();
            w.sites[i].cloud.advance_into(now, &mut execs);
            for &c in &execs {
                any = true;
                // Bill before the fault check: a failed attempt still ran
                // on metered capacity. (A crash-aborted attempt never
                // completes, so it never reaches this loop — unbilled.)
                econ_bill_exec(w, i, &c);
                let pool = Pool::Ec(i as u32);
                if chaos_exec_failed(w, &c, now, pool) {
                    continue;
                }
                finish_exec(w, c.key, c.at, c.started, pool);
                // The download pipe is FIFO: every result queues as `Small`.
                let out = w.jobs[c.key.0 as usize].output_bytes;
                w.sites[i].down.queues.push(SizeClass::Small, c.key, out);
            }
            // Download completions.
            transfers.clear();
            w.sites[i].down.link.advance_into(now, &mut transfers);
            for &c in &transfers {
                any = true;
                on_transfer_done(w, i, false, c);
            }
        }
        if !any {
            break;
        }
    }
    execs.clear();
    transfers.clear();
    w.scratch_exec = execs;
    w.scratch_link = transfers;
    if w.chaos.is_some() {
        process_chaos_timers(w, now);
    }
    // Refill transfer slots.
    for i in 0..w.sites.len() {
        pump(w, i, true, now);
        pump(w, i, false, now);
    }
    if w.cfg.rescheduling {
        try_push_out(w, now);
    }
    resync(w, sim);
}

/// Makes the QRSM current before a decision reads it: observations queued
/// since the last read are refit in, once. Every QRSM read in the engine
/// sits behind this barrier, and none may come after the seal
/// ([`EngineWorld::qrsm_sealed`]), because sealed completions are no
/// longer observed.
fn qrsm_barrier(w: &mut W) {
    #[cfg(any(test, debug_assertions))]
    assert!(!w.qrsm_sealed(), "a decision read the QRSM after it was sealed");
    w.est.flush_refits();
}

/// Queues job `id` (true service `svc` standard seconds) on `pool`, whose
/// machines run at `speed`, weighted by the job's estimated drain cost
/// there. Every submission and resubmission of a job goes through here.
/// Takes the pool and the estimate column rather than the world, so the
/// admission loop can submit while its planners borrow the estimates.
fn submit_for_exec(
    pool: &mut Cloud<JobId>,
    est_exec: &[f64],
    speed: f64,
    id: JobId,
    svc: f64,
    now: SimTime,
) {
    pool.submit_weighted(now, id, svc, drain_cost_ticks(est_exec, id, speed));
}

/// Applies one batch arrival: snapshot, then one pass that plans, gates,
/// re-indexes and dispatches each job as the chunk pass yields it.
///
/// A batch arrival is an epoch barrier: every component has been advanced
/// to `now` (completed transfers and executions exchanged) and the QRSM
/// observations queued during the epoch are refit in exactly once. The
/// scheduler predicts and plans each job once; admission records the
/// estimate and the completion it carries.
fn on_batch(w: &mut W, sim: &mut Sim<W>, batch: Vec<Job>) {
    let now = sim.now();
    // Process anything that completed up to now first.
    on_wake(w, sim);
    // Epoch barrier: the scheduler, planner, and ticket quotes below all
    // read the QRSM; queued observations become current here, once.
    qrsm_barrier(w);

    let site = w.refresh_load_model(now);
    let load = load_model(
        now,
        &w.ic_free_buf,
        &w.ec_free_buf,
        w.cfg.ic_speed,
        &w.sites[site],
        &w.outstanding,
    );
    let kind = w.cfg.scheduler;
    // The plan, the gate and the shadow copy what they read from the
    // snapshot, so its borrows end here, before admission mutates the
    // outstanding set, the pools and the upload queues.
    let mut plan = BatchPlan::new(kind, &load, &w.est, &mut w.sibs_candidates);
    // Under commit-or-reject the broker either commits to a job's Eq. 1
    // deadline (arrival + turnaround budget) or turns the job away before
    // it consumes an id, a commitment, or a ticket. A rejected job leaves
    // no commitment, so after the first rejection the scheduler's plan no
    // longer describes the admitted jobs: the gate plans them itself,
    // committing only the jobs it admits, and records its own completions.
    let mut gate = match &w.econ {
        Some(EconState { admission: AdmissionPolicy::CommitOrReject { max_turnaround_secs }, .. }) => {
            Some((Planner::new(&load, &w.est), SimDuration::from_secs_f64(*max_turnaround_secs)))
        }
        _ => None,
    };
    // Test and debug builds re-plan the batch and check every carried
    // completion against it, bit for bit.
    #[cfg(any(test, debug_assertions))]
    let mut shadow = gate.is_none().then(|| Planner::new(&load, &w.est));
    let jobs = batch_jobs(kind, &w.cfg.chunk_policy, batch);

    // The ticket quote's k-RMSE confidence margin (also the admission
    // gate's safety margin), once per job class.
    let k = w.cfg.ticket_margin_k.max(0.0);
    let mut margins = [SimDuration::ZERO; JobType::ALL.len()];
    for t in JobType::ALL {
        margins[t.code() as usize] =
            SimDuration::from_secs_f64(k * w.est.qrsm.rmse_for(t.code() as u64));
    }
    // A closed run sizes every per-job column exactly, once, at its first
    // batch: this batch's jobs plus the jobs each pending batch will
    // schedule to (chunks counted), so no push regrows a column and the
    // run holds no doubling slack. Counted here, not when the harness is
    // built, where set-up would pay for it; reserved once, not per batch,
    // because each exact regrowth copies every column. Serving sizes them
    // to its live high-water instead: an epoch with more jobs than free
    // slots grows each column by exactly the fresh slots it may take.
    // Jobs that commit-or-reject turns away leave their rows unused.
    let rows = match &w.serve {
        None if w.batches_seen == 0 => {
            let policy = &w.cfg.chunk_policy;
            jobs.len()
                + w.pending.iter().flatten().map(|b| scheduled_len(kind, policy, b)).sum::<usize>()
        }
        None => 0,
        Some(serve) => jobs.len().saturating_sub(w.jobs.len() - serve.windows.live() as usize),
    };
    if rows > 0 {
        w.jobs.reserve_exact(rows);
        w.est_exec.reserve_exact(rows);
        w.outstanding.reserve_exact(rows);
        #[cfg(test)]
        w.est_completion.reserve_exact(rows);
        w.ticket_promise.reserve_exact(rows);
        match &mut w.serve {
            None => w.timelines.reserve_exact(rows, w.batches_total as usize),
            Some(serve) => serve.seq_of.reserve_exact(rows),
        }
        if let Some(ch) = &mut w.chaos {
            ch.attempts.reserve_exact(rows);
        }
    }
    // Closed mode keeps the whole-run per-batch decision log for the
    // Eq. 11/12 burst ratios; serving folds it into a counter, because an
    // unbounded stream cannot keep a per-batch vector.
    let mut decisions = w.serve.is_none().then(|| Vec::with_capacity(jobs.len()));

    // One pass, in queue order: plan the job, sample a chunk's ground
    // truth, gate it, give it its global FCFS id, write its columns and
    // dispatch it. A job's estimated completion is the one the plan
    // committed (`est_ct`): the plan runs over this snapshot, in this
    // order, so it is the value a second plan of the admitted jobs would
    // give. Global ids materialize after the admission gate — a rejected
    // job must not consume an id (the spine slot would leak).
    let base = w.jobs.len() as u64;
    let mut fresh = 0u64;
    if w.serve.is_none() {
        w.timelines.open_batch(base, now);
    }
    for job in jobs {
        let ScheduledJob { mut job, placement, est_secs, est_ct } = plan.place(job);
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            est_secs.to_bits(),
            w.est.exec_secs(&job).to_bits(),
            "{} carried an estimate the QRSM does not give",
            kind.label()
        );
        // Chunk ground truth, on the one shared RNG stream: one draw per
        // scheduled chunk in queue order, rejected chunks included. A
        // chunk leaves the chunk pass with a pro-rata placeholder service
        // time; the engine is the authority on ground truth, so chunk
        // times are sampled from the truth law on the chunk's own features
        // (documents are embarrassingly parallel) plus the split/merge
        // overhead. Without this, chunks would secretly carry their
        // parent's superlinear cost and every QRSM estimate of a chunk
        // would be biased low. The plan's estimates stay valid: they read
        // only the features.
        if job.is_chunk() {
            job.true_service_secs = w.cfg.truth.sample_secs(&mut w.rng_chunk_truth, &job.features)
                + w.cfg.chunk_policy.per_chunk_overhead_secs;
        }
        let margin = margins[job.features.job_type.code() as usize];
        let est_ct = match (&mut gate, &mut w.econ) {
            (Some((planner, max_turnaround)), Some(econ)) => {
                // The feasibility probe reads the planner without mutating
                // it, so rejected jobs leave no trace.
                let est_finish = match placement {
                    Placement::Internal => planner.ft_ic(est_secs),
                    Placement::External => planner.ft_ec(&job, est_secs),
                };
                if est_finish + margin > job.arrival + *max_turnaround {
                    econ.metrics.jobs_rejected += 1;
                    continue;
                }
                econ.metrics.jobs_committed += 1;
                planner.commit(&job, est_secs, placement)
            }
            _ => est_ct,
        };
        #[cfg(any(test, debug_assertions))]
        if let Some(shadow) = &mut shadow {
            assert_eq!(
                shadow.commit(&job, est_secs, placement),
                est_ct,
                "{} carried a completion its own plan does not give",
                kind.label()
            );
        }
        // Serving recycles the slot of a completed job (LIFO); closed mode
        // has no free list, so every id is fresh — `base + k` exactly as
        // before the serving mode existed.
        job.id = match w.serve.as_mut().and_then(ServeState::pop_free) {
            Some(id) => JobId(id),
            None => {
                let id = JobId(base + fresh);
                fresh += 1;
                id
            }
        };
        let id = job.id;
        let idx = id.0 as usize;
        if let Some(decisions) = &mut decisions {
            decisions.push(placement == Placement::External);
        }
        // The ticket quote: estimate plus the confidence margin.
        let promise = est_ct + margin;

        // One row per job: a fresh slot pushes, a recycled one (serving
        // only) is overwritten in place, so every column stays at the
        // live-job high-water mark.
        debug_assert!(idx <= w.jobs.len(), "admitted id beyond the spine");
        put(&mut w.est_exec, idx, est_secs);
        w.outstanding.insert(id.0, est_ct);
        #[cfg(test)]
        put(&mut w.est_completion, idx, Some(est_ct));
        put(&mut w.ticket_promise, idx, promise);
        if let Some(ch) = &mut w.chaos {
            put(&mut ch.attempts, idx, Attempts::default());
        }
        if let Some(serve) = &mut w.serve {
            // The dense arrival sequence number survives id recycling —
            // it is what the windowed OO frontier orders on.
            let seq = serve.windows.total_admitted();
            serve.windows.on_admit(seq, now);
            put(&mut serve.seq_of, idx, seq);
            if placement == Placement::External {
                serve.bursted_jobs += 1;
            }
            serve.live_high_water = serve.live_high_water.max(serve.windows.live());
        } else {
            // Closed mode has no free list: every id is fresh.
            w.timelines.admit(idx, placement);
            #[cfg(test)]
            w.timeline_shadow.push(JobTimeline::new(id.0, job.arrival, now, placement));
        }
        match placement {
            Placement::Internal => {
                let svc = job.true_service_secs;
                submit_for_exec(&mut w.ic, &w.est_exec, w.cfg.ic_speed, id, svc, now);
            }
            // SIBS classifies by the bounds the whole batch derives, so
            // uploads queue after the pass. Nothing in the pass reads the
            // upload queues.
            Placement::External => w.uploads.push((id, job.input_bytes())),
        }
        put(&mut w.jobs, idx, job);
    }
    if let Some(b) = plan.finish() {
        w.sites[site].sibs_bounds = Some(b);
    }
    let mut uploads = std::mem::take(&mut w.uploads);
    for (id, bytes) in uploads.drain(..) {
        let class = w.classify(site, bytes);
        w.sites[site].up.queues.push(class, id, bytes);
    }
    w.uploads = uploads;
    if let Some(decisions) = decisions {
        w.batch_decisions.push(decisions);
    }
    w.batches_seen += 1;

    for i in 0..w.sites.len() {
        pump(w, i, true, now);
    }
    resync(w, sim);
}

/// One serving epoch: generate the next batch lazily, admit it through the
/// ordinary epoch-barrier machinery, fold a fault heartbeat into the
/// window series, and schedule the next epoch — exactly one arrival event
/// is ever pending, so the event queue stays O(live) no matter how long
/// the stream runs. This is the sustained-throughput hot loop of the
/// serving mode.
// conform::hot_root
fn on_serve_epoch(w: &mut W, sim: &mut Sim<W>) {
    let now = sim.now();
    let batch = {
        let serve = w.serve.as_mut().expect("serve epoch implies serve state");
        debug_assert_eq!(serve.arrivals.next_arrival(), now, "epoch event drifted");
        serve.arrivals.next_batch()
    };
    on_batch(w, sim, batch.jobs);
    // Heartbeat at epoch granularity: the window series attributes fault
    // counters to windows by cumulative snapshot deltas.
    let faults = w.chaos.as_ref().map(|c| c.metrics.clone()).unwrap_or_default();
    let econ_snap = w.econ.as_ref().map(|e| e.metrics.snapshot());
    let serve = w.serve.as_mut().expect("serve state");
    serve.windows.heartbeat(now, &faults);
    if let Some(snap) = econ_snap {
        serve.windows.observe_econ(now, snap);
    }
    let next = serve.arrivals.next_arrival();
    if next < serve.horizon {
        sim.schedule_at(next, on_serve_epoch);
    } else {
        serve.arrivals_done = true;
    }
}

/// Starts transfers on the idle slots of one of `site`'s pipes.
fn pump(w: &mut W, site: usize, upload: bool, now: SimTime) {
    for slot in 0..w.sites[site].pipe(upload).slots.len() {
        let pipe = w.sites[site].pipe(upload);
        let (class, busy) = pipe.slots[slot];
        if busy.is_some() {
            continue;
        }
        let Some((id, bytes)) = pipe.queues.pop_for(class) else {
            continue;
        };
        let tuner = if upload { &mut w.est.up_tuner } else { &mut w.est.down_tuner };
        let threads = tuner.threads_for(now);
        let tid = w.fresh_tid();
        if upload {
            w.stamp(id, Stage::UploadStarted, now);
        }
        // Chaos: arm the recovery timeout; a stalled transfer occupies its
        // slot but never reaches the link — only the timeout frees it.
        let mut stalled = false;
        if let Some(ch) = &mut w.chaos {
            let attempt = *ch.attempts[id.0 as usize].transfer(upload);
            stalled = ch.plan.transfer_stalls(id.0, upload, attempt);
            let est_secs = if upload {
                w.est.upload_secs(now, bytes)
            } else {
                w.est.download_secs(now, bytes)
            };
            ch.arm(
                now + SimDuration::from_secs_f64(ch.plan.retry.timeout_secs(est_secs)),
                ChaosTimer::Timeout { site, upload, tid, started: now },
            );
        }
        let pipe = w.sites[site].pipe(upload);
        if !stalled {
            pipe.link.start(now, tid, bytes, threads);
        }
        pipe.slots[slot].1 = Some(tid);
        pipe.in_flight.insert(tid, (Payload::Job(id), threads));
    }
}

/// A transfer finished: learn from it and free its slot. A job's upload
/// then submits to the EC, and its download lands the result in the
/// result queue; a probe is done.
fn on_transfer_done(w: &mut W, site: usize, upload: bool, c: Completion) {
    let pipe = w.sites[site].pipe(upload);
    let Some((payload, threads)) = pipe.in_flight.remove(&c.id) else {
        return; // aborted (timed out)
    };
    let other = pipe.link.active_threads();
    pipe.free_slot(c.id);
    observe_transfer(&mut w.est, upload, &c, threads, other);
    let Payload::Job(id) = payload else {
        return;
    };
    w.sites[site].pipe(upload).moved_bytes += c.bytes;
    // The bytes physically moved even if the payload is then declared lost
    // below — the provider charges either way.
    econ_bill_transfer(w, site, c.bytes);
    if chaos_transfer_lost(w, site, id, &c, upload) {
        return;
    }
    let idx = id.0 as usize;
    if upload {
        w.stamp(id, Stage::UploadDone, c.at);
        let svc = w.jobs[idx].true_service_secs;
        let s = &mut w.sites[site];
        submit_for_exec(&mut s.cloud, &w.est_exec, s.speed, id, svc, c.at);
    } else {
        w.stamp(id, Stage::DownloadDone, c.at);
        record_completion(w, id, c.at);
    }
}

/// Feeds a finished transfer into the EWMA estimator and the thread tuner.
/// The raw-pipe estimate inverts the saturation law *including the threads
/// of transfers still contending at completion time* (`other_threads`) —
/// without this, concurrent size-interval uploads would teach the estimator
/// a pipe several times slower than reality and starve the burst decisions.
/// Transfers that finished mid-span are not counted, so the estimate stays
/// slightly conservative — the realistic error mode.
fn observe_transfer(
    est: &mut EstimateProvider,
    upload: bool,
    c: &Completion,
    threads: u32,
    other_threads: u32,
) {
    let observed = c.observed_rate_bps();
    let w = (threads + other_threads) as f64;
    let raw = observed * (w + est.kappa) / threads as f64;
    if upload {
        est.up.observe(c.at, raw);
        est.up_tuner.report(c.at, threads, observed);
    } else {
        est.down.observe(c.at, raw);
        est.down_tuner.report(c.at, threads, observed);
    }
}

/// The execution pool `pool` names, with its own machine speed (the IC's,
/// or the EC site's), which scales its estimates and observed execution
/// times; `None` for a site outside this estate (a fault plan
/// compiled against a wider one). Takes the pools rather than the world,
/// so callers can resubmit while they read the job columns.
fn pool_mut<'a>(
    ic: &'a mut Cloud<JobId>,
    sites: &'a mut [EcSite],
    cfg: &ExperimentConfig,
    pool: Pool,
) -> Option<(&'a mut Cloud<JobId>, f64)> {
    match pool {
        Pool::Ic => Some((ic, cfg.ic_speed)),
        Pool::Ec(s) => sites.get_mut(s as usize).map(|site| (&mut site.cloud, site.speed)),
    }
}

/// Execution finished anywhere: tune the QRSM with the observed time.
/// The observation is *queued* — the sliding-window rank-1 update lands
/// now, but the `O(terms³)` coefficient refit is deferred to the next
/// [`qrsm_barrier`], where predictions are actually read (`on_batch`,
/// `try_pull_back`, `try_push_out`). That keeps a completion burst
/// O(completions × terms²) instead of O(completions × terms³), and the
/// flushed coefficients are bitwise what eager per-completion refits
/// would have produced at each read point. Once the model is sealed
/// ([`EngineWorld::qrsm_sealed`]) no barrier remains, so the observation
/// is skipped: no decision could ever read it.
fn finish_exec(w: &mut W, id: JobId, at: SimTime, started: SimTime, pool: Pool) {
    // Completions only come from pools in range.
    let Some((_, speed)) = pool_mut(&mut w.ic, &mut w.sites, &w.cfg, pool) else { return };
    w.stamp(id, Stage::ExecStarted, started);
    w.stamp(id, Stage::ExecDone, at);
    if w.qrsm_sealed() {
        return;
    }
    let standard_secs = (at - started).as_secs_f64() * speed;
    let job = &w.jobs[id.0 as usize];
    let class = job.features.job_type.code() as u64;
    let regress = job.features.regressors_arr();
    w.est.qrsm.observe_queued(class, &regress, standard_secs);
}

/// A job's result entered the result queue.
fn record_completion(w: &mut W, id: JobId, at: SimTime) {
    let idx = id.0 as usize;
    debug_assert!(w.outstanding.contains(id.0), "job completed twice: {id}");
    if w.econ.is_some() {
        econ_settle_completion(w, idx, at);
    }
    w.outstanding.remove(id.0);
    #[cfg(test)]
    {
        w.est_completion[idx] = None;
    }
    w.stamp(id, Stage::Completed, at);
    if let Some(serve) = &mut w.serve {
        // Serving: fold the completion into the windowed aggregates and
        // recycle the slot. Everything per-job dies here; only the window
        // rows survive.
        let out = w.jobs[idx].output_bytes;
        let turnaround_secs = (at - w.jobs[idx].arrival).as_secs_f64();
        let met = at <= w.ticket_promise[idx];
        serve.windows.on_complete(serve.seq_of[idx], at, out, turnaround_secs, Some(met));
        serve.output_bytes_total += out;
        serve.push_free(id.0);
    }
}

// ---------------------------------------------------------------------------
// Economics (cost accounting — see DESIGN.md §10)
// ---------------------------------------------------------------------------

/// Econ: bills one completed EC execution attempt at its site's price.
/// On-demand and spot meter the occupancy span; hourly rental acquires
/// whole wall-clock hours through the per-machine `paid_until` mark.
fn econ_bill_exec(w: &mut W, site: usize, c: &ExecCompletion<JobId>) {
    let Some(econ) = &mut w.econ else { return };
    let Some(price) = econ.prices.get(site).and_then(|p| p.as_ref()) else { return };
    let Some(paid) = econ.paid_until.get_mut(site).and_then(|v| v.get_mut(c.machine.0)) else {
        return;
    };
    let started = (c.started - SimTime::ZERO).as_micros();
    let ended = (c.at - SimTime::ZERO).as_micros();
    let before = *paid;
    let amount = price.exec_charge(started, ended, paid);
    let acquired = *paid - before;
    if acquired > 0 {
        econ.metrics.add_rental_hours(site, acquired);
    }
    econ.metrics.add_compute(site, amount);
}

/// Econ: bills the bytes a completed job transfer physically moved.
/// Probe transfers are the autonomic layer's own overhead and stay free.
fn econ_bill_transfer(w: &mut W, site: usize, bytes: u64) {
    let Some(econ) = &mut w.econ else { return };
    let Some(price) = econ.prices.get(site).and_then(|p| p.as_ref()) else { return };
    econ.metrics.add_transfer(site, price.transfer_charge(bytes));
}

/// Econ: settles a delivered job against its deadline, derived here: the
/// hard commitment (arrival + turnaround budget) under commit-or-reject,
/// the advisory ticket promise under admit-all. The penalty schedule
/// prices the lateness, and a miss counts as a commitment violation or
/// ordinary lateness. Cold, and called only with econ armed.
#[cold]
fn econ_settle_completion(w: &mut W, idx: usize, at: SimTime) {
    let Some(econ) = &mut w.econ else { return };
    let (deadline, committed) = match econ.admission {
        AdmissionPolicy::CommitOrReject { max_turnaround_secs } => {
            (w.jobs[idx].arrival + SimDuration::from_secs_f64(max_turnaround_secs), true)
        }
        AdmissionPolicy::AdmitAll => (w.ticket_promise[idx], false),
    };
    if at <= deadline {
        return;
    }
    econ.metrics.penalty += econ.penalty.charge((at - deadline).as_micros());
    if committed {
        econ.metrics.commitment_violations += 1;
    } else {
        econ.metrics.late_completions += 1;
    }
}

// ---------------------------------------------------------------------------
// Chaos recovery (fault injection — see DESIGN.md §9)
// ---------------------------------------------------------------------------

/// Chaos: the plan declares this completed execution attempt failed. The
/// work is wasted (the QRSM learns nothing from it) and the job re-runs on
/// the same pool; the hashed per-attempt decider plus the retry cap bound
/// the number of re-runs, so every job still terminates.
fn chaos_exec_failed(w: &mut W, c: &ExecCompletion<JobId>, now: SimTime, pool: Pool) -> bool {
    let Some(ch) = &mut w.chaos else { return false };
    let idx = c.key.0 as usize;
    if !ch.plan.exec_fails(c.key.0, ch.attempts[idx].exec) {
        return false;
    }
    ch.attempts[idx].exec += 1;
    ch.metrics.exec_failures += 1;
    ch.metrics.fault_delay_secs += (c.at - c.started).as_secs_f64();
    let svc = w.jobs[idx].true_service_secs;
    if let Some((cloud, speed)) = pool_mut(&mut w.ic, &mut w.sites, &w.cfg, pool) {
        submit_for_exec(cloud, &w.est_exec, speed, c.key, svc, now);
    }
    true
}

/// Chaos: a completed transfer whose payload the plan declares lost. The
/// bytes physically moved (and taught the estimator), but the job must go
/// again — retry with backoff while the budget lasts, then re-dispatch to
/// the IC.
fn chaos_transfer_lost(w: &mut W, site: usize, id: JobId, c: &Completion, upload: bool) -> bool {
    let Some(ch) = &mut w.chaos else { return false };
    let attempt = *ch.attempts[id.0 as usize].transfer(upload);
    if !ch.plan.transfer_lost(id.0, upload, attempt) {
        return false;
    }
    ch.metrics.transfer_losses += 1;
    retry_or_redispatch(w, site, id, c.at, upload);
    true
}

/// Chaos: a transfer attempt of `id` failed at `at` (payload lost or
/// recovery deadline blown). Counts the attempt, then re-queues the
/// transfer after backoff while the retry budget lasts, or re-dispatches
/// the job to the IC once it is spent.
fn retry_or_redispatch(w: &mut W, site: usize, id: JobId, at: SimTime, upload: bool) {
    let ch = w.chaos.as_mut().expect("transfer faults imply chaos state");
    let attempts = ch.attempts[id.0 as usize].transfer(upload);
    *attempts += 1;
    let attempt = *attempts;
    if attempt <= ch.plan.retry.max_transfer_retries {
        let backoff = ch.plan.retry.backoff_secs(attempt - 1);
        ch.metrics.transfer_retries += 1;
        ch.metrics.fault_delay_secs += backoff;
        ch.arm(at + SimDuration::from_secs_f64(backoff), ChaosTimer::Retry { site, upload, id });
    } else {
        redispatch_to_ic(w, id, at);
    }
}

/// Chaos recovery of last resort: hand the job back to the IC wait queue,
/// where the ordinary FCFS/pull-back machinery owns it again — recovery
/// re-enters the normal scheduling path rather than a special case. The
/// outstanding estimate is revised so Eq. 1 slack keeps governing.
fn redispatch_to_ic(w: &mut W, id: JobId, now: SimTime) {
    w.move_job(id, Placement::Internal);
    let svc = w.jobs[id.0 as usize].true_service_secs;
    submit_for_exec(&mut w.ic, &w.est_exec, w.cfg.ic_speed, id, svc, now);
    reinstate_estimate(w, id, now, w.cfg.ic_speed);
    let ch = w.chaos.as_mut().expect("re-dispatch implies chaos state");
    ch.metrics.redispatches += 1;
}

/// Revises the outstanding completion estimate of a re-dispatched job (and
/// its test-build rebuild oracle, in lock step).
fn reinstate_estimate(w: &mut W, id: JobId, now: SimTime, speed: f64) {
    let est = w.est_exec[id.0 as usize];
    let est_ct = now + SimDuration::from_secs_f64(est / speed);
    w.outstanding.reinstate(id.0, est_ct);
    #[cfg(test)]
    {
        w.est_completion[id.0 as usize] = Some(est_ct);
    }
}

/// Fires every matured chaos timer in (deadline, seq) order. Runs after
/// the completion loop, so a transfer that physically finished by `now`
/// has already vacated its map entry and its stale timer no-ops.
fn process_chaos_timers(w: &mut W, now: SimTime) {
    loop {
        let Some(ch) = &mut w.chaos else { return };
        let Some(timer) = ch.pop_matured(now) else { return };
        match timer {
            ChaosTimer::Timeout { site, upload, tid, started } => {
                on_transfer_timeout(w, site, upload, tid, started, now);
            }
            ChaosTimer::Retry { site, upload, id } => {
                // An upload re-queues in its size class; a result download
                // in the FIFO download pipe's one queue.
                let job = &w.jobs[id.0 as usize];
                let (class, bytes) = if upload {
                    (w.classify(site, job.input_bytes()), job.input_bytes())
                } else {
                    (SizeClass::Small, job.output_bytes)
                };
                w.sites[site].pipe(upload).queues.push_front(class, id, bytes);
            }
        }
    }
}

/// A transfer blew its recovery deadline: abort it (a stalled one never
/// reached the link), free its slot, and retry with backoff — or, once the
/// budget is exhausted, re-dispatch the job to the IC.
fn on_transfer_timeout(
    w: &mut W,
    site: usize,
    upload: bool,
    tid: TransferId,
    started: SimTime,
    now: SimTime,
) {
    let pipe = w.sites[site].pipe(upload);
    let Some((Payload::Job(id), _threads)) = pipe.in_flight.remove(&tid) else {
        return; // completed in the meantime — stale timer
    };
    let _ = pipe.link.abort(now, tid);
    pipe.free_slot(tid);
    let ch = w.chaos.as_mut().expect("chaos timers imply chaos state");
    ch.metrics.transfer_timeouts += 1;
    ch.metrics.fault_delay_secs += (now - started).as_secs_f64();
    retry_or_redispatch(w, site, id, now, upload);
}

/// Chaos: a machine crashes. Any running job is aborted and re-submitted
/// through its pool's ordinary wait queue; the crashed machine leaves the
/// dispatch rotation (and the free-time index sees it as never freeing)
/// until recovery.
fn on_machine_down(w: &mut W, sim: &mut Sim<W>, pool: Pool, machine: u32) {
    if w.all_done() {
        return;
    }
    let now = sim.now();
    on_wake(w, sim);
    let m = MachineId(machine as usize);
    let Some((cloud, speed)) = pool_mut(&mut w.ic, &mut w.sites, &w.cfg, pool) else {
        return; // plan compiled against a wider estate — ignore
    };
    if m.0 >= cloud.n_machines() {
        return;
    }
    let aborted = cloud.fail_machine(now, m);
    if let Some((id, _)) = aborted {
        let svc = w.jobs[id.0 as usize].true_service_secs;
        submit_for_exec(cloud, &w.est_exec, speed, id, svc, now);
        reinstate_estimate(w, id, now, speed);
    }
    let ch = w.chaos.as_mut().expect("machine events imply chaos state");
    ch.metrics.machine_crashes += 1;
    if let Some((_, span)) = aborted {
        ch.metrics.fault_delay_secs += span.as_secs_f64();
        ch.metrics.redispatches += 1;
    }
    resync(w, sim);
}

/// Chaos: a crashed machine comes back and immediately pulls queued work.
fn on_machine_up(w: &mut W, sim: &mut Sim<W>, pool: Pool, machine: u32) {
    if w.all_done() {
        return;
    }
    let now = sim.now();
    on_wake(w, sim);
    let m = MachineId(machine as usize);
    match pool_mut(&mut w.ic, &mut w.sites, &w.cfg, pool) {
        Some((cloud, _)) if m.0 < cloud.n_machines() => cloud.recover_machine(now, m),
        _ => return,
    }
    let ch = w.chaos.as_mut().expect("machine events imply chaos state");
    ch.metrics.machine_recoveries += 1;
    resync(w, sim);
}

/// Sec. IV-D pull-back: a freed IC machine reclaims the head of an EC
/// upload queue when local re-execution beats the estimated EC remainder.
// conform::hot_root
fn try_pull_back(w: &mut W, now: SimTime) {
    // The IC pool is read through its boundary snapshot, re-frozen per
    // reclaimed job (each pull-back mutates the pool).
    while matches!(w.ic.boundary(), b if b.idle > 0 && b.queued == 0) {
        // Epoch barrier: the candidate evaluation below reads QRSM
        // predictions, so queued observations become current first — after
        // the guard, so a wake with IC work still queued (nearly every IC
        // completion on a deep queue) pays no refit. A no-op branch once
        // flushed.
        qrsm_barrier(w);
        // Head candidates: the front of each class queue at each site.
        // `pb_cands`/`pb_meta` are persistent world scratch kept in
        // lock-step, so the decision slice feeds `pull_back_candidate`
        // directly — no per-iteration Vecs.
        w.pb_cands.clear();
        w.pb_meta.clear();
        for (si, s) in w.sites.iter().enumerate() {
            for class in SizeClass::ALL {
                if let Some((&id, bytes)) = s.up.queues.front(class) {
                    let backlog = s.up.link.remaining_bytes();
                    let wait = w.est.upload_secs(now, backlog);
                    let up = w.est.upload_secs(now, bytes);
                    let job = &w.jobs[id.0 as usize];
                    let est = w.est.exec_secs(job);
                    let down = w.est.download_secs(now, w.est.output_bytes(job));
                    w.pb_cands.push(PullBackCandidate {
                        est_remaining_ec_secs: wait + up + est / s.speed + down,
                        est_ic_reexec_secs: est / w.cfg.ic_speed,
                        not_yet_running: true,
                    });
                    w.pb_meta.push((si, class, id));
                }
            }
        }
        let Some(k) = pull_back_candidate(&w.pb_cands) else { break };
        let (si, class, id) = w.pb_meta[k];
        let (got, _) = w.sites[si]
            .up
            .queues
            .pop_front_class(class)
            .expect("candidate still at the head");
        debug_assert_eq!(got, id);
        w.move_job(id, Placement::Internal);
        let svc = w.jobs[id.0 as usize].true_service_secs;
        submit_for_exec(&mut w.ic, &w.est_exec, w.cfg.ic_speed, id, svc, now);
        w.n_pull_backs += 1;
    }
}

/// Sec. IV-D push-out: an idle upload pipe steals slack-satisfying work
/// from the tail of the IC wait queue.
// conform::hot_root
fn try_push_out(w: &mut W, now: SimTime) {
    // Cheapest guards first; all three are pure reads. The broker only
    // runs when some site's upload pipe is idle — a necessary condition
    // for its pick to pass the idle check below — because under
    // `CostAware` it scores every site.
    let q = w.ic.queued();
    if q == 0 {
        return;
    }
    let idle = |s: &EcSite| s.up.queues.is_empty() && s.up.link.in_flight() == 0;
    if !w.sites.iter().any(idle) {
        return;
    }
    let site = w.broker_site(now);
    if !idle(&w.sites[site]) {
        return;
    }
    // Epoch barrier: the candidate scan below reads QRSM predictions, so
    // queued observations must be refit in first (after the early returns
    // — a wake that evaluates no candidate reads no estimate).
    qrsm_barrier(w);
    // Fresh Eq. 1 anchors: replay the IC's FCFS drain with *current*
    // estimates. Using the completion estimates recorded at batch time
    // would bake in everything the system has since fallen behind on, and
    // late in a run those instants are already in the past. The drain
    // commits through the tournament index — O(log m) per waiting job.
    //
    // Beyond DRAIN_WINDOW the candidate pool is the queue's last
    // DRAIN_WINDOW jobs on top of the fluid prefix (the paper's scan
    // starts from the tail anyway, and the prefix collapses into the λ
    // anchor re-base), keeping one sweep depth-flat.
    let speed = w.cfg.ic_speed;
    fill_running_free(&w.est_exec, &mut w.ic_free_buf, &w.ic, speed, now);
    let tail = drain_prefix(&mut w.fluid, &mut w.ic_free_buf, &w.ic);
    w.po_waiting.clear();
    w.po_waiting.extend(w.ic.queued_tail(tail).map(|(key, _)| key));
    w.ft_index.reset_from(&w.ic_free_buf);
    let mut ahead_max: f64 = live_max(&w.ic_free_buf);
    w.po_slack.clear();
    for i in 0..w.po_waiting.len() {
        w.po_slack.push(eq1_slack(now, ahead_max));
        // Commit this job onto the planned drain for its successors.
        let est = w.est_exec[w.po_waiting[i].0 as usize];
        let idx = w.ft_index.fcfs_commit(est / speed);
        let committed = w.ft_index.value(idx);
        if committed < DEAD_FREE_SECS {
            ahead_max = ahead_max.max(committed);
        }
    }
    // Tail-first scan. The upload rate at `now` is read once
    // (`upload_secs(now, b)` is `b / upload_rate(now)` bit for bit), and a
    // job's execution (at the broker site's speed) and download estimates
    // only when its upload leg alone fits its slack (the exact floor of
    // `push_out_candidate`).
    let rate = w.est.upload_rate(now);
    let ec_speed = w.sites[site].speed;
    let job_at = |i: usize| &w.jobs[w.po_waiting[i].0 as usize];
    let pick = push_out_candidate(
        now,
        &w.po_slack,
        |i| job_at(i).input_bytes() as f64 / rate,
        |i, up| {
            let job = job_at(i);
            up + w.est.exec_secs(job) / ec_speed + w.est.download_secs(now, w.est.output_bytes(job))
        },
    );
    #[cfg(test)]
    assert_push_out_queue_matches_oracle(w, now, site, pick);
    let Some(k) = pick else {
        return;
    };
    let id = w.po_waiting[k];
    if w.ic.cancel_queued(id).is_none() {
        return;
    }
    let bytes = w.jobs[id.0 as usize].input_bytes();
    let class = w.classify(site, bytes);
    w.move_job(id, Placement::External);
    w.sites[site].up.queues.push(class, id, bytes);
    w.n_push_outs += 1;
    pump(w, site, true, now);
}

/// Rescan oracle for the indexed push-out drain and its floored pick:
/// re-derives the hybrid candidate pool (full queue at or below
/// [`DRAIN_WINDOW`] or with a dead estate, tail window over an
/// independently recomputed fluid prefix above it) and the per-job linear
/// min-scan, then asserts the indexed path produced the identical pool,
/// bitwise-identical slacks and drain state, and — from every job's full
/// round trip to `site` — (a) the pick of a plain tail-first scan and (b)
/// no job whose upload floor misses its slack while its round trip fits.
#[cfg(test)]
fn assert_push_out_queue_matches_oracle(w: &W, now: SimTime, site: usize, pick: Option<usize>) {
    let speed = w.cfg.ic_speed;
    let mut free = w.est_running_free_secs(&w.ic, speed, now);
    let q = w.ic.queued();
    let mut expected: Vec<JobId> = Vec::new();
    if q > DRAIN_WINDOW && free.iter().any(|v| *v < DEAD_FREE_SECS) {
        let prefix_ticks: u64 =
            w.ic.queued_detail().take(q - DRAIN_WINDOW).map(|(_, t)| t).sum();
        let prefix_secs = SimDuration::from_micros(prefix_ticks).as_secs_f64();
        let mut bases: Vec<f64> = free.iter().copied().filter(|v| *v < DEAD_FREE_SECS).collect();
        bases.sort_unstable_by(f64::total_cmp);
        let level = fluid_fill_level(&bases, prefix_secs);
        for v in free.iter_mut() {
            if *v < DEAD_FREE_SECS && *v < level {
                *v = level;
            }
        }
        expected.extend(w.ic.queued_detail().skip(q - DRAIN_WINDOW).map(|(key, _)| key));
    } else {
        expected.extend(w.ic.queued_detail().map(|(key, _)| key));
    }
    assert_eq!(w.po_waiting, expected, "push-out candidate pool diverged from rescan");
    let mut ahead_max: f64 = live_max(&free);
    let mut full: Vec<(Option<SimTime>, f64, f64)> = Vec::new();
    for (i, id) in w.po_waiting.iter().enumerate() {
        let slack = eq1_slack(now, ahead_max);
        let job = &w.jobs[id.0 as usize];
        let up = w.est.upload_secs(now, job.input_bytes());
        let exec = w.est.exec_secs(job) / w.sites[site].speed;
        let down = w.est.download_secs(now, w.est.output_bytes(job));
        full.push((slack, up, up + exec + down));
        let est = w.est_exec[id.0 as usize];
        let (idx, _) = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("IC has machines");
        free[idx] += est / speed;
        if free[idx] < DEAD_FREE_SECS {
            ahead_max = ahead_max.max(free[idx]);
        }
        assert_eq!(w.po_slack[i], slack, "push-out slack diverged at queue pos {i}");
    }
    assert_eq!(w.ft_index.values(), &free[..], "indexed push-out drain diverged from rescan");
    let fits = |slack: Option<SimTime>, secs: f64| {
        slack.is_some_and(|s| now + SimDuration::from_secs_f64(secs) <= s)
    };
    let rescan_pick = full.iter().rposition(|&(slack, _, round_trip)| fits(slack, round_trip));
    assert_eq!(pick, rescan_pick, "floored push-out pick diverged from the full tail scan");
    for (i, &(slack, up, round_trip)) in full.iter().enumerate() {
        assert!(
            fits(slack, up) || !fits(slack, round_trip),
            "queue pos {i}: the upload floor misses its slack but the round trip fits"
        );
    }
}

/// Autonomic probe: a 1 MB transfer each way, then self-reschedule.
fn on_probe(w: &mut W, sim: &mut Sim<W>, interval: SimDuration) {
    if w.all_done() {
        return; // run is over; let the event queue drain
    }
    let now = sim.now();
    use rand::Rng;
    let site = w.rng_probe.gen_range(0..w.sites.len());
    for upload in [true, false] {
        let tuner = if upload { &mut w.est.up_tuner } else { &mut w.est.down_tuner };
        let threads = tuner.threads_for(now);
        let tid = w.fresh_tid();
        let pipe = w.sites[site].pipe(upload);
        pipe.link.start(now, tid, PROBE_BYTES, threads);
        pipe.in_flight.insert(tid, (Payload::Probe, threads));
    }
    resync(w, sim);
    sim.schedule_in(interval, move |w, sim| on_probe(w, sim, interval));
}

/// Elastic-EC scaling tick: size the active EC pool to just saturate the
/// download pipe (Sec. V-B-4). See `crate::scaling` for the policy.
fn on_scaling_tick(w: &mut W, sim: &mut Sim<W>, period: SimDuration) {
    if w.all_done() {
        return;
    }
    let now = sim.now();
    w.accrue_provisioning(now);
    if let Some(policy) = w.cfg.scaling {
        for s in &mut w.sites {
            let target = crate::scaling::target_instances(
                &policy,
                s.pipeline_jobs(),
                s.down.backlog_bytes(),
                w.est.down.predict(now),
            );
            s.cloud.set_active_limit(target);
        }
    }
    resync(w, sim);
    sim.schedule_in(period, move |w, sim| on_scaling_tick(w, sim, period));
}

/// Runs one experiment to completion and returns its SLA report.
pub fn run_experiment(cfg: &ExperimentConfig) -> RunReport {
    let (report, _world) = run_experiment_detailed(cfg);
    report
}

/// As [`run_experiment`], also returning the final world for diagnostics
/// (rescheduling counters, estimator state, timelines).
pub fn run_experiment_detailed(cfg: &ExperimentConfig) -> (RunReport, EngineWorld) {
    let rngs = RngFactory::new(cfg.seed);
    let gen = BatchArrivals::new(cfg.arrivals.clone());
    let batches = gen.generate(&rngs, &cfg.truth);
    run_with_batches(cfg, batches)
}

/// Runs the engine against an explicit arrival schedule — a replayed
/// [`cloudburst_workload::WorkloadTrace`], a production log import, or a
/// hand-built scenario — instead of generating the workload from
/// `cfg.arrivals`. The config's arrival section only seeds the estimator
/// training in this mode.
pub fn run_with_batches(
    cfg: &ExperimentConfig,
    batches: Vec<cloudburst_workload::Batch>,
) -> (RunReport, EngineWorld) {
    run_with_plan(cfg, batches, None)
}

/// As [`run_with_batches`], with an explicit pre-compiled fault plan — the
/// serialize → replay path of the chaos layer. Replaying a plan produced
/// by a prior run (same config, same batches) is byte-identical to that
/// run. `None` falls back to compiling `cfg.faults`.
pub fn run_with_plan(
    cfg: &ExperimentConfig,
    batches: Vec<cloudburst_workload::Batch>,
    plan: Option<FaultPlan>,
) -> (RunReport, EngineWorld) {
    let mut harness = EngineHarness::closed(EngineWorld::new(cfg.clone(), plan), batches);
    harness.run();
    harness.finish()
}

/// Runs an open-system serving session to drain and returns its windowed
/// report: arrivals stream in lazily until the horizon, the pipeline
/// drains, and per-job state is recycled throughout — memory is O(live
/// jobs + windows) for any stream length.
pub fn serve_experiment(cfg: &ExperimentConfig) -> ServeReport {
    serve_experiment_detailed(cfg).0
}

/// As [`serve_experiment`], also returning the final world for diagnostics.
pub fn serve_experiment_detailed(cfg: &ExperimentConfig) -> (ServeReport, EngineWorld) {
    let mut harness = ServeHarness::new(cfg);
    harness.run();
    harness.finish()
}

/// A steppable engine driver: the event queue plus the world, exposed so
/// probes, benchmarks, and tests can advance a run to a mid-flight state
/// and exercise the decision path ([`EngineWorld::load_snapshot`],
/// [`EngineWorld::decision_sweep`]) directly. `R` is the report the run
/// ends in, which fixes the mode: [`EngineHarness`] drives a closed batch
/// run ([`run_with_batches`] is `new` → `run` → `finish`), and
/// [`ServeHarness`] an open serving stream, which the long-run probes step
/// window by window, draining closed rows as they go, so even a multi-day
/// stream holds only live state.
pub struct Harness<R> {
    world: EngineWorld,
    sim: Sim<EngineWorld>,
    report: std::marker::PhantomData<fn() -> R>,
}

/// The closed-batch driver: a fixed arrival schedule run to completion.
pub type EngineHarness = Harness<RunReport>;

/// The open-system serving driver: arrivals stream in until the horizon.
pub type ServeHarness = Harness<ServeReport>;

impl<R> std::fmt::Debug for Harness<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("now", &self.sim.now())
            .field("pending", &self.sim.pending())
            .field("world", &self.world)
            .finish()
    }
}

impl<R> Harness<R> {
    /// Wraps the world and its event queue (holding the mode's arrivals)
    /// after scheduling the control-plane events both modes share: fault
    /// plan crash/recover cycles, the autonomic probe and the scaling
    /// tick. Scheduling order (arrivals, faults, probe, scaling) is part
    /// of the byte contract — same-instant events fire in schedule order.
    fn with_events(world: EngineWorld, mut sim: Sim<EngineWorld>) -> Harness<R> {
        if let Some(ch) = &world.chaos {
            for f in ch.plan.machine_faults.clone() {
                let (pool, machine) = (f.pool, f.machine);
                sim.schedule_at(SimTime::from_secs_f64(f.down_at_secs), move |w, sim| {
                    on_machine_down(w, sim, pool, machine)
                });
                sim.schedule_at(SimTime::from_secs_f64(f.up_at_secs), move |w, sim| {
                    on_machine_up(w, sim, pool, machine)
                });
            }
        }
        if let Some(interval) = world.cfg.probe_interval {
            sim.schedule_in(interval, move |w, sim| on_probe(w, sim, interval));
        }
        if let Some(policy) = world.cfg.scaling {
            sim.schedule_in(policy.period, move |w, sim| on_scaling_tick(w, sim, policy.period));
        }
        Harness { world, sim, report: std::marker::PhantomData }
    }

    /// Fires the next event; `false` once the queue is empty.
    pub fn step(&mut self) -> bool {
        self.sim.step(&mut self.world)
    }

    /// Fires every event scheduled up to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.sim.run_until(&mut self.world, until);
    }

    /// Drains the event queue completely (in serving mode: the horizon,
    /// then the pipeline drain).
    pub fn run(&mut self) {
        self.sim.run(&mut self.world);
    }

    /// Current simulation clock.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The simulated world, for inspection.
    pub fn world(&self) -> &EngineWorld {
        &self.world
    }

    /// Mutable world access for probe APIs and window draining. Callers
    /// that mutate pipeline state must drive the run to completion through
    /// events they schedule themselves — the harness only resyncs on its
    /// own event handlers.
    pub fn world_mut(&mut self) -> &mut EngineWorld {
        &mut self.world
    }

    /// Asserts the run drained and accrues provisioning. Returns the end
    /// instant. No refit runs here: nothing reads the QRSM after the run.
    fn drain(&mut self) -> SimTime {
        assert!(
            self.world.all_done(),
            "engine deadlock: {} of {} job slots outstanding after the event queue drained",
            self.world.outstanding.len(),
            self.world.jobs.len()
        );
        // Nothing reads the drained pool, the empty wait queues or the
        // admission scratch again: free their storage before the report
        // allocates, so the two are not live together.
        self.world.outstanding = OutstandingSet::new();
        self.world.ic.release_queue();
        for s in &mut self.world.sites {
            s.cloud.release_queue();
        }
        self.world.sibs_candidates = Vec::new();
        self.world.uploads = Vec::new();
        let end = self.sim.now();
        self.world.accrue_provisioning(end);
        end
    }
}

impl Harness<RunReport> {
    /// Builds the world and schedules the arrival/probe/scaling events.
    pub fn new(cfg: &ExperimentConfig, batches: Vec<cloudburst_workload::Batch>) -> EngineHarness {
        EngineHarness::closed(EngineWorld::new(cfg.clone(), None), batches)
    }

    /// Schedules `batches` and the control-plane events around `world`.
    /// [`run_with_plan`] builds the world from an explicit fault plan.
    fn closed(mut world: EngineWorld, batches: Vec<cloudburst_workload::Batch>) -> EngineHarness {
        world.batches_total = batches.len() as u32;
        let mut sim: Sim<EngineWorld> = Sim::new();
        for (i, b) in batches.into_iter().enumerate() {
            sim.schedule_at(b.arrival, move |w, sim| {
                let jobs = w.pending[i].take().expect("a batch arrives once");
                on_batch(w, sim, jobs)
            });
            world.pending.push(Some(b.jobs));
        }
        Harness::with_events(world, sim)
    }

    /// Asserts the run completed and produces the SLA report.
    pub fn finish(mut self) -> (RunReport, EngineWorld) {
        let end = self.drain();
        #[cfg(test)]
        assert!(
            self.world.timelines().to_vec() == self.world.timeline_shadow,
            "the timeline store diverged from its dense shadow"
        );
        let report = self.world.report(end);
        (report, self.world)
    }
}

impl Harness<ServeReport> {
    /// Builds the serving world from `cfg.serve` (defaults when absent)
    /// and schedules the first epoch plus the control-plane events.
    pub fn new(cfg: &ExperimentConfig) -> ServeHarness {
        let serve_cfg = cfg.serve.clone().unwrap_or_default();
        let mut world = EngineWorld::new(cfg.clone(), None);
        let rngs = RngFactory::new(cfg.seed);
        let arrivals = OpenArrivals::new(serve_cfg.arrivals, &rngs, cfg.truth.clone());
        let horizon = SimTime::ZERO + serve_cfg.horizon;
        // Exactly one arrival event is pending at any time: the first epoch
        // here, each successor from `on_serve_epoch` itself. Each one, the
        // first included, is released only if it starts before the horizon.
        let first = arrivals.next_arrival();
        let mut sim: Sim<EngineWorld> = Sim::new();
        if first < horizon {
            sim.schedule_at(first, on_serve_epoch);
        }
        world.serve = Some(ServeState {
            arrivals,
            horizon,
            windows: WindowSeries::new(serve_cfg.window),
            free_head: NO_SLOT,
            seq_of: Vec::new(),
            bursted_jobs: 0,
            output_bytes_total: 0,
            live_high_water: 0,
            arrivals_done: first >= horizon,
        });
        Harness::with_events(world, sim)
    }

    /// Asserts the stream drained and produces the windowed serving report.
    pub fn finish(mut self) -> (ServeReport, EngineWorld) {
        let end = self.drain();
        let report = self.world.serve_report(end);
        (report, self.world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_sched::ProcTimeModel;
    use cloudburst_workload::{ArrivalConfig, SizeBucket};

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
            training_docs: 150,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn ic_only_run_completes_all_jobs() {
        let r = run_experiment(&small_cfg(SchedulerKind::IcOnly, 1));
        assert!(r.n_jobs > 0);
        assert_eq!(r.completion_times.len(), r.n_jobs);
        assert_eq!(r.burst_ratio, 0.0);
        assert_eq!(r.ec_utilization, 0.0);
        assert!(r.makespan_secs > 0.0);
        assert!(r.speedup > 1.0, "8 machines must beat sequential: {}", r.speedup);
        assert_eq!(r.uploaded_bytes, 0);
    }

    #[test]
    fn greedy_run_completes_and_reports() {
        let r = run_experiment(&small_cfg(SchedulerKind::Greedy, 2));
        assert_eq!(r.completion_times.len(), r.n_jobs);
        assert!(r.ic_utilization > 0.0 && r.ic_utilization <= 1.0);
        assert!((0.0..=1.0).contains(&r.burst_ratio));
        assert!(!r.oo_series.is_empty());
    }

    #[test]
    fn op_run_satisfies_basic_invariants() {
        let r = run_experiment(&small_cfg(SchedulerKind::OrderPreserving, 3));
        assert_eq!(r.completion_times.len(), r.n_jobs);
        // Makespan at least the largest single service time.
        assert!(r.makespan_secs * 1.02 >= r.sequential_secs / r.n_jobs as f64);
        // OO series is monotone.
        for w2 in r.oo_series.windows(2) {
            assert!(w2[1].o_t >= w2[0].o_t);
        }
    }

    #[test]
    fn sibs_run_completes() {
        let r = run_experiment(&small_cfg(SchedulerKind::Sibs, 4));
        assert_eq!(r.completion_times.len(), r.n_jobs);
        assert_eq!(r.scheduler, "op+sibs");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_experiment(&small_cfg(SchedulerKind::Greedy, 7));
        let b = run_experiment(&small_cfg(SchedulerKind::Greedy, 7));
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.completion_times, b.completion_times);
        assert_eq!(a.burst_ratio, b.burst_ratio);
        let c = run_experiment(&small_cfg(SchedulerKind::Greedy, 8));
        assert_ne!(a.makespan_secs, c.makespan_secs);
    }

    #[test]
    fn bursting_uploads_and_downloads_bytes() {
        // Load the IC hard enough that bursts happen.
        let mut cfg = small_cfg(SchedulerKind::Greedy, 5);
        cfg.n_ic = 2;
        cfg.arrivals.jobs_per_batch = 12.0;
        let r = run_experiment(&cfg);
        assert!(r.burst_ratio > 0.0, "2 IC machines should force bursting");
        assert!(r.uploaded_bytes > 0);
        assert!(r.downloaded_bytes > 0);
        assert!(r.ec_utilization > 0.0);
    }

    #[test]
    fn rescheduling_extension_runs() {
        let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 6);
        cfg.n_ic = 2;
        cfg.rescheduling = true;
        let (r, world) = run_experiment_detailed(&cfg);
        assert_eq!(r.completion_times.len(), r.n_jobs);
        // Counters exist (may legitimately be zero on an easy run).
        let _ = world.pull_backs() + world.push_outs();
    }

    /// Queues one QRSM observation (job 0 at its current estimate), so a
    /// refit is pending until the next flush.
    fn queue_observation(w: &mut EngineWorld) {
        let job = &w.jobs[0];
        let class = job.features.job_type.code() as u64;
        let x = job.features.regressors_arr();
        let y = w.est.exec_secs(job);
        w.est.qrsm.observe_queued(class, &x, y);
    }

    #[test]
    fn pull_back_refits_only_when_a_candidate_is_read() {
        // Two IC machines: the IC queue fills at the first batch. A long
        // EC blackout then holds bursted jobs in the upload queues while
        // the IC drains (rescheduling is off, so nothing pulls them back on
        // its own).
        let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 5);
        cfg.n_ic = 2;
        cfg.arrivals.jobs_per_batch = 12.0;
        cfg.faults = Some(FaultProfile::dormant().with_blackout(300.0, 4800.0));
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let mut h = EngineHarness::new(&cfg, batches);

        // IC work still queued: the boundary guard fails, no candidate is
        // evaluated, and the refit stays pending.
        while h.world().ic.queued() == 0 {
            assert!(h.step(), "the IC queue never filled");
        }
        let now = h.now();
        let w = h.world_mut();
        queue_observation(w);
        try_pull_back(w, now);
        assert!(w.est.flush_refits(), "pull-back refit the QRSM with IC work still queued");

        // An idle IC machine, an empty IC queue and an EC upload head: the
        // candidate evaluation reads the QRSM, so the refit ran first.
        let candidate_ready = |w: &EngineWorld| {
            let b = w.ic.boundary();
            b.idle > 0 && b.queued == 0 && w.sites.iter().any(|s| !s.up.queues.is_empty())
        };
        while !candidate_ready(h.world()) {
            assert!(h.step(), "no idle-IC state with a queued upload was reached");
        }
        let now = h.now();
        let w = h.world_mut();
        // The last batch is in, so without rescheduling the model is sealed
        // here; this probe is a rescheduling decision, so turn it on.
        w.cfg.rescheduling = true;
        queue_observation(w);
        try_pull_back(w, now);
        assert!(!w.est.flush_refits(), "pull-back read a candidate without refitting first");
    }

    /// Executions stamped done so far.
    fn execs_done(w: &EngineWorld) -> usize {
        w.timelines().iter().filter(|t| t.exec_done.get().is_some()).count()
    }

    #[test]
    fn qrsm_seals_after_the_last_batch_without_rescheduling() {
        // Two IC machines keep work running well past the last batch.
        let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 5);
        cfg.n_ic = 2;
        cfg.arrivals.jobs_per_batch = 12.0;
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let mut h = EngineHarness::new(&cfg, batches);
        while h.world().batches_seen < h.world().batches_total {
            assert!(!h.world().qrsm_sealed(), "sealed before the last batch");
            assert!(h.step(), "the run ended before its last batch");
        }
        assert!(h.world().qrsm_sealed(), "not sealed after the last batch");

        // Observations queued before the seal refit in once; completions
        // after it queue nothing.
        h.world_mut().est.flush_refits();
        let sealed_at = execs_done(h.world());
        while h.step() {}
        let w = h.world_mut();
        assert!(execs_done(w) > sealed_at, "no execution finished after the seal");
        assert!(!w.est.flush_refits(), "a sealed run still observed completions");
        let (r, _) = h.finish();
        assert_eq!(r.completion_times.len(), r.n_jobs);
    }

    #[test]
    fn qrsm_never_seals_with_rescheduling_or_before_the_horizon() {
        // Rescheduling reads the QRSM until the run drains.
        let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 5);
        cfg.n_ic = 2;
        cfg.arrivals.jobs_per_batch = 12.0;
        cfg.rescheduling = true;
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let mut h = EngineHarness::new(&cfg, batches);
        while h.step() {
            assert!(!h.world().qrsm_sealed(), "sealed with rescheduling on at {:?}", h.now());
        }
        assert_eq!(h.world().batches_seen, h.world().batches_total);

        // Serving without rescheduling: open until the horizon, sealed
        // once the last epoch is in.
        let mut h = ServeHarness::new(&serve_cfg(42));
        let mut sealed_steps = 0;
        while h.step() {
            let w = h.world();
            let horizon_reached = w.serve.as_ref().is_some_and(|s| s.arrivals_done);
            assert_eq!(w.qrsm_sealed(), horizon_reached, "seal at {:?}", h.now());
            sealed_steps += horizon_reached as usize;
        }
        assert!(sealed_steps > 0, "the stream drained with no step after its horizon");
    }

    #[test]
    fn trace_replay_reproduces_the_generated_run() {
        // Replaying the exact batches the generator would produce yields
        // the identical report.
        let cfg = small_cfg(SchedulerKind::OrderPreserving, 33);
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let trace = cloudburst_workload::WorkloadTrace::new("test", batches);
        let replayed = cloudburst_workload::WorkloadTrace::from_json(&trace.to_json())
            .expect("round trip");
        let (a, _) = run_with_batches(&cfg, replayed.batches);
        let b = run_experiment(&cfg);
        assert_eq!(a.n_jobs, b.n_jobs);
        assert_eq!(a.burst_ratio, b.burst_ratio);
        // Completion times agree to within JSON f64 printing precision.
        for (x, y) in a.completion_times.iter().zip(&b.completion_times) {
            assert!((x.as_secs_f64() - y.as_secs_f64()).abs() < 1e-3);
        }
    }

    #[test]
    fn timelines_are_complete_and_ordered() {
        let mut cfg = small_cfg(SchedulerKind::Greedy, 14);
        cfg.n_ic = 2; // force some bursting so both paths are exercised
        let (r, world) = run_experiment_detailed(&cfg);
        let tls = world.timelines();
        assert_eq!(tls.len(), r.n_jobs);
        let mut saw_external = false;
        for tl in tls.iter() {
            tl.check_ordering().unwrap_or_else(|(a, b)| {
                panic!("job {} stage {} precedes {}", tl.id, b, a);
            });
            assert!(tl.completed.get().is_some(), "job {} never completed", tl.id);
            assert_eq!(tl.completed.get(), Some(r.completion_times[tl.id as usize]));
            match tl.placement {
                Placement::Internal => {
                    assert!(tl.upload_started.get().is_none(), "local job {} uploaded", tl.id);
                    assert!(tl.download_done.get().is_none());
                }
                Placement::External => {
                    saw_external = true;
                    let id = tl.id;
                    assert!(tl.upload_started.get().is_some(), "bursted job {id} has no upload");
                    assert!(tl.upload_done.get().is_some());
                    assert!(tl.download_done.get().is_some());
                    // Completion is the download arrival for bursted jobs.
                    assert_eq!(tl.completed, tl.download_done);
                }
            }
            assert!(tl.exec_started.get().is_some() && tl.exec_done.get().is_some());
            assert!(tl.turnaround_secs().expect("complete") > 0.0);
        }
        assert!(saw_external, "config should force at least one burst");
    }

    #[test]
    fn tickets_are_issued_and_margin_improves_attainment() {
        let run_with_k = |k: f64| {
            let mut cfg = small_cfg(SchedulerKind::Greedy, 12);
            cfg.ticket_margin_k = k;
            run_experiment(&cfg)
        };
        let r0 = run_with_k(0.0);
        assert_eq!(r0.tickets.len(), r0.n_jobs);
        let t0 = r0.ticket_report();
        assert!((0.0..=1.0).contains(&t0.attainment));
        // A generous margin must not reduce attainment, and pushes it high.
        let r3 = run_with_k(3.0);
        let t3 = r3.ticket_report();
        assert!(t3.attainment >= t0.attainment, "{} vs {}", t3.attainment, t0.attainment);
        assert!(t3.mean_quote_secs > t0.mean_quote_secs, "margin lengthens quotes");
        // Placements are identical (the margin only changes the quote).
        assert_eq!(r0.completion_times, r3.completion_times);
    }

    #[test]
    fn per_class_models_improve_class_varied_truth() {
        // Under a class-varied truth law the pooled QRSM averages regimes;
        // per-class models quote tighter tickets.
        let run = |per_class: bool| {
            let mut cfg = small_cfg(SchedulerKind::Greedy, 21);
            cfg.truth = cloudburst_workload::GroundTruth::class_varied();
            cfg.per_class_qrsm = per_class;
            cfg.training_docs = 1200; // enough per-class coverage
            cfg.ticket_margin_k = 0.5;
            run_experiment(&cfg)
        };
        let pooled = run(false);
        let classed = run(true);
        assert_eq!(pooled.n_jobs, classed.n_jobs, "same workload");
        let a_pooled = pooled.ticket_report().attainment;
        let a_classed = classed.ticket_report().attainment;
        assert!(
            a_classed >= a_pooled - 0.05,
            "per-class models shouldn't hurt: {a_classed} vs {a_pooled}"
        );
    }

    #[test]
    fn probing_feeds_the_estimators() {
        let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 9);
        cfg.probe_interval = Some(SimDuration::from_mins(2));
        let (_, world) = run_experiment_detailed(&cfg);
        assert!(world.est.up.observations() > 0, "probes must feed the upload EWMA");
        assert!(world.est.down.observations() > 0);
    }

    #[test]
    fn multi_ec_sites_share_load() {
        let mut cfg = small_cfg(SchedulerKind::Greedy, 10);
        cfg.n_ic = 1; // force heavy bursting
        cfg.extra_ec_sites = vec![EcSiteConfig {
            n_machines: 2,
            speed: 1.0,
            upload_model: cfg.upload_model.clone(),
            download_model: cfg.download_model.clone(),
            price: None,
        }];
        let (r, world) = run_experiment_detailed(&cfg);
        assert_eq!(r.completion_times.len(), r.n_jobs);
        if r.burst_ratio > 0.2 {
            assert!(
                (0..2).all(|s| world.ec_cloud(s).completed() > 0),
                "broker should spread across sites"
            );
        }
    }

    #[test]
    fn each_ec_site_is_scaled_by_its_own_speed() {
        // The primary EC site runs at `ec_speed` 1.0, the extra one at
        // 4.0 behind a near-instant upload pipe, so its one machine queues
        // work. Every expectation below reads the speed from the config,
        // never from the engine.
        let mut cfg = small_cfg(SchedulerKind::Greedy, 10);
        cfg.n_ic = 1;
        cfg.rescheduling = true; // keeps the QRSM live for the probe below
        cfg.arrivals.jobs_per_batch = 12.0;
        let fast = EcSiteConfig {
            n_machines: 1,
            speed: 4.0,
            upload_model: BandwidthModel::Constant(1e12),
            download_model: cfg.download_model.clone(),
            price: None,
        };
        cfg.extra_ec_sites = vec![fast];
        assert_eq!(cfg.ec_speed, 1.0);
        let speed = cfg.extra_ec_sites[0].speed;
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let mut h = EngineHarness::new(&cfg, batches);

        // The site's maintained queue cost is its jobs' estimated seconds
        // at the site's own speed, in integer ticks.
        let mut queued_steps = 0;
        while h.step() {
            let w = h.world();
            let cloud = &w.sites[1].cloud;
            let want: u64 = cloud
                .queued_detail()
                .map(|(k, _)| {
                    SimDuration::from_secs_f64(w.est_exec[k.0 as usize] / speed).as_micros()
                })
                .sum();
            assert_eq!(cloud.queued_cost_ticks(), want, "site 1 queue cost at {:?}", h.now());
            queued_steps += (cloud.queued() > 0) as usize;
        }
        assert!(queued_steps > 0, "the fast site never queued a job");

        // An execution on that site teaches the QRSM standard seconds:
        // 486 s of standard work runs 121.5 s at speed 4.0 (exact ticks).
        let now = h.now();
        let w = h.world_mut();
        let id = JobId(0);
        let truth = 486.0;
        let mut site = Cloud::homogeneous("probe", 1, speed);
        site.submit(now, id, truth);
        let mut done = Vec::new();
        site.advance_into(site.next_wake().expect("the probe job runs"), &mut done);
        let c = done[0];
        let x = w.jobs[0].features.regressors_arr();
        let ProcTimeModel::Pooled(mut want) = w.est.qrsm.clone() else { panic!("pooled QRSM") };
        want.observe_queued(&x, truth);
        finish_exec(w, id, c.at, c.started, Pool::Ec(1));
        let ProcTimeModel::Pooled(got) = &mut w.est.qrsm else { panic!("pooled QRSM") };
        #[cfg(debug_assertions)]
        assert!(got.same_bits(&want), "site 1's observation is not the job's standard time");
        // Release builds compile `same_bits` out; the refit still tells
        // the two observations apart.
        got.flush_refit();
        want.flush_refit();
        assert_eq!(got.predict(&x).to_bits(), want.predict(&x).to_bits(), "refit after site 1");
    }

    #[test]
    fn an_extra_site_is_planned_at_its_own_speed() {
        // The primary EC runs at `ec_speed` 1.0 and costs $10/h; the extra
        // site runs at 4.0 and costs $1/h, so the cost-aware broker sends
        // the first batch there. A wide 0.01-speed IC bursts most jobs and
        // keeps idle machines and an empty queue, so pull-back evaluates
        // the jobs queued at the fast site's upload pipe.
        let mut cfg = small_cfg(SchedulerKind::Greedy, 10);
        cfg.n_ic = 50;
        cfg.ic_speed = 0.01;
        cfg.arrivals.jobs_per_batch = 12.0;
        cfg.extra_ec_sites = vec![EcSiteConfig {
            n_machines: 1,
            speed: 4.0,
            upload_model: cfg.upload_model.clone(),
            download_model: cfg.download_model.clone(),
            price: Some(PriceModel::flat(Money::from_usd(1))),
        }];
        cfg.econ = Some(cloudburst_econ::EconConfig {
            primary_price: Some(PriceModel::flat(Money::from_usd(10))),
            broker: BrokerPolicy::CostAware,
            ..cloudburst_econ::EconConfig::dormant()
        });
        assert_eq!(cfg.ec_speed, 1.0);
        let speed = cfg.extra_ec_sites[0].speed;
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let mut h = EngineHarness::new(&cfg, batches);
        while h.world().jobs.is_empty() {
            assert!(h.step(), "no batch arrived");
        }
        let now = h.now();
        let w = h.world_mut();
        let bursts = w.timelines().iter().filter(|t| t.placement == Placement::External).count();
        assert!(bursts >= 2, "{bursts} bursts");
        assert_eq!(w.sites[1].up.link.in_flight(), 1, "the batch went to the fast site");

        // Planned onto it: the batch's first burst meets an idle site with
        // nothing ahead of its upload, so its committed completion is
        // `now + up + est / 4.0 + down`.
        let first = w.timelines().iter().position(|t| t.placement == Placement::External);
        let first = first.expect("a burst");
        let job = &w.jobs[first];
        let est = w.est_exec[first];
        let up = w.est.upload_secs(now, job.input_bytes());
        let exec = est / speed;
        let dl_at = now + SimDuration::from_secs_f64(0.0 + up + exec);
        let down = w.est.download_secs(dl_at, w.est.output_bytes(job));
        let planned = now + SimDuration::from_secs_f64(up.max(0.0) + exec + down);
        assert_eq!(w.est_completion[first], Some(planned), "the EC leg is not est / 4.0");

        // Queued at it: the head of the site's upload queue is a pull-back
        // candidate whose remaining EC time carries the same leg.
        assert!(matches!(w.ic.boundary(), b if b.idle > 0 && b.queued == 0));
        try_pull_back(w, now);
        assert_eq!(w.n_pull_backs, 0, "a 0.01-speed IC reclaims nothing");
        assert_eq!(w.pb_meta.len(), 1);
        let (si, _, id) = w.pb_meta[0];
        assert_eq!(si, 1);
        let job = &w.jobs[id.0 as usize];
        let est = w.est.exec_secs(job);
        let wait = w.est.upload_secs(now, w.sites[1].up.link.remaining_bytes());
        let up = w.est.upload_secs(now, job.input_bytes());
        let down = w.est.download_secs(now, w.est.output_bytes(job));
        assert_eq!(
            w.pb_cands[0].est_remaining_ec_secs.to_bits(),
            (wait + up + est / speed + down).to_bits(),
            "the queued job's EC leg is not est / 4.0"
        );
    }

    #[test]
    fn drain_prefix_replays_the_window_or_the_whole_queue() {
        // Two machines, every job estimated at 2 s on them; the first two
        // run, the rest queue.
        let n = 2 + DRAIN_WINDOW + 7;
        let est_exec = vec![2.0; n];
        let now = SimTime::ZERO;
        let mut cloud: Cloud<JobId> = Cloud::homogeneous("drain", 2, 1.0);
        let submit = |cloud: &mut Cloud<JobId>, ids: std::ops::Range<usize>| {
            for k in ids {
                let id = JobId(k as u64);
                cloud.submit_weighted(now, id, 2.0, drain_cost_ticks(&est_exec, id, 1.0));
            }
        };
        let mut fluid = FluidScratch::new();
        let mut free = Vec::new();

        // Within the window: the whole queue replays, no fluid is poured.
        submit(&mut cloud, 0..12);
        fill_running_free(&est_exec, &mut free, &cloud, 1.0, now);
        assert_eq!(free, [2.0, 2.0]);
        assert_eq!(drain_prefix(&mut fluid, &mut free, &cloud), 10);
        assert_eq!(free, [2.0, 2.0]);

        // Past it: the 7 jobs ahead of the window pour 14 s of fluid onto
        // the two 2 s bases, a common level of 9 s.
        submit(&mut cloud, 12..n);
        assert_eq!(cloud.queued(), DRAIN_WINDOW + 7);
        fill_running_free(&est_exec, &mut free, &cloud, 1.0, now);
        assert_eq!(drain_prefix(&mut fluid, &mut free, &cloud), DRAIN_WINDOW);
        assert_eq!(free, [9.0, 9.0]);

        // Every machine dead: no live base takes the fluid, so the whole
        // queue replays and the sentinels stay.
        cloud.fail_machine(now, MachineId(0));
        cloud.fail_machine(now, MachineId(1));
        fill_running_free(&est_exec, &mut free, &cloud, 1.0, now);
        assert_eq!(drain_prefix(&mut fluid, &mut free, &cloud), DRAIN_WINDOW + 7);
        assert_eq!(free, [DEAD_FREE_SECS, DEAD_FREE_SECS]);
    }

    #[test]
    fn deep_queue_hybrid_drain_is_oracle_checked() {
        // Push the IC queue far past DRAIN_WINDOW so every in-loop oracle
        // (`est_free_secs`, `assert_push_out_queue_matches_oracle`, the
        // maintained tick totals) exercises the fluid-prefix + exact-tail
        // hybrid rather than the at-or-below-window exact replay.
        let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 77);
        cfg.n_ic = 4;
        cfg.n_ec = 2;
        cfg.rescheduling = true;
        cfg.arrivals.n_batches = 2;
        cfg.arrivals.jobs_per_batch = 700.0;
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let total: usize = batches.iter().map(|b| b.jobs.len()).sum();
        assert!(total > 2 * DRAIN_WINDOW, "workload too small to exceed the window");
        let mut h = EngineHarness::new(&cfg, batches);
        // Right after the first batch lands, the IC backlog dwarfs the
        // exact-tail window — the hybrid branch is live from here on.
        h.run_until(SimTime::from_secs(1));
        let queued = h.world().ic_cloud().queued();
        assert!(queued > DRAIN_WINDOW, "queue depth {queued} never exceeded the window");
        h.run();
        let (r, _) = h.finish();
        assert_eq!(r.completion_times.len(), r.n_jobs);
    }

    fn serve_cfg(seed: u64) -> ExperimentConfig {
        use cloudburst_workload::OpenArrivalConfig;
        let mut cfg = small_cfg(SchedulerKind::OrderPreserving, seed);
        cfg.serve = Some(crate::config::ServeConfig {
            arrivals: OpenArrivalConfig {
                epoch: SimDuration::from_secs(120),
                jobs_per_epoch: 4.0,
                bucket: SizeBucket::SmallBiased,
                ..OpenArrivalConfig::default()
            },
            horizon: SimDuration::from_secs(3600),
            window: cloudburst_sla::WindowConfig {
                window: SimDuration::from_secs(300),
                ..cloudburst_sla::WindowConfig::default()
            },
        });
        cfg
    }

    #[test]
    fn serve_run_drains_and_reports_windows() {
        let (r, world) = serve_experiment_detailed(&serve_cfg(41));
        assert!(r.jobs_admitted >= 30 * 4, "30 epochs x >=4 jobs: {}", r.jobs_admitted);
        assert_eq!(r.jobs_completed, r.jobs_admitted, "open stream must drain");
        assert_eq!(world.serve_live_jobs(), 0);
        assert!(r.drained_at_secs >= 3480.0, "last epoch fires before the horizon");
        assert!(r.mean_completion_rate_per_sec > 0.0);
        assert!(r.output_bytes > 0);
        assert!(r.live_high_water >= 1);
        assert!(!r.windows.is_empty());
        // Window rows are contiguous and conserve the job count.
        for pair in r.windows.windows(2) {
            assert_eq!(pair[1].index, pair[0].index + 1);
        }
        let arr: u64 = r.windows.iter().map(|w| w.arrivals).sum();
        let done: u64 = r.windows.iter().map(|w| w.completions).sum();
        assert_eq!(arr, r.jobs_admitted);
        assert_eq!(done, r.jobs_completed);
        // Ticket verdicts were folded for every completion.
        let verdicts: u64 = r.windows.iter().map(|w| w.tickets_met + w.tickets_missed).sum();
        assert_eq!(verdicts, r.jobs_completed);
    }

    #[test]
    fn serve_runs_are_deterministic() {
        let a = serve_experiment(&serve_cfg(42));
        let b = serve_experiment(&serve_cfg(42));
        assert_eq!(
            serde_json::to_string(&a).expect("json"),
            serde_json::to_string(&b).expect("json"),
            "same seed, byte-identical serve report"
        );
        let c = serve_experiment(&serve_cfg(43));
        assert_ne!(a.output_bytes, c.output_bytes, "different seed, different stream");
    }

    #[test]
    fn serve_recycles_job_slots() {
        // A stable (underloaded) stream admits far more jobs than it ever
        // holds live: the slab stops growing at the live high-water mark,
        // and so does every per-job column — the chaos attempt counters
        // too, when a fault plan is armed.
        let lossy = cloudburst_chaos::FaultProfile {
            transfer_loss_prob: 0.1,
            exec_failure_prob: 0.1,
            ..cloudburst_chaos::FaultProfile::dormant()
        };
        for faults in [None, Some(lossy)] {
            let armed = faults.is_some();
            let mut cfg = serve_cfg(44);
            cfg.faults = faults;
            let (r, world) = serve_experiment_detailed(&cfg);
            let slots = world.job_slots() as u64;
            assert_eq!(slots, r.live_high_water, "slab high-water == live high-water");
            assert!(
                slots < r.jobs_admitted / 2,
                "slots {} should be far below admitted {}",
                slots,
                r.jobs_admitted
            );
            assert!(world.timelines().is_empty(), "serving keeps no timelines");
            assert_eq!(world.est_exec.len() as u64, slots);
            assert_eq!(world.ticket_promise.len() as u64, slots);
            assert_eq!(world.chaos.is_some(), armed);
            if let Some(ch) = &world.chaos {
                assert_eq!(ch.attempts.len() as u64, slots);
                assert!(r.faults.recovery_actions() > 0, "{:?}", r.faults);
            }
        }
    }

    /// A closed run sizes each per-job column once, at its first batch,
    /// for every job of every batch with chunks counted, so no column
    /// holds doubling slack when the run drains; under chaos the attempt
    /// counters too. `finish` frees the drained outstanding set and wait
    /// queues.
    #[test]
    fn closed_run_columns_are_sized_exactly() {
        let lossy = cloudburst_chaos::FaultProfile {
            transfer_loss_prob: 0.1,
            exec_failure_prob: 0.1,
            ..cloudburst_chaos::FaultProfile::dormant()
        };
        for faults in [None, Some(lossy)] {
            let armed = faults.is_some();
            let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 5);
            cfg.arrivals.n_batches = 4;
            cfg.arrivals.jobs_per_batch = 25.0;
            cfg.faults = faults;
            let batches = BatchArrivals::new(cfg.arrivals.clone())
                .generate(&RngFactory::new(cfg.seed), &cfg.truth);
            let mut h = EngineHarness::new(&cfg, batches);
            h.run();
            let w = h.world();
            let rows = w.jobs.len();
            assert!(w.jobs.iter().any(Job::is_chunk), "the run must chunk");
            assert_eq!(w.batches_seen, 4);
            let columns = [
                ("jobs", w.jobs.len(), w.jobs.capacity()),
                ("est_exec", w.est_exec.len(), w.est_exec.capacity()),
                ("est_completion", w.est_completion.len(), w.est_completion.capacity()),
                ("ticket_promise", w.ticket_promise.len(), w.ticket_promise.capacity()),
                ("timeline rows", w.timelines.rows.len(), w.timelines.rows.capacity()),
            ];
            for (name, len, capacity) in columns {
                assert_eq!((len, capacity), (rows, rows), "{name} (len, capacity)");
            }
            let batch_pairs = &w.timelines.batches;
            assert_eq!((batch_pairs.len(), batch_pairs.capacity()), (4, 4), "timeline batch pairs");
            // One transfer entry per job ever placed External, no more.
            let bursted = w.timelines.rows.iter().filter(|r| r.transfer != NO_TRANSFER).count();
            assert!(bursted > 0, "the run must burst");
            assert!(bursted < rows, "the run must keep jobs local");
            assert_eq!(w.timelines.transfers.len(), bursted, "timeline transfer entries");
            assert_eq!(w.outstanding.capacities(), [rows; 3], "outstanding set columns");
            assert_eq!(w.chaos.is_some(), armed);
            if let Some(ch) = &w.chaos {
                assert_eq!((ch.attempts.len(), ch.attempts.capacity()), (rows, rows), "attempts");
            }
            assert!(w.ic.queue_capacity() > 0, "the run must queue on the IC");
            let (report, w) = h.finish();
            assert_eq!(report.completion_times.len(), rows);
            assert_eq!(w.outstanding.capacities(), [0; 3], "the drained set is freed");
            assert_eq!(w.outstanding_jobs(), 0);
            assert_eq!(w.ic.queue_capacity(), 0, "the drained IC queue is freed");
            for (i, s) in w.sites.iter().enumerate() {
                assert_eq!(s.cloud.queue_capacity(), 0, "EC site {i}'s drained queue is freed");
            }
        }
    }

    /// Serving grows each per-job column by exactly the fresh slots an
    /// epoch may take, so every column ends at the live high-water with no
    /// doubling slack, under chaos the attempt counters too; it keeps no
    /// timelines.
    #[test]
    fn serve_run_columns_are_sized_to_the_live_high_water() {
        let lossy = cloudburst_chaos::FaultProfile {
            transfer_loss_prob: 0.1,
            exec_failure_prob: 0.1,
            ..cloudburst_chaos::FaultProfile::dormant()
        };
        for faults in [None, Some(lossy)] {
            let armed = faults.is_some();
            let mut cfg = serve_cfg(44);
            cfg.faults = faults;
            let mut h = ServeHarness::new(&cfg);
            h.run();
            let w = h.world();
            let serve = w.serve.as_ref().expect("serve state");
            let rows = serve.live_high_water as usize;
            assert!(rows > 1, "the stream must hold several jobs live");
            assert!(serve.windows.total_admitted() > 2 * rows as u64, "the stream must recycle");
            let columns = [
                ("jobs", w.jobs.len(), w.jobs.capacity()),
                ("est_exec", w.est_exec.len(), w.est_exec.capacity()),
                ("est_completion", w.est_completion.len(), w.est_completion.capacity()),
                ("ticket_promise", w.ticket_promise.len(), w.ticket_promise.capacity()),
                ("seq_of", serve.seq_of.len(), serve.seq_of.capacity()),
            ];
            for (name, len, capacity) in columns {
                assert_eq!((len, capacity), (rows, rows), "{name} (len, capacity)");
            }
            assert_eq!(w.outstanding.capacities(), [rows; 3], "outstanding set columns");
            let t = &w.timelines;
            let capacities = (t.rows.capacity(), t.transfers.capacity(), t.batches.capacity());
            assert_eq!(capacities, (0, 0, 0), "timelines");
            assert_eq!(w.chaos.is_some(), armed);
            if let Some(ch) = &w.chaos {
                assert_eq!((ch.attempts.len(), ch.attempts.capacity()), (rows, rows), "attempts");
            }
        }
    }

    #[test]
    fn job_output_bytes_reads_zero_until_delivery() {
        let mut cfg = small_cfg(SchedulerKind::Greedy, 14);
        cfg.n_ic = 2;
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let mut h = EngineHarness::new(&cfg, batches);
        // Mid-run: some admitted job has not delivered yet.
        let pending = loop {
            assert!(h.step(), "every job delivered before one was seen pending");
            let w = h.world();
            if let Some(t) = w.timelines().iter().find(|t| t.completed.get().is_none()) {
                break t.id;
            }
        };
        assert_eq!(h.world().job_output_bytes(pending), 0, "undelivered job has no bytes");
        h.run();
        let (_, world) = h.finish();
        for (i, job) in world.jobs.iter().enumerate() {
            assert!(job.output_bytes > 0);
            assert_eq!(world.job_output_bytes(i as u64), job.output_bytes);
        }
    }

    #[test]
    #[should_panic(expected = "job_output_bytes reads a closed run's per-job ledger")]
    fn job_output_bytes_is_closed_only() {
        let (_, world) = serve_experiment_detailed(&serve_cfg(41));
        world.job_output_bytes(0);
    }

    #[test]
    fn zero_serving_horizon_admits_nothing() {
        // "The last epoch released starts strictly before the horizon": a
        // zero horizon releases no epoch at all, and the stream drains at
        // once instead of tripping the deadlock assert.
        let mut cfg = small_cfg(SchedulerKind::OrderPreserving, 48);
        cfg.serve = Some(crate::config::ServeConfig {
            horizon: SimDuration::ZERO,
            ..crate::config::ServeConfig::default()
        });
        let (r, world) = serve_experiment_detailed(&cfg);
        assert_eq!(r.jobs_admitted, 0);
        assert_eq!(r.jobs_completed, 0);
        assert!(world.jobs.is_empty());
    }

    #[test]
    fn serve_windows_drain_incrementally() {
        // Stepping window-by-window and draining as we go yields the same
        // totals as the final report, with the buffer held at O(1).
        let cfg = serve_cfg(45);
        let mut h = ServeHarness::new(&cfg);
        let window = SimDuration::from_secs(300);
        let mut drained: Vec<WindowStats> = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += window;
            h.run_until(t);
            let batch = h.world_mut().drain_serve_windows();
            assert!(batch.len() <= 2, "buffer must stay O(1): {}", batch.len());
            drained.extend(batch);
        }
        h.run();
        let admitted = h.world().serve_admitted_jobs();
        let (r, _) = h.finish();
        assert_eq!(r.jobs_admitted, admitted);
        let all: u64 =
            drained.iter().chain(r.windows.iter()).map(|w| w.arrivals).sum();
        assert_eq!(all, r.jobs_admitted, "drained + final rows conserve arrivals");
        for (i, w) in drained.iter().chain(r.windows.iter()).enumerate() {
            assert_eq!(w.index, i as u64, "window rows stay contiguous across drains");
        }
    }

    #[test]
    fn serve_with_chaos_still_drains() {
        let mut cfg = serve_cfg(46);
        cfg.faults = Some(cloudburst_chaos::FaultProfile {
            exec_failure_prob: 0.1,
            ..cloudburst_chaos::FaultProfile::dormant()
        });
        let r = serve_experiment(&cfg);
        assert_eq!(r.jobs_completed, r.jobs_admitted, "retries must converge");
        assert!(r.faults.exec_failures > 0, "10% fault rate over {} jobs", r.jobs_admitted);
        let window_faults: u64 = r.windows.iter().map(|w| w.faults.exec_failures).sum();
        assert_eq!(window_faults, r.faults.exec_failures, "heartbeat deltas conserve faults");
    }

    /// A minimal econ section: the given primary price, everything else
    /// dormant (free penalty, admit-all, legacy broker).
    fn econ_section(primary: Option<PriceModel>) -> cloudburst_econ::EconConfig {
        cloudburst_econ::EconConfig {
            primary_price: primary,
            ..cloudburst_econ::EconConfig::dormant()
        }
    }

    #[test]
    fn dormant_econ_section_is_byte_identical_to_absent() {
        let without = run_experiment(&small_cfg(SchedulerKind::Greedy, 7));
        let mut cfg = small_cfg(SchedulerKind::Greedy, 7);
        cfg.econ = Some(cloudburst_econ::EconConfig::dormant());
        let (with, world) = run_experiment_detailed(&cfg);
        assert!(world.econ_metrics().is_none(), "dormant section must arm nothing");
        assert_eq!(
            serde_json::to_string(&with).expect("json"),
            serde_json::to_string(&without).expect("json"),
            "dormant econ section changed the run bytes"
        );
    }

    #[test]
    fn pricing_alone_bills_without_perturbing_the_run() {
        let mut cfg = small_cfg(SchedulerKind::Greedy, 5);
        cfg.n_ic = 2;
        cfg.arrivals.jobs_per_batch = 12.0;
        let base = run_experiment(&cfg);
        cfg.econ = Some(econ_section(Some(PriceModel::OnDemand {
            usd_per_machine_hour: Money::from_usd(2),
            usd_per_gb_transfer: Money::from_cents(9),
        })));
        let (priced, world) = run_experiment_detailed(&cfg);
        // The ledger is an observer: the schedule itself is unchanged.
        assert_eq!(priced.completion_times, base.completion_times);
        assert_eq!(priced.burst_ratio, base.burst_ratio);
        let m = world.econ_metrics().expect("priced run arms the ledger");
        assert!(m.compute > Money::ZERO, "bursts ran on metered machines");
        assert!(m.transfer > Money::ZERO, "bursts moved billable bytes");
        assert_eq!(m.net_cost(), m.compute + m.transfer + m.penalty);
        assert!(m.per_site[0].execs_billed > 0);
        assert_eq!(m.jobs_rejected, 0, "admit-all rejects nothing");
        assert_eq!(priced.econ.as_ref().map(|e| e.compute), Some(m.compute));
    }

    #[test]
    fn hourly_rental_bills_whole_acquired_hours() {
        let mut cfg = small_cfg(SchedulerKind::Greedy, 5);
        cfg.n_ic = 2;
        cfg.arrivals.jobs_per_batch = 12.0;
        cfg.econ = Some(econ_section(Some(PriceModel::HourlyRental {
            usd_per_machine_hour: Money::from_usd(3),
            usd_per_gb_transfer: Money::ZERO,
        })));
        let (_, world) = run_experiment_detailed(&cfg);
        let m = world.econ_metrics().expect("armed");
        let hours = m.per_site[0].rental_hours;
        assert!(hours > 0, "bursts must acquire rental hours");
        assert_eq!(m.compute, Money::from_usd(3 * hours as i64), "rent = rate × whole hours");
        assert_eq!(m.transfer, Money::ZERO);
    }

    #[test]
    fn spot_revocations_realize_through_the_fault_plan() {
        let mut cfg = small_cfg(SchedulerKind::Greedy, 11);
        cfg.n_ic = 2;
        cfg.arrivals.jobs_per_batch = 12.0;
        cfg.econ = Some(econ_section(Some(PriceModel::Spot {
            base_usd_per_machine_hour: Money::from_usd(1),
            usd_per_gb_transfer: Money::ZERO,
            multipliers: vec![(0.0, 500)],
            period_secs: 0.0,
            revocation: Some(cloudburst_chaos::CrashLaw {
                mean_uptime_secs: 400.0,
                mean_downtime_secs: 60.0,
                max_faults_per_machine: 2,
            }),
        })));
        let (r, world) = run_experiment_detailed(&cfg);
        let m = world.econ_metrics().expect("armed");
        assert!(m.spot_revocations > 0, "the revocation law must sample cycles");
        let plan = world.fault_plan().expect("revocations arm the chaos layer");
        assert_eq!(plan.machine_faults.len() as u64, m.spot_revocations);
        assert!(
            plan.machine_faults.iter().all(|f| f.pool == Pool::Ec(0)),
            "spot cycles hit only the spot-priced site"
        );
        // Revocations are a pure function of the seeded plan: reruns are
        // byte-identical.
        let (r2, _) = run_experiment_detailed(&cfg);
        assert_eq!(
            serde_json::to_string(&r).expect("json"),
            serde_json::to_string(&r2).expect("json"),
        );
    }

    #[test]
    fn commit_or_reject_gates_admission_up_front() {
        let mut cfg = small_cfg(SchedulerKind::Greedy, 13);
        cfg.n_ic = 2;
        cfg.arrivals.jobs_per_batch = 12.0;
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let offered: u64 = batches.iter().map(|b| b.jobs.len() as u64).sum();
        cfg.econ = Some(cloudburst_econ::EconConfig {
            admission: AdmissionPolicy::CommitOrReject { max_turnaround_secs: 420.0 },
            ..cloudburst_econ::EconConfig::dormant()
        });
        let (r, world) = run_with_batches(&cfg, batches);
        let m = world.econ_metrics().expect("armed");
        assert_eq!(m.jobs_committed + m.jobs_rejected, offered, "every offered job is decided");
        assert_eq!(m.jobs_committed, r.n_jobs as u64, "admitted ⇔ committed");
        assert!(m.jobs_rejected > 0, "a 7-minute budget on a loaded IC must reject some");
        assert!(m.jobs_committed > 0, "and admit the feasible rest");
        assert_eq!(r.completion_times.len(), r.n_jobs, "admitted jobs all complete");
        // Under commit-or-reject every deadline is a hard commitment, so
        // misses are violations, never ordinary lateness.
        assert_eq!(m.late_completions, 0);
        assert!(m.commitment_violations <= m.jobs_committed);
    }

    #[test]
    fn cost_aware_broker_tie_breaks_to_the_lowest_index() {
        // Two extra sites identical to the primary in machines, speed,
        // bandwidth, and price: every round-trip estimate ties exactly, so
        // the cost-aware broker must reduce to the legacy lowest-index
        // pick — deterministically, run after run.
        let mut cfg = small_cfg(SchedulerKind::Greedy, 10);
        cfg.n_ic = 1; // force heavy bursting
        let price = Some(PriceModel::flat(Money::from_usd(1)));
        let twin = EcSiteConfig {
            n_machines: cfg.n_ec,
            speed: cfg.ec_speed,
            upload_model: cfg.upload_model.clone(),
            download_model: cfg.download_model.clone(),
            price: price.clone(),
        };
        cfg.extra_ec_sites = vec![twin.clone(), twin];
        cfg.econ = Some(cloudburst_econ::EconConfig {
            primary_price: price,
            broker: BrokerPolicy::CostAware,
            ..cloudburst_econ::EconConfig::dormant()
        });
        let rngs = RngFactory::new(cfg.seed);
        let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
        let h = EngineHarness::new(&cfg, batches.clone());
        assert_eq!(h.world().broker_site_choice(SimTime::ZERO), 0, "exact tie → lowest index");
        let (a, _) = run_with_batches(&cfg, batches.clone());
        let (b, _) = run_with_batches(&cfg, batches);
        assert_eq!(
            serde_json::to_string(&a).expect("json"),
            serde_json::to_string(&b).expect("json"),
            "tie-broken broker runs must be byte-identical"
        );
    }

    #[test]
    fn serve_windows_carry_per_window_econ_deltas() {
        let mut cfg = serve_cfg(47);
        cfg.n_ic = 1; // force bursting so compute dollars accrue
        cfg.econ = Some(econ_section(Some(PriceModel::OnDemand {
            usd_per_machine_hour: Money::from_usd(2),
            usd_per_gb_transfer: Money::from_cents(9),
        })));
        let r = serve_experiment(&cfg);
        assert_eq!(r.jobs_completed, r.jobs_admitted, "priced stream still drains");
        let total = r.econ.as_ref().expect("priced serve run carries a ledger");
        assert!(total.compute > Money::ZERO);
        let compute: Money =
            r.windows.iter().filter_map(|w| w.econ.as_ref()).map(|e| e.compute).sum();
        let transfer: Money =
            r.windows.iter().filter_map(|w| w.econ.as_ref()).map(|e| e.transfer).sum();
        assert_eq!(compute, total.compute, "window deltas conserve compute spend");
        assert_eq!(transfer, total.transfer, "window deltas conserve transfer spend");
    }

    // Equivalence property: a full run in test builds cross-checks the
    // indexed free-time drain, the incremental outstanding pool and the
    // push-out queue scan against the retained rescan oracles on *every*
    // decision (`assert_decision_state_matches_oracles`,
    // `assert_push_out_queue_matches_oracle`). Driving randomized
    // configurations through `run_experiment` therefore pins the fast
    // paths to the originals across scheduler kinds, pool shapes, the
    // rescheduling extension and the multi-EC broker.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// An armed (non-dormant) fault plan: crashes, a scripted
        /// blackout, lossy transfers and exec failures — every recovery
        /// path a run can take.
        fn armed_fault_profile() -> cloudburst_chaos::FaultProfile {
            cloudburst_chaos::FaultProfile {
                ic_crash: Some(cloudburst_chaos::CrashLaw {
                    mean_uptime_secs: 500.0,
                    mean_downtime_secs: 90.0,
                    max_faults_per_machine: 2,
                }),
                ec_crash: Some(cloudburst_chaos::CrashLaw {
                    mean_uptime_secs: 400.0,
                    mean_downtime_secs: 120.0,
                    max_faults_per_machine: 2,
                }),
                fixed_blackouts: vec![cloudburst_chaos::Window {
                    from_secs: 120.0,
                    until_secs: 170.0,
                }],
                transfer_loss_prob: 0.05,
                exec_failure_prob: 0.05,
                ..cloudburst_chaos::FaultProfile::dormant()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn fast_paths_match_rescan_oracles_on_every_decision(
                seed in 0u64..10_000,
                kind_idx in 0usize..3,
                n_ic in 1usize..6,
                n_ec in 1usize..4,
                jobs_per_batch in 4.0f64..14.0,
                bucket_idx in 0usize..3,
                rescheduling in any::<bool>(),
                extra_site in any::<bool>(),
                faulty in any::<bool>(),
            ) {
                let kind = [
                    SchedulerKind::Greedy,
                    SchedulerKind::OrderPreserving,
                    SchedulerKind::Sibs,
                ][kind_idx];
                let mut cfg = small_cfg(kind, seed);
                cfg.n_ic = n_ic;
                cfg.n_ec = n_ec;
                cfg.arrivals.jobs_per_batch = jobs_per_batch;
                cfg.arrivals.bucket = SizeBucket::ALL[bucket_idx];
                cfg.rescheduling = rescheduling;
                if extra_site {
                    cfg.extra_ec_sites = vec![EcSiteConfig {
                        n_machines: 2,
                        speed: 1.5,
                        upload_model: cfg.upload_model.clone(),
                        download_model: cfg.download_model.clone(),
                        price: None,
                    }];
                }
                if faulty {
                    // An armed (non-dormant) plan, so the oracles also pin
                    // the fast paths through recovery paths and
                    // DEAD_FREE_SECS poisoning.
                    cfg.faults = Some(armed_fault_profile());
                }
                // The run itself is the assertion: every decision re-checks
                // the indexed state against the O(queue × machines) rescan.
                let (a, _) = run_experiment_detailed(&cfg);
                prop_assert_eq!(a.completion_times.len(), a.n_jobs);
                // And the fast paths stay deterministic: an identical run
                // reproduces the report exactly.
                let (b, _) = run_experiment_detailed(&cfg);
                prop_assert_eq!(a.completion_times, b.completion_times);
                prop_assert_eq!(a.makespan_secs, b.makespan_secs);
                prop_assert_eq!(a.burst_ratio, b.burst_ratio);
            }

            /// The econ tentpole's degenerate-case guarantee: with equal
            /// flat prices on every site, free penalties and admit-all,
            /// the cost-aware broker's scores tie everywhere and the
            /// legacy (backlog, index) key decides — so placements, and
            /// therefore the whole schedule, match the legacy broker
            /// exactly, across schedulers and under an armed chaos plan.
            /// (Test builds also assert the pick per decision inside
            /// `broker_site`.)
            #[test]
            fn cost_aware_broker_with_equal_prices_matches_legacy(
                seed in 0u64..10_000,
                kind_idx in 0usize..3,
                jobs_per_batch in 4.0f64..14.0,
                extra_site in any::<bool>(),
                faulty in any::<bool>(),
            ) {
                let kind = [
                    SchedulerKind::Greedy,
                    SchedulerKind::OrderPreserving,
                    SchedulerKind::Sibs,
                ][kind_idx];
                let mut cfg = small_cfg(kind, seed);
                cfg.n_ic = 2; // load the IC so bursts exercise the broker
                cfg.arrivals.jobs_per_batch = jobs_per_batch;
                let price = Some(PriceModel::flat(Money::from_usd(1)));
                if extra_site {
                    cfg.extra_ec_sites = vec![EcSiteConfig {
                        n_machines: 2,
                        speed: 1.5,
                        upload_model: cfg.upload_model.clone(),
                        download_model: cfg.download_model.clone(),
                        price: price.clone(),
                    }];
                }
                if faulty {
                    cfg.faults = Some(armed_fault_profile());
                }
                cfg.econ = Some(cloudburst_econ::EconConfig {
                    primary_price: price,
                    broker: BrokerPolicy::EarliestRoundTrip,
                    ..cloudburst_econ::EconConfig::dormant()
                });
                let (legacy, _) = run_experiment_detailed(&cfg);
                if let Some(e) = cfg.econ.as_mut() {
                    e.broker = BrokerPolicy::CostAware;
                }
                let (aware, _) = run_experiment_detailed(&cfg);
                prop_assert_eq!(aware.completion_times, legacy.completion_times);
                prop_assert_eq!(aware.makespan_secs, legacy.makespan_secs);
                prop_assert_eq!(aware.burst_ratio, legacy.burst_ratio);
            }
        }
    }
}
