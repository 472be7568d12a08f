//! Admission's transient heap: a serving epoch is admitted one job at a
//! time, from the chunk pass through the planner into the job columns, so
//! an admitting step holds the epoch's documents once (the arrived batch
//! plus one chunk count per document) and never the chunk-expanded batch
//! or a per-batch vector of planned jobs.
//!
//! Drives an Order-Preserving serving stream with chunking on and the
//! counting allocator installed. On every admitting step, the step's
//! high-water mark minus the live bytes after it must stay within the
//! epoch's documents × (`size_of::<Job>()` + 16 B) plus 64 KiB of scratch
//! that does not scale with the epoch (the planners' free-time trees, the
//! job columns' growth while the live set rises to its plateau). Holding
//! the expanded batch and the planned jobs as well, about 200 B per
//! admitted job at two jobs per document, overshoots it twofold.
//!
//! Own binary on purpose: the allocator counter is process-global.

use cloudburst_core::{ExperimentConfig, SchedulerKind, ServeConfig, ServeHarness};
use cloudburst_sim::{RngFactory, SimDuration};
use cloudburst_sla::WindowConfig;
use cloudburst_testsupport::{high_water_bytes, live_bytes, reset_high_water, CountingAlloc};
use cloudburst_workload::{Job, OpenArrivalConfig, OpenArrivals, RateEnvelope};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Per-document allowance: the arrived job row plus the chunk pass's
/// size and count (8 B each).
const PER_DOC_BYTES: usize = std::mem::size_of::<Job>() + 16;
/// Fixed scratch that does not scale with the epoch.
const SLACK_BYTES: usize = 64 * 1024;

#[test]
fn admitting_a_serving_epoch_holds_its_documents_once() {
    // The serving benchmark's estate at a flat 600 documents per epoch:
    // fast machines keep the live set near one epoch's jobs.
    let mut cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, 1, 31);
    cfg.training_docs = 150;
    cfg.ic_speed = 25.0;
    cfg.ec_speed = 25.0;
    let epoch = SimDuration::from_secs(180);
    let arrivals = OpenArrivalConfig {
        epoch,
        jobs_per_epoch: 600.0,
        bucket: cfg.arrivals.bucket,
        envelope: RateEnvelope::Flat,
        burst: None,
    };
    let n_epochs = 30u64;
    cfg.serve = Some(ServeConfig {
        arrivals: arrivals.clone(),
        horizon: epoch * n_epochs,
        window: WindowConfig { window: SimDuration::from_mins(15), oo_tolerance: 0 },
    });
    // The engine's own arrival stream, regenerated: the same seed and
    // config draw the same batches, so each admitting step's document
    // count is read here.
    let mut mirror = OpenArrivals::new(arrivals, &RngFactory::new(cfg.seed), cfg.truth.clone());

    let mut harness = ServeHarness::new(&cfg);
    let (mut checked, mut jobs_per_doc) = (0u64, 0.0);
    loop {
        let admitted_before = harness.world().serve_admitted_jobs();
        reset_high_water();
        if !harness.step() {
            break;
        }
        let excess = high_water_bytes().saturating_sub(live_bytes());
        let admitted = harness.world().serve_admitted_jobs() - admitted_before;
        if admitted == 0 {
            continue;
        }
        // An admitting step is the epoch event at `now`; epochs that drew
        // no document admitted nothing and were skipped above.
        let batch = loop {
            let at = mirror.next_arrival();
            let batch = mirror.next_batch();
            if at == harness.now() {
                break batch;
            }
            assert!(at < harness.now(), "the mirror stream ran ahead of the engine");
        };
        let docs = batch.jobs.len();
        assert!(docs as u64 <= admitted, "{docs} documents admitted as {admitted} jobs");
        let bound = docs * PER_DOC_BYTES + SLACK_BYTES;
        assert!(
            excess <= bound,
            "admitting {docs} documents ({admitted} jobs) at {:?} held {excess} B of \
             transient heap, above {bound} B",
            harness.now()
        );
        checked += 1;
        jobs_per_doc += admitted as f64 / docs as f64;
    }
    let (report, _world) = harness.finish();
    assert_eq!(report.jobs_completed, report.jobs_admitted, "the stream must drain");
    assert!(checked >= 25, "only {checked} admitting steps checked");
    // The stream must chunk, or the expanded batch it no longer holds
    // would be no larger than the documents.
    let jobs_per_doc = jobs_per_doc / checked as f64;
    assert!(jobs_per_doc > 1.5, "{jobs_per_doc:.2} jobs per document");
}
