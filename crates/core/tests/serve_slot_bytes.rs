//! Serving's bytes per job slot: a serving slot holds only what serving
//! reads — the job row, its QRSM estimate, ticket promise and arrival
//! sequence (8 B each) and its outstanding-set entry (16 B) — and the
//! columns end at the live high-water, with no doubling slack.
//!
//! Drives an Order-Preserving serving stream to drain with the counting
//! allocator installed. Once the stream has run, the live heap above the
//! freshly built harness must stay within the job slots times those bytes,
//! plus the wait queues' capacity (24 B an entry) and a fixed 64 KiB
//! allowance for what does not scale with the slots (the event queue, the
//! window series, the transfer pipes). An 80-byte per-job timeline, or
//! columns grown by doubling, overshoots it by far more than the
//! allowance.
//!
//! Own binary on purpose: the allocator counter is process-global.

use cloudburst_core::{ExperimentConfig, SchedulerKind, ServeConfig, ServeHarness};
use cloudburst_sim::SimDuration;
use cloudburst_sla::WindowConfig;
use cloudburst_testsupport::{live_bytes, CountingAlloc};
use cloudburst_workload::{Job, OpenArrivalConfig, RateEnvelope};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The job row, `est_exec`, `ticket_promise` and `seq_of`, and the
/// outstanding set's estimate, id and slot index.
const PER_SLOT_BYTES: usize = std::mem::size_of::<Job>() + 3 * 8 + 16;
/// A wait-queue entry: job id, standard seconds and drain ticks.
const QUEUE_ENTRY_BYTES: usize = 24;
/// What the stream holds that does not scale with its slots.
const ALLOWANCE_BYTES: usize = 64 * 1024;

#[test]
fn a_serving_slot_holds_only_what_serving_reads() {
    // The serving benchmark's estate at a flat 600 documents per epoch.
    let mut cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, 1, 31);
    cfg.training_docs = 150;
    cfg.ic_speed = 25.0;
    cfg.ec_speed = 25.0;
    let epoch = SimDuration::from_secs(180);
    cfg.serve = Some(ServeConfig {
        arrivals: OpenArrivalConfig {
            epoch,
            jobs_per_epoch: 600.0,
            bucket: cfg.arrivals.bucket,
            envelope: RateEnvelope::Flat,
            burst: None,
        },
        horizon: epoch * 30,
        window: WindowConfig { window: SimDuration::from_mins(15), oo_tolerance: 0 },
    });

    let mut harness = ServeHarness::new(&cfg);
    let base = live_bytes();
    while harness.step() {
        harness.world_mut().drain_serve_windows();
    }
    let held = live_bytes().saturating_sub(base);
    let world = harness.world();
    let slots = world.job_slots();
    let queued = world.ic_cloud().queue_capacity()
        + (0..=cfg.extra_ec_sites.len()).map(|s| world.ec_cloud(s).queue_capacity()).sum::<usize>();
    let bound = slots * PER_SLOT_BYTES + queued * QUEUE_ENTRY_BYTES + ALLOWANCE_BYTES;
    assert!(
        held <= bound,
        "{slots} job slots and {queued} queue entries held {held} B, above {bound} B \
         ({} B a slot over the queues and the allowance)",
        held.saturating_sub(queued * QUEUE_ENTRY_BYTES + ALLOWANCE_BYTES) / slots.max(1)
    );

    let (report, _world) = harness.finish();
    assert_eq!(report.jobs_completed, report.jobs_admitted, "the stream must drain");
    assert_eq!(slots as u64, report.live_high_water, "slots == live high-water");
    // Recycling must be at work, or every slot would be a fresh job.
    assert!(
        report.jobs_admitted > 4 * slots as u64,
        "{slots} slots for {} jobs",
        report.jobs_admitted
    );
}
