//! A closed run's bytes per job row: once the run drains and its report is
//! dropped, the engine retains per admitted job only the job row, its
//! 32-byte timeline row, its QRSM estimate and ticket promise (8 B each)
//! and its burst decision (1 B), plus one 24-byte transfer entry per job
//! ever placed External. Reading the timelines back allocates nothing.
//!
//! Drives a chunked, bursting Order-Preserving closed run to drain with
//! the counting allocator installed. The heap the finished world holds
//! above the freshly built harness (less the arrived batches it was handed,
//! which admission consumes) must stay within those bytes plus a fixed
//! 64 KiB allowance for what does not scale with the jobs (the event
//! queue, the QRSM window, the sites and their pipes). An 80-byte
//! timeline row, or a transfer entry for every job, overshoots it by far
//! more than the allowance.
//!
//! Own binary on purpose: the allocator counter is process-global.

use cloudburst_core::{EngineHarness, ExperimentConfig, SchedulerKind};
use cloudburst_sched::Placement;
use cloudburst_sim::RngFactory;
use cloudburst_testsupport::{allocations, live_bytes, CountingAlloc};
use cloudburst_workload::{BatchArrivals, Job};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The job row, the timeline row, `est_exec`, `ticket_promise` and the
/// burst decision.
const PER_ROW_BYTES: usize = std::mem::size_of::<Job>() + 32 + 17;
/// A transfer-table entry: three stage stamps.
const PER_BURST_BYTES: usize = 24;
/// What the run holds that does not scale with its jobs.
const ALLOWANCE_BYTES: usize = 64 * 1024;

#[test]
fn a_closed_run_row_holds_only_what_is_not_derived() {
    // The closed benchmark's estate at a tenth of its documents.
    let cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, 10_000, 1);
    let batches =
        BatchArrivals::new(cfg.arrivals.clone()).generate(&RngFactory::new(cfg.seed), &cfg.truth);
    let docs: usize = batches.iter().map(|b| b.jobs.len()).sum();
    let handed: usize = batches.iter().map(|b| b.jobs.capacity()).sum::<usize>()
        * std::mem::size_of::<Job>();

    let mut harness = EngineHarness::new(&cfg, batches);
    let base = live_bytes() - handed;
    harness.run();
    let (report, world) = harness.finish();
    drop(report);
    let held = live_bytes().saturating_sub(base);

    // Reading the timelines rebuilds each row from the store and
    // allocates nothing.
    let (reads, (rows, bursted)) = allocations(|| {
        let timelines = world.timelines();
        let bursted = timelines.iter().filter(|t| t.placement == Placement::External).count();
        (timelines.len(), bursted)
    });
    assert_eq!(reads, 0, "reading the timelines allocated");
    // No rescheduling: a job is placed once, at admission.
    assert!(!world.config().rescheduling);
    assert_eq!(world.job_slots(), rows, "one timeline row per admitted job");
    assert!(rows > docs, "{rows} jobs from {docs} documents: the run must chunk");
    assert!(0 < bursted && bursted < rows, "{bursted} of {rows} jobs bursted");
    let bound = rows * PER_ROW_BYTES + bursted * PER_BURST_BYTES + ALLOWANCE_BYTES;
    assert!(
        held <= bound,
        "{rows} rows ({bursted} bursted) held {held} B, above {bound} B \
         ({} B a row over the transfer entries and the allowance)",
        held.saturating_sub(bursted * PER_BURST_BYTES + ALLOWANCE_BYTES) / rows.max(1)
    );
}
