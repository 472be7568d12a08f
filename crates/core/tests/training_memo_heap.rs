//! Pins the training memo's "drop before train" rule: when an engine
//! set-up misses the memo, the stale model is freed before the new fit
//! runs, so a thread never holds two trained models at once and the
//! set-up's heap peak is that of a cold (memo-free) construction.
//!
//! Its own test binary: the counting allocator is process-global, and the
//! memo is per thread, so nothing else may build an engine in here.

use cloudburst_core::{EngineHarness, ExperimentConfig, SchedulerKind};
use cloudburst_sim::RngFactory;
use cloudburst_testsupport::{high_water_bytes, live_bytes, reset_high_water, CountingAlloc};
use cloudburst_workload::{BatchArrivals, SizeBucket};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A one-batch paper-testbed run: the training fit is most of its set-up.
fn config(seed: u64) -> ExperimentConfig {
    let mut cfg =
        ExperimentConfig::paper(SchedulerKind::OrderPreserving, SizeBucket::Uniform, seed);
    cfg.arrivals.n_batches = 1;
    cfg
}

/// Builds (and drops) an engine for `cfg`; returns the live-heap
/// high-water during construction, above `floor`.
fn construction_peak(cfg: &ExperimentConfig, floor: usize) -> usize {
    let batches =
        BatchArrivals::new(cfg.arrivals.clone()).generate(&RngFactory::new(cfg.seed), &cfg.truth);
    reset_high_water();
    let harness = EngineHarness::new(cfg, batches);
    let peak = high_water_bytes() - floor;
    drop(harness);
    peak
}

#[test]
fn a_miss_frees_the_stale_model_before_training() {
    let (a, b) = (config(1), config(2));
    // Nothing is memoised on this thread yet.
    let empty = live_bytes();
    let cold = construction_peak(&b, empty);
    // A miss that leaves A's model in the memo.
    construction_peak(&a, empty);
    let held = live_bytes() - empty;
    assert!(held > 0, "the memo keeps A's trained model alive");
    // B misses while the memo holds A: its peak, measured from the same
    // empty-memo floor, must not carry A on top of B's fit.
    let warm = construction_peak(&b, empty);
    assert!(
        warm <= cold,
        "a miss with A memoised peaked at {warm} B above the empty heap, a cold \
         construction at {cold} B: the stale model ({held} B) outlived the new fit"
    );
}
