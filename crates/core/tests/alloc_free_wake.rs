//! Whole-step companion to the `alloc_free*.rs` decision-sweep tests: once
//! every buffer has reached its high water, firing engine events —
//! completion wakes advancing every pool and pipe, pull-back and push-out,
//! and the re-arm of the engine wake — does zero heap allocations on a
//! multi-site estate.
//!
//! The sweep tests call `decision_sweep` directly, so they never see the
//! event kernel. Here each `step()` pops a real event, and the re-arm
//! boxes the wake closure into the kernel's slab: only a closure that
//! captures nothing boxes without allocating, which is what this pins.
//!
//! Separate integration binary on purpose: the counting allocator is
//! process-global, and the library compiles without `cfg(test)` so the
//! (allocating) rescan oracles sit outside the measured path.

use cloudburst_core::config::EcSiteConfig;
use cloudburst_core::{EngineHarness, ExperimentConfig, SchedulerKind};
use cloudburst_sim::RngFactory;
use cloudburst_testsupport::{allocations, CountingAlloc};
use cloudburst_workload::BatchArrivals;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

// One test function: the counter is process-global, so concurrent tests in
// this binary would pollute each other's deltas.
#[test]
fn steady_state_engine_steps_are_allocation_free() {
    // The megascale estate plus two unpriced 16-machine sites, rescheduling
    // on: three sites' links and pools all arm wakes.
    let mut cfg = ExperimentConfig::megascale(SchedulerKind::OrderPreserving, 6_000, 3);
    cfg.rescheduling = true;
    let site = EcSiteConfig {
        n_machines: 16,
        speed: 1.0,
        upload_model: cfg.upload_model.clone(),
        download_model: cfg.download_model.clone(),
        price: None,
    };
    cfg.extra_ec_sites = vec![site.clone(), site];

    let rngs = RngFactory::new(cfg.seed);
    let batches = BatchArrivals::new(cfg.arrivals.clone()).generate(&rngs, &cfg.truth);
    let last_arrival = batches.last().expect("megascale generates batches").arrival;
    let mut h = EngineHarness::new(&cfg, batches);

    // Every batch admitted (admission allocates by design), then warm-up
    // steps size the drain buffers, scratch vectors and kernel slab.
    h.run_until(last_arrival);
    for _ in 0..3_000 {
        assert!(h.step(), "run drained during warm-up");
    }
    assert!(h.world().outstanding_jobs() > 0, "steady state must have work in flight");

    let mut window = || {
        allocations(|| {
            for _ in 0..2_000 {
                assert!(h.step(), "run drained inside a measured window");
            }
        })
        .0
    };
    // The first window holds one amortized growth, not per-step churn: a
    // site's download queue (`VecDeque`) doubles from 4 to 8 entries when
    // its backlog reaches a new high-water mark. The next window, with
    // every buffer at its high water, must allocate nothing.
    let first = window();
    assert!(first <= 1, "2,000 steady-state engine steps allocated {first} times");
    let second = window();
    assert_eq!(second, 0, "2,000 warm engine steps allocated {second} times");
}
