//! Golden determinism at full-system scale: a fixed seed must produce a
//! byte-identical `RunReport` JSON every time. A paper-scale run pushes
//! tens of thousands of events through a live set of a few dozen, so the
//! kernel's slab recycles every slot hundreds of times over — any ordering
//! leak from slot reuse would show up here as a diverging report.

use cloudburst_repro::core::{
    run_experiment, run_experiment_detailed, ExperimentConfig, JobTimeline, SchedulerKind,
};
use cloudburst_repro::workload::SizeBucket;

fn report_json(cfg: &ExperimentConfig) -> String {
    serde_json::to_string(&run_experiment(cfg)).expect("RunReport serializes")
}

#[test]
fn fixed_seed_reproduces_identical_report_json() {
    for kind in [SchedulerKind::Greedy, SchedulerKind::OrderPreserving, SchedulerKind::Sibs] {
        let cfg = ExperimentConfig::paper(kind, SizeBucket::LargeBiased, 22);
        assert_eq!(report_json(&cfg), report_json(&cfg), "{kind:?} diverged");
    }
}

#[test]
fn high_variation_run_is_reproducible_too() {
    let cfg = ExperimentConfig::paper_high_variation(
        SchedulerKind::OrderPreserving,
        SizeBucket::Uniform,
        44,
    );
    assert_eq!(report_json(&cfg), report_json(&cfg));
}

/// The `cloudburst run --timelines` artifact of the paper testbed (OP,
/// uniform bucket, seed 1), byte for byte: every job's six stage stamps,
/// `null` for a stage never entered. Parsing it back must give the live
/// rows. Re-bless with
/// `TIMELINE_GOLDEN_BLESS=1 cargo test --test golden_determinism timelines`.
#[test]
fn paper_timelines_match_the_golden_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/op_uniform_seed1.timelines.json");
    let cfg = ExperimentConfig::paper(SchedulerKind::OrderPreserving, SizeBucket::Uniform, 1);
    let (_, world) = run_experiment_detailed(&cfg);
    let fresh = serde_json::to_string_pretty(&world.timelines()).expect("timelines serialize");
    if std::env::var_os("TIMELINE_GOLDEN_BLESS").is_some() {
        std::fs::write(path, &fresh).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden fixture exists (bless to create)");
    assert!(fresh == golden, "timelines drifted from {path}; if intentional, re-bless");
    let rows: Vec<JobTimeline> = serde_json::from_str(&golden).expect("golden parses");
    assert_eq!(rows, world.timelines().to_vec());
}
