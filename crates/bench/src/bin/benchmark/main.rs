//! `benchmark` — one command that runs one named workload through the
//! engine's public API and prints every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) as the last line of stdout:
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--spans <path>]
//! ```
//!
//! One invocation runs an untimed warm-up at 1/10 scale, then timed reps
//! until `--seconds` have passed (at least three). Throughput and set-up
//! time are the median rep's, stated at a reference host speed by the host
//! gauge (see `gauge.rs`). `--trace 1` adds one traced pass, whose spans go to
//! `--spans` (default `$CARGO_TARGET_DIR/benchmark/spans-<workload>-<seed>.jsonl`,
//! `target/` when unset). Progress, and min/median/max per metric, go to stderr.
//! The exit code is non-zero when any output check fails. See README.md.

// Timing wall-clock durations is this binary's whole purpose; the
// disallowed-methods ban on Instant::now targets deterministic library
// code, not the benchmark harness.
#![allow(clippy::disallowed_methods)]

mod gauge;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cloudburst_testsupport::CountingAlloc;
use serde_json::{Map, Number, Value};

use gauge::{at_reference, Gauge};
use trace::{Tracer, PER_LAYER};
use workloads::{closed_op, dormant_ratios, run_rep, Rep, Workload};

// `peak_heap_mb` is the live-heap high-water mark the counting allocator
// keeps, installed the way perfsmoke installs it.
#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// End-to-end metrics, in print order: `(name, unit)`. `BENCHMARK.json`
/// declares the same list with a direction and a bound for each.
const END_TO_END: [(&str, &str); 4] = [
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("sim_makespan_s", "sim_s"),
];

const MIN_REPS: usize = 3;
const MAX_REPS: usize = 25;
const WARMUP_SCALE: f64 = 0.1;
/// Set-up (generation, QRSM fit, estate) runs in a small working set in
/// every workload, so it slows harder than the host gauge (see `gauge.rs`).
const SETUP_ELASTICITY: f64 = 1.5;

/// Report digests at the pinned seed, plus the recorded baseline.
const BASELINE: &str = include_str!("baseline.json");

const USAGE: &str = "usage: benchmark --workload <closed-op|serve-diurnal|chaos-econ|paper-sweep> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--spans <path>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, 0.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
    })
}

/// The pinned seed and `workload`'s report digest at it.
fn pinned_digest(workload: Workload) -> Option<(u64, u64)> {
    let b: Value = serde_json::from_str(BASELINE).expect("baseline.json parses");
    let seed = b["digest_seed"].as_u64()?;
    let hex = b["digests"][workload.name()].as_str()?;
    Some((seed, u64::from_str_radix(hex, 16).ok()?))
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// What one invocation measured and checked.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Warm-up, timed reps and (with `trace`) the traced pass, at `scale`.
/// `expected` is the digest every pass must reproduce; `None` makes the
/// first rep the reference.
fn evaluate(args: &Args, scale: f64, expected: Option<u64>) -> Outcome {
    let (w, seed) = (args.workload, args.seed);
    let name = w.name();
    let mut gauge = Gauge::on();
    run_rep(
        w,
        seed,
        scale * WARMUP_SCALE,
        &mut Tracer::off(),
        &mut gauge,
    );

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS
        || (start.elapsed().as_secs_f64() < args.seconds && reps.len() < MAX_REPS)
    {
        let rep = run_rep(w, seed, scale, &mut Tracer::off(), &mut gauge);
        eprintln!(
            "[benchmark] {name} seed {seed} rep {}: setup {:.3} s, run {:.3} s, gauge slice {:.1} us, \
             {} jobs, digest {:016x}",
            reps.len() + 1,
            rep.setup_secs,
            rep.run_secs,
            rep.slice_secs * 1e6,
            rep.completed,
            rep.digest
        );
        reps.push(rep);
    }

    let reference = expected.unwrap_or(reps[0].digest);
    let (mut attempted, mut failed) = (0, 0);
    let mut check = |rep: &Rep, what: &str| {
        attempted += rep.admitted;
        if rep.digest != reference {
            eprintln!(
                "[benchmark] {name}: {what} digest {:016x} != expected {reference:016x}",
                rep.digest
            );
            failed += rep.admitted;
        } else {
            failed += rep.admitted - rep.completed;
        }
    };
    for rep in &reps {
        check(rep, "rep");
    }
    if !args.trace {
        return Outcome {
            attempted,
            failed,
            metrics: end_to_end(w, &reps),
        };
    }

    let mut tr = Tracer::on();
    let traced = run_rep(w, seed, scale, &mut tr, &mut Gauge::off());
    check(&traced, "traced pass");
    let dormant = (w == Workload::ClosedOp).then(|| {
        let (ratios, jobs, mismatched) = dormant_ratios(&closed_op(seed, scale), &mut tr);
        attempted += jobs;
        failed += mismatched;
        ratios
    });
    tr.replay_layers();
    let untraced = median(reps.iter().map(|r| r.setup_secs + r.run_secs).collect());
    let overhead = (traced.setup_secs + traced.run_secs) / untraced;
    eprintln!("[benchmark] {name}: tails reported as {}", tr.tail_notes());
    if let Some(path) = &args.spans {
        match tr.write_spans(path) {
            Ok(()) => eprintln!("[benchmark] spans written to {}", path.display()),
            Err(e) => {
                eprintln!("[benchmark] writing spans to {}: {e}", path.display());
                failed += traced.admitted;
            }
        }
    }
    let metrics = tr
        .per_layer(&traced, dormant, overhead)
        .into_iter()
        .zip(PER_LAYER)
        .map(|((name, value), (declared, unit))| {
            assert_eq!(name, declared, "per-layer values follow PER_LAYER order");
            (declared, value, unit)
        })
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The median of `f` over the reps, logged to stderr with their min and max.
fn median_of(reps: &[Rep], name: &str, f: impl Fn(&Rep) -> f64) -> f64 {
    let values: Vec<f64> = reps.iter().map(f).collect();
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    let m = median(values);
    eprintln!(
        "[benchmark] {name}: min {lo:.6}, median {m:.6}, max {hi:.6} over {} reps",
        reps.len()
    );
    m
}

/// End-to-end values over the reps of `w`, each the median rep's.
/// Throughput and set-up time are stated at the reference host speed
/// ([`at_reference`]), because the host's own speed drifts by more than any
/// bound (see README); stderr also logs them unscaled. The simulated
/// makespan is the same in every rep (the digests say so).
fn end_to_end(w: Workload, reps: &[Rep]) -> Vec<(&'static str, f64, &'static str)> {
    median_of(reps, "unscaled jobs_per_s", |r| {
        r.completed as f64 / r.run_secs
    });
    median_of(reps, "unscaled setup_s", |r| r.setup_secs);
    median_of(reps, "gauge slice us", |r| r.slice_secs * 1e6);
    let values = [
        median_of(reps, "jobs_per_s", |r| {
            r.completed as f64 / at_reference(r.run_secs, r.slice_secs, w.run_elasticity())
        }),
        median_of(reps, "setup_s", |r| {
            at_reference(r.setup_secs, r.slice_secs, SETUP_ELASTICITY)
        }),
        median_of(reps, "peak_heap_mb", |r| r.peak_bytes as f64 / 1e6),
        reps[0].makespan_secs / reps[0].runs.max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Map::new();
    for &(name, value, unit) in &outcome.metrics {
        let mut m = Map::new();
        m.insert("value".into(), Value::Number(Number::from_f64(value)));
        m.insert("unit".into(), Value::String(unit.into()));
        metrics.insert(name.into(), Value::Object(m));
    }
    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(outcome.failed == 0));
    line.insert(
        "attempted".into(),
        Value::Number(Number::from_u64(outcome.attempted)),
    );
    line.insert(
        "failed".into(),
        Value::Number(Number::from_u64(outcome.failed)),
    );
    line.insert("metrics".into(), Value::Object(metrics));
    Value::Object(line).to_string()
}

fn main() -> ExitCode {
    let mut args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace && args.spans.is_none() {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let file = format!("spans-{}-{}.jsonl", args.workload.name(), args.seed);
        args.spans = Some(PathBuf::from(dir).join("benchmark").join(file));
    }
    let Some((pin_seed, pin)) = pinned_digest(args.workload) else {
        eprintln!(
            "benchmark: baseline.json has no digest for {}",
            args.workload.name()
        );
        return ExitCode::from(2);
    };
    eprintln!(
        "[benchmark] {} seed {} on {} host cores",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = evaluate(&args, 1.0, (args.seed == pin_seed).then_some(pin));
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1/50 of full size: every code path, seconds in a debug build.
    const TEST_SCALE: f64 = 0.02;
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn assert_reproducible(w: Workload) {
        let seed = pinned_digest(w).expect("pinned").0;
        let a = run_rep(w, seed, TEST_SCALE, &mut Tracer::off(), &mut Gauge::on());
        let b = run_rep(w, seed, TEST_SCALE, &mut Tracer::off(), &mut Gauge::off());
        let c = run_rep(w, seed, TEST_SCALE, &mut Tracer::on(), &mut Gauge::off());
        assert!(
            a.admitted > 0 && a.completed == a.admitted,
            "{} must drain",
            w.name()
        );
        assert_eq!(
            a.digest,
            b.digest,
            "{}: rerun changed the reports",
            w.name()
        );
        assert_eq!(
            a.digest,
            c.digest,
            "{}: tracing changed the reports",
            w.name()
        );
        assert!(
            a.slice_secs > 0.0 && a.setup_secs > 0.0 && a.run_secs > 0.0,
            "{}: {a:?}",
            w.name()
        );
    }

    #[test]
    fn closed_op_is_byte_identical_across_reruns_and_tracing() {
        assert_reproducible(Workload::ClosedOp);
    }

    #[test]
    fn serve_diurnal_is_byte_identical_across_reruns_and_tracing() {
        assert_reproducible(Workload::ServeDiurnal);
    }

    #[test]
    fn chaos_econ_is_byte_identical_across_reruns_and_tracing() {
        assert_reproducible(Workload::ChaosEcon);
    }

    #[test]
    fn paper_sweep_is_byte_identical_across_reruns_and_tracing() {
        assert_reproducible(Workload::PaperSweep);
    }

    /// `(name, unit)` of every metric in one `BENCHMARK.json` section,
    /// checking each carries a direction and, for end-to-end, a bound.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = doc[section].as_array().expect("section is a list");
        list.iter()
            .map(|m| {
                let name = m["name"].as_str().expect("name").to_owned();
                assert!(
                    matches!(m["better"].as_str(), Some("higher" | "lower")),
                    "{name} needs a direction"
                );
                if section == "end_to_end" {
                    let bound = m["bound"]
                        .as_f64()
                        .expect("end-to-end metrics carry a bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
                }
                (name, m["unit"].as_str().expect("unit").to_owned())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn every_printable_metric_is_declared_and_every_declared_one_prints() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        for trace in [false, true] {
            let args = Args {
                workload: Workload::ClosedOp,
                seed: 1,
                seconds: 0.0,
                trace,
                spans: None,
            };
            let out = evaluate(&args, TEST_SCALE, None);
            assert_eq!(out.failed, 0);
            let printed: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(printed, want);
            assert!(
                out.metrics.iter().all(|m| m.1.is_finite()),
                "{:?}",
                out.metrics
            );
            let line: Value = serde_json::from_str(&result_line(&out)).expect("result line parses");
            assert_eq!(line["correct"].as_bool(), Some(true));
        }
    }

    /// The `[profile.release]` lines of a manifest, comments dropped.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty())
            .collect()
    }

    #[test]
    fn standalone_release_profile_matches_the_workspace() {
        let own = release_profile(include_str!("Cargo.toml"));
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(
            !workspace.is_empty(),
            "the workspace sets a release profile"
        );
        assert_eq!(
            own, workspace,
            "both build routes of the benchmark must compile the same way"
        );
    }

    #[test]
    fn metric_names_use_only_allowed_characters() {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.chars().all(ok), "bad metric name {name}");
        }
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for w in Workload::ALL {
            assert!(
                pinned_digest(w).is_some(),
                "no pinned digest for {}",
                w.name()
            );
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload paper-sweep --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PaperSweep, 7, 2.5, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload closed-op").is_err());
        assert!(parse("--workload closed-op --seed 1 --trace spans.jsonl").is_err());
        assert!(parse("--workload closed-op --seed -1").is_err());
    }
}
