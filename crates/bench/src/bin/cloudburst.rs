//! `cloudburst` — config-driven CLI around the simulation engine.
//!
//! ```text
//! cloudburst template                          print a default config (JSON)
//! cloudburst run --config cfg.json            run one experiment, report to stdout
//! cloudburst run --config cfg.json --out r.json --timelines t.json
//! cloudburst run --config cfg.json --workload trace.json   replay a saved trace
//! cloudburst run --config cfg.json --fault-profile faults.json   inject faults
//! cloudburst sweep --config cfg.json --seeds 1,2,3 --out dir/
//! cloudburst trace --config cfg.json --out trace.json      export the workload
//! cloudburst serve --config cfg.json           open-system serving run, windowed report
//!     [--diurnal-day]                          ... the EXPERIMENTS.md diurnal+flash-crowd day
//! cloudburst econ-sweep --config cfg.json --seeds 41,42,43   price-regime x scheduler cost grid
//! ```
//!
//! Everything an experiment needs lives in one `ExperimentConfig` JSON
//! value (workload, pools, pipe models, scheduler, extensions), so runs
//! are shareable, diffable artifacts.
//!
//! `--fault-profile` (on `run` and `sweep`) loads a
//! `cloudburst_chaos::FaultProfile` JSON file and overrides the config's
//! `faults` field: the same config can be exercised clean and under chaos
//! without editing it. Faulty runs stay fully deterministic — the profile
//! is compiled against the experiment seed.

use std::fs;
use std::process::exit;

use cloudburst_bench::{mean_of, run_replications};
use cloudburst_core::{run_experiment_detailed, ExperimentConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  cloudburst template\n  cloudburst run --config <cfg.json> [--workload <trace.json>] [--fault-profile <faults.json>] [--out <report.json>] [--timelines <t.json>]\n  cloudburst sweep --config <cfg.json> --seeds <a,b,c> [--fault-profile <faults.json>] --out <dir>\n  cloudburst trace --config <cfg.json> [--out <trace.json>]\n  cloudburst serve --config <cfg.json> [--diurnal-day] [--fault-profile <faults.json>] [--out <report.json>]\n  cloudburst econ-sweep --config <cfg.json> [--seeds <a,b,c>] [--out <table.txt>]"
    );
    exit(2);
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// The `--seeds a,b,c` list, or `None` when the flag is absent; exits on
/// an entry that is not a `u64`.
fn parse_seeds(args: &[String]) -> Option<Vec<u64>> {
    let list = arg_value(args, "--seeds")?;
    Some(
        list.split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("invalid seed: {s}");
                    exit(1);
                })
            })
            .collect(),
    )
}

fn load_config(args: &[String]) -> ExperimentConfig {
    let path = arg_value(args, "--config").unwrap_or_else(|| usage());
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("invalid config {path}: {e}");
        exit(1);
    })
}

/// Overrides `cfg.faults` from `--fault-profile <path>` when present.
fn apply_fault_profile(cfg: &mut ExperimentConfig, args: &[String]) {
    let Some(path) = arg_value(args, "--fault-profile") else { return };
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read fault profile {path}: {e}");
        exit(1);
    });
    let profile: cloudburst_chaos::FaultProfile =
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("invalid fault profile {path}: {e}");
            exit(1);
        });
    cfg.faults = Some(profile);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("template") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&ExperimentConfig::default()).expect("serialize")
            );
        }
        Some("trace") => {
            let cfg = load_config(&args);
            let rngs = cloudburst_sim::RngFactory::new(cfg.seed);
            let batches = cloudburst_workload::BatchArrivals::new(cfg.arrivals.clone())
                .generate(&rngs, &cfg.truth);
            let trace = cloudburst_workload::WorkloadTrace::new(
                format!("generated from config, seed {}", cfg.seed),
                batches,
            );
            match arg_value(&args, "--out") {
                Some(path) => {
                    trace.save(&path).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1);
                    });
                    println!("{} jobs in {} batches written to {path}", trace.n_jobs(), trace.batches.len());
                }
                None => println!("{}", trace.to_json()),
            }
        }
        Some("run") => {
            let mut cfg = load_config(&args);
            apply_fault_profile(&mut cfg, &args);
            let (report, world) = match arg_value(&args, "--workload") {
                Some(path) => {
                    let trace =
                        cloudburst_workload::WorkloadTrace::load(&path).unwrap_or_else(|e| {
                            eprintln!("cannot load workload {path}: {e}");
                            exit(1);
                        });
                    cloudburst_core::run_with_batches(&cfg, trace.batches)
                }
                None => run_experiment_detailed(&cfg),
            };
            let json = serde_json::to_string_pretty(&report).expect("serialize report");
            match arg_value(&args, "--out") {
                Some(path) => {
                    fs::write(&path, &json).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1);
                    });
                    println!("{}", report.summary_line());
                    println!("report written to {path}");
                }
                None => println!("{json}"),
            }
            if let Some(path) = arg_value(&args, "--timelines") {
                let tj = serde_json::to_string_pretty(&world.timelines())
                    .expect("serialize timelines");
                fs::write(&path, tj).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1);
                });
                println!("timelines written to {path}");
            }
        }
        Some("serve") => {
            // Open-system serving: the config's `serve` section shapes the
            // stream; configs written before serving existed (no section)
            // run the default 24h flat stream. `--diurnal-day` overrides
            // the section with the EXPERIMENTS.md scenario: a full virtual
            // day of +-80% diurnal demand plus flash crowds.
            let mut cfg = load_config(&args);
            apply_fault_profile(&mut cfg, &args);
            if args.iter().any(|a| a == "--diurnal-day") {
                cfg.serve = Some(cloudburst_core::ServeConfig::diurnal_day());
            }
            let report = cloudburst_core::serve_experiment(&cfg);
            let json = serde_json::to_string_pretty(&report).expect("serialize serve report");
            let summary = format!(
                "serve[{}] seed={} horizon={:.0}s drained={:.0}s jobs={}/{} rate={:.3}/s live_hw={} windows={}",
                report.scheduler,
                report.seed,
                report.horizon_secs,
                report.drained_at_secs,
                report.jobs_completed,
                report.jobs_admitted,
                report.mean_completion_rate_per_sec,
                report.live_high_water,
                report.windows.len(),
            );
            match arg_value(&args, "--out") {
                Some(path) => {
                    fs::write(&path, &json).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1);
                    });
                    println!("{summary}");
                    println!("report written to {path}");
                }
                None => println!("{json}"),
            }
        }
        Some("econ-sweep") => {
            // Price-regime x scheduler cost grid. The config supplies the
            // workload, estate and pipes; the scheduler and `econ` section
            // are overridden per grid cell (built-in regimes, see
            // `cloudburst_bench::price_regimes`). Output is byte-identical
            // across reruns of the same config and seed list.
            let cfg = load_config(&args);
            let seeds = parse_seeds(&args).unwrap_or_else(|| vec![cfg.seed]);
            let table = cloudburst_bench::econ_sweep_table(&cfg, &seeds);
            match arg_value(&args, "--out") {
                Some(path) => {
                    fs::write(&path, &table).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1);
                    });
                    println!("econ-sweep table written to {path}");
                }
                None => print!("{table}"),
            }
        }
        Some("sweep") => {
            let mut cfg = load_config(&args);
            apply_fault_profile(&mut cfg, &args);
            let seeds = parse_seeds(&args).unwrap_or_else(|| usage());
            let dir = arg_value(&args, "--out").unwrap_or_else(|| usage());
            fs::create_dir_all(&dir).unwrap_or_else(|e| {
                eprintln!("cannot create {dir}: {e}");
                exit(1);
            });
            let reports = run_replications(&cfg, &seeds);
            for r in &reports {
                let path = format!("{dir}/report-seed{}.json", r.seed);
                fs::write(&path, serde_json::to_string_pretty(r).expect("serialize"))
                    .unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1);
                    });
                println!("{}", r.summary_line());
            }
            // Aggregate line: mean makespan/speedup across seeds.
            println!(
                "mean over {} seeds: makespan={:.0}s speedup={:.2}",
                reports.len(),
                mean_of(&reports, |r| r.makespan_secs),
                mean_of(&reports, |r| r.speedup),
            );
        }
        _ => usage(),
    }
}
