//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <exp-id>...      run the named experiments (see `repro list`)
//! repro all              run everything, in DESIGN.md §4 order
//! repro list             print the experiment ids
//! repro --json <dir> …   additionally write per-experiment JSON summaries
//! repro --svg <dir> …    additionally render the figures as SVG files
//! ```

use std::io::Write as _;

use cloudburst_bench::{all_ids, run_experiment_by_id, ExpOutput};
use cloudburst_sim::ShardPool;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut svg_dir: Option<String> = None;
    for (flag, slot) in [("--json", &mut json_dir), ("--svg", &mut svg_dir)] {
        if let Some(pos) = args.iter().position(|a| a == flag) {
            args.remove(pos);
            if pos < args.len() {
                *slot = Some(args.remove(pos));
            } else {
                eprintln!("{flag} requires a directory argument");
                std::process::exit(2);
            }
        }
    }
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!("usage: repro [--json <dir>] <exp-id>... | all | list");
        eprintln!("experiments: {}", all_ids().join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args[0] == "list" {
        for id in all_ids() {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        all_ids().to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    // Experiments run on the worker pool (each id's output is buffered in
    // its own slot), then everything is printed and written strictly in id
    // order — byte-identical to a serial run.
    let mut outputs: Vec<Option<ExpOutput>> = Vec::new();
    ShardPool::new(0).map_ordered_into(&ids, &mut outputs, |_, id| run_experiment_by_id(id));
    let mut failures = 0;
    for (id, out) in ids.iter().zip(outputs) {
        emit(id, out, &json_dir, &svg_dir, &mut failures);
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed their shape check");
        std::process::exit(1);
    }
}

/// Prints one experiment's buffered output and writes its JSON/SVG
/// artifacts. Always called in id order.
fn emit(
    id: &str,
    out: Option<ExpOutput>,
    json_dir: &Option<String>,
    svg_dir: &Option<String>,
    failures: &mut u32,
) {
    let Some(out) = out else {
        eprintln!("unknown experiment id: {id} (try `repro list`)");
        *failures += 1;
        return;
    };
    println!("================================================================");
    println!("== {id}");
    println!("================================================================");
    println!("{}", out.text);
    let shape_ok = out.summary.get("shape_ok").and_then(|v| v.as_bool());
    match shape_ok {
        Some(true) => println!("[shape-check] {id}: OK"),
        Some(false) => {
            println!("[shape-check] {id}: MISMATCH — see summary: {}", out.summary);
            *failures += 1;
        }
        None => {}
    }
    println!();
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{id}.json");
        let mut f = std::fs::File::create(&path).expect("create json file");
        writeln!(f, "{}", serde_json::to_string_pretty(&out.summary).expect("serialize"))
            .expect("write json");
    }
    if let Some(dir) = svg_dir {
        std::fs::create_dir_all(dir).expect("create svg dir");
        for (stem, svg) in &out.charts {
            let path = format!("{dir}/{stem}.svg");
            std::fs::write(&path, svg).expect("write svg");
            println!("[figure] {path}");
        }
    }
}
