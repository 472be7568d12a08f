//! `cloudburst-conform` — the in-tree determinism & hot-path conformance
//! linter.
//!
//! The reproduction's headline guarantees — byte-identical replication of
//! the paper's figure runs, zero-allocation QRSM observe/predict/refit, a
//! deterministic event kernel — die silently: one `Instant::now()` or
//! default-hashed `HashMap` in a sim-facing crate and replication drifts
//! the way an SLA-driven scheduler drifts off its contracted metrics. This
//! crate machine-checks those invariants as a workspace gate:
//!
//! ```text
//! cargo run -p cloudburst-conform          # scan the workspace, exit ≠ 0 on findings
//! ```
//!
//! Structure:
//!
//! * [`lexer`] — a minimal Rust lexer (no `syn`; the linter is
//!   dependency-free by policy) producing line-tagged tokens with
//!   comments/literals stripped and `#[cfg(test)]` items marked;
//! * [`parse`] — item parser over the token stream: `fn`/`impl`/`mod`
//!   items, call, reference and macro sites, item-level root code and
//!   aliases, `// conform::hot_root` marker binding;
//! * [`graph`] — the cross-crate call graph (name-shaped resolution);
//! * [`taint`] — transitive analyses over the graph: alloc-reachable,
//!   panic-reachable, determinism taint — each finding carries a witness
//!   path root → … → sink — and unreached fns, the library code no bin,
//!   example, bench, integration test or other crate's test reaches;
//! * [`rules`] — the token-level determinism, hot-path and
//!   conformance-header rules;
//! * [`config`] — the `conform.toml` waiver/budget file, where every
//!   waiver must carry a justification and may be line-anchored;
//! * [`scan`] — workspace walking, per-crate unwrap budgets, waiver
//!   application, stale-waiver detection;
//! * [`report`] — deterministic `(rule, path, line)`-sorted rendering,
//!   text and `--json`.
//!
//! See DESIGN.md §8 for the rule catalogue and how to add a rule.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod config;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scan;
pub mod taint;

pub use config::{parse as parse_config, Config, ConfigError, Waiver};
pub use report::Report;
pub use rules::{FileContext, FileInfo, Finding, DETERMINISTIC_CRATES};
pub use scan::{scan_workspace, ScanError};

/// Convenience for tests and fixtures: scans one in-memory source file as
/// `crate_key`/`context`, with budgets and waivers from `cfg`.
pub fn scan_str(
    cfg: &Config,
    crate_key: &str,
    context: FileContext,
    rel_path: &str,
    src: &str,
    is_crate_root: bool,
) -> Vec<Finding> {
    let info = FileInfo {
        rel_path: rel_path.to_owned(),
        crate_key: crate_key.to_owned(),
        context,
        is_crate_root,
    };
    let toks = lexer::lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let scan = rules::scan_tokens(&info, &toks, &lines);
    let mut findings = scan.findings;
    let budget = cfg.unwrap_budget(crate_key);
    if scan.unwrap_sites.len() > budget {
        for (path, line, snippet) in &scan.unwrap_sites {
            findings.push(Finding {
                rule: "hotpath/unwrap-budget",
                path: path.clone(),
                line: *line,
                message: format!(
                    "crate `{crate_key}` has {} library unwrap() calls (budget {budget}): `{snippet}`",
                    scan.unwrap_sites.len()
                ),
                witness: Vec::new(),
                waived: None,
            });
        }
    }
    // Library fixtures also get the graph analyses, so a single file can
    // exercise alloc-reachable / panic-reachable / determinism-taint.
    // dead/unreached-fn needs a workspace's roots: `scan_workspace` only.
    if context == FileContext::Lib {
        let parsed = parse::parse_file(crate_key, rel_path, src);
        findings.extend(scan::dangling_marker_findings(&parsed));
        findings.extend(taint::analyze(&graph::build(vec![parsed]), cfg));
    }
    for f in &mut findings {
        if let Some(w) =
            cfg.waivers.iter().find(|w| w.rule == f.rule && w.matches_site(&f.path, f.line))
        {
            f.waived = Some(w.justification.clone());
        }
    }
    findings.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.message).cmp(&(b.rule, &b.path, b.line, &b.message))
    });
    findings
}
