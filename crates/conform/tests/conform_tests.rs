//! Fixture-driven self-tests for the conformance linter.
//!
//! Three layers:
//!
//! 1. per-rule fixture pairs under `fixtures/rules/` — every rule has at
//!    least one violating sample (the rule must fire) and one clean sample
//!    (the rule must stay silent);
//! 2. config fixtures under `fixtures/config/` — the waiver grammar,
//!    including rejection of waivers without a justification;
//! 3. the golden mini-workspace under `fixtures/golden_ws/` — a full
//!    `scan_workspace` run whose rendered report must match
//!    `fixtures/golden_expected.txt` byte for byte, locking in the
//!    `(rule, path, line)` report ordering;
//!
//! plus the capstone: the *real* workspace, scanned with the real
//! `conform.toml`, must have zero unwaived findings.

use std::fs;
use std::path::{Path, PathBuf};

use cloudburst_conform::{
    parse_config, scan_str, scan_workspace, Config, ConfigError, FileContext, Finding,
};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(rel: &str) -> String {
    let path = fixture_dir().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scans a `fixtures/rules/` sample as library code of the deterministic
/// `sim` crate (the strictest context), with an empty config.
fn scan_rule_fixture(name: &str) -> Vec<Finding> {
    let src = fixture(&format!("rules/{name}"));
    let is_root = name.starts_with("lint_header");
    let rel = if is_root { "crates/sim/src/lib.rs" } else { "crates/sim/src/sample.rs" };
    scan_str(&Config::default(), "sim", FileContext::Lib, rel, &src, is_root)
}

fn assert_fires(name: &str, rule: &str) {
    let findings = scan_rule_fixture(name);
    assert!(
        findings.iter().any(|f| f.rule == rule),
        "{name} must trigger {rule}, got {findings:?}"
    );
    assert!(
        findings.iter().all(|f| f.rule == rule),
        "{name} must trigger only {rule}, got {findings:?}"
    );
}

fn assert_clean(name: &str) {
    let findings = scan_rule_fixture(name);
    assert!(findings.is_empty(), "{name} must scan clean, got {findings:?}");
}

#[test]
fn wall_clock_fixture_pair() {
    assert_fires("wall_clock_violation.rs", "determinism/wall-clock");
    assert_clean("wall_clock_clean.rs");
}

#[test]
fn default_hasher_fixture_pair() {
    assert_fires("default_hasher_violation.rs", "determinism/default-hasher");
    assert_clean("default_hasher_clean.rs");
}

#[test]
fn ambient_rng_fixture_pair() {
    assert_fires("ambient_rng_violation.rs", "determinism/ambient-rng");
    assert_clean("ambient_rng_clean.rs");
}

#[test]
fn thread_spawn_fixture_pair() {
    assert_fires("thread_spawn_violation.rs", "determinism/thread-spawn");
    assert_clean("thread_spawn_clean.rs");
}

#[test]
fn crossbeam_scope_fixture_pair() {
    // An unwaived fan-out coordinator in a deterministic crate must fail
    // the scan exactly like a bare `thread::spawn` — the shard pool's
    // legitimacy comes from its per-file waiver, not a rule relaxation.
    assert_fires("crossbeam_scope_violation.rs", "determinism/thread-spawn");
    assert_clean("crossbeam_scope_clean.rs");
}

#[test]
fn unsafe_fixture_pair() {
    assert_fires("unsafe_violation.rs", "hotpath/unsafe");
    assert_clean("unsafe_clean.rs");
}

#[test]
fn unwrap_budget_fixture_pair() {
    assert_fires("unwrap_violation.rs", "hotpath/unwrap-budget");
    // The same file passes once the crate's budget covers its one site.
    let src = fixture("rules/unwrap_violation.rs");
    let cfg = parse_config("[budgets.unwrap]\nsim = 1\n").expect("budget config parses");
    let findings =
        scan_str(&cfg, "sim", FileContext::Lib, "crates/sim/src/sample.rs", &src, false);
    assert!(findings.is_empty(), "budget 1 must cover one unwrap, got {findings:?}");
    assert_clean("unwrap_clean.rs");
}

#[test]
fn print_fixture_pair() {
    assert_fires("print_violation.rs", "hotpath/print");
    assert_clean("print_clean.rs");
}

#[test]
fn alloc_reachable_fixture_pair() {
    assert_fires("alloc_reachable_violation.rs", "hotpath/alloc-reachable");
    assert_clean("alloc_reachable_clean.rs");
}

/// The seeded witness chain: the alloc finding must name every hop from
/// the hot root down to the function holding the sink, in call order.
#[test]
fn alloc_witness_names_the_full_root_to_sink_chain() {
    let findings = scan_rule_fixture("alloc_reachable_violation.rs");
    let f = findings
        .iter()
        .find(|f| f.rule == "hotpath/alloc-reachable")
        .expect("alloc finding present");
    let hops: Vec<&str> =
        f.witness.iter().map(|h| h.split(' ').next().unwrap_or("")).collect();
    assert_eq!(
        hops,
        vec!["Sweep::decide", "Sweep::stage", "admit"],
        "witness must walk root -> mid -> sink fn, got {:?}",
        f.witness
    );
    for hop in &f.witness {
        assert!(
            hop.contains("crates/sim/src/sample.rs:"),
            "every hop carries file:line, got {hop}"
        );
    }
}

#[test]
fn panic_reachable_fixture_pair() {
    assert_fires("panic_reachable_violation.rs", "hotpath/panic-reachable");
    assert_clean("panic_reachable_clean.rs");
}

#[test]
fn sort_in_loop_fixture_pair() {
    assert_fires("sort_in_loop_violation.rs", "hotpath/sort-in-loop");
    assert_clean("sort_in_loop_clean.rs");
}

/// The taint pair needs two files (a waived spawn coordinator and a
/// deterministic caller), so it runs over the `taint_ws` mini-workspace
/// instead of a single-file fixture.
#[test]
fn determinism_taint_workspace_pair() {
    let root = fixture_dir().join("taint_ws");

    // Violating flavour: the crossing has no determinism/taint waiver.
    let cfg = parse_config(&fixture("taint_ws/conform_violation.toml")).expect("config parses");
    let report = scan_workspace(&root, &cfg).expect("taint_ws scans");
    let taint: Vec<&Finding> =
        report.findings.iter().filter(|f| f.rule == "determinism/taint").collect();
    assert_eq!(taint.len(), 1, "one crossing, got {:?}", report.findings);
    assert_eq!(taint[0].path, "crates/sim/src/merge.rs");
    assert!(taint[0].waived.is_none(), "crossing must be unwaived");
    assert!(
        taint[0].message.contains("`merge_all`")
            && taint[0].message.contains("crates/sim/src/pool.rs"),
        "finding names caller and source file, got {}",
        taint[0].message
    );
    assert_eq!(report.unwaived(), 1, "only the taint crossing is unwaived");

    // Clean flavour: a justified waiver sits on the boundary.
    let cfg = parse_config(&fixture("taint_ws/conform_clean.toml")).expect("config parses");
    let report = scan_workspace(&root, &cfg).expect("taint_ws scans clean");
    assert_eq!(report.unwaived(), 0, "waived boundary, got:\n{}", report.render());
    assert!(
        report.findings.iter().any(|f| f.rule == "determinism/taint" && f.waived.is_some()),
        "the waived crossing stays visible in the report"
    );
}

/// Line-anchored waiver hygiene: an anchor on the exact finding line
/// waives it; the same waiver one line off does not.
#[test]
fn line_anchored_waiver_binds_to_the_exact_line() {
    let src = fixture("rules/panic_reachable_violation.rs");
    let on_line = "[[waiver]]\n\
                   rule = \"hotpath/panic-reachable\"\n\
                   path = \"crates/sim/src/sample.rs\"\n\
                   line = 10\n\
                   justification = \"fixture: anchored on the assert\"\n";
    let cfg = parse_config(on_line).expect("anchored config parses");
    let findings = scan_str(&cfg, "sim", FileContext::Lib, "crates/sim/src/sample.rs", &src, false);
    assert!(
        findings.iter().all(|f| f.waived.is_some()),
        "anchor on the finding line must waive it, got {findings:?}"
    );

    let off_line = on_line.replace("line = 10", "line = 9");
    let cfg = parse_config(&off_line).expect("off-anchor config parses");
    let findings = scan_str(&cfg, "sim", FileContext::Lib, "crates/sim/src/sample.rs", &src, false);
    assert!(
        findings.iter().any(|f| f.rule == "hotpath/panic-reachable" && f.waived.is_none()),
        "anchor one line off must not waive, got {findings:?}"
    );
}

/// A stale anchored waiver (the code moved) must surface as an unused
/// waiver telling the author to re-audit, not silently re-aim.
#[test]
fn stale_line_anchor_fails_the_scan() {
    let root = fixture_dir().join("taint_ws");
    let cfg = parse_config(
        "[[waiver]]\n\
         rule = \"determinism/thread-spawn\"\n\
         path = \"crates/sim/src/pool.rs\"\n\
         line = 999\n\
         justification = \"fixture: stale anchor\"\n",
    )
    .expect("stale config parses");
    let report = scan_workspace(&root, &cfg).expect("taint_ws scans");
    let stale = report
        .findings
        .iter()
        .find(|f| f.rule == "conformance/unused-waiver")
        .expect("stale anchor must surface as unused waiver");
    assert!(
        stale.message.contains("anchored to line 999") && stale.message.contains("re-anchor"),
        "message names the drifted anchor, got {}",
        stale.message
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "determinism/thread-spawn" && f.waived.is_none()),
        "the mis-anchored spawn finding stays unwaived"
    );
}

/// A waiver naming the right path but the wrong rule covers nothing: the
/// finding stays unwaived and the waiver itself is flagged unused.
#[test]
fn wrong_rule_waiver_covers_nothing() {
    let root = fixture_dir().join("taint_ws");
    let cfg = parse_config(
        "[[waiver]]\n\
         rule = \"hotpath/unsafe\"\n\
         path = \"crates/sim/src/pool.rs\"\n\
         justification = \"fixture: wrong rule for this file\"\n",
    )
    .expect("wrong-rule config parses");
    let report = scan_workspace(&root, &cfg).expect("taint_ws scans");
    assert!(
        report.findings.iter().any(|f| f.rule == "conformance/unused-waiver"),
        "the wrong-rule waiver must be flagged unused, got:\n{}",
        report.render()
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "determinism/thread-spawn" && f.waived.is_none()),
        "the spawn finding stays unwaived"
    );
}

#[test]
fn lint_header_fixture_pair() {
    let findings = scan_rule_fixture("lint_header_violation.rs");
    assert_eq!(
        findings.len(),
        3,
        "a bare crate root misses all three attrs, got {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "conformance/lint-header"));
    assert_clean("lint_header_clean.rs");
}

#[test]
fn determinism_rules_do_not_bind_free_crates() {
    // The same wall-clock sample is legal in a non-deterministic crate
    // (bench is the orchestration layer).
    let src = fixture("rules/wall_clock_violation.rs");
    let findings =
        scan_str(&Config::default(), "bench", FileContext::Lib, "crates/bench/src/runner.rs", &src, false);
    assert!(findings.is_empty(), "bench may read the wall clock, got {findings:?}");
}

#[test]
fn good_config_parses() {
    let cfg = parse_config(&fixture("config/good.toml")).expect("good.toml parses");
    assert_eq!(cfg.waivers.len(), 1);
    assert_eq!(cfg.unwrap_budget("qrsm"), 2);
    assert_eq!(cfg.unwrap_budget("net"), 0);
}

#[test]
fn waiver_without_justification_is_rejected() {
    let err = parse_config(&fixture("config/missing_justification.toml"))
        .expect_err("a waiver with no justification must be rejected");
    assert!(matches!(err, ConfigError::MissingJustification { .. }), "got {err:?}");
}

#[test]
fn blank_justification_is_rejected() {
    let err = parse_config(&fixture("config/blank_justification.toml"))
        .expect_err("a whitespace justification must be rejected");
    assert!(matches!(err, ConfigError::MissingJustification { .. }), "got {err:?}");
}

#[test]
fn incomplete_waiver_is_rejected() {
    let err = parse_config(&fixture("config/incomplete_waiver.toml"))
        .expect_err("a waiver without a path must be rejected");
    assert!(matches!(err, ConfigError::IncompleteWaiver { .. }), "got {err:?}");
}

#[test]
fn unknown_waiver_key_is_rejected() {
    let err = parse_config(&fixture("config/unknown_key.toml"))
        .expect_err("unknown waiver keys must be rejected");
    assert!(matches!(err, ConfigError::Parse { .. }), "got {err:?}");
}

/// The golden test: scanning the mini-workspace must reproduce
/// `golden_expected.txt` byte for byte. This locks in the report ordering
/// (rule, then path, then line, then message), waived-finding rendering,
/// stale-waiver detection, and the summary line.
#[test]
fn golden_workspace_report_is_byte_stable() {
    let root = fixture_dir().join("golden_ws");
    let cfg = parse_config(&fixture("golden_ws/conform.toml")).expect("golden config parses");
    let report = scan_workspace(&root, &cfg).expect("golden workspace scans");
    let expected = fixture("golden_expected.txt");
    assert_eq!(report.render(), expected, "golden report drifted");
    // And twice in a row — determinism is the whole point.
    let again = scan_workspace(&root, &cfg).expect("golden workspace scans again");
    assert_eq!(again.render(), expected);
}

/// The JSON twin of the golden test: `render_json` over the same
/// mini-workspace must reproduce `golden_expected.json` byte for byte —
/// same sort, fixed key order, machine-stable across runs.
#[test]
fn golden_workspace_json_is_byte_stable() {
    let root = fixture_dir().join("golden_ws");
    let cfg = parse_config(&fixture("golden_ws/conform.toml")).expect("golden config parses");
    let report = scan_workspace(&root, &cfg).expect("golden workspace scans");
    let expected = fixture("golden_expected.json");
    assert_eq!(report.render_json(), expected, "golden JSON drifted");
    let again = scan_workspace(&root, &cfg).expect("golden workspace scans again");
    assert_eq!(again.render_json(), expected);
}

/// The binary contract: exit 1 (with the golden report on stdout) on a tree
/// with unwaived findings, exit 0 on the real workspace, exit 2 on a config
/// the parser rejects.
#[test]
fn binary_exit_codes_match_contract() {
    let bin = env!("CARGO_BIN_EXE_cloudburst-conform");
    let run = |root: &Path, config: &Path| {
        std::process::Command::new(bin)
            .arg("--root")
            .arg(root)
            .arg("--config")
            .arg(config)
            .output()
            .expect("conform binary runs")
    };

    let golden = fixture_dir().join("golden_ws");
    let dirty = run(&golden, &golden.join("conform.toml"));
    assert_eq!(dirty.status.code(), Some(1), "unwaived findings must exit 1");
    assert_eq!(
        String::from_utf8_lossy(&dirty.stdout),
        fixture("golden_expected.txt"),
        "binary stdout must match the golden report"
    );

    let ws_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let clean = run(&ws_root, &ws_root.join("conform.toml"));
    assert_eq!(
        clean.status.code(),
        Some(0),
        "workspace must scan clean; stdout:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    let bad_cfg = run(&golden, &fixture_dir().join("config/missing_justification.toml"));
    assert_eq!(bad_cfg.status.code(), Some(2), "rejected config must exit 2");

    // --json: same exit code, machine-readable stdout, byte-identical to
    // the golden JSON.
    let json = std::process::Command::new(bin)
        .arg("--root")
        .arg(&golden)
        .arg("--config")
        .arg(golden.join("conform.toml"))
        .arg("--json")
        .output()
        .expect("conform binary runs with --json");
    assert_eq!(json.status.code(), Some(1), "--json keeps the exit contract");
    assert_eq!(
        String::from_utf8_lossy(&json.stdout),
        fixture("golden_expected.json"),
        "binary --json stdout must match the golden JSON"
    );
}

/// The capstone: the real workspace, scanned with the real `conform.toml`,
/// has zero unwaived findings. This is the same check ci.sh gates on.
#[test]
fn real_workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let toml = fs::read_to_string(root.join("conform.toml")).expect("conform.toml readable");
    let cfg = parse_config(&toml).expect("conform.toml parses");
    let report = scan_workspace(&root, &cfg).expect("workspace scans");
    assert_eq!(
        report.unwaived(),
        0,
        "workspace has unwaived findings:\n{}",
        report.render()
    );
}
