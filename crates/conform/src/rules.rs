//! The rule engine: determinism, hot-path, and conformance-header rules
//! evaluated over the token stream of one file.
//!
//! Rule ids are stable strings (they key waivers and sort the report):
//!
//! * `determinism/wall-clock` — `Instant` / `SystemTime` in deterministic
//!   library code. Wall-clock reads make replication runs diverge.
//! * `determinism/default-hasher` — `HashMap` / `HashSet` with the default
//!   (randomized) hasher; use `FxHashMap`/`FxHashSet` or a `BTreeMap`.
//! * `determinism/ambient-rng` — `thread_rng`, `rand::random`, `OsRng`,
//!   `from_entropy`: randomness not derived from the experiment seed.
//! * `determinism/thread-spawn` — `thread::spawn`, `thread::scope` or
//!   `crossbeam::scope` worker orchestration in deterministic crates; a
//!   run is single-threaded, and real threads belong to the orchestration
//!   layer and bins (the multi-run map, `cloudburst_bench::ShardPool`).
//!   A deterministic-crate file that must spawn needs a per-file waiver
//!   whose justification states the determinism argument — never a
//!   blanket relaxation of the rule.
//! * `hotpath/unsafe` — `unsafe` anywhere (library, bins, tests) outside
//!   an explicit waiver.
//! * `hotpath/unwrap-budget` — `.unwrap()` in library (non-bin, non-test)
//!   code above the per-crate budget from `conform.toml`.
//! * `hotpath/print` — `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in
//!   library code; library crates must stay silent.
//! * `hotpath/linear-scan` — `.min_by`/`.max_by`(`_key`) in hot-path
//!   library code outside `#[cfg(test)]`: a full-collection scan in the
//!   decision loop is exactly the O(queue) pattern the slack indexes
//!   retired. Survivors need a waiver justifying their boundedness.
//! * `hotpath/sort-in-loop` — `.sort()`/`.sort_by*`/`.sort_unstable*` in
//!   hot-path library code outside `#[cfg(test)]`: an O(n log n) resort
//!   inside the decision sweep dwarfs the O(log n) index structures it sits
//!   next to. Bounded sorts (machine-count-sized scratch) survive behind a
//!   waiver stating the bound.
//! * `conformance/lint-header` — every crate root must carry
//!   `#![forbid(unsafe_code)]`, `#![deny(rust_2018_idioms)]` and
//!   `#![deny(missing_debug_implementations)]`.

use crate::lexer::{Tok, TokKind};

/// Crates (directory names under `crates/`) whose library code must stay
/// deterministic: everything that runs inside the simulation clock.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["chaos", "cluster", "core", "econ", "net", "qrsm", "sched", "sim", "sla", "workload"];

/// Crates on the per-decision hot path, where a linear `min_by`/`max_by`
/// rescan of an unbounded collection re-introduces the O(queue) cost the
/// slack indexes retired.
pub const HOT_PATH_CRATES: &[&str] = &["cluster", "core", "net", "sched", "sim"];

/// Full-scan comparator methods flagged on the hot path.
const LINEAR_SCAN_METHODS: &[&str] = &["max_by", "max_by_key", "min_by", "min_by_key"];

/// Sorting methods flagged on the hot path.
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_cached_key",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// How a file participates in the build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileContext {
    /// Library code (`src/` except `src/bin/`).
    Lib,
    /// Binary code (`src/bin/`, `src/main.rs`).
    Bin,
    /// Integration tests and benches (`tests/`, `benches/`).
    Test,
    /// Examples (`examples/`).
    Example,
}

/// Everything the rules need to know about one file.
#[derive(Clone, Debug)]
pub struct FileInfo {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Crate key: directory name under `crates/`, or `root`.
    pub crate_key: String,
    /// Build context.
    pub context: FileContext,
    /// True for `src/lib.rs` of a workspace crate (or the meta-crate).
    pub is_crate_root: bool,
}

impl FileInfo {
    fn deterministic(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.crate_key.as_str())
    }
}

/// One diagnostic, before waivers are applied.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable rule id.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human message, including the offending source line.
    pub message: String,
    /// For graph findings: the `name (file:line)` hops of the witness
    /// path from the root (or tainted boundary) to this sink. Empty for
    /// token-rule findings.
    pub witness: Vec<String>,
    /// Justification when a waiver suppressed the finding.
    pub waived: Option<String>,
}

/// A library-code `.unwrap()` call site: (path, line, snippet).
pub type UnwrapSite = (String, u32, String);

/// Raw per-file scan output: direct findings plus `unwrap()` sites, which
/// the caller aggregates per crate against the budget.
#[derive(Clone, Debug, Default)]
pub struct FileScan {
    /// Findings that stand on their own.
    pub findings: Vec<Finding>,
    /// Library-code `.unwrap()` call sites.
    pub unwrap_sites: Vec<UnwrapSite>,
}

/// Idents that name an ambient (seed-less) randomness source.
const AMBIENT_RNG_IDENTS: &[&str] = &["thread_rng", "OsRng", "from_entropy"];

/// Macro names library code must not invoke.
const PRINT_MACROS: &[&str] = &["dbg", "eprint", "eprintln", "print", "println"];

/// Scans one file's tokens against every applicable rule.
pub fn scan_tokens(info: &FileInfo, toks: &[Tok], lines: &[&str]) -> FileScan {
    let mut findings: Vec<Finding> = Vec::new();
    let mut unwrap_sites: Vec<UnwrapSite> = Vec::new();
    let snippet = |line: u32| -> String {
        let text = lines.get(line as usize - 1).map_or("", |l| l.trim());
        let mut s: String = text.chars().take(90).collect();
        if s.len() < text.len() {
            s.push('…');
        }
        s
    };
    let mut push = |rule: &'static str, line: u32, what: &str| {
        findings.push(Finding {
            rule,
            path: info.rel_path.clone(),
            line,
            message: format!("{what}: `{}`", snippet(line)),
            witness: Vec::new(),
            waived: None,
        });
    };

    let det_lib = info.deterministic() && info.context == FileContext::Lib;
    let lib = info.context == FileContext::Lib;

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev = |n: usize| -> &str { if i >= n { toks[i - n].text.as_str() } else { "" } };
        let next = |n: usize| -> &str {
            toks.get(i + n).map_or("", |t| t.text.as_str())
        };
        // hotpath/unsafe applies everywhere, test code included: unsafe in
        // a test is still unsafe code someone must audit.
        if t.text == "unsafe" {
            push("hotpath/unsafe", t.line, "`unsafe` outside the audited allowlist");
            continue;
        }
        if t.in_test {
            continue;
        }
        if det_lib {
            match t.text.as_str() {
                "Instant" | "SystemTime" => {
                    push("determinism/wall-clock", t.line, "wall-clock type in deterministic code");
                    continue;
                }
                "HashMap" | "HashSet" => {
                    push(
                        "determinism/default-hasher",
                        t.line,
                        "randomized default hasher (use FxHashMap/FxHashSet or BTreeMap)",
                    );
                    continue;
                }
                "spawn" if prev(1) == "::" && prev(2) == "thread" => {
                    push(
                        "determinism/thread-spawn",
                        t.line,
                        "thread::spawn outside the orchestration layer",
                    );
                    continue;
                }
                "scope" if prev(1) == "::" && prev(2) == "thread" => {
                    push(
                        "determinism/thread-spawn",
                        t.line,
                        "std scoped worker threads outside the orchestration layer",
                    );
                    continue;
                }
                "scope" if prev(1) == "::" && prev(2) == "crossbeam" => {
                    push(
                        "determinism/thread-spawn",
                        t.line,
                        "crossbeam scoped workers in deterministic code (waive the coordinator with a determinism justification)",
                    );
                    continue;
                }
                "random" if prev(1) == "::" && prev(2) == "rand" => {
                    push("determinism/ambient-rng", t.line, "ambient randomness (seed it instead)");
                    continue;
                }
                id if AMBIENT_RNG_IDENTS.contains(&id) => {
                    push("determinism/ambient-rng", t.line, "ambient randomness (seed it instead)");
                    continue;
                }
                _ => {}
            }
        }
        if lib {
            if PRINT_MACROS.contains(&t.text.as_str()) && next(1) == "!" {
                push("hotpath/print", t.line, "console output from library code");
                continue;
            }
            if t.text == "unwrap" && prev(1) == "." && next(1) == "(" {
                unwrap_sites.push((info.rel_path.clone(), t.line, snippet(t.line)));
            }
            if HOT_PATH_CRATES.contains(&info.crate_key.as_str()) && prev(1) == "." {
                if LINEAR_SCAN_METHODS.contains(&t.text.as_str()) {
                    push(
                        "hotpath/linear-scan",
                        t.line,
                        "full-collection min_by/max_by scan on the hot path (waive with a boundedness justification)",
                    );
                    continue;
                }
                if SORT_METHODS.contains(&t.text.as_str()) && next(1) == "(" {
                    push(
                        "hotpath/sort-in-loop",
                        t.line,
                        "O(n log n) sort on the hot path (waive with a boundedness justification)",
                    );
                    continue;
                }
            }
        }
    }

    if info.is_crate_root {
        findings.extend(lint_header_findings(info, toks));
    }
    FileScan { findings, unwrap_sites }
}

/// Required crate-root inner attributes and the check for each.
fn lint_header_findings(info: &FileInfo, toks: &[Tok]) -> Vec<Finding> {
    let mut has_forbid_unsafe = false;
    let mut has_idioms = false;
    let mut has_debug_impls = false;
    // Walk inner attributes `#![...]`.
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].text == "#" && toks[i + 1].text == "!" && toks[i + 2].text == "[" {
            let mut j = i + 3;
            let mut depth = 1i32;
            let mut words: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    w => {
                        if toks[j].kind == TokKind::Ident {
                            words.push(w);
                        }
                    }
                }
                j += 1;
            }
            match words.first().copied() {
                Some("forbid") if words.contains(&"unsafe_code") => has_forbid_unsafe = true,
                Some("deny") => {
                    has_idioms |= words.contains(&"rust_2018_idioms");
                    has_debug_impls |= words.contains(&"missing_debug_implementations");
                }
                _ => {}
            }
            i = j;
            continue;
        }
        i += 1;
    }
    let mut missing = Vec::new();
    if !has_forbid_unsafe {
        missing.push("#![forbid(unsafe_code)]");
    }
    if !has_idioms {
        missing.push("#![deny(rust_2018_idioms)]");
    }
    if !has_debug_impls {
        missing.push("#![deny(missing_debug_implementations)]");
    }
    missing
        .into_iter()
        .map(|attr| Finding {
            rule: "conformance/lint-header",
            path: info.rel_path.clone(),
            line: 1,
            message: format!("crate root is missing `{attr}`"),
            witness: Vec::new(),
            waived: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lib_info(deterministic: bool) -> FileInfo {
        FileInfo {
            rel_path: "crates/x/src/lib.rs".to_owned(),
            crate_key: if deterministic { "sim".to_owned() } else { "bench".to_owned() },
            context: FileContext::Lib,
            is_crate_root: false,
        }
    }

    fn scan(info: &FileInfo, src: &str) -> FileScan {
        let toks = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        scan_tokens(info, &toks, &lines)
    }

    #[test]
    fn determinism_rules_only_bind_deterministic_crates() {
        let src = "use std::time::Instant;\nfn f() { let m = HashMap::new(); }";
        let det = scan(&lib_info(true), src);
        assert_eq!(det.findings.len(), 2);
        let free = scan(&lib_info(false), src);
        assert!(free.findings.is_empty());
    }

    #[test]
    fn unsafe_is_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { unsafe { core::hint::unreachable_unchecked() } }\n}";
        let s = scan(&lib_info(false), src);
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].rule, "hotpath/unsafe");
    }

    #[test]
    fn unwrap_sites_skip_test_code_and_bins() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g(y: Option<u8>) { y.unwrap(); } }";
        let s = scan(&lib_info(false), src);
        assert_eq!(s.unwrap_sites.len(), 1);
        let mut bin = lib_info(false);
        bin.context = FileContext::Bin;
        assert!(scan(&bin, src).unwrap_sites.is_empty());
    }

    #[test]
    fn print_macros_flagged_in_lib_only() {
        let src = "fn f() { println!(\"x\"); }";
        assert_eq!(scan(&lib_info(false), src).findings.len(), 1);
        let mut bin = lib_info(false);
        bin.context = FileContext::Bin;
        assert!(scan(&bin, src).findings.is_empty());
    }

    #[test]
    fn linear_scans_flagged_on_hot_path_lib_code_only() {
        let src = "fn f(v: &[f64]) { v.iter().min_by(|a, b| a.total_cmp(b)); }\n\
                   #[cfg(test)]\nmod t { fn g(v: &[u8]) { v.iter().max_by_key(|x| **x); } }";
        let mut hot = lib_info(true); // crate_key "sim" is hot-path
        let s = scan(&hot, src);
        assert_eq!(s.findings.len(), 1, "{:?}", s.findings);
        assert_eq!(s.findings[0].rule, "hotpath/linear-scan");
        // Test code, non-hot-path crates and bins are exempt.
        assert!(scan(&lib_info(false), src).findings.is_empty(), "bench is not hot-path");
        hot.context = FileContext::Bin;
        assert!(scan(&hot, src).findings.is_empty());
        // A bare ident `min_by` (no method dot) is not a scan.
        let free = "fn min_by() {}";
        assert!(scan(&lib_info(true), free).findings.is_empty());
    }

    #[test]
    fn sorts_flagged_on_hot_path_lib_code_only() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_unstable_by(f64::total_cmp); }\n\
                   fn g(v: &mut Vec<u8>) { v.sort(); }\n\
                   #[cfg(test)]\nmod t { fn h(v: &mut Vec<u8>) { v.sort_by_key(|x| *x); } }";
        let mut hot = lib_info(true); // crate_key "sim" is hot-path
        let s = scan(&hot, src);
        assert_eq!(s.findings.len(), 2, "{:?}", s.findings);
        assert!(s.findings.iter().all(|f| f.rule == "hotpath/sort-in-loop"));
        assert!(scan(&lib_info(false), src).findings.is_empty(), "bench is not hot-path");
        hot.context = FileContext::Test;
        assert!(scan(&hot, src).findings.is_empty(), "tests may sort");
        // A field access `x.sort` (no call parens) and a free fn named
        // `sort` are not sorts.
        assert!(scan(&lib_info(true), "fn sort() {}\nfn f(s: &S) { s.sort; }").findings.is_empty());
    }

    #[test]
    fn lint_header_checks_crate_roots() {
        let mut info = lib_info(false);
        info.is_crate_root = true;
        let missing = scan(&info, "pub fn f() {}\n");
        assert_eq!(missing.findings.len(), 3);
        let ok = scan(
            &info,
            "#![forbid(unsafe_code)]\n#![deny(rust_2018_idioms)]\n#![deny(missing_debug_implementations)]\n",
        );
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    }

    #[test]
    fn combined_deny_attr_satisfies_both() {
        let mut info = lib_info(false);
        info.is_crate_root = true;
        let ok = scan(
            &info,
            "#![forbid(unsafe_code)]\n#![deny(rust_2018_idioms, missing_debug_implementations)]\n",
        );
        assert!(ok.findings.is_empty());
    }
}
