//! Workspace walking, file classification, budget aggregation, waiver
//! application, and the final deterministic [`Report`].

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::graph;
use crate::lexer::lex;
use crate::parse::{parse_file, ParsedFile, HOT_ROOT_ATTACH_WINDOW, HOT_ROOT_MARKER};
use crate::report::Report;
use crate::rules::{scan_tokens, FileContext, FileInfo, Finding, UnwrapSite};
use crate::taint;

/// Errors from scanning a workspace tree.
#[derive(Debug)]
pub enum ScanError {
    /// An I/O failure, with the path it happened on.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

/// Directory names that are never scanned: build output and fixture corpora
/// (fixture files are rule test *data*, not workspace code).
const SKIP_DIRS: &[&str] = &["fixtures", "target"];

/// Scans the workspace rooted at `root` and applies `cfg`'s waivers and
/// budgets. `vendor/` is excluded: those crates are stand-ins for external
/// dependencies, policed by their upstreams, not by this repo's rules.
pub fn scan_workspace(root: &Path, cfg: &Config) -> Result<Report, ScanError> {
    let mut files: Vec<(PathBuf, FileInfo)> = Vec::new();

    // Meta-crate: src/, tests/, examples/ at the root.
    for dir in ["src", "tests", "examples"] {
        collect(root, &root.join(dir), "root", &mut files)?;
    }
    // Workspace crates under crates/.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| ScanError::Io(crates_dir.clone(), e))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let key = crate_dir
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            for dir in ["src", "tests", "benches", "examples"] {
                collect(root, &crate_dir.join(dir), &key, &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.1.rel_path.cmp(&b.1.rel_path));

    let mut findings: Vec<Finding> = Vec::new();
    // (crate key, sites) accumulated across the crate's library files.
    let mut unwrap_by_crate: Vec<(String, Vec<UnwrapSite>)> = Vec::new();
    // The graph corpus: every parsed file. Fns of bins, tests, benches and
    // examples are roots, never call targets, so the hot-path analyses
    // start and end in library code.
    let mut corpus = Vec::new();
    for (abs, info) in &files {
        let src = fs::read_to_string(abs).map_err(|e| ScanError::Io(abs.clone(), e))?;
        let toks = lex(&src);
        let lines: Vec<&str> = src.lines().collect();
        let scan = scan_tokens(info, &toks, &lines);
        findings.extend(scan.findings);
        if !scan.unwrap_sites.is_empty() {
            match unwrap_by_crate.iter_mut().find(|(k, _)| k == &info.crate_key) {
                Some((_, sites)) => sites.extend(scan.unwrap_sites),
                None => unwrap_by_crate.push((info.crate_key.clone(), scan.unwrap_sites)),
            }
        }
        let mut parsed = parse_file(&info.crate_key, &info.rel_path, &src);
        if info.context == FileContext::Lib {
            findings.extend(dangling_marker_findings(&parsed));
        } else {
            parsed.fns.iter_mut().for_each(|f| f.root = true);
        }
        corpus.push(parsed);
    }

    // Graph analyses: alloc-reachable, panic-reachable, determinism taint,
    // unreached fns.
    let graph = graph::build(corpus);
    findings.extend(taint::analyze(&graph, cfg));
    findings.extend(taint::unreached_findings(&graph));

    // Budget check: a crate over its unwrap budget reports every site, so
    // the diff pinpoints each candidate for conversion.
    unwrap_by_crate.sort_by(|a, b| a.0.cmp(&b.0));
    for (key, sites) in unwrap_by_crate {
        let budget = cfg.unwrap_budget(&key);
        if sites.len() > budget {
            for (path, line, snippet) in sites.iter() {
                findings.push(Finding {
                    rule: "hotpath/unwrap-budget",
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "crate `{key}` has {} library unwrap() calls (budget {budget}): `{snippet}`",
                        sites.len()
                    ),
                    witness: Vec::new(),
                    waived: None,
                });
            }
        }
    }

    // Waivers: rule + exact path, and the exact line when anchored. A
    // stale waiver is itself a finding — the allowlist must shrink when
    // the code it excuses goes away, and a drifted line anchor must be
    // re-audited, not silently re-aimed.
    let mut used = vec![false; cfg.waivers.len()];
    for f in &mut findings {
        for (w, hit) in cfg.waivers.iter().zip(used.iter_mut()) {
            if w.rule == f.rule && w.matches_site(&f.path, f.line) {
                f.waived = Some(w.justification.clone());
                *hit = true;
                break;
            }
        }
    }
    for (w, hit) in cfg.waivers.iter().zip(used.iter()) {
        if !hit {
            let message = match w.line {
                Some(l) => format!(
                    "waiver for `{}` anchored to line {l} matches nothing — the code moved; re-audit and re-anchor it",
                    w.rule
                ),
                None => format!("waiver for `{}` matches nothing — remove it", w.rule),
            };
            findings.push(Finding {
                rule: "conformance/unused-waiver",
                path: w.path.clone(),
                line: 0,
                message,
                witness: Vec::new(),
                waived: None,
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.message).cmp(&(b.rule, &b.path, b.line, &b.message))
    });
    Ok(Report { findings })
}

/// Findings for `// conform::hot_root` markers that bound to no `fn`
/// (more than [`HOT_ROOT_ATTACH_WINDOW`] lines above it, or a typo'd
/// placement): a root the analyzer silently ignored would fake a clean
/// report.
pub fn dangling_marker_findings(parsed: &ParsedFile) -> Vec<Finding> {
    parsed
        .unbound_markers
        .iter()
        .map(|&line| Finding {
            rule: "conformance/dangling-hot-root",
            path: parsed.rel_path.clone(),
            line,
            message: format!(
                "`{HOT_ROOT_MARKER}` marker binds to no `fn` within {HOT_ROOT_ATTACH_WINDOW} lines — the root is not being analyzed"
            ),
            witness: Vec::new(),
            waived: None,
        })
        .collect()
}

/// Recursively collects `.rs` files under `dir`, classifying each.
fn collect(
    root: &Path,
    dir: &Path,
    crate_key: &str,
    out: &mut Vec<(PathBuf, FileInfo)>,
) -> Result<(), ScanError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| ScanError::Io(dir.to_path_buf(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect(root, &path, crate_key, out)?;
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let context = classify(&rel);
        let is_crate_root = rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
        out.push((
            path,
            FileInfo {
                rel_path: rel,
                crate_key: crate_key.to_owned(),
                context,
                is_crate_root,
            },
        ));
    }
    Ok(())
}

/// Classifies a workspace-relative path into a [`FileContext`].
fn classify(rel: &str) -> FileContext {
    let in_dir = |d: &str| rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"));
    if in_dir("tests") || in_dir("benches") {
        FileContext::Test
    } else if in_dir("examples") {
        FileContext::Example
    } else if in_dir("bin") || rel.ends_with("/main.rs") {
        FileContext::Bin
    } else {
        FileContext::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_contexts() {
        assert_eq!(classify("crates/sim/src/event.rs"), FileContext::Lib);
        assert_eq!(classify("crates/bench/src/bin/perfprobe.rs"), FileContext::Bin);
        assert_eq!(classify("crates/conform/src/main.rs"), FileContext::Bin);
        assert_eq!(classify("crates/net/tests/props.rs"), FileContext::Test);
        assert_eq!(classify("crates/bench/benches/event_kernel.rs"), FileContext::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileContext::Example);
        assert_eq!(classify("tests/paper_shapes.rs"), FileContext::Test);
        assert_eq!(classify("src/lib.rs"), FileContext::Lib);
    }
}
