//! Transitive analyses over the call graph: the static half of the
//! repo's three headline invariants, and which library code is live.
//!
//! * `hotpath/alloc-reachable` — no function reachable from a
//!   `// conform::hot_root` decision entry point may hit an allocating
//!   call: `.push(..)`, `.collect(..)`, `.to_vec(..)`, `.reserve(..)`,
//!   `.reserve_exact(..)`, `Vec::new`,
//!   `*::with_capacity`, `Box::new`, `String::from`, `vec![]`,
//!   `format!`. Sink matching is *syntactic* (flagged whether or not the
//!   name also resolves to a workspace function), so a `Vec::push` can
//!   never hide behind a same-named workspace method. Pushes into
//!   recycled scratch are legal at steady state — those files carry
//!   waivers whose justifications name the scratch discipline, and the
//!   counting-allocator tests (`crates/core/tests/alloc_free*.rs`) stay
//!   the dynamic oracle of the claim.
//! * `hotpath/panic-reachable` — nothing reachable from a hot root may
//!   reach `panic!`/`unreachable!`/`assert!`/`assert_eq!`/`assert_ne!`/
//!   `todo!`/`unimplemented!` or `.unwrap()`/`.expect(..)` outside
//!   `#[cfg(test)]`; `expect("<invariant>")` survives only at graph
//!   leaves named in a waiver. (`debug_assert*` is release-dead and
//!   exempt by construction — its arguments parse as references.)
//! * `determinism/taint` — spawning functions in a nondeterministic source
//!   file (one carrying a `determinism/thread-spawn` waiver; today there
//!   is none, so the analysis finds nothing) taint every deterministic-crate
//!   caller that reaches them. A *source* is a fn in such a file whose body
//!   actually fans out (`crossbeam::scope`, `thread::scope`, `thread::spawn`,
//!   `.spawn(..)`)
//!   — pure helpers that merely live in the same file do not taint, so
//!   the waived file can still export innocent config/constructor code. A caller file carrying a `determinism/taint`
//!   waiver is a *justified boundary*: its finding renders waived and the
//!   taint is absorbed there; an unwaived caller propagates the taint
//!   upward, so a refactor that leaks a spawning helper into the
//!   simulated path lights up every hop back to the first justified
//!   boundary.
//!
//! * `dead/unreached-fn` — each library fn that no bin, example, bench,
//!   integration test or other crate's test reaches ([`unreached_findings`]).
//!
//! Every hot-path and taint finding carries a witness path — `root → … →
//! sink`, one `name (file:line)` hop at a time — so a violation is a
//! checkable claim, not a verdict.

use std::collections::{BTreeSet, VecDeque};

use crate::config::Config;
use crate::graph::{Edge, Graph};
use crate::rules::{Finding, DETERMINISTIC_CRATES};

/// Receiver-call names that allocate.
const ALLOC_METHODS: &[&str] = &["collect", "push", "to_vec", "reserve", "reserve_exact"];

/// `Type::fn` path calls that allocate.
const ALLOC_TYPED: &[(&str, &str)] = &[("Box", "new"), ("String", "from"), ("Vec", "new")];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Macros that panic.
const PANIC_MACROS: &[&str] =
    &["assert", "assert_eq", "assert_ne", "panic", "todo", "unimplemented", "unreachable"];

/// Receiver-call names that panic on their failure arm.
const PANIC_METHODS: &[&str] = &["expect", "unwrap"];

/// Runs the hot-path and taint analyses; findings are unsorted and
/// unwaived (the caller sorts and applies waivers).
pub fn analyze(graph: &Graph, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    hot_path_findings(graph, &mut findings);
    determinism_taint_findings(graph, cfg, &mut findings);
    findings
}

/// BFS parents from `roots` over the edges `follow(caller, edge)` admits:
/// `parent[i] = (caller, call line)` on a shortest witness path, roots
/// have no parent. Deterministic because the graph's functions and edge
/// lists are `(path, line)`-ordered.
fn reach_parents(
    graph: &Graph,
    roots: impl IntoIterator<Item = usize>,
    follow: impl Fn(usize, &Edge) -> bool,
) -> Vec<Option<Option<(usize, u32)>>> {
    // Outer Option: reached at all. Inner: parent edge (None for roots).
    let mut parent: Vec<Option<Option<(usize, u32)>>> = vec![None; graph.fns.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for r in roots {
        parent[r] = Some(None);
        queue.push_back(r);
    }
    while let Some(i) = queue.pop_front() {
        for e in &graph.edges[i] {
            if !follow(i, e) || parent[e.callee].is_some() {
                continue;
            }
            parent[e.callee] = Some(Some((i, e.line)));
            queue.push_back(e.callee);
        }
    }
    parent
}

/// Renders the witness chain root → … → `i` as `name (file:line)` hops.
fn witness_to(graph: &Graph, parent: &[Option<Option<(usize, u32)>>], i: usize) -> Vec<String> {
    let mut rev = Vec::new();
    let mut cur = i;
    loop {
        let f = &graph.fns[cur];
        rev.push(format!("{} ({}:{})", f.qualified_name(), f.rel_path, f.line));
        match parent[cur] {
            Some(Some((p, _))) => cur = p,
            _ => break,
        }
    }
    rev.reverse();
    rev
}

/// The two hot-path analyses share one reachability pass, over release
/// calls only.
fn hot_path_findings(graph: &Graph, findings: &mut Vec<Finding>) {
    let roots = graph.hot_roots().into_iter().filter(|&r| !graph.fns[r].in_test);
    let parent = reach_parents(graph, roots, |_, e| !e.in_test && !e.value);
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for i in 0..graph.fns.len() {
        if parent[i].is_none() {
            continue;
        }
        let f = &graph.fns[i];
        let witness = witness_to(graph, &parent, i);
        let root = witness.first().cloned().unwrap_or_default();
        let mut push = |rule: &'static str,
                        line: u32,
                        what: String,
                        seen: &mut BTreeSet<(String, u32, String)>| {
            if seen.insert((f.rel_path.clone(), line, what.clone())) {
                findings.push(Finding {
                    rule,
                    path: f.rel_path.clone(),
                    line,
                    message: format!("{what} in `{}`, reachable from hot root {root}", f.qualified_name()),
                    witness: witness.clone(),
                    waived: None,
                });
            }
        };
        for c in &f.calls {
            if c.in_test {
                continue;
            }
            let name = c.name();
            if c.method && ALLOC_METHODS.contains(&name) {
                push("hotpath/alloc-reachable", c.line, format!("allocating call `.{name}(..)`"), &mut seen);
            }
            if let Some(q) = c.qualifier() {
                if ALLOC_TYPED.contains(&(q, name))
                    || (name == "with_capacity" && q.starts_with(|ch: char| ch.is_ascii_uppercase()))
                {
                    push(
                        "hotpath/alloc-reachable",
                        c.line,
                        format!("allocating call `{q}::{name}`"),
                        &mut seen,
                    );
                }
            }
            if c.method && PANIC_METHODS.contains(&name) {
                push("hotpath/panic-reachable", c.line, format!("panicking call `.{name}(..)`"), &mut seen);
            }
        }
        for m in &f.macros {
            if m.in_test {
                continue;
            }
            if ALLOC_MACROS.contains(&m.name.as_str()) {
                push("hotpath/alloc-reachable", m.line, format!("allocating macro `{}!`", m.name), &mut seen);
            }
            if PANIC_MACROS.contains(&m.name.as_str()) {
                push("hotpath/panic-reachable", m.line, format!("panicking macro `{}!`", m.name), &mut seen);
            }
        }
    }
}

/// `dead/unreached-fn`: a non-test library fn no root reaches. Roots are
/// the fns of bins, examples, benches and integration tests, item-level
/// code, trait-impl methods (called unnamed, so exempt) and *another*
/// crate's `#[cfg(test)]` code; value edges count. A fn only its own
/// crate's unit tests call is flagged: it belongs under `#[cfg(test)]`.
/// Resolution only adds edges, so every finding is truly uncalled.
pub fn unreached_findings(graph: &Graph) -> Vec<Finding> {
    let fns = &graph.fns;
    let roots = (0..fns.len()).filter(|&i| fns[i].root || fns[i].in_test || fns[i].trait_impl);
    // A library test's call reaches only into other crates.
    let parent = reach_parents(graph, roots, |caller, e| {
        let from = &fns[caller];
        !e.in_test || from.root || from.crate_key != fns[e.callee].crate_key
    });
    fns.iter()
        .zip(&parent)
        .filter(|(_, p)| p.is_none())
        .map(|(f, _)| Finding {
            rule: "dead/unreached-fn",
            path: f.rel_path.clone(),
            line: f.line,
            message: format!(
                "`{}` is reached from no bin, example, bench, integration test or other crate's test code — delete it, or move it under `#[cfg(test)]` if its own unit tests need it",
                f.qualified_name()
            ),
            witness: Vec::new(),
            waived: None,
        })
        .collect()
}

/// True when the fn's body fans work out to real threads.
fn spawns(f: &crate::parse::FnItem) -> bool {
    f.calls.iter().any(|c| {
        let n = c.name();
        (n == "spawn" && !c.in_test)
            || (n == "scope" && matches!(c.qualifier(), Some("crossbeam" | "thread")))
    })
}

/// Backward taint from nondeterministic source files, absorbing at
/// justified (`determinism/taint`-waived) boundaries.
fn determinism_taint_findings(graph: &Graph, cfg: &Config, findings: &mut Vec<Finding>) {
    let source_files: BTreeSet<&str> = cfg
        .waivers
        .iter()
        .filter(|w| w.rule == "determinism/thread-spawn")
        .map(|w| w.path.as_str())
        .collect();
    if source_files.is_empty() {
        return;
    }
    let rev = graph.reverse_edges();
    let n = graph.fns.len();
    let mut tainted = vec![false; n];
    // Edge toward the source on the witness path: `(next fn, call line)`.
    let mut origin: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut reported = vec![false; n];
    let mut worklist: BTreeSet<usize> = BTreeSet::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !f.in_test && source_files.contains(f.rel_path.as_str()) && spawns(f) {
            tainted[i] = true;
            worklist.insert(i);
        }
    }
    while let Some(t) = worklist.pop_first() {
        for &(caller, line) in &rev[t] {
            let f = &graph.fns[caller];
            if f.in_test
                || f.root
                || tainted[caller]
                || reported[caller]
                || source_files.contains(f.rel_path.as_str())
                || !DETERMINISTIC_CRATES.contains(&f.crate_key.as_str())
            {
                continue;
            }
            // Witness: caller → t → … → the source-file fn.
            let mut witness = Vec::new();
            witness.push(format!("{} ({}:{})", f.qualified_name(), f.rel_path, f.line));
            let mut cur = t;
            loop {
                let g = &graph.fns[cur];
                witness.push(format!("{} ({}:{})", g.qualified_name(), g.rel_path, g.line));
                match origin[cur] {
                    Some((next, _)) => cur = next,
                    None => break,
                }
            }
            let src_path = &graph.fns[cur].rel_path;
            reported[caller] = true;
            findings.push(Finding {
                rule: "determinism/taint",
                path: f.rel_path.clone(),
                line,
                message: format!(
                    "`{}` reaches the nondeterministic source `{src_path}` via `{}` — a justified determinism/taint waiver must sit on every boundary",
                    f.qualified_name(),
                    graph.fns[t].qualified_name(),
                ),
                witness,
                waived: None,
            });
            let absorbed = cfg
                .waivers
                .iter()
                .any(|w| w.rule == "determinism/taint" && w.matches_site(&f.rel_path, line));
            if !absorbed {
                tainted[caller] = true;
                origin[caller] = Some((t, line));
                worklist.insert(caller);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse as parse_config;
    use crate::graph::build;
    use crate::parse::parse_file;

    fn analyze_files(files: &[(&str, &str, &str)], cfg: &Config) -> Vec<Finding> {
        let parsed = files.iter().map(|(key, path, src)| parse_file(key, path, src)).collect();
        let mut out = analyze(&build(parsed), cfg);
        out.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
        out
    }

    #[test]
    fn alloc_reachable_walks_the_call_chain() {
        let cfg = Config::default();
        let src = "// conform::hot_root\npub fn sweep() { step(); }\n\
                   fn step() { deep(); }\n\
                   fn deep(v: &mut Vec<u8>) { v.push(1); }\n\
                   fn unreachable_alloc() { Vec::<u8>::new(); }";
        let f = analyze_files(&[("core", "crates/core/src/engine.rs", src)], &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hotpath/alloc-reachable");
        assert_eq!(f[0].line, 4);
        assert_eq!(
            f[0].witness,
            vec![
                "sweep (crates/core/src/engine.rs:2)",
                "step (crates/core/src/engine.rs:3)",
                "deep (crates/core/src/engine.rs:4)",
            ],
            "witness names the full root→sink chain"
        );
    }

    /// A reservation allocates as a push does, so it is a sink too.
    #[test]
    fn reservations_are_allocating_calls() {
        let cfg = Config::default();
        let src = "// conform::hot_root\npub fn sweep(v: &mut Vec<u8>, n: usize) {\n\
                   v.reserve(n);\nv.reserve_exact(n);\nv.len();\n}";
        let f = analyze_files(&[("core", "crates/core/src/engine.rs", src)], &cfg);
        let lines: Vec<(&str, u32)> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(
            lines,
            vec![("hotpath/alloc-reachable", 3), ("hotpath/alloc-reachable", 4)],
            "{f:?}"
        );
    }

    #[test]
    fn panic_reachable_flags_macros_and_expect_but_not_debug_assert() {
        let cfg = Config::default();
        let src = "// conform::hot_root\npub fn sweep(x: Option<u8>) { \
                   debug_assert!(x.is_some()); helper(x); }\n\
                   fn helper(x: Option<u8>) { x.expect(\"invariant\"); assert!(true); }";
        let f = analyze_files(&[("core", "crates/core/src/engine.rs", src)], &cfg);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["hotpath/panic-reachable", "hotpath/panic-reachable"], "{f:?}");
    }

    #[test]
    fn cfg_test_sinks_and_callees_are_invisible() {
        let cfg = Config::default();
        let src = "// conform::hot_root\npub fn sweep() { work(); }\nfn work() {}\n\
                   #[cfg(test)]\nmod t { fn oracle() { Vec::<u8>::new(); } }";
        let f = analyze_files(&[("core", "crates/core/src/engine.rs", src)], &cfg);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn taint_crosses_files_and_absorbs_at_waived_boundary() {
        let cfg = parse_config(
            r#"
[[waiver]]
rule = "determinism/thread-spawn"
path = "crates/sim/src/shard.rs"
justification = "order-invariant merge"

[[waiver]]
rule = "determinism/taint"
path = "crates/core/src/engine.rs"
justification = "calls the shard pool behind its order-invariant merge"
"#,
        )
        .expect("cfg parses");
        let files = [
            (
                "sim",
                "crates/sim/src/shard.rs",
                "pub struct ShardPool; impl ShardPool { \
                 pub fn map_ordered_into(&self) { crossbeam::scope(|s| {}); } \
                 pub fn pure_helper() {} }",
            ),
            (
                "core",
                "crates/core/src/engine.rs",
                "pub fn admit(p: &ShardPool) { p.map_ordered_into(); }",
            ),
            ("core", "crates/core/src/timeline.rs", "pub fn outer() { admit_shim(); }"),
        ];
        let f = analyze_files(&files, &cfg);
        // engine.rs crosses the boundary but is waiver-absorbed: one
        // finding, and timeline.rs (which does not reach it) stays clean.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "determinism/taint");
        assert_eq!(f[0].path, "crates/core/src/engine.rs");
        assert_eq!(f[0].witness.len(), 2);
    }

    #[test]
    fn unwaived_taint_propagates_to_the_next_hop() {
        let cfg = parse_config(
            "[[waiver]]\nrule = \"determinism/thread-spawn\"\npath = \"crates/core/src/live.rs\"\n\
             justification = \"the nondeterministic half\"\n",
        )
        .expect("cfg parses");
        let files = [
            ("core", "crates/core/src/live.rs", "pub fn pace() { std::thread::spawn(|| {}); }"),
            ("core", "crates/core/src/engine.rs", "pub fn leak() { pace(); }"),
            ("core", "crates/core/src/timeline.rs", "pub fn caller() { leak(); }"),
            ("bench", "crates/bench/src/run.rs", "pub fn free_crate() { pace(); }"),
        ];
        let f = analyze_files(&files, &cfg);
        // engine.rs leaks (unwaived) so the taint cascades to timeline.rs;
        // bench is not a deterministic crate and stays exempt.
        let paths: Vec<&str> = f.iter().map(|x| x.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["crates/core/src/engine.rs", "crates/core/src/timeline.rs"],
            "{f:?}"
        );
        assert_eq!(f[1].witness.len(), 3, "timeline → leak → pace: {:?}", f[1].witness);
    }
}
