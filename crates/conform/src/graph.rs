//! The workspace call graph: symbol index + path resolution over the
//! [`parse`](crate::parse) items.
//!
//! Resolution is deliberately *name-shaped*, tuned to this workspace's
//! idioms rather than full Rust name resolution:
//!
//! * `Type::method(..)` (uppercase qualifier) resolves to `fn method`
//!   items inside `impl Type`/`impl Tr for Type` blocks, any crate —
//!   workspace type names are unique enough that this is precise;
//!   `Self::method` uses the caller's own impl type;
//! * `recv.method(..)` receiver calls resolve to **every** workspace impl
//!   fn named `method` — an over-approximation (the receiver's type is
//!   unknown), which for reachability analyses errs on the safe side:
//!   a function is never missing from the reachable set, it can only be
//!   conservatively included;
//! * `path::to::helper(..)` / bare `helper(..)` resolve to free functions
//!   named `helper` in any crate: crate and module segments are ignored,
//!   so a call through a re-export (`cloudburst_repro::sla::helper`)
//!   resolves like a direct one;
//! * an alias (`type A = B<..>;`, `use …::b as a;`) resolves like its target;
//! * a reference ([`FnItem::refs`]) resolves the same way into a *value*
//!   edge, which only the dead-code analysis follows. Roots (bins, tests,
//!   initializers) are callers, never targets.
//!
//! Calls that resolve to nothing are std/vendored calls — invisible as
//! edges, but still visible to the taint engine's *syntactic* sink
//! matching, which is what catches `Vec::push` & friends.
//!
//! Functions and edges are held in `(rel_path, line)` order, so every
//! traversal downstream is deterministic and the report byte-stable.

use std::collections::BTreeMap;

use crate::parse::{CallSite, FnItem, ParsedFile};

/// One resolved call edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Index of the callee in [`Graph::fns`].
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// True when the call site itself is inside test-only code.
    pub in_test: bool,
    /// True for a reference site ([`FnItem::refs`]), not a release call.
    pub value: bool,
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// All functions, sorted by `(rel_path, line)`.
    pub fns: Vec<FnItem>,
    /// Outgoing edges per function (same index space as `fns`).
    pub edges: Vec<Vec<Edge>>,
}

impl Graph {
    /// Indices of hot-root functions, in deterministic order.
    pub fn hot_roots(&self) -> Vec<usize> {
        (0..self.fns.len()).filter(|&i| self.fns[i].hot_root).collect()
    }

    /// Incoming edges: for each function, the `(caller, line)` pairs that
    /// call it (test-only call sites and value edges excluded).
    pub fn reverse_edges(&self) -> Vec<Vec<(usize, u32)>> {
        let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.fns.len()];
        for (caller, out) in self.edges.iter().enumerate() {
            for e in out {
                if !e.in_test && !e.value {
                    rev[e.callee].push((caller, e.line));
                }
            }
        }
        rev
    }
}

/// Builds the graph from every parsed file in the analysis corpus.
pub fn build(files: Vec<ParsedFile>) -> Graph {
    let mut fns = Vec::new();
    let mut aliases = Vec::new();
    for file in files {
        fns.extend(file.fns);
        aliases.extend(file.aliases);
    }
    fns.sort_by(|a, b| (&a.rel_path, a.line, &a.name).cmp(&(&b.rel_path, b.line, &b.name)));

    // Symbol index. BTreeMaps keep candidate lists in deterministic order.
    let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if f.in_test || f.root {
            continue; // test fns and roots are never call targets
        }
        match &f.self_ty {
            Some(ty) => {
                typed.entry((ty.as_str(), f.name.as_str())).or_default().push(i);
                methods.entry(f.name.as_str()).or_default().push(i);
            }
            None => free.entry(f.name.as_str()).or_default().push(i),
        }
    }
    // An alias resolves like its target: `A::f` as `B::f`, `a(..)` as `b(..)`.
    for (alias, target) in &aliases {
        let via: Vec<((&str, &str), Vec<usize>)> = typed
            .range((target.as_str(), "")..)
            .take_while(|((ty, _), _)| ty == target)
            .map(|(&(_, name), v)| ((alias.as_str(), name), v.clone()))
            .collect();
        for (key, v) in via {
            typed.entry(key).or_default().extend(v);
        }
        if let Some(v) = free.get(target.as_str()).cloned() {
            free.entry(alias.as_str()).or_default().extend(v);
        }
    }

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
    for (i, f) in fns.iter().enumerate() {
        let mut out: Vec<Edge> = Vec::new();
        let sites = f.calls.iter().map(|c| (c, false)).chain(f.refs.iter().map(|c| (c, true)));
        for (call, value) in sites {
            for &callee in resolve(call, f, &typed, &methods, &free) {
                if callee == i {
                    continue; // self-recursion adds nothing to reachability
                }
                // One edge per callee, of the strongest kind seen first:
                // release call, then reference, then test-only.
                let edge = Edge { callee, line: call.line, in_test: call.in_test, value };
                match out.iter_mut().find(|e| e.callee == callee) {
                    None => out.push(edge),
                    Some(e) if (edge.in_test, edge.value) < (e.in_test, e.value) => *e = edge,
                    Some(_) => {}
                }
            }
        }
        edges[i] = out;
    }
    Graph { fns, edges }
}

/// Empty candidate list, usable as a `&Vec<usize>` return.
const NO_CANDIDATES: &Vec<usize> = &Vec::new();

/// Resolves one call site to candidate callee indices.
fn resolve<'g>(
    call: &'g CallSite,
    caller: &'g FnItem,
    typed: &'g BTreeMap<(&str, &str), Vec<usize>>,
    methods: &'g BTreeMap<&str, Vec<usize>>,
    free: &'g BTreeMap<&str, Vec<usize>>,
) -> &'g Vec<usize> {
    let name = call.name();
    if call.method {
        return methods.get(name).unwrap_or(NO_CANDIDATES);
    }
    if let Some(q) = call.qualifier() {
        if q == "Self" {
            return caller
                .self_ty
                .as_deref()
                .and_then(|ty| typed.get(&(ty, name)))
                .unwrap_or(NO_CANDIDATES);
        }
        if q.starts_with(|c: char| c.is_ascii_uppercase()) {
            return typed.get(&(q, name)).unwrap_or(NO_CANDIDATES);
        }
    }
    free.get(name).unwrap_or(NO_CANDIDATES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn graph_of(files: &[(&str, &str, &str)]) -> Graph {
        build(files.iter().map(|(key, path, src)| parse_file(key, path, src)).collect())
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap_or_else(|| panic!("fn {name}"))
    }

    #[test]
    fn typed_method_and_free_calls_resolve_across_crates() {
        let g = graph_of(&[
            (
                "core",
                "crates/core/src/engine.rs",
                "fn sweep(w: &mut World) { w.index.fcfs_commit(1.0); eq1_slack(0.0, 1.0); \
                 FreeTimeIndex::rebuild(); }",
            ),
            (
                "sched",
                "crates/sched/src/freetime.rs",
                "pub struct FreeTimeIndex; impl FreeTimeIndex { \
                 pub fn fcfs_commit(&mut self, v: f64) -> usize { 0 } \
                 pub fn rebuild() {} }\n\
                 pub fn eq1_slack(now: f64, anchor: f64) -> f64 { now + anchor }",
            ),
        ]);
        let sweep = idx(&g, "sweep");
        let callees: Vec<&str> =
            g.edges[sweep].iter().map(|e| g.fns[e.callee].name.as_str()).collect();
        assert_eq!(callees, vec!["fcfs_commit", "eq1_slack", "rebuild"]);
    }

    #[test]
    fn unresolved_std_calls_produce_no_edges() {
        let g = graph_of(&[(
            "sim",
            "crates/sim/src/a.rs",
            "fn f(v: &mut Vec<u8>) { v.push(1); let s = String::from(\"x\"); }",
        )]);
        assert!(g.edges[idx(&g, "f")].is_empty());
    }

    #[test]
    fn test_only_fns_are_not_targets_and_test_calls_not_reverse_edges() {
        let g = graph_of(&[(
            "sim",
            "crates/sim/src/a.rs",
            "pub fn prod() { helper(); }\n\
             fn helper() {}\n\
             #[cfg(test)]\nmod t { fn oracle() { helper(); } }",
        )]);
        let helper = idx(&g, "helper");
        let rev = g.reverse_edges();
        assert_eq!(rev[helper].len(), 1, "only prod's call counts");
        assert_eq!(g.fns[rev[helper][0].0].name, "prod");
    }

    #[test]
    fn hot_roots_surface_in_order() {
        let g = graph_of(&[(
            "core",
            "crates/core/src/engine.rs",
            "// conform::hot_root\npub fn a() {}\nfn mid() {}\n// conform::hot_root\npub fn b() {}",
        )]);
        let roots: Vec<&str> = g.hot_roots().iter().map(|&i| g.fns[i].name.as_str()).collect();
        assert_eq!(roots, vec!["a", "b"]);
    }
}
