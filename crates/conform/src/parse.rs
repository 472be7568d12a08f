//! A lightweight item parser over the [`lexer`](crate::lexer) stream.
//!
//! The token rules see one line at a time; the graph analyses need to know
//! *which function* a call sits in and *what* it calls. This module
//! extracts exactly that — no types, no expressions, no borrow structure:
//!
//! * `fn` items with their enclosing `impl`/`trait` self type, definition
//!   line, and `#[cfg(test)]` scoping (inherited from the lexer's marks);
//! * call sites inside each body — `recv.method(..)` receiver calls and
//!   `a::B::c(..)` path calls (turbofish skipped), each with its source
//!   line; a `for` loop is recorded as a `next` receiver call;
//! * references that name a fn without a release call (a fn passed as a
//!   value, a call inside `debug_assert!`), kept apart from the calls;
//! * item-level code (`const`/`static` initializers, item macros such as
//!   `thread_local!`) as root items, and `type`/`use … as` renames as
//!   aliases;
//! * macro invocation sites (`name!…`), so `vec![]`, `format!` and the
//!   panic family are visible to the taint engine;
//! * `// conform::hot_root` marker comments: the annotation convention for
//!   decision-loop entry points. A marker binds to the next `fn` item that
//!   starts within [`HOT_ROOT_ATTACH_WINDOW`] lines (attributes and
//!   visibility may sit between), and an unbound marker is reported by the
//!   caller as a finding — a dangling annotation is a lie in the source.
//!
//! `debug_assert*` macro arguments yield references only: they are compiled
//! out of release builds, so nothing inside them can put work or panics on
//! the shipped hot path.

use crate::lexer::{lex, Tok, TokKind};

/// A marker comment binds to a `fn` whose `fn` keyword starts at most this
/// many lines below it (room for `#[inline]`, visibility, one attribute).
pub const HOT_ROOT_ATTACH_WINDOW: u32 = 4;

/// The marker-comment text that declares a decision-loop entry point.
pub const HOT_ROOT_MARKER: &str = "conform::hot_root";

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments as written: `a::B::c(..)` → `["a", "B", "c"]`;
    /// receiver calls have exactly one segment.
    pub path: Vec<String>,
    /// True for `.name(..)` receiver (method) calls.
    pub method: bool,
    /// 1-based source line of the called name.
    pub line: u32,
    /// True when the call sits inside a `#[cfg(test)]`/`#[test]` item.
    pub in_test: bool,
}

impl CallSite {
    /// The called name (last path segment).
    pub fn name(&self) -> &str {
        self.path.last().map_or("", String::as_str)
    }

    /// The segment qualifying the name (`B` in `a::B::c`), if any.
    pub fn qualifier(&self) -> Option<&str> {
        (self.path.len() >= 2).then(|| self.path[self.path.len() - 2].as_str())
    }
}

/// One macro invocation site (`name!…`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MacroSite {
    /// Macro name (without the `!`).
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// True when the invocation sits inside a test item.
    pub in_test: bool,
}

/// One `fn` item with everything the graph builder needs.
#[derive(Clone, Debug, Default)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Self type when defined inside `impl Ty`/`impl Tr for Ty`/`trait Ty`.
    pub self_ty: Option<String>,
    /// Crate key (directory under `crates/`, or `root`).
    pub crate_key: String,
    /// Workspace-relative path of the defining file.
    pub rel_path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the item is test-only.
    pub in_test: bool,
    /// True when a `// conform::hot_root` marker binds to this item.
    pub hot_root: bool,
    /// True inside a trait impl or a trait: dispatch reaches it unnamed.
    pub trait_impl: bool,
    /// True for a bin, example, bench or test fn or an item-level root: a
    /// caller for dead-code reachability, never a call target.
    pub root: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Fns the body names without a release call (values, `debug_assert!`).
    pub refs: Vec<CallSite>,
    /// Macro invocation sites in the body, in source order.
    pub macros: Vec<MacroSite>,
}

impl FnItem {
    /// `Ty::name` or bare `name` — the display form used in witness paths.
    pub fn qualified_name(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Result of parsing one file: its functions plus any hot-root markers
/// that failed to bind to a `fn` (each is the marker's line).
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path of the parsed file.
    pub rel_path: String,
    /// Every `fn` item in the file.
    pub fns: Vec<FnItem>,
    /// Lines of `conform::hot_root` markers no `fn` claimed.
    pub unbound_markers: Vec<u32>,
    /// `(alias, target)` renames from `type A = B<..>;` and `use b as a;`.
    pub aliases: Vec<(String, String)>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "yield",
];

/// Parses one source file into its [`FnItem`]s.
pub fn parse_file(crate_key: &str, rel_path: &str, src: &str) -> ParsedFile {
    let toks = lex(src);
    let markers = marker_lines(src);
    let mut p = Parser {
        toks: &toks,
        crate_key,
        rel_path,
        markers,
        marker_used: Vec::new(),
        fns: Vec::new(),
        aliases: Vec::new(),
    };
    p.marker_used = vec![false; p.markers.len()];
    p.parse_items(0, toks.len(), None, false);
    let unbound = p
        .markers
        .iter()
        .zip(p.marker_used.iter())
        .filter(|(_, used)| !**used)
        .map(|(l, _)| *l)
        .collect();
    ParsedFile { rel_path: rel_path.to_owned(), fns: p.fns, unbound_markers: unbound, aliases: p.aliases }
}

/// 1-based lines of `// conform::hot_root` marker comments. The marker
/// must be the first word of the comment — prose that merely *mentions*
/// the marker (like this doc comment) is not an annotation.
fn marker_lines(src: &str) -> Vec<u32> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim_start();
            t.starts_with("//")
                && t.trim_start_matches('/').trim_start_matches('!').trim_start().starts_with(HOT_ROOT_MARKER)
        })
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

struct Parser<'a> {
    toks: &'a [Tok],
    crate_key: &'a str,
    rel_path: &'a str,
    markers: Vec<u32>,
    marker_used: Vec<bool>,
    fns: Vec<FnItem>,
    aliases: Vec<(String, String)>,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
    }

    /// Walks items in `[start, end)`, descending into `mod`/`impl`/`trait`
    /// bodies; `self_ty` is the enclosing impl/trait type, if any, and
    /// `trait_fns` is true inside a trait impl or a trait definition.
    fn parse_items(&mut self, start: usize, end: usize, self_ty: Option<&str>, trait_fns: bool) {
        let mut i = start;
        while i < end {
            match self.text(i) {
                "fn" if self.is_ident(i + 1) => i = self.parse_fn(i, end, self_ty, trait_fns),
                "impl" => i = self.parse_impl(i, end),
                "trait" if self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_owned();
                    match self.find_body(i + 2, end) {
                        Some((open, close)) => {
                            self.parse_items(open + 1, close, Some(&name), true);
                            i = close + 1;
                        }
                        None => i = end,
                    }
                }
                "mod" if self.is_ident(i + 1) => {
                    if self.text(i + 2) == "{" {
                        match self.match_brace(i + 2, end) {
                            Some(close) => {
                                self.parse_items(i + 3, close, self_ty, trait_fns);
                                i = close + 1;
                            }
                            None => i = end,
                        }
                    } else {
                        i += 2; // `mod name;`
                    }
                }
                // `const N: T = init;` (not a `const` generic): a root.
                "const" | "static"
                    if !matches!(self.text(i.wrapping_sub(1)), "<" | ",")
                        && (self.text(i + 2) == ":" || self.text(i + 3) == ":") =>
                {
                    let semi = self.statement_end(i, end);
                    if let Some(eq) = (i..semi).find(|&j| self.text(j) == "=") {
                        let name = if self.text(i + 2) == ":" { i + 1 } else { i + 2 };
                        self.parse_root(name, eq + 1, semi, self_ty);
                    }
                    i = semi + 1;
                }
                "type" if self_ty.is_none() && self.is_ident(i + 1) => {
                    let semi = self.statement_end(i, end);
                    if let Some(eq) = (i..semi).find(|&j| self.text(j) == "=") {
                        if let (Some(target), _) = self.parse_type_path(eq + 1, semi) {
                            self.aliases.push((self.text(i + 1).to_owned(), target));
                        }
                    }
                    i = semi + 1;
                }
                "use" => {
                    let semi = self.statement_end(i, end);
                    for j in i + 1..semi {
                        if self.text(j) == "as" && self.is_ident(j - 1) && self.is_ident(j + 1) && self.text(j + 1) != "_" {
                            self.aliases.push((self.text(j + 1).to_owned(), self.text(j - 1).to_owned()));
                        }
                    }
                    i = semi + 1;
                }
                // An item macro (`thread_local!`, `macro_rules! m`): a root.
                _ if self.is_ident(i) && self.text(i + 1) == "!" => {
                    let open = if self.is_ident(i + 2) { i + 3 } else { i + 2 };
                    let past = self.skip_macro_args(open, end);
                    if past > open {
                        self.parse_root(i, open + 1, past - 1, self_ty);
                    }
                    i = past.max(i + 2);
                }
                "{" => match self.match_brace(i, end) {
                    // A stray block at item level: skip it whole so its
                    // braces cannot desync the walk.
                    Some(close) => i = close + 1,
                    None => i = end,
                },
                _ => i += 1,
            }
        }
    }

    /// Index of the `;` ending the statement that starts at `from` (the
    /// first `;` outside any bracket group), or `end`.
    fn statement_end(&self, from: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = from;
        while j < end {
            match self.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// Adds a root item named by the token at `name` whose body is the
    /// item-level code in `[start, end)`.
    fn parse_root(&mut self, name: usize, start: usize, end: usize, self_ty: Option<&str>) {
        let mut item = self.item(name, self_ty, false);
        item.root = !item.in_test;
        self.parse_body(start, end, &mut item);
        self.fns.push(item);
    }

    /// A call-free item named by the token at `name`.
    fn item(&self, name: usize, self_ty: Option<&str>, trait_impl: bool) -> FnItem {
        let t = &self.toks[name];
        FnItem {
            name: t.text.clone(),
            self_ty: self_ty.map(str::to_owned),
            crate_key: self.crate_key.to_owned(),
            rel_path: self.rel_path.to_owned(),
            line: t.line,
            in_test: t.in_test,
            trait_impl,
            ..FnItem::default()
        }
    }

    /// Parses `impl … {`: resolves the self type (the path after `for` in
    /// trait impls), then walks the body items under it.
    fn parse_impl(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        j = self.skip_angles(j, end);
        let (mut ty, mut j) = self.parse_type_path(j, end);
        let mut trait_impl = false;
        // Scan to the body `{`, re-resolving after `for` (trait impls) and
        // skipping `where` clauses (brace-free by grammar).
        while j < end && self.text(j) != "{" {
            if self.text(j) == "for" {
                let (t2, j2) = self.parse_type_path(j + 1, end);
                ty = t2.or(ty);
                trait_impl = true;
                j = j2;
                continue;
            }
            if self.text(j) == "<" {
                j = self.skip_angles(j, end);
                continue;
            }
            j += 1;
        }
        match self.match_brace(j, end) {
            Some(close) => {
                let ty = ty.unwrap_or_default();
                let self_ty = if ty.is_empty() { None } else { Some(ty.as_str()) };
                self.parse_items(j + 1, close, self_ty, trait_impl);
                close + 1
            }
            None => end,
        }
    }

    /// Parses a type path (`&mut a::B<T>` → `B`), returning the final type
    /// name and the index just past the path.
    fn parse_type_path(&self, mut j: usize, end: usize) -> (Option<String>, usize) {
        while j < end
            && (matches!(self.text(j), "&" | "*" | "(" | ")" | "!")
                || matches!(self.text(j), "mut" | "dyn" | "const")
                || self.toks[j].kind == TokKind::Lifetime)
        {
            j += 1;
        }
        let mut last: Option<String> = None;
        while j < end && self.is_ident(j) && !matches!(self.text(j), "for" | "where") {
            last = Some(self.text(j).to_owned());
            j += 1;
            if self.text(j) == "<" {
                j = self.skip_angles(j, end);
            }
            if self.text(j) == "::" {
                j += 1;
                continue;
            }
            break;
        }
        (last, j)
    }

    /// Skips a balanced `<…>` group starting at `j` (or returns `j` when
    /// not at `<`). Bails at `{`/`;` so malformed input cannot run away.
    fn skip_angles(&self, mut j: usize, end: usize) -> usize {
        if self.text(j) != "<" {
            return j;
        }
        let mut depth = 0i32;
        while j < end {
            match self.text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                "{" | ";" => return j,
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Finds the next `{ … }` body from `from`, stopping at `;` (a
    /// body-less declaration). Returns (open, close) token indices.
    fn find_body(&self, from: usize, end: usize) -> Option<(usize, usize)> {
        let mut j = from;
        while j < end {
            match self.text(j) {
                "{" => return self.match_brace(j, end).map(|c| (j, c)),
                ";" => return None,
                "<" => {
                    j = self.skip_angles(j, end);
                    continue;
                }
                _ => j += 1,
            }
        }
        None
    }

    /// Index of the `}` matching the `{` at `open`.
    fn match_brace(&self, open: usize, end: usize) -> Option<usize> {
        if self.text(open) != "{" {
            return None;
        }
        let mut depth = 0i32;
        let mut j = open;
        while j < end {
            match self.text(j) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Parses the `fn` item starting at token `i` (the `fn` keyword) and
    /// returns the index just past it.
    fn parse_fn(&mut self, i: usize, end: usize, self_ty: Option<&str>, trait_fn: bool) -> usize {
        let hot_root = self.claim_marker(self.toks[i].line);
        let Some((open, close)) = self.find_body(i + 2, end) else {
            // Declaration only (trait method signature): skip past it.
            let mut j = i + 2;
            while j < end && self.text(j) != ";" && self.text(j) != "{" {
                j += 1;
            }
            return j + 1;
        };
        let mut item = FnItem { hot_root, ..self.item(i + 1, self_ty, trait_fn) };
        self.parse_body(open + 1, close, &mut item);
        self.fns.push(item);
        close + 1
    }

    /// Marks the closest unused marker within the attach window as used.
    fn claim_marker(&mut self, fn_line: u32) -> bool {
        for (k, m) in self.markers.iter().enumerate() {
            if !self.marker_used[k] && *m < fn_line && fn_line - *m <= HOT_ROOT_ATTACH_WINDOW {
                self.marker_used[k] = true;
                return true;
            }
        }
        false
    }

    /// Collects call and macro sites in `[start, end)`, recursing into
    /// nested items so their bodies are attributed to themselves.
    fn parse_body(&mut self, start: usize, end: usize, item: &mut FnItem) {
        let mut k = start;
        while k < end {
            match self.text(k) {
                "fn" if self.is_ident(k + 1) => {
                    let ty = item.self_ty.clone();
                    k = self.parse_fn(k, end, ty.as_deref(), false);
                    continue;
                }
                "impl" => {
                    k = self.parse_impl(k, end);
                    continue;
                }
                // A `for` loop calls its iterator's `next` once per turn:
                // record it as a receiver call, so a workspace iterator's
                // body stays in its caller's cone. `for<'a>` is a bound.
                "for" if self.text(k + 1) != "<" => {
                    let (line, in_test) = (self.toks[k].line, self.toks[k].in_test);
                    let path = vec!["next".to_owned()];
                    item.calls.push(CallSite { path, method: true, line, in_test });
                    k += 1;
                    continue;
                }
                _ => {}
            }
            let t = &self.toks[k];
            if t.kind != TokKind::Ident {
                k += 1;
                continue;
            }
            // Macro invocation.
            if self.text(k + 1) == "!" && self.is_macro_head(k) {
                let name = t.text.clone();
                let in_test = t.in_test;
                let line = t.line;
                // `debug_assert*` bodies vanish from release builds: what
                // they call is a reference, so nothing inside them taints.
                if name.starts_with("debug_assert") {
                    let past = self.skip_macro_args(k + 2, end);
                    let mut args = self.item(k, None, false);
                    self.parse_body(k + 2, past, &mut args);
                    item.refs.extend(args.calls.into_iter().chain(args.refs));
                    k = past;
                } else {
                    item.macros.push(MacroSite { name, line, in_test });
                    k += 2;
                }
                continue;
            }
            // Call site: ident (turbofish?) `(`.
            let after = self.after_turbofish(k + 1, end);
            let keyword = NON_CALL_KEYWORDS.contains(&t.text.as_str());
            if self.text(after) == "(" && !keyword {
                let (path, head, method) = self.call_path(k);
                item.calls.push(CallSite { path, method, line: self.toks[head].line, in_test: t.in_test });
            } else if !keyword
                && t.text.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                && !matches!(self.text(after), "::" | ":")
            {
                // A snake_case name, not called, not a path prefix or a
                // field (`.name` parses as a receiver path): maybe a fn value.
                let (path, head, method) = self.call_path(k);
                if !method {
                    item.refs.push(CallSite { path, method, line: self.toks[head].line, in_test: t.in_test });
                }
            }
            k += 1;
        }
    }

    /// True when the ident at `k` heads a macro invocation rather than a
    /// `!=` comparison or a `!x` negation (`a != b` lexes as `a`, `!`, `=`).
    fn is_macro_head(&self, k: usize) -> bool {
        self.text(k + 2) != "="
    }

    /// Skips the delimiter group right after a macro's `!`, if any.
    fn skip_macro_args(&self, j: usize, end: usize) -> usize {
        let (open, close) = match self.text(j) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return j,
        };
        let mut depth = 0i32;
        let mut k = j;
        while k < end {
            let t = self.text(k);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        k
    }

    /// `j` just past an ident: skips a `::<…>` turbofish, returning the
    /// index of the token that decides call-ness.
    fn after_turbofish(&self, j: usize, end: usize) -> usize {
        if self.text(j) == "::" && self.text(j + 1) == "<" {
            return self.skip_angles(j + 1, end);
        }
        j
    }

    /// Builds the call path ending at the ident `k`, walking `ident::`
    /// pairs backwards (skipping interior `::<…>` turbofish groups, so
    /// `Vec::<f64>::with_capacity` keeps its `Vec` qualifier); reports
    /// whether a `.` makes it a receiver call.
    fn call_path(&self, k: usize) -> (Vec<String>, usize, bool) {
        let mut head = k;
        let mut segs = vec![self.toks[k].text.clone()];
        while head >= 2 && self.text(head - 1) == "::" {
            let mut j = head - 2;
            if self.text(j) == ">" {
                // Walk the `<…>` group backwards to its opening `<`.
                let mut depth = 0i32;
                loop {
                    match self.text(j) {
                        ">" => depth += 1,
                        "<" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                if self.text(j) != "<" || j == 0 {
                    break;
                }
                j -= 1;
                if self.text(j) == "::" {
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
            }
            if !self.is_ident(j) {
                break;
            }
            head = j;
            segs.insert(0, self.toks[j].text.clone());
        }
        let method = head >= 1 && self.text(head - 1) == ".";
        (segs, head, method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("sim", "crates/sim/src/sample.rs", src)
    }

    fn find<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("fn {name} parsed"))
    }

    #[test]
    fn fns_with_impl_context_and_calls() {
        let src = r#"
            pub struct Pool;
            impl Pool {
                pub fn drain(&mut self, v: &[f64]) -> f64 {
                    self.refresh();
                    let lvl = fluid_fill_level(v, 1.0);
                    cloudburst_sched::eq1_slack(lvl, 2.0);
                    Vec::<f64>::with_capacity(8);
                    lvl
                }
                fn refresh(&mut self) {}
            }
            fn free_standing() { helper(3); }
        "#;
        let p = parse(src);
        assert_eq!(p.fns.len(), 3);
        let drain = find(&p, "drain");
        assert_eq!(drain.self_ty.as_deref(), Some("Pool"));
        let names: Vec<&str> = drain.calls.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["refresh", "fluid_fill_level", "eq1_slack", "with_capacity"]);
        assert!(drain.calls[0].method, "self.refresh() is a receiver call");
        assert!(!drain.calls[1].method);
        assert_eq!(drain.calls[2].path, vec!["cloudburst_sched", "eq1_slack"]);
        assert_eq!(drain.calls[3].qualifier(), Some("Vec"));
        assert_eq!(find(&p, "free_standing").self_ty, None);
    }

    #[test]
    fn trait_impls_resolve_the_for_type() {
        let src = "impl<T: Copy> Default for Ring<T> { fn default() -> Self { Ring::new() } }";
        let p = parse(src);
        let d = find(&p, "default");
        assert_eq!(d.self_ty.as_deref(), Some("Ring"));
        assert_eq!(d.calls[0].path, vec!["Ring", "new"]);
    }

    #[test]
    fn hot_root_markers_bind_through_attributes() {
        let src = "// conform::hot_root — decision entry\n#[inline]\npub fn sweep() { step(); }\n\
                   fn unmarked() {}\n// conform::hot_root\nstruct NotAFn;\n";
        let p = parse(src);
        assert!(find(&p, "sweep").hot_root);
        assert!(!find(&p, "unmarked").hot_root);
        assert_eq!(p.unbound_markers, vec![5], "marker above a struct dangles");
    }

    #[test]
    fn macros_recorded_and_debug_assert_args_skipped() {
        let src = r#"
            fn f(v: &mut Vec<u32>) {
                debug_assert!(v.iter().map(|x| alloc_heavy(*x)).count() > 0);
                assert!(v.len() < 10, "cap");
                v.push(1);
                let s = format!("x{}", 1);
                if v.len() != 2 { panic!("boom"); }
            }
        "#;
        let p = parse(src);
        let f = find(&p, "f");
        let macros: Vec<&str> = f.macros.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(macros, vec!["assert", "format", "panic"]);
        assert!(
            f.calls.iter().all(|c| c.name() != "alloc_heavy"),
            "debug_assert args are release-dead and must not produce call sites"
        );
        assert!(f.calls.iter().any(|c| c.name() == "push" && c.method));
        // `v.len() != 2` must not read as a `len!` macro.
        assert!(f.calls.iter().filter(|c| c.name() == "len").count() >= 2);
    }

    #[test]
    fn nested_fns_own_their_bodies() {
        let src = "fn outer() { inner_call(); fn nested() { deep_call(); } outer_call(); }";
        let p = parse(src);
        let outer = find(&p, "outer");
        let names: Vec<&str> = outer.calls.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["inner_call", "outer_call"]);
        assert_eq!(find(&p, "nested").calls[0].name(), "deep_call");
    }

    #[test]
    fn for_loops_call_their_iterators_next() {
        let src = "fn f(s: Stream) {\n  for job in s { admit(job); }\n  let g: Box<dyn for<'a> Tr<'a>> = b;\n}";
        let p = parse(src);
        let f = find(&p, "f");
        let calls: Vec<_> = f.calls.iter().map(|c| (c.name(), c.method, c.line)).collect();
        assert_eq!(calls, vec![("next", true, 2), ("admit", false, 2)]);
    }

    #[test]
    fn values_initializers_aliases_and_trait_impls() {
        let src = "use a::b as c;\ntype Alias = Real<u8>;\nconst N: u64 = seed(2);\n\
                   fn f(s: &Sim) {\n  s.schedule_at(0, on_tick);\n  debug_assert!(check(s.now));\n  x.map(Self::g);\n}\n\
                   impl Default for W { fn default() -> W { W } }\nimpl W { fn h() {} }";
        let p = parse(src);
        assert_eq!(p.aliases, vec![("c".to_owned(), "b".to_owned()), ("Alias".to_owned(), "Real".to_owned())]);
        let n = find(&p, "N");
        assert!(n.root && n.calls[0].name() == "seed", "the initializer is a root item");
        let f = find(&p, "f");
        let calls: Vec<&str> = f.calls.iter().map(|c| c.name()).collect();
        assert_eq!(calls, vec!["schedule_at", "map"], "references are not calls");
        let refs: Vec<&str> = f.refs.iter().map(|c| c.name()).collect();
        assert_eq!(refs, vec!["s", "on_tick", "check", "s", "x", "g"], "fields (`.now`) are not references");
        assert!(find(&p, "default").trait_impl && !find(&p, "h").trait_impl);
    }

    #[test]
    fn cfg_test_items_mark_their_calls() {
        let src = "fn prod() { go(); }\n#[cfg(test)]\nmod t {\n  #[test]\n  fn t1() { check(); }\n}";
        let p = parse(src);
        assert!(!find(&p, "prod").in_test);
        let t1 = find(&p, "t1");
        assert!(t1.in_test && t1.calls[0].in_test);
    }

    #[test]
    fn turbofish_collect_is_one_call() {
        let src = "fn f(v: &[u8]) { let w = v.iter().copied().collect::<Vec<u8>>(); }";
        let p = parse(src);
        let names: Vec<&str> = find(&p, "f").calls.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["iter", "copied", "collect"]);
    }
}
