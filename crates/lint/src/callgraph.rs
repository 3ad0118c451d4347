//! Workspace-wide, over-approximated call graph, built from the lexer
//! output alone (no type checker, no macro expansion). Every `fn` item
//! across every scanned file becomes a node; call sites resolve by
//! name, disambiguated where possible by *receiver type hints* — the
//! set of type identifiers mentioned in the receiver's declaration
//! (field type, `let` annotation, parameter type, closure parameter
//! annotation, or the return type of the call that produced it). When
//! the receiver cannot be typed (an unannotated closure parameter, say),
//! a method call falls back to **merging every same-name, same-arity
//! method in the workspace** — over-approximation by design: a false
//! edge costs one justified `allow` downstream, a missing edge is a
//! silent soundness hole in the lock-set analysis built on top
//! (see DESIGN.md, "Interprocedural analysis", for the limits:
//! calls through fn values/closures and macro-generated items are
//! invisible).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Kind, Lexed, Tok};
use crate::scan::{self, FnSpan};

/// One analyzed file — the unit the graph is built over.
pub struct Unit {
    pub rel: String,
    pub lx: Lexed,
    pub fns: Vec<FnSpan>,
    pub attrs: Vec<bool>,
}

/// Lexes and scans one file into a graph unit.
pub fn unit(rel: &str, src: &str) -> Unit {
    let lx = crate::lexer::lex(src);
    let fns = scan::fns(&lx);
    let attrs = scan::attr_lines(&lx);
    Unit { rel: rel.to_string(), lx, fns, attrs }
}

/// One `fn` item with everything resolution needs.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index into the unit slice the graph was built from.
    pub unit: usize,
    pub span: FnSpan,
    pub name: String,
    /// Enclosing `impl`/`trait` context: `impl T` → `[T]`,
    /// `impl Tr for T` → `[T, Tr]`, `trait Tr` → `[Tr]`, free → `[]`.
    pub impl_types: Vec<String>,
    pub has_self: bool,
    /// Number of non-`self` parameters (used to prune candidates).
    pub arity: usize,
    /// Parameter name → type-identifier hints.
    pub params: Vec<(String, BTreeSet<String>)>,
    /// Type identifiers in the return type (`Self` resolved).
    pub ret_hints: BTreeSet<String>,
    /// Inside `#[cfg(test)]` / `#[test]` / a `tests/` tree.
    pub is_test: bool,
    pub line: u32,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index (in the unit) of the callee name.
    pub tok: usize,
    pub line: u32,
    pub name: String,
    /// Resolved candidate fn ids; empty = external (std / shims).
    pub callees: Vec<usize>,
    /// True when an untyped receiver forced the merge-all fallback.
    pub merged: bool,
}

pub struct Graph {
    pub fns: Vec<FnInfo>,
    /// Per-fn call sites, in token order.
    pub calls: Vec<Vec<CallSite>>,
    /// Per-unit fn ids, in span order.
    pub per_unit: Vec<Vec<usize>>,
    /// Struct field name → type-identifier hints (merged across all
    /// structs — over-approximate, like everything here).
    pub field_hints: BTreeMap<String, BTreeSet<String>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Guard types whose presence in a return type marks a call as
/// *guard-returning* (the caller holds a lock region afterwards).
pub const GUARD_TYPES: [&str; 3] = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Keywords that look like `ident (` but are not calls.
const KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "as", "in", "where", "impl", "trait", "struct", "enum", "mod", "use", "pub",
];

/// Chain methods that pass their receiver's hints through unchanged
/// (wrappers/containers whose declared-type ident set already includes
/// the element type).
const PASS_THROUGH: [&str; 16] = [
    "lock",
    "read",
    "write",
    "expect",
    "unwrap",
    "as_ref",
    "as_mut",
    "as_deref",
    "as_slice",
    "borrow",
    "borrow_mut",
    "clone",
    "iter",
    "iter_mut",
    "get",
    "get_mut",
];

impl Graph {
    pub fn build(units: &[Unit]) -> Graph {
        let mut fns = Vec::new();
        let mut per_unit = vec![Vec::new(); units.len()];
        let mut field_hints: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (u, unit) in units.iter().enumerate() {
            let impls = impl_contexts(&unit.lx);
            let tests = test_ranges(&unit.lx);
            let tree_test = unit.rel.contains("/tests/") || unit.rel.ends_with("build.rs");
            for f in &unit.fns {
                let ctx = impls
                    .iter()
                    .filter(|(open, close, _)| *open < f.start && f.end <= *close + 1)
                    .max_by_key(|(open, _, _)| *open)
                    .map(|(_, _, tys)| tys.clone())
                    .unwrap_or_default();
                let sig = signature(&unit.lx.toks, f, &ctx);
                let id = fns.len();
                per_unit[u].push(id);
                fns.push(FnInfo {
                    unit: u,
                    span: f.clone(),
                    name: f.name.clone(),
                    impl_types: ctx,
                    has_self: sig.has_self,
                    arity: sig.arity,
                    params: sig.params,
                    ret_hints: sig.ret,
                    is_test: tree_test || tests.iter().any(|&(s, e)| s <= f.start && f.start < e),
                    line: unit.lx.toks[f.start].line,
                });
            }
            collect_fields(&unit.lx, &mut field_hints);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            // Bodyless trait decls carry no effects and test fns are
            // never called from production code — neither is a
            // resolution candidate.
            if f.span.body != usize::MAX && !f.is_test {
                by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
        let mut g = Graph { calls: Vec::new(), per_unit, field_hints, by_name, fns };
        g.calls = (0..g.fns.len()).map(|id| g.build_calls(units, id)).collect();
        g
    }

    /// `Type::name` (first impl type) or bare `name`.
    pub fn qname(&self, id: usize) -> String {
        let f = &self.fns[id];
        match f.impl_types.first() {
            Some(t) => format!("{t}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Finds a fn by qualified name (`Type::name` or `name`); for
    /// tests — first match wins.
    pub fn find(&self, qname: &str) -> Option<usize> {
        let (ty, name) = match qname.rsplit_once("::") {
            Some((t, n)) => (Some(t), n),
            None => (None, qname),
        };
        (0..self.fns.len()).find(|&id| {
            let f = &self.fns[id];
            f.name == name
                && match ty {
                    Some(t) => f.impl_types.iter().any(|it| it == t),
                    None => f.impl_types.is_empty(),
                }
        })
    }

    /// Resolved edges of one fn as `(callee qname, line, merged)`,
    /// unresolved (external) sites omitted — the shape the call-graph
    /// fixture tests assert against.
    pub fn edges(&self, id: usize) -> Vec<(String, u32, bool)> {
        let mut out = Vec::new();
        for c in &self.calls[id] {
            for &callee in &c.callees {
                out.push((self.qname(callee), c.line, c.merged));
            }
        }
        out
    }

    fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All call sites of fn `id`, resolved. Nested fn items inside the
    /// body are skipped (they are their own nodes).
    fn build_calls(&self, units: &[Unit], id: usize) -> Vec<CallSite> {
        let f = &self.fns[id];
        let unit = &units[f.unit];
        let t = &unit.lx.toks;
        if f.span.body == usize::MAX {
            return Vec::new();
        }
        let nested: Vec<(usize, usize)> = self.per_unit[f.unit]
            .iter()
            .map(|&g| &self.fns[g].span)
            .filter(|g| g.start > f.span.start && g.end <= f.span.end)
            .map(|g| (g.start, g.end))
            .collect();
        let vars = self.local_vars(units, id);
        let mut out = Vec::new();
        let mut k = f.span.body;
        while k < f.span.end.min(t.len()) {
            if let Some(&(_, e)) = nested.iter().find(|&&(s, _)| s == k) {
                k = e;
                continue;
            }
            if t[k].kind == Kind::Ident
                && scan::is_at(t, k + 1, "(")
                && !KEYWORDS.contains(&t[k].text.as_str())
                && !(k > 0 && scan::is(&t[k - 1], "!"))
                && !(k > 0 && scan::is(&t[k - 1], "fn"))
            {
                let name = t[k].text.clone();
                let argc = count_args(t, k + 1);
                let (callees, merged) = if k > 0 && scan::is(&t[k - 1], ".") {
                    let hints = self.chain_hints(units, id, &vars, k - 1);
                    self.resolve_method(&name, argc, &hints)
                } else if k >= 3
                    && scan::is(&t[k - 1], ":")
                    && scan::is(&t[k - 2], ":")
                    && t[k - 3].kind == Kind::Ident
                {
                    (self.resolve_path(units, id, &t[k - 3].text, &name, argc), false)
                } else {
                    (self.resolve_free(f.unit, &name, argc), false)
                };
                out.push(CallSite { tok: k, line: t[k].line, name, callees, merged });
            }
            k += 1;
        }
        out
    }

    /// Typed local bindings of fn `id`: parameters, then `let`
    /// declarations and annotated closure parameters in token order
    /// (last binding before a use wins).
    fn local_vars(&self, units: &[Unit], id: usize) -> Vec<(usize, String, BTreeSet<String>)> {
        let f = &self.fns[id];
        let t = &units[f.unit].lx.toks;
        let mut vars: Vec<(usize, String, BTreeSet<String>)> =
            f.params.iter().map(|(n, h)| (f.span.body, n.clone(), h.clone())).collect();
        if f.span.body == usize::MAX {
            return vars;
        }
        let mut k = f.span.body;
        while k < f.span.end.min(t.len()) {
            if scan::is(&t[k], "let") {
                let mut j = k + 1;
                let mut names = Vec::new();
                if scan::is_at(t, j, "mut") {
                    j += 1;
                }
                if scan::is_at(t, j, "(") {
                    // `let (a, b) = …` — every name shares the hints.
                    let close = matching_close(t, j);
                    for tok in &t[j + 1..close.min(t.len())] {
                        if tok.kind == Kind::Ident && tok.text != "mut" {
                            names.push(tok.text.clone());
                        }
                    }
                    j = close + 1;
                } else if t.get(j).is_some_and(|x| x.kind == Kind::Ident) {
                    names.push(t[j].text.clone());
                    j += 1;
                }
                if !names.is_empty() {
                    let hints = if scan::is_at(t, j, ":") {
                        // Explicit annotation: every ident in the type.
                        let mut h = BTreeSet::new();
                        let mut depth = 0i32;
                        let mut m = j + 1;
                        while m < t.len() {
                            match t[m].text.as_str() {
                                "(" | "[" => depth += 1,
                                ")" | "]" => depth -= 1,
                                "=" | ";" if depth == 0 => break,
                                _ => {}
                            }
                            if t[m].kind == Kind::Ident {
                                h.insert(t[m].text.clone());
                            }
                            m += 1;
                        }
                        h
                    } else if scan::is_at(t, j, "=") {
                        self.init_hints(units, id, &vars, j + 1)
                    } else {
                        BTreeSet::new()
                    };
                    for n in names {
                        vars.push((k, n, hints.clone()));
                    }
                }
            } else if let Some((params, close)) = closure_params(t, k) {
                vars.extend(params.into_iter().map(|(n, h)| (k, n, h)));
                k = close;
            }
            k += 1;
        }
        vars
    }

    /// Type hints of an initializer expression starting at `start`:
    /// typed by its **last top-level method call** (chained through the
    /// receiver machinery), or by its head call / variable.
    fn init_hints(
        &self,
        units: &[Unit],
        id: usize,
        vars: &[(usize, String, BTreeSet<String>)],
        start: usize,
    ) -> BTreeSet<String> {
        let t = &units[self.fns[id].unit].lx.toks;
        let mut depth = 0i32;
        let mut last_dot: Option<(usize, String, usize)> = None; // (dot, method, argc)
        let mut m = start;
        while m < t.len() {
            match t[m].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" if depth == 0 => break,
                "." if depth == 0
                    && t.get(m + 1).is_some_and(|x| x.kind == Kind::Ident)
                    && scan::is_at(t, m + 2, "(") =>
                {
                    last_dot = Some((m, t[m + 1].text.clone(), count_args(t, m + 2)));
                }
                _ => {}
            }
            m += 1;
        }
        if let Some((dot, method, argc)) = last_dot {
            let recv = self.chain_hints(units, id, vars, dot);
            return self.apply_method(&method, argc, &recv);
        }
        // No chain: `Type::ctor(…)`, `free(…)`, or a (possibly
        // borrowed) variable / field chain.
        let mut s0 = start;
        while t.get(s0).is_some_and(|x| matches!(x.text.as_str(), "&" | "*" | "mut")) {
            s0 += 1;
        }
        if t.get(s0).is_some_and(|x| x.kind == Kind::Ident) {
            let head = &t[s0].text;
            if scan::is_at(t, s0 + 1, ":")
                && scan::is_at(t, s0 + 2, ":")
                && t.get(s0 + 3).is_some_and(|x| x.kind == Kind::Ident)
                && scan::is_at(t, s0 + 4, "(")
            {
                let m = &t[s0 + 3].text;
                if m.starts_with("new") || m.starts_with("with") || m == "default" || m == "from" {
                    return [head.clone()].into();
                }
                let cands = self.resolve_path(units, id, head, m, count_args(t, s0 + 4));
                return self.ret_union(&cands);
            }
            if scan::is_at(t, s0 + 1, "(") {
                let cands = self.resolve_free(self.fns[id].unit, head, count_args(t, s0 + 1));
                return self.ret_union(&cands);
            }
            // `&self.clusters[c].members`-style field chains: start
            // from the base's hints and fold field segments through
            // the field-hint table (indexing passes through).
            let base = if head == "self" {
                Some(self.fns[id].impl_types.iter().cloned().collect::<BTreeSet<_>>())
            } else {
                vars.iter().rev().find(|(_, n, _)| n == head).map(|(_, _, h)| h.clone())
            };
            if let Some(mut hints) = base {
                let mut m = s0 + 1;
                loop {
                    if scan::is_at(t, m, "[") {
                        m = matching_close(t, m) + 1;
                    } else if scan::is_at(t, m, ".")
                        && t.get(m + 1).is_some_and(|x| x.kind == Kind::Ident)
                        && !scan::is_at(t, m + 2, "(")
                    {
                        hints = self.field_hints.get(&t[m + 1].text).cloned().unwrap_or_default();
                        m += 2;
                    } else {
                        break;
                    }
                }
                return hints;
            }
        }
        BTreeSet::new()
    }

    /// Types the receiver chain ending at the `.` token `dot` by
    /// walking it back to its base (variable, `self`, call or path),
    /// then folding field/method segments forward through the hint
    /// tables. Empty = unknown.
    fn chain_hints(
        &self,
        units: &[Unit],
        id: usize,
        vars: &[(usize, String, BTreeSet<String>)],
        dot: usize,
    ) -> BTreeSet<String> {
        let f = &self.fns[id];
        let t = &units[f.unit].lx.toks;
        // Walk backwards collecting segments innermost-last.
        enum Seg {
            Field(String),
            Method(String, usize),
        }
        let mut segs: Vec<Seg> = Vec::new();
        let mut p = dot as i64 - 1;
        let base: Option<BTreeSet<String>> = loop {
            if p < 0 {
                break None;
            }
            let pu = p as usize;
            match t[pu].text.as_str() {
                "]" => p = matching_open(t, pu) as i64 - 1, // index — pass through
                ")" => {
                    let open = matching_open(t, pu);
                    if open == 0 || t[open - 1].kind != Kind::Ident {
                        break None; // parenthesized expr — unknown
                    }
                    let name = t[open - 1].text.clone();
                    let argc = count_args(t, open);
                    if open >= 2 && scan::is(&t[open - 2], ".") {
                        segs.push(Seg::Method(name, argc));
                        p = open as i64 - 3;
                        continue;
                    }
                    if open >= 4
                        && scan::is(&t[open - 2], ":")
                        && scan::is(&t[open - 3], ":")
                        && t[open - 4].kind == Kind::Ident
                    {
                        let cands = self.resolve_path(units, id, &t[open - 4].text, &name, argc);
                        break Some(self.ret_union(&cands));
                    }
                    let cands = self.resolve_free(f.unit, &name, argc);
                    break Some(self.ret_union(&cands));
                }
                _ if t[pu].kind == Kind::Ident => {
                    if pu >= 1 && scan::is(&t[pu - 1], ".") {
                        segs.push(Seg::Field(t[pu].text.clone()));
                        p = pu as i64 - 2;
                        continue;
                    }
                    if t[pu].text == "self" {
                        break Some(f.impl_types.iter().cloned().collect());
                    }
                    break Some(
                        vars.iter()
                            .rev()
                            .find(|(at, n, _)| *at <= pu && n == &t[pu].text)
                            .map(|(_, _, h)| h.clone())
                            .unwrap_or_default(),
                    );
                }
                _ => break None,
            }
        };
        let mut hints = base.unwrap_or_default();
        for seg in segs.into_iter().rev() {
            hints = match seg {
                Seg::Field(name) => self.field_hints.get(&name).cloned().unwrap_or_default(),
                Seg::Method(name, argc) => self.apply_method(&name, argc, &hints),
            };
        }
        hints
    }

    /// Hints after calling method `name` on a receiver with `hints`.
    fn apply_method(&self, name: &str, argc: usize, hints: &BTreeSet<String>) -> BTreeSet<String> {
        if PASS_THROUGH.contains(&name) {
            return hints.clone();
        }
        let (cands, _) = self.resolve_method(name, argc, hints);
        self.ret_union(&cands)
    }

    fn ret_union(&self, cands: &[usize]) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for &c in cands {
            out.extend(self.fns[c].ret_hints.iter().cloned());
        }
        out
    }

    /// Method resolution: same-name same-arity methods, filtered by
    /// receiver hints when available. Typed receiver with no workspace
    /// match → external. Untyped receiver → merge-all fallback.
    fn resolve_method(
        &self,
        name: &str,
        argc: usize,
        hints: &BTreeSet<String>,
    ) -> (Vec<usize>, bool) {
        let cands: Vec<usize> = self
            .candidates(name)
            .iter()
            .copied()
            .filter(|&c| self.fns[c].has_self && self.fns[c].arity == argc)
            .collect();
        if hints.is_empty() {
            let merged = !cands.is_empty();
            return (cands, merged);
        }
        let typed: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| self.fns[c].impl_types.iter().any(|t| hints.contains(t)))
            .collect();
        (typed, false)
    }

    /// `Qual::name(…)`: `Self`/type-qualified → that type's fns;
    /// lowercase qualifier → free fns, preferring a `qual.rs` /
    /// `qual/` module match.
    fn resolve_path(
        &self,
        units: &[Unit],
        id: usize,
        qual: &str,
        name: &str,
        argc: usize,
    ) -> Vec<usize> {
        let upper = qual.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        if qual == "Self" || upper {
            let tys: Vec<&str> = if qual == "Self" {
                self.fns[id].impl_types.iter().map(|s| s.as_str()).collect()
            } else {
                vec![qual]
            };
            return self
                .candidates(name)
                .iter()
                .copied()
                .filter(|&c| {
                    let f = &self.fns[c];
                    f.impl_types.iter().any(|t| tys.contains(&t.as_str()))
                        && (f.arity == argc || (f.has_self && f.arity + 1 == argc))
                })
                .collect();
        }
        let free: Vec<usize> = self
            .candidates(name)
            .iter()
            .copied()
            .filter(|&c| self.fns[c].impl_types.is_empty() && self.fns[c].arity == argc)
            .collect();
        let module: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&c| {
                let rel = &units[self.fns[c].unit].rel;
                rel.ends_with(&format!("/{qual}.rs")) || rel.contains(&format!("/{qual}/"))
            })
            .collect();
        if module.is_empty() {
            free
        } else {
            module
        }
    }

    /// Bare `name(…)`: free fns, preferring same-file candidates (the
    /// shadowing approximation — a local `fn helper` wins over one in
    /// another module).
    fn resolve_free(&self, unit: usize, name: &str, argc: usize) -> Vec<usize> {
        let free: Vec<usize> = self
            .candidates(name)
            .iter()
            .copied()
            .filter(|&c| {
                self.fns[c].impl_types.is_empty()
                    && !self.fns[c].has_self
                    && self.fns[c].arity == argc
            })
            .collect();
        let local: Vec<usize> =
            free.iter().copied().filter(|&c| self.fns[c].unit == unit).collect();
        if local.is_empty() {
            free
        } else {
            local
        }
    }
}

struct Sig {
    has_self: bool,
    arity: usize,
    params: Vec<(String, BTreeSet<String>)>,
    ret: BTreeSet<String>,
}

/// Parses a fn signature: generics skipped, parameters split on
/// top-level commas (angle-bracket aware), `Self` replaced by the impl
/// context in hints.
fn signature(t: &[Tok], f: &FnSpan, ctx: &[String]) -> Sig {
    let mut sig = Sig { has_self: false, arity: 0, params: Vec::new(), ret: BTreeSet::new() };
    let mut j = f.start + 2;
    if scan::is_at(t, j, "<") {
        j = skip_generics(t, j);
    }
    if !scan::is_at(t, j, "(") {
        return sig;
    }
    let close = matching_close(t, j);
    let mut seg_start = j + 1;
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut segs: Vec<(usize, usize)> = Vec::new();
    for m in j + 1..close.min(t.len()) {
        match t[m].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "<" if depth == 0 => angle += 1,
            ">" if depth == 0 && angle > 0 && !(m > 0 && scan::is(&t[m - 1], "-")) => angle -= 1,
            "," if depth == 0 && angle == 0 => {
                segs.push((seg_start, m));
                seg_start = m + 1;
            }
            _ => {}
        }
    }
    if seg_start < close {
        segs.push((seg_start, close));
    }
    let subst = |h: &mut BTreeSet<String>| {
        if h.remove("Self") {
            h.extend(ctx.iter().cloned());
        }
    };
    for (s, e) in segs {
        // Skip leading `&`, `mut`, lifetimes to the head ident.
        let mut m = s;
        while m < e
            && (scan::is(&t[m], "&") || scan::is(&t[m], "mut") || t[m].kind == Kind::Lifetime)
        {
            m += 1;
        }
        if m < e && scan::is(&t[m], "self") {
            sig.has_self = true;
            continue;
        }
        sig.arity += 1;
        if m < e && t[m].kind == Kind::Ident && scan::is_at(t, m + 1, ":") {
            let mut h: BTreeSet<String> = t[m + 2..e]
                .iter()
                .filter(|x| x.kind == Kind::Ident)
                .map(|x| x.text.clone())
                .collect();
            subst(&mut h);
            sig.params.push((t[m].text.clone(), h));
        }
    }
    // Return type: `-> …` up to `{` / `;` / `where`.
    let mut m = close + 1;
    if scan::is_at(t, m, "-") && scan::is_at(t, m + 1, ">") {
        m += 2;
        let mut depth = 0i32;
        while m < t.len() {
            match t[m].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | ";" | "where" if depth == 0 => break,
                _ => {}
            }
            if t[m].kind == Kind::Ident {
                sig.ret.insert(t[m].text.clone());
            }
            m += 1;
        }
        subst(&mut sig.ret);
    }
    sig
}

/// `impl [Trait for] Type { … }` and `trait Name { … }` blocks as
/// `(body open, body close, type names)`. For a trait impl the method
/// context carries both the concrete type and the trait (so trait
/// dispatch through either name finds it).
fn impl_contexts(lx: &Lexed) -> Vec<(usize, usize, Vec<String>)> {
    let t = &lx.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if scan::is(&t[i], "trait") && t.get(i + 1).is_some_and(|x| x.kind == Kind::Ident) {
            let name = t[i + 1].text.clone();
            let mut j = i + 2;
            while j < t.len() && !scan::is(&t[j], "{") && !scan::is(&t[j], ";") {
                j += 1;
            }
            if scan::is_at(t, j, "{") {
                out.push((j, scan::matching_brace(t, j), vec![name]));
            }
            i = j;
        } else if scan::is(&t[i], "impl") {
            let mut j = i + 1;
            if scan::is_at(t, j, "<") {
                j = skip_generics(t, j);
            }
            // Collect path idents (angle-depth 0) until `for`/`where`/`{`.
            let mut first: Vec<String> = Vec::new();
            let mut second: Vec<String> = Vec::new();
            let mut saw_for = false;
            let mut angle = 0i32;
            while j < t.len() {
                match t[j].text.as_str() {
                    "{" if angle == 0 => break,
                    ";" => break,
                    "where" if angle == 0 => {
                        while j < t.len() && !scan::is(&t[j], "{") {
                            j += 1;
                        }
                        break;
                    }
                    "for" if angle == 0 => saw_for = true,
                    "<" => angle += 1,
                    ">" if angle > 0 && !(j > 0 && scan::is(&t[j - 1], "-")) => angle -= 1,
                    _ if t[j].kind == Kind::Ident && angle == 0 => {
                        let tgt = if saw_for { &mut second } else { &mut first };
                        if !matches!(t[j].text.as_str(), "dyn" | "mut" | "const") {
                            tgt.push(t[j].text.clone());
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if scan::is_at(t, j, "{") {
                let mut tys = Vec::new();
                if saw_for {
                    // `impl Trait for Type`: concrete type first.
                    if let Some(ty) = second.last() {
                        tys.push(ty.clone());
                    }
                    if let Some(tr) = first.last() {
                        tys.push(tr.clone());
                    }
                } else if let Some(ty) = first.last() {
                    tys.push(ty.clone());
                }
                out.push((j, scan::matching_brace(t, j), tys));
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Token ranges covered by `#[cfg(test)]` items and `#[test]` fns.
fn test_ranges(lx: &Lexed) -> Vec<(usize, usize)> {
    let t = &lx.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < t.len() {
        if scan::is(&t[i], "#") && scan::is(&t[i + 1], "[") {
            let close = {
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < t.len() {
                    match t[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j
            };
            let is_test_attr = t[i..=close.min(t.len() - 1)]
                .iter()
                .any(|x| x.kind == Kind::Ident && (x.text == "test" || x.text == "bench"));
            if is_test_attr {
                // The attributed item: from past the `]` to its `{`'s
                // matching brace (or `;`).
                let mut j = close + 1;
                // Skip further attributes.
                while scan::is_at(t, j, "#") && scan::is_at(t, j + 1, "[") {
                    let mut depth = 0i32;
                    while j < t.len() {
                        match t[j].text.as_str() {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                let mut depth = 0i32;
                let mut open = usize::MAX;
                while j < t.len() {
                    match t[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            open = j;
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if open != usize::MAX {
                    out.push((close, scan::matching_brace(t, open) + 1));
                }
            }
            i = close;
        }
        i += 1;
    }
    out
}

/// Struct fields: `name: Type` rows at brace depth 1 of a
/// `struct … { … }` body, merged into the global field-hint table.
fn collect_fields(lx: &Lexed, out: &mut BTreeMap<String, BTreeSet<String>>) {
    let t = &lx.toks;
    let mut i = 0;
    while i < t.len() {
        if scan::is(&t[i], "struct") && t.get(i + 1).is_some_and(|x| x.kind == Kind::Ident) {
            let mut j = i + 2;
            if scan::is_at(t, j, "<") {
                j = skip_generics(t, j);
            }
            while j < t.len()
                && !scan::is(&t[j], "{")
                && !scan::is(&t[j], ";")
                && !scan::is(&t[j], "(")
            {
                j += 1;
            }
            if scan::is_at(t, j, "{") {
                let close = scan::matching_brace(t, j);
                let mut m = j + 1;
                while m < close {
                    if t[m].kind == Kind::Ident
                        && scan::is_at(t, m + 1, ":")
                        && !scan::is_at(t, m + 2, ":")
                        && (scan::is(&t[m - 1], "{")
                            || scan::is(&t[m - 1], ",")
                            || scan::is(&t[m - 1], "pub")
                            || scan::is(&t[m - 1], ")"))
                    {
                        let name = t[m].text.clone();
                        let mut depth = 0i32;
                        let mut e = m + 2;
                        let mut hints = BTreeSet::new();
                        while e < close {
                            match t[e].text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                "," if depth == 0 => break,
                                _ => {}
                            }
                            if t[e].kind == Kind::Ident {
                                hints.insert(t[e].text.clone());
                            }
                            e += 1;
                        }
                        out.entry(name).or_default().extend(hints);
                        m = e;
                    }
                    m += 1;
                }
                i = close;
            } else {
                i = j;
            }
        }
        i += 1;
    }
}

/// Index past the `>` matching the `<` at `i` (a `>` directly after
/// `-` is a return arrow, not a closer). Caps the scan so a stray
/// less-than cannot swallow the file.
fn skip_generics(t: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    for j in i..t.len().min(i + 256) {
        match t[j].text.as_str() {
            "<" => depth += 1,
            ">" if !(j > 0 && scan::is(&t[j - 1], "-")) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    i + 1
}

/// Index of the `)`/`]` matching the opener at `open`.
pub fn matching_close(t: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, tok) in t.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    t.len().saturating_sub(1)
}

/// Index of the `(`/`[` matching the closer at `close` (backward scan).
pub fn matching_open(t: &[Tok], close: usize) -> usize {
    let mut depth = 0i32;
    for j in (0..=close).rev() {
        match t[j].text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    0
}

/// A binding and the type identifiers of its annotation.
type TypedName = (String, BTreeSet<String>);

/// The annotated parameters of a closure whose parameter list opens
/// at token `open`, each as `(name, type hints)`, plus the index of
/// the closing `|`. A tuple pattern's names share the hints of its
/// annotation, as in `let`; unannotated parameters are left out, so
/// calls on them keep the merge-all fallback. `None` unless `open` is
/// a `|` in operand position (not a bitwise or or a pattern
/// alternative) that closes before any `;`, `=` or brace.
fn closure_params(t: &[Tok], open: usize) -> Option<(Vec<TypedName>, usize)> {
    if !scan::is(&t[open], "|") || open == 0 {
        return None;
    }
    let prev = t[open - 1].text.as_str();
    let after_arrow = prev == ">" && open >= 2 && scan::is(&t[open - 2], "=");
    if !(matches!(prev, "(" | "," | "=" | "{" | ";" | "move" | "return") || after_arrow) {
        return None;
    }
    let mut params = Vec::new();
    let mut names = Vec::new();
    let mut hints: Option<BTreeSet<String>> = None;
    let mut depth = 0i32;
    for j in open + 1..t.len() {
        let text = t[j].text.as_str();
        match text {
            "(" | "[" => depth += 1,
            "<" if hints.is_some() => depth += 1,
            ")" | "]" => depth -= 1,
            ">" if hints.is_some() && !scan::is(&t[j - 1], "-") => depth -= 1,
            ";" | "=" | "{" | "}" => return None,
            ":" if depth == 0 && hints.is_none() => hints = Some(BTreeSet::new()),
            "," | "|" if depth == 0 => {
                if let Some(h) = hints.take() {
                    params.extend(names.drain(..).map(|n| (n, h.clone())));
                }
                names.clear();
                if text == "|" {
                    return Some((params, j));
                }
            }
            _ if t[j].kind == Kind::Ident => match &mut hints {
                Some(h) => {
                    h.insert(text.to_string());
                }
                None if text != "mut" && text != "ref" => names.push(text.to_string()),
                None => {}
            },
            _ => {}
        }
        if depth < 0 {
            return None;
        }
    }
    None
}

/// Argument count of the call whose `(` sits at `open`: top-level
/// commas + 1 (0 for empty), less a trailing comma — rustfmt puts one
/// after the last argument of every call it wraps one per line, and
/// `signature` likewise drops the empty tail segment of a
/// declaration. Commas inside closure parameter pipes are skipped.
pub fn count_args(t: &[Tok], open: usize) -> usize {
    let close = matching_close(t, open);
    if close <= open + 1 {
        return 0;
    }
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut in_pipes = false;
    for tok in &t[open + 1..close] {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" if depth == 0 => in_pipes = !in_pipes,
            "," if depth == 0 && !in_pipes => commas += 1,
            _ => {}
        }
    }
    let trailing = scan::is(&t[close - 1], ",");
    commas + 1 - usize::from(trailing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(files: &[(&str, &str)]) -> Vec<Unit> {
        files.iter().map(|(rel, src)| unit(rel, src)).collect()
    }

    #[test]
    fn typed_receiver_resolves_exactly() {
        let us = units(&[(
            "a.rs",
            "struct S { inner: T } struct T; impl T { fn hit(&self) {} }\n\
             impl S { fn go(&self) { self.inner.hit(); } }\n\
             impl Other { fn hit(&self) {} }",
        )]);
        let g = Graph::build(&us);
        let go = g.find("S::go").unwrap();
        let edges = g.edges(go);
        assert_eq!(edges, vec![("T::hit".to_string(), 2, false)]);
    }

    #[test]
    fn untyped_receiver_merges_candidates() {
        let us = units(&[(
            "a.rs",
            "impl A { fn hit(&self) {} } impl B { fn hit(&self) {} }\n\
             fn go(x: &W) { for y in x.items() { y.hit(); } }",
        )]);
        let g = Graph::build(&us);
        let go = g.find("go").unwrap();
        let edges = g.edges(go);
        assert_eq!(edges.len(), 2, "{edges:?}");
        assert!(edges.iter().all(|(_, _, merged)| *merged));
    }

    #[test]
    fn arity_prunes_wrong_candidates() {
        let us = units(&[(
            "a.rs",
            "impl A { fn f(&self, x: u32) {} } impl B { fn f(&self) {} }\n\
             fn go() { let y = mystery(); y.f(1); }",
        )]);
        let g = Graph::build(&us);
        let edges = g.edges(g.find("go").unwrap());
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].0, "A::f");
    }

    #[test]
    fn wrapped_call_with_a_trailing_comma_resolves() {
        let us = units(&[(
            "a.rs",
            "fn callee(a: u32, b: u32) {}\n\
             fn go() {\n    callee(\n        1,\n        2,\n    );\n}",
        )]);
        let g = Graph::build(&us);
        let edges = g.edges(g.find("go").unwrap());
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].0, "callee");
    }

    #[test]
    fn guard_returning_accessor_types_the_binding() {
        let us = units(&[(
            "a.rs",
            "struct Sh { stream: St } struct St; impl St { fn push(&mut self) {} }\n\
             impl Svc { fn shard(&self) -> MutexGuard<'_, Sh> { todo!() }\n\
             fn go(&self) { let mut s = self.shard(0); s.stream.push(); } }",
        )]);
        let g = Graph::build(&us);
        let edges = g.edges(g.find("Svc::go").unwrap());
        assert!(edges.iter().any(|(q, _, m)| q == "St::push" && !m), "{edges:?}");
    }

    #[test]
    fn test_items_are_not_candidates() {
        let us = units(&[(
            "a.rs",
            "fn helper() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\nfn go() { helper(); }",
        )]);
        let g = Graph::build(&us);
        let edges = g.edges(g.find("go").unwrap());
        assert_eq!(edges.len(), 1);
    }
}
