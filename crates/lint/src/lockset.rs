//! Interprocedural lock-set analysis over the call graph: which lock
//! classes each fn may acquire, which panicking / exec-dispatching /
//! blocking operations it may reach, and — per guard *region* in the
//! lock-disciplined crates — what fires while the guard is live.
//!
//! Lock classes are named by the receiver chain's last struct-field
//! identifier (`self.shards[s].lock()` → `shards`, `shared.queue.lock()`
//! → `queue`); same-named fields merge, which over-approximates. A
//! *region* runs from the acquisition to the end of the binding's
//! scope (truncated at `drop(binding)`), or — for unbound temporaries
//! — to the end of the statement, extended through an `if let`/`match`
//! body when the guard is the scrutinee (temporary lifetime
//! extension). Effect summaries are a bottom-up fixpoint with
//! deterministic shortest witness chains; the four rules
//! (`lock-cycle`, `exec-under-lock`, `panic-under-lock`,
//! `block-under-lock`) then check every region against the summaries
//! of everything reachable inside it. The `.lock().expect(…)` /
//! `.wait(g).expect(…)` acquisition idiom is exempt from
//! `panic-under-lock`: that panic *is* the poison check, not a new
//! poisoner.

use std::collections::BTreeMap;

use crate::callgraph::{count_args, matching_open, Graph, Unit, GUARD_TYPES};
use crate::lexer::Kind;
use crate::scan;
use crate::{Config, Finding};

/// `ExecPolicy` / pool dispatch entry points: running one of these
/// while holding a shard guard re-creates the PR 4 deadlock class (a
/// waiter helping a foreign job that needs the held lock).
pub const EXEC_DISPATCH: [&str; 4] = ["map_indexed", "map_tasks", "for_each_span", "run_phase"];

/// Panicking method calls (`unwrap_or*` deliberately absent — those
/// don't panic).
const PANIC_METHODS: [&str; 4] = ["unwrap", "unwrap_err", "expect", "expect_err"];

/// Panicking macros (matched as `name !`; `debug_assert*` excluded —
/// release builds strip them).
const PANIC_MACROS: [&str; 7] =
    ["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Blocking-I/O method calls, matched by name on receivers the call
/// graph does not resolve into the workspace (`File`, `TcpStream`, …)
/// or resolves only by the merge-all fallback.
const BLOCK_METHODS: [&str; 8] = [
    "read_to_end",
    "read_to_string",
    "read_exact",
    "write_all",
    "sync_all",
    "flush",
    "accept",
    "recv",
];

/// Blocking-I/O path calls (`File::open`, …).
const BLOCK_PATHS: [(&str, &str); 7] = [
    ("File", "open"),
    ("File", "create"),
    ("TcpStream", "connect"),
    ("TcpListener", "bind"),
    ("fs", "read"),
    ("fs", "write"),
    ("fs", "read_to_string"),
];

/// What a fn may do, directly or transitively.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    Panic,
    Exec,
    Block,
    /// May acquire a lock of this class.
    Acquire(String),
}

/// One step of a witness chain, rendered `what (file:line)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Step {
    pub what: String,
    pub file: String,
    pub line: u32,
}

pub type Witness = Vec<Step>;

/// Per-fn effect summaries (deterministic shortest witness per effect).
pub struct Summaries(Vec<BTreeMap<Effect, Witness>>);

impl Summaries {
    pub fn effects(&self, id: usize) -> &BTreeMap<Effect, Witness> {
        &self.0[id]
    }
}

/// A directly-observed operation inside one fn body.
#[derive(Debug, Clone)]
struct Op {
    tok: usize,
    line: u32,
    effect: Effect,
    what: String,
}

/// One live-guard region inside a fn body (token interval, inclusive
/// of `end`).
#[derive(Debug, Clone)]
struct Region {
    class: String,
    acq_tok: usize,
    end_tok: usize,
    line: u32,
}

/// Computes per-fn effect summaries: a bottom-up fixpoint where a fn's
/// effects are its direct ops plus every callee candidate's effects
/// (shortest witness wins; ties broken lexicographically, so the
/// result is independent of iteration order).
pub fn summarize(units: &[Unit], g: &Graph, cfg: &Config) -> Summaries {
    let n = g.fns.len();
    let direct: Vec<Vec<Op>> = (0..n).map(|id| direct_ops(units, g, cfg, id)).collect();
    let sanction: Vec<Option<Vec<String>>> = (0..n)
        .map(|id| {
            cfg.lock_constructors
                .iter()
                .find(|(name, _)| *name == g.fns[id].name)
                .map(|(_, classes)| classes.clone())
        })
        .collect();
    let mut sums: Vec<BTreeMap<Effect, Witness>> = vec![BTreeMap::new(); n];
    for id in 0..n {
        if let Some(classes) = &sanction[id] {
            let f = &g.fns[id];
            for c in classes {
                sums[id].insert(
                    Effect::Acquire(c.clone()),
                    vec![Step {
                        what: format!("`{}` (sanctioned lock constructor)", f.name),
                        file: units[f.unit].rel.clone(),
                        line: f.line,
                    }],
                );
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            if sanction[id].is_some() {
                continue; // summary fixed by config
            }
            let mut mine: BTreeMap<Effect, Witness> = BTreeMap::new();
            let rel = &units[g.fns[id].unit].rel;
            for op in &direct[id] {
                let w = vec![Step { what: op.what.clone(), file: rel.clone(), line: op.line }];
                merge(&mut mine, op.effect.clone(), w);
            }
            for call in &g.calls[id] {
                for &callee in &call.callees {
                    for (eff, w) in &sums[callee] {
                        let mut chain = Vec::with_capacity(w.len() + 1);
                        chain.push(Step {
                            what: g.qname(callee),
                            file: rel.clone(),
                            line: call.line,
                        });
                        chain.extend(w.iter().cloned());
                        merge(&mut mine, eff.clone(), chain);
                    }
                }
            }
            if mine != sums[id] {
                sums[id] = mine;
                changed = true;
            }
        }
    }
    Summaries(sums)
}

/// Keeps the better witness: shorter, then lexicographically smaller.
fn merge(map: &mut BTreeMap<Effect, Witness>, eff: Effect, w: Witness) {
    match map.get(&eff) {
        Some(old) if (old.len(), old.as_slice()) <= (w.len(), w.as_slice()) => {}
        _ => {
            map.insert(eff, w);
        }
    }
}

/// Directly-observed ops of one fn: panics, exec dispatches, blocking
/// I/O everywhere; lock acquisitions only in the `lockset` paths.
fn direct_ops(units: &[Unit], g: &Graph, cfg: &Config, id: usize) -> Vec<Op> {
    let f = &g.fns[id];
    let unit = &units[f.unit];
    let t = &unit.lx.toks;
    let mut out = Vec::new();
    if f.span.body == usize::MAX {
        return out;
    }
    let in_lockset = Config::in_any(&cfg.lockset, &unit.rel);
    let nested: Vec<(usize, usize)> = g.per_unit[f.unit]
        .iter()
        .map(|&o| &g.fns[o].span)
        .filter(|o| o.start > f.span.start && o.end <= f.span.end)
        .map(|o| (o.start, o.end))
        .collect();
    let mut k = f.span.body;
    while k < f.span.end.min(t.len()) {
        if let Some(&(_, e)) = nested.iter().find(|&&(s, _)| s == k) {
            k = e;
            continue;
        }
        let tok = &t[k];
        if tok.kind == Kind::Ident {
            let name = tok.text.as_str();
            let method = k >= 1 && scan::is(&t[k - 1], ".") && scan::is_at(t, k + 1, "(");
            let mac = scan::is_at(t, k + 1, "!");
            if method && PANIC_METHODS.contains(&name) && !acquisition_idiom(t, k) {
                out.push(Op {
                    tok: k,
                    line: tok.line,
                    effect: Effect::Panic,
                    what: format!("`.{name}()`"),
                });
            }
            if mac && PANIC_MACROS.contains(&name) {
                out.push(Op {
                    tok: k,
                    line: tok.line,
                    effect: Effect::Panic,
                    what: format!("`{name}!`"),
                });
            }
            if method && EXEC_DISPATCH.contains(&name) {
                out.push(Op {
                    tok: k,
                    line: tok.line,
                    effect: Effect::Exec,
                    what: format!("`.{name}(…)` dispatch"),
                });
            }
            // A name shared with a blocking call counts only on a
            // receiver outside the workspace, or a merged one: a
            // resolved workspace callee's summary carries any real I/O.
            let workspace_callee =
                || g.calls[id].iter().any(|c| c.tok == k && !c.callees.is_empty() && !c.merged);
            if method && BLOCK_METHODS.contains(&name) && !workspace_callee() {
                out.push(Op {
                    tok: k,
                    line: tok.line,
                    effect: Effect::Block,
                    what: format!("`.{name}()`"),
                });
            }
            if scan::is_at(t, k + 1, ":")
                && scan::is_at(t, k + 2, ":")
                && t.get(k + 3).is_some_and(|x| x.kind == Kind::Ident)
                && scan::is_at(t, k + 4, "(")
                && BLOCK_PATHS.iter().any(|(q, m)| *q == name && *m == t[k + 3].text)
            {
                out.push(Op {
                    tok: k + 3,
                    line: t[k + 3].line,
                    effect: Effect::Block,
                    what: format!("`{name}::{}()`", t[k + 3].text),
                });
            }
            if in_lockset {
                if let Some(class) = direct_acquisition(g, t, k) {
                    out.push(Op {
                        tok: k,
                        line: tok.line,
                        effect: Effect::Acquire(class.clone()),
                        what: format!("`.{name}()` on `{class}`"),
                    });
                }
            }
        }
        k += 1;
    }
    out
}

/// `.lock()` / `.read()` / `.write()` with zero arguments (the
/// `Mutex`/`RwLock` shapes; `File::read(buf)` has arity 1) → the lock
/// class, named by the receiver chain.
fn direct_acquisition(g: &Graph, t: &[crate::lexer::Tok], k: usize) -> Option<String> {
    let name = t[k].text.as_str();
    if !matches!(name, "lock" | "read" | "write")
        || k == 0
        || !scan::is(&t[k - 1], ".")
        || !scan::is_at(t, k + 1, "(")
        || count_args(t, k + 1) != 0
    {
        return None;
    }
    Some(receiver_class(g, t, k - 1))
}

/// Class name for the receiver chain ending at the `.` token `dot`:
/// the last identifier in the chain that is a known struct field,
/// else the base identifier.
fn receiver_class(g: &Graph, t: &[crate::lexer::Tok], dot: usize) -> String {
    let mut idents: Vec<String> = Vec::new();
    let mut p = dot as i64 - 1;
    while p >= 0 {
        let pu = p as usize;
        match t[pu].text.as_str() {
            "]" | ")" => p = matching_open(t, pu) as i64 - 1,
            _ if t[pu].kind == Kind::Ident => {
                idents.push(t[pu].text.clone());
                if pu >= 1 && scan::is(&t[pu - 1], ".") {
                    p = pu as i64 - 2;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    // `idents` is outermost-first; prefer the outermost known field.
    idents
        .iter()
        .find(|n| g.field_hints.contains_key(n.as_str()))
        .or_else(|| idents.iter().find(|n| n.as_str() != "self"))
        .cloned()
        .unwrap_or_else(|| "lock".to_string())
}

/// `.unwrap()`/`.expect(…)` directly chained onto `.lock(…)` /
/// `.wait(…)` — the acquisition idiom, not a new panic source.
fn acquisition_idiom(t: &[crate::lexer::Tok], k: usize) -> bool {
    if k < 2 || !scan::is(&t[k - 1], ".") || !scan::is(&t[k - 2], ")") {
        return false;
    }
    let open = matching_open(t, k - 2);
    open >= 1
        && t[open - 1].kind == Kind::Ident
        && matches!(t[open - 1].text.as_str(), "lock" | "wait")
}

/// Findings from every guard region in the `lockset`-path units.
pub fn check(units: &[Unit], g: &Graph, sums: &Summaries, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for id in 0..g.fns.len() {
        let f = &g.fns[id];
        let rel = &units[f.unit].rel;
        if f.is_test || f.span.body == usize::MAX || !Config::in_any(&cfg.lockset, rel) {
            continue;
        }
        if cfg.lock_constructors.iter().any(|(n, _)| n == &f.name) {
            continue; // sanctioned constructors acquire their class repeatedly by design
        }
        let regions = regions(units, g, sums, cfg, id);
        check_fn(units, g, sums, cfg, id, &regions, &mut out);
    }
    out
}

/// Guard regions of one fn: direct acquisitions plus guard-returning
/// call sites (callee returns a `MutexGuard`-family type).
fn regions(units: &[Unit], g: &Graph, sums: &Summaries, cfg: &Config, id: usize) -> Vec<Region> {
    let f = &g.fns[id];
    let t = &units[f.unit].lx.toks;
    let mut out = Vec::new();
    let nested: Vec<(usize, usize)> = g.per_unit[f.unit]
        .iter()
        .map(|&o| &g.fns[o].span)
        .filter(|o| o.start > f.span.start && o.end <= f.span.end)
        .map(|o| (o.start, o.end))
        .collect();
    // Brace stack so a bound guard's region can end at its scope.
    let mut braces: Vec<usize> = Vec::new();
    let mut k = f.span.body;
    let end = f.span.end.min(t.len());
    while k < end {
        if let Some(&(_, e)) = nested.iter().find(|&&(s, _)| s == k) {
            k = e;
            continue;
        }
        match t[k].text.as_str() {
            "{" => braces.push(k),
            "}" => {
                braces.pop();
            }
            _ => {}
        }
        let acq: Option<Vec<String>> = if t[k].kind == Kind::Ident {
            if let Some(class) = direct_acquisition(g, t, k) {
                Some(vec![class])
            } else {
                call_acquisition(g, sums, cfg, id, k)
            }
        } else {
            None
        };
        if let Some(classes) = acq {
            let scope_end = braces.last().map(|&b| scan::matching_brace(t, b)).unwrap_or(end - 1);
            let bound = binding_names(t, f.span.body, k);
            for (ci, class) in classes.iter().enumerate() {
                let (start_line, region_end) = if bound.is_empty() {
                    (t[k].line, temp_end(t, k, end))
                } else {
                    // Positional zip when the tuple pattern matches the
                    // class list; otherwise any drop ends the region.
                    let names: Vec<&String> = if bound.len() == classes.len() {
                        vec![&bound[ci]]
                    } else {
                        bound.iter().collect()
                    };
                    let mut e = scope_end;
                    'drops: for j in k..scope_end.min(t.len()) {
                        if scan::is(&t[j], "drop")
                            && scan::is_at(t, j + 1, "(")
                            && t.get(j + 2).is_some_and(|x| names.iter().any(|n| x.text == **n))
                            && scan::is_at(t, j + 3, ")")
                        {
                            e = j;
                            break 'drops;
                        }
                    }
                    (t[k].line, e)
                };
                out.push(Region {
                    class: class.clone(),
                    acq_tok: k,
                    end_tok: region_end,
                    line: start_line,
                });
            }
        }
        k += 1;
    }
    out
}

/// Call-site acquisition: the callee returns a guard type — region
/// classes come from its (sanctioned or computed) acquire summary.
fn call_acquisition(
    g: &Graph,
    sums: &Summaries,
    cfg: &Config,
    id: usize,
    k: usize,
) -> Option<Vec<String>> {
    let call = g.calls[id].iter().find(|c| c.tok == k)?;
    let returning: Vec<usize> = call
        .callees
        .iter()
        .copied()
        .filter(|&c| g.fns[c].ret_hints.iter().any(|h| GUARD_TYPES.contains(&h.as_str())))
        .collect();
    if returning.is_empty() {
        return None;
    }
    // A sanctioned constructor's configured order wins (it fixes the
    // tuple-position mapping for `lock_all`-style composites).
    for &c in &returning {
        if let Some((_, classes)) = cfg.lock_constructors.iter().find(|(n, _)| n == &g.fns[c].name)
        {
            return Some(classes.clone());
        }
    }
    let mut classes: Vec<String> = returning
        .iter()
        .flat_map(|&c| {
            sums.effects(c).keys().filter_map(|e| match e {
                Effect::Acquire(cl) => Some(cl.clone()),
                _ => None,
            })
        })
        .collect();
    classes.sort();
    classes.dedup();
    if classes.is_empty() {
        classes.push(call.name.clone());
    }
    Some(classes)
}

/// Names bound by the statement containing token `k` (`let x = …`,
/// `let (a, b) = …`, or a plain `x = …` reassignment); empty for an
/// unbound temporary.
fn binding_names(t: &[crate::lexer::Tok], body: usize, k: usize) -> Vec<String> {
    // Statement start: one past the last `;`/`{`/`}` at depth 0.
    let mut start = body + 1;
    let mut depth = 0i32;
    let mut p = k as i64 - 1;
    while p >= body as i64 {
        let pu = p as usize;
        match t[pu].text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => depth -= 1,
            ";" | "{" | "}" if depth == 0 => {
                start = pu + 1;
                break;
            }
            _ => {}
        }
        p -= 1;
    }
    // Forward: `[let] [mut] name | (a, b)` then `[: Type] =`.
    let mut j = start;
    if scan::is_at(t, j, "let") {
        j += 1;
    }
    if scan::is_at(t, j, "mut") {
        j += 1;
    }
    let mut names = Vec::new();
    if scan::is_at(t, j, "(") {
        let close = crate::callgraph::matching_close(t, j);
        for tok in &t[j + 1..close.min(t.len())] {
            if tok.kind == Kind::Ident && tok.text != "mut" {
                names.push(tok.text.clone());
            }
        }
        j = close + 1;
    } else if t.get(j).is_some_and(|x| x.kind == Kind::Ident && x.text != "if" && x.text != "while")
    {
        names.push(t[j].text.clone());
        j += 1;
    } else {
        return Vec::new();
    }
    if scan::is_at(t, j, ":") {
        let mut depth = 0i32;
        j += 1;
        while j < k {
            match t[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "=" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
    }
    // A plain `=` (not `==`/`=>`) before the acquisition makes it a
    // binding; anything else is an unbound temporary.
    if j < k && scan::is_at(t, j, "=") && !scan::is_at(t, j + 1, "=") && !scan::is_at(t, j + 1, ">")
    {
        names
    } else {
        Vec::new()
    }
}

/// End token of an unbound temporary guard's region: the statement's
/// `;`, extended through a `{ … } [else { … }]` body when the guard
/// expression is an `if let`/`match`/`for` scrutinee.
fn temp_end(t: &[crate::lexer::Tok], k: usize, fn_end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = k;
    while j < fn_end {
        match t[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth <= 0 => return j,
            "{" if depth <= 0 => {
                let mut close = scan::matching_brace(t, j);
                while scan::is_at(t, close + 1, "else") {
                    let mut m = close + 1;
                    while m < fn_end && !scan::is(&t[m], "{") {
                        m += 1;
                    }
                    if m >= fn_end {
                        break;
                    }
                    close = scan::matching_brace(t, m);
                }
                return close;
            }
            _ => {}
        }
        j += 1;
    }
    fn_end.saturating_sub(1)
}

/// Emits the four rules for one fn's regions.
fn check_fn(
    units: &[Unit],
    g: &Graph,
    sums: &Summaries,
    cfg: &Config,
    id: usize,
    regions: &[Region],
    out: &mut Vec<Finding>,
) {
    let f = &g.fns[id];
    let unit = &units[f.unit];
    let rel = &unit.rel;
    // Innermost covering region per token — one finding per site.
    let covering = |tok: usize| -> Option<&Region> {
        regions.iter().filter(|r| r.acq_tok < tok && tok <= r.end_tok).max_by_key(|r| r.acq_tok)
    };
    let mut emit = |line: u32, rule: &str, msg: String| {
        if cfg.rule_on(rule) {
            out.push(Finding { file: rel.clone(), line, rule: rule.into(), msg });
        }
    };
    // Direct ops inside regions.
    for op in direct_ops(units, g, cfg, id) {
        let Some(r) = covering(op.tok) else { continue };
        match &op.effect {
            Effect::Panic => emit(
                op.line,
                "panic-under-lock",
                format!(
                    "{} can panic while the `{}` guard (line {}) is held, poisoning the lock; \
                     drop the guard first or return an error",
                    op.what, r.class, r.line
                ),
            ),
            Effect::Exec => emit(
                op.line,
                "exec-under-lock",
                format!(
                    "{} while the `{}` guard (line {}) is held — an exec waiter can help a \
                     foreign job that needs this lock (the PR 4 deadlock class); dispatch \
                     after dropping the guard",
                    op.what, r.class, r.line
                ),
            ),
            Effect::Block => emit(
                op.line,
                "block-under-lock",
                format!(
                    "{} blocks on I/O while the `{}` guard (line {}) is held; move the I/O \
                     outside the critical section",
                    op.what, r.class, r.line
                ),
            ),
            Effect::Acquire(c2) if *c2 == r.class => emit(
                op.line,
                "lock-cycle",
                format!(
                    "re-acquires the `{}` lock while a `{}` guard (line {}) is already held — \
                     self-deadlock; take a consistent cut via `lock_shards`/`lock_all` instead",
                    c2, r.class, r.line
                ),
            ),
            Effect::Acquire(_) => {}
        }
    }
    // Call sites inside regions: consult callee summaries.
    for call in &g.calls[id] {
        let Some(r) = covering(call.tok) else { continue };
        if call.tok == r.acq_tok {
            continue; // the acquisition itself
        }
        // Deterministic best witness per effect across candidates.
        let mut best: BTreeMap<Effect, (Witness, usize)> = BTreeMap::new();
        for &callee in &call.callees {
            for (eff, w) in sums.effects(callee) {
                let key = match eff {
                    Effect::Acquire(c) if *c == r.class => eff.clone(),
                    Effect::Acquire(_) => continue,
                    _ => eff.clone(),
                };
                match best.get(&key) {
                    Some((old, _)) if (old.len(), old.as_slice()) <= (w.len(), w.as_slice()) => {}
                    _ => {
                        best.insert(key, (w.clone(), callee));
                    }
                }
            }
        }
        for (eff, (w, _)) in best {
            let chain = render_chain(&call.name, rel, call.line, &w);
            let (rule, head) = match &eff {
                Effect::Panic => ("panic-under-lock", "can panic"),
                Effect::Exec => ("exec-under-lock", "can dispatch onto the exec pool"),
                Effect::Block => ("block-under-lock", "can block on I/O"),
                Effect::Acquire(_) => ("lock-cycle", "re-acquires this lock class"),
            };
            let extra = if call.merged { " [resolved by name — untyped receiver]" } else { "" };
            emit(
                call.line,
                rule,
                format!(
                    "call to `{}` {head} while the `{}` guard (line {}) is held{extra}; \
                     witness: {chain}",
                    call.name, r.class, r.line
                ),
            );
        }
    }
}

/// `caller-site → step (file:line) → … → op (file:line)`, capped.
fn render_chain(callee: &str, rel: &str, line: u32, w: &Witness) -> String {
    let mut parts = vec![format!("`{callee}` ({}:{line})", short(rel))];
    for s in w.iter().take(6) {
        parts.push(format!("{} ({}:{})", s.what, short(&s.file), s.line));
    }
    if w.len() > 6 {
        parts.push("…".into());
    }
    parts.join(" → ")
}

/// Last two path components — enough to locate a file, short enough
/// for a table cell.
fn short(rel: &str) -> String {
    let parts: Vec<&str> = rel.rsplitn(3, '/').collect();
    match parts.as_slice() {
        [file, dir, _rest] => format!("{dir}/{file}"),
        _ => rel.to_string(),
    }
}
