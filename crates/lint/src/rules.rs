//! The per-file rules. All operate on the lexed token stream (so
//! string and comment contents can never trip them) plus the item
//! scanner's function spans; none of them parse full Rust. Where a
//! rule is a heuristic, the heuristic is chosen to over-approximate —
//! a false positive costs one justified `allow` annotation, a false
//! negative costs a silent determinism hole. The interprocedural
//! lock rules live in `lockset.rs`.

use crate::lexer::{Kind, Lexed, Tok};
use crate::scan::{self, FnSpan};
use crate::{Config, Finding};

pub struct Ctx<'a> {
    pub rel: &'a str,
    pub lx: &'a Lexed,
    pub fns: &'a [FnSpan],
    pub attrs: &'a [bool],
    pub cfg: &'a Config,
}

impl Ctx<'_> {
    fn emit(&self, out: &mut Vec<Finding>, line: u32, rule: &str, msg: String) {
        out.push(Finding { file: self.rel.to_string(), line, rule: rule.into(), msg });
    }
}

/// Hash-container type names whose iteration order is not canonical.
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods that observe a container's iteration order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// `no-unordered-iteration`: in result-affecting crates, iterating a
/// `HashMap`/`HashSet` leaks hash order into outputs. The pass first
/// registers every binding/field/parameter whose declared type or
/// initializer names a hash container, then flags (a) order-observing
/// method calls (`.iter()`, `.keys()`, `.values()`, `.drain()`, …)
/// whose receiver ends in a registered name, and (b) `for … in`
/// loops whose iterated expression is a registered name. Key lookups
/// (`get`, `contains`, `insert`, `entry`) never fire. Fix by
/// converting to `BTreeMap`/`BTreeSet` (or sorting into a `Vec`
/// first), or annotate the site with a reason.
pub fn no_unordered_iteration(ctx: &Ctx, out: &mut Vec<Finding>) {
    const RULE: &str = "no-unordered-iteration";
    if !ctx.cfg.rule_on(RULE) || !Config::in_any(&ctx.cfg.ordered, ctx.rel) {
        return;
    }
    let t = &ctx.lx.toks;
    // (name, token range it applies to) — a binding inside a fn only
    // taints uses in that fn; struct fields and file-level items taint
    // the whole file.
    let mut regs: Vec<(String, Option<(usize, usize)>)> = Vec::new();
    let mut register = |name: &Tok, at: usize| {
        let scope = scan::enclosing_fn(ctx.fns, at).map(|f| (f.start, f.end));
        regs.push((name.text.clone(), scope));
    };
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != Kind::Ident || !HASH_TYPES.contains(&tok.text.as_str()) {
            continue;
        }
        // Hop backward over a `path::to::` prefix to the head segment.
        let mut j = i;
        while j >= 3
            && scan::is(&t[j - 1], ":")
            && scan::is(&t[j - 2], ":")
            && t[j - 3].kind == Kind::Ident
        {
            j -= 3;
        }
        // `name: [&]['a][mut] Type` — declaration, field or parameter.
        let mut k = j;
        while k > 0
            && (scan::is(&t[k - 1], "&")
                || scan::is(&t[k - 1], "mut")
                || t[k - 1].kind == Kind::Lifetime)
        {
            k -= 1;
        }
        if k >= 2
            && scan::is(&t[k - 1], ":")
            && !scan::is(&t[k - 2], ":")
            && t[k - 2].kind == Kind::Ident
        {
            register(&t[k - 2], i);
            continue;
        }
        // `name = Type::new()` / `let mut name = Type::default()`.
        if j >= 2 && scan::is(&t[j - 1], "=") && t[j - 2].kind == Kind::Ident {
            register(&t[j - 2], i);
        }
    }

    let flagged = |name: &str, at: usize| {
        regs.iter().any(|(n, scope)| n == name && scope.is_none_or(|(s, e)| s <= at && at < e))
    };
    for (i, tok) in t.iter().enumerate() {
        // receiver . method (
        if tok.kind == Kind::Ident
            && ITER_METHODS.contains(&tok.text.as_str())
            && i >= 2
            && scan::is(&t[i - 1], ".")
            && t[i - 2].kind == Kind::Ident
            && flagged(&t[i - 2].text, i)
            && scan::is_at(t, i + 1, "(")
        {
            ctx.emit(
                out,
                tok.line,
                RULE,
                format!(
                    "`{}.{}()` iterates a hash container in a result-affecting crate; \
                     use a BTree collection / sort first, or annotate with \
                     `// alid-lint: allow({RULE}) -- <reason>`",
                    t[i - 2].text,
                    tok.text
                ),
            );
        }
        // for pat in [&][mut] name {
        if scan::is(tok, "for") {
            let Some(in_at) = find_in(t, i) else { continue };
            let mut e = in_at + 1;
            while e < t.len() && (scan::is(&t[e], "&") || scan::is(&t[e], "mut")) {
                e += 1;
            }
            if e + 1 < t.len()
                && t[e].kind == Kind::Ident
                && flagged(&t[e].text, e)
                && scan::is(&t[e + 1], "{")
            {
                ctx.emit(
                    out,
                    t[e].line,
                    RULE,
                    format!(
                        "`for … in {}` iterates a hash container in a result-affecting \
                         crate; use a BTree collection / sort first, or annotate with \
                         `// alid-lint: allow({RULE}) -- <reason>`",
                        t[e].text
                    ),
                );
            }
        }
    }
}

/// Token index of the `in` belonging to the `for` at `i` (skipping
/// any nested parens/brackets in the pattern).
fn find_in(t: &[Tok], for_at: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, tok) in t.iter().enumerate().skip(for_at + 1).take(64) {
        match tok.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => return Some(j),
            "{" | ";" => return None,
            _ => {}
        }
    }
    None
}

/// `no-fma`: fused multiply-add rounds once where the scalar reference
/// rounds twice, so any `mul_add` (or `_mm*_fmadd_*`-family intrinsic)
/// in a kernel crate silently breaks the bit-for-bit blocked/SIMD
/// parity argument (DESIGN.md, "Blocked + SIMD kernel evaluation").
pub fn no_fma(ctx: &Ctx, out: &mut Vec<Finding>) {
    const RULE: &str = "no-fma";
    if !ctx.cfg.rule_on(RULE) || !Config::in_any(&ctx.cfg.kernel, ctx.rel) {
        return;
    }
    for tok in &ctx.lx.toks {
        if tok.kind != Kind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        let fused = name == "mul_add"
            || name == "fma"
            || ["fmadd", "fmsub", "fnmadd", "fnmsub"].iter().any(|p| name.contains(p));
        if fused {
            ctx.emit(
                out,
                tok.line,
                RULE,
                format!(
                    "`{name}` fuses multiply-add (one rounding instead of two) — banned in \
                     kernel crates; the bit-for-bit parity contract requires per-op rounding"
                ),
            );
        }
    }
}

/// `unsafe-needs-safety`: every `unsafe` block, fn or impl must be
/// preceded by a `// SAFETY:` comment (an `unsafe fn` may carry a
/// `# Safety` doc section instead). The comment must sit directly
/// above the statement/item containing the `unsafe` keyword —
/// attribute lines in between are skipped, blank lines are not.
pub fn unsafe_needs_safety(ctx: &Ctx, out: &mut Vec<Finding>) {
    const RULE: &str = "unsafe-needs-safety";
    if !ctx.cfg.rule_on(RULE) {
        return;
    }
    let t = &ctx.lx.toks;
    for (i, tok) in t.iter().enumerate() {
        if !(tok.kind == Kind::Ident && tok.text == "unsafe") {
            continue;
        }
        // Statement/item start: the token after the nearest `;`/`{`/`}`.
        let mut j = i;
        while j > 0 && !matches!(t[j - 1].text.as_str(), ";" | "{" | "}") {
            j -= 1;
        }
        let stmt_line = t[j].line;
        let mut text = String::new();
        for l in [stmt_line, tok.line] {
            if let Some(c) = ctx.lx.comment_text_on(l) {
                text.push_str(&c);
            }
        }
        let mut l = stmt_line.saturating_sub(1);
        while l > 0 {
            if ctx.attrs.get(l as usize).copied().unwrap_or(false) {
                l -= 1;
                continue;
            }
            if ctx.lx.has_code(l) {
                break;
            }
            match ctx.lx.comment_text_on(l) {
                Some(c) => {
                    text.push_str(&c);
                    l -= 1;
                }
                None => break,
            }
        }
        if !(text.contains("SAFETY:") || text.contains("# Safety")) {
            let what = match t.get(i + 1).map(|n| n.text.as_str()) {
                Some("fn") => "unsafe fn",
                Some("impl") => "unsafe impl",
                _ => "unsafe block",
            };
            ctx.emit(
                out,
                tok.line,
                RULE,
                format!(
                    "{what} without a `// SAFETY:` comment (or `# Safety` doc section) \
                     directly above its statement"
                ),
            );
        }
    }
}

/// `no-raw-threads` / `no-raw-time`: `thread::spawn` (and `.spawn()`
/// builders) and `Instant::now`/`SystemTime::now` are confined to the
/// allowlisted modules (exec pool, benches, the HTTP front end) —
/// everywhere else a clock read or an unmanaged thread is a
/// channel through which scheduling could feed output values.
pub fn raw_threads_and_time(ctx: &Ctx, out: &mut Vec<Finding>) {
    if Config::in_any(&ctx.cfg.timing_allow, ctx.rel) {
        return;
    }
    let t = &ctx.lx.toks;
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != Kind::Ident {
            continue;
        }
        let path_call = |head: &str, tail: usize| {
            tok.text == head
                && scan::is_at(t, i + 1, ":")
                && scan::is_at(t, i + 2, ":")
                && t.get(i + 3).is_some_and(|n| n.text == ["spawn", "now"][tail])
        };
        if ctx.cfg.rule_on("no-raw-threads") {
            let spawn_path = path_call("thread", 0);
            let spawn_method = tok.text == "spawn"
                && i >= 1
                && scan::is(&t[i - 1], ".")
                && scan::is_at(t, i + 1, "(");
            if spawn_path || spawn_method {
                ctx.emit(
                    out,
                    tok.line,
                    "no-raw-threads",
                    "raw thread spawn outside the exec pool allowlist; route parallelism \
                     through `ExecPolicy` (or annotate with a reason)"
                        .into(),
                );
            }
        }
        if ctx.cfg.rule_on("no-raw-time") && (path_call("Instant", 1) || path_call("SystemTime", 1))
        {
            ctx.emit(
                out,
                tok.line,
                "no-raw-time",
                format!(
                    "`{}::now()` outside the timing allowlist; clock reads must never be \
                     able to feed output values (annotate with a reason if this one cannot)",
                    tok.text
                ),
            );
        }
    }
}

/// The metric-reading surface of `alid-obs`. These names are chosen to
/// be distinctive precisely so this token-level rule can spot them:
/// hot paths get write-only handles (`inc`/`add`/`set`/`observe_ns`),
/// and anything that reads a value back carries one of these.
const METRIC_READS: [&str; 3] = ["metric_value", "snapshot_samples", "render_prometheus"];

/// `no-metric-branching`: observation is telemetry, never control. A
/// result-affecting crate may *bump* metrics freely, but reading one
/// back (`.metric_value()`, `.snapshot_samples()`,
/// `.render_prometheus()`) outside an exposition surface is a channel
/// through which timing could feed outputs — exactly the loop the
/// determinism contract forbids. Reads are fine in the timing
/// allowlist (the obs crate itself, the HTTP front end, benches) and
/// in `#[cfg(test)]` modules, where a read is an assertion.
pub fn no_metric_branching(ctx: &Ctx, out: &mut Vec<Finding>) {
    const RULE: &str = "no-metric-branching";
    if !ctx.cfg.rule_on(RULE)
        || !Config::in_any(&ctx.cfg.ordered, ctx.rel)
        || Config::in_any(&ctx.cfg.timing_allow, ctx.rel)
    {
        return;
    }
    let t = &ctx.lx.toks;
    let tests = test_mod_regions(t);
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != Kind::Ident
            || !METRIC_READS.contains(&tok.text.as_str())
            || i == 0
            || !scan::is(&t[i - 1], ".")
            || !scan::is_at(t, i + 1, "(")
        {
            continue;
        }
        if tests.iter().any(|&(s, e)| s <= i && i < e) {
            continue;
        }
        ctx.emit(
            out,
            tok.line,
            RULE,
            format!(
                "`.{}()` reads a metric in a result-affecting crate; observation is \
                 telemetry, never control — move the read to an exposition surface, or \
                 annotate with `// alid-lint: allow({RULE}) -- <reason>`",
                tok.text
            ),
        );
    }
}

/// Token ranges of `#[cfg(test)] mod … { … }` items.
fn test_mod_regions(t: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if !(scan::is(tok, "mod")
            && t.get(i + 1).is_some_and(|n| n.kind == Kind::Ident)
            && scan::is_at(t, i + 2, "{"))
        {
            continue;
        }
        // Look back over the attribute tokens (`#[cfg(test)]`, possibly
        // several attributes) for a `cfg` immediately followed by
        // `(test)`; stop at the previous item boundary.
        let mut gated = false;
        let mut j = i;
        while j > 0 && !matches!(t[j - 1].text.as_str(), ";" | "{" | "}") {
            j -= 1;
            if t[j].text == "cfg"
                && scan::is_at(t, j + 1, "(")
                && t.get(j + 2).is_some_and(|n| n.text == "test")
            {
                gated = true;
            }
        }
        if !gated {
            continue;
        }
        // Match the mod's braces to find where the region ends.
        let mut depth = 0usize;
        let mut end = t.len();
        for (k, tk) in t.iter().enumerate().skip(i + 2) {
            match tk.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        regions.push((i, end));
    }
    regions
}
