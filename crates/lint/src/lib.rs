//! `alid-lint` — the workspace determinism & safety linter.
//!
//! Every guarantee this reproduction ships (byte-identical results
//! across worker counts, restore-then-continue parity, merged-view
//! equivalence, bit-for-bit blocked kernels) is otherwise only
//! enforced *dynamically*, by parity tests that can miss whatever the
//! fixtures don't reach. This crate encodes the constraints those
//! guarantees rest on as a static-analysis pass over the whole
//! workspace — a real (hand-rolled, std-only) Rust lexer plus a
//! lightweight item scanner feeding six per-file rules:
//!
//! * `no-unordered-iteration` — iterating a `HashMap`/`HashSet` in a
//!   result-affecting crate leaks hash order into outputs;
//! * `no-fma` — `mul_add`/FMA intrinsics in kernel crates break the
//!   bit-for-bit blocked-kernel argument (round once per op, not fused);
//! * `unsafe-needs-safety` — every `unsafe` block/fn/impl must carry
//!   a `// SAFETY:` comment (or `# Safety` doc section);
//! * `no-raw-threads` / `no-raw-time` — thread spawns and clock
//!   reads only in allowlisted modules, so timing can never feed
//!   output values;
//! * `no-metric-branching` — observation is telemetry, never
//!   control: a result-affecting crate may bump `alid-obs` metrics but
//!   never read one back outside an exposition surface or a test;
//!
//! plus an **interprocedural lock-set analysis** (a workspace-wide
//! call graph + effect fixpoint, `callgraph.rs` / `lockset.rs`) behind
//! four more rules in the lock-disciplined crates:
//!
//! * `lock-cycle` — a second same-class lock acquisition reachable
//!   while one is held (self-deadlock; replaces the former intra-fn
//!   `lock-order` heuristic);
//! * `exec-under-lock` — an `ExecPolicy` dispatch reachable under a
//!   shard guard (the PR 4 deadlock class, statically banned);
//! * `panic-under-lock` — `unwrap`/`expect`/`panic!`/`assert!`
//!   reachable under a guard (mutex poisoning);
//! * `block-under-lock` — file/socket I/O under a guard.
//!
//! Suppression is per-site and must be justified:
//!
//! ```text
//! // alid-lint: allow(no-unordered-iteration) -- drained into a Vec and sorted below
//! ```
//!
//! An empty reason is itself an error (`bad-allow`), as is an unknown
//! rule name. Findings are emitted as a human table, JSON or SARIF;
//! `--deny` turns any finding into a non-zero exit for CI. See
//! DESIGN.md, "Enforced invariants" and "Interprocedural analysis".

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod lockset;
pub mod report;
pub mod rules;
pub mod scan;

use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub use alid_exec::ExecPolicy;

/// Rule identifiers, in severity-agnostic display order. `bad-allow`
/// (malformed suppression) is a meta-rule: always on, not listed here.
pub const RULES: [&str; 10] = [
    "no-unordered-iteration",
    "no-fma",
    "unsafe-needs-safety",
    "no-raw-threads",
    "no-raw-time",
    "no-metric-branching",
    "lock-cycle",
    "exec-under-lock",
    "panic-under-lock",
    "block-under-lock",
];

/// One finding, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub msg: String,
}

/// Where each rule applies, as workspace-relative path prefixes
/// (forward slashes). Injectable so the fixture tests can point every
/// rule at a corpus directory.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose outputs are part of the determinism contract:
    /// `no-unordered-iteration` fires here.
    pub ordered: Vec<String>,
    /// Kernel crates: `no-fma` fires here.
    pub kernel: Vec<String>,
    /// Paths where thread spawns / clock reads are legitimate (the
    /// exec pool's worker threads, the obs crate — the one sanctioned
    /// clock owner — benches, the HTTP front end). Timing there feeds
    /// reports and I/O deadlines, never output values; the exec
    /// scheduler itself is not listed, so its chunk sizes cannot
    /// become time-dependent.
    /// Doubles as the exposition allowlist for `no-metric-branching`:
    /// where a clock may be read, a metric may be read back out for
    /// telemetry.
    pub timing_allow: Vec<String>,
    /// The lock-disciplined crates: guard regions are tracked and the
    /// four `*-under-lock` / `lock-cycle` rules fire here (effect
    /// summaries are still computed workspace-wide, so a chain from a
    /// service guard into `crates/core` is visible).
    pub lockset: Vec<String>,
    /// Sanctioned lock constructors, by fn name, with the lock classes
    /// they acquire in order. Their bodies are exempt from the
    /// analysis (they acquire one class repeatedly to build a
    /// consistent cut — the one sanctioned shape); their callers hold
    /// the listed classes.
    pub lock_constructors: Vec<(String, Vec<String>)>,
    /// Enabled rules (`--only` / `--disable` reduce this set).
    pub enabled: BTreeSet<String>,
}

impl Config {
    /// The real workspace policy (documented in DESIGN.md).
    pub fn workspace() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Config {
            ordered: v(&["crates/core/", "crates/affinity/", "crates/lsh/", "crates/service/"]),
            kernel: v(&["crates/affinity/", "crates/linalg/"]),
            timing_allow: v(&[
                "crates/exec/src/pool.rs",
                "crates/bench/",
                "crates/obs/",
                "crates/service/src/http.rs",
                "crates/shims/criterion/",
                "examples/",
            ]),
            lockset: v(&["crates/service/", "crates/exec/"]),
            lock_constructors: vec![
                ("lock_shards".into(), vec!["shards".into()]),
                ("lock_all".into(), vec!["shards".into(), "placements".into()]),
            ],
            enabled: RULES.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// A config whose every rule applies everywhere — what the fixture
    /// corpus is linted with.
    pub fn all_paths() -> Self {
        let everywhere = vec![String::new()];
        Config {
            ordered: everywhere.clone(),
            kernel: everywhere.clone(),
            timing_allow: Vec::new(),
            lockset: everywhere,
            lock_constructors: vec![
                ("lock_shards".into(), vec!["shards".into()]),
                ("lock_all".into(), vec!["shards".into(), "placements".into()]),
            ],
            enabled: RULES.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn rule_on(&self, rule: &str) -> bool {
        self.enabled.contains(rule)
    }

    pub fn in_any(prefixes: &[String], rel: &str) -> bool {
        prefixes.iter().any(|p| rel.starts_with(p.as_str()))
    }
}

/// Result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub suppressed: usize,
    pub files_scanned: usize,
}

/// Per-file phase-1 output: the graph unit plus everything that does
/// not need cross-file context.
struct Scanned {
    unit: callgraph::Unit,
    local: Vec<Finding>,
    allows: Vec<Allow>,
    bad: Vec<Finding>,
}

fn scan_file(rel: &str, src: &str, cfg: &Config) -> Scanned {
    let unit = callgraph::unit(rel, src);
    let ctx = rules::Ctx { rel, lx: &unit.lx, fns: &unit.fns, attrs: &unit.attrs, cfg };
    let mut local = Vec::new();
    rules::no_unordered_iteration(&ctx, &mut local);
    rules::no_fma(&ctx, &mut local);
    rules::unsafe_needs_safety(&ctx, &mut local);
    rules::raw_threads_and_time(&ctx, &mut local);
    rules::no_metric_branching(&ctx, &mut local);
    let (allows, bad) = parse_allows(rel, &unit.lx);
    Scanned { unit, local, allows, bad }
}

/// Lints a set of files as one workspace: per-file scanning fans out
/// over `pol` (results come back in input order, so the report is
/// byte-identical for every worker count), then the call graph, effect
/// fixpoint and lock-set rules run over the merged units.
pub fn lint_files(files: &[(String, String)], cfg: &Config, pol: &ExecPolicy) -> Report {
    let mut scanned: Vec<Scanned> = pol.map_tasks(files, |(rel, src)| scan_file(rel, src, cfg));
    let mut units = Vec::with_capacity(scanned.len());
    let mut findings = Vec::new();
    let mut allows: Vec<(String, Vec<Allow>)> = Vec::new();
    for s in scanned.drain(..) {
        findings.extend(s.local);
        findings.extend(s.bad);
        allows.push((s.unit.rel.clone(), s.allows));
        units.push(s.unit);
    }
    let g = callgraph::Graph::build(&units);
    let sums = lockset::summarize(&units, &g, cfg);
    findings.extend(lockset::check(&units, &g, &sums, cfg));
    let mut suppressed = 0usize;
    findings.retain(|f| {
        let covered = f.rule != "bad-allow"
            && allows.iter().any(|(rel, aa)| {
                rel == &f.file
                    && aa.iter().any(|a| a.covers(f.line) && a.rules.iter().any(|r| r == &f.rule))
            });
        if covered {
            suppressed += 1;
        }
        !covered
    });
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.msg).cmp(&(&b.file, b.line, &b.rule, &b.msg))
    });
    findings.dedup();
    Report { findings, suppressed, files_scanned: units.len() }
}

/// Lints one file's source text (single-file view of [`lint_files`]).
/// Returns findings plus the number a suppression annotation covered.
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> (Vec<Finding>, usize) {
    let files = vec![(rel.to_string(), src.to_string())];
    let rep = lint_files(&files, cfg, &ExecPolicy::sequential());
    (rep.findings, rep.suppressed)
}

/// One parsed suppression directive (marker + rules + reason). It covers the
/// statement beginning on the first code line at/after the annotation
/// (so one annotation above a multi-line statement covers all of it).
struct Allow {
    rules: Vec<String>,
    from: u32,
    to: u32,
}

impl Allow {
    fn covers(&self, line: u32) -> bool {
        self.from <= line && line <= self.to
    }
}

const MARKER: &str = "alid-lint:";

fn parse_allows(rel: &str, lx: &lexer::Lexed) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in &lx.comments {
        for (off, text) in c.text.lines().enumerate() {
            let line = c.line + off as u32;
            let Some(at) = text.find(MARKER) else { continue };
            let rest = text[at + MARKER.len()..].trim_start();
            let mut err = |msg: String| {
                bad.push(Finding { file: rel.into(), line, rule: "bad-allow".into(), msg });
            };
            let Some(args) = rest
                .strip_prefix("allow(")
                .and_then(|r| r.find(')').map(|close| (&r[..close], r[close + 1..].trim_start())))
            else {
                err(format!("malformed annotation; expected `{MARKER} allow(<rule>) -- <reason>`"));
                continue;
            };
            let (args, tail) = args;
            let names: Vec<String> =
                args.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
            let unknown: Vec<&String> =
                names.iter().filter(|n| !RULES.contains(&n.as_str())).collect();
            if names.is_empty() {
                err("allow() names no rule".into());
                continue;
            }
            if let Some(u) = unknown.first() {
                err(format!("unknown rule `{u}` (known: {})", RULES.join(", ")));
                continue;
            }
            let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
            if reason.is_empty() {
                err(format!(
                    "suppressing `{}` needs a non-empty reason: `-- <why this is sound>`",
                    names.join(", ")
                ));
                continue;
            }
            // Coverage: the annotation's own line if it has code,
            // otherwise the statement starting at the next code line
            // (through its terminating `;`/`{`, capped at 5 lines).
            let from = if lx.has_code(line) {
                line
            } else {
                let mut l = line + 1;
                while !lx.has_code(l) && (l as usize) < lx.code_lines.len() {
                    l += 1;
                }
                l
            };
            let mut to = from;
            if let Some(first) = lx.toks.iter().position(|t| t.line >= from) {
                for t in &lx.toks[first..] {
                    to = t.line;
                    if t.text == ";" || t.text == "{" || t.line > from + 5 {
                        break;
                    }
                }
            }
            allows.push(Allow { rules: names, from, to });
        }
    }
    (allows, bad)
}

/// Walks `root` for `.rs` files (skipping `target/`, VCS dirs, and the
/// linter's own seeded-violation corpus) and lints them as one
/// workspace.
pub fn lint_root(root: &Path, cfg: &Config, pol: &ExecPolicy) -> std::io::Result<Report> {
    let mut rels = Vec::new();
    collect_rs(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::new();
    for rel in rels {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(lint_files(&files, cfg, pol))
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || name == "fixtures" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Output format for the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
    Sarif,
}

/// The CLI (shared by the `alid-lint` binary and `alid lint`).
/// Returns the process exit code: 0 clean, 1 findings under `--deny`,
/// 2 for a usage or I/O error. A reader that closes stdout early ends
/// the run with 0 and no message; a closed stderr never changes the
/// code.
pub fn cli_main(args: &[String]) -> i32 {
    let mut cfg = Config::workspace();
    let mut deny = false;
    let mut format = Format::Table;
    let mut root: Option<PathBuf> = None;
    let mut pol = ExecPolicy::auto();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => format = Format::Json,
            "--format" => match it.next().map(String::as_str) {
                Some("table") => format = Format::Table,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => return usage_err(&format!("unknown format `{other}`")),
                None => return usage_err("--format needs table|json|sarif"),
            },
            "--workers" => match it.next().and_then(|w| w.parse::<usize>().ok()) {
                Some(0) | None => return usage_err("--workers needs a positive integer"),
                Some(1) => pol = ExecPolicy::sequential(),
                Some(w) => pol = ExecPolicy::workers(w),
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_err("--root needs a path"),
            },
            "--only" => match it.next() {
                Some(list) => {
                    let wanted: BTreeSet<String> =
                        list.split(',').map(|s| s.trim().to_string()).collect();
                    if let Some(u) = wanted.iter().find(|r| !RULES.contains(&r.as_str())) {
                        return usage_err(&format!("unknown rule `{u}`"));
                    }
                    cfg.enabled = wanted;
                }
                None => return usage_err("--only needs a comma-separated rule list"),
            },
            "--disable" => match it.next() {
                Some(list) => {
                    for r in list.split(',').map(str::trim) {
                        if !RULES.contains(&r) {
                            return usage_err(&format!("unknown rule `{r}`"));
                        }
                        cfg.enabled.remove(r);
                    }
                }
                None => return usage_err("--disable needs a comma-separated rule list"),
            },
            "--help" | "-h" => return print_out(&format!("{USAGE}\n")).unwrap_or(0),
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => {
            note("alid-lint: no workspace root found (pass --root)");
            return 2;
        }
    };
    match lint_root(&root, &cfg, &pol) {
        Ok(rep) => {
            let text = match format {
                Format::Json => format!("{}\n", report::to_json(&rep)),
                Format::Sarif => format!("{}\n", report::to_sarif(&rep)),
                Format::Table => report::to_table(&rep),
            };
            if let Some(code) = print_out(&text) {
                code
            } else if deny && !rep.findings.is_empty() {
                1
            } else {
                0
            }
        }
        Err(e) => {
            note(format_args!("alid-lint: {e}"));
            2
        }
    }
}

const USAGE: &str = "usage: alid-lint [options]\n\
     \n\
     Walks the workspace and enforces the determinism & safety rules\n\
     (DESIGN.md, \"Enforced invariants\"), including the interprocedural\n\
     lock-set analysis. Suppress per site with\n\
     `// alid-lint: allow(<rule>) -- <reason>`; the reason is required.\n\
     \n\
     options:\n\
       --root <path>       workspace root (default: nearest [workspace])\n\
       --deny              exit 1 when any finding remains (CI mode)\n\
       --format <f>        table (default) | json | sarif\n\
       --json              alias for --format json\n\
       --workers <n>       parallel file scanning (default: auto)\n\
       --only <rules>      run only these rules\n\
       --disable <rules>   run all but these rules\n\
       --help";

fn usage_err(msg: &str) -> i32 {
    note(format_args!("alid-lint: {msg}\n{USAGE}"));
    2
}

/// Writes `text` to stdout. `None` when it all got out; otherwise the
/// exit code the run ends with: 0 when the reader closed the pipe (it
/// has all it wanted), 2 for any other write error.
fn print_out(text: &str) -> Option<i32> {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => None,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Some(0),
        Err(e) => {
            note(format_args!("alid-lint: writing the report: {e}"));
            Some(2)
        }
    }
}

/// Writes `msg` as one line to stderr, ignoring a closed stderr.
fn note(msg: impl std::fmt::Display) {
    let _ = writeln!(io::stderr().lock(), "{msg}");
}
