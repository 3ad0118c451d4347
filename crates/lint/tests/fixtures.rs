//! The seeded-violation corpus: every rule must fire on its fixture,
//! every annotation must suppress, and disabling a rule must silence
//! it (proving a finding comes from that rule, not a neighbour). The
//! final test lints the real workspace and requires it clean — the
//! same gate CI runs via `alid lint --deny`.

use std::path::Path;

use alid_lint::{lexer, lint_files, lint_root, lint_source, Config, ExecPolicy, Finding};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

fn lint_fixture(name: &str, cfg: &Config) -> (Vec<Finding>, usize) {
    lint_source(name, &fixture(name), cfg)
}

fn lines(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

fn without(rule: &str) -> Config {
    let mut cfg = Config::all_paths();
    cfg.enabled.remove(rule);
    cfg
}

#[test]
fn unordered_iteration_fires_and_suppresses() {
    let (f, suppressed) = lint_fixture("unordered.rs", &Config::all_paths());
    assert_eq!(lines(&f, "no-unordered-iteration"), vec![8, 11, 13]);
    assert_eq!(f.len(), 3, "only this rule may fire: {f:?}");
    assert_eq!(suppressed, 1, "the annotated values() drain");

    let (f, _) = lint_fixture("unordered.rs", &without("no-unordered-iteration"));
    assert!(f.is_empty(), "disabled rule must be silent: {f:?}");
}

#[test]
fn fma_fires_and_suppresses() {
    let (f, suppressed) = lint_fixture("fma.rs", &Config::all_paths());
    assert_eq!(lines(&f, "no-fma"), vec![4, 8, 20]);
    assert_eq!(f.len(), 3, "only this rule may fire: {f:?}");
    assert_eq!(suppressed, 1, "the annotated mul_add");

    let (f, _) = lint_fixture("fma.rs", &without("no-fma"));
    assert!(f.is_empty(), "disabled rule must be silent: {f:?}");
}

#[test]
fn unsafe_needs_safety_fires_and_suppresses() {
    let (f, suppressed) = lint_fixture("safety.rs", &Config::all_paths());
    assert_eq!(lines(&f, "unsafe-needs-safety"), vec![5, 23, 33]);
    assert_eq!(f.len(), 3, "only this rule may fire: {f:?}");
    assert_eq!(suppressed, 1, "the annotated block");

    let (f, _) = lint_fixture("safety.rs", &without("unsafe-needs-safety"));
    assert!(f.is_empty(), "disabled rule must be silent: {f:?}");
}

#[test]
fn raw_threads_and_time_fire_and_suppress() {
    let (f, suppressed) = lint_fixture("timing.rs", &Config::all_paths());
    assert_eq!(lines(&f, "no-raw-threads"), vec![6, 12]);
    assert_eq!(lines(&f, "no-raw-time"), vec![16, 21]);
    assert_eq!(f.len(), 4, "only these rules may fire: {f:?}");
    assert_eq!(suppressed, 2, "one annotated spawn, one annotated clock read");

    let (f, _) = lint_fixture("timing.rs", &without("no-raw-threads"));
    assert!(lines(&f, "no-raw-threads").is_empty());
    assert_eq!(lines(&f, "no-raw-time").len(), 2, "sibling rule unaffected");

    let (f, _) = lint_fixture("timing.rs", &without("no-raw-time"));
    assert!(lines(&f, "no-raw-time").is_empty());
    assert_eq!(lines(&f, "no-raw-threads").len(), 2, "sibling rule unaffected");

    // The workspace policy allowlists the exec pool's thread file, not
    // the exec scheduler: a clock read there would make chunk sizes
    // time-dependent. The journal flushes on its callers' threads and
    // times fsyncs through `alid-obs`, so it is not listed either.
    let cfg = Config::workspace();
    for path in ["crates/exec/src/lib.rs", "crates/service/src/journal.rs"] {
        let (f, _) = lint_source(path, &fixture("timing.rs"), &cfg);
        assert_eq!(lines(&f, "no-raw-threads"), vec![6, 12], "{path}");
        assert_eq!(lines(&f, "no-raw-time"), vec![16, 21], "{path}");
    }
    let (f, _) = lint_source("crates/exec/src/pool.rs", &fixture("timing.rs"), &cfg);
    assert!(f.is_empty(), "the pool file is allowlisted: {f:?}");
}

#[test]
fn metric_branching_fires_and_suppresses() {
    let (f, suppressed) = lint_fixture("metrics.rs", &Config::all_paths());
    assert_eq!(lines(&f, "no-metric-branching"), vec![6, 12, 13]);
    assert_eq!(f.len(), 3, "write-only handles and the test mod must stay silent: {f:?}");
    assert_eq!(suppressed, 1, "the annotated snapshot_samples read");

    let (f, _) = lint_fixture("metrics.rs", &without("no-metric-branching"));
    assert!(f.is_empty(), "disabled rule must be silent: {f:?}");
}

/// The two-file lock-set corpus, linted as one workspace (the
/// transitive cases need `helpers.rs` in the same call graph).
fn lint_lockset(cfg: &Config) -> (Vec<Finding>, usize) {
    let files: Vec<(String, String)> = ["lockset/svc.rs", "lockset/helpers.rs"]
        .iter()
        .map(|rel| (rel.to_string(), fixture(rel)))
        .collect();
    let rep = lint_files(&files, cfg, &ExecPolicy::sequential());
    (rep.findings, rep.suppressed)
}

fn msg_of(findings: &[Finding], rule: &str, line: u32) -> String {
    findings
        .iter()
        .find(|f| f.rule == rule && f.line == line)
        .unwrap_or_else(|| panic!("no {rule} at {line}: {findings:#?}"))
        .msg
        .clone()
}

#[test]
fn lock_cycle_fires_and_suppresses() {
    let (f, suppressed) = lint_lockset(&Config::all_paths());
    assert_eq!(lines(&f, "lock-cycle"), vec![30, 37]);
    assert_eq!(suppressed, 4, "one annotated site per rule fixture");

    // The transitive case reports the accessor's own acquisition.
    let msg = msg_of(&f, "lock-cycle", 37);
    assert!(
        msg.contains(
            "witness: `shard` (lockset/svc.rs:37) → `.lock()` on `shards` (lockset/svc.rs:21)"
        ),
        "witness chain mismatch: {msg}"
    );

    let (f, _) = lint_lockset(&without("lock-cycle"));
    assert!(lines(&f, "lock-cycle").is_empty(), "disabled rule must be silent");
}

#[test]
fn exec_under_lock_catches_the_seeded_deadlock_pattern() {
    let (f, _) = lint_lockset(&Config::all_paths());
    assert_eq!(lines(&f, "exec-under-lock"), vec![64]);

    // The PR 4 shape: a shard guard held across a dispatch two calls
    // down — the witness walks the whole chain into the other file.
    let msg = msg_of(&f, "exec-under-lock", 64);
    assert!(
        msg.contains(
            "witness: `help_foreign` (lockset/svc.rs:64) → fan_out (lockset/helpers.rs:16) \
             → `.map_indexed(…)` dispatch (lockset/helpers.rs:20)"
        ),
        "multi-hop witness mismatch: {msg}"
    );

    let (f, _) = lint_lockset(&without("exec-under-lock"));
    assert!(lines(&f, "exec-under-lock").is_empty(), "disabled rule must be silent");
}

#[test]
fn panic_under_lock_fires_directly_and_transitively() {
    let (f, _) = lint_lockset(&Config::all_paths());
    assert_eq!(lines(&f, "panic-under-lock"), vec![83, 88]);

    let msg = msg_of(&f, "panic-under-lock", 88);
    assert!(
        msg.contains(
            "witness: `validate_stream` (lockset/svc.rs:88) → `assert!` (lockset/helpers.rs:24)"
        ),
        "witness chain mismatch: {msg}"
    );

    let (f, _) = lint_lockset(&without("panic-under-lock"));
    assert!(lines(&f, "panic-under-lock").is_empty(), "disabled rule must be silent");
}

#[test]
fn block_under_lock_fires_directly_and_transitively() {
    let (f, _) = lint_lockset(&Config::all_paths());
    assert_eq!(lines(&f, "block-under-lock"), vec![106, 112]);

    let msg = msg_of(&f, "block-under-lock", 112);
    assert!(
        msg.contains(
            "witness: `slurp` (lockset/svc.rs:112) → `fs::read()` (lockset/helpers.rs:32)"
        ),
        "witness chain mismatch: {msg}"
    );

    let (f, _) = lint_lockset(&without("block-under-lock"));
    assert!(lines(&f, "block-under-lock").is_empty(), "disabled rule must be silent");
}

#[test]
fn block_method_names_count_only_outside_the_workspace() {
    let files = vec![("lockset/flush.rs".to_string(), fixture("lockset/flush.rs"))];
    let rep = lint_files(&files, &Config::all_paths(), &ExecPolicy::sequential());
    // Line 28's `spare.flush()` resolves to `Ledger::flush`, which does
    // no I/O; line 35's `file.flush()` is `Write::flush` on a `File`.
    assert_eq!(lines(&rep.findings, "block-under-lock"), vec![35], "{:#?}", rep.findings);
}

#[test]
fn lockset_fires_only_the_four_rules() {
    let (f, _) = lint_lockset(&Config::all_paths());
    assert_eq!(f.len(), 7, "exactly the seeded sites may fire: {f:#?}");
}

/// Finding order is part of the output contract: the parallel scan
/// must produce byte-identical reports for every worker count.
#[test]
fn parallel_scan_is_deterministic_across_worker_counts() {
    let cfg = Config::all_paths();
    let names = [
        "lockset/svc.rs",
        "lockset/helpers.rs",
        "unordered.rs",
        "fma.rs",
        "safety.rs",
        "timing.rs",
        "metrics.rs",
        "allow_bad.rs",
        "lexer_edges.rs",
    ];
    let files: Vec<(String, String)> =
        names.iter().map(|rel| (rel.to_string(), fixture(rel))).collect();
    let base = lint_files(&files, &cfg, &ExecPolicy::sequential());
    assert!(!base.findings.is_empty());
    for pol in [ExecPolicy::workers(2), ExecPolicy::workers(5), ExecPolicy::auto()] {
        let rep = lint_files(&files, &cfg, &pol);
        assert_eq!(base.findings, rep.findings, "worker count changed the report");
        assert_eq!(base.suppressed, rep.suppressed);
    }
}

#[test]
fn lexer_edges_never_trip_any_rule() {
    let (f, suppressed) = lint_fixture("lexer_edges.rs", &Config::all_paths());
    assert!(f.is_empty(), "keywords in strings/comments must be invisible: {f:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn malformed_annotations_are_findings_themselves() {
    let (f, _) = lint_fixture("allow_bad.rs", &Config::all_paths());
    assert_eq!(lines(&f, "bad-allow"), vec![5, 10, 15, 20, 25]);
    assert_eq!(f.len(), 5, "only bad-allow may fire: {f:?}");

    // bad-allow is a meta-rule: disabling every listed rule leaves it on.
    let mut cfg = Config::all_paths();
    cfg.enabled.clear();
    let (f, _) = lint_fixture("allow_bad.rs", &cfg);
    assert_eq!(lines(&f, "bad-allow").len(), 5);
}

/// Raw-string hash depths, nested block comments, lifetime-vs-char and
/// raw identifiers straight through the lexer (the fixture above
/// checks the same shapes end-to-end through the rules).
#[test]
fn lexer_edge_tokens() {
    let lx = lexer::lex(r####"let s = r###"has "## inside"###;"####);
    assert_eq!(lx.toks.iter().filter(|t| t.kind == lexer::Kind::StrLit).count(), 1);

    let lx = lexer::lex("/* a /* b /* c */ */ */ fn f() {}");
    assert_eq!(lx.comments.len(), 1);
    assert!(lx.toks.iter().any(|t| t.text == "fn"));

    let lx = lexer::lex("fn g<'a>(x: &'a u8) -> u8 { let c = 'x'; *x + c as u8 }");
    assert_eq!(lx.toks.iter().filter(|t| t.kind == lexer::Kind::Lifetime).count(), 2);
    assert_eq!(lx.toks.iter().filter(|t| t.kind == lexer::Kind::CharLit).count(), 1);

    let lx = lexer::lex("let r#unsafe = 1;");
    assert!(lx.toks.iter().any(|t| t.kind == lexer::Kind::Ident && t.text == "unsafe"));
    // ...but a raw identifier must not read as the `unsafe` keyword in
    // rules: the lexer marks it by keeping the `r#` out of the text
    // while rules only see real keyword positions via statement shape.
}

/// The workspace itself must lint clean — with all ten rules. This is
/// the self-test behind the CI `--deny` gate; real sites the
/// interprocedural rules flagged are each carrying a reasoned `allow`,
/// which must keep counting as suppressions here.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();

    let cfg = Config::workspace();
    assert!(["lock-cycle", "exec-under-lock", "panic-under-lock", "block-under-lock"]
        .iter()
        .all(|r| cfg.rule_on(r)));
    let rep = lint_root(&root, &cfg, &ExecPolicy::auto()).expect("workspace walk");
    assert!(rep.findings.is_empty(), "workspace findings: {:#?}", rep.findings);
    assert!(rep.files_scanned > 100, "walk looks truncated: {}", rep.files_scanned);
    assert!(rep.suppressed >= 8, "the reasoned allows must register: {}", rep.suppressed);

    // Worker count must not change the report.
    let seq = lint_root(&root, &cfg, &ExecPolicy::sequential()).expect("workspace walk");
    assert_eq!(seq.findings, rep.findings);
    assert_eq!(seq.suppressed, rep.suppressed);
}
