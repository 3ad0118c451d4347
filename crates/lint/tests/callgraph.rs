//! Call-graph builder integration tests over the multi-file fixture
//! (`fixtures/callgraph/`): exact resolved edges for cross-module
//! calls, trait-dispatch ambiguity (typed by a parameter, a binding or
//! a closure parameter annotation), shadowed fn names and recursion,
//! plus the merged-candidate fallback flag.

use std::path::Path;

use alid_lint::callgraph::{unit, Graph, Unit};

/// Unit 0 = `a.rs`, 1 = `b.rs`, 2 = `c.rs`.
fn fixture_units() -> Vec<Unit> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/callgraph");
    ["a.rs", "b.rs", "c.rs"]
        .iter()
        .map(|name| {
            let src =
                std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            unit(&format!("callgraph/{name}"), &src)
        })
        .collect()
}

/// Resolved edges of `caller` as `(callee qname, callee unit, merged)`,
/// sorted — unit index disambiguates the two shadowed `helper`s.
fn resolved(g: &Graph, caller: &str) -> Vec<(String, usize, bool)> {
    let id = g.find(caller).unwrap_or_else(|| panic!("no fn `{caller}` in graph"));
    let mut out: Vec<(String, usize, bool)> = g.calls[id]
        .iter()
        .flat_map(|c| c.callees.iter().map(|&k| (g.qname(k), g.fns[k].unit, c.merged)))
        .collect();
    out.sort();
    out
}

#[test]
fn typed_field_chain_and_same_file_helper_resolve_exactly() {
    let g = Graph::build(&fixture_units());
    assert_eq!(
        resolved(&g, "Widget::render"),
        vec![("Label::paint".into(), 0, false), ("helper".into(), 0, false)],
        "field chain types the receiver; bare `helper()` prefers module A's own"
    );
}

#[test]
fn recursion_is_a_self_edge() {
    let g = Graph::build(&fixture_units());
    assert_eq!(resolved(&g, "recurse"), vec![("recurse".into(), 0, false)]);
    assert_eq!(resolved(&g, "helper"), vec![("recurse".into(), 0, false)]);
}

#[test]
fn typed_trait_dispatch_resolves_to_one_impl() {
    let g = Graph::build(&fixture_units());
    assert_eq!(
        resolved(&g, "show"),
        vec![("Panel::draw".into(), 1, false)],
        "`p: &Panel` hints must exclude Sprite's impl"
    );
}

#[test]
fn untyped_trait_dispatch_merges_every_impl() {
    let g = Graph::build(&fixture_units());
    assert_eq!(
        resolved(&g, "blit"),
        vec![("Panel::draw".into(), 1, true), ("Sprite::draw".into(), 1, true)],
        "unresolvable receiver falls back to merging all candidates, flagged merged"
    );
}

#[test]
fn annotated_closure_parameter_types_its_receiver() {
    let g = Graph::build(&fixture_units());
    assert_eq!(
        resolved(&g, "show_each"),
        vec![("Panel::draw".into(), 1, false)],
        "`|p: &Panel|` must exclude Sprite's impl"
    );
    assert_eq!(
        resolved(&g, "blit_each"),
        vec![("Panel::draw".into(), 1, true), ("Sprite::draw".into(), 1, true)],
        "an unannotated closure parameter keeps the merge-all fallback"
    );
}

#[test]
fn shadowed_helpers_stay_in_their_modules() {
    let g = Graph::build(&fixture_units());
    // Panel::draw's bare call binds to B's own helper, never A's.
    assert_eq!(resolved(&g, "Panel::draw"), vec![("helper".into(), 1, false)]);
    // C has no local helper: the path call resolves by module name,
    // the bare call merges both shadowed candidates.
    assert_eq!(
        resolved(&g, "run"),
        vec![("helper".into(), 0, false), ("helper".into(), 0, false), ("helper".into(), 1, false),]
    );
}
