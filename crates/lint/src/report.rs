//! Finding output: an aligned human table and hand-rolled JSON (the
//! crate is std-only by design — see the workspace manifest's note on
//! registry access; pulling the serde shim in here would make the
//! linter depend on a crate it lints).

use crate::Report;

/// `file:line  rule  message`, aligned, with a one-line summary.
pub fn to_table(rep: &Report) -> String {
    let mut out = String::new();
    let mut rows: Vec<(String, &str, &str)> = rep
        .findings
        .iter()
        .map(|f| (format!("{}:{}", f.file, f.line), f.rule.as_str(), f.msg.as_str()))
        .collect();
    rows.sort();
    let loc_w = rows.iter().map(|(l, _, _)| l.len()).max().unwrap_or(0);
    let rule_w = rows.iter().map(|(_, r, _)| r.len()).max().unwrap_or(0);
    for (loc, rule, msg) in &rows {
        out.push_str(&format!("{loc:<loc_w$}  {rule:<rule_w$}  {msg}\n"));
    }
    out.push_str(&format!(
        "{} finding{} ({} suppressed by annotations) across {} files\n",
        rep.findings.len(),
        if rep.findings.len() == 1 { "" } else { "s" },
        rep.suppressed,
        rep.files_scanned,
    ));
    out
}

pub fn to_json(rep: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in rep.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&f.file),
            f.line,
            json_str(&f.rule),
            json_str(&f.msg)
        ));
    }
    if !rep.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"suppressed\": {},\n", rep.suppressed));
    out.push_str(&format!("  \"files_scanned\": {}\n}}", rep.files_scanned));
    out
}

/// Minimal SARIF 2.1.0 — one run, one rule descriptor per rule that
/// fired, one result per finding. Enough for GitHub code scanning and
/// `--deny` CI annotation upload; nothing speculative.
pub fn to_sarif(rep: &Report) -> String {
    let mut rules: Vec<&str> = rep.findings.iter().map(|f| f.rule.as_str()).collect();
    rules.sort();
    rules.dedup();
    let mut out = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \"$schema\": \
         \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [\n    {\n      \
         \"tool\": {\n        \"driver\": {\n          \"name\": \"alid-lint\",\n          \
         \"informationUri\": \"DESIGN.md\",\n          \"rules\": [",
    );
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n            {{\"id\": {}}}", json_str(r)));
    }
    if !rules.is_empty() {
        out.push_str("\n          ");
    }
    out.push_str("]\n        }\n      },\n      \"results\": [");
    for (i, f) in rep.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": {},\n          \"level\": \"error\",\n          \
             \"message\": {{\"text\": {}}},\n          \"locations\": [\n            \
             {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}\n          ]\n        }}",
            json_str(&f.rule),
            json_str(&f.msg),
            json_str(&f.file),
            f.line
        ));
    }
    if !rep.findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
