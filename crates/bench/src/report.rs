//! Aligned console tables plus JSON mirrors under `experiments/`.

use std::fs;
use std::io::Write;
use std::path::Path;

use serde::{Json, Serialize};

/// The provenance header every `experiments/*.json` report starts
/// with, so trajectories are comparable across machines and commits:
/// a schema tag (report format, versioned by its producer), the git
/// revision the binary was built from (best effort — "unknown"
/// outside a checkout), the host's CPU count, and the effective
/// exec-layer worker count the run used. `host_cpus` vs `workers` is
/// what lets a reader tell a 1-CPU-container curve from a genuinely
/// multi-core one (the long-carried ROADMAP re-measure item). The
/// `metrics` field is a flat snapshot of the process-global registry
/// at header-build time (pool activity, peeler telemetry), so every
/// report carries the machine state that shaped its numbers — build
/// the header *after* the measured work.
pub fn run_header(schema: &str, workers: usize) -> Vec<(&'static str, Json)> {
    vec![
        ("schema", schema.to_json()),
        ("git_rev", git_rev().to_json()),
        ("host_cpus", host_cpus().to_json()),
        ("workers", workers.to_json()),
        ("metrics", metrics_snapshot()),
    ]
}

/// The process-global metrics registry as a flat `series -> value`
/// JSON object (histograms appear as their `_count`/`_sum` pair).
pub fn metrics_snapshot() -> Json {
    // alid-lint: allow(no-metric-branching) -- provenance exposition: values land in the report header, never in measured outputs
    let samples = alid_obs::global().snapshot_samples();
    Json::Obj(samples.into_iter().map(|s| (s.series, s.value.to_json())).collect())
}

/// The parallelism the OS reports for this host (1 when detection
/// fails) — recorded so shard/worker curves are interpretable.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `git rev-parse --short HEAD`, or "unknown" when git or the
/// repository is unavailable (the report must never fail over
/// provenance).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints a titled, column-aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "\n== {title} ==");
    let head: Vec<String> = headers.iter().zip(&widths).map(|(h, w)| format!("{h:<w$}")).collect();
    let _ = writeln!(out, "{}", head.join("  "));
    let _ = writeln!(out, "{}", "-".repeat(head.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
        let _ = writeln!(out, "{}", line.join("  "));
    }
}

/// Serialises `value` to `experiments/<name>.json` (best effort — the
/// tables on stdout are the primary artifact).
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = Path::new("experiments");
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            let _ = fs::write(&path, s);
            eprintln!("[saved {}]", path.display());
        }
        Err(e) => eprintln!("[json error for {name}: {e}]"),
    }
}

/// Formats a float compactly for table cells.
pub fn fmt(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.abs() < 0.001 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_covers_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(f64::NAN), "-");
        assert_eq!(fmt(1.5), "1.500");
        assert!(fmt(123456.0).contains('e'));
        assert!(fmt(0.00001).contains('e'));
    }

    #[test]
    fn run_header_has_the_five_provenance_fields() {
        let header = run_header("alid-bench/test/1", 4);
        let obj = Json::Obj(header.iter().map(|(k, v)| (k.to_string(), v.clone())).collect());
        assert_eq!(obj.get("schema").and_then(Json::as_str), Some("alid-bench/test/1"));
        assert_eq!(obj.get("workers").and_then(Json::as_u64), Some(4));
        let rev = obj.get("git_rev").and_then(Json::as_str).unwrap();
        assert!(!rev.is_empty());
        let cpus = obj.get("host_cpus").and_then(Json::as_u64).unwrap();
        assert!(cpus >= 1, "host CPU count must be at least 1");
        // The metrics snapshot is always present (possibly empty when
        // nothing registered yet) and flat: series name -> number.
        let metrics = obj.get("metrics").expect("metrics snapshot field");
        assert!(matches!(metrics, Json::Obj(_)), "{metrics:?}");
    }

    /// Registered global series must surface in the header snapshot —
    /// this is the path that stamps pool/peeler state into every
    /// `experiments/*.json`.
    #[test]
    fn metrics_snapshot_carries_registered_series() {
        alid_obs::global().counter("alid_bench_header_probe_total", "test probe", &[]).add(3);
        let snap = metrics_snapshot();
        assert_eq!(snap.get("alid_bench_header_probe_total").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_widths() {
        print_table(
            "t",
            &["a", "long-header"],
            &[vec!["xxxxxxxxxx".into(), "1".into()], vec!["y".into(), "2".into()]],
        );
    }
}
