//! Fig. 9 — single-machine scalability on SIFT subsets.
//!
//! The paper samples subsets of SIFT-50M and runs the affinity-based
//! methods until each hits the 12 GB RAM wall; ALID processes 1.29M
//! descriptors where the baselines stop around 0.04M, with visibly
//! lower runtime/memory growth orders. Here the budget is configurable
//! (default 1.5 GB) and the subsets are scaled down; the ordering and
//! the slopes are the reproduced shape.

use alid_bench::report::fmt;
use alid_bench::runners::{run_alid, run_ap_dense, run_iid_dense, run_sea_dense};
use alid_bench::RunCfg;
use alid_bench::{loglog_slope, parse_args, print_table, save_json};
use alid_data::sift::{sift, SiftConfig};

/// Per-method accumulators: (name, sizes, runtimes, peak MiB).
type MethodSeries = (&'static str, Vec<f64>, Vec<f64>, Vec<f64>);

fn main() {
    let args = parse_args();
    let sizes: Vec<usize> = if args.full {
        vec![2_000, 5_000, 10_000, 20_000, 50_000, 100_000]
    } else {
        vec![1_000, 2_000, 4_000, 8_000]
    };
    let sizes: Vec<usize> =
        sizes.iter().map(|&n| ((n as f64 * args.scale) as usize).max(500)).collect();
    let cfg = RunCfg::default();
    let mut rows = Vec::new();
    let mut all = Vec::new();
    let mut per_method: Vec<MethodSeries> = vec![
        ("AP", vec![], vec![], vec![]),
        ("IID", vec![], vec![], vec![]),
        ("SEA", vec![], vec![], vec![]),
        ("ALID", vec![], vec![], vec![]),
    ];
    for &n in &sizes {
        let ds = sift(&SiftConfig::scaled(n, 13));
        let recs = [
            run_ap_dense(&ds, &cfg),
            run_iid_dense(&ds, &cfg),
            run_sea_dense(&ds, &cfg),
            run_alid(&ds, &cfg),
        ];
        for (slot, rec) in per_method.iter_mut().zip(recs) {
            eprintln!(
                "[n={n}] {}: {} s, {} MiB",
                rec.method,
                if rec.oom { "OOM".into() } else { fmt(rec.runtime_s) },
                if rec.oom { "OOM".into() } else { fmt(rec.peak_mib) },
            );
            rows.push(vec![
                n.to_string(),
                rec.method.clone(),
                if rec.oom { "OOM".into() } else { fmt(rec.runtime_s) },
                if rec.oom { "OOM".into() } else { fmt(rec.peak_mib) },
                fmt(rec.avg_f),
            ]);
            if !rec.oom {
                slot.1.push(n as f64);
                slot.2.push(rec.runtime_s);
                slot.3.push(rec.peak_mib);
            }
            all.push(rec);
        }
    }
    print_table(
        "Fig. 9 — SIFT subsets: runtime & memory per method (OOM = exceeds budget, like the paper's 12 GB wall)",
        &["n", "method", "runtime_s", "peak_MiB", "AVG-F"],
        &rows,
    );
    let slope_rows: Vec<Vec<String>> = per_method
        .iter()
        .map(|(m, ns, ts, ms)| {
            vec![m.to_string(), fmt(loglog_slope(ns, ts)), fmt(loglog_slope(ns, ms))]
        })
        .collect();
    print_table(
        "Fig. 9 — fitted log-log growth orders",
        &["method", "runtime slope", "memory slope"],
        &slope_rows,
    );
    save_json("fig9_sift_scalability", &all);
}
