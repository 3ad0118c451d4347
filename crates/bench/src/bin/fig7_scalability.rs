//! Fig. 7 — scalability of the affinity-based methods.
//!
//! Twelve panels in the paper: runtime (a–d), memory (e–h) and AVG-F
//! (i–l) against data-set size, on the three synthetic regimes
//! (ω = 1.0, η = 0.9, P = 1000) and on NDI. The claims to reproduce:
//! ALID's runtime/memory growth orders match Table 1 and sit far below
//! AP/IID/SEA (which are ~quadratic and hit the memory wall first),
//! while AVG-F stays comparable across methods.

use alid_bench::report::fmt;
use alid_bench::runners::{run_alid, run_ap_dense, run_iid_dense, run_sea_dense};
use alid_bench::{loglog_slope, parse_args, print_table, save_json, RunCfg, RunRecord};
use alid_data::groundtruth::LabeledDataset;
use alid_data::ndi::ndi;
use alid_data::synthetic::{generate, Regime, SyntheticConfig};

/// Per-method accumulators: (name, sizes, runtimes, peak MiB).
type MethodSeries = (&'static str, Vec<f64>, Vec<f64>, Vec<f64>);
/// One figure panel: a label plus its data-set factory.
type Panel = (&'static str, Box<dyn Fn(usize) -> LabeledDataset>);

fn main() {
    let args = parse_args();
    let sizes: Vec<usize> = if args.full {
        vec![1_000, 2_000, 4_000, 8_000, 16_000]
    } else {
        vec![500, 1_000, 2_000, 4_000]
    };
    let sizes: Vec<usize> =
        sizes.iter().map(|&n| ((n as f64 * args.scale) as usize).max(200)).collect();
    let cfg = RunCfg::default();
    let mut all = Vec::new();

    let panels: Vec<Panel> = vec![
        (
            "synthetic a*=wn",
            Box::new(|n| {
                generate(&SyntheticConfig::paper(n, Regime::Proportional { omega: 1.0 }, 7))
            }),
        ),
        (
            "synthetic a*=n^0.9",
            Box::new(|n| generate(&SyntheticConfig::paper(n, Regime::Sublinear { eta: 0.9 }, 7))),
        ),
        (
            "synthetic a*<=1000",
            Box::new(|n| generate(&SyntheticConfig::paper(n, Regime::Bounded { p: 1000 }, 7))),
        ),
        (
            "NDI-sim",
            Box::new(|n| {
                // Subsets of NDI by fractional scale (the paper samples
                // the original data set).
                ndi(n as f64 / 109_815.0, 7)
            }),
        ),
    ];

    for (panel, make) in panels {
        let mut rows = Vec::new();
        let mut per_method: Vec<MethodSeries> = vec![
            ("AP", vec![], vec![], vec![]),
            ("IID", vec![], vec![], vec![]),
            ("SEA", vec![], vec![], vec![]),
            ("ALID", vec![], vec![], vec![]),
        ];
        for &n in &sizes {
            let ds = make(n);
            let recs = [
                run_ap_dense(&ds, &cfg),
                run_iid_dense(&ds, &cfg),
                run_sea_dense(&ds, &cfg),
                run_alid(&ds, &cfg),
            ];
            for (slot, rec) in per_method.iter_mut().zip(recs) {
                eprintln!(
                    "[{panel} n={}] {}: {} s, {} MiB, AVG-F {}",
                    ds.len(),
                    rec.method,
                    fmt(rec.runtime_s),
                    fmt(rec.peak_mib),
                    fmt(rec.avg_f)
                );
                rows.push(vec![
                    format!("{}", ds.len()),
                    rec.method.clone(),
                    if rec.oom { "OOM".into() } else { fmt(rec.runtime_s) },
                    if rec.oom { "OOM".into() } else { fmt(rec.peak_mib) },
                    fmt(rec.avg_f),
                ]);
                if !rec.oom {
                    slot.1.push(ds.len() as f64);
                    slot.2.push(rec.runtime_s);
                    slot.3.push(rec.peak_mib);
                }
                all.push(rec);
            }
        }
        print_table(
            &format!("Fig. 7 panel: {panel} (runtime / memory / AVG-F vs n)"),
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
            &format!("{panel}: fitted log-log growth orders"),
            &["method", "runtime slope", "memory slope"],
            &slope_rows,
        );
    }
    save_json("fig7_scalability", &all);
    summarize(&all);
}

fn summarize(all: &[RunRecord]) {
    // The paper's headline: at the largest common size ALID is the
    // fastest and smallest affinity-based method.
    let max_n = all.iter().filter(|r| !r.oom).map(|r| r.n).max().unwrap_or(0);
    let at_max: Vec<&RunRecord> = all.iter().filter(|r| r.n == max_n && !r.oom).collect();
    if let Some(fastest) = at_max.iter().min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s)) {
        eprintln!("\nfastest method at n={max_n}: {}", fastest.method);
    }
}
