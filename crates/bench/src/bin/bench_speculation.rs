//! Speculative-peeling conflict study: conflict rates per worker count
//! on overlapping-cluster workloads.
//!
//! The workload family is the adversarial interleaved-pair chain of
//! `tests/exec_parity.rs` with the pair separation swept from heavily
//! overlapping read sets down to fully disjoint ones (the regime the
//! paper varies in its Section 5 overlap/noise sweeps). For every
//! `(separation, workers)` cell the study runs a full peel pass,
//! checks the clustering is byte-identical to the sequential pass
//! (parity is the whole point of the speculation design), and records
//! the [`alid_core::PeelStats`] telemetry: rounds, accepted / absorbed
//! / re-run speculations, conflict rate and mean round width.
//!
//! Output: an aligned table on stdout plus
//! `experiments/BENCH_speculation.json`.
//!
//! Flags: `--smoke` (tiny sizes for CI), `--full` (larger sweep),
//! `--scale=<f64>`, `--workers=<n>` (extra worker count to include),
//! `--trace-out=<path>` (record phase spans, drained to JSONL at
//! exit).

use std::time::Instant;

use alid_affinity::cost::CostModel;
use alid_bench::fixtures::pair_chain;
use alid_bench::report::fmt;
use alid_bench::{print_table, save_json};
use alid_core::{PeelStats, Peeler};
use alid_exec::ExecPolicy;
use serde::{Json, Serialize};

struct Cli {
    smoke: bool,
    full: bool,
    scale: f64,
    workers: Option<usize>,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli { smoke: false, full: false, scale: 1.0, workers: None, trace_out: None };
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            cli.smoke = true;
        } else if arg == "--full" {
            cli.full = true;
        } else if let Some(v) = arg.strip_prefix("--scale=") {
            cli.scale = v.parse().expect("--scale=<float>");
        } else if let Some(v) = arg.strip_prefix("--workers=") {
            let w: usize = v.parse().expect("--workers=<positive integer>");
            assert!(w >= 1, "--workers must be at least 1");
            cli.workers = Some(w);
        } else if let Some(v) = arg.strip_prefix("--trace-out=") {
            cli.trace_out = Some(std::path::PathBuf::from(v));
        } else if arg == "--help" || arg == "-h" {
            eprintln!(
                "options: --smoke (tiny CI sizes), --full (larger sweep), \
                 --scale=<f64>, --workers=<n> (extra worker count), \
                 --trace-out=<path> (span events as JSONL)"
            );
            std::process::exit(0);
        } else {
            eprintln!("unknown option {arg}; try --help");
            std::process::exit(2);
        }
    }
    cli
}

struct Cell {
    workers: usize,
    runtime_s: f64,
    stats: PeelStats,
}

impl Serialize for Cell {
    fn to_json(&self) -> Json {
        Json::object([
            ("workers", self.workers.to_json()),
            ("runtime_s", self.runtime_s.to_json()),
            ("rounds", self.stats.rounds.len().to_json()),
            ("speculated", self.stats.speculated.to_json()),
            ("accepted", self.stats.accepted.to_json()),
            ("absorbed", self.stats.absorbed.to_json()),
            ("rerun", self.stats.rerun.to_json()),
            ("wasted", self.stats.wasted().to_json()),
            ("conflict_rounds", self.stats.conflict_rounds().to_json()),
            ("conflict_rate", self.stats.conflict_rate().to_json()),
            ("mean_width", self.stats.mean_width().to_json()),
        ])
    }
}

struct Workload {
    name: String,
    sep: f64,
    n: usize,
    cells: Vec<Cell>,
}

impl Serialize for Workload {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            ("sep", self.sep.to_json()),
            ("n", self.n.to_json()),
            ("runs", self.cells.to_json()),
        ])
    }
}

/// Asserts the speculative clustering is byte-identical to the
/// sequential baseline — the bench doubles as a parity harness.
fn assert_parity(
    seq: &alid_affinity::clustering::Clustering,
    par: &alid_affinity::clustering::Clustering,
    tag: &str,
) {
    assert_eq!(seq.clusters.len(), par.clusters.len(), "{tag}: cluster count diverged");
    for (a, b) in seq.clusters.iter().zip(&par.clusters) {
        assert_eq!(a.members, b.members, "{tag}: members diverged");
        let aw: Vec<u64> = a.weights.iter().map(|w| w.to_bits()).collect();
        let bw: Vec<u64> = b.weights.iter().map(|w| w.to_bits()).collect();
        assert_eq!(aw, bw, "{tag}: weights diverged");
        assert_eq!(a.density.to_bits(), b.density.to_bits(), "{tag}: density diverged");
    }
}

fn main() {
    let cli = parse_cli();
    // Tracing is observation only — assert_parity still proves the
    // speculative outputs byte-identical with it on.
    if cli.trace_out.is_some() {
        alid_obs::trace::enable(alid_obs::trace::DEFAULT_CAPACITY);
    }
    let pairs = if cli.smoke {
        8
    } else if cli.full {
        96
    } else {
        32
    };
    let pairs = ((pairs as f64 * cli.scale) as usize).max(4);
    let seps: &[f64] = if cli.smoke { &[0.5, 2.0] } else { &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0] };
    let mut worker_counts = vec![2usize, 4, 8];
    if let Some(w) = cli.workers {
        if !worker_counts.contains(&w) {
            worker_counts.push(w);
        }
    }

    let mut workloads = Vec::new();
    let mut rows = Vec::new();
    for &sep in seps {
        let (ds, params) = pair_chain(pairs, sep);
        let seq_started = Instant::now();
        let (seq, _) = Peeler::new(&ds, params, CostModel::shared()).detect_all_with_stats();
        let seq_runtime = seq_started.elapsed().as_secs_f64();
        let mut cells = Vec::new();
        for &workers in &worker_counts {
            let p = params.with_exec(ExecPolicy::workers(workers));
            let started = Instant::now();
            let (cl, stats) = Peeler::new(&ds, p, CostModel::shared()).detect_all_with_stats();
            let runtime_s = started.elapsed().as_secs_f64();
            assert_parity(&seq, &cl, &format!("sep={sep} workers={workers}"));
            rows.push(vec![
                format!("{sep}"),
                workers.to_string(),
                stats.rounds.len().to_string(),
                stats.accepted.to_string(),
                stats.absorbed.to_string(),
                stats.rerun.to_string(),
                fmt(stats.conflict_rate()),
                fmt(stats.mean_width()),
                fmt(runtime_s),
            ]);
            cells.push(Cell { workers, runtime_s, stats });
        }
        eprintln!(
            "sep={sep}: {} clusters sequential in {:.3}s; swept {} parallel cells",
            seq.clusters.len(),
            seq_runtime,
            cells.len()
        );
        workloads.push(Workload { name: format!("pairs_sep_{sep}"), sep, n: ds.len(), cells });
    }
    print_table(
        "Speculative peeling under overlap — conflict rates per worker count",
        &[
            "sep",
            "workers",
            "rounds",
            "accepted",
            "absorbed",
            "rerun",
            "conflict_rate",
            "mean_width",
            "runtime_s",
        ],
        &rows,
    );

    let max_workers = worker_counts.iter().copied().max().unwrap_or(2);
    let mut fields = alid_bench::report::run_header("alid-bench/speculation/3", max_workers);
    fields.extend([
        ("smoke", cli.smoke.to_json()),
        ("pairs", pairs.to_json()),
        ("workloads", workloads.to_json()),
    ]);
    save_json("BENCH_speculation", &Json::object(fields));

    if let Some(path) = &cli.trace_out {
        match alid_obs::trace::drain_to_file(path) {
            Ok(n) => eprintln!("[traced {n} span events to {}]", path.display()),
            Err(e) => eprintln!("[trace-out {}: {e}]", path.display()),
        }
    }
}
