//! Speculative-peeling conflict study — closes the ROADMAP item
//! "measure conflict rates on overlapping-cluster workloads and
//! consider adaptive batch width" with numbers.
//!
//! The workload family is the adversarial interleaved-pair chain of
//! `tests/exec_parity.rs` with the pair separation swept from heavily
//! overlapping read sets down to fully disjoint ones (the regime the
//! paper varies in its Section 5 overlap/noise sweeps). For every
//! `(separation, workers, width schedule)` cell the study runs a full
//! peel pass, checks the clustering is byte-identical to the
//! sequential pass (parity is the whole point of the speculation
//! design), and records the [`alid_core::PeelStats`] telemetry:
//! rounds, accepted / absorbed / re-run speculations, conflict rate
//! and mean round width.
//!
//! A second section exercises the exec layer's autotuned phases (LSH
//! build, sparse edge evaluation, matmul) and reports each call
//! site's tuner state — the chosen chunk size and the measured
//! per-item cost — read back from the shared metrics registry (each
//! build site exports its `TuneState` as `alid_tune_*{site=...}`
//! gauges) rather than by reaching into every crate's static.
//!
//! Output: an aligned table on stdout plus
//! `experiments/BENCH_speculation.json`.
//!
//! Flags: `--smoke` (tiny sizes for CI), `--full` (larger sweep),
//! `--scale=<f64>`, `--workers=<n>` (extra worker count to include),
//! `--trace-out=<path>` (record phase spans, drained to JSONL at
//! exit).

use std::sync::Arc;
use std::time::Instant;

use alid_affinity::cost::CostModel;
use alid_affinity::kernel::LaplacianKernel;
use alid_affinity::sparse::SparseBuilder;
use alid_affinity::vector::Dataset;
use alid_bench::fixtures::pair_chain;
use alid_bench::report::fmt;
use alid_bench::{print_table, save_json};
use alid_core::{PeelStats, Peeler, SpeculationParams};
use alid_exec::ExecPolicy;
use alid_linalg::matrix::Mat;
use alid_lsh::{LshIndex, LshParams};
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
    adaptive: bool,
    runtime_s: f64,
    stats: PeelStats,
}

impl Serialize for Cell {
    fn to_json(&self) -> Json {
        Json::object([
            ("workers", self.workers.to_json()),
            ("adaptive", self.adaptive.to_json()),
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

/// Reads every exported autotuner back out of the process-global
/// registry: `alid_tune_<field>{site="<site>"}` gauge series, grouped
/// by site into the same `{site, per_item_ns, last_chunk, samples}`
/// objects the report has always carried.
fn autotune_from_registry() -> Vec<Json> {
    let samples = alid_bench::report::metrics_snapshot();
    let field_of = |site: &str, field: &str| {
        samples.get(&format!("alid_tune_{field}{{site=\"{site}\"}}")).and_then(Json::as_f64)
    };
    let mut sites: Vec<String> = match &samples {
        Json::Obj(fields) => fields
            .iter()
            .filter_map(|(k, _)| {
                k.strip_prefix("alid_tune_per_item_ns{site=\"")
                    .and_then(|rest| rest.strip_suffix("\"}"))
                    .map(str::to_string)
            })
            .collect(),
        _ => Vec::new(),
    };
    sites.sort();
    sites
        .into_iter()
        .map(|site| {
            Json::object([
                ("site", site.to_json()),
                ("per_item_ns", field_of(&site, "per_item_ns").unwrap_or(0.0).to_json()),
                ("last_chunk", (field_of(&site, "last_chunk").unwrap_or(0.0) as u64).to_json()),
                ("samples", (field_of(&site, "samples").unwrap_or(0.0) as u64).to_json()),
            ])
        })
        .collect()
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

/// Exercises the autotuned exec phases so the tune report reflects
/// parallel measurements, not just sequential ones: an LSH build, a
/// sparse build over its neighbour lists, and a matmul.
fn exercise_autotuned_phases(n: usize, exec: ExecPolicy) {
    let flat: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.21 + (i / 97) as f64).collect();
    let ds = Dataset::from_flat(1, flat);
    let cost = CostModel::shared();
    let index = LshIndex::build_with(&ds, LshParams::new(6, 4, 1.0, 9), &cost, exec);
    let lists = index.neighbor_lists(&ds);
    let mut b = SparseBuilder::new(ds.len());
    b.add_neighbor_lists(&lists);
    let kernel = LaplacianKernel::l2(1.0);
    let _ = b.build_with(&ds, &kernel, Arc::clone(&cost), exec);
    let dim = 64usize.min(n);
    let data: Vec<f64> =
        (0..dim * dim).map(|e| ((e / dim * 31 + e % dim * 7) % 13) as f64 * 0.1).collect();
    let a = Mat::from_vec(dim, dim, data);
    let _ = a.matmul_with(&a, exec);
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
            for adaptive in [true, false] {
                let p = params
                    .with_exec(ExecPolicy::workers(workers))
                    .with_speculation(SpeculationParams { adaptive, initial_width: 0 });
                let started = Instant::now();
                let (cl, stats) = Peeler::new(&ds, p, CostModel::shared()).detect_all_with_stats();
                let runtime_s = started.elapsed().as_secs_f64();
                assert_parity(&seq, &cl, &format!("sep={sep} workers={workers}"));
                rows.push(vec![
                    format!("{sep}"),
                    workers.to_string(),
                    if adaptive { "adaptive".into() } else { "fixed".to_string() },
                    stats.rounds.len().to_string(),
                    stats.accepted.to_string(),
                    stats.absorbed.to_string(),
                    stats.rerun.to_string(),
                    fmt(stats.conflict_rate()),
                    fmt(stats.mean_width()),
                    fmt(runtime_s),
                ]);
                cells.push(Cell { workers, adaptive, runtime_s, stats });
            }
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
        "Speculative peeling under overlap — conflict rates and adaptive width",
        &[
            "sep",
            "workers",
            "schedule",
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

    // Autotuner telemetry: run the tuned phases at the largest worker
    // count (and sequentially for the 1-worker sample) before the
    // snapshot.
    let tune_n = if cli.smoke { 2_000 } else { 20_000 };
    exercise_autotuned_phases(tune_n, ExecPolicy::sequential());
    let max_workers = worker_counts.iter().copied().max().unwrap_or(2);
    exercise_autotuned_phases(tune_n, ExecPolicy::workers(max_workers));
    // Every tuner the run touched exported itself into the registry at
    // its build site — including any this bench doesn't know by name.
    let autotune = autotune_from_registry();
    let mut tune_rows = Vec::new();
    for t in &autotune {
        if let Json::Obj(fields) = t {
            tune_rows.push(
                fields
                    .iter()
                    .map(|(_, v)| match v {
                        Json::Str(s) => s.clone(),
                        Json::Num(x) => fmt(*x),
                        Json::UInt(u) => u.to_string(),
                        other => format!("{other:?}"),
                    })
                    .collect::<Vec<String>>(),
            );
        }
    }
    print_table(
        "Chunk autotuner state after the sweep",
        &["site", "per_item_ns", "last_chunk", "samples"],
        &tune_rows,
    );

    let mut fields = alid_bench::report::run_header("alid-bench/speculation/1", max_workers);
    fields.extend([
        ("smoke", cli.smoke.to_json()),
        ("pairs", pairs.to_json()),
        ("workloads", workloads.to_json()),
        ("autotune", Json::Arr(autotune)),
    ]);
    save_json("BENCH_speculation", &Json::object(fields));

    if let Some(path) = &cli.trace_out {
        match alid_obs::trace::drain_to_file(path) {
            Ok(n) => eprintln!("[traced {n} span events to {}]", path.display()),
            Err(e) => eprintln!("[trace-out {}: {e}]", path.display()),
        }
    }
}
