//! Blocked-kernel microbenchmark — the measurement half of ROADMAP
//! item 3's raw-speed work.
//!
//! For every dimension in the sweep the harness evaluates one query
//! against `n` rows with (a) the scalar reference path
//! ([`LaplacianKernel::eval`] per row, exactly what every call site
//! did before blocking) and (b) [`BlockEval::eval_rows_blocked`]
//! across a sweep of block heights, including the
//! [`default_block_rows`] choice. Each cell reports best-of-reps
//! per-pair nanoseconds; every blocked run is asserted bit-identical
//! to the scalar output before its timing counts (the bench doubles
//! as a parity harness, like `bench_speculation`).
//!
//! Output: aligned tables on stdout plus
//! `experiments/BENCH_kernels.json`.
//!
//! Flags: `--smoke` (tiny CI sizes), `--full` (larger sweep),
//! `--scale=<f64>`.

use std::time::Instant;

use alid_affinity::block::{default_block_rows, BlockEval};
use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_affinity::vector::Dataset;
use alid_bench::report::fmt;
use alid_bench::{print_table, save_json};
use serde::{Json, Serialize};

struct Cli {
    smoke: bool,
    full: bool,
    scale: f64,
}

fn parse_cli() -> Cli {
    let mut cli = Cli { smoke: false, full: false, scale: 1.0 };
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            cli.smoke = true;
        } else if arg == "--full" {
            cli.full = true;
        } else if let Some(v) = arg.strip_prefix("--scale=") {
            cli.scale = v.parse().expect("--scale=<float>");
        } else if arg == "--help" || arg == "-h" {
            eprintln!("options: --smoke (tiny CI sizes), --full (larger sweep), --scale=<f64>");
            std::process::exit(0);
        } else {
            eprintln!("unknown option {arg}; try --help");
            std::process::exit(2);
        }
    }
    cli
}

/// Deterministic sign-mixed data that defeats constant folding without
/// denormals (this is a throughput bench; the adversarial-value parity
/// lives in `tests/proptest_block.rs`).
fn dataset(n: usize, dim: usize) -> Dataset {
    let data: Vec<f64> =
        (0..n * dim).map(|i| ((i * 2_654_435_761 % 10_007) as f64 - 5_000.0) / 311.0).collect();
    Dataset::from_flat(dim, data)
}

/// Best-of-`reps` wall time for `f`, in nanoseconds.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

struct CellResult {
    block: usize,
    is_default: bool,
    ns_per_pair: f64,
    speedup: f64,
}

impl Serialize for CellResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("block", self.block.to_json()),
            ("default_block", self.is_default.to_json()),
            ("ns_per_pair", self.ns_per_pair.to_json()),
            ("speedup_vs_scalar", self.speedup.to_json()),
        ])
    }
}

struct DimResult {
    dim: usize,
    n: usize,
    scalar_ns_per_pair: f64,
    cells: Vec<CellResult>,
    best_speedup: f64,
}

impl Serialize for DimResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("dim", self.dim.to_json()),
            ("n", self.n.to_json()),
            ("scalar_ns_per_pair", self.scalar_ns_per_pair.to_json()),
            ("best_speedup", self.best_speedup.to_json()),
            ("blocked", self.cells.to_json()),
        ])
    }
}

fn main() {
    let cli = parse_cli();
    let dims: &[usize] = if cli.smoke {
        &[32]
    } else if cli.full {
        &[8, 32, 128, 512]
    } else {
        &[8, 32, 128]
    };
    // Element budget per dimension sweep: keeps the row data ~1 MiB so
    // the comparison measures the kernels, not DRAM bandwidth (at 8 MiB
    // working sets both paths are memory-bound and indistinguishable).
    let elems = if cli.smoke { 32_768 } else { 131_072 };
    let elems = ((elems as f64 * cli.scale) as usize).max(4_096);
    let reps = if cli.smoke {
        5
    } else if cli.full {
        31
    } else {
        15
    };
    let kern = LaplacianKernel::new(0.8, LpNorm::L2);

    let mut results = Vec::new();
    let mut rows = Vec::new();
    for &dim in dims {
        let n = (elems / dim).max(256);
        let ds = dataset(n, dim);
        let query = ds.get(n / 2).to_vec();

        // Scalar reference: the exact pre-blocking per-pair call.
        let mut want = vec![0.0; n];
        let scalar_ns = best_of(reps, || {
            for (i, w) in want.iter_mut().enumerate() {
                *w = kern.eval(ds.get(i), &query);
            }
            std::hint::black_box(&want);
        });
        let scalar_pp = scalar_ns as f64 / n as f64;

        let def = default_block_rows(dim);
        let mut blocks: Vec<usize> = vec![8, 32, 64, 128];
        if !blocks.contains(&def) {
            blocks.push(def);
            blocks.sort_unstable();
        }
        let mut scratch = BlockEval::new();
        let mut out = vec![0.0; n];
        let mut cells = Vec::new();
        let mut best_speedup = 0.0f64;
        for &block in &blocks {
            let ns = best_of(reps, || {
                scratch.eval_rows_blocked(&kern, dim, ds.as_flat(), &query, &mut out, block);
                std::hint::black_box(&out);
            });
            // Parity gate: a timing only counts if the bits agree.
            for (i, (&got, &w)) in out.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    w.to_bits(),
                    "blocked result diverged from scalar at dim={dim} block={block} row={i}"
                );
            }
            let pp = ns as f64 / n as f64;
            let speedup = scalar_pp / pp;
            best_speedup = best_speedup.max(speedup);
            rows.push(vec![
                dim.to_string(),
                if block == def { format!("{block}*") } else { block.to_string() },
                fmt(scalar_pp),
                fmt(pp),
                format!("{speedup:.2}x"),
            ]);
            cells.push(CellResult { block, is_default: block == def, ns_per_pair: pp, speedup });
        }
        eprintln!(
            "dim={dim}: scalar {scalar_pp:.1} ns/pair, best blocked speedup {best_speedup:.2}x"
        );
        results.push(DimResult { dim, n, scalar_ns_per_pair: scalar_pp, cells, best_speedup });
    }

    print_table(
        "Blocked kernel evaluation vs scalar (ns/pair, * = default block)",
        &["dim", "block", "scalar", "blocked", "speedup"],
        &rows,
    );

    let mut fields = alid_bench::report::run_header("alid-bench/kernels/2", 1);
    fields.extend([
        ("smoke", cli.smoke.to_json()),
        ("elems", elems.to_json()),
        ("reps", reps.to_json()),
        ("dims", results.to_json()),
    ]);
    save_json("BENCH_kernels", &Json::object(fields));
}
