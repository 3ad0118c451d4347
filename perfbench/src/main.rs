//! The repository benchmark: one command that runs a named workload on
//! seeded inputs, checks the outputs, and prints every metric by name
//! with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-peel|stream-ingest|mixed-rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (why each exists is recorded in `BENCHMARK.json`):
//!
//! * `batch-peel` — `Peeler::new` + `detect_all` on the large-cluster
//!   regime (`workload::Regime::Large`). No HTTP, sweep, journal or
//!   snapshot code runs.
//! * `stream-ingest` — one closed-loop client POSTs `/ingest` to an
//!   in-process 2-shard server (sweep period 32, no journal) on the
//!   fixed-size-cluster regime.
//! * `mixed-rw` — the same server with a journal and a small
//!   compaction threshold; a closed-loop writer plus an open-loop
//!   reader, ending with a restart from snapshot plus journal replay.
//!
//! Everything runs in this one process on at most two client threads
//! and two exec workers, and drives the system only through its public
//! API.
//!
//! With `--trace 0` a run measures for `--seconds`, repeating whole
//! passes and reporting medians over them, and reports the end-to-end
//! metrics. Every metric is defined on every workload:
//!
//! | metric | batch-peel | stream-ingest, mixed-rw |
//! |---|---|---|
//! | `setup_s` | `Peeler::new` (the LSH build) | service built, journal opened (mixed-rw), server answering `/healthz` |
//! | `detect_s` | `detect_all` | first `/ingest` sent until the last answered (every request drains) |
//! | `ingest_items_per_s` | items ÷ `detect_s` | admitted items ÷ `detect_s` |
//! | `ingest_p50_ms`, `ingest_p99_ms` | one job, `Peeler::new` + `detect_all` | one `POST /ingest` of 4 items |
//! | `recover_s` | nothing is persisted, so re-running the job | stream-ingest: nothing is persisted, so set-up plus re-ingest; mixed-rw: snapshot restore + journal replay |
//! | `avg_f1` | AVG-F of the dominant clusters | AVG-F of `Service::assignment` |
//! | `peak_mib` | `CostModel` peak matrix + aux bytes | the service's `CostModel` (mixed-rw: the recovered service's, free of merged-view reduces) |
//!
//! batch-peel has one operation, the job, so its latency metrics are the
//! job's; p99 of a run's dozen or so jobs is their maximum. Read latency
//! (mixed-rw's reader) and resident memory vary too much between runs
//! of one seed to carry a regression bound; the traced run reports them.
//!
//! With `--trace 1` a run records spans around every layer call, keeps
//! them in memory, writes them to `.perfbench-out/trace-<workload>.jsonl`
//! and reports the per-layer metrics (see `layers.rs`), zero where a
//! workload does not reach a layer.
//!
//! Output checks count as operations: a failed check is a failed
//! operation, never a number. The last stdout line is the result
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod batch;
mod layers;
mod serve;
mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use alid_exec::ExecPolicy;
use serde::{Json, Serialize};

/// Exec workers (and client threads): the benchmark host's CPU count.
pub const WORKERS: usize = 2;

/// Name and unit of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("detect_s", "s"),
    ("ingest_items_per_s", "items/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("recover_s", "s"),
    ("avg_f1", "1"),
    ("peak_mib", "MiB"),
];

/// The benchmark's clock: the one place it reads the time.
pub fn now() -> Instant {
    // alid-lint: allow(no-raw-time) -- benchmark timing; measured values are reported, never fed back into the system under test
    Instant::now()
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nearest-rank quantile `q` of `samples` (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// What one run found: operations attempted and failed, and the
/// metrics by name.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation (a request, or an output check).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one output check, naming it on stderr when it fails.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
        }
        self.op(ok);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be a number")?
            }
            "--trace" => args.trace = value != "0",
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <batch-peel|stream-ingest|mixed-rw> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let exec = ExecPolicy::workers(WORKERS);
    let report = match args.workload.as_str() {
        "batch-peel" => batch::run(args.seed, args.seconds, args.trace, exec),
        "stream-ingest" => {
            serve::run(serve::Mode::Stream, args.seed, args.seconds, args.trace, exec)
        }
        "mixed-rw" => serve::run(serve::Mode::Mixed, args.seed, args.seconds, args.trace, exec),
        other => {
            eprintln!("unknown workload {other:?} (batch-peel, stream-ingest or mixed-rw)");
            std::process::exit(2);
        }
    };
    // Provenance, built after the measured work so its metrics
    // snapshot shows the state that shaped the numbers.
    let mut header = alid_bench::report::run_header("alid-perfbench/1", WORKERS);
    header.extend([
        ("workload", args.workload.to_json()),
        ("seed", args.seed.to_json()),
        ("trace", args.trace.to_json()),
    ]);
    println!("{}", serde_json::to_string(&Json::object(header)).expect("total"));
    let names: Vec<(&'static str, &'static str)> =
        if args.trace { layers::PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            println!("{name:<32} {value:>16.6} {unit}");
            (name, Json::object([("value", Json::Num(value)), ("unit", unit.to_json())]))
        })
        .collect::<Vec<_>>();
    let result = Json::object([
        ("correct", (report.failed == 0).to_json()),
        ("attempted", report.attempted.to_json()),
        ("failed", report.failed.to_json()),
        ("metrics", Json::object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("total"));
}
