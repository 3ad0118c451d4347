//! Persistence cost study: full-snapshot rewrites vs O(delta) journal
//! appends.
//!
//! For each dataset size the bench builds a journaled service, loads a
//! base stream, then measures two ways of making the next mutation
//! durable:
//!
//! - **journal append** — ingest one item, drain, and flush through
//!   the group-commit barrier: the per-mutation cost of the
//!   append-only log (a handful of frame bytes plus one fsync).
//! - **full snapshot** — serialize the whole service, write it to a
//!   temp file and fsync: the cost the journal replaces, which grows
//!   with everything admitted so far.
//!
//! The O(delta) claim falls out of the table: journal append latency
//! and bytes stay flat as the dataset grows, while the snapshot column
//! scales with it. The bench asserts the byte-level version of the
//! claim (appended bytes per mutation at least 10x smaller than the
//! snapshot at the largest size, and size-independent within noise)
//! and that each durable append costs exactly one fsync, counted by
//! the journal's `alid_service_journal_fsync_seconds` histogram;
//! latency ratios are reported rather than asserted because fsync cost
//! is hardware-dependent.
//!
//! Output: an aligned table on stdout plus
//! `experiments/BENCH_persist.json` (stamped with the
//! schema/git_rev/workers provenance header).
//!
//! Flags: `--smoke` (tiny sizes for CI), `--full` (larger sweep),
//! `--scale=<f64>` (size multiplier), `--workers=<n>`.

use std::io::Write as _;
use std::time::Instant;

use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_bench::report::{fmt, run_header};
use alid_bench::{print_table, save_json};
use alid_core::AlidParams;
use alid_data::stream::{generate_stream, Burst, StreamConfig};
use alid_exec::ExecPolicy;
use alid_service::{
    recover_and_open, snapshot_bytes_with_meta, JournalConfig, Service, ServiceConfig,
};
use serde::{Json, Serialize};

struct Cli {
    smoke: bool,
    full: bool,
    scale: f64,
    workers: Option<usize>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli { smoke: false, full: false, scale: 1.0, workers: None };
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
        } else if arg == "--help" || arg == "-h" {
            eprintln!("options: --smoke (tiny CI sizes), --full (larger sweep), --scale=<f64>, --workers=<n>");
            std::process::exit(0);
        } else {
            eprintln!("unknown option {arg}; try --help");
            std::process::exit(2);
        }
    }
    cli
}

/// Same burst-in-noise workload shape as `bench_service`, sized to
/// `total` items.
fn workload(total: usize) -> (Vec<Vec<f64>>, AlidParams) {
    let dim = 8;
    let burst = total / 6;
    let cfg = StreamConfig {
        dim,
        total,
        bursts: vec![
            Burst { start: total / 10, size: burst, spacing: 1 },
            Burst { start: total / 2, size: burst, spacing: 1 },
            Burst { start: total * 7 / 10, size: burst, spacing: 1 },
        ],
        jitter: 0.05,
        noise_span: 25.0,
        seed: 0x9e15,
    };
    let scenario = generate_stream(&cfg);
    let kernel = LaplacianKernel::calibrate(scenario.scale * 2.0, 0.9, LpNorm::L2);
    let mut params = AlidParams::new(kernel);
    params.first_roi_radius = kernel.distance_at(0.5);
    params.density_threshold = 0.75;
    params.min_cluster_size = 4;
    params.lsh.seed = 11;
    let items = scenario.data.iter().map(<[f64]>::to_vec).collect();
    (items, params)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Total bytes currently held by the journal's segment files.
fn journal_disk_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                total += meta.len();
            }
        }
    }
    total
}

/// Fsyncs the service's journal has made so far, read from its
/// registry.
fn journal_fsyncs(service: &Service) -> u64 {
    service
        .metrics_registry()
        .snapshot_samples()
        .into_iter()
        .find(|s| s.series == "alid_service_journal_fsync_seconds_count")
        .map_or(0, |s| s.value as u64)
}

struct Cell {
    items: usize,
    append_p50_ms: f64,
    append_p99_ms: f64,
    append_bytes_per_item: f64,
    fsyncs_per_append: f64,
    snapshot_p50_ms: f64,
    snapshot_bytes: usize,
    latency_ratio: f64,
    bytes_ratio: f64,
}

impl Serialize for Cell {
    fn to_json(&self) -> Json {
        Json::object([
            ("items", self.items.to_json()),
            ("append_p50_ms", self.append_p50_ms.to_json()),
            ("append_p99_ms", self.append_p99_ms.to_json()),
            ("append_bytes_per_item", self.append_bytes_per_item.to_json()),
            ("fsyncs_per_append", self.fsyncs_per_append.to_json()),
            ("snapshot_p50_ms", self.snapshot_p50_ms.to_json()),
            ("snapshot_bytes", self.snapshot_bytes.to_json()),
            ("latency_ratio", self.latency_ratio.to_json()),
            ("bytes_ratio", self.bytes_ratio.to_json()),
        ])
    }
}

/// One dataset-size cell: load `total - probes` items, then measure
/// `probes` durable appends and `snap_reps` full snapshot writes.
fn run_cell(
    total: usize,
    probes: usize,
    snap_reps: usize,
    params: AlidParams,
    items: &[Vec<f64>],
    exec: ExecPolicy,
) -> Cell {
    let dir =
        std::env::temp_dir().join(format!("alid_bench_persist_{}_{total}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg =
        ServiceConfig::new(8, 2, params).with_batch(32).with_queue_capacity(4096).with_exec(exec);
    let mut service = Service::new(cfg);
    let journal =
        recover_and_open(JournalConfig { dir: dir.clone(), compact_every: 0 }, &service, 0)
            .expect("open bench journal");
    service.set_journal(journal);

    let base = total - probes;
    for item in &items[..base] {
        service.ingest(item);
        service.drain();
    }
    if let Some(j) = service.journal() {
        j.barrier().expect("flush the bench journal");
    }

    // Journal side: per-mutation durable append, group commit included.
    let bytes_before = journal_disk_bytes(&dir);
    let fsyncs_before = journal_fsyncs(&service);
    let mut append_ms = Vec::with_capacity(probes);
    for item in &items[base..] {
        let started = Instant::now();
        service.ingest(item);
        service.drain();
        if let Some(j) = service.journal() {
            j.barrier().expect("flush the bench journal");
        }
        append_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let append_bytes_per_item = (journal_disk_bytes(&dir) - bytes_before) as f64 / probes as f64;
    let fsyncs_per_append = (journal_fsyncs(&service) - fsyncs_before) as f64 / probes as f64;
    append_ms.sort_by(f64::total_cmp);

    // Snapshot side: serialize everything, write, fsync — the cost a
    // snapshot-per-mutation design would pay each time.
    let snap_path = dir.join("bench-snapshot.tmp");
    let mut snap_ms = Vec::with_capacity(snap_reps);
    let mut snapshot_bytes = 0usize;
    for _ in 0..snap_reps {
        let started = Instant::now();
        let (bytes, _pos) = snapshot_bytes_with_meta(&service);
        let mut file = std::fs::File::create(&snap_path).expect("create snapshot temp");
        file.write_all(&bytes).expect("write snapshot temp");
        file.sync_all().expect("fsync snapshot temp");
        snap_ms.push(started.elapsed().as_secs_f64() * 1e3);
        snapshot_bytes = bytes.len();
    }
    snap_ms.sort_by(f64::total_cmp);

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    let append_p50_ms = percentile(&append_ms, 0.50);
    let snapshot_p50_ms = percentile(&snap_ms, 0.50);
    Cell {
        items: total,
        append_p50_ms,
        append_p99_ms: percentile(&append_ms, 0.99),
        append_bytes_per_item,
        fsyncs_per_append,
        snapshot_p50_ms,
        snapshot_bytes,
        latency_ratio: snapshot_p50_ms / append_p50_ms,
        bytes_ratio: snapshot_bytes as f64 / append_bytes_per_item,
    }
}

fn main() {
    let cli = parse_cli();
    let sizes: Vec<usize> = if cli.smoke {
        vec![150, 450]
    } else if cli.full {
        vec![500, 2_000, 8_000, 16_000]
    } else {
        vec![500, 2_000, 6_000]
    };
    let sizes: Vec<usize> =
        sizes.iter().map(|&n| ((n as f64 * cli.scale) as usize).max(100)).collect();
    let probes = if cli.smoke { 32 } else { 64 };
    let snap_reps = if cli.smoke { 3 } else { 5 };
    let exec = ExecPolicy::auto_or(cli.workers);

    let mut cells = Vec::new();
    for &total in &sizes {
        let (items, params) = workload(total);
        let cell = run_cell(total, probes, snap_reps, params, &items, exec);
        eprintln!(
            "items={total}: append p50 {:.3}ms p99 {:.3}ms ({:.0} B/item, {} fsyncs/append), snapshot p50 {:.2}ms ({} B) — {:.0}x bytes",
            cell.append_p50_ms,
            cell.append_p99_ms,
            cell.append_bytes_per_item,
            cell.fsyncs_per_append,
            cell.snapshot_p50_ms,
            cell.snapshot_bytes,
            cell.bytes_ratio,
        );
        cells.push(cell);
    }

    // The O(delta) claim, in its hardware-independent form: per-item
    // journal bytes are flat across sizes and at least 10x smaller
    // than one full snapshot at the largest size.
    let first = &cells[0];
    let last = &cells[cells.len() - 1];
    // Each probe (ingest, drain, barrier; compact_every 0, so no
    // rotation) leaves one flush of its own frames: exactly one fsync.
    for c in &cells {
        assert!(
            c.fsyncs_per_append == 1.0,
            "each durable append must cost exactly one fsync (got {} at {} items)",
            c.fsyncs_per_append,
            c.items,
        );
    }
    assert!(
        last.bytes_ratio >= 10.0,
        "journal append must be at least 10x cheaper in bytes than a full snapshot \
         at the largest size (got {:.1}x: {:.0} B/item vs {} B)",
        last.bytes_ratio,
        last.append_bytes_per_item,
        last.snapshot_bytes,
    );
    assert!(
        last.append_bytes_per_item <= first.append_bytes_per_item * 2.0,
        "per-item journal bytes must not grow with dataset size \
         ({:.0} B at {} items vs {:.0} B at {} items)",
        last.append_bytes_per_item,
        last.items,
        first.append_bytes_per_item,
        first.items,
    );

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.items.to_string(),
                fmt(c.append_p50_ms),
                fmt(c.append_p99_ms),
                fmt(c.append_bytes_per_item),
                fmt(c.fsyncs_per_append),
                fmt(c.snapshot_p50_ms),
                c.snapshot_bytes.to_string(),
                fmt(c.latency_ratio),
                fmt(c.bytes_ratio),
            ]
        })
        .collect();
    print_table(
        "Persistence cost — O(delta) journal appends vs full snapshot rewrites",
        &[
            "items",
            "append_p50_ms",
            "append_p99_ms",
            "append_B/item",
            "fsyncs/append",
            "snap_p50_ms",
            "snap_bytes",
            "lat_ratio",
            "bytes_ratio",
        ],
        &rows,
    );

    let mut fields = run_header("alid-bench/persist/2", exec.worker_count());
    fields.extend([
        ("smoke", cli.smoke.to_json()),
        ("probes", probes.to_json()),
        ("snapshot_reps", snap_reps.to_json()),
        ("cells", cells.to_json()),
    ]);
    save_json("BENCH_persist", &Json::object(fields));
}
