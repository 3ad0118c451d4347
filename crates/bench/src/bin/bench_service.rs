//! Closed-loop load generator for the sharded serving layer — the
//! serving analogue of Table 2's PALID speedup study.
//!
//! For every `(shard count, request batch size)` cell the generator
//! starts an in-process `alid-service` HTTP front end on a loopback
//! port, replays a deterministic burst stream through `POST /ingest`
//! in a closed loop (one request in flight; the next departs when the
//! response lands), then exercises `/clusters`, `/assign` and
//! `/snapshot`. Per-request latencies give p50/p90/p99; wall-clock
//! over the whole replay gives item throughput. Because routing and
//! per-shard application are deterministic, the final `/clusters`
//! answer must be identical across request batch sizes at a fixed
//! shard count — the bench asserts it, doubling as a parity harness
//! like `bench_speculation`.
//!
//! Output: an aligned table on stdout plus
//! `experiments/BENCH_service.json` (stamped with the
//! schema/git_rev/workers provenance header).
//!
//! Flags: `--smoke` (tiny sizes for CI), `--full` (larger sweep),
//! `--scale=<f64>` (item-count multiplier), `--workers=<n>` (exec
//! workers inside the service), `--addr=<host:port>` (drive an
//! *external* server through one ingest/assign/snapshot cycle instead
//! of the sweep — the CI smoke mode; the server must be started with
//! `--snapshot`, since the endpoint never takes a client path).

use std::sync::Arc;
use std::time::{Duration, Instant};

use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_bench::report::{fmt, run_header};
use alid_bench::{print_table, save_json};
use alid_core::AlidParams;
use alid_data::stream::{generate_stream, Burst, StreamConfig};
use alid_exec::ExecPolicy;
use alid_service::http::{self, Client, HttpOptions};
use alid_service::{Service, ServiceConfig};
use serde::{Json, Serialize};

struct Cli {
    smoke: bool,
    full: bool,
    scale: f64,
    workers: Option<usize>,
    addr: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli { smoke: false, full: false, scale: 1.0, workers: None, addr: None };
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
        } else if let Some(v) = arg.strip_prefix("--addr=") {
            cli.addr = Some(v.to_string());
        } else if arg == "--help" || arg == "-h" {
            eprintln!(
                "options: --smoke (tiny CI sizes), --full (larger sweep), \
                 --scale=<f64>, --workers=<n>, --addr=<host:port> (drive an \
                 external server instead of the in-process sweep)"
            );
            std::process::exit(0);
        } else {
            eprintln!("unknown option {arg}; try --help");
            std::process::exit(2);
        }
    }
    cli
}

/// The replayed workload: a deterministic burst stream (hot events
/// inside background noise) from the data crate's generator, plus the
/// calibrated detection parameters for it.
fn workload(total: usize) -> (Vec<Vec<f64>>, AlidParams) {
    let dim = 8;
    let burst = total / 6; // three bursts, half the stream is signal
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
        seed: 0xbe9c,
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

struct Cell {
    shards: usize,
    req_batch: usize,
    items: usize,
    requests: usize,
    busy: usize,
    elapsed_s: f64,
    throughput: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    clusters: usize,
    snapshot_bytes: usize,
}

impl Serialize for Cell {
    fn to_json(&self) -> Json {
        Json::object([
            ("shards", self.shards.to_json()),
            ("req_batch", self.req_batch.to_json()),
            ("items", self.items.to_json()),
            ("requests", self.requests.to_json()),
            ("busy", self.busy.to_json()),
            ("elapsed_s", self.elapsed_s.to_json()),
            ("throughput_items_per_s", self.throughput.to_json()),
            ("p50_ms", self.p50_ms.to_json()),
            ("p90_ms", self.p90_ms.to_json()),
            ("p99_ms", self.p99_ms.to_json()),
            ("clusters", self.clusters.to_json()),
            ("snapshot_bytes", self.snapshot_bytes.to_json()),
        ])
    }
}

/// One shard-count cell of the straddling-cluster scenario: merge
/// cost (pairs tested, unions re-run) and reduce-phase latency of the
/// cross-shard fragment join, plus the cached repeat.
struct StraddleCell {
    shards: usize,
    raw_clusters: usize,
    merged_clusters: usize,
    pairs_tested: usize,
    pairs_linked: usize,
    groups_rerun: usize,
    union_items: usize,
    clusters_merged: usize,
    reduce_ms: f64,
    cached_ms: f64,
}

impl Serialize for StraddleCell {
    fn to_json(&self) -> Json {
        Json::object([
            ("shards", self.shards.to_json()),
            ("raw_clusters", self.raw_clusters.to_json()),
            ("merged_clusters", self.merged_clusters.to_json()),
            ("pairs_tested", self.pairs_tested.to_json()),
            ("pairs_linked", self.pairs_linked.to_json()),
            ("groups_rerun", self.groups_rerun.to_json()),
            ("union_items", self.union_items.to_json()),
            ("clusters_merged", self.clusters_merged.to_json()),
            ("reduce_ms", self.reduce_ms.to_json()),
            ("cached_ms", self.cached_ms.to_json()),
        ])
    }
}

/// Runs the straddling-cluster merge scenario across shard counts:
/// a tight cluster split by the router's first hyperplane, reduced by
/// the merged view. Asserts the CI-smoke guarantee along the way —
/// merged member sets identical at every shard count (the raw view
/// fragments, the reduce joins) and the cached repeat query free of
/// reduction cost.
fn straddle_cells(exec: ExecPolicy, shard_counts: &[usize]) -> Vec<StraddleCell> {
    let fx = alid_bench::fixtures::straddling_cluster();
    let mut reference: Option<Vec<Vec<u64>>> = None;
    let mut cells = Vec::new();
    for &shards in shard_counts {
        let mut cfg = ServiceConfig::new(2, shards, fx.params).with_batch(8).with_exec(exec);
        cfg.router_seed = fx.router_seed;
        let svc = Service::new(cfg);
        for v in &fx.items {
            svc.ingest(v);
            svc.drain();
        }
        svc.sweep();
        let raw_clusters = svc.summaries().len();
        let started = Instant::now();
        let view = svc.merged_view();
        let reduce_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let again = svc.merged_view();
        let cached_ms = started.elapsed().as_secs_f64() * 1e3;
        assert!(std::sync::Arc::ptr_eq(&view, &again), "repeat query must hit the cache");
        let mut sets: Vec<Vec<u64>> = view.clusters.iter().map(|c| c.members.clone()).collect();
        sets.sort();
        match &reference {
            None => {
                assert!(
                    sets.contains(&fx.straddler),
                    "single-shard reference must hold the straddler whole"
                );
                reference = Some(sets);
            }
            Some(r) => {
                assert!(
                    shards == 1 || raw_clusters > view.clusters.len(),
                    "{shards} shards: the raw view must fragment the straddler"
                );
                assert_eq!(
                    r, &sets,
                    "{shards} shards: merged member sets diverge from the single-shard run"
                );
            }
        }
        cells.push(StraddleCell {
            shards,
            raw_clusters,
            merged_clusters: view.clusters.len(),
            pairs_tested: view.stats.pairs_tested,
            pairs_linked: view.stats.pairs_linked,
            groups_rerun: view.stats.groups_rerun,
            union_items: view.stats.union_items,
            clusters_merged: view.stats.clusters_merged,
            reduce_ms,
            cached_ms,
        });
    }
    cells
}

fn items_json(batch: &[Vec<f64>]) -> Json {
    Json::object([(
        "items",
        Json::Arr(
            batch.iter().map(|v| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())).collect(),
        ),
    )])
}

/// Replays `items` through `client` in request batches of `req_batch`,
/// returning (per-request latencies, busy verdict count).
fn replay(client: &mut Client, items: &[Vec<f64>], req_batch: usize) -> (Vec<f64>, usize) {
    let mut latencies = Vec::with_capacity(items.len() / req_batch + 1);
    let mut busy = 0usize;
    for batch in items.chunks(req_batch) {
        let body = items_json(batch);
        let started = Instant::now();
        let (status, resp) = client.request("POST", "/ingest", Some(&body)).expect("ingest");
        latencies.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200, "{resp:?}");
        let results = resp.get("results").and_then(Json::as_arr).expect("results array");
        busy += results
            .iter()
            .filter(|r| r.get("status").and_then(Json::as_str) == Some("busy"))
            .count();
    }
    (latencies, busy)
}

/// One full cycle against a served address: ingest, clusters, assign,
/// snapshot. Returns the cell metrics plus the final clusters answer
/// (for cross-cell parity checks).
fn drive(addr: &str, items: &[Vec<f64>], req_batch: usize) -> (Cell, Json) {
    let mut client = Client::connect(addr).expect("connect");
    // Shard count from the server itself, so the report's provenance
    // is true in external-address mode too.
    let (status, health) = client.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{health:?}");
    let shards = health.get("shards").and_then(Json::as_u64).expect("healthz shards") as usize;
    let started = Instant::now();
    let (mut latencies, busy) = replay(&mut client, items, req_batch);
    let elapsed_s = started.elapsed().as_secs_f64();
    let requests = latencies.len();
    latencies.sort_by(f64::total_cmp);

    let (status, clusters_resp) = client.request("GET", "/clusters", None).expect("clusters");
    assert_eq!(status, 200);
    let clusters = clusters_resp.get("clusters").and_then(Json::as_arr).map_or(0, <[Json]>::len);

    // Spot-check the assignment path on the first admitted item.
    let (status, _) = client.request("GET", "/assign?id=0", None).expect("assign");
    assert_eq!(status, 200);

    // The server writes to its configured --snapshot path; client
    // paths are deliberately not honoured.
    let (status, snap) = client.request("POST", "/snapshot", None).expect("snapshot");
    assert_eq!(status, 200, "{snap:?}");
    let snapshot_bytes = snap.get("bytes").and_then(Json::as_u64).unwrap_or(0) as usize;
    // The compaction-trigger contract: the response must carry the
    // write latency and the journal bytes freed (0 without a journal).
    snap.get("duration_ms").and_then(Json::as_f64).expect("snapshot duration_ms");
    snap.get("journal_truncated_bytes")
        .and_then(Json::as_u64)
        .expect("snapshot journal_truncated_bytes");

    let cell = Cell {
        shards,
        req_batch,
        items: items.len(),
        requests,
        busy,
        elapsed_s,
        throughput: items.len() as f64 / elapsed_s,
        p50_ms: percentile(&latencies, 0.50),
        p90_ms: percentile(&latencies, 0.90),
        p99_ms: percentile(&latencies, 0.99),
        clusters,
        snapshot_bytes,
    };
    (cell, clusters_resp)
}

fn main() {
    let cli = parse_cli();
    let total = if cli.smoke {
        180
    } else if cli.full {
        6_000
    } else {
        1_500
    };
    let total = ((total as f64 * cli.scale) as usize).max(60);
    let (items, params) = workload(total);
    let exec = ExecPolicy::auto_or(cli.workers);
    let snapshot_path =
        std::env::temp_dir().join(format!("alid_bench_snap_{}.bin", std::process::id()));

    let mut cells: Vec<Cell> = Vec::new();
    if let Some(addr) = &cli.addr {
        // External-server mode: one ingest/assign/snapshot cycle — the
        // CI smoke path driving a separately spawned `alid serve`.
        http::wait_ready(addr, Duration::from_secs(30)).expect("server never became ready");
        let (cell, _) = drive(addr, &items, 16);
        eprintln!(
            "external cycle against {addr}: {} items in {:.2}s, {} clusters, snapshot {} bytes",
            cell.items, cell.elapsed_s, cell.clusters, cell.snapshot_bytes
        );
        cells.push(cell);
    } else {
        let shard_counts: &[usize] = if cli.smoke { &[1, 2] } else { &[1, 2, 4, 8] };
        let req_batches: &[usize] = if cli.smoke { &[16] } else { &[1, 16, 64] };
        for &shards in shard_counts {
            let mut parity: Option<Json> = None;
            for &req_batch in req_batches {
                let cfg = ServiceConfig::new(8, shards, params)
                    .with_batch(32)
                    .with_queue_capacity(4096)
                    .with_exec(exec);
                let service = Arc::new(Service::new(cfg));
                let server = http::start(
                    service,
                    "127.0.0.1:0",
                    HttpOptions { http_workers: 2, snapshot_path: Some(snapshot_path.clone()) },
                )
                .expect("bind loopback");
                let addr = server.addr().to_string();
                let (cell, clusters) = drive(&addr, &items, req_batch);
                server.shutdown();
                eprintln!(
                    "shards={shards} req_batch={req_batch}: {:.0} items/s, p99 {:.2}ms, {} clusters",
                    cell.throughput, cell.p99_ms, cell.clusters
                );
                // Request batching must not change detection output.
                match &parity {
                    None => parity = Some(clusters),
                    Some(reference) => assert_eq!(
                        reference, &clusters,
                        "request batch size changed the clustering at {shards} shards"
                    ),
                }
                cells.push(cell);
            }
        }
    }
    let _ = std::fs::remove_file(&snapshot_path);

    // The straddling-cluster merge scenario (library-level; skipped
    // when driving an external server whose config we don't own).
    let straddle = if cli.addr.is_none() {
        let counts: &[usize] = if cli.smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
        straddle_cells(exec, counts)
    } else {
        Vec::new()
    };

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.shards.to_string(),
                c.req_batch.to_string(),
                c.items.to_string(),
                c.requests.to_string(),
                c.busy.to_string(),
                fmt(c.elapsed_s),
                fmt(c.throughput),
                fmt(c.p50_ms),
                fmt(c.p90_ms),
                fmt(c.p99_ms),
                c.clusters.to_string(),
            ]
        })
        .collect();
    print_table(
        "Sharded service under closed-loop load — throughput and latency percentiles",
        &[
            "shards",
            "req_batch",
            "items",
            "requests",
            "busy",
            "elapsed_s",
            "items/s",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "clusters",
        ],
        &rows,
    );

    if !straddle.is_empty() {
        let rows: Vec<Vec<String>> = straddle
            .iter()
            .map(|c| {
                vec![
                    c.shards.to_string(),
                    c.raw_clusters.to_string(),
                    c.merged_clusters.to_string(),
                    c.pairs_tested.to_string(),
                    c.pairs_linked.to_string(),
                    c.groups_rerun.to_string(),
                    c.union_items.to_string(),
                    fmt(c.reduce_ms),
                    fmt(c.cached_ms),
                ]
            })
            .collect();
        print_table(
            "Straddling-cluster reduce — merge cost of joining cross-shard fragments",
            &[
                "shards",
                "raw",
                "merged",
                "pairs",
                "linked",
                "unions",
                "union_items",
                "reduce_ms",
                "cached_ms",
            ],
            &rows,
        );
    }

    let mut fields = run_header("alid-bench/service/1", exec.worker_count());
    fields.extend([
        ("smoke", cli.smoke.to_json()),
        ("external_addr", cli.addr.clone().map(Json::Str).unwrap_or(Json::Null)),
        ("total_items", total.to_json()),
        ("cells", cells.to_json()),
        ("straddle", straddle.to_json()),
    ]);
    save_json("BENCH_service", &Json::object(fields));
}
