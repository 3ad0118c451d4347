//! `stream-ingest` and `mixed-rw`: an in-process 2-shard server (sweep
//! period 32) fed by one closed-loop client in requests of
//! [`REQ_BATCH`] items, on the fixed-size-cluster regime.
//!
//! * `stream-ingest` has no journal. The final `/clusters` must equal a
//!   library replay through per-shard `StreamingAlid`s, with zero busy
//!   verdicts.
//! * `mixed-rw` adds a journal with a small compaction threshold, so
//!   compaction runs inline on several ingests, and an open-loop reader
//!   that sends `POST /assign` probes at [`READ_RATE`] per second (every
//!   [`MERGED_EVERY`]th a `GET /clusters?view=merged`), timed from each
//!   request's scheduled send time. The writer snapshots before the
//!   last [`TAIL_ITEMS`] items, so every restart restores the snapshot
//!   and replays the same journal tail; the recovered service's
//!   `snapshot_bytes` must equal the pre-restart bytes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alid_affinity::clustering::{Clustering, DetectedCluster};
use alid_affinity::cost::CostModel;
use alid_core::{StreamUpdate, StreamingAlid};
use alid_exec::ExecPolicy;
use alid_obs::trace::span;
use alid_service::http::{self, Client, HttpOptions, HttpServer};
use alid_service::{journal, snapshot, JournalConfig, Service, ServiceConfig};
use serde::Json;

use crate::layers::{self, rss_peak_mib, series, ExecCounters, Spans};
use crate::workload::{generate, Regime, Workload, DIM};
use crate::{mean, median, now, quantile, since, Report, WORKERS};

/// Items in the stream.
pub const ITEMS: usize = 6_000;
/// Items per `POST /ingest`: small enough that one run yields well over
/// a thousand request latencies, so p99 has ten samples beyond it.
const REQ_BATCH: usize = 4;
const SHARDS: usize = 2;
/// Arrivals per shard between detection sweeps.
const SWEEP_PERIOD: usize = 32;
/// mixed-rw: journal bytes between inline compactions (about 1,350 items,
/// so compaction runs four times a pass).
const COMPACT_EVERY: u64 = 256 << 10;
/// mixed-rw: items ingested after the explicit snapshot, under one
/// compaction's worth, so every restart replays the same tail; long
/// enough to hold a dozen sweeps per shard, so its replay time does not
/// hang on how the last few sweeps fall.
const TAIL_ITEMS: usize = 1024;
/// mixed-rw: open-loop read rate (requests per second).
const READ_RATE: f64 = 50.0;
/// mixed-rw: every this many reads is a merged `GET /clusters`.
const MERGED_EVERY: usize = 50;
/// mixed-rw: restarts timed per pass.
const RESTARTS: usize = 3;
/// Server set-ups timed before each pass, so the set-up median spans
/// the whole run rather than one moment of it.
const SETUPS_PER_PASS: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Stream,
    Mixed,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Stream => "stream-ingest",
            Mode::Mixed => "mixed-rw",
        }
    }
}

pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool, exec: ExecPolicy) -> Report {
    let w = generate(Regime::Fixed, ITEMS, seed, exec);
    let scratch = PathBuf::from(format!(".perfbench-out/{}-{}", mode.name(), std::process::id()));
    let mut r = Report::default();
    if trace {
        traced(mode, &w, exec, &scratch, &mut r);
    } else {
        timed(mode, &w, exec, &scratch, seconds, &mut r);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    r
}

fn config(w: &Workload, exec: ExecPolicy) -> ServiceConfig {
    ServiceConfig::new(DIM, SHARDS, w.params)
        .with_batch(SWEEP_PERIOD)
        .with_queue_capacity(4096)
        .with_exec(exec)
}

/// `(shard, cluster, size, density bits)` in `GET /clusters` order:
/// density descending, then `(shard, cluster)`.
type Summary = (u64, u64, u64, u64);

fn sorted(mut summaries: Vec<Summary>) -> Vec<Summary> {
    summaries.sort_by(|a, b| {
        f64::from_bits(b.3)
            .total_cmp(&f64::from_bits(a.3))
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });
    summaries
}

fn summaries_from_json(resp: &Json) -> Option<Vec<Summary>> {
    resp.get("clusters")?
        .as_arr()?
        .iter()
        .map(|c| {
            let u = |k: &str| c.get(k).and_then(Json::as_u64);
            Some((u("shard")?, u("cluster")?, u("size")?, c.get("density")?.as_f64()?.to_bits()))
        })
        .collect()
}

/// Per-layer figures of the library replay.
#[derive(Default)]
struct StreamFigures {
    sweeps: usize,
    pending: Vec<f64>,
    sweep_evals: u64,
    sweep_detects: u64,
}

/// Replays the stream through per-shard `StreamingAlid`s routed by
/// `Service::route`, with auto-sweep disabled and `sweep()` called
/// every `SWEEP_PERIOD` arrivals — exactly when a shard's own sweep
/// would fire (on an arrival that did not attach). Returns the
/// clusters in `GET /clusters` order.
fn library_replay(w: &Workload, exec: ExecPolicy) -> (Vec<Summary>, StreamFigures) {
    let router = Service::new(config(w, exec));
    let cost = CostModel::shared();
    let mut shards: Vec<StreamingAlid> = (0..SHARDS)
        .map(|_| StreamingAlid::new(DIM, w.params, usize::MAX, Arc::clone(&cost)))
        .collect();
    let mut arrivals = [0usize; SHARDS];
    let mut fig = StreamFigures::default();
    for v in w.data.iter() {
        let s = router.route(v);
        let update = {
            let _s = span("bench.stream.push");
            shards[s].push(v)
        };
        arrivals[s] += 1;
        if matches!(update, StreamUpdate::Buffered) && arrivals[s] >= SWEEP_PERIOD {
            arrivals[s] = 0;
            fig.sweeps += 1;
            fig.pending.push(shards[s].pending().len() as f64);
            let (evals, detects) =
                (cost.snapshot().kernel_evals, shards[s].peel_stats().speculated);
            {
                let _s = span("bench.stream.sweep");
                shards[s].sweep();
            }
            fig.sweep_evals += cost.snapshot().kernel_evals - evals;
            fig.sweep_detects += shards[s].peel_stats().speculated - detects;
        }
    }
    let summaries = shards
        .iter()
        .enumerate()
        .flat_map(|(s, stream)| {
            stream.clusters().iter().enumerate().map(move |(c, cluster)| {
                (s as u64, c as u64, cluster.members.len() as u64, cluster.density.to_bits())
            })
        })
        .collect();
    (sorted(summaries), fig)
}

/// A running server on a fresh service (with a journal when `dir` is
/// given), and the seconds it took to accept work.
struct Server {
    service: Arc<Service>,
    http: HttpServer,
    addr: String,
}

fn start_server(w: &Workload, exec: ExecPolicy, dir: Option<&Path>) -> (Server, f64) {
    let t = now();
    let mut service = Service::new(config(w, exec));
    if let Some(dir) = dir {
        let cfg = JournalConfig { dir: dir.join("journal"), compact_every: COMPACT_EVERY };
        let journal = journal::recover_and_open(cfg, &service, 0).expect("open the journal");
        service.set_journal(journal);
    }
    let service = Arc::new(service);
    let opts =
        HttpOptions { http_workers: WORKERS, snapshot_path: dir.map(|d| d.join("snapshot.bin")) };
    let http = http::start(Arc::clone(&service), "127.0.0.1:0", opts).expect("bind loopback");
    let addr = http.addr().to_string();
    http::wait_ready(&addr, Duration::from_secs(10)).expect("the server answers /healthz");
    let setup = since(t);
    (Server { service, http, addr }, setup)
}

fn items_json(w: &Workload, ids: std::ops::Range<usize>) -> Json {
    let rows = ids.map(|i| Json::Arr(w.data.get(i).iter().map(|&x| Json::Num(x)).collect()));
    Json::object([("items", Json::Arr(rows.collect()))])
}

/// Client-side tallies of one pass (merged across client threads).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    requests: usize,
    ingest_ms: Vec<f64>,
    /// Open-loop read latencies from the scheduled send time.
    read_ms: Vec<f64>,
    /// Open loop: how late each read was sent, and `POST /assign`
    /// latencies from the actual send time.
    late_ms: Vec<f64>,
    probe_ms: Vec<f64>,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.requests += other.requests;
        self.ingest_ms.extend(other.ingest_ms);
        self.read_ms.extend(other.read_ms);
        self.late_ms.extend(other.late_ms);
        self.probe_ms.extend(other.probe_ms);
    }
}

/// Closed-loop `POST /ingest` of `ids` in `REQ_BATCH`-item requests.
/// Non-200 answers, I/O errors and busy verdicts are failed operations.
fn ingest(client: &mut Client, w: &Workload, ids: std::ops::Range<usize>, t: &mut Tally) {
    for start in ids.clone().step_by(REQ_BATCH) {
        let body = items_json(w, start..(start + REQ_BATCH).min(ids.end));
        let sent = now();
        let reply = {
            let _s = span("bench.http.ingest");
            client.request("POST", "/ingest", Some(&body))
        };
        t.ingest_ms.push(since(sent) * 1e3);
        t.requests += 1;
        let busy = match &reply {
            Ok((200, resp)) => resp.get("results").and_then(Json::as_arr).map(|results| {
                results
                    .iter()
                    .filter(|r| r.get("status").and_then(Json::as_str) != Some("enqueued"))
                    .count() as u64
            }),
            _ => None,
        };
        t.op(busy == Some(0));
    }
}

/// The open-loop reader of mixed-rw: one read due every `1/READ_RATE`
/// seconds until `done`, each timed from when it was due.
fn read_open_loop(addr: &str, w: &Workload, done: &AtomicBool) -> Tally {
    let mut t = Tally::default();
    let Ok(mut client) = Client::connect(addr) else {
        t.op(false);
        return t;
    };
    let n = w.data.len();
    let start = now();
    let mut k = 0usize;
    while !done.load(Ordering::SeqCst) {
        let due = start + Duration::from_secs_f64(k as f64 / READ_RATE);
        let wait = due.saturating_duration_since(now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let sent = now();
        t.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        let merged = k % MERGED_EVERY == MERGED_EVERY - 1;
        let reply = {
            let _s = span("bench.http.read");
            if merged {
                client.request("GET", "/clusters?view=merged", None)
            } else {
                let probe =
                    Json::Arr(w.data.get(k * 7919 % n).iter().map(|&x| Json::Num(x)).collect());
                client.request("POST", "/assign", Some(&Json::object([("vector", probe)])))
            }
        };
        t.read_ms.push(since(due) * 1e3);
        if !merged {
            t.probe_ms.push(since(sent) * 1e3);
        }
        t.op(matches!(reply, Ok((200, _))));
        k += 1;
    }
    t
}

/// What one pass measured, beyond the client tallies.
struct Pass {
    tally: Tally,
    setup_s: f64,
    wall_s: f64,
    recover_s: f64,
    avg_f1: f64,
    peak_mib: f64,
    kernel_evals: u64,
    detect_calls: f64,
    /// The server's registry, read before shutdown (trace figures).
    registry: Vec<(String, f64)>,
}

impl Pass {
    fn series(&self, name: &str) -> f64 {
        self.registry.iter().find(|(s, _)| s == name).map_or(0.0, |&(_, v)| v)
    }
}

fn avg_f1(w: &Workload, service: &Service) -> f64 {
    let mut members: std::collections::BTreeMap<(u32, u32), Vec<u32>> = Default::default();
    for id in 0..w.data.len() {
        if let Some(Some(c)) = service.assignment(id as u64) {
            members.entry((c.shard, c.cluster)).or_default().push(id as u32);
        }
    }
    let clusters = members.into_values().map(|m| DetectedCluster::uniform(m, 1.0)).collect();
    alid_data::metrics::avg_f1(&w.truth, &Clustering { n: w.data.len(), clusters })
}

/// One pass: start a server, stream every item through it, read, and
/// (mixed-rw) restart from snapshot plus journal. Checks count in the
/// tally: a matching `/clusters` against `reference` (stream-ingest),
/// and byte-identical recovery (mixed-rw).
fn pass(
    mode: Mode,
    w: &Workload,
    exec: ExecPolicy,
    dir: &Path,
    reference: Option<&[Summary]>,
) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let journaled = mode == Mode::Mixed;
    let (server, setup_s) = start_server(w, exec, journaled.then_some(dir));
    let n = w.data.len();
    let evals = server.service.cost().snapshot().kernel_evals;
    let detects = layers::detect_calls_total();
    let mut tally = Tally::default();
    let started = now();
    let mut client = Client::connect(&server.addr).expect("connect to the in-process server");
    match mode {
        Mode::Stream => ingest(&mut client, w, 0..n, &mut tally),
        Mode::Mixed => {
            let done = AtomicBool::new(false);
            let reads = std::thread::scope(|scope| {
                // alid-lint: allow(no-raw-threads) -- the open-loop reader is a benchmark client thread, joined by the scope
                let reader = scope.spawn(|| read_open_loop(&server.addr, w, &done));
                let hold = n - TAIL_ITEMS;
                ingest(&mut client, w, 0..hold, &mut tally);
                let snap = client.request("POST", "/snapshot", None);
                tally.op(matches!(snap, Ok((200, _))));
                ingest(&mut client, w, hold..n, &mut tally);
                done.store(true, Ordering::SeqCst);
                reader.join().expect("the reader thread")
            });
            tally.merge(reads);
        }
    }
    let wall_s = since(started);
    let kernel_evals = server.service.cost().snapshot().kernel_evals - evals;
    let detect_calls = layers::detect_calls_total() - detects;

    if mode == Mode::Stream {
        let got = client.request("GET", "/clusters", None).ok().and_then(|(status, resp)| {
            (status == 200).then(|| summaries_from_json(&resp)).flatten()
        });
        let ok = reference.is_some_and(|want| got.as_deref() == Some(want));
        if !ok {
            eprintln!("check failed: final /clusters differs from the library replay");
        }
        tally.op(ok);
    }
    drop(client);
    let service = &server.service;
    let registry = service
        .metrics_registry()
        .snapshot_samples()
        .into_iter()
        .map(|s| (s.series, s.value))
        .collect();
    let mut out = Pass {
        setup_s,
        wall_s,
        // Without persistence, recovery is re-ingesting everything.
        recover_s: setup_s + wall_s,
        avg_f1: avg_f1(w, service),
        peak_mib: service.cost().snapshot().peak_mib(),
        kernel_evals,
        detect_calls,
        registry,
        tally,
    };
    let before = journaled.then(|| snapshot::snapshot_bytes(service));
    server.http.shutdown();
    drop(server.service);
    if let Some(before) = before {
        let mut recover_s = Vec::new();
        for _ in 0..RESTARTS {
            let t = now();
            let bytes = std::fs::read(dir.join("snapshot.bin")).expect("read the snapshot");
            let (mut service, meta) = {
                let _s = span("bench.snapshot.restore");
                snapshot::restore_with_meta(&bytes, exec).expect("restore the snapshot")
            };
            let cfg = JournalConfig { dir: dir.join("journal"), compact_every: COMPACT_EVERY };
            let journal = {
                let _s = span("bench.journal.replay");
                journal::recover_and_open(cfg, &service, meta.journal_pos)
                    .expect("replay the journal")
            };
            service.set_journal(journal);
            recover_s.push(since(t));
            // The live service's cost model also counts the aux bytes of
            // every merged-view reduce, which depends on read timing; the
            // recovered service holds the same state without them.
            out.peak_mib = service.cost().snapshot().peak_mib();
            let same = snapshot::snapshot_bytes(&service) == before;
            if !same {
                eprintln!("check failed: the recovered service's snapshot differs");
            }
            out.tally.op(same);
        }
        out.recover_s = median(&recover_s);
    }
    let _ = std::fs::remove_dir_all(dir);
    out
}

fn timed(mode: Mode, w: &Workload, exec: ExecPolicy, scratch: &Path, seconds: f64, r: &mut Report) {
    let n = w.data.len() as f64;
    let reference = (mode == Mode::Stream).then(|| library_replay(w, exec).0);
    let journaled = mode == Mode::Mixed;
    let (mut setups, mut walls, mut recovers) = (Vec::new(), Vec::new(), Vec::new());
    // Per-pass quantiles: a noisy stretch of the run then moves one
    // pass's figure, not the run's median.
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut all = Tally::default();
    let mut first: Option<Pass> = None;
    let start = now();
    while first.is_none() || since(start) < seconds {
        for i in 0..SETUPS_PER_PASS {
            let dir = scratch.join(format!("setup-{i}"));
            let (server, setup_s) = start_server(w, exec, journaled.then_some(dir.as_path()));
            setups.push(setup_s);
            server.http.shutdown();
            drop(server.service);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let mut p = pass(mode, w, exec, &scratch.join("pass"), reference.as_deref());
        setups.push(p.setup_s);
        walls.push(p.wall_s);
        recovers.push(p.recover_s);
        p50s.push(quantile(&p.tally.ingest_ms, 0.50));
        p99s.push(quantile(&p.tally.ingest_ms, 0.99));
        if let Some(f) = &first {
            r.check(f.avg_f1 == p.avg_f1, "the final clustering is deterministic");
        }
        all.merge(std::mem::take(&mut p.tally));
        if first.is_none() {
            first = Some(p);
        }
    }
    let first = first.expect("at least one pass");
    r.attempted += all.attempted;
    r.failed += all.failed;
    println!(
        "ingest {:.4}s  kernel evals/item {:.1}  detect calls/item {:.3}  journal bytes/item {:.1}  \
         reads {}  read send delay p99 {:.3}ms max {:.3}ms",
        median(&walls),
        first.kernel_evals as f64 / n,
        first.detect_calls / n,
        first.series("alid_service_journal_bytes_total") / n,
        all.read_ms.len(),
        quantile(&all.late_ms, 0.99),
        quantile(&all.late_ms, 1.0),
    );
    r.set("setup_s", median(&setups));
    r.set("detect_s", median(&walls));
    r.set("ingest_items_per_s", n / median(&walls));
    r.set("ingest_p50_ms", median(&p50s));
    r.set("ingest_p99_ms", median(&p99s));
    r.set("recover_s", median(&recovers));
    r.set("avg_f1", first.avg_f1);
    r.set("peak_mib", first.peak_mib);
}

/// An untraced pass (the overhead baseline), then traced: the library
/// replay (streaming layer), a direct `Service` replay (service layer)
/// and an HTTP pass (front end, journal, snapshot, recovery), whose
/// final `/clusters` (stream-ingest) must equal the traced replay.
fn traced(mode: Mode, w: &Workload, exec: ExecPolicy, scratch: &Path, r: &mut Report) {
    let n = w.data.len() as f64;
    let dir = scratch.join("pass");
    let reference = (mode == Mode::Stream).then(|| library_replay(w, exec).0);
    let untraced = pass(mode, w, exec, &dir, reference.as_deref());

    let spans = Spans::start();
    let (replayed, fig) = library_replay(w, exec);
    if let Some(reference) = &reference {
        r.check(replayed == *reference, "tracing leaves the library replay unchanged");
    }

    // The service layer without the front end: admission and drain per
    // request, plus (mixed-rw) a probe per request and a merged view
    // every MERGED_EVERY requests, as the reader would send them.
    let service = Service::new(config(w, exec));
    for (k, start) in (0..w.data.len()).step_by(REQ_BATCH).enumerate() {
        let rows: Vec<&[f64]> =
            (start..(start + REQ_BATCH).min(w.data.len())).map(|i| w.data.get(i)).collect();
        {
            let _s = span("bench.service.admit");
            std::hint::black_box(service.ingest_batch(rows.iter().copied()));
        }
        {
            let _s = span("bench.service.drain");
            service.drain();
        }
        if mode == Mode::Mixed {
            {
                let _s = span("bench.service.probe");
                std::hint::black_box(service.probe(w.data.get(k * 7919 % w.data.len())));
            }
            if k % MERGED_EVERY == MERGED_EVERY - 1 {
                let _s = span("bench.service.reduce");
                std::hint::black_box(service.merged_view());
            }
        }
    }
    drop(service);

    let exec_before = ExecCounters::read();
    let peel_before = peel_counters();
    let p = pass(mode, w, exec, &dir, Some(&replayed));
    exec_before.report_since(&mut r.metrics);
    let peel_after = peel_counters();
    let peel: [f64; 3] = std::array::from_fn(|i| peel_after[i] - peel_before[i]);
    let spans = spans.finish();

    r.attempted += untraced.tally.attempted + p.tally.attempted;
    r.failed += untraced.tally.failed + p.tally.failed;
    r.check(p.avg_f1 == untraced.avg_f1, "tracing leaves the clustering unchanged");
    let dropped = layers::dropped_events();
    r.check(dropped == 0.0, "the trace ring dropped no events");

    let ms = |name: &str| mean(&spans.durations(name)) * 1e3;
    let server_ms = |path: &str| {
        let count = p.series(&format!("alid_http_request_seconds_count{{path=\"{path}\"}}"));
        let sum = p.series(&format!("alid_http_request_seconds_sum{{path=\"{path}\"}}"));
        if count > 0.0 {
            sum / count * 1e3
        } else {
            0.0
        }
    };
    let sweep_ms: Vec<f64> =
        spans.durations("bench.stream.sweep").iter().map(|s| s * 1e3).collect();
    let fsyncs = p.series("alid_service_journal_fsync_seconds_count");
    let snapshots = p.series("alid_service_snapshot_seconds_count");
    let [speculated, accepted, rounds] = peel;
    let m = &mut r.metrics;
    m.insert("alid.detect_calls_per_item", p.detect_calls / n);
    m.insert("peel.rounds", rounds);
    m.insert("peel.wasted_share", (speculated - accepted) / speculated.max(1.0));
    m.insert("affinity.kernel_evals_per_item", p.kernel_evals as f64 / n);
    m.insert("stream.push_us", ms("bench.stream.push") * 1e3);
    m.insert("stream.sweeps", fig.sweeps as f64);
    m.insert("stream.sweep_ms.p50", quantile(&sweep_ms, 0.50));
    m.insert("stream.sweep_ms.p99", quantile(&sweep_ms, 0.99));
    m.insert("stream.sweep_kernel_evals", fig.sweep_evals as f64);
    m.insert("stream.pending_at_sweep", mean(&fig.pending));
    m.insert("stream.sweep_detect_calls", fig.sweep_detects as f64);
    m.insert("service.admit_us", ms("bench.service.admit") * 1e3);
    m.insert("service.drain_ms", ms("bench.service.drain"));
    m.insert("service.probe_us", ms("bench.service.probe") * 1e3);
    m.insert("service.reduce_ms", ms("bench.service.reduce"));
    if mode == Mode::Mixed {
        m.insert("service.read_wait_ms", mean(&p.tally.probe_ms) - ms("bench.service.probe"));
    }
    m.insert("http.server_ms.ingest", server_ms("/ingest"));
    m.insert("http.server_ms.assign", server_ms("/assign"));
    m.insert("http.server_ms.clusters", server_ms("/clusters"));
    m.insert("http.overhead_ms", mean(&p.tally.ingest_ms) - server_ms("/ingest"));
    if fsyncs > 0.0 {
        m.insert(
            "journal.fsync_ms",
            p.series("alid_service_journal_fsync_seconds_sum") / fsyncs * 1e3,
        );
    }
    m.insert("journal.fsyncs_per_request", fsyncs / p.tally.requests as f64);
    m.insert("journal.bytes_per_item", p.series("alid_service_journal_bytes_total") / n);
    m.insert("journal.replay_s", median(&spans.durations("bench.journal.replay")));
    if snapshots > 0.0 {
        m.insert("snapshot.ms", p.series("alid_service_snapshot_seconds_sum") / snapshots * 1e3);
    }
    m.insert("snapshot.bytes", p.series("alid_service_snapshot_bytes"));
    m.insert("snapshot.restore_s", median(&spans.durations("bench.snapshot.restore")));
    m.insert("trace.overhead_share", (p.wall_s - untraced.wall_s) / untraced.wall_s);
    m.insert("trace.dropped_events", dropped);
    m.insert("process.rss_peak_mib", rss_peak_mib());
    // Read latency of the untraced pass's open-loop reader (mixed-rw).
    let reads = &untraced.tally;
    m.insert("read.p50_ms", quantile(&reads.read_ms, 0.50));
    m.insert("read.p99_ms", quantile(&reads.read_ms, 0.99));
    m.insert("read.send_delay_p99_ms", quantile(&reads.late_ms, 0.99));
    m.insert("read.send_delay_max_ms", quantile(&reads.late_ms, 1.0));
    spans.self_times(m);
    spans.write(Path::new(&format!(".perfbench-out/trace-{}.jsonl", mode.name())));
}

/// The global peel counters: detections launched, detections
/// committed, speculative rounds.
fn peel_counters() -> [f64; 3] {
    let g = alid_obs::global();
    ["alid_peel_speculated_total", "alid_peel_accepted_total", "alid_peel_rounds_total"]
        .map(|name| series(g, name))
}
