//! The traced run's machinery: the per-layer metric list, span
//! collection, self time per layer, and reads of the registries the
//! program already exposes (`alid_obs::global()`, a service's
//! `metrics_registry()`).
//!
//! Spans are opened only in benchmark files, around each call into a
//! layer; the program's own `peel.round` and `exec.phase` spans nest
//! inside them. A collector thread keeps draining the ring into memory,
//! so it never overflows (`alid_trace_dropped_events` is checked to stay
//! 0), and the events are written as JSONL when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use alid_obs::trace::{self, SpanEvent};

/// Name and unit of every per-layer metric, in report order. The
/// comment above each group names the layer and the end-to-end metric
/// it should move.
pub const PER_LAYER: [(&str, &str); 60] = [
    // alid-lsh -> setup_s, detect_s [batch-peel]
    ("lsh.build_s", "s"),
    ("lsh.query_us", "us"),
    ("lsh.hits_per_query", "count"),
    // alid-core::alid (LID/ROI/CIVS) -> detect_s [batch-peel]
    ("alid.detect_calls", "count"),
    ("alid.detect_us.p50", "us"),
    ("alid.detect_us.p99", "us"),
    ("alid.detect_calls_per_item", "count"),
    // alid-core::peel -> detect_s [batch-peel]
    ("peel.rounds", "count"),
    ("peel.wasted_share", "1"),
    // alid-affinity -> detect_s [batch-peel], ingest_items_per_s [stream-ingest]
    ("affinity.kernel_evals_per_item", "count"),
    // alid-core::streaming -> ingest_* [stream-ingest], read.p99_ms [mixed-rw]
    ("stream.push_us", "us"),
    ("stream.sweeps", "count"),
    ("stream.sweep_ms.p50", "ms"),
    ("stream.sweep_ms.p99", "ms"),
    ("stream.sweep_kernel_evals", "count"),
    ("stream.pending_at_sweep", "count"),
    ("stream.sweep_detect_calls", "count"),
    // alid-service::service -> ingest_*, read.p99_ms [mixed-rw]
    ("service.admit_us", "us"),
    ("service.drain_ms", "ms"),
    ("service.probe_us", "us"),
    ("service.reduce_ms", "ms"),
    ("service.read_wait_ms", "ms"),
    // Open-loop reads of mixed-rw (`POST /assign`, merged `GET /clusters`),
    // from the scheduled send time, and how late the reader sent them. Too
    // volatile across runs (queueing behind sweeps) for a regression bound.
    ("read.p50_ms", "ms"),
    ("read.p99_ms", "ms"),
    ("read.send_delay_p99_ms", "ms"),
    ("read.send_delay_max_ms", "ms"),
    // alid-service::http -> ingest_p50_ms
    ("http.server_ms.ingest", "ms"),
    ("http.server_ms.assign", "ms"),
    ("http.server_ms.clusters", "ms"),
    ("http.overhead_ms", "ms"),
    // alid-service::journal -> ingest_p50_ms, recover_s [mixed-rw]
    ("journal.fsync_ms", "ms"),
    ("journal.fsyncs_per_request", "count"),
    ("journal.bytes_per_item", "bytes"),
    ("journal.replay_s", "s"),
    // alid-service::snapshot -> ingest_p99_ms, recover_s [mixed-rw]
    ("snapshot.ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.restore_s", "s"),
    // alid-exec -> detect_s [batch-peel], ingest_items_per_s [stream-ingest]
    ("exec.phases", "count"),
    ("exec.jobs", "count"),
    ("exec.parks", "count"),
    ("exec.phase_s", "s"),
    // Self time per layer: span time minus the time its child spans cover.
    ("self.lsh.build_s", "s"),
    ("self.lsh.query_s", "s"),
    ("self.alid.detect_s", "s"),
    ("self.peel.detect_all_s", "s"),
    ("self.peel.round_s", "s"),
    ("self.exec.phase_s", "s"),
    ("self.stream.push_s", "s"),
    ("self.stream.sweep_s", "s"),
    ("self.service.admit_s", "s"),
    ("self.service.drain_s", "s"),
    ("self.service.probe_s", "s"),
    ("self.service.reduce_s", "s"),
    ("self.http.ingest_s", "s"),
    ("self.http.read_s", "s"),
    ("self.snapshot.restore_s", "s"),
    ("self.journal.replay_s", "s"),
    // Tracing itself: (traced - untraced) / untraced headline wall
    // time, and ring evictions (must stay 0).
    ("trace.overhead_share", "1"),
    ("trace.dropped_events", "count"),
    // The process: peak resident set (`VmHWM`); allocator arenas make it
    // vary by a tenth between runs of one seed, so it is no end-to-end
    // metric.
    ("process.rss_peak_mib", "MiB"),
];

/// Span names the benchmark opens (prefixed `bench.`, so they never
/// collide with spans the program itself may open), plus the program's
/// own nested ones, paired with their self-time metric.
const SELF_TIME: [(&str, &str); 16] = [
    ("bench.lsh.build", "self.lsh.build_s"),
    ("bench.lsh.query", "self.lsh.query_s"),
    ("bench.alid.detect", "self.alid.detect_s"),
    ("bench.peel.detect_all", "self.peel.detect_all_s"),
    ("peel.round", "self.peel.round_s"),
    ("exec.phase", "self.exec.phase_s"),
    ("bench.stream.push", "self.stream.push_s"),
    ("bench.stream.sweep", "self.stream.sweep_s"),
    ("bench.service.admit", "self.service.admit_s"),
    ("bench.service.drain", "self.service.drain_s"),
    ("bench.service.probe", "self.service.probe_s"),
    ("bench.service.reduce", "self.service.reduce_s"),
    ("bench.http.ingest", "self.http.ingest_s"),
    ("bench.http.read", "self.http.read_s"),
    ("bench.snapshot.restore", "self.snapshot.restore_s"),
    ("bench.journal.replay", "self.journal.replay_s"),
];

/// The tracer, on, with a background thread moving its ring's events
/// into memory every few milliseconds, so the ring never fills however
/// many spans one library call produces.
pub struct Spans {
    events: Arc<Mutex<Vec<SpanEvent>>>,
    stop: Arc<AtomicBool>,
    drainer: JoinHandle<()>,
}

impl Spans {
    /// Turns the tracer on with an empty ring.
    pub fn start() -> Self {
        trace::enable(trace::DEFAULT_CAPACITY);
        drop(trace::drain());
        let events = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (store, stopped) = (Arc::clone(&events), Arc::clone(&stop));
        // alid-lint: allow(no-raw-threads) -- the benchmark's span collector, joined by `finish`
        let drainer = std::thread::spawn(move || {
            while !stopped.load(Ordering::SeqCst) {
                let batch = trace::drain();
                store.lock().expect("span store").extend(batch);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        Self { events, stop, drainer }
    }

    /// Turns the tracer off, joins the collector and returns every span
    /// recorded (all spans must have closed).
    pub fn finish(self) -> Trace {
        trace::disable();
        self.stop.store(true, Ordering::SeqCst);
        self.drainer.join().expect("the span collector");
        let mut events = std::mem::take(&mut *self.events.lock().expect("span store"));
        events.extend(trace::drain());
        Trace { events }
    }
}

/// Every span of a traced run.
pub struct Trace {
    events: Vec<SpanEvent>,
}

impl Trace {
    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.events.iter().filter(|e| e.name == name).map(|e| e.dur_ns as f64 * 1e-9).collect()
    }

    /// Writes the events as JSONL to `path` (best effort: the metrics
    /// on stdout are the primary output).
    pub fn write(&self, path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, trace::render_jsonl(&self.events)) {
            eprintln!("writing {}: {e}", path.display());
        }
    }

    /// Self time per layer, into the report's `self.*` metrics: each
    /// span's duration minus the durations of its direct children
    /// (children run on the parent's thread, so they never overlap).
    pub fn self_times(&self, out: &mut BTreeMap<&'static str, f64>) {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for e in &self.events {
            if e.parent != 0 {
                *child_ns.entry(e.parent).or_default() += e.dur_ns;
            }
        }
        for &(span, metric) in &SELF_TIME {
            let ns: u64 = self
                .events
                .iter()
                .filter(|e| e.name == span)
                .map(|e| e.dur_ns.saturating_sub(child_ns.get(&e.id).copied().unwrap_or(0)))
                .sum();
            out.insert(metric, ns as f64 * 1e-9);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Spans the ring evicted since the tracer was enabled.
pub fn dropped_events() -> f64 {
    series(alid_obs::global(), "alid_trace_dropped_events")
}

/// The current value of one exported series of `registry` (0 when the
/// series is not registered). Histograms export `<name>_count` and
/// `<name>_sum` (seconds).
pub fn series(registry: &alid_obs::Registry, name: &str) -> f64 {
    registry.snapshot_samples().into_iter().find(|s| s.series == name).map_or(0.0, |s| s.value)
}

/// The exec pool's global counters, for before/after deltas.
#[derive(Clone, Copy)]
pub struct ExecCounters([f64; 4]);

impl ExecCounters {
    pub fn read() -> Self {
        let g = alid_obs::global();
        Self([
            series(g, "alid_exec_phases_total"),
            series(g, "alid_exec_jobs_total"),
            series(g, "alid_exec_parks_total"),
            series(g, "alid_exec_phase_seconds_sum"),
        ])
    }

    /// Reports the growth since `self` as the `exec.*` metrics.
    pub fn report_since(self, out: &mut BTreeMap<&'static str, f64>) {
        let now = Self::read();
        for (i, name) in
            ["exec.phases", "exec.jobs", "exec.parks", "exec.phase_s"].iter().enumerate()
        {
            out.insert(name, now.0[i] - self.0[i]);
        }
    }
}

/// Total detections the peel passes in this process have launched
/// (the global `alid_peel_speculated_total` counter).
pub fn detect_calls_total() -> f64 {
    series(alid_obs::global(), "alid_peel_speculated_total")
}
