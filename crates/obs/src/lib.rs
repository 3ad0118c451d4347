//! Workspace observability: a lock-free metrics registry plus a phase
//! span tracer (see [`trace`]).
//!
//! # Observation is telemetry, never control
//!
//! The whole crate is built around one invariant, inherited from the
//! determinism contract every other crate carries: nothing an
//! instrumented path *computes* may depend on anything this crate
//! *measures*. Three mechanisms enforce it:
//!
//! * **Write-only hot paths.** Instrumented code holds handles whose
//!   write operations ([`Counter::inc`], [`Gauge::set`],
//!   [`Histogram::observe_ns`]) are single relaxed atomic stores; the
//!   read side ([`Counter::metric_value`], [`Registry::render_prometheus`],
//!   [`Registry::snapshot_samples`]) exists only for exposition
//!   surfaces (`GET /metrics`, `/healthz`, bench provenance). The
//!   `no-metric-branching` lint rule bans the read methods from
//!   result-affecting crates outside the telemetry allowlist.
//! * **Clocks live here.** `Instant::now` is confined to this crate
//!   (the lint timing allowlist): callers time a region through
//!   [`Histogram::start_timer`] or a [`trace::span`], so a clock value
//!   can reach a metric but never a caller's control flow.
//! * **Bounded, droppable spans.** The tracer buffers events in a
//!   bounded ring and is off by default; when off, a span is an
//!   `Option::None` with no clock read. `tests/obs_parity.rs` pins
//!   bit-identical outputs with tracing on vs. off at worker counts
//!   {1, 2, 4, 8}.
//!
//! # Registry shape
//!
//! A [`Registry`] is an explicit object, not ambient global state:
//! process-wide subsystems (the exec pool, the tracer, the peeler)
//! register in [`global()`], while each `Service` instance
//! owns a private registry so concurrently running services (the unit
//! test norm) never bleed counters into each other. Registration
//! dedupes on `(name, labels)` and hands back a shared handle; the
//! hot path caches that handle in a `OnceLock`, so steady-state cost
//! is one atomic RMW per event — the registry mutex is touched only
//! at registration and render time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod trace;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Self { v: AtomicU64::new(0) }
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Read side — exposition surfaces only (`no-metric-branching`
    /// bans this from result-affecting crates).
    pub fn metric_value(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A point-in-time measurement (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Self {
        Self { bits: AtomicU64::new(0) }
    }

    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Read side — exposition surfaces only.
    pub fn metric_value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Finite histogram bucket count; bucket `i` holds observations with
/// `ns <= BUCKET_FLOOR_NANOS << i`, one final implicit bucket catches
/// the overflow (`+Inf` in the exposition).
pub const HISTOGRAM_BUCKETS: usize = 26;

/// Upper bound of bucket 0 in nanoseconds (1 µs). Doubling per bucket
/// puts the last finite bound at `1 µs * 2^25` ≈ 33.6 s — wider than
/// any request/phase this workspace serves, narrower than the point
/// where a latency number stops being interesting.
pub const BUCKET_FLOOR_NANOS: u64 = 1_000;

/// A fixed log-scale latency histogram (base-2 buckets from 1 µs).
///
/// Fixed boundaries keep `observe_ns` a two-instruction affair (a
/// leading-zeros bucket index plus one atomic add) and make every
/// histogram in the process mergeable by plain addition.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum_ns: AtomicU64,
}

/// Read-side copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; index [`HISTOGRAM_BUCKETS`]
    /// is the overflow bucket.
    pub buckets: [u64; HISTOGRAM_BUCKETS + 1],
    /// Total observed nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// The bucket an observation of `ns` nanoseconds lands in.
pub fn bucket_index(ns: u64) -> usize {
    let mut i = 0;
    while i < HISTOGRAM_BUCKETS {
        if ns <= (BUCKET_FLOOR_NANOS << i) {
            return i;
        }
        i += 1;
    }
    HISTOGRAM_BUCKETS
}

/// Upper bound of finite bucket `i`, in seconds (the `le` label).
pub fn bucket_bound_seconds(i: usize) -> f64 {
    // Divide rather than multiply by 1e-9: division rounds once, so
    // the bound equals the decimal literal a scraper parses back.
    (BUCKET_FLOOR_NANOS << i) as f64 / 1e9
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; an inline const repeats the
        // initializer per element (and unlike a named const, each
        // element is a fresh atomic, not a shared one).
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS + 1],
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Starts a region timer that observes its elapsed time on drop —
    /// the only way callers outside this crate time anything, so the
    /// clock read stays in here.
    pub fn start_timer(&self) -> Timer<'_> {
        Timer { h: self, t0: Instant::now() }
    }

    /// Read side — exposition surfaces only.
    pub fn metric_value(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS + 1];
        for (b, s) in buckets.iter_mut().zip(&self.buckets) {
            *b = s.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets, sum_ns: self.sum_ns.load(Ordering::Relaxed) }
    }
}

/// Observes the enclosed region's wall time into its histogram on
/// drop. See [`Histogram::start_timer`].
#[must_use = "a dropped timer observes zero elapsed time"]
pub struct Timer<'a> {
    h: &'a Histogram,
    t0: Instant,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.h.observe_ns(self.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

enum Kind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    /// A gauge computed at render time (exports state owned elsewhere,
    /// e.g. the exec pool's thread count, without a second writer).
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(String, String)>,
    kind: Kind,
}

/// One rendered sample of a counter/gauge series (histograms
/// contribute their `_count` and `_sum`), for JSON provenance stamps.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Full series name with label set, e.g. `name{key="value"}`.
    pub series: String,
    pub value: f64,
}

/// A set of named metrics, renderable as Prometheus text exposition.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) the counter `name{labels}` and returns its
    /// shared handle. Callers cache the handle; only registration
    /// touches the registry lock.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let mut entries = self.entries.lock().expect("obs registry");
        if let Some(e) = find(&entries, name, labels) {
            if let Kind::Counter(c) = &e.kind {
                return Arc::clone(c);
            }
        }
        let c = Arc::new(Counter::new());
        entries.push(entry(name, help, labels, Kind::Counter(Arc::clone(&c))));
        c
    }

    /// Registers (or finds) the gauge `name{labels}`.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        let mut entries = self.entries.lock().expect("obs registry");
        if let Some(e) = find(&entries, name, labels) {
            if let Kind::Gauge(g) = &e.kind {
                return Arc::clone(g);
            }
        }
        let g = Arc::new(Gauge::new());
        entries.push(entry(name, help, labels, Kind::Gauge(Arc::clone(&g))));
        g
    }

    /// Registers a gauge whose value is computed by `f` at render
    /// time. Re-registering the same `(name, labels)` is a no-op (the
    /// first callback wins), so idempotent export hooks are cheap.
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        let mut entries = self.entries.lock().expect("obs registry");
        if find(&entries, name, labels).is_some() {
            return;
        }
        entries.push(entry(name, help, labels, Kind::GaugeFn(Box::new(f))));
    }

    /// Registers (or finds) the histogram `name{labels}`.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let mut entries = self.entries.lock().expect("obs registry");
        if let Some(e) = find(&entries, name, labels) {
            if let Kind::Histogram(h) = &e.kind {
                return Arc::clone(h);
            }
        }
        let h = Arc::new(Histogram::new());
        entries.push(entry(name, help, labels, Kind::Histogram(Arc::clone(&h))));
        h
    }

    /// Renders every registered series in Prometheus text exposition
    /// format (sorted by name then label set; one `# HELP`/`# TYPE`
    /// header per family). Read side — exposition surfaces only.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("obs registry");
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            (entries[a].name, &entries[a].labels).cmp(&(entries[b].name, &entries[b].labels))
        });
        let mut out = String::new();
        let mut last_name = "";
        for &i in &order {
            let e = &entries[i];
            if e.name != last_name {
                expo::write_header(
                    &mut out,
                    e.name,
                    e.help,
                    match e.kind {
                        Kind::Counter(_) => "counter",
                        Kind::Gauge(_) | Kind::GaugeFn(_) => "gauge",
                        Kind::Histogram(_) => "histogram",
                    },
                );
                last_name = e.name;
            }
            match &e.kind {
                Kind::Counter(c) => {
                    expo::write_sample(&mut out, e.name, &e.labels, &fmt_u64(c.metric_value()))
                }
                Kind::Gauge(g) => {
                    expo::write_sample(&mut out, e.name, &e.labels, &fmt_f64(g.metric_value()))
                }
                Kind::GaugeFn(f) => expo::write_sample(&mut out, e.name, &e.labels, &fmt_f64(f())),
                Kind::Histogram(h) => {
                    expo::write_histogram(&mut out, e.name, &e.labels, &h.metric_value())
                }
            }
        }
        out
    }

    /// Flat counter/gauge samples (histograms as `_count`/`_sum`) in
    /// render order — the provenance stamp `report::run_header` embeds
    /// in `experiments/*.json`. Read side — exposition surfaces only.
    pub fn snapshot_samples(&self) -> Vec<Sample> {
        let entries = self.entries.lock().expect("obs registry");
        let mut out: Vec<Sample> = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            let series = |suffix: &str| expo::series_name(e.name, suffix, &e.labels);
            match &e.kind {
                Kind::Counter(c) => {
                    out.push(Sample { series: series(""), value: c.metric_value() as f64 })
                }
                Kind::Gauge(g) => out.push(Sample { series: series(""), value: g.metric_value() }),
                Kind::GaugeFn(f) => out.push(Sample { series: series(""), value: f() }),
                Kind::Histogram(h) => {
                    let snap = h.metric_value();
                    out.push(Sample { series: series("_count"), value: snap.count() as f64 });
                    out.push(Sample { series: series("_sum"), value: snap.sum_ns as f64 * 1e-9 });
                }
            }
        }
        out.sort_by(|a, b| a.series.cmp(&b.series));
        out
    }
}

fn find<'a>(entries: &'a [Entry], name: &str, labels: &[(&str, &str)]) -> Option<&'a Entry> {
    entries.iter().find(|e| {
        e.name == name
            && e.labels.len() == labels.len()
            && e.labels.iter().zip(labels).all(|((k0, v0), (k1, v1))| k0 == k1 && v0 == v1)
    })
}

fn entry(name: &'static str, help: &'static str, labels: &[(&str, &str)], kind: Kind) -> Entry {
    let labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    Entry { name, help, labels, kind }
}

/// The process-wide registry: exec pool, tracer, peeler — state
/// with exactly one instance per process. Anything instantiable many
/// times per process (a `Service`) owns a private [`Registry`]
/// instead, so tests running services side by side never mix series.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

fn fmt_u64(v: u64) -> String {
    v.to_string()
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Integral gauges print without a fraction, like Prometheus'
        // own formatter.
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Low-level Prometheus text-exposition writers, public so exposition
/// surfaces can append *live* series (e.g. per-shard queue depths read
/// from service state at scrape time) next to a rendered registry.
pub mod expo {
    use super::{bucket_bound_seconds, HistogramSnapshot, HISTOGRAM_BUCKETS};

    /// Escapes a label value per the exposition format: backslash,
    /// double quote and newline.
    pub fn escape_label(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out
    }

    /// `# HELP` + `# TYPE` lines for one family.
    pub fn write_header(out: &mut String, name: &str, help: &str, kind: &str) {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(help);
        out.push_str("\n# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
    }

    /// `name{labels} value` with an extra name suffix (`_bucket`, ...)
    /// and extra labels appended after the fixed set.
    fn write_suffixed(
        out: &mut String,
        name: &str,
        suffix: &str,
        labels: &[(String, String)],
        extra: Option<(&str, &str)>,
        value: &str,
    ) {
        out.push_str(name);
        out.push_str(suffix);
        if !labels.is_empty() || extra.is_some() {
            out.push('{');
            let mut first = true;
            for (k, v) in labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(&escape_label(v));
                out.push('"');
            }
            out.push('}');
        }
        out.push(' ');
        out.push_str(value);
        out.push('\n');
    }

    /// One `name{labels} value` sample line.
    pub fn write_sample(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
        write_suffixed(out, name, "", labels, None, value);
    }

    /// A full histogram family: cumulative `_bucket` lines (ending in
    /// `le="+Inf"`), then `_sum` (seconds) and `_count`.
    pub fn write_histogram(
        out: &mut String,
        name: &str,
        labels: &[(String, String)],
        snap: &HistogramSnapshot,
    ) {
        let mut cum = 0u64;
        for (i, &b) in snap.buckets.iter().enumerate() {
            cum += b;
            let le = if i == HISTOGRAM_BUCKETS {
                "+Inf".to_string()
            } else {
                format!("{}", bucket_bound_seconds(i))
            };
            write_suffixed(out, name, "_bucket", labels, Some(("le", &le)), &cum.to_string());
        }
        write_suffixed(out, name, "_sum", labels, None, &format!("{}", snap.sum_ns as f64 * 1e-9));
        write_suffixed(out, name, "_count", labels, None, &cum.to_string());
    }

    /// `name{labels}` (with an optional name suffix) as a flat series
    /// key, for JSON provenance samples.
    pub fn series_name(name: &str, suffix: &str, labels: &[(String, String)]) -> String {
        let mut out = String::new();
        out.push_str(name);
        out.push_str(suffix);
        if !labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(&escape_label(v));
                out.push('"');
            }
            out.push('}');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("t_total", "help", &[("k", "v")]);
        c.inc();
        c.add(4);
        assert_eq!(c.metric_value(), 5);
        // Same (name, labels) -> same handle.
        let again = r.counter("t_total", "help", &[("k", "v")]);
        again.inc();
        assert_eq!(c.metric_value(), 6);
        // Different labels -> distinct series.
        let other = r.counter("t_total", "help", &[("k", "w")]);
        assert_eq!(other.metric_value(), 0);
        let g = r.gauge("t_gauge", "help", &[]);
        g.set(2.5);
        assert_eq!(g.metric_value(), 2.5);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two_from_one_microsecond() {
        // Bucket 0 is (0, 1µs]; each bucket doubles; past the last
        // finite bound everything lands in the overflow bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(1_000), 0, "exact bound is inclusive");
        assert_eq!(bucket_index(1_001), 1, "one past the bound spills over");
        assert_eq!(bucket_index(2_000), 1);
        assert_eq!(bucket_index(2_001), 2);
        let last = BUCKET_FLOOR_NANOS << (HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(last), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(last + 1), HISTOGRAM_BUCKETS, "overflow bucket");
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
        assert_eq!(bucket_bound_seconds(0), 1e-6);
        // ~33.6 s: wide enough for any phase in this workspace.
        assert!(bucket_bound_seconds(HISTOGRAM_BUCKETS - 1) > 30.0);
    }

    #[test]
    fn histogram_observations_land_in_their_buckets_and_sum() {
        let h = Histogram::new();
        h.observe_ns(500); // bucket 0
        h.observe_ns(1_500); // bucket 1
        h.observe_ns(1_500); // bucket 1
        h.observe_ns(u64::MAX / 2); // overflow
        let snap = h.metric_value();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 2);
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS], 1);
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.sum_ns, 500 + 1_500 + 1_500 + u64::MAX / 2);
    }

    #[test]
    fn timer_observes_on_drop() {
        let h = Histogram::new();
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.metric_value().count(), 1);
    }

    #[test]
    fn exposition_has_headers_escaping_and_monotone_buckets() {
        let r = Registry::new();
        r.counter("x_total", "events", &[("path", "a\"b\\c\nd")]).add(3);
        r.gauge("x_gauge", "level", &[]).set(1.0);
        r.gauge_fn("x_fn", "computed", &[], || 7.25);
        let h = r.histogram("x_seconds", "latency", &[]);
        h.observe_ns(10);
        h.observe_ns(5_000);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP x_total events\n# TYPE x_total counter\n"));
        assert!(text.contains("# TYPE x_gauge gauge\n"));
        assert!(text.contains("# TYPE x_seconds histogram\n"));
        // Label escaping: quote, backslash and newline.
        assert!(text.contains(r#"x_total{path="a\"b\\c\nd"} 3"#));
        assert!(text.contains("x_gauge 1\n"));
        assert!(text.contains("x_fn 7.25\n"));
        // Cumulative buckets: every later bucket >= every earlier one,
        // +Inf equals _count.
        let mut cum = Vec::new();
        for line in text.lines().filter(|l| l.starts_with("x_seconds_bucket")) {
            cum.push(line.rsplit(' ').next().unwrap().parse::<u64>().unwrap());
        }
        assert_eq!(cum.len(), HISTOGRAM_BUCKETS + 1);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "buckets must be cumulative");
        assert_eq!(*cum.last().unwrap(), 2);
        assert!(text.contains("x_seconds_count 2\n"));
        // Families are sorted by name.
        let fam_order: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE"))
            .map(|l| l.split(' ').nth(2).unwrap())
            .collect();
        let mut sorted = fam_order.clone();
        sorted.sort_unstable();
        assert_eq!(fam_order, sorted);
    }

    #[test]
    fn snapshot_samples_flatten_histograms_and_sort() {
        let r = Registry::new();
        r.counter("b_total", "x", &[("site", "s")]).add(2);
        let h = r.histogram("a_seconds", "x", &[]);
        h.observe_ns(2_000_000_000);
        let samples = r.snapshot_samples();
        let keys: Vec<&str> = samples.iter().map(|s| s.series.as_str()).collect();
        assert_eq!(keys, vec!["a_seconds_count", "a_seconds_sum", "b_total{site=\"s\"}"]);
        assert_eq!(samples[0].value, 1.0);
        assert!((samples[1].value - 2.0).abs() < 1e-9, "sum renders in seconds");
        assert_eq!(samples[2].value, 2.0);
    }
}
