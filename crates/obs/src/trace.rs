//! Phase-event tracing: structured spans in a bounded ring buffer,
//! drainable as JSONL.
//!
//! A [`span`] marks one region of interest (an exec phase, a peel
//! round, an HTTP request). While the tracer is **disabled** — the
//! default — a span is `None` inside: no clock read, no allocation,
//! one relaxed atomic load. While **enabled**, the span stamps start
//! and end against a process-wide epoch, remembers its parent (the
//! innermost open span on the same thread), carries caller-supplied
//! payload counters, and on drop pushes one event into a bounded ring
//! (oldest events are dropped, and counted, under pressure — tracing
//! must never grow without bound or push back on the traced system).
//!
//! Events leave the process as JSON Lines: [`drain_jsonl`] for
//! in-process consumers, [`drain_to_file`] for one-shot bench runs,
//! [`start_writer`] for a long-running server (`alid serve
//! --trace-out <path>` appends once a second). Event *content* is
//! timing, so trace files are not byte-deterministic — the parity
//! suite instead proves the traced computation's outputs are.

use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default ring capacity (events), used by the `--trace-out` flags:
/// ~64k events at ~100 B each caps tracer memory near 6 MB.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Process-unique span id (1-based; 0 is "no parent").
    pub id: u64,
    /// Enclosing span's id, 0 at top level.
    pub parent: u64,
    /// Static region name, e.g. `exec.phase`.
    pub name: &'static str,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub dur_ns: u64,
    /// Caller-attached payload counters, in attachment order.
    pub counters: Vec<(&'static str, u64)>,
}

struct Ring {
    buf: VecDeque<SpanEvent>,
    cap: usize,
    dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring { buf: VecDeque::new(), cap: DEFAULT_CAPACITY, dropped: 0 })
    })
}

/// The instant all span timestamps are relative to (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

std::thread_local! {
    /// Innermost-open-span stack of this thread, for parent links.
    static OPEN: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Turns tracing on with the given ring capacity (also resets the
/// drop count and registers the tracer's own gauges in the global
/// registry). Existing buffered events are kept.
pub fn enable(capacity: usize) {
    {
        let mut ring = ring().lock().expect("trace ring");
        ring.cap = capacity.max(1);
        ring.dropped = 0;
        while ring.buf.len() > ring.cap {
            ring.buf.pop_front();
        }
    }
    crate::global().gauge_fn(
        "alid_trace_buffered_events",
        "Completed spans waiting in the trace ring",
        &[],
        || ring().lock().expect("trace ring").buf.len() as f64,
    );
    crate::global().gauge_fn(
        "alid_trace_dropped_events",
        "Spans evicted from the full trace ring since enable",
        &[],
        || ring().lock().expect("trace ring").dropped as f64,
    );
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off. Buffered events stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are currently being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a span named `name`. Near-free when tracing is disabled.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Span {
        inner: Some(SpanInner {
            t0: Instant::now(),
            event: SpanEvent { id, parent, name, start_ns: 0, dur_ns: 0, counters: Vec::new() },
        }),
    }
}

struct SpanInner {
    t0: Instant,
    event: SpanEvent,
}

/// An open trace region; records itself on drop. See [`span`].
#[must_use = "a span measures the region it is alive for"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Attaches (or bumps) a payload counter, e.g. `workers`. No-op
    /// while tracing is disabled.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            match inner.event.counters.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += value,
                None => inner.event.counters.push((key, value)),
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut inner) = self.inner.take() else { return };
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == inner.event.id) {
                open.remove(at);
            }
        });
        inner.event.dur_ns = inner.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        inner.event.start_ns =
            (inner.t0 - epoch().min(inner.t0)).as_nanos().min(u64::MAX as u128) as u64;
        let mut ring = ring().lock().expect("trace ring");
        if ring.buf.len() >= ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(inner.event);
    }
}

/// Takes every buffered event out of the ring, oldest first.
pub fn drain() -> Vec<SpanEvent> {
    ring().lock().expect("trace ring").buf.drain(..).collect()
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders events as JSON Lines (one object per event).
pub fn render_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str("{\"name\":\"");
        escape_json(e.name, &mut out);
        out.push_str(&format!(
            "\",\"id\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{}",
            e.id, e.parent, e.start_ns, e.dur_ns
        ));
        if !e.counters.is_empty() {
            out.push_str(",\"counters\":{");
            for (i, (k, v)) in e.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(k, &mut out);
                out.push_str(&format!("\":{v}"));
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    out
}

/// Drains the ring and renders the events as JSONL.
pub fn drain_jsonl() -> String {
    render_jsonl(&drain())
}

/// Drains the ring and appends the JSONL to `path`. Returns the
/// number of events written.
pub fn drain_to_file(path: &std::path::Path) -> std::io::Result<usize> {
    let events = drain();
    if events.is_empty() {
        return Ok(0);
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(render_jsonl(&events).as_bytes())?;
    Ok(events.len())
}

/// Spawns a detached flusher thread that appends the ring's events to
/// `path` every `every` — the long-running half of `--trace-out`
/// (`alid serve` cannot drain at exit, it has no exit). Errors on the
/// first write are returned; later write errors drop that flush and
/// keep the server alive.
pub fn start_writer(path: PathBuf, every: Duration) -> std::io::Result<()> {
    // Fail fast while the caller can still report it: open (and keep)
    // the handle here rather than discovering a bad path seconds in.
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
    std::thread::Builder::new()
        .name("alid-obs-trace".into())
        .spawn(move || loop {
            std::thread::sleep(every);
            let events = drain();
            if !events.is_empty() {
                let _ = f.write_all(render_jsonl(&events).as_bytes());
                let _ = f.flush();
            }
        })
        .map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracer state is process-global; tests that toggle it serialize
    /// here (separate test binaries — the parity suite — are isolated
    /// by the process boundary).
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        disable();
        drain();
        {
            let mut sp = span("quiet");
            sp.count("k", 1);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_count_and_drain_in_order() {
        let _g = guard();
        enable(64);
        drain();
        {
            let mut outer = span("outer");
            outer.count("items", 2);
            outer.count("items", 3);
            let _inner = span("inner");
        }
        disable();
        let events = drain();
        assert_eq!(events.len(), 2, "inner closes first, then outer");
        let (inner, outer) = (&events[0], &events[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, outer.id, "parent link via the thread's open stack");
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.counters, vec![("items", 5)], "repeat counts accumulate");
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let _g = guard();
        enable(4);
        drain();
        for _ in 0..10 {
            let _sp = span("spin");
        }
        disable();
        let dropped = ring().lock().expect("trace ring").dropped;
        let events = drain();
        assert_eq!(events.len(), 4, "ring keeps only the newest `cap` events");
        assert_eq!(dropped, 6);
    }

    #[test]
    fn jsonl_renders_one_escaped_object_per_event() {
        let events = vec![SpanEvent {
            id: 7,
            parent: 0,
            name: "line\"one",
            start_ns: 5,
            dur_ns: 9,
            counters: vec![("width", 4)],
        }];
        let text = render_jsonl(&events);
        assert_eq!(
            text,
            "{\"name\":\"line\\\"one\",\"id\":7,\"parent\":0,\"start_ns\":5,\"dur_ns\":9,\
             \"counters\":{\"width\":4}}\n"
        );
    }

    #[test]
    fn drain_to_file_appends_jsonl() {
        let _g = guard();
        enable(64);
        drain();
        {
            let _sp = span("filed");
        }
        disable();
        let path =
            std::env::temp_dir().join(format!("alid_obs_trace_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let wrote = drain_to_file(&path).expect("write trace");
        assert_eq!(wrote, 1);
        let text = std::fs::read_to_string(&path).expect("read trace");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"name\":\"filed\""));
        let _ = std::fs::remove_file(&path);
    }
}
