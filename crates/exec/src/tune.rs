//! Chunk-size autotuning for the work-stealing span schedule.
//!
//! The fixed heuristic ([`heuristic_chunk`], what untuned phases such
//! as [`ExecPolicy::map_indexed`] use) picks a chunk size from `n` and
//! the worker count alone, so it cannot tell a 50 ns kernel evaluation
//! from a 50 µs LSH signature: cheap bodies want big chunks (amortize
//! the shared-cursor `fetch_add`), expensive bodies want small ones
//! (load balance). A [`TuneState`] closes that loop per *call site*:
//! [`ExecPolicy::for_each_span_with`] given a handle times every span
//! it runs, folds the observed per-item cost into an exponential moving
//! average stored in the handle, and later phases through the same
//! handle size their chunks to hit [`TARGET_CHUNK_NANOS`] of work per
//! steal.
//!
//! # Why determinism survives
//!
//! The chunk size only decides how the index range `0..n` is cut into
//! steals — *which* worker computes which index, and how many indices
//! travel per cursor bump. Tuned phases inherit the layer's core
//! contract: the value computed for index `i` depends only on `i`,
//! never on where the spans were cut. Timing noise therefore moves
//! wall-clock time and nothing else; the parity suite
//! (`tests/exec_parity.rs`) pins this by running autotuned phases at
//! many worker counts against the 1-worker baseline.
//!
//! [`ExecPolicy::map_indexed`]: crate::ExecPolicy::map_indexed
//! [`ExecPolicy::for_each_span_with`]: crate::ExecPolicy::for_each_span_with

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Per-steal work the tuner aims for. Large enough that the shared
/// cursor and the per-chunk result vector cost well under 1% of a
/// chunk, small enough that a worker never sits on more than a
/// fraction of a millisecond another worker could have stolen.
pub const TARGET_CHUNK_NANOS: f64 = 200_000.0;

/// Ceiling on any tuned chunk: at least this many steals per worker
/// must remain or the tail of the range serializes behind one slow
/// chunk, defeating work stealing entirely.
const MIN_CHUNKS_PER_WORKER: usize = 4;

/// EMA blend weight of a fresh per-item-cost sample (the remainder
/// stays on the running average, so one anomalous phase cannot swing
/// the chunk size by more than ~2x).
const SAMPLE_WEIGHT: f64 = 0.3;

/// The untuned chunk size for `n` items on `workers` workers:
/// one-at-a-time below 4 tasks per worker (latency-bound fan-out, e.g.
/// ALID detections), and `n / (8 * workers)` above it (throughput-bound
/// sweeps) — eight steals per worker, well inside the
/// [`MIN_CHUNKS_PER_WORKER`] ceiling.
pub(crate) fn heuristic_chunk(n: usize, workers: usize) -> usize {
    let workers = workers.max(1);
    if n < 4 * workers {
        1
    } else {
        (n / (8 * workers)).max(1)
    }
}

/// A per-call-site chunk autotuner handle.
///
/// Declare one `static` per tuned call site and pass it to
/// [`ExecPolicy::for_each_span_with`]; the handle accumulates that
/// site's measured per-item cost across phases (and across differently
/// sized inputs — the cost model is per *item*, so the chunk adapts to
/// each `n` at call time).
///
/// All state is atomic: concurrent phases through one handle race only
/// on which sample lands last, never on memory safety, and a lost
/// sample merely delays convergence by one phase.
///
/// [`ExecPolicy::for_each_span_with`]: crate::ExecPolicy::for_each_span_with
#[derive(Debug)]
pub struct TuneState {
    /// EMA of per-item cost in nanoseconds, as `f64` bits. 0 = no
    /// sample yet (the fallback heuristic decides the chunk).
    per_item_ns: AtomicU64,
    /// The chunk size the most recent tuned phase ran with (telemetry;
    /// 0 until the first tuned phase).
    last_chunk: AtomicUsize,
    /// Number of phases that fed a sample back (telemetry).
    samples: AtomicU32,
}

/// A point-in-time copy of a [`TuneState`] for reports and benches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneSnapshot {
    /// Smoothed per-item cost in nanoseconds (0.0 = never measured).
    pub per_item_ns: f64,
    /// Chunk size of the most recent tuned phase (0 = none ran).
    pub last_chunk: usize,
    /// Phases that contributed a timing sample.
    pub samples: u32,
}

impl TuneState {
    /// A fresh, unsampled tuner (`const`, so call sites can live in
    /// `static`s).
    pub const fn new() -> Self {
        Self {
            per_item_ns: AtomicU64::new(0),
            last_chunk: AtomicUsize::new(0),
            samples: AtomicU32::new(0),
        }
    }

    /// The chunk size a tuned phase over `n` items on `workers`
    /// workers should use right now.
    ///
    /// With at least one sample: `TARGET_CHUNK_NANOS / per_item_ns`,
    /// clamped so every worker still gets [`MIN_CHUNKS_PER_WORKER`]
    /// steals. Without samples: the untuned [`heuristic_chunk`].
    pub fn chunk_for(&self, n: usize, workers: usize) -> usize {
        let workers = workers.max(1);
        let per_item = f64::from_bits(self.per_item_ns.load(Ordering::Relaxed));
        let chunk = if per_item > 0.0 {
            let ceiling = (n / (MIN_CHUNKS_PER_WORKER * workers)).max(1);
            (TARGET_CHUNK_NANOS / per_item).floor().max(1.0).min(ceiling as f64) as usize
        } else {
            heuristic_chunk(n, workers)
        };
        self.last_chunk.store(chunk, Ordering::Relaxed);
        chunk
    }

    /// Folds one phase's measurement (`items` indices over `nanos`
    /// busy nanoseconds, summed across workers) into the EMA. A phase
    /// whose whole runtime rounds to zero on a coarse clock still
    /// counts — it is clamped to one nanosecond total, i.e. "cheaper
    /// than measurable", which steers the chunk toward its ceiling
    /// exactly as an ultra-cheap body should.
    pub fn record(&self, items: usize, nanos: u64) {
        if items == 0 {
            return;
        }
        let sample = nanos.max(1) as f64 / items as f64;
        let old = f64::from_bits(self.per_item_ns.load(Ordering::Relaxed));
        let new =
            if old > 0.0 { old * (1.0 - SAMPLE_WEIGHT) + sample * SAMPLE_WEIGHT } else { sample };
        self.per_item_ns.store(new.to_bits(), Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Telemetry copy of the current state.
    pub fn snapshot(&self) -> TuneSnapshot {
        TuneSnapshot {
            per_item_ns: f64::from_bits(self.per_item_ns.load(Ordering::Relaxed)),
            last_chunk: self.last_chunk.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
        }
    }
}

impl Default for TuneState {
    fn default() -> Self {
        Self::new()
    }
}

/// Publishes a `static` [`TuneState`] into the process-global
/// `alid-obs` registry as three gauges labelled by call site:
/// `alid_tune_per_item_ns`, `alid_tune_last_chunk`,
/// `alid_tune_samples`, each `{site="<site>"}`.
///
/// Call it from the tuned call site (idempotent — the registry keeps
/// the first registration per series, so hot paths may call it on
/// every phase). This is what makes tune handles observable at all:
/// before the obs registry, `snapshot()` values were trapped in
/// process-local statics unless a bench hand-plumbed them out.
pub fn export_tune(site: &'static str, tune: &'static TuneState) {
    let r = alid_obs::global();
    r.gauge_fn(
        "alid_tune_per_item_ns",
        "Autotuner EMA of per-item cost in nanoseconds (0 = unsampled)",
        &[("site", site)],
        || tune.snapshot().per_item_ns,
    );
    r.gauge_fn(
        "alid_tune_last_chunk",
        "Chunk size the most recent tuned phase at this site ran with",
        &[("site", site)],
        || tune.snapshot().last_chunk as f64,
    );
    r.gauge_fn(
        "alid_tune_samples",
        "Phases that fed a timing sample back at this site",
        &[("site", site)],
        || tune.snapshot().samples as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsampled_state_uses_the_heuristic_shape() {
        let t = TuneState::new();
        assert_eq!(t.chunk_for(8, 4), 1, "latency-bound fan-out stays one-at-a-time");
        let big = t.chunk_for(10_000, 4);
        assert!((1..=10_000 / (4 * 4)).contains(&big), "heuristic respects the steal ceiling");
        assert_eq!(t.snapshot().samples, 0);
    }

    #[test]
    fn cheap_items_get_big_chunks_and_expensive_items_small_ones() {
        let cheap = TuneState::new();
        cheap.record(1_000_000, 50_000_000); // 50 ns/item
        let expensive = TuneState::new();
        expensive.record(1_000, 50_000_000); // 50 µs/item
        let n = 100_000;
        assert!(cheap.chunk_for(n, 4) > expensive.chunk_for(n, 4));
        assert_eq!(expensive.chunk_for(n, 4), (TARGET_CHUNK_NANOS / 50_000.0) as usize);
    }

    #[test]
    fn chunk_never_starves_workers_of_steals() {
        let t = TuneState::new();
        t.record(10, 1_000_000_000); // absurdly expensive: 0.1 s/item
        assert_eq!(t.chunk_for(1_000, 8), 1);
        let t2 = TuneState::new();
        t2.record(1_000_000_000, 1); // absurdly cheap
        assert!(t2.chunk_for(1_000, 2) <= 1_000 / (4 * 2));
    }

    #[test]
    fn ema_damps_single_outliers() {
        let t = TuneState::new();
        t.record(1_000, 100_000); // 100 ns/item baseline
        let before = t.snapshot().per_item_ns;
        t.record(1_000, 100_000_000); // 1000x outlier
        let after = t.snapshot().per_item_ns;
        assert!(after < before * 2_000.0 * SAMPLE_WEIGHT, "EMA must damp the outlier");
        assert!(after > before, "but still move toward it");
        assert_eq!(t.snapshot().samples, 2);
    }

    #[test]
    fn zero_item_measurements_are_ignored_but_zero_nanos_count() {
        let t = TuneState::new();
        t.record(0, 500);
        assert_eq!(t.snapshot().samples, 0);
        assert_eq!(t.snapshot().per_item_ns, 0.0);
        // Faster than the clock can see: clamped, recorded, and the
        // chunk heads for its ceiling.
        t.record(500, 0);
        assert_eq!(t.snapshot().samples, 1);
        assert!(t.snapshot().per_item_ns > 0.0);
        assert_eq!(t.chunk_for(1_000, 2), 1_000 / (4 * 2));
    }
}
