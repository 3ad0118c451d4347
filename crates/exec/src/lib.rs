//! The shared parallel-execution layer of the ALID workspace.
//!
//! This crate is the only place in the workspace that spawns
//! **compute** threads (the sole other spawner is `alid-service`'s HTTP
//! acceptor threads, which own blocking socket I/O — a shape the
//! bounded-phase model below deliberately excludes — and push all
//! CPU-heavy request work back through this pool). It has one shape: a
//! fan-out of independent tasks, [`ExecPolicy::map_indexed`] /
//! [`ExecPolicy::map_tasks`], which runs `f(i)` for every index on a
//! work-stealing schedule and returns the results in **task order**
//! regardless of which worker ran what. Its users are PALID's mappers
//! (one ALID detection per seed), speculative peeling, the service's
//! per-shard drain and sweep, and the linter's file scan.
//!
//! The map is deterministic: the value computed for index `i` depends
//! only on `i`, never on scheduling, and result `i` is written into
//! slot `i` — so any `workers >= 1` produces the same output, and
//! `workers == 1` degenerates to a plain loop on the calling thread
//! with zero thread overhead (the sequential fallback).
//!
//! Every phase cuts its range with one fixed chunk rule computed from
//! `n` and the worker count alone, so no file in this crate reads the
//! clock and the schedule of a phase is a pure function of its inputs.
//!
//! Parallel phases execute on a **lazily started persistent worker
//! pool** (the private `pool` module): the first parallel phase spawns
//! the workers, later phases reuse them, so per-phase cost is an
//! enqueue and a wakeup instead of `workers - 1` thread spawns.
//! `workers == 1` never touches the pool at all.
//!
//! See DESIGN.md ("One execution substrate", "Persistent worker pool")
//! for how this layer substitutes for the paper's Spark deployment.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

mod pool;

/// The chunk a phase over `n` tasks on `workers` workers steals per
/// cursor bump: one at a time below 4 tasks per worker (latency-bound
/// fan-out, e.g. one ALID detection per seed), and `n / (8 * workers)`
/// above it, i.e. eight steals per worker. The cut never changes output
/// bytes, because result `i` depends only on `i`; it only decides how
/// the range is balanced.
fn heuristic_chunk(n: usize, workers: usize) -> usize {
    if n < 4 * workers {
        1
    } else {
        (n / (8 * workers)).max(1)
    }
}

/// How a parallel phase should execute: on how many workers.
///
/// The policy travels inside parameter structs (`AlidParams`,
/// `PalidParams`) so every fan-out — PALID mapping, multi-seed peeling,
/// the service's per-shard drain and sweep — draws its worker count
/// from one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    workers: NonZeroUsize,
}

impl ExecPolicy {
    /// Run on the calling thread only (the default).
    pub fn sequential() -> Self {
        Self { workers: NonZeroUsize::MIN }
    }

    /// Run on `n` workers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn workers(n: usize) -> Self {
        Self { workers: NonZeroUsize::new(n).expect("need at least one worker") }
    }

    /// Run on every core the OS reports (1 when detection fails).
    pub fn auto() -> Self {
        Self { workers: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN) }
    }

    /// [`Self::workers`] when an explicit count is given, [`Self::auto`]
    /// otherwise — the shape of a CLI `--workers` override.
    ///
    /// # Panics
    /// Panics if `n == Some(0)`.
    pub fn auto_or(n: Option<usize>) -> Self {
        match n {
            Some(n) => Self::workers(n),
            None => Self::auto(),
        }
    }

    /// The configured worker count (>= 1).
    #[inline]
    pub fn worker_count(&self) -> usize {
        self.workers.get()
    }

    /// `true` when the policy is single-worker.
    #[inline]
    pub fn is_sequential(&self) -> bool {
        self.workers.get() == 1
    }

    /// Computes `f(i)` for every `i` in `0..n` on a **work-stealing**
    /// schedule and returns the results **in index order**: each result
    /// is written straight into its own slot, so despite the dynamic
    /// schedule slot `i` always holds `f(i)`.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out = Vec::with_capacity(n);
        {
            let slots = SharedSlice::new(&mut out.spare_capacity_mut()[..n]);
            self.for_each_span(n, |span| {
                for i in span {
                    // SAFETY: spans are disjoint, so slot i is written
                    // by exactly one worker.
                    unsafe { slots.write(i, MaybeUninit::new(f(i))) };
                }
            });
        }
        // SAFETY: `for_each_span` returns normally only after spans
        // covering all of `0..n` ran to completion (a panic in `f` is
        // rethrown instead, unwinding past this line and merely leaking
        // the results already written), so every slot below `n` is
        // initialised.
        unsafe { out.set_len(n) };
        out
    }

    /// Maps `f` over a task slice on the work-stealing pool, results in
    /// task order.
    pub fn map_tasks<T, R, F>(&self, tasks: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(tasks.len(), |i| f(&tasks[i]))
    }

    /// Applies `f` to disjoint spans covering `0..n`: workers steal
    /// [`heuristic_chunk`] consecutive indices at a time from a shared
    /// atomic cursor, so irregular per-index costs self-balance. The
    /// sequential path runs one span `0..n` on the calling thread.
    fn for_each_span<F: Fn(Range<usize>) + Sync>(&self, n: usize, f: F) {
        let workers = self.workers.get().min(n);
        if workers <= 1 {
            return f(0..n);
        }
        let chunk = heuristic_chunk(n, workers);
        let cursor = AtomicUsize::new(0);
        pool::global().run_phase(workers, &|_t| loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            f(start..(start + chunk).min(n));
        });
    }
}

impl Default for ExecPolicy {
    /// Sequential — parallelism is always an explicit opt-in.
    fn default() -> Self {
        Self::sequential()
    }
}

/// A `Send + Sync` view of `map_indexed`'s output slots: the type
/// system cannot see that disjoint spans make every slot's writer
/// unique, so writes go through an `unsafe` method whose contract
/// states exactly that.
struct SharedSlice<'a, T> {
    cells: &'a [UnsafeCell<T>],
}

// SAFETY: `SharedSlice` only allows writes through `write`, whose
// contract requires callers to target disjoint indices from distinct
// threads; under that contract data races cannot occur.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
// SAFETY: same argument as `Send` above — shared references only ever
// permit the disjoint-index `write` contract.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice for the duration of a parallel phase.
    fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` guarantees exclusive access; reinterpreting
        // as `[UnsafeCell<T>]` (same layout) hands that exclusivity to
        // the `write` contract below.
        let cells = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        Self { cells }
    }

    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    /// Within one parallel phase, each index must be written by at most
    /// one thread, and no slot may be read until the phase ends (the
    /// phase latch provides the synchronization edge).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    unsafe fn write(&self, i: usize, value: T) {
        *self.cells[i].get() = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_policy_is_default_and_reports_one_worker() {
        assert_eq!(ExecPolicy::default(), ExecPolicy::sequential());
        assert!(ExecPolicy::default().is_sequential());
        assert_eq!(ExecPolicy::workers(3).worker_count(), 3);
        assert!(!ExecPolicy::workers(3).is_sequential());
        assert!(ExecPolicy::auto().worker_count() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ExecPolicy::workers(0);
    }

    #[test]
    fn map_indexed_returns_results_in_task_order() {
        for workers in [1usize, 2, 5] {
            // Below 4 tasks per worker the heuristic steals one task at
            // a time; far above it, multi-task spans.
            let (below, above) = (4 * workers - 1, 1000);
            assert_eq!(heuristic_chunk(below, workers), 1);
            assert!(heuristic_chunk(above, workers) > 1);
            for n in [0, 1, below, above] {
                let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
                let got = ExecPolicy::workers(workers).map_indexed(n, |i| i * i);
                assert_eq!(got, expected, "workers={workers} n={n}");
            }
        }
    }

    #[test]
    fn map_tasks_preserves_order_for_irregular_costs() {
        let tasks: Vec<u64> = (0..40).map(|i| (40 - i) % 7).collect();
        let slow_double = |&t: &u64| {
            // Irregular busy work so stealing actually interleaves.
            let mut acc = 0u64;
            for k in 0..(t * 1000 + 1) {
                acc = acc.wrapping_add(k);
            }
            std::hint::black_box(acc);
            t * 2
        };
        let seq = ExecPolicy::sequential().map_tasks(&tasks, slow_double);
        let par = ExecPolicy::workers(4).map_tasks(&tasks, slow_double);
        assert_eq!(seq, par);
    }

    #[test]
    fn for_each_span_covers_every_index_exactly_once() {
        // n = 1 runs on the calling thread, n = 4·workers − 1 steals one
        // index at a time and n = 203 steals multi-index chunks: every
        // schedule must hand out each index exactly once.
        for workers in [1usize, 2, 3, 7] {
            for n in [1, 4 * workers - 1, 203] {
                let active = workers.min(n);
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                let spans = AtomicUsize::new(0);
                ExecPolicy::workers(workers).for_each_span(n, |span| {
                    spans.fetch_add(1, Ordering::Relaxed);
                    for i in span {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{workers} workers, n={n}: missed or repeated an index"
                );
                let expected = if active == 1 { 1 } else { n.div_ceil(heuristic_chunk(n, active)) };
                assert_eq!(spans.load(Ordering::Relaxed), expected, "{workers} workers, n={n}");
            }
        }
    }

    #[test]
    fn for_each_span_sequential_path_sees_one_span() {
        let spans = std::sync::Mutex::new(Vec::new());
        ExecPolicy::sequential()
            .for_each_span(97, |span| spans.lock().unwrap().push((span.start, span.end)));
        assert_eq!(*spans.lock().unwrap(), vec![(0, 97)]);
    }
}
