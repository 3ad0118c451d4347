//! Deterministic cost accounting for affinity-matrix work.
//!
//! The paper's scalability results (Table 1, Figs. 7 and 9) are about
//! *growth orders*: how the time spent computing affinities and the space
//! spent storing them grow with the data-set size `n`. Wall-clock and RSS
//! depend on the machine; the number of kernel evaluations and the peak
//! number of simultaneously stored matrix entries do not. Every matrix
//! structure in this workspace therefore reports its work to a shared
//! [`CostModel`], and the experiment harness fits log-log slopes on these
//! counters (alongside wall-clock, which is also reported).
//!
//! Counters are atomic so PALID's parallel mappers can share one model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe work counters.
///
/// * `kernel_evals` — number of Laplacian-kernel evaluations, the paper's
///   unit of affinity-matrix *time*;
/// * `entries_current` / `entries_peak` — number of matrix entries
///   currently / maximally held in memory, the paper's unit of
///   affinity-matrix *space* (peak matters: ALID frees each `A_beta_alpha`
///   when a cluster is peeled off, Section 4.5);
/// * `aux_bytes` — auxiliary structure bytes (LSH tables, inverted lists)
///   that the paper's memory plots also include. Growth-only: every index
///   built against the model stays counted for the rest of the run.
#[derive(Debug, Default)]
pub struct CostModel {
    kernel_evals: AtomicU64,
    entries_current: AtomicU64,
    entries_peak: AtomicU64,
    aux_bytes: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Total kernel evaluations so far.
    pub kernel_evals: u64,
    /// Matrix entries currently allocated.
    pub entries_current: u64,
    /// Peak simultaneous matrix entries.
    pub entries_peak: u64,
    /// Auxiliary bytes (hash tables, inverted lists).
    pub aux_bytes: u64,
}

impl CostSnapshot {
    /// Peak memory in bytes: peak matrix entries at 8 bytes each plus
    /// auxiliary structures. Aux bytes never shrink, so this is a
    /// high-water mark for the whole run.
    pub fn peak_bytes(&self) -> u64 {
        self.entries_peak * 8 + self.aux_bytes
    }

    /// Peak memory in mebibytes (the unit of Figs. 7(e)-(h) and 9).
    pub fn peak_mib(&self) -> f64 {
        self.peak_bytes() as f64 / (1024.0 * 1024.0)
    }
}

impl CostModel {
    /// A fresh model with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh model behind an `Arc`, the usual way structures share it.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Records `n` kernel evaluations.
    #[inline]
    pub fn record_kernel_evals(&self, n: u64) {
        self.kernel_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Records that `n` matrix entries were allocated, updating the peak.
    #[inline]
    pub fn alloc_entries(&self, n: u64) {
        let now = self.entries_current.fetch_add(n, Ordering::Relaxed) + n;
        self.entries_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Records that `n` matrix entries were released.
    ///
    /// # Panics
    /// Panics in debug builds if more entries are freed than were
    /// allocated (an accounting bug in the caller).
    #[inline]
    pub fn free_entries(&self, n: u64) {
        let before = self.entries_current.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(before >= n, "freed {n} entries but only {before} were allocated");
    }

    /// Records auxiliary bytes. Growth-only: an index holds its tables
    /// until it is dropped (tombstoned ids keep their bucket entries),
    /// so the running total is also the high-water mark.
    #[inline]
    pub fn record_aux_bytes(&self, n: u64) {
        self.aux_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            kernel_evals: self.kernel_evals.load(Ordering::Relaxed),
            entries_current: self.entries_current.load(Ordering::Relaxed),
            entries_peak: self.entries_peak.load(Ordering::Relaxed),
            aux_bytes: self.aux_bytes.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero. Only sound when no structure is
    /// currently holding entries; intended for harness reuse between runs.
    pub fn reset(&self) {
        self.kernel_evals.store(0, Ordering::Relaxed);
        self.entries_current.store(0, Ordering::Relaxed);
        self.entries_peak.store(0, Ordering::Relaxed);
        self.aux_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = CostModel::new();
        c.record_kernel_evals(3);
        c.record_kernel_evals(4);
        assert_eq!(c.snapshot().kernel_evals, 7);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let c = CostModel::new();
        c.alloc_entries(10);
        c.alloc_entries(5);
        c.free_entries(12);
        c.alloc_entries(3);
        let s = c.snapshot();
        assert_eq!(s.entries_current, 6);
        assert_eq!(s.entries_peak, 15);
    }

    #[test]
    fn peak_bytes_combines_entries_and_aux() {
        let c = CostModel::new();
        c.alloc_entries(4);
        c.record_aux_bytes(100);
        assert_eq!(c.snapshot().peak_bytes(), 4 * 8 + 100);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = CostModel::new();
        c.record_kernel_evals(1);
        c.alloc_entries(1);
        c.record_aux_bytes(1);
        c.reset();
        assert_eq!(c.snapshot(), CostSnapshot::default());
    }

    #[test]
    fn shared_model_is_thread_safe() {
        let c = CostModel::shared();
        // Four exec-layer workers hammer one shared model concurrently.
        alid_exec::ExecPolicy::workers(4).map_indexed(4, |_| {
            for _ in 0..1000 {
                c.record_kernel_evals(1);
                c.alloc_entries(1);
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.kernel_evals, 4000);
        assert_eq!(snap.entries_current, 4000);
        assert!(snap.entries_peak <= 4000 && snap.entries_peak > 0);
    }

    #[test]
    fn mib_conversion() {
        let c = CostModel::new();
        c.alloc_entries(131072); // 1 MiB of f64
        assert!((c.snapshot().peak_mib() - 1.0).abs() < 1e-12);
    }
}
