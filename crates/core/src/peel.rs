//! The peeling driver — detect, peel off, repeat (Section 4.4).
//!
//! To find *all* dominant clusters, ALID adopts the same protocol as DS
//! and IID: detect one cluster, remove ("peel off") its members, and
//! reiterate on the remaining data until everything is peeled. Peeled
//! items are tombstoned in the LSH index, so subsequent detections
//! simply cannot retrieve them. The caller applies the final density
//! filter ([`alid_affinity::Clustering::dominant`]).
//!
//! Peeling runs one seed at a time, as the paper does: detection `k+1`
//! runs against the index with cluster `k` already tombstoned, so no
//! worker count enters the pass. The paper's parallel variant is
//! PALID's independent detections ([`crate::palid`]).

use std::sync::Arc;

use alid_affinity::clustering::{Clustering, DetectedCluster};
use alid_affinity::cost::CostModel;
use alid_affinity::vector::Dataset;
use alid_lsh::LshIndex;

use crate::alid::detect_one;
use crate::config::AlidParams;

/// Telemetry of one peel round: one `detect_one` call, whose cluster
/// is kept. Benchmark-only: the repository benchmark reads
/// [`PeelStats`], and nothing in the program does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Seeds detected this round: always 1.
    pub speculated: usize,
    /// Detections committed as clusters: always 1.
    pub accepted: usize,
}

/// Detection telemetry of one or more peel passes: one width-1 round
/// per `detect_one` call. Seeds a streaming sweep settles from their
/// first-ball lists run no detection and appear in no round.
/// Benchmark-only, like [`RoundStats`]: the repository benchmark reads
/// `speculated`, `rounds` and [`Self::wasted`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeelStats {
    /// Per-round telemetry of every round, in order.
    pub rounds: Vec<RoundStats>,
    /// Total detections run.
    pub speculated: u64,
}

impl PeelStats {
    /// Detections whose work was thrown away: always 0, because every
    /// detection is kept.
    pub fn wasted(&self) -> u64 {
        0
    }

    /// Drops all but the most recent `keep` per-round entries. The
    /// totals are untouched — long-lived accumulators (the streaming
    /// driver) call this after every pass so `rounds` stays a bounded
    /// window of recent history instead of growing with the stream.
    pub fn trim_rounds(&mut self, keep: usize) {
        if self.rounds.len() > keep {
            self.rounds.drain(..self.rounds.len() - keep);
        }
    }

    fn record_detection(&mut self) {
        let m = obs_metrics();
        m.rounds.inc();
        m.speculated.inc();
        m.accepted.inc();
        self.speculated += 1;
        self.rounds.push(RoundStats { speculated: 1, accepted: 1 });
    }
}

/// Process-wide write-only peel telemetry — the cross-pass aggregate
/// of every [`PeelStats`] this process accumulates, published for
/// `/metrics`. Each counter grows by one per detection; they are kept
/// for the repository benchmark and the service smoke test.
struct PeelMetrics {
    rounds: std::sync::Arc<alid_obs::Counter>,
    speculated: std::sync::Arc<alid_obs::Counter>,
    accepted: std::sync::Arc<alid_obs::Counter>,
}

fn obs_metrics() -> &'static PeelMetrics {
    static M: std::sync::OnceLock<PeelMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = alid_obs::global();
        PeelMetrics {
            rounds: r.counter("alid_peel_rounds_total", "Peel rounds run (one per detection)", &[]),
            speculated: r.counter(
                "alid_peel_speculated_total",
                "Seeds whose detection was launched",
                &[],
            ),
            accepted: r.counter(
                "alid_peel_accepted_total",
                "Detections committed as clusters",
                &[],
            ),
        }
    })
}

/// The streaming sweep's first-ball lists, and the work they did in one
/// peel pass.
///
/// `lists[i]` must hold every item that shares an LSH bucket with item
/// `i`, lies within `params.first_roi_radius` of it, and may be alive
/// during the pass; it may hold dead items too. Then a seed with no
/// alive listed item is exactly what Algorithm 2's `c = 1` special case
/// would return: CIVS finds nothing inside the first ROI, so the
/// detection certifies the seed alone.
pub(crate) struct FirstBalls<'a> {
    lists: &'a [Vec<u32>],
    /// Lists consulted, one per seed turn.
    pub(crate) checks: u64,
    /// Seeds resolved as singletons without `detect_one`.
    pub(crate) lone: u64,
}

impl<'a> FirstBalls<'a> {
    pub(crate) fn new(lists: &'a [Vec<u32>]) -> Self {
        Self { lists, checks: 0, lone: 0 }
    }

    /// Whether `seed`'s first ball holds no alive item.
    fn lone(&mut self, index: &LshIndex, seed: u32) -> bool {
        self.checks += 1;
        let lone = self.lists[seed as usize].iter().all(|&j| !index.is_alive(j));
        self.lone += u64::from(lone);
        lone
    }
}

/// One full detect-and-peel pass over the alive items of an existing
/// index: take the lowest alive seed, detect, peel its members plus the
/// seed, repeat. Seeds scan ascending from `from`. Returns `(seed,
/// cluster)` pairs in detection order. Every `detect_one` call opens
/// one `peel.round` span and counts into `stats`.
///
/// With `first_balls`, each seed is first checked against its list, at
/// its own turn: an earlier detection may still absorb an item whose
/// first ball was empty when the pass began. A lone seed is recorded as
/// the singleton `{members: [seed], weights: [1.0], density: 0.0}` and
/// tombstoned, with no `detect_one`. A pass only removes items, so the
/// singleton is the one `detect_one` would return.
///
/// Shared by [`Peeler::detect_all`] (fresh index over a batch),
/// [`detect_on_subset`] and `StreamingAlid::sweep` (the streaming
/// index with attached items tombstoned), so all drivers ride the same
/// path; only the sweep passes `first_balls`. Peeled items are
/// tombstoned and never leave the bucket lists, so the index keeps its
/// whole hash-table memory for as long as it lives.
pub(crate) fn peel_pass(
    ds: &Dataset,
    params: &AlidParams,
    index: &mut LshIndex,
    cost: &Arc<CostModel>,
    from: u32,
    mut first_balls: Option<&mut FirstBalls<'_>>,
    stats: &mut PeelStats,
) -> Vec<(u32, DetectedCluster)> {
    let n = ds.len() as u32;
    let mut next_seed = from;
    let mut detections = Vec::new();
    while let Some(seed) = next_alive_from(index, &mut next_seed, n) {
        let cluster = if first_balls.as_deref_mut().is_some_and(|b| b.lone(index, seed)) {
            let cluster = DetectedCluster { members: vec![seed], weights: vec![1.0], density: 0.0 };
            debug_assert!(
                same_bits(&detect_one(ds, params, index, seed, cost).cluster, &cluster),
                "seed {seed} has an empty first ball, but detect_one grows it"
            );
            cluster
        } else {
            let _round = alid_obs::trace::span("peel.round");
            stats.record_detection();
            detect_one(ds, params, index, seed, cost).cluster
        };
        peel(index, seed, &cluster.members);
        detections.push((seed, cluster));
    }
    detections
}

/// Tombstones one detection's support plus its seed. The dynamics may
/// have immunized the seed away; it must still leave the pool, or the
/// pass would seed it again forever.
fn peel(index: &mut LshIndex, seed: u32, members: &[u32]) {
    index.remove(seed);
    for &m in members {
        index.remove(m);
    }
}

/// Whether two clusters agree bit for bit, weights and density included.
fn same_bits(a: &DetectedCluster, b: &DetectedCluster) -> bool {
    let bits = |c: &DetectedCluster| {
        (c.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(), c.density.to_bits())
    };
    a.members == b.members && bits(a) == bits(b)
}

/// Runs the full detect-and-peel protocol on an arbitrary *member
/// union* of an existing data set — the entry point the cross-shard
/// reducer uses to re-detect on the union of candidate fragments
/// (PALID's reduce phase on partitioned data must *unify* a dominant
/// cluster whose members landed in different partitions, not merely
/// rank the fragments).
///
/// `subset` lists the rows to detect over, strictly ascending. The
/// rows are compacted into a private [`Dataset`], a fresh LSH index is
/// built over them with `params.lsh`, and the shared `peel_pass`
/// runs to exhaustion — the same LID/ROI/CIVS machinery.
/// Returned clusters carry members mapped **back into `ds`'s id
/// space**, ascending; the caller applies the dominance filter, as
/// with [`Peeler::detect_all`].
///
/// Because the compacted data set depends only on the *member set*
/// (not on how the caller discovered it), the output is identical for
/// any partitioning that produced the same union — the property the
/// sharded service's merged view leans on for shard-count invariance.
///
/// # Panics
/// Panics if `subset` is not strictly ascending or indexes out of
/// bounds.
pub fn detect_on_subset(
    ds: &Dataset,
    subset: &[u32],
    params: &AlidParams,
    cost: &Arc<CostModel>,
) -> Vec<DetectedCluster> {
    for w in subset.windows(2) {
        assert!(w[0] < w[1], "subset must be strictly ascending");
    }
    if let Some(&last) = subset.last() {
        assert!((last as usize) < ds.len(), "subset member {last} out of bounds");
    }
    if subset.is_empty() {
        return Vec::new();
    }
    let rows: Vec<usize> = subset.iter().map(|&i| i as usize).collect();
    let sub = ds.subset(&rows);
    let mut index = LshIndex::build(&sub, params.lsh, cost);
    let mut stats = PeelStats::default();
    let detections = peel_pass(&sub, params, &mut index, cost, 0, None, &mut stats);
    detections
        .into_iter()
        .map(|(_seed, mut cluster)| {
            // The map is monotone, so members stay ascending and the
            // weights stay parallel.
            for m in &mut cluster.members {
                *m = subset[*m as usize];
            }
            cluster
        })
        .collect()
}

/// The lowest alive id `>= *cursor`, advancing the cursor past dead
/// items. `None` once everything from the cursor on is peeled.
fn next_alive_from(index: &LshIndex, cursor: &mut u32, n: u32) -> Option<u32> {
    while *cursor < n {
        let s = *cursor;
        if index.is_alive(s) {
            return Some(s);
        }
        *cursor += 1;
    }
    None
}

/// Owns the LSH index and the alive set for one full detection pass.
pub struct Peeler<'a> {
    ds: &'a Dataset,
    params: AlidParams,
    cost: Arc<CostModel>,
    index: LshIndex,
    next_seed: u32,
}

impl<'a> Peeler<'a> {
    /// Builds the LSH index over `ds` and prepares a full pass.
    pub fn new(ds: &'a Dataset, params: AlidParams, cost: Arc<CostModel>) -> Self {
        let index = LshIndex::build(ds, params.lsh, &cost);
        Self { ds, params, cost, index, next_seed: 0 }
    }

    /// The tunables in use.
    pub fn params(&self) -> &AlidParams {
        &self.params
    }

    /// Items not yet peeled.
    pub fn remaining(&self) -> usize {
        self.index.alive_count()
    }

    /// Detects the next cluster (seeded at the lowest-index alive item)
    /// and peels its members. Returns `None` once everything is peeled.
    pub fn next_cluster(&mut self) -> Option<alid_affinity::clustering::DetectedCluster> {
        let seed = self.next_alive()?;
        let out = detect_one(self.ds, &self.params, &self.index, seed, &self.cost);
        peel(&mut self.index, seed, &out.cluster.members);
        Some(out.cluster)
    }

    /// Runs the pass to exhaustion and returns every detected cluster
    /// (dominant and noise alike — filter with
    /// [`Clustering::dominant`]).
    pub fn detect_all(self) -> Clustering {
        self.detect_all_with_stats().0
    }

    /// [`Self::detect_all`] plus the pass's [`PeelStats`].
    /// Benchmark-only: the repository benchmark reads the stats.
    pub fn detect_all_with_stats(mut self) -> (Clustering, PeelStats) {
        let mut stats = PeelStats::default();
        let mut clustering = Clustering::new(self.ds.len());
        let detections = peel_pass(
            self.ds,
            &self.params,
            &mut self.index,
            &self.cost,
            self.next_seed,
            None,
            &mut stats,
        );
        clustering.clusters.extend(detections.into_iter().map(|(_seed, cluster)| cluster));
        (clustering, stats)
    }

    fn next_alive(&mut self) -> Option<u32> {
        next_alive_from(&self.index, &mut self.next_seed, self.ds.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_lsh::LshParams;

    /// Three clusters of different tightness plus noise.
    fn fixture() -> Dataset {
        let mut flat = Vec::new();
        for i in 0..6 {
            flat.push(i as f64 * 0.04); // A: very tight, 6 items
        }
        for i in 0..5 {
            flat.push(20.0 + i as f64 * 0.05); // B: tight, 5 items
        }
        for i in 0..4 {
            flat.push(40.0 + i as f64 * 1.5); // C: loose, 4 items
        }
        flat.extend([100.0, -55.0, 71.3, 88.8]); // noise
        Dataset::from_flat(1, flat)
    }

    fn params(ds: &Dataset) -> AlidParams {
        AlidParams::calibrated(ds, 0.2, 0.9)
            .with_lsh(LshParams::new(12, 8, 1.0, 123))
            .with_delta(16)
    }

    #[test]
    fn peels_everything_exactly_once() {
        let ds = fixture();
        let clustering = Peeler::new(&ds, params(&ds), CostModel::shared()).detect_all();
        // Every item appears in exactly one cluster.
        let mut seen = vec![0usize; ds.len()];
        for c in &clustering.clusters {
            for &m in &c.members {
                seen[m as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s <= 1), "an item was detected twice");
        // Noise items may end up as singletons but never vanish more
        // than once; the union of clusters plus never-supported seeds
        // covers everything. At minimum the two tight clusters are
        // intact:
        let dominant = clustering.dominant(0.75, 3);
        assert_eq!(dominant.len(), 2, "clusters A and B are dominant");
        assert_eq!(dominant.clusters[0].members, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(dominant.clusters[1].members, vec![6, 7, 8, 9, 10]);
    }

    #[test]
    fn loose_cluster_has_lower_density() {
        let ds = fixture();
        let clustering = Peeler::new(&ds, params(&ds), CostModel::shared()).detect_all();
        let find = |member: u32| {
            clustering
                .clusters
                .iter()
                .find(|c| c.members.contains(&member))
                .expect("member clustered")
        };
        let tight = find(0);
        let loose = find(11);
        assert!(tight.density > loose.density);
    }

    #[test]
    fn stats_are_consistent_and_sequential_pass_runs_width_one_rounds() {
        let ds = fixture();
        let (clustering, stats) =
            Peeler::new(&ds, params(&ds), CostModel::shared()).detect_all_with_stats();
        assert_eq!(stats.rounds.len(), clustering.len(), "one round per detection");
        for r in &stats.rounds {
            assert_eq!(*r, RoundStats { speculated: 1, accepted: 1 });
        }
        assert_eq!(stats.speculated, clustering.len() as u64);
        assert_eq!(stats.wasted(), 0);
    }

    #[test]
    fn remaining_shrinks_monotonically() {
        let ds = fixture();
        let mut peeler = Peeler::new(&ds, params(&ds), CostModel::shared());
        let mut last = peeler.remaining();
        assert_eq!(last, ds.len());
        while let Some(_c) = peeler.next_cluster() {
            let now = peeler.remaining();
            assert!(now < last, "peeling must make progress");
            last = now;
        }
        assert_eq!(peeler.remaining(), 0);
    }

    #[test]
    fn speculative_parallel_pass_matches_sequential_exactly() {
        let ds = fixture();
        let sequential = Peeler::new(&ds, params(&ds), CostModel::shared()).detect_all();
        for workers in [2usize, 3, 8] {
            let p = params(&ds).with_exec(alid_exec::ExecPolicy::workers(workers));
            let parallel = Peeler::new(&ds, p, CostModel::shared()).detect_all();
            assert_eq!(
                sequential.clusters.len(),
                parallel.clusters.len(),
                "{workers} workers changed the cluster count"
            );
            for (a, b) in sequential.clusters.iter().zip(&parallel.clusters) {
                assert_eq!(a.members, b.members, "{workers} workers changed members");
                assert_eq!(a.weights, b.weights, "{workers} workers changed weights");
                assert!(
                    (a.density - b.density).abs() == 0.0,
                    "{workers} workers changed density bit-for-bit"
                );
            }
        }
    }

    #[test]
    fn detect_on_subset_matches_full_pass_on_a_clusters_members() {
        let ds = fixture();
        let p = params(&ds);
        let full = Peeler::new(&ds, p, CostModel::shared()).detect_all();
        let a = &full.clusters[0];
        assert_eq!(a.members, vec![0, 1, 2, 3, 4, 5]);
        // Re-detecting on exactly cluster A's member union reproduces
        // the cluster bit-for-bit: the compact sub-dataset holds the
        // same rows in the same order the full pass converged over.
        let redetected = detect_on_subset(&ds, &a.members, &p, &CostModel::shared());
        assert_eq!(redetected.len(), 1, "a clean union re-detects as one cluster");
        assert_eq!(redetected[0].members, a.members);
        assert_eq!(redetected[0].density.to_bits(), a.density.to_bits());
    }

    #[test]
    fn detect_on_subset_maps_members_back_and_ignores_outside_rows() {
        let ds = fixture();
        let p = params(&ds);
        // Union of cluster B's members plus one far noise row: the
        // noise must come back as its own (non-dominant) detection and
        // every member id must live in the original id space.
        let subset = vec![6u32, 7, 8, 9, 10, 15];
        let out = detect_on_subset(&ds, &subset, &p, &CostModel::shared());
        let mut seen: Vec<u32> = out.iter().flat_map(|c| c.members.iter().copied()).collect();
        seen.sort_unstable();
        assert_eq!(seen, subset, "every subset row detected exactly once, in ds ids");
        let b = out.iter().find(|c| c.members.contains(&6)).expect("cluster B re-detected");
        assert_eq!(b.members, vec![6, 7, 8, 9, 10]);
    }

    #[test]
    fn detect_on_subset_is_worker_count_invariant() {
        let ds = fixture();
        let subset: Vec<u32> = (0..ds.len() as u32).collect();
        let seq = detect_on_subset(&ds, &subset, &params(&ds), &CostModel::shared());
        for workers in [2usize, 4, 8] {
            let p = params(&ds).with_exec(alid_exec::ExecPolicy::workers(workers));
            let par = detect_on_subset(&ds, &subset, &p, &CostModel::shared());
            assert_eq!(seq.len(), par.len(), "{workers} workers");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.members, b.members, "{workers} workers");
                assert_eq!(a.density.to_bits(), b.density.to_bits(), "{workers} workers");
            }
        }
    }

    #[test]
    fn detect_on_subset_empty_subset_is_empty() {
        let ds = fixture();
        assert!(detect_on_subset(&ds, &[], &params(&ds), &CostModel::shared()).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn detect_on_subset_rejects_unsorted_subsets() {
        let ds = fixture();
        let _ = detect_on_subset(&ds, &[3, 1], &params(&ds), &CostModel::shared());
    }

    /// Aux bytes are growth-only: peeling tombstones without freeing, so
    /// every LSH table built for a run stays inside `peak_bytes()` until
    /// the run ends.
    #[test]
    fn lsh_tables_stay_counted_after_peeling_to_exhaustion() {
        let ds = fixture();
        let p = params(&ds);
        let table_bytes = |n: usize| (n * (4 * p.lsh.tables + 1)) as u64;
        let cost = CostModel::shared();
        let _ = Peeler::new(&ds, p, Arc::clone(&cost)).detect_all();
        assert_eq!(cost.snapshot().aux_bytes, table_bytes(ds.len()), "detect_all");
        let cost = CostModel::shared();
        let mut peeler = Peeler::new(&ds, p, Arc::clone(&cost));
        while peeler.next_cluster().is_some() {}
        assert_eq!(cost.snapshot().aux_bytes, table_bytes(ds.len()), "next_cluster");
        let cost = CostModel::shared();
        let subset = [0u32, 1, 2, 3, 4, 5, 15];
        let _ = detect_on_subset(&ds, &subset, &p, &cost);
        assert_eq!(cost.snapshot().aux_bytes, table_bytes(subset.len()), "detect_on_subset");
    }

    #[test]
    fn memory_is_released_between_clusters() {
        let ds = fixture();
        let cost = CostModel::shared();
        let _ = Peeler::new(&ds, params(&ds), Arc::clone(&cost)).detect_all();
        assert_eq!(cost.snapshot().entries_current, 0);
        // Peak is far below the full matrix (19^2 = 361).
        assert!(cost.snapshot().entries_peak < 200);
    }
}
