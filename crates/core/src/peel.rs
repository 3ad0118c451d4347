//! The peeling driver — detect, peel off, repeat (Section 4.4).
//!
//! To find *all* dominant clusters, ALID adopts the same protocol as DS
//! and IID: detect one cluster, remove ("peel off") its members, and
//! reiterate on the remaining data until everything is peeled. Peeled
//! items are tombstoned in the LSH index, so subsequent detections
//! simply cannot retrieve them. The caller applies the final density
//! filter ([`alid_affinity::Clustering::dominant`]).
//!
//! # Speculative parallel peeling
//!
//! Peeling looks inherently sequential — detection `k+1` runs against
//! the index with cluster `k` already tombstoned — but detections of
//! *well-separated* clusters never observe each other, and
//! [`AlidOutcome::touched`](crate::alid::AlidOutcome) records exactly
//! what each detection observed. [`Peeler::detect_all`] therefore
//! peels in rounds: it runs the next `W` seeds concurrently against the
//! round-start index, then accepts results in seed order as long as
//! each detection's read set is still fully alive (i.e. disjoint from
//! everything accepted earlier in the round), falling back to
//! re-running from the first conflicting seed. Accepted results are
//! provably the clusters the sequential protocol would have produced,
//! so **any worker count yields byte-identical clusterings**. A single
//! worker runs width-1 rounds through the same loop, which is exactly
//! the sequential protocol. Only the clustering is schedule-invariant:
//! the shared [`CostModel`] also records the work of discarded/re-run
//! speculations, and `W` concurrent detections raise the live-entries
//! peak — cost-measured harnesses comparing growth orders should keep
//! the sequential policy (the default).
//!
//! # Round width
//!
//! A fixed `W = worker_count` wastes whole rounds on overlapping
//! clusters (every speculation past the first conflicts or is
//! absorbed) and is exactly right on well-separated ones. Since the
//! acceptance rule is width-agnostic — any prefix of the alive-seed
//! sequence speculated together commits the same accepted clusters —
//! the round width is free to track the observed conflict structure.
//! The first round runs at the worker count; after that the width is
//! AIMD: a fully clean round doubles it, a round with discarded work
//! (an absorbed seed or a conflict re-run) halves it, always within
//! `[1, worker_count]`. Every round is recorded in [`PeelStats`]
//! (speculated / accepted / absorbed / re-run per round), surfaced via
//! [`Peeler::detect_all_with_stats`] and
//! `StreamingAlid::peel_stats`, and summarized by the
//! `bench_speculation` harness.

use std::sync::Arc;

use alid_affinity::clustering::{Clustering, DetectedCluster};
use alid_affinity::cost::CostModel;
use alid_affinity::vector::Dataset;
use alid_lsh::LshIndex;

use crate::alid::detect_one;
use crate::config::AlidParams;

/// Telemetry of one speculative peeling round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Seeds speculated this round (the round's width).
    pub speculated: usize,
    /// Speculations committed as clusters.
    pub accepted: usize,
    /// Speculations discarded because an earlier acceptance in the
    /// round absorbed their seed (the sequential pass would never have
    /// seeded them — nothing is re-run).
    pub absorbed: usize,
    /// Speculations discarded because their read set went stale (a
    /// conflict); they re-run against the updated index next round.
    pub rerun: usize,
}

impl RoundStats {
    /// Speculations whose detection work was thrown away.
    pub fn wasted(&self) -> usize {
        self.absorbed + self.rerun
    }
}

/// Conflict telemetry of one or more peel passes.
///
/// `rounds` records every round a pass ran, in order; a single-worker
/// pass runs one width-1 round per detection, so it speculates
/// exactly what it accepts. Seeds a streaming sweep settles from their
/// first-ball lists run no detection and appear in no round. The
/// telemetry is a *byproduct* of the schedule and — unlike the
/// clustering — not worker-count invariant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeelStats {
    /// Per-round telemetry of every round, in order.
    pub rounds: Vec<RoundStats>,
    /// Total seeds whose detection was launched.
    pub speculated: u64,
    /// Total detections committed as clusters.
    pub accepted: u64,
    /// Total speculations discarded as absorbed.
    pub absorbed: u64,
    /// Total speculations discarded to a conflict re-run.
    pub rerun: u64,
}

impl PeelStats {
    /// Rounds that hit at least one conflict re-run.
    pub fn conflict_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.rerun > 0).count()
    }

    /// Fraction of rounds with a conflict (0.0 when no round ran).
    pub fn conflict_rate(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.conflict_rounds() as f64 / self.rounds.len() as f64
        }
    }

    /// Total detections whose work was thrown away.
    pub fn wasted(&self) -> u64 {
        self.absorbed + self.rerun
    }

    /// Mean round width (0.0 when no round ran).
    pub fn mean_width(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.rounds.iter().map(|r| r.speculated as f64).sum::<f64>() / self.rounds.len() as f64
        }
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

    fn record_round(&mut self, round: RoundStats) {
        let m = obs_metrics();
        m.rounds.inc();
        m.speculated.add(round.speculated as u64);
        m.accepted.add(round.accepted as u64);
        m.absorbed.add(round.absorbed as u64);
        m.rerun.add(round.rerun as u64);
        self.speculated += round.speculated as u64;
        self.accepted += round.accepted as u64;
        self.absorbed += round.absorbed as u64;
        self.rerun += round.rerun as u64;
        self.rounds.push(round);
    }
}

/// Process-wide write-only peel telemetry — the cross-pass aggregate
/// of every [`PeelStats`] this process accumulates, published for
/// `/metrics`. `PeelStats` itself stays the per-driver source of
/// truth; these counters only ever receive the same increments.
struct PeelMetrics {
    rounds: std::sync::Arc<alid_obs::Counter>,
    speculated: std::sync::Arc<alid_obs::Counter>,
    accepted: std::sync::Arc<alid_obs::Counter>,
    absorbed: std::sync::Arc<alid_obs::Counter>,
    rerun: std::sync::Arc<alid_obs::Counter>,
}

fn obs_metrics() -> &'static PeelMetrics {
    static M: std::sync::OnceLock<PeelMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = alid_obs::global();
        PeelMetrics {
            rounds: r.counter(
                "alid_peel_rounds_total",
                "Peel rounds run (one width-1 round per detection under a single worker)",
                &[],
            ),
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
            absorbed: r.counter(
                "alid_peel_absorbed_total",
                "Speculations discarded because an earlier acceptance absorbed their seed",
                &[],
            ),
            rerun: r.counter(
                "alid_peel_rerun_total",
                "Speculations discarded to a conflict re-run",
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
/// index, in rounds of concurrent seeds on `params.exec` (see the
/// module docs). Seeds scan ascending from `from`; every detection
/// peels its members plus its seed. Returns `(seed, cluster)` pairs in
/// detection order — for any worker count, exactly the pairs the
/// sequential protocol produces. Round telemetry accumulates into
/// `stats`.
///
/// With `first_balls`, the lowest alive seed is first checked against
/// its list, at its own turn: an earlier detection may still absorb an
/// item whose first ball was empty when the pass began. While that
/// seed is lone, the pass records it as the singleton
/// `{members: [seed], weights: [1.0], density: 0.0}` and tombstones it,
/// with no `detect_one` and no round; the first seed that is not lone
/// opens a round as usual. A pass only removes items, so the singleton
/// is the one `detect_one` would return.
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
    let max_width = params.exec.worker_count();
    let mut width = max_width;
    let mut next_seed = from;
    let mut detections = Vec::new();
    loop {
        if let Some(balls) = first_balls.as_deref_mut() {
            while let Some(seed) = next_alive_from(index, &mut next_seed, n) {
                if !balls.lone(index, seed) {
                    break;
                }
                let cluster =
                    DetectedCluster { members: vec![seed], weights: vec![1.0], density: 0.0 };
                debug_assert!(
                    same_bits(&detect_one(ds, params, index, seed, cost).cluster, &cluster),
                    "seed {seed} has an empty first ball, but detect_one grows it"
                );
                index.remove(seed);
                detections.push((seed, cluster));
            }
        }
        let Some(seeds) = next_alive_batch_from(index, &mut next_seed, n, width) else { break };
        let mut round_span = alid_obs::trace::span("peel.round");
        round_span.count("width", seeds.len() as u64);
        let outcomes = params.exec.map_tasks(&seeds, |&s| detect_one(ds, params, index, s, cost));
        // Accept speculative results in seed order while each
        // detection's read set is untouched by this round's peels.
        let mut round = RoundStats { speculated: seeds.len(), ..RoundStats::default() };
        let mut resume = None;
        for (k, out) in outcomes.into_iter().enumerate() {
            let seed = seeds[k];
            if k > 0 {
                if !index.is_alive(seed) {
                    // An accepted cluster absorbed this seed; the
                    // sequential pass would never seed it. Its
                    // speculative result is simply discarded.
                    round.absorbed += 1;
                    continue;
                }
                // Tombstones older than this round can never appear in
                // `touched` (the detection could not retrieve them), so
                // any dead read-set entry was peeled by an earlier
                // acceptance *in this round* — the trace is stale and
                // everything from here on must be re-run against the
                // updated index.
                if out.touched.iter().any(|&t| !index.is_alive(t)) {
                    resume = Some(seed);
                    // The conflicting seed and every *alive* seed after
                    // it re-run next round; trailing seeds already
                    // peeled by this round's acceptances never will —
                    // the sequential protocol classifies them absorbed.
                    round.rerun = 1;
                    for &s in &seeds[k + 1..] {
                        if index.is_alive(s) {
                            round.rerun += 1;
                        } else {
                            round.absorbed += 1;
                        }
                    }
                    break;
                }
            }
            peel(index, seed, &out.cluster.members);
            detections.push((seed, out.cluster));
            round.accepted += 1;
        }
        next_seed = resume.unwrap_or_else(|| seeds.last().map(|&s| s + 1).unwrap_or(next_seed));
        width = next_width(seeds.len(), round.wasted(), max_width);
        round_span.count("accepted", round.accepted as u64);
        round_span.count("absorbed", round.absorbed as u64);
        round_span.count("rerun", round.rerun as u64);
        drop(round_span);
        stats.record_round(round);
    }
    detections
}

/// The width of the next round after one that speculated `width`
/// seeds and discarded `wasted` of them (absorbed or re-run): double
/// after a clean round, halve after a wasteful one, always within
/// `[1, max_width]`.
fn next_width(width: usize, wasted: usize, max_width: usize) -> usize {
    if wasted == 0 {
        (width * 2).min(max_width)
    } else {
        (width / 2).max(1)
    }
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
/// runs to exhaustion — the same LID/ROI/CIVS machinery, honouring
/// `params.exec` (byte-identical for any worker count).
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

/// The next `width` alive seeds in ascending order, without advancing
/// the cursor past the first (rejected speculations must be able to
/// re-seed). `None` once everything is peeled.
fn next_alive_batch_from(
    index: &LshIndex,
    cursor: &mut u32,
    n: u32,
    width: usize,
) -> Option<Vec<u32>> {
    let first = next_alive_from(index, cursor, n)?;
    let mut seeds = vec![first];
    let mut s = first + 1;
    while s < n && seeds.len() < width {
        if index.is_alive(s) {
            seeds.push(s);
        }
        s += 1;
    }
    Some(seeds)
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
    ///
    /// With a parallel [`AlidParams::exec`] policy the pass runs
    /// speculative multi-seed detection (see the module docs); the
    /// output is byte-identical to the sequential pass for every worker
    /// count.
    pub fn detect_all(self) -> Clustering {
        self.detect_all_with_stats().0
    }

    /// [`Self::detect_all`] plus the pass's conflict telemetry. The
    /// clustering is worker-count invariant; the [`PeelStats`] are a
    /// property of the schedule that ran.
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
            assert_eq!(*r, RoundStats { speculated: 1, accepted: 1, absorbed: 0, rerun: 0 });
        }
        assert_eq!(stats.accepted, clustering.len() as u64);
        assert_eq!(stats.speculated, stats.accepted);
        assert_eq!(stats.wasted(), 0);
        assert_eq!(stats.conflict_rate(), 0.0);
        assert_eq!(stats.mean_width(), 1.0);
    }

    #[test]
    fn round_width_is_aimd_within_bounds() {
        assert_eq!(next_width(4, 0, 8), 8, "clean round doubles");
        assert_eq!(next_width(8, 0, 8), 8, "bounded by the worker count");
        assert_eq!(next_width(8, 3, 8), 4, "wasted work halves");
        assert_eq!(next_width(1, 1, 8), 1, "never below one seed");
        assert_eq!(next_width(1, 0, 1), 1, "a single worker stays at width 1");
    }

    #[test]
    fn speculative_stats_account_for_every_speculation() {
        let ds = fixture();
        for workers in [2usize, 4, 8] {
            let p = params(&ds).with_exec(alid_exec::ExecPolicy::workers(workers));
            let (clustering, stats) =
                Peeler::new(&ds, p, CostModel::shared()).detect_all_with_stats();
            assert_eq!(stats.accepted, clustering.len() as u64, "{workers} workers");
            assert!(!stats.rounds.is_empty(), "{workers} workers");
            assert_eq!(
                stats.speculated,
                stats.accepted + stats.absorbed + stats.rerun,
                "{workers} workers: every speculation is accepted, absorbed or re-run"
            );
            for r in &stats.rounds {
                assert!(r.speculated >= 1 && r.speculated <= workers, "{workers} workers: {r:?}");
                assert_eq!(r.speculated, r.accepted + r.absorbed + r.rerun, "{r:?}");
            }
        }
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
