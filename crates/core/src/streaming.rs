//! Online ALID — the extension the paper announces as future work
//! (Section 6: "we will further extend ALID towards the online version
//! to efficiently process streaming data sources").
//!
//! The streaming driver keeps the batch algorithm's building blocks and
//! adds an ingest path:
//!
//! * every arriving item is appended to the data set and hashed into
//!   the (incrementally growing) LSH index;
//! * if the item is *infective* against some existing dominant cluster
//!   — `π(s_new, x_c) >= π(x_c)`, the same criterion the batch dynamics
//!   use (Section 3) — it is attached to the densest such cluster and
//!   the cluster's density is updated incrementally;
//! * otherwise it is buffered, and every `batch` arrivals the buffer is
//!   swept by the regular detection loop (assigned items tombstoned, so
//!   detections run on the unexplained residue only), promoting any new
//!   dominant cluster that has formed.
//!
//! Attachment keeps clusters on *uniform* weights (an m-clique's
//! converged weights are near-uniform; exactness is restored whenever a
//! sweep re-detects), which allows O(|c|) incremental density updates:
//! with `S = Σ_j a(new, j)` over current members,
//! `π_{m+1} = (π_m · m² + 2S) / (m+1)²`.
//!
//! Every cluster also keeps an [`ImmunityBall`]: its unweighted member
//! centroid `D` and `λ = (1/m) Σ_j e^{k‖v_j − D‖}`. By the triangle
//! inequality — the argument of Proposition 1 — `S/m ≤ e^{−k‖v−D‖} · λ`,
//! so a candidate cluster whose bound falls below its density is
//! skipped without a kernel evaluation. The skip is exact: it refuses
//! only clusters the kernel test would refuse, so every output is the
//! exhaustive test's, while a refused pair costs `O(d)` instead of
//! `O(|c| · d)`.
//!
//! Every pending item also keeps a *first-ball list*: the pending items
//! that share an LSH bucket with it and lie within
//! `params.first_roi_radius`. `push` fills both lists of a pair from the
//! query the attachment test already runs; collisions and distances are
//! symmetric, so the later arrival records the pair. When a sweep's
//! peel pass reaches a seed whose list holds no alive item, Algorithm
//! 2's `c = 1` special case fixes the answer — the seed alone — so the
//! pass records that singleton without running `detect_one`. An item's
//! list is dropped once it is assigned, and `from_state` rebuilds the
//! lists like the immunity balls.

use std::sync::{Arc, OnceLock};

use alid_affinity::block::BlockEval;
use alid_affinity::clustering::{Clustering, DetectedCluster};
use alid_affinity::cost::CostModel;
use alid_affinity::kernel::LaplacianKernel;
use alid_affinity::vector::Dataset;
use alid_lsh::LshIndex;

use crate::civs::center_distances;
use crate::config::AlidParams;
use crate::peel::{peel_pass, FirstBalls, PeelStats};

/// What happened to one ingested item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamUpdate {
    /// Joined an existing dominant cluster (index into
    /// [`StreamingAlid::clusters`]) — either directly on the ingest
    /// path, or through the second-chance re-test of the sweep the
    /// ingest triggered (when that sweep promoted nothing new).
    Attached(usize),
    /// Buffered as unexplained; a later sweep may promote it. Never
    /// returned while [`StreamingAlid::assignments`] explains the item
    /// — `Buffered` and a `Some` assignment are mutually exclusive.
    Buffered,
    /// The ingest triggered a sweep that promoted this many new
    /// dominant clusters. The item itself may be in one of them, or
    /// attached to an older cluster — consult
    /// [`StreamingAlid::assignments`] for its fate.
    SweptNewClusters(usize),
}

/// The cheap per-cluster merge evidence the cross-shard reducer keys
/// on: a centroid for candidate-pair generation (fragments of one
/// straddling cluster have near-identical router signatures *because*
/// their centroids nearly coincide) and a bounded support sample for
/// the kernel-affinity test, so testing a candidate pair costs
/// `O(cap² · d)` regardless of cluster size.
#[derive(Clone, Debug, PartialEq)]
pub struct MergeEvidence {
    /// Unweighted member centroid, accumulated in ascending member
    /// order — a pure function of the member *set*, so a restored
    /// instance reproduces it bit-for-bit (an incrementally maintained
    /// sum would depend on attachment order and break that).
    pub centroid: Vec<f64>,
    /// At most `cap` member vectors, strided evenly across the
    /// ascending member list (deterministic in the member set alone).
    pub sample: Vec<Vec<f64>>,
}

/// Relative slack on the outer-ball bound: it absorbs the rounding of
/// the distances, exponentials and sums on both sides of the test,
/// which stays below 1e−11 relative wherever the bound is a normal
/// float.
const BOUND_MARGIN: f64 = 1e-9;

/// Proposition 1's outer ball of one cluster under uniform weights: a
/// point `D` and `λ = (1/m) Σ_j e^{k‖v_j − D‖}` over the `m` members.
///
/// For any point `D`, the triangle inequality gives
/// `‖v − v_j‖ ≥ ‖v − D‖ − ‖v_j − D‖`, so the uniform-weight payoff
/// `π(s_v, x) = S/m = (1/m) Σ_j e^{−k‖v − v_j‖}` is at most
/// [`Self::bound`] `= e^{−k‖v − D‖} · λ`. An item whose bound lies
/// below the cluster's density is immune to it. `D` is the member
/// centroid, summed in ascending member order — the centroid
/// [`MergeEvidence`] reports — and a pure function of the member set.
#[derive(Clone, Debug, PartialEq)]
pub struct ImmunityBall {
    /// The unweighted member centroid `D`.
    pub center: Vec<f64>,
    /// `ln λ`: the bound is evaluated as one `exp` of
    /// `ln λ − k‖v − D‖`, so a far item whose `e^{−k‖v − D‖}` alone
    /// would underflow still gets a bound with full relative
    /// precision. `+∞` (or NaN) when a member's exponent overflows
    /// `f64` or the kernel's norm cannot resolve the distances that
    /// decide the test, which disables the skip.
    pub ln_lambda: f64,
}

impl ImmunityBall {
    /// The ball of the cluster whose members are `members`, in the
    /// order they are stored. `λ = +∞`, a bound that holds for any
    /// member set, stands in when `kernel`'s norm cannot resolve every
    /// distance that decides an attachment test to full relative
    /// precision (a large `p` overflows `Σ |x_i|^p` at modest
    /// distances).
    pub fn of(kernel: &LaplacianKernel, data: &Dataset, members: &[u32]) -> Self {
        let mut center = vec![0.0; data.dim()];
        for &m in members {
            for (acc, &x) in center.iter_mut().zip(data.get(m as usize)) {
                *acc += x;
            }
        }
        let inv = 1.0 / members.len() as f64;
        for x in &mut center {
            *x *= inv;
        }
        if !resolves(kernel, data.dim()) {
            return Self { center, ln_lambda: f64::INFINITY };
        }
        let lambda: f64 = members
            .iter()
            .map(|&m| (kernel.k * kernel.norm.distance(data.get(m as usize), &center)).exp())
            .sum();
        Self { center, ln_lambda: (lambda * inv).ln() }
    }

    /// `e^{−k‖v − D‖} · λ`, an upper bound on the uniform-weight
    /// `π(s_v, x) = S/m` of every member set this ball was fitted to.
    pub fn bound(&self, kernel: &LaplacianKernel, v: &[f64]) -> f64 {
        (self.ln_lambda - kernel.k * kernel.norm.distance(v, &self.center)).exp()
    }

    /// Whether the bound proves `v` immune to a cluster of density
    /// `density`: `bound · (1 + 1e−9) < density`. Never true when `λ`
    /// is not finite, or when `density` is below the normal `f64`
    /// range, where rounding is absolute rather than relative.
    pub fn excludes(&self, kernel: &LaplacianKernel, v: &[f64], density: f64) -> bool {
        self.ln_lambda.is_finite()
            && density >= f64::MIN_POSITIVE
            && self.bound(kernel, v) * (1.0 + BOUND_MARGIN) < density
    }
}

/// Whether `kernel`'s norm computes, in `dim` dimensions, every
/// distance that can decide an attachment test to full relative
/// precision. Such a distance is below `1,456 / k`: an item that meets
/// a normal density lies within `708.4 / k` of a member, and a finite
/// `λ` keeps every member within `709.8 / k` of `D`. So `Σ |x_i|^p`
/// must not overflow up to there, and the absolute error of its
/// subnormal terms, at most `(dim · 2^−1022)^{1/p}` in distance, must
/// move an exponent by under `1e−12`. L1 and L2 pass for every `k`
/// between about 1e−150 and 1e140; P(100) passes for none.
fn resolves(kernel: &LaplacianKernel, dim: usize) -> bool {
    let p = kernel.norm.p();
    let floor = (dim as f64 * f64::MIN_POSITIVE).powf(1.0 / p);
    let ceiling = 2f64.powf(1023.0 / p);
    kernel.k * floor <= 1e-12 && kernel.k * ceiling >= 1456.0
}

/// Candidate clusters one attachment evaluation tested with the
/// kernel, and those its immunity balls skipped.
#[derive(Clone, Copy, Debug, Default)]
struct AttachWork {
    tests: u64,
    prunes: u64,
}

impl AttachWork {
    #[cfg(test)]
    fn add(&mut self, other: AttachWork) {
        self.tests += other.tests;
        self.prunes += other.prunes;
    }

    fn publish(self) {
        let (tests, prunes) = attach_counters();
        tests.add(self.tests);
        prunes.add(self.prunes);
    }
}

/// `alid_work_total{phase="stream",unit=<unit>}` in the global
/// registry.
fn stream_work(unit: &'static str) -> Arc<alid_obs::Counter> {
    alid_obs::global().counter(
        "alid_work_total",
        "Hardware-independent work done, by phase and unit",
        &[("phase", "stream"), ("unit", unit)],
    )
}

/// `alid_work_total{phase="stream",unit="attach_tests"}` and
/// `{…,unit="attach_prunes"}`: candidate clusters the attachment rule
/// evaluated with the kernel, and those the immunity ball skipped, on
/// the ingest path, the sweep's second chance and read-only probes
/// alike (probes record their kernel evaluations too). Registered by
/// the first attachment evaluation, so `/metrics` reports 0 rather
/// than omitting the series.
fn attach_counters() -> &'static (Arc<alid_obs::Counter>, Arc<alid_obs::Counter>) {
    static COUNTERS: OnceLock<(Arc<alid_obs::Counter>, Arc<alid_obs::Counter>)> = OnceLock::new();
    COUNTERS.get_or_init(|| (stream_work("attach_tests"), stream_work("attach_prunes")))
}

/// `alid_work_total{phase="stream",unit="first_ball_checks"}` and
/// `{…,unit="lone_seeds"}`: first-ball lists the sweeps' peel passes
/// consulted, one per seed turn, and the seeds those lists resolved as
/// singletons without `detect_one`. Registered by the first sweep that
/// re-peels, so `/metrics` reports 0 rather than omitting the series.
fn first_ball_counters() -> &'static (Arc<alid_obs::Counter>, Arc<alid_obs::Counter>) {
    static COUNTERS: OnceLock<(Arc<alid_obs::Counter>, Arc<alid_obs::Counter>)> = OnceLock::new();
    COUNTERS.get_or_init(|| (stream_work("first_ball_checks"), stream_work("lone_seeds")))
}

/// Incremental dominant-cluster maintenance over a stream.
pub struct StreamingAlid {
    params: AlidParams,
    cost: Arc<CostModel>,
    data: Dataset,
    index: LshIndex,
    clusters: Vec<DetectedCluster>,
    /// Per-cluster pairwise-affinity sums (for O(|c|) density updates).
    pair_sums: Vec<f64>,
    /// Per-cluster immunity balls, derived from the member sets and
    /// refitted whenever one changes (parallel to `clusters`).
    balls: Vec<ImmunityBall>,
    assigned: Vec<Option<usize>>,
    pending: Vec<u32>,
    /// Per-item first-ball lists (parallel to `data`): for a pending
    /// item, the items that share an LSH bucket with it, lie within
    /// `params.first_roi_radius`, and were pending when the later of
    /// the two arrived, ascending. Empty once the item is assigned.
    /// Derived state, rebuilt in `from_state`.
    first_balls: Vec<Vec<u32>>,
    batch: usize,
    since_sweep: usize,
    stats: PeelStats,
    /// Test oracle: evaluate every attachment candidate with the
    /// kernel, withhold the first-ball lists from the re-peel, and so
    /// run `detect_one` on every seed.
    #[cfg(test)]
    exhaustive: bool,
    /// Second-chance candidates tested and skipped over this
    /// instance's lifetime.
    #[cfg(test)]
    second_chance: AttachWork,
    /// Seeds the first-ball lists resolved over this instance's
    /// lifetime.
    #[cfg(test)]
    lone_seeds: u64,
}

impl StreamingAlid {
    /// An empty stream processor. `batch` is the sweep period (how many
    /// arrivals between detection passes over the buffer).
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    pub fn new(dim: usize, params: AlidParams, batch: usize, cost: Arc<CostModel>) -> Self {
        assert!(batch > 0, "sweep period must be positive");
        let data = Dataset::new(dim);
        let index = LshIndex::build(&data, params.lsh, &cost);
        Self {
            params,
            cost,
            data,
            index,
            clusters: Vec::new(),
            pair_sums: Vec::new(),
            balls: Vec::new(),
            assigned: Vec::new(),
            pending: Vec::new(),
            first_balls: Vec::new(),
            batch,
            since_sweep: 0,
            stats: PeelStats::default(),
            #[cfg(test)]
            exhaustive: false,
            #[cfg(test)]
            second_chance: AttachWork::default(),
            #[cfg(test)]
            lone_seeds: 0,
        }
    }

    /// Items seen so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no item has arrived yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The current dominant clusters.
    pub fn clusters(&self) -> &[DetectedCluster] {
        &self.clusters
    }

    /// Per-item assignment (`None` = currently unexplained).
    pub fn assignments(&self) -> &[Option<usize>] {
        &self.assigned
    }

    /// Currently buffered (unexplained) items.
    pub fn pending(&self) -> &[u32] {
        &self.pending
    }

    // --- Persistence surface -------------------------------------------
    //
    // The accessors below, together with [`Self::from_state`], are the
    // **stable persistence surface** of the streaming driver: everything
    // a snapshot codec needs to capture the full behavioural state and
    // reconstruct an instance that continues bit-for-bit identically to
    // one that was never persisted. The LSH index is deliberately *not*
    // part of the surface — it is a pure function of `(params.lsh,
    // data)` and is rebuilt by replaying the insert path, which is
    // proven equivalent to the incremental build
    // (`insert_equivalent_to_batch_build` in `alid-lsh`). Neither are
    // the per-item [`Self::assignments`]: an item is assigned exactly
    // when it is a member of some cluster (attachment and promotion
    // both add it to `members`), so they are derived from the clusters,
    // and so are the immunity balls and the first-ball lists. Telemetry
    // ([`Self::peel_stats`]) is excluded too: it never feeds back into
    // detection.

    /// The parameters this stream was configured with (persistence
    /// surface; also what a snapshot must reproduce for determinism).
    pub fn params(&self) -> &AlidParams {
        &self.params
    }

    /// The sweep period (persistence surface).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Arrivals since the last sweep (persistence surface; restoring
    /// this keeps the next sweep on the uninterrupted schedule).
    pub fn since_sweep(&self) -> usize {
        self.since_sweep
    }

    /// Every item seen so far, in arrival order (persistence surface).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Per-cluster pairwise-affinity sums backing the O(|c|)
    /// incremental density updates (persistence surface; parallel to
    /// [`Self::clusters`]).
    pub fn pair_sums(&self) -> &[f64] {
        &self.pair_sums
    }

    /// Reconstructs a stream processor from persisted state — the
    /// inverse of reading the persistence-surface accessors.
    ///
    /// The LSH index is rebuilt by replaying every row of `data`
    /// through the streaming insert path, exactly as the uninterrupted
    /// instance built it, so queries — and therefore every future
    /// attachment and sweep — are byte-identical to an instance that
    /// never round-tripped. `cost` accounts the rebuilt index's memory
    /// afresh (the paper's Section 4.3 numbers describe the live
    /// process, not the snapshot history).
    ///
    /// The first-ball lists are rebuilt by replaying the arrivals of the
    /// pending items, which records every pair that is still pending.
    /// A live list may also hold items assigned since; they are dead in
    /// every sweep, so the rebuilt lists decide every seed the same way.
    ///
    /// # Errors
    /// Describes the first violation when `batch == 0`, when
    /// `clusters` and `pair_sums` lengths differ, when a cluster member
    /// or pending item is out of bounds, when an item is listed in two
    /// clusters, when a pending item is a cluster member, when
    /// `pending` is not strictly ascending, or when an item is neither
    /// in a cluster nor pending — corrupt snapshots are refused instead
    /// of detecting nonsense.
    #[expect(clippy::too_many_arguments)]
    pub fn from_state(
        params: AlidParams,
        batch: usize,
        cost: Arc<CostModel>,
        data: Dataset,
        clusters: Vec<DetectedCluster>,
        pair_sums: Vec<f64>,
        pending: Vec<u32>,
        since_sweep: usize,
    ) -> Result<Self, String> {
        if batch == 0 {
            return Err("sweep period must be positive".into());
        }
        if clusters.len() != pair_sums.len() {
            return Err("clusters/pair_sums length mismatch".into());
        }
        let mut assigned = vec![None; data.len()];
        for (c, cluster) in clusters.iter().enumerate() {
            for &m in &cluster.members {
                match assigned.get_mut(m as usize) {
                    None => return Err(format!("cluster member {m} out of bounds")),
                    Some(Some(other)) => {
                        return Err(format!("item {m} is listed in clusters {other} and {c}"))
                    }
                    Some(slot) => *slot = Some(c),
                }
            }
        }
        for &p in &pending {
            match assigned.get(p as usize) {
                None => return Err(format!("pending item {p} out of bounds")),
                Some(Some(c)) => return Err(format!("pending item {p} is in cluster {c}")),
                Some(None) => {}
            }
        }
        // A live buffer is strictly ascending and, with the clusters,
        // covers every item. The sweep tombstones by that, and an orphan
        // would be seeded with no first-ball list.
        if let Some(w) = pending.windows(2).find(|w| w[0] >= w[1]) {
            return Err(if w[0] == w[1] {
                format!("pending item {} is listed twice", w[0])
            } else {
                format!("pending items {} and {} are out of order", w[0], w[1])
            });
        }
        let mut listed = pending.iter().copied().peekable();
        for (i, a) in assigned.iter().enumerate() {
            if a.is_none() && listed.next_if_eq(&(i as u32)).is_none() {
                return Err(format!("item {i} is neither in a cluster nor pending"));
            }
        }
        // `build` runs the insert path row by row: identical code path —
        // identical buckets — to the instance being restored.
        let index = LshIndex::build(&data, params.lsh, &cost);
        let balls =
            clusters.iter().map(|c| ImmunityBall::of(&params.kernel, &data, &c.members)).collect();
        let first_balls = vec![Vec::new(); data.len()];
        let mut stream = Self {
            params,
            cost,
            data,
            index,
            clusters,
            pair_sums,
            balls,
            assigned,
            pending,
            first_balls,
            batch,
            since_sweep,
            stats: PeelStats::default(),
            #[cfg(test)]
            exhaustive: false,
            #[cfg(test)]
            second_chance: AttachWork::default(),
            #[cfg(test)]
            lone_seeds: 0,
        };
        for k in 0..stream.pending.len() {
            let p = stream.pending[k];
            let hits = stream.index.query(stream.data.get(p as usize));
            stream.record_first_ball(p, &hits);
        }
        Ok(stream)
    }

    /// Most recent peel rounds retained in
    /// [`Self::peel_stats`]'s per-round history (totals are never
    /// trimmed) — keeps a long-lived stream's telemetry bounded.
    /// Benchmark-only, like [`PeelStats`].
    pub const MAX_STATS_ROUNDS: usize = 256;

    /// Detection telemetry accumulated across every sweep's peel pass
    /// (see [`PeelStats`]; empty until the first sweep runs a
    /// detection, which lone seeds never do). The totals cover the
    /// stream's whole lifetime; the per-round history holds at most
    /// [`Self::MAX_STATS_ROUNDS`] recent rounds. Benchmark-only: the
    /// repository benchmark counts sweep detections with it.
    pub fn peel_stats(&self) -> &PeelStats {
        &self.stats
    }

    /// The merge evidence of cluster `c` with a support sample of at
    /// most `sample_cap` members — see [`MergeEvidence`]. Everything
    /// is derived canonically from the member set (centroid summed in
    /// ascending member order, sample strided across the ascending
    /// member list), so two instances holding the same cluster —
    /// live, restored, or reached on different worker counts — emit
    /// bit-identical evidence.
    ///
    /// # Panics
    /// Panics if `c` is out of bounds or `sample_cap == 0`.
    pub fn merge_evidence(&self, c: usize, sample_cap: usize) -> MergeEvidence {
        assert!(sample_cap >= 1, "sample cap must be positive");
        let members = &self.clusters[c].members;
        let m = members.len();
        let take = m.min(sample_cap);
        // Evenly strided picks: indices i*m/take are strictly
        // increasing for take <= m, covering the whole span.
        let sample =
            (0..take).map(|i| self.data.get(members[i * m / take] as usize).to_vec()).collect();
        MergeEvidence { centroid: self.balls[c].center.clone(), sample }
    }

    /// The current state as a [`Clustering`] over all items seen.
    pub fn snapshot(&self) -> Clustering {
        Clustering { n: self.data.len(), clusters: self.clusters.clone() }
    }

    /// Ingests one item.
    pub fn push(&mut self, v: &[f64]) -> StreamUpdate {
        let id = self.index.insert(v);
        self.data.push(v);
        self.assigned.push(None);
        self.first_balls.push(Vec::new());
        self.since_sweep += 1;
        let hits = self.index.query(v);
        if let Some(c) = self.try_attach(id, &hits) {
            self.assigned[id as usize] = Some(c);
            return StreamUpdate::Attached(c);
        }
        self.record_first_ball(id, &hits);
        self.pending.push(id);
        if self.since_sweep >= self.batch {
            let promoted = self.sweep();
            if promoted > 0 {
                return StreamUpdate::SweptNewClusters(promoted);
            }
            // The sweep promoted nothing, but its second-chance re-test
            // (which sees *all* clusters, not just the ingest path's
            // LSH collisions) may still have attached this very item —
            // report that, not `Buffered`, so the return value never
            // contradicts `assignments()`.
            if let Some(c) = self.assigned[id as usize] {
                return StreamUpdate::Attached(c);
            }
        }
        StreamUpdate::Buffered
    }

    /// The infective-attachment test on the ingest path: candidate
    /// clusters come from the item's LSH collisions `hits`, so the test
    /// is local (`O(collisions + |c|)` per arrival).
    fn try_attach(&mut self, id: u32, hits: &[u32]) -> Option<usize> {
        let mut candidates: Vec<usize> =
            hits.iter().filter_map(|&h| self.assigned.get(h as usize).copied().flatten()).collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut work = AttachWork::default();
        let attached = self.attach_among(id, &candidates, &mut work);
        work.publish();
        attached
    }

    /// Enters the pending item `id` into the first-ball lists: every
    /// pending item among its LSH collisions `hits` that arrived before
    /// it and lies within `first_roi_radius` joins `id`'s list, and
    /// `id` joins theirs. Distances come from CIVS's own batch, whose
    /// per-pair terms do not depend on which item is the centre, so
    /// each pair gets the distance either item's `c = 1` CIVS computes.
    fn record_first_ball(&mut self, id: u32, hits: &[u32]) {
        let mates: Vec<u32> = hits
            .iter()
            .copied()
            .filter(|&h| h < id && self.assigned[h as usize].is_none())
            .collect();
        let kernel = &self.params.kernel;
        let dists = center_distances(&self.data, kernel, &mates, self.data.get(id as usize));
        for (&h, &d) in mates.iter().zip(&dists) {
            if d <= self.params.first_roi_radius {
                self.first_balls[h as usize].push(id);
                self.first_balls[id as usize].push(h);
            }
        }
    }

    /// Assigns `id` to cluster `c` and drops its first-ball list: an
    /// assigned item never returns to the buffer.
    fn assign(&mut self, id: u32, c: usize) {
        self.assigned[id as usize] = Some(c);
        self.first_balls[id as usize] = Vec::new();
    }

    /// Read-only infective-attachment evaluation: among `candidates`,
    /// the densest existing cluster that `v` would join
    /// (`π(s_new, x_c) >= π(x_c)` under uniform weights), as
    /// `(cluster, its density, Σ_j a(v, j))`, or `None` when no
    /// cluster accepts the vector. This is the **single home of the
    /// attachment rule**: the mutating ingest path
    /// ([`Self::push`] / the sweep's second chance) and external
    /// read-only probes (the service's `POST /assign`) both call it,
    /// so a probe's answer can never drift from what an actual ingest
    /// of the same vector would decide. A candidate whose
    /// [`ImmunityBall`] excludes `v` is skipped without a kernel
    /// evaluation; the kernel would refuse it, so the answer is the
    /// exhaustive test's. Kernel evaluations are recorded in the
    /// shared cost model either way.
    pub fn best_infective<I>(&self, v: &[f64], candidates: I) -> Option<(usize, f64, f64)>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut work = AttachWork::default();
        let best = self.infective_among(v, candidates, &mut work);
        work.publish();
        best
    }

    /// [`Self::best_infective`], counting its candidates into `work`.
    fn infective_among<I>(
        &self,
        v: &[f64],
        candidates: I,
        work: &mut AttachWork,
    ) -> Option<(usize, f64, f64)>
    where
        I: IntoIterator<Item = usize>,
    {
        let kernel = self.params.kernel;
        let mut scratch = BlockEval::new();
        let mut vals = Vec::new();
        let mut best: Option<(f64, usize, f64)> = None; // (density, cluster, S)
        for c in candidates {
            let cluster = &self.clusters[c];
            if self.immune(c, v) {
                work.prunes += 1;
                continue;
            }
            work.tests += 1;
            let m = cluster.members.len() as f64;
            // One blocked batch per candidate cluster; summing the
            // per-member affinities in member order reproduces the
            // scalar map-sum bit for bit.
            vals.clear();
            vals.resize(cluster.members.len(), 0.0);
            scratch.eval_indexed(&kernel, &self.data, &cluster.members, v, &mut vals);
            let s: f64 = vals.iter().sum();
            self.cost.record_kernel_evals(cluster.members.len() as u64);
            // π(s_new, x_c) with uniform weights = S / m.
            if s / m >= cluster.density && best.is_none_or(|(d, _, _)| cluster.density > d) {
                best = Some((cluster.density, c, s));
            }
        }
        best.map(|(d, c, s)| (c, d, s))
    }

    /// Whether the sweep's peel pass may resolve seeds from their
    /// first-ball lists.
    fn consults_first_balls(&self) -> bool {
        #[cfg(test)]
        if self.exhaustive {
            return false;
        }
        true
    }

    /// Whether cluster `c`'s immunity ball proves `v` immune to it.
    fn immune(&self, c: usize, v: &[f64]) -> bool {
        #[cfg(test)]
        if self.exhaustive {
            return false;
        }
        self.balls[c].excludes(&self.params.kernel, v, self.clusters[c].density)
    }

    /// The infective-attachment test — [`Self::best_infective`] plus
    /// the mutation: the winner absorbs `id` with an O(|c|)
    /// incremental density update, and its immunity ball is refitted.
    fn attach_among(
        &mut self,
        id: u32,
        candidates: &[usize],
        work: &mut AttachWork,
    ) -> Option<usize> {
        let v = self.data.get(id as usize);
        let (c, _, s) = self.infective_among(v, candidates.iter().copied(), work)?;
        let cluster = &mut self.clusters[c];
        let m = cluster.members.len() as f64;
        self.pair_sums[c] += s;
        cluster.members.push(id);
        cluster.members.sort_unstable();
        let m1 = m + 1.0;
        cluster.weights = vec![1.0 / m1; cluster.members.len()];
        cluster.density = 2.0 * self.pair_sums[c] / (m1 * m1);
        self.balls[c] = ImmunityBall::of(&self.params.kernel, &self.data, &cluster.members);
        Some(c)
    }

    /// Runs the detection loop over the unexplained buffer, promoting
    /// new dominant clusters. Returns how many were promoted.
    pub fn sweep(&mut self) -> usize {
        self.since_sweep = 0;
        if self.pending.is_empty() {
            return 0;
        }
        // Second-chance attachment: the ingest path only sees clusters
        // its LSH collisions surface, and approximate retrieval can miss
        // a true near neighbour. The sweep is the repair phase, so every
        // buffered item is re-tested against *all* current clusters, in
        // ascending order, directly before detection runs — attachment
        // recall never depends on hash luck. A cluster whose immunity
        // ball excludes the item costs one distance to its centre; only
        // the rest get a kernel pass over their members.
        let mut still: Vec<u32> = Vec::new();
        // attach_among never adds clusters, so the candidate list is
        // loop-invariant.
        let all: Vec<usize> = (0..self.clusters.len()).collect();
        let mut work = AttachWork::default();
        for id in std::mem::take(&mut self.pending) {
            match self.attach_among(id, &all, &mut work) {
                Some(c) => self.assign(id, c),
                None => still.push(id),
            }
        }
        work.publish();
        #[cfg(test)]
        self.second_chance.add(work);
        self.pending = still;
        if self.pending.is_empty() {
            return 0;
        }
        // Restrict detection to the residue: tombstone assigned items.
        // The alive set is then exactly the pending buffer (every item
        // is either assigned or pending), so the shared peel pass —
        // lowest alive seed, detect, peel, repeat — visits the pending
        // items in ascending order. A seed whose first-ball list holds
        // no alive item at its turn is recorded as its own singleton
        // without a detection (see `peel_pass`).
        for (i, a) in self.assigned.iter().enumerate() {
            if a.is_some() {
                self.index.remove(i as u32);
            }
        }
        self.pending.clear();
        // These tombstones are transient: restore_all below revives the
        // assigned items so future attachment queries still find them.
        let consult = self.consults_first_balls();
        let mut first_balls = FirstBalls::new(&self.first_balls);
        let detections = peel_pass(
            &self.data,
            &self.params,
            &mut self.index,
            &self.cost,
            0,
            consult.then_some(&mut first_balls),
            &mut self.stats,
        );
        let (checks, lone) = first_ball_counters();
        checks.add(first_balls.checks);
        lone.add(first_balls.lone);
        #[cfg(test)]
        {
            self.lone_seeds += first_balls.lone;
        }
        // The stream is unbounded; keep the per-round history a
        // bounded window (totals keep accumulating forever).
        self.stats.trim_rounds(Self::MAX_STATS_ROUNDS);
        let mut promoted = 0;
        let mut still_pending: Vec<u32> = Vec::new();
        for (seed, cluster) in detections {
            // A seed the dynamics immunized away joins no cluster, so it
            // stays buffered whatever its detection's fate.
            if !cluster.members.contains(&seed) {
                still_pending.push(seed);
            }
            let is_dominant = cluster.density >= self.params.density_threshold
                && cluster.members.len() >= self.params.min_cluster_size;
            if is_dominant {
                let slot = self.clusters.len();
                for &m in &cluster.members {
                    self.assign(m, slot);
                }
                // Pairwise sum from the density identity under the
                // converged weights ~ uniform: Σpairs = π m² / 2.
                let m = cluster.members.len() as f64;
                self.pair_sums.push(cluster.density * m * m / 2.0);
                self.balls.push(ImmunityBall::of(
                    &self.params.kernel,
                    &self.data,
                    &cluster.members,
                ));
                self.clusters.push(cluster);
                promoted += 1;
            } else {
                still_pending.extend(cluster.members);
            }
        }
        still_pending.sort_unstable();
        still_pending.dedup();
        self.pending = still_pending;
        // Everything alive again for future attachment queries.
        self.index.restore_all();
        promoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_affinity::kernel::LpNorm;

    fn params() -> AlidParams {
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = AlidParams::new(kernel);
        p.first_roi_radius = kernel.distance_at(0.5);
        p.density_threshold = 0.7;
        p.min_cluster_size = 3;
        p.lsh.seed = 5;
        p
    }

    fn stream() -> StreamingAlid {
        StreamingAlid::new(1, params(), 8, CostModel::shared())
    }

    #[test]
    fn cluster_emerges_from_the_buffer() {
        let mut s = stream();
        let mut promoted = 0;
        for i in 0..8 {
            match s.push(&[i as f64 * 0.05]) {
                StreamUpdate::SweptNewClusters(k) => promoted += k,
                StreamUpdate::Buffered => {}
                StreamUpdate::Attached(_) => panic!("nothing to attach to yet"),
            }
        }
        assert_eq!(promoted, 1, "the tight run must be promoted at the sweep");
        assert_eq!(s.clusters().len(), 1);
        assert_eq!(s.clusters()[0].members.len(), 8);
    }

    #[test]
    fn later_arrivals_attach_incrementally() {
        let mut s = stream();
        for i in 0..8 {
            s.push(&[i as f64 * 0.05]);
        }
        assert_eq!(s.clusters().len(), 1);
        let before = s.clusters()[0].density;
        // A new item inside the cluster's span attaches immediately.
        let upd = s.push(&[0.12]);
        assert_eq!(upd, StreamUpdate::Attached(0));
        assert_eq!(s.clusters()[0].members.len(), 9);
        let after = s.clusters()[0].density;
        assert!((after - before).abs() < 0.2, "density update stays sane");
    }

    #[test]
    fn incremental_density_matches_direct_recompute() {
        let mut s = stream();
        for i in 0..8 {
            s.push(&[i as f64 * 0.05]);
        }
        s.push(&[0.2]);
        let c = &s.clusters()[0];
        // Direct uniform-weight density over the member set.
        let kernel = params().kernel;
        let m = c.members.len();
        let mut acc = 0.0;
        for (a, &i) in c.members.iter().enumerate() {
            for &j in &c.members[a + 1..] {
                acc += kernel.eval(s.data.get(i as usize), s.data.get(j as usize));
            }
        }
        let direct = 2.0 * acc / (m as f64 * m as f64);
        assert!((c.density - direct).abs() < 0.02, "incremental {} vs direct {direct}", c.density);
    }

    #[test]
    fn noise_stays_pending_and_never_attaches() {
        let mut s = stream();
        for i in 0..8 {
            s.push(&[i as f64 * 0.05]);
        }
        let upd = s.push(&[500.0]);
        assert_eq!(upd, StreamUpdate::Buffered);
        assert!(s.pending().contains(&8));
        assert_eq!(s.assignments()[8], None);
    }

    #[test]
    fn two_interleaved_streams_form_two_clusters() {
        let mut s = stream();
        for i in 0..10 {
            s.push(&[i as f64 * 0.04]); // cluster A
            s.push(&[30.0 + i as f64 * 0.04]); // cluster B
        }
        // Force a final sweep for any tail buffer.
        s.sweep();
        let dominant = s.snapshot().dominant(0.7, 3);
        assert_eq!(dominant.len(), 2, "both interleaved clusters detected");
        let sizes: Vec<usize> = dominant.clusters.iter().map(|c| c.len()).collect();
        assert!(sizes.iter().all(|&z| z >= 8), "sizes {sizes:?}");
    }

    #[test]
    fn snapshot_covers_all_items() {
        let mut s = stream();
        for i in 0..20 {
            s.push(&[(i % 5) as f64 * 0.04 + (i / 5) as f64 * 25.0]);
        }
        s.sweep();
        let snap = s.snapshot();
        assert_eq!(snap.n, 20);
        // Assignments and cluster membership agree.
        for (i, a) in s.assignments().iter().enumerate() {
            if let Some(c) = a {
                assert!(s.clusters()[*c].members.contains(&(i as u32)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "sweep period")]
    fn zero_batch_rejected() {
        let _ = StreamingAlid::new(1, params(), 0, CostModel::shared());
    }

    /// Regression for the satellite bugfix: when the sweep a push
    /// triggered attached the item through the second-chance re-test
    /// (the ingest path's LSH lookup missed every cluster member),
    /// `push` used to return `Buffered` while `assignments()` already
    /// said `Some(c)`. The return value must report the attachment.
    #[test]
    fn sweep_second_chance_attachment_is_reported_not_buffered() {
        // A 1-table, 2-projection index makes an in-cluster item able
        // to miss every member's bucket; we sweep LSH seeds until one
        // produces that miss (everything is deterministic per seed, so
        // the scenario reproduces exactly).
        let mut exercised = 0usize;
        for lsh_seed in 0..100u64 {
            let kernel = LaplacianKernel::l2(1.0);
            let mut p = AlidParams::new(kernel);
            p.first_roi_radius = kernel.distance_at(0.5);
            p.density_threshold = 0.7;
            p.min_cluster_size = 3;
            p.lsh = alid_lsh::LshParams::new(1, 2, 0.05, lsh_seed);
            let mut s = StreamingAlid::new(1, p, 8, CostModel::shared());
            // A tight 8-item cluster; the 8th push triggers the
            // promoting sweep.
            for i in 0..8 {
                s.push(&[i as f64 * 0.01]);
            }
            if s.clusters().len() != 1 || s.clusters()[0].members.len() < 3 {
                continue; // this seed's index never assembled the cluster
            }
            // Seven far-noise arrivals re-arm the sweep counter so the
            // 16th push (id 15) sweeps again.
            for i in 0..7 {
                s.push(&[50.0 + i as f64 * 37.0]);
            }
            let x = 0.12; // infective against the cluster (π ≈ 0.84, mean affinity ≈ 0.9)
                          // The second-chance path only runs when the ingest path's
                          // LSH lookup surfaces no assigned item.
            if s.index.query(&[x]).iter().any(|&h| s.assigned[h as usize].is_some()) {
                continue; // direct attachment; not the path under test
            }
            let upd = s.push(&[x]);
            if s.assignments()[15] == Some(0) {
                exercised += 1;
                assert_eq!(
                    upd,
                    StreamUpdate::Attached(0),
                    "seed {lsh_seed}: the sweep attached the item but push reported {upd:?}"
                );
            }
        }
        assert!(exercised > 0, "no LSH seed exercised the second-chance path; retune the fixture");
    }

    /// The promoted-to-a-new-cluster flank of the same bugfix: when
    /// the triggered sweep promotes the cluster the pushed item itself
    /// belongs to, `push` reports the promotion and `assignments()`
    /// explains the item — never `Buffered`.
    #[test]
    fn sweep_promotion_of_the_pushed_item_is_reported() {
        let mut s = stream();
        for i in 0..7 {
            assert_eq!(s.push(&[i as f64 * 0.05]), StreamUpdate::Buffered);
            assert_eq!(s.assignments()[i], None);
        }
        // The 8th arrival completes the batch; the sweep it triggers
        // promotes the cluster containing this very item.
        let upd = s.push(&[7.0 * 0.05]);
        assert_eq!(upd, StreamUpdate::SweptNewClusters(1));
        assert_eq!(s.assignments()[7], Some(0), "the pushed item is in the promoted cluster");
    }

    /// Invariant the bugfix establishes: `Buffered` and a `Some`
    /// assignment are mutually exclusive, for every push in a long
    /// mixed stream.
    #[test]
    fn push_outcome_never_contradicts_assignments() {
        let mut s = stream();
        for i in 0..60 {
            // Two clusters, interleaved noise: pushes hit every branch
            // (direct attach, buffer, promoting and non-promoting
            // sweeps).
            let v = match i % 5 {
                0 | 1 => (i % 10) as f64 * 0.04,
                2 | 3 => 30.0 + (i % 10) as f64 * 0.04,
                _ => 500.0 + i as f64 * 13.0,
            };
            let id = s.len();
            let upd = s.push(&[v]);
            let assigned = s.assignments()[id];
            match upd {
                StreamUpdate::Buffered => {
                    assert_eq!(assigned, None, "push {id} said Buffered but item is assigned")
                }
                StreamUpdate::Attached(c) => assert_eq!(assigned, Some(c), "push {id}"),
                StreamUpdate::SweptNewClusters(k) => assert!(k > 0, "push {id}"),
            }
        }
    }

    #[test]
    fn streaming_sweeps_accumulate_peel_stats() {
        let mut s = stream();
        assert_eq!(s.peel_stats().speculated, 0, "no sweep has detected yet");
        for i in 0..8 {
            s.push(&[i as f64 * 0.05]);
        }
        let after_first = s.peel_stats().speculated;
        assert!(after_first > 0, "the promoting sweep ran detections");
        for i in 0..8 {
            s.push(&[100.0 + i as f64 * 0.05]); // a second tight run
        }
        assert_eq!(s.clusters().len(), 2, "the later sweep promotes the second run");
        assert!(
            s.peel_stats().speculated > after_first,
            "later sweeps keep accumulating into the same stats"
        );
        let stats = s.peel_stats();
        assert_eq!(stats.rounds.len() as u64, stats.speculated, "one round per detection");
        assert!(
            stats.rounds.iter().all(|r| r.speculated == 1 && r.accepted == 1),
            "sweeps run width-1 rounds that keep their detection: {stats:?}"
        );
        assert_eq!(stats.wasted(), 0);
    }

    #[test]
    fn merge_evidence_is_canonical_in_the_member_set() {
        let mut s = stream();
        for i in 0..8 {
            s.push(&[i as f64 * 0.05]);
        }
        assert_eq!(s.clusters().len(), 1);
        let ev = s.merge_evidence(0, 3);
        // Centroid of 0.0, 0.05, ..., 0.35 is 0.175.
        assert!((ev.centroid[0] - 0.175).abs() < 1e-12);
        assert_eq!(ev.sample.len(), 3, "bounded by the cap");
        // Strided across the ascending member list: ids 0, 2, 5.
        assert_eq!(ev.sample, vec![vec![0.0], vec![0.10], vec![0.25]]);
        // A cap above the member count takes everything.
        assert_eq!(s.merge_evidence(0, 64).sample.len(), 8);
        // A restored instance reproduces the evidence bit-for-bit.
        let rebuilt = restore(&s).expect("restore");
        let rev = rebuilt.merge_evidence(0, 3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ev.centroid), bits(&rev.centroid));
        assert_eq!(ev.sample, rev.sample);
    }

    #[test]
    #[should_panic(expected = "sample cap")]
    fn merge_evidence_rejects_zero_cap() {
        let mut s = stream();
        for i in 0..8 {
            s.push(&[i as f64 * 0.05]);
        }
        let _ = s.merge_evidence(0, 0);
    }

    /// The persistence surface's core guarantee: capture the state
    /// mid-stream, rebuild via `from_state`, continue — every output
    /// is bit-for-bit what the uninterrupted instance produces.
    #[test]
    fn from_state_continue_is_bit_identical_to_uninterrupted() {
        let feed = |s: &mut StreamingAlid, range: std::ops::Range<usize>| {
            for i in range {
                let v = match i % 5 {
                    0 | 1 => (i % 10) as f64 * 0.04,
                    2 | 3 => 30.0 + (i % 10) as f64 * 0.04,
                    _ => 500.0 + i as f64 * 13.0,
                };
                s.push(&[v]);
            }
        };
        let mut uninterrupted = stream();
        feed(&mut uninterrupted, 0..60);

        let mut first = stream();
        feed(&mut first, 0..37); // mid-batch: since_sweep != 0
        let mut resumed = restore(&first).expect("restore");
        assert_eq!(resumed.assignments(), first.assignments(), "derived from membership");
        feed(&mut resumed, 37..60);

        assert_eq!(resumed.assignments(), uninterrupted.assignments());
        assert_eq!(resumed.pending(), uninterrupted.pending());
        assert_eq!(resumed.clusters().len(), uninterrupted.clusters().len());
        for (a, b) in resumed.clusters().iter().zip(uninterrupted.clusters()) {
            assert_eq!(a.members, b.members);
            let aw: Vec<u64> = a.weights.iter().map(|w| w.to_bits()).collect();
            let bw: Vec<u64> = b.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(aw, bw);
            assert_eq!(a.density.to_bits(), b.density.to_bits());
        }
        let ap: Vec<u64> = resumed.pair_sums().iter().map(|x| x.to_bits()).collect();
        let bp: Vec<u64> = uninterrupted.pair_sums().iter().map(|x| x.to_bits()).collect();
        assert_eq!(ap, bp, "incremental density state diverged");
    }

    /// `s`'s persisted state with its clusters, pair sums and pending
    /// buffer swapped in — how the tests fake a corrupt snapshot.
    fn from_parts(
        s: &StreamingAlid,
        clusters: Vec<DetectedCluster>,
        pair_sums: Vec<f64>,
        pending: Vec<u32>,
    ) -> Result<StreamingAlid, String> {
        StreamingAlid::from_state(
            *s.params(),
            s.batch(),
            CostModel::shared(),
            s.data().clone(),
            clusters,
            pair_sums,
            pending,
            s.since_sweep(),
        )
    }

    /// Round-trips `s` through the persistence surface.
    fn restore(s: &StreamingAlid) -> Result<StreamingAlid, String> {
        from_parts(s, s.clusters().to_vec(), s.pair_sums().to_vec(), s.pending().to_vec())
    }

    /// One 8-item cluster plus one buffered noise item (id 8).
    fn clustered_stream() -> StreamingAlid {
        let mut s = stream();
        for i in 0..8 {
            s.push(&[i as f64 * 0.05]);
        }
        s.push(&[500.0]);
        assert_eq!((s.clusters().len(), s.pending()), (1, &[8][..]));
        s
    }

    #[test]
    fn from_state_rejects_dangling_assignment() {
        let dangling = DetectedCluster { members: vec![99], weights: vec![1.0], density: 1.0 };
        let res = from_parts(&clustered_stream(), vec![dangling], vec![0.0], Vec::new());
        assert!(res.err().expect("refused").contains("out of bounds"));
    }

    #[test]
    fn from_state_rejects_an_item_in_two_clusters() {
        let s = clustered_stream();
        let twice = vec![s.clusters()[0].clone(), s.clusters()[0].clone()];
        let res = from_parts(&s, twice, vec![0.0; 2], s.pending().to_vec());
        assert!(res.err().expect("refused").contains("clusters 0 and 1"));
    }

    #[test]
    fn from_state_rejects_a_pending_cluster_member() {
        let s = clustered_stream();
        let pending = vec![8, s.clusters()[0].members[0]];
        let res = from_parts(&s, s.clusters().to_vec(), s.pair_sums().to_vec(), pending);
        assert!(res.err().expect("refused").contains("is in cluster 0"));
    }

    /// One 8-item cluster plus three buffered noise items (ids 8–10).
    fn stream_with_noise() -> StreamingAlid {
        let mut s = clustered_stream();
        s.push(&[700.0]);
        s.push(&[900.0]);
        assert_eq!(s.pending(), &[8, 9, 10]);
        s
    }

    #[test]
    fn from_state_rejects_a_repeated_pending_item() {
        let s = stream_with_noise();
        let res = from_parts(&s, s.clusters().to_vec(), s.pair_sums().to_vec(), vec![8, 9, 9, 10]);
        assert!(res.err().expect("refused").contains("pending item 9 is listed twice"));
    }

    #[test]
    fn from_state_rejects_an_unordered_pending_list() {
        let s = stream_with_noise();
        let res = from_parts(&s, s.clusters().to_vec(), s.pair_sums().to_vec(), vec![8, 10, 9]);
        assert!(res.err().expect("refused").contains("pending items 10 and 9 are out of order"));
    }

    #[test]
    fn from_state_rejects_an_item_neither_clustered_nor_pending() {
        let s = stream_with_noise();
        let res = from_parts(&s, s.clusters().to_vec(), s.pair_sums().to_vec(), vec![8, 10]);
        assert!(res.err().expect("refused").contains("item 9 is neither in a cluster nor pending"));
    }

    /// A seed whose first ball is empty when the sweep starts may still
    /// be absorbed by an earlier seed's detection, whose ROI outgrows
    /// `first_roi_radius`. The list is consulted at the seed's turn, so
    /// the item joins that cluster and is never recorded as a singleton
    /// as well.
    #[test]
    fn a_seed_lone_at_sweep_start_can_still_be_absorbed() {
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = AlidParams::new(kernel);
        p.first_roi_radius = kernel.distance_at(0.9);
        p.density_threshold = 0.3;
        p.min_cluster_size = 3;
        p.lsh = alid_lsh::LshParams::new(4, 1, 50.0, 7);
        // Items 0 and 1 lie 0.05 apart; the rest form a loose cluster
        // around them, each at least 0.25 from every other item.
        let xs = [0.0, 0.05, 0.3, -0.25, 0.55, -0.5];
        let run = |exhaustive: bool| {
            let mut s = StreamingAlid::new(1, p, xs.len(), CostModel::shared());
            s.exhaustive = exhaustive;
            for (i, &x) in xs.iter().enumerate() {
                if i + 1 == xs.len() {
                    assert_eq!(s.first_balls[0], vec![1], "item 0's first ball holds item 1");
                    assert!(s.first_balls[2].is_empty(), "item 2 is lone before the sweep");
                }
                s.push(&[x]);
            }
            s
        };
        let s = run(false);
        assert_eq!(s.clusters().len(), 1, "seed 0's detection is promoted");
        assert!(s.clusters()[0].members.contains(&2), "and it absorbs item 2");
        assert!(s.pending().iter().all(|&i| s.assignments()[i as usize].is_none()));
        assert_same_state(&s, &run(true), "lone seed absorbed");
    }

    /// Bursts of 60 arrivals: every other arrival is drawn around the
    /// burst's centre (jitter 0.05 per coordinate) and the rest is
    /// noise, half of it uniform in a box of half-width 25 and half
    /// within 0.05, 0.15 or 0.4 per coordinate of an earlier burst's
    /// centre — late members and near misses that the immunity balls
    /// must not misjudge. Returns `n` items of dimension 4.
    fn burst_stream(seed: u64, n: usize) -> Vec<Vec<f64>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centres: Vec<Vec<f64>> = Vec::new();
        (0..n)
            .map(|i| {
                if i % 60 == 0 {
                    centres.push((0..4).map(|_| rng.gen_range(-25.0..25.0)).collect());
                }
                let (centre, spread) = match i % 4 {
                    0 | 2 => (centres.last().expect("a burst is open").clone(), 0.05),
                    1 => (vec![0.0; 4], 25.0),
                    _ => (
                        centres[rng.gen_range(0..centres.len())].clone(),
                        [0.05, 0.15, 0.4][rng.gen_range(0..3usize)],
                    ),
                };
                centre.iter().map(|c| c + rng.gen_range(-spread..spread)).collect()
            })
            .collect()
    }

    fn assert_same_state(a: &StreamingAlid, b: &StreamingAlid, at: &str) {
        assert_eq!(a.assignments(), b.assignments(), "{at}: assignments");
        assert_eq!(a.pending(), b.pending(), "{at}: pending");
        assert_eq!(a.clusters().len(), b.clusters().len(), "{at}: cluster count");
        for (x, y) in a.clusters().iter().zip(b.clusters()) {
            assert_eq!(x.members, y.members, "{at}: members");
            let xw: Vec<u64> = x.weights.iter().map(|w| w.to_bits()).collect();
            let yw: Vec<u64> = y.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(xw, yw, "{at}: weights");
            assert_eq!(x.density.to_bits(), y.density.to_bits(), "{at}: density");
        }
        let xp: Vec<u64> = a.pair_sums().iter().map(|x| x.to_bits()).collect();
        let yp: Vec<u64> = b.pair_sums().iter().map(|x| x.to_bits()).collect();
        assert_eq!(xp, yp, "{at}: pair sums");
        assert_eq!(a.balls, b.balls, "{at}: immunity balls");
        for (ball, c) in a.balls.iter().zip(a.clusters()) {
            let fresh = ImmunityBall::of(&a.params.kernel, &a.data, &c.members);
            assert_eq!(ball, &fresh, "{at}: a ball is stale");
        }
        assert_eq!(a.first_balls, b.first_balls, "{at}: first-ball lists");
        for (i, list) in a.first_balls.iter().enumerate() {
            assert!(a.assigned[i].is_none() || list.is_empty(), "{at}: item {i} kept its list");
        }
    }

    /// `s`'s first-ball lists without the items assigned since they
    /// were recorded: what `from_state` rebuilds.
    fn pending_first_balls(s: &StreamingAlid) -> Vec<Vec<u32>> {
        let pending = |j: &&u32| s.assigned[**j as usize].is_none();
        s.first_balls.iter().map(|l| l.iter().filter(pending).copied().collect()).collect()
    }

    /// Both sweep skips are exact. An instance that skips immune
    /// candidates and resolves lone seeds from their first-ball lists,
    /// and an exhaustive one that evaluates every candidate with the
    /// kernel and runs `detect_one` on every seed, agree after every
    /// push, across seeds, worker counts and a `from_state` round trip.
    /// Meanwhile the balls spare at least 90% of the second chance's
    /// kernel passes, and the lists resolve most seeds.
    #[test]
    fn immunity_balls_change_no_output_of_the_exhaustive_test() {
        let mut worker_counts = vec![1usize, 4, 8];
        if let Ok(v) = std::env::var("ALID_TEST_WORKERS") {
            let extra: usize = v.parse().expect("ALID_TEST_WORKERS must be a positive integer");
            if !worker_counts.contains(&extra) {
                worker_counts.push(extra);
            }
        }
        const N: usize = 1_560;
        for seed in [1u64, 2] {
            let items = burst_stream(seed, N);
            for &workers in &worker_counts {
                let kernel = LaplacianKernel::calibrate(0.2, 0.9, LpNorm::L2);
                let mut p =
                    AlidParams::new(kernel).with_exec(alid_exec::ExecPolicy::workers(workers));
                p.first_roi_radius = kernel.distance_at(0.5);
                p.min_cluster_size = 4;
                p.lsh = alid_lsh::LshParams::new(2, 8, p.lsh.r, 11);
                let mut pruned = StreamingAlid::new(4, p, 32, CostModel::shared());
                let mut exhaustive = StreamingAlid::new(4, p, 32, CostModel::shared());
                exhaustive.exhaustive = true;
                for (i, v) in items.iter().enumerate() {
                    if i == N / 2 {
                        let live = pending_first_balls(&pruned);
                        let carried = (
                            pruned.second_chance,
                            exhaustive.second_chance,
                            pruned.lone_seeds,
                            std::mem::take(&mut pruned.stats),
                            std::mem::take(&mut exhaustive.stats),
                        );
                        pruned = restore(&pruned).expect("restore");
                        exhaustive = restore(&exhaustive).expect("restore");
                        exhaustive.exhaustive = true;
                        assert_eq!(pruned.first_balls, live, "rebuilt first-ball lists");
                        (
                            pruned.second_chance,
                            exhaustive.second_chance,
                            pruned.lone_seeds,
                            pruned.stats,
                            exhaustive.stats,
                        ) = carried;
                    }
                    let at = format!("seed {seed}, {workers} workers, push {i}");
                    assert_eq!(pruned.push(v), exhaustive.push(v), "{at}: push outcome");
                    assert_same_state(&pruned, &exhaustive, &at);
                }
                let (sc, oracle) = (pruned.second_chance, exhaustive.second_chance);
                assert_eq!(oracle.prunes, 0, "the oracle skips nothing");
                assert_eq!(sc.tests + sc.prunes, oracle.tests, "both walk the same candidates");
                assert!(
                    sc.prunes * 10 >= (sc.tests + sc.prunes) * 9,
                    "seed {seed}, {workers} workers: the balls skipped only {} of {} \
                     second-chance candidates",
                    sc.prunes,
                    sc.tests + sc.prunes
                );
                assert!(sc.tests > 0, "some second-chance candidates reach the kernel");
                assert_eq!(exhaustive.lone_seeds, 0, "the oracle detects from every seed");
                let (lone, detected) = (pruned.lone_seeds, pruned.stats.speculated);
                assert_eq!(
                    lone + detected,
                    exhaustive.stats.speculated,
                    "every seed is resolved lone or detected"
                );
                assert!(detected > 0, "some seeds still reach detect_one");
                // Every seed is checked at its own turn, so the share
                // is the same at every worker count: 93% at both seeds.
                assert!(
                    lone * 10 >= (lone + detected) * 9,
                    "seed {seed}, {workers} workers: only {lone} of {} seeds resolved lone",
                    lone + detected
                );
                assert!(pruned.clusters().len() >= 10, "the stream promotes its bursts");
            }
        }
    }

    #[test]
    fn immunity_ball_of_one_member_is_that_member_and_never_below_the_kernel() {
        let kernel = LaplacianKernel::l2(3.0);
        let data = Dataset::from_flat(2, vec![1.0, -2.0, 0.5, 0.25]);
        let ball = ImmunityBall::of(&kernel, &data, &[0]);
        assert_eq!(ball.center, vec![1.0, -2.0]);
        assert_eq!(ball.ln_lambda, 0.0);
        let v = data.get(1);
        let a = kernel.eval(data.get(0), v);
        assert_eq!(ball.bound(&kernel, v).to_bits(), a.to_bits());
        assert!(!ball.excludes(&kernel, v, a), "a density the kernel meets is never skipped");
        assert!(ball.excludes(&kernel, v, a * (1.0 + 2e-9)));
        let overflow = ImmunityBall { ln_lambda: f64::INFINITY, ..ball };
        assert!(!overflow.excludes(&kernel, &[1e9, 1e9], 1.0), "an infinite λ never skips");
    }

    /// Under P(100), `|x|^100` overflows past `|x| ≈ 1,209`, so the
    /// probe's distance to `D` reads `∞` while it sits 800 from a
    /// member: a finite `λ` would skip a cluster the kernel accepts.
    #[test]
    fn immunity_ball_claims_no_bound_where_the_norm_cannot_resolve_distances() {
        let kernel = LaplacianKernel::new(0.5, LpNorm::P(100.0));
        let data = Dataset::from_flat(1, vec![0.0, 1000.0]);
        let v = [1800.0];
        let payoff = (kernel.eval(data.get(0), &v) + kernel.eval(data.get(1), &v)) / 2.0;
        assert!(payoff >= f64::MIN_POSITIVE, "the kernel test sees a normal payoff");
        let ball = ImmunityBall::of(&kernel, &data, &[0, 1]);
        assert_eq!(ball.ln_lambda, f64::INFINITY);
        assert!(!ball.excludes(&kernel, &v, payoff));
        let l2 = LaplacianKernel::new(0.5, LpNorm::L2);
        assert!((ImmunityBall::of(&l2, &data, &[0, 1]).ln_lambda - 250.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let run = |workers: usize| {
            let p = params().with_exec(alid_exec::ExecPolicy::workers(workers));
            let mut s = StreamingAlid::new(1, p, 8, CostModel::shared());
            // Three interleaved clusters plus scattered noise so sweeps
            // promote, reject and re-buffer across several rounds.
            for i in 0..36 {
                s.push(&[(i % 6) as f64 * 0.05 + (i / 6 % 3) as f64 * 40.0]);
                if i % 7 == 0 {
                    s.push(&[500.0 + i as f64 * 13.0]);
                }
            }
            s.sweep();
            s
        };
        let seq = run(1);
        for workers in [2usize, 4] {
            let par = run(workers);
            assert_eq!(seq.pending(), par.pending(), "{workers} workers changed the buffer");
            assert_eq!(seq.assignments(), par.assignments(), "{workers} workers");
            assert_eq!(seq.clusters().len(), par.clusters().len(), "{workers} workers");
            for (a, b) in seq.clusters().iter().zip(par.clusters()) {
                assert_eq!(a.members, b.members, "{workers} workers changed members");
                let aw: Vec<u64> = a.weights.iter().map(|w| w.to_bits()).collect();
                let bw: Vec<u64> = b.weights.iter().map(|w| w.to_bits()).collect();
                assert_eq!(aw, bw, "{workers} workers changed weights");
                assert_eq!(a.density.to_bits(), b.density.to_bits(), "{workers} workers");
            }
        }
    }
}
