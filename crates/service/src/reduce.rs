//! The cross-shard reduce pipeline — PALID's reduce phase (Fig. 5)
//! done properly on partitioned data.
//!
//! The paper's reduce does more than rank overlapping detections by
//! maximum density: on partitioned data it must *unify* a dominant
//! cluster whose members landed in different partitions. The sharded
//! service hits exactly that case when a tight cluster straddles a
//! routing hyperplane — each shard detects its fragment, and a
//! rank-only merge reports two clusters where a single-instance run
//! reports one. This module resolves it the ALID-native way, in four
//! stages:
//!
//! 1. **Cut** (`Service::reduce_cut`): under all shard locks + the
//!    placement lock — the snapshot codec's consistent-cut discipline
//!    — every shard-local cluster becomes a `FragmentCut`: global
//!    member ids, density, its [`MergeEvidence`] (centroid + support
//!    sample of at most [`MERGE_SAMPLE`]) and the router signature of
//!    its centroid.
//! 2. **Candidate generation** (`candidate_groups`): fragments of a
//!    straddling cluster have near-identical centroid signatures *by
//!    construction* (their centroids nearly coincide, so at most the
//!    straddled planes separate them), so candidate pairs come from
//!    signature buckets probed within Hamming radius [`MERGE_RADIUS`] —
//!    `O(fragments · probes)`, never an all-pairs scan. Only
//!    cross-shard pairs qualify: two clusters on one shard were
//!    separated by the dynamics *with both visible*, and re-merging
//!    them would second-guess the core algorithm.
//! 3. **Affinity test + union re-detection** (`merge`): a pair
//!    links when the kernel affinity between the fragments' centroids
//!    and between their support samples clears the detection
//!    threshold; linked fragments are grouped (union-find) and each
//!    group's member union is re-detected with
//!    [`alid_core::detect_on_subset`] — the full LID/ROI/CIVS
//!    dynamics on the union, honouring `ExecPolicy`, byte-identical
//!    for any worker count.
//! 4. **Max-density resolution**: the original fragments and the
//!    dominant union re-detections all stand as *claims* on their
//!    member ids, resolved exactly like the paper's reducer — highest
//!    density wins, ties broken by the smallest `(shard, cluster)`
//!    representative — so a union cluster only displaces its
//!    fragments by actually out-densifying them (an m-clique's
//!    density grows with m as `(m-1)/m`, so a genuine join always
//!    does), while a failed re-detection leaves the raw fragments
//!    standing.
//!
//! The whole view is a pure function of the cut shard states: reruns,
//! worker counts and snapshot/restore boundaries all produce
//! bit-identical merged clusters, and the re-detected clusters are a
//! pure function of the member *union* — the shard-count invariance
//! the straddling-fixture tests assert.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use alid_affinity::block::BlockEval;
use alid_affinity::cost::CostModel;
use alid_affinity::kernel::LaplacianKernel;
use alid_affinity::vector::Dataset;
use alid_core::streaming::MergeEvidence;
use alid_core::{detect_on_subset, AlidParams};
use alid_lsh::ShardRouter;
use serde::{Json, Serialize};

use crate::service::ClusterRef;

/// Per-fragment support-sample bound of the merged view's affinity
/// test: testing one candidate pair costs `O(MERGE_SAMPLE² · dim)`.
pub const MERGE_SAMPLE: usize = 8;

/// Signature Hamming radius of candidate-pair generation: fragments
/// whose centroid signatures differ in more than this many routing
/// hyperplanes are never considered for joining. Radius 2 covers
/// clusters straddling up to two hyperplanes at
/// `Σ_{r<=2} C(router_bits, r)` probes per fragment; the cut clamps it
/// to the router's width.
pub const MERGE_RADIUS: u32 = 2;

/// One cluster of the merged view: either a raw shard-local cluster
/// that survived the reduction untouched, or the union re-detection
/// of several cross-shard fragments.
#[derive(Clone, Debug, PartialEq)]
pub struct MergedCluster {
    /// The representative address — the smallest `(shard, cluster)`
    /// among [`Self::fragments`] — used as the deterministic
    /// tie-break identity of the claim.
    pub rep: ClusterRef,
    /// The shard-local clusters this claim covers (one entry for an
    /// unmerged cluster; two or more for a joined straddler).
    pub fragments: Vec<ClusterRef>,
    /// Global item ids, ascending.
    pub members: Vec<u64>,
    /// Graph density `π(x)`: the shard's incremental density for an
    /// unmerged cluster, the re-detected union density for a join.
    pub density: f64,
}

impl MergedCluster {
    /// Member count.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether this cluster joined two or more shard-local fragments.
    pub fn is_merged(&self) -> bool {
        self.fragments.len() >= 2
    }
}

impl Serialize for MergedCluster {
    fn to_json(&self) -> Json {
        let fragments = Json::Arr(
            self.fragments
                .iter()
                .map(|f| {
                    Json::object([("shard", f.shard.to_json()), ("cluster", f.cluster.to_json())])
                })
                .collect(),
        );
        Json::object([
            ("shard", self.rep.shard.to_json()),
            ("cluster", self.rep.cluster.to_json()),
            ("size", self.size().to_json()),
            ("density", self.density.to_json()),
            ("fragments", fragments),
        ])
    }
}

/// What one reduction did — the merge-cost telemetry `bench_service`
/// reports (pairs tested, unions re-run) and `/clusters?view=merged`
/// returns alongside the clusters. Deterministic: a pure function of
/// the cut, like the view itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Shard-local clusters entering the reduction.
    pub fragments: usize,
    /// Candidate pairs the signature probes surfaced (all of which
    /// paid an affinity test).
    pub pairs_tested: usize,
    /// Candidate pairs whose affinity cleared the threshold.
    pub pairs_linked: usize,
    /// Multi-fragment groups whose member union was re-detected.
    pub groups_rerun: usize,
    /// Total items across all re-detected unions.
    pub union_items: usize,
    /// Merged-view clusters that joined two or more fragments.
    pub clusters_merged: usize,
}

impl Serialize for ReduceStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("fragments", self.fragments.to_json()),
            ("pairs_tested", self.pairs_tested.to_json()),
            ("pairs_linked", self.pairs_linked.to_json()),
            ("groups_rerun", self.groups_rerun.to_json()),
            ("union_items", self.union_items.to_json()),
            ("clusters_merged", self.clusters_merged.to_json()),
        ])
    }
}

/// The reduced cross-shard view: claims resolved by maximum density,
/// ranked exactly like `Service::top_k` (density descending, ties by
/// the smallest representative).
#[derive(Clone, Debug, PartialEq)]
pub struct MergedView {
    /// The epoch of the consistent cut this view reduces (the cache
    /// tag `Service::merged_view` keys on).
    pub(crate) epoch: u64,
    /// Surviving clusters, rank order.
    pub clusters: Vec<MergedCluster>,
    /// Merge-cost telemetry of this reduction.
    pub stats: ReduceStats,
}

/// One shard-local cluster as captured under the consistent cut.
pub(crate) struct FragmentCut {
    pub(crate) r: ClusterRef,
    /// Global member ids, ascending.
    pub(crate) members: Vec<u64>,
    pub(crate) density: f64,
    /// Router signature of the evidence centroid.
    pub(crate) signature: u64,
    pub(crate) evidence: MergeEvidence,
}

/// One accepted multi-fragment group, addressed into the cut's union
/// data set.
pub(crate) struct UnionCut {
    /// Indices into the cut's fragment list.
    pub(crate) fragment_ids: Vec<usize>,
    /// Row ids of the group's members within the union data set,
    /// ascending.
    pub(crate) rows: Vec<u32>,
}

/// Everything the reducer needs, extracted under the consistent cut
/// so the expensive re-detection runs with no locks held.
pub(crate) struct ReduceCut {
    pub(crate) epoch: u64,
    pub(crate) fragments: Vec<FragmentCut>,
    /// Global ids of the union data set's rows, ascending.
    pub(crate) union_gids: Vec<u64>,
    /// The vectors of every grouped fragment's members, in
    /// `union_gids` order.
    pub(crate) union_data: Dataset,
    pub(crate) groups: Vec<UnionCut>,
    pub(crate) pairs_tested: usize,
    pub(crate) pairs_linked: usize,
}

/// Stage 2: signature-bucketed candidate pairs, affinity-tested and
/// grouped by union-find. Returns the multi-fragment groups (each
/// ascending, ordered by their smallest fragment), the number of
/// pairs tested and the number linked.
pub(crate) fn candidate_groups(
    fragments: &[FragmentCut],
    router: &ShardRouter,
    radius: u32,
    kernel: &LaplacianKernel,
    threshold: f64,
    cost: &Arc<CostModel>,
) -> (Vec<Vec<usize>>, usize, usize) {
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, f) in fragments.iter().enumerate() {
        // Typed so the call graph resolves `push` to `Vec`, not to
        // every same-name workspace method.
        let bucket: &mut Vec<usize> = buckets.entry(f.signature).or_default();
        bucket.push(i);
    }
    // Each unordered pair is generated exactly once (from its smaller
    // index); sorting makes the union-find link order canonical.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (i, f) in fragments.iter().enumerate() {
        for probe in router.probe_signatures(f.signature, radius) {
            if let Some(mates) = buckets.get(&probe) {
                for &j in mates {
                    if j > i && fragments[j].r.shard != f.r.shard {
                        pairs.push((i, j));
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    let mut parent: Vec<usize> = (0..fragments.len()).collect();
    let mut linked = 0usize;
    for &(i, j) in &pairs {
        if affinity_clears(&fragments[i].evidence, &fragments[j].evidence, kernel, threshold, cost)
        {
            linked += 1;
            link(&mut parent, i, j);
        }
    }
    // BTreeMap: group order must not depend on hash order (the sort
    // below keys on g[0], so ties between roots never reach the hash).
    let mut grouped: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..fragments.len() {
        let root = find(&mut parent, i);
        let group: &mut Vec<usize> = grouped.entry(root).or_default();
        group.push(i); // ascending: i ascends
    }
    let mut groups: Vec<Vec<usize>> =
        grouped.into_values().filter(|g: &Vec<usize>| g.len() >= 2).collect();
    groups.sort_by_key(|g| g[0]);
    (groups, pairs.len(), linked)
}

/// The affinity test of stage 3: centroid-to-centroid kernel affinity
/// gates cheaply, then the mean cross-affinity of the two bounded
/// support samples must clear the same detection threshold — the
/// criterion a genuine straddler's fragments satisfy (their cross
/// affinities *are* within-cluster affinities) and two distinct
/// clusters at kernel range do not.
fn affinity_clears(
    a: &MergeEvidence,
    b: &MergeEvidence,
    kernel: &LaplacianKernel,
    threshold: f64,
    cost: &Arc<CostModel>,
) -> bool {
    cost.record_kernel_evals(1);
    if kernel.eval(&a.centroid, &b.centroid) < threshold {
        return false;
    }
    let pairs = a.sample.len() * b.sample.len();
    cost.record_kernel_evals(pairs as u64);
    // Flatten b's sample once, then evaluate each of a's vectors
    // against the whole block; accumulating the batch in q-order keeps
    // the sum bit-identical to the scalar nested loop.
    let dim = b.sample.first().map_or(0, Vec::len);
    let mut flat_b = Vec::with_capacity(b.sample.len() * dim);
    for q in &b.sample {
        flat_b.extend_from_slice(q);
    }
    let mut scratch = BlockEval::new();
    let mut vals = vec![0.0; b.sample.len()];
    let mut acc = 0.0;
    for p in &a.sample {
        scratch.eval_rows(kernel, dim, &flat_b, p, &mut vals);
        for &v in &vals {
            acc += v;
        }
    }
    pairs > 0 && acc / pairs as f64 >= threshold
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Union with the *smaller* index as root, so every group's
/// representative is its smallest fragment regardless of link order.
fn link(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi] = lo;
    }
}

/// One claim on a set of global item ids, competing under the
/// max-density rule.
struct Claim {
    members: Vec<u64>,
    density: f64,
    fragments: Vec<ClusterRef>,
    rep: ClusterRef,
}

/// Stages 3 + 4 on an extracted cut: re-detect each group's member
/// union, then resolve all claims — the raw fragments *and* the
/// dominant union re-detections — by maximum density with the
/// deterministic tie-break. Runs lock-free; `params.exec` parallelism
/// inside the re-detections never changes a byte of the output.
pub(crate) fn merge(cut: ReduceCut, params: &AlidParams, cost: &Arc<CostModel>) -> MergedView {
    let mut claims: Vec<Claim> = cut
        .fragments
        .iter()
        .map(|f| Claim {
            members: f.members.clone(),
            density: f.density,
            fragments: vec![f.r],
            rep: f.r,
        })
        .collect();
    for group in &cut.groups {
        for cluster in detect_on_subset(&cut.union_data, &group.rows, params, cost) {
            // The same dominance filter the shards' sweeps apply: a
            // union whose re-detection fails it leaves the raw
            // fragments standing.
            if cluster.density < params.density_threshold
                || cluster.members.len() < params.min_cluster_size
            {
                continue;
            }
            let members: Vec<u64> =
                cluster.members.iter().map(|&row| cut.union_gids[row as usize]).collect();
            let fragments: Vec<ClusterRef> = group
                .fragment_ids
                .iter()
                .map(|&f| &cut.fragments[f])
                .filter(|frag| frag.members.iter().any(|gid| members.binary_search(gid).is_ok()))
                .map(|frag| frag.r)
                .collect();
            let rep = fragments.iter().copied().min().expect("a union claim covers a fragment");
            claims.push(Claim { members, density: cluster.density, fragments, rep });
        }
    }
    // The paper's reduce: maximum density wins, the existing
    // deterministic tie-break (smallest representative) next; the
    // further keys only matter for pathological exact ties between
    // claims sharing a representative.
    claims.sort_by(|a, b| {
        b.density
            .total_cmp(&a.density)
            .then_with(|| a.rep.cmp(&b.rep))
            .then_with(|| b.members.len().cmp(&a.members.len()))
            .then_with(|| a.members.cmp(&b.members))
    });
    let mut taken: HashSet<u64> = HashSet::new();
    let mut clusters: Vec<MergedCluster> = Vec::new();
    let mut clusters_merged = 0usize;
    for claim in claims {
        if claim.members.iter().any(|gid| taken.contains(gid)) {
            continue; // a denser claim already owns part of it
        }
        taken.extend(claim.members.iter().copied());
        if claim.fragments.len() >= 2 {
            clusters_merged += 1;
        }
        clusters.push(MergedCluster {
            rep: claim.rep,
            fragments: claim.fragments,
            members: claim.members,
            density: claim.density,
        });
    }
    let stats = ReduceStats {
        fragments: cut.fragments.len(),
        pairs_tested: cut.pairs_tested,
        pairs_linked: cut.pairs_linked,
        groups_rerun: cut.groups.len(),
        union_items: cut.union_gids.len(),
        clusters_merged,
    };
    MergedView { epoch: cut.epoch, clusters, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_affinity::kernel::LaplacianKernel;

    fn frag(shard: u32, cluster: u32, members: Vec<u64>, density: f64, at: f64) -> FragmentCut {
        FragmentCut {
            r: ClusterRef { shard, cluster },
            members,
            density,
            signature: 0,
            evidence: MergeEvidence { centroid: vec![at], sample: vec![vec![at]] },
        }
    }

    fn cut(
        fragments: Vec<FragmentCut>,
        groups: Vec<UnionCut>,
        union: Vec<(u64, f64)>,
    ) -> ReduceCut {
        let union_gids: Vec<u64> = union.iter().map(|&(g, _)| g).collect();
        let union_data = Dataset::from_flat(1, union.iter().map(|&(_, x)| x).collect());
        ReduceCut {
            epoch: 0,
            fragments,
            union_gids,
            union_data,
            groups,
            pairs_tested: 0,
            pairs_linked: 0,
        }
    }

    fn params() -> AlidParams {
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = AlidParams::new(kernel);
        p.first_roi_radius = kernel.distance_at(0.5);
        p.density_threshold = 0.7;
        p.min_cluster_size = 3;
        p.lsh.seed = 5;
        p
    }

    #[test]
    fn candidate_groups_pair_within_the_radius_and_across_shards_only() {
        let router = ShardRouter::new(1, 8, 3);
        let kernel = LaplacianKernel::l2(1.0);
        let cost = CostModel::shared();
        let sig = |bits: u64| bits & 0xff;
        let mut a = frag(0, 0, vec![0], 0.9, 0.0);
        a.signature = sig(0b0000_0001);
        let mut b = frag(1, 0, vec![1], 0.9, 0.0);
        b.signature = sig(0b0000_0011); // hamming 1 from a
        let mut c = frag(1, 1, vec![2], 0.9, 0.0);
        c.signature = sig(0b1111_0000); // far from both
        let mut d = frag(0, 1, vec![3], 0.9, 0.0);
        d.signature = sig(0b0000_0001); // identical to a, but same shard
        let (groups, tested, linked) =
            candidate_groups(&[a, b, c, d], &router, 2, &kernel, 0.7, &cost);
        // Pairs: (a,b) and (b,d) qualify (cross-shard, within radius
        // 2); (a,d) is same-shard, c pairs with nothing.
        assert_eq!(tested, 2);
        assert_eq!(linked, 2, "coincident evidence clears any threshold < 1");
        assert_eq!(groups, vec![vec![0, 1, 3]], "links chain into one group");
    }

    #[test]
    fn affinity_gate_rejects_distant_fragments() {
        let router = ShardRouter::new(1, 8, 3);
        let kernel = LaplacianKernel::l2(1.0);
        let cost = CostModel::shared();
        let a = frag(0, 0, vec![0], 0.9, 0.0);
        let b = frag(1, 0, vec![1], 0.9, 50.0); // same (zeroed) signature, far away
        let (groups, tested, linked) = candidate_groups(&[a, b], &router, 0, &kernel, 0.7, &cost);
        assert_eq!(tested, 1);
        assert_eq!(linked, 0, "kernel affinity at distance 50 is ~0");
        assert!(groups.is_empty());
    }

    #[test]
    fn merge_resolves_claims_by_max_density_with_rep_tie_break() {
        // Two fragments of one tight 1-d cluster; the union re-detects
        // denser (an m-clique's density grows with m) and must
        // displace both.
        let a = frag(0, 0, vec![0, 2, 4], 0.75, 0.02);
        let b = frag(1, 0, vec![1, 3, 5], 0.75, 0.03);
        let rows: Vec<u32> = (0..6).collect();
        let union: Vec<(u64, f64)> = (0..6).map(|i| (i as u64, i as f64 * 0.01)).collect();
        let groups = vec![UnionCut { fragment_ids: vec![0, 1], rows }];
        let view = merge(cut(vec![a, b], groups, union), &params(), &CostModel::shared());
        assert_eq!(view.clusters.len(), 1, "{:?}", view.clusters);
        let joined = &view.clusters[0];
        assert!(joined.is_merged());
        assert_eq!(joined.members, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(joined.rep, ClusterRef { shard: 0, cluster: 0 });
        assert_eq!(
            joined.fragments,
            vec![ClusterRef { shard: 0, cluster: 0 }, ClusterRef { shard: 1, cluster: 0 }]
        );
        assert!(joined.density > 0.75, "the union out-densifies the fragments");
        assert_eq!(view.stats.clusters_merged, 1);
        assert_eq!(view.stats.groups_rerun, 1);
        assert_eq!(view.stats.union_items, 6);
    }

    #[test]
    fn failed_union_redetection_leaves_fragments_standing() {
        // A false-positive group: the union is two distant triples, so
        // re-detection reproduces the fragments (no denser union
        // exists) and the raw claims win on the tie-break.
        let a = frag(0, 0, vec![0, 1, 2], 0.85, 0.05);
        let b = frag(1, 0, vec![3, 4, 5], 0.84, 50.05);
        let rows: Vec<u32> = (0..6).collect();
        let union: Vec<(u64, f64)> =
            vec![(0, 0.0), (1, 0.05), (2, 0.1), (3, 50.0), (4, 50.05), (5, 50.1)];
        let groups = vec![UnionCut { fragment_ids: vec![0, 1], rows }];
        let view = merge(cut(vec![a, b], groups, union), &params(), &CostModel::shared());
        // Either the re-detected triples (same member sets) or the raw
        // fragments win — but never a 6-member join.
        assert_eq!(view.clusters.len(), 2, "{:?}", view.clusters);
        assert!(view.clusters.iter().all(|c| !c.is_merged()));
        let mut members: Vec<Vec<u64>> = view.clusters.iter().map(|c| c.members.clone()).collect();
        members.sort();
        assert_eq!(members, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn ungrouped_fragments_pass_through_ranked() {
        let a = frag(0, 0, vec![0, 1], 0.7, 0.0);
        let b = frag(1, 0, vec![2, 3], 0.9, 40.0);
        let view = merge(cut(vec![a, b], Vec::new(), Vec::new()), &params(), &CostModel::shared());
        assert_eq!(view.clusters.len(), 2);
        assert_eq!(view.clusters[0].rep, ClusterRef { shard: 1, cluster: 0 }, "densest first");
        assert_eq!(view.stats.clusters_merged, 0);
        assert_eq!(view.stats.fragments, 2);
    }
}
