//! Candidate Infective Vertex Search — Step 3 of ALID (Section 4.3).
//!
//! Retrieving everything inside the ROI is a fixed-radius near-neighbour
//! problem. A single LSH query at the ball centre covers only one
//! locality-sensitive region and can miss much of the ROI (Fig. 4a), so
//! CIVS queries with *every supporting data item* of `x̂` and unions the
//! results (Fig. 4b) — this multi-query recall is what the convergence
//! proof (Proposition 2 in the appendix) leans on. The hits are filtered
//! to the ROI ball, the `δ` nearest to the centre are kept, and the local
//! range is rebuilt as `β ← α ∪ ψ` with the product vector carried over
//! per Eq. 17.

use alid_affinity::block::BlockEval;
use alid_affinity::fx::FxHashSet;
use alid_affinity::kernel::LaplacianKernel;
use alid_affinity::vector::Dataset;
use alid_lsh::LshIndex;

/// Retrieves at most `delta` alive data items inside the ROI ball
/// `(center, radius)` that are not already in the support `alpha`,
/// querying the index once per supporting item. Returns `ψ` (global
/// ids), ascending by distance to the ROI centre, `|ψ| <= δ`.
///
/// This is `retrieve` composed with `center_distances` and
/// `nearest_within`. `detect_one` calls the halves itself, so that one
/// retrieval serves every ball it filters with the same support.
pub fn civs(
    ds: &Dataset,
    kernel: &LaplacianKernel,
    index: &LshIndex,
    alpha: &[u32],
    center: &[f64],
    radius: f64,
    delta: usize,
) -> Vec<u32> {
    let hits = retrieve(ds, index, alpha);
    let dists = center_distances(ds, kernel, &hits, center);
    nearest_within(&hits, &dists, radius, delta)
}

/// The retrieval half of CIVS: the union of the buckets the supporting
/// items of `alpha` hash to, minus `alpha` itself, ascending. It reads
/// the index but no ball, so it depends on `alpha` and the index alone.
pub(crate) fn retrieve(ds: &Dataset, index: &LshIndex, alpha: &[u32]) -> Vec<u32> {
    let hits = index.multi_query(alpha.iter().map(|&a| ds.get(a as usize)));
    let alpha_set: FxHashSet<u32> = alpha.iter().copied().collect();
    hits.into_iter().filter(|id| !alpha_set.contains(id)).collect()
}

/// Distances from `center` to every item of `hits`, in one blocked
/// batch (gather the candidate rows, distances to the centre SoA-style)
/// — bit-identical to the per-hit scalar distance, so the ball filter
/// and its sort keys do not depend on the batch.
pub(crate) fn center_distances(
    ds: &Dataset,
    kernel: &LaplacianKernel,
    hits: &[u32],
    center: &[f64],
) -> Vec<f64> {
    let mut dists = vec![0.0; hits.len()];
    BlockEval::new().distances_indexed(kernel.norm, ds, hits, center, &mut dists);
    dists
}

/// The ball-filter half of CIVS: the items of `hits` (at distances
/// `dists` from the centre) inside the ball of `radius`, ascending by
/// (distance, id) and cut at the `delta` nearest.
pub(crate) fn nearest_within(hits: &[u32], dists: &[f64], radius: f64, delta: usize) -> Vec<u32> {
    let mut in_roi: Vec<(f64, u32)> =
        hits.iter().zip(dists).filter_map(|(&id, &d)| (d <= radius).then_some((d, id))).collect();
    in_roi.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    in_roi.truncate(delta);
    in_roi.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_affinity::cost::CostModel;
    use alid_lsh::LshParams;

    /// A line of points 0.0, 0.1, ..., 4.9 in 1-d.
    fn line() -> Dataset {
        Dataset::from_flat(1, (0..50).map(|i| i as f64 * 0.1).collect())
    }

    fn index(ds: &Dataset) -> LshIndex {
        LshIndex::build(ds, LshParams::new(16, 3, 2.0, 99), &CostModel::shared())
    }

    #[test]
    fn retrieves_only_within_radius() {
        let ds = line();
        let idx = index(&ds);
        let kernel = LaplacianKernel::l2(1.0);
        let alpha = [0u32];
        let center = vec![0.0];
        let res = civs(&ds, &kernel, &idx, &alpha, &center, 0.45, 100);
        for &id in &res {
            assert!(ds.get(id as usize)[0] <= 0.45 + 1e-12);
        }
        assert!(!res.contains(&0), "support members are excluded");
        assert!(!res.is_empty(), "near neighbours must be found");
    }

    #[test]
    fn respects_delta_cap_and_keeps_nearest() {
        let ds = line();
        let idx = index(&ds);
        let kernel = LaplacianKernel::l2(1.0);
        let res = civs(&ds, &kernel, &idx, &[0], &[0.0], 3.0, 5);
        assert_eq!(res.len(), 5);
        // The five nearest non-support items are 1..=5.
        let mut got = res;
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn results_ordered_by_distance_to_center() {
        let ds = line();
        let idx = index(&ds);
        let kernel = LaplacianKernel::l2(1.0);
        let res = civs(&ds, &kernel, &idx, &[10], &[1.0], 1.0, 50);
        let mut last = -1.0;
        for &id in &res {
            let d = (ds.get(id as usize)[0] - 1.0).abs();
            assert!(d >= last - 1e-12, "ψ must be ascending by distance");
            last = d;
        }
    }

    #[test]
    fn multi_query_beats_single_query_coverage() {
        // A crescent of support items: querying from every support item
        // covers parts of the ROI a single centre query can miss. With a
        // generous radius the multi-query result must be a superset.
        let ds = line();
        let idx = index(&ds);
        let kernel = LaplacianKernel::l2(1.0);
        let alpha_many = [0u32, 10, 20, 30];
        let center = vec![1.5];
        let wide = civs(&ds, &kernel, &idx, &alpha_many, &center, 2.0, 500);
        let narrow = civs(&ds, &kernel, &idx, &[15], &center, 2.0, 500);
        let wide_set: FxHashSet<u32> = wide.iter().copied().collect();
        // Every hit of the single query that is not itself in alpha_many
        // must also be found by the multi query.
        for id in narrow {
            if !alpha_many.contains(&id) {
                assert!(wide_set.contains(&id), "multi-query lost item {id}");
            }
        }
    }

    #[test]
    fn tombstoned_items_never_returned() {
        let ds = line();
        let mut idx = index(&ds);
        idx.remove(1);
        idx.remove(2);
        let kernel = LaplacianKernel::l2(1.0);
        let res = civs(&ds, &kernel, &idx, &[0], &[0.0], 1.0, 100);
        assert!(!res.contains(&1));
        assert!(!res.contains(&2));
    }

    #[test]
    fn one_retrieval_filtered_twice_equals_two_civs_calls() {
        let ds = line();
        let idx = index(&ds);
        let kernel = LaplacianKernel::l2(1.0);
        let (alpha, center) = ([3u32, 4, 5], [0.4]);
        let hits = retrieve(&ds, &idx, &alpha);
        let dists = center_distances(&ds, &kernel, &hits, &center);
        for (radius, delta) in [(0.25, 100), (1.5, 100), (1.5, 4), (10.0, 500)] {
            assert_eq!(
                nearest_within(&hits, &dists, radius, delta),
                civs(&ds, &kernel, &idx, &alpha, &center, radius, delta),
                "radius {radius}, delta {delta}"
            );
        }
    }

    #[test]
    fn empty_when_radius_is_tiny() {
        let ds = line();
        let idx = index(&ds);
        let kernel = LaplacianKernel::l2(1.0);
        let res = civs(&ds, &kernel, &idx, &[0], &[0.0], 1e-6, 100);
        assert!(res.is_empty());
    }
}
