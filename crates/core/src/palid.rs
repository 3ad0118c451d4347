//! PALID — the parallel ALID of Section 4.6 (Algorithm 3, Fig. 5).
//!
//! Multiple ALID detections are independent given the (read-only) data
//! and LSH index, which makes the method MapReduce-friendly:
//!
//! * **Map**: each task runs Algorithm 2 from one seed vertex and emits
//!   `(item, [label, density])` for every member of the found cluster;
//! * **Reduce**: each item keeps the label of the densest cluster that
//!   claimed it (ties broken toward the smaller label for determinism).
//!
//! The paper deploys this on Apache Spark with MongoDB serving vectors
//! and hash tables; this reproduction substitutes the workspace's
//! shared execution layer ([`alid_exec::ExecPolicy`]) — a work-stealing
//! in-process executor pool sharing the data set and index by
//! reference. Table 2 measures the *speedup ratio versus the number of
//! executors* of an embarrassingly parallel map phase, which this
//! harness reproduces faithfully; see DESIGN.md for the substitution
//! rationale.

use std::sync::Arc;

use alid_affinity::clustering::{Clustering, DetectedCluster};
use alid_affinity::cost::CostModel;
use alid_affinity::fx::FxHashMap;
use alid_affinity::vector::Dataset;
use alid_exec::ExecPolicy;
use alid_lsh::LshIndex;
use std::collections::BTreeMap;

use crate::alid::detect_one;
use crate::config::AlidParams;
use crate::seeding::sample_seeds_paper;

/// Parallel-driver knobs. The seed rule itself is the paper's
/// (Section 4.6: buckets of more than five items, 20% sampled; see
/// [`sample_seeds_paper`]).
#[derive(Clone, Copy, Debug)]
pub struct PalidParams {
    /// Execution policy of the map phase; the worker count is the
    /// x-axis of Table 2.
    pub exec: ExecPolicy,
    /// RNG seed for the task list.
    pub seed: u64,
}

impl PalidParams {
    /// `executors` map-phase workers and the default task-list seed.
    pub fn with_executors(executors: usize) -> Self {
        assert!(executors >= 1, "need at least one executor");
        Self { exec: ExecPolicy::workers(executors), seed: 0xa11d }
    }
}

/// Runs PALID: samples seeds from large LSH buckets, maps ALID over them
/// on `pp.exec`'s workers, and reduces overlapping claims by
/// maximum density. The output contains each surviving cluster with the
/// members the reducer assigned to it; apply
/// [`Clustering::dominant`] for the final selection.
pub fn palid_detect(
    ds: &Dataset,
    params: &AlidParams,
    pp: &PalidParams,
    cost: &Arc<CostModel>,
) -> Clustering {
    let index = LshIndex::build(ds, params.lsh, cost);
    let mut seeds = sample_seeds_paper(&index, pp.seed);
    if seeds.is_empty() {
        // Degenerate/small inputs: no bucket passed the size threshold.
        // Fall back to scanning every item, which PALID's reducer still
        // collapses to one row per cluster.
        seeds = (0..ds.len() as u32).collect();
    }
    let outcomes = run_mappers(ds, params, &index, &seeds, pp.exec, cost);
    reduce(ds.len(), outcomes)
}

/// The map phase: detections fan out over the shared exec layer's
/// work-stealing pool. Each result is `(label, cluster)` with the seed
/// id as the unique cluster label (Fig. 5); the exec layer returns them
/// in task order, so one final sort by label makes the reduce input —
/// and therefore the output — executor-count-invariant even when the
/// seed list itself is unsorted.
fn run_mappers(
    ds: &Dataset,
    params: &AlidParams,
    index: &LshIndex,
    seeds: &[u32],
    exec: ExecPolicy,
    cost: &Arc<CostModel>,
) -> Vec<(u32, DetectedCluster)> {
    let mut outcomes =
        exec.map_tasks(seeds, |&seed| (seed, detect_one(ds, params, index, seed, cost).cluster));
    outcomes.sort_unstable_by_key(|&(label, _)| label);
    outcomes
}

/// The reduce phase: assign each item to the densest claiming cluster,
/// then rebuild clusters from the surviving assignments.
fn reduce(n: usize, outcomes: Vec<(u32, DetectedCluster)>) -> Clustering {
    // winner[item] = (density, label)
    let mut winner: Vec<Option<(f64, u32)>> = vec![None; n];
    let mut by_label: FxHashMap<u32, DetectedCluster> = FxHashMap::default();
    for (label, cluster) in outcomes {
        for &m in &cluster.members {
            let slot = &mut winner[m as usize];
            let better = match *slot {
                None => true,
                Some((d, l)) => cluster.density > d || (cluster.density == d && label < l),
            };
            if better {
                *slot = Some((cluster.density, label));
            }
        }
        // Mappers started from seeds of the same cluster emit identical
        // member sets; keep one cluster per label (densest wins above).
        by_label.entry(label).or_insert(cluster);
    }
    // BTreeMap so clusters come out in ascending-label order without a
    // separate sort (the output order is part of the determinism
    // contract).
    let mut members_of: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (item, slot) in winner.iter().enumerate() {
        if let Some((_, label)) = slot {
            members_of.entry(*label).or_default().push(item as u32);
        }
    }
    let mut clustering = Clustering::new(n);
    for (label, members) in members_of {
        let original = &by_label[&label];
        // Carry the converged weights for members the reducer kept.
        let mut weights = Vec::with_capacity(members.len());
        for &m in &members {
            let w = match original.members.binary_search(&m) {
                Ok(p) => original.weights[p],
                Err(_) => 0.0,
            };
            weights.push(w);
        }
        let wsum: f64 = weights.iter().sum();
        if wsum > 0.0 {
            for w in weights.iter_mut() {
                *w /= wsum;
            }
        } else {
            let u = 1.0 / members.len().max(1) as f64;
            weights.iter_mut().for_each(|w| *w = u);
        }
        clustering.clusters.push(DetectedCluster { members, weights, density: original.density });
    }
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_lsh::LshParams;

    /// Three clusters of 12 items each plus noise — big enough for the
    /// bucket-size-6 seed sampling to fire.
    fn fixture() -> Dataset {
        let mut ds = Dataset::new(1);
        for c in 0..3 {
            let base = c as f64 * 30.0;
            for i in 0..12 {
                ds.push(&[base + i as f64 * 0.04]);
            }
        }
        for i in 0..8 {
            ds.push(&[200.0 + i as f64 * 17.0]);
        }
        ds
    }

    fn params(ds: &Dataset) -> AlidParams {
        AlidParams::calibrated(ds, 0.3, 0.9).with_lsh(LshParams::new(12, 8, 1.0, 77)).with_delta(32)
    }

    #[test]
    fn finds_all_three_clusters() {
        let ds = fixture();
        let p = params(&ds);
        let pp = PalidParams::with_executors(2);
        let clustering = palid_detect(&ds, &p, &pp, &CostModel::shared());
        let dominant = clustering.dominant(0.75, 6);
        assert_eq!(dominant.len(), 3);
        for (c, cluster) in dominant.clusters.iter().enumerate() {
            let lo = (c * 12) as u32;
            let want: Vec<u32> = (lo..lo + 12).collect();
            assert_eq!(cluster.members, want);
        }
    }

    #[test]
    fn output_is_invariant_to_executor_count() {
        let ds = fixture();
        let p = params(&ds);
        let one = palid_detect(&ds, &p, &PalidParams::with_executors(1), &CostModel::shared());
        let four = palid_detect(&ds, &p, &PalidParams::with_executors(4), &CostModel::shared());
        assert_eq!(one.clusters.len(), four.clusters.len());
        for (a, b) in one.clusters.iter().zip(&four.clusters) {
            assert_eq!(a.members, b.members);
            assert!((a.density - b.density).abs() < 1e-12);
        }
    }

    #[test]
    fn no_item_is_assigned_twice() {
        let ds = fixture();
        let p = params(&ds);
        let clustering =
            palid_detect(&ds, &p, &PalidParams::with_executors(3), &CostModel::shared());
        let mut seen = vec![false; ds.len()];
        for c in &clustering.clusters {
            for &m in &c.members {
                assert!(!seen[m as usize], "item {m} assigned twice");
                seen[m as usize] = true;
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executors_rejected() {
        let _ = PalidParams::with_executors(0);
    }

    #[test]
    fn weights_renormalised_after_reduction() {
        let ds = fixture();
        let p = params(&ds);
        let clustering =
            palid_detect(&ds, &p, &PalidParams::with_executors(2), &CostModel::shared());
        for c in &clustering.clusters {
            let s: f64 = c.weights.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "weights must sum to 1, got {s}");
        }
    }
}
