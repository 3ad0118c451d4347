//! SEA — the Shrinking and Expansion Algorithm (Liu, Latecki & Yan,
//! TPAMI 2013).
//!
//! SEA confines replicator dynamics to small evolving subgraphs: from a
//! seed it takes the seed's neighbourhood, *shrinks* it by running RD to
//! convergence (dropping zero-weight vertices), then *expands* by the
//! neighbours whose average affinity to the current subgraph exceeds its
//! density, repeating until stable. Time and space are linear in the
//! edge count, which is why the paper's Fig. 6 shows SEA's runtime
//! tracking the sparse degree of the (LSH-sparsified) affinity matrix.

use alid_affinity::clustering::{Clustering, DetectedCluster};
use alid_affinity::fx::FxHashSet;

use crate::common::{Graph, HaltPolicy};
use crate::rd::{rd_converge, RdParams};

/// SEA tunables.
#[derive(Clone, Copy, Debug)]
pub struct SeaParams {
    /// Inner RD settings (the shrink phase).
    pub rd: RdParams,
    /// Maximum shrink–expand rounds per seed.
    pub max_rounds: usize,
    /// Relative margin of the expansion test
    /// `(Ax)_j > π(x) * (1 + tol)`. A *meaningful* margin (not machine
    /// epsilon) is essential: on quasi-uniform noise every outside
    /// vertex has payoff within a hair of the density, and a zero-margin
    /// test snowballs the range across the whole graph, letting the
    /// dynamics drift away from the seed's own component.
    pub tol: f64,
    /// When the multi-seed scan may stop early (see
    /// [`crate::common::HaltPolicy`]). Seeds are visited in descending
    /// weighted-degree order, so dense regions surface first and
    /// `StopBelowDensity` cuts the noise tail.
    pub halt: HaltPolicy,
    /// Cap on the seed's initial neighbourhood: only the
    /// `max_init_neighbors` strongest stored neighbours join the first
    /// local range. Irrelevant on the sparse graphs SEA targets (their
    /// degrees are small); essential on dense ones, where an uncapped
    /// neighbourhood would make every seed converge to the one global
    /// optimum.
    pub max_init_neighbors: usize,
}

impl Default for SeaParams {
    fn default() -> Self {
        Self {
            rd: RdParams::default(),
            max_rounds: 50,
            tol: 1e-9,
            halt: HaltPolicy::PeelAll,
            max_init_neighbors: 64,
        }
    }
}

/// Grows one dense subgraph from `seed`. Returns the converged support,
/// weights and density.
pub fn sea_detect_one<G: Graph>(graph: &G, seed: usize, params: &SeaParams) -> DetectedCluster {
    let n = graph.n();
    debug_assert!(seed < n);
    // Initial local range: the seed and its strongest stored
    // neighbours (capped, see `SeaParams::max_init_neighbors`).
    let mut neighbors: Vec<(f64, usize)> = Vec::new();
    graph.for_row(seed, &mut |j, v| {
        neighbors.push((v, j));
    });
    if neighbors.len() > params.max_init_neighbors {
        neighbors.select_nth_unstable_by(params.max_init_neighbors - 1, |a, b| b.0.total_cmp(&a.0));
        neighbors.truncate(params.max_init_neighbors);
    }
    let mut range: FxHashSet<usize> = FxHashSet::default();
    range.insert(seed);
    range.extend(neighbors.into_iter().map(|(_, j)| j));
    let mut x = vec![0.0; n];
    let mut ax = vec![0.0; n];
    let mut density = 0.0;
    for _round in 0..params.max_rounds {
        // ---- Shrink: RD restricted to the range ----------------------
        let w = 1.0 / range.len() as f64;
        x.fill(0.0);
        for &i in &range {
            x[i] = w;
        }
        let (_iters, pi) = rd_converge(graph, &mut x, &params.rd);
        density = pi;
        let support: Vec<usize> = (0..n).filter(|&i| x[i] > 0.0).collect();
        // ---- Expand: neighbours beating the density ------------------
        graph.matvec_support(&x, &support, &mut ax);
        let threshold = pi * (1.0 + params.tol);
        let mut grew = false;
        let mut new_range: FxHashSet<usize> = support.iter().copied().collect();
        for j in 0..n {
            if x[j] == 0.0 && ax[j] > threshold && ax[j] > 0.0 {
                new_range.insert(j);
                grew = true;
            }
        }
        if !grew {
            break;
        }
        range = new_range;
    }
    let members: Vec<u32> = (0..n).filter(|&i| x[i] > 0.0).map(|i| i as u32).collect();
    let members = if members.is_empty() { vec![seed as u32] } else { members };
    let weights: Vec<f64> = {
        let raw: Vec<f64> = members.iter().map(|&m| x[m as usize]).collect();
        let s: f64 = raw.iter().sum();
        if s > 0.0 {
            raw.into_iter().map(|v| v / s).collect()
        } else {
            vec![1.0 / members.len() as f64; members.len()]
        }
    };
    DetectedCluster { members, weights, density }
}

/// Detects all clusters: seeds are scanned in descending stored-degree
/// order, seeds already covered by a detected cluster are skipped, and
/// duplicate supports are dropped (different seeds converging to the
/// same attractor — SEA's multi-seed scheme allows overlap, so exact
/// duplicates are the common case).
pub fn sea_detect_all<G: Graph>(graph: &G, params: &SeaParams) -> Clustering {
    let n = graph.n();
    let mut clustering = Clustering::new(n);
    let mut order: Vec<usize> = (0..n).collect();
    let wdeg: Vec<f64> = (0..n).map(|i| graph.weighted_degree(i)).collect();
    order.sort_by(|&a, &b| wdeg[b].total_cmp(&wdeg[a]));
    let mut covered = vec![false; n];
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut tracker = params.halt.tracker();
    for seed in order {
        if covered[seed] {
            continue;
        }
        let cluster = sea_detect_one(graph, seed, params);
        for &m in &cluster.members {
            covered[m as usize] = true;
        }
        covered[seed] = true;
        let density = cluster.density;
        if seen.insert(cluster.members.clone()) {
            clustering.clusters.push(cluster);
            if tracker.observe(density) {
                break;
            }
        } else {
            // A duplicate detection adds no information; on dense graphs
            // noise seeds routinely re-converge to an already-found
            // cluster, so duplicates count toward the halt streak or the
            // scan would pay one full detection per noise item (the
            // paper's MATLAB SEA does exactly that — and is measured as
            // the second-slowest method in Fig. 6 for it).
            if tracker.observe(0.0) {
                break;
            }
        }
    }
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_affinity::cost::CostModel;
    use alid_affinity::dense::DenseAffinity;
    use alid_affinity::kernel::LaplacianKernel;
    use alid_affinity::sparse::SparseBuilder;
    use alid_affinity::vector::Dataset;

    fn points() -> Dataset {
        let mut flat = Vec::new();
        for i in 0..6 {
            flat.push(i as f64 * 0.05);
        }
        for i in 0..5 {
            flat.push(9.0 + i as f64 * 0.05);
        }
        flat.extend([50.0, -40.0]);
        Dataset::from_flat(1, flat)
    }

    fn knn_sparse(ds: &Dataset, k: usize) -> alid_affinity::sparse::SparseAffinity {
        // Brute-force kNN lists (tests only).
        let n = ds.len();
        let norm = alid_affinity::kernel::LpNorm::L2;
        let mut b = SparseBuilder::new(n);
        for i in 0..n {
            let mut d: Vec<(f64, u32)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (norm.distance(ds.get(i), ds.get(j)), j as u32))
                .collect();
            d.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(_, j) in d.iter().take(k) {
                b.add_edge(i as u32, j);
            }
        }
        b.build(ds, &LaplacianKernel::l2(1.0), CostModel::shared())
    }

    #[test]
    fn grows_cluster_beyond_initial_neighbourhood() {
        let ds = points();
        // 4-NN graph: the seed's direct neighbourhood (4 items) is
        // smaller than the 6-item cluster, so expansion must do real
        // work. (A 2-NN graph would be *too* sparse: the enforced
        // sparsity genuinely breaks the cluster's cohesiveness, which is
        // the paper's Section 5.1 argument.)
        let g = knn_sparse(&ds, 4);
        let cluster = sea_detect_one(&g, 0, &SeaParams::default());
        // On the 4-NN graph the max-density subgraph may exclude one
        // endpoint of the chain (the 0-5 edge is not stored), but the
        // grown cluster must cover at least 5 of the 6 blob members and
        // nothing else.
        assert!(cluster.members.len() >= 5, "got {:?}", cluster.members);
        assert!(cluster.members.iter().all(|&m| m <= 5), "got {:?}", cluster.members);
        assert!(cluster.density > 0.5);
    }

    #[test]
    fn detect_all_covers_both_clusters() {
        let ds = points();
        let g = knn_sparse(&ds, 4);
        let clustering = sea_detect_all(&g, &SeaParams::default());
        let dominant = clustering.dominant(0.5, 4);
        // SEA's multi-seed scheme may emit overlapping variants of a
        // blob, but every dominant cluster must be blob-pure and both
        // blobs must be represented.
        assert!(!dominant.is_empty());
        let mut saw_a = false;
        let mut saw_b = false;
        for c in &dominant.clusters {
            let all_a = c.members.iter().all(|&m| m <= 5);
            let all_b = c.members.iter().all(|&m| (6..=10).contains(&m));
            assert!(all_a || all_b, "mixed cluster {:?}", c.members);
            saw_a |= all_a;
            saw_b |= all_b;
        }
        assert!(saw_a && saw_b, "both blobs must surface");
    }

    #[test]
    fn works_on_dense_graphs_too() {
        let ds = points();
        let g = DenseAffinity::build(&ds, &LaplacianKernel::l2(1.0), CostModel::shared());
        let cluster = sea_detect_one(&g, 3, &SeaParams::default());
        assert_eq!(cluster.members, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn agrees_with_full_matrix_iid_on_dominant_clusters() {
        use crate::iid::{iid_detect_all, IidParams};
        let ds = points();
        let dense = DenseAffinity::build(&ds, &LaplacianKernel::l2(1.0), CostModel::shared());
        // Cap the initial neighbourhood so SEA stays local on the dense
        // graph (see SeaParams::max_init_neighbors).
        let sea_params = SeaParams { max_init_neighbors: 4, ..Default::default() };
        let sea = sea_detect_all(&dense, &sea_params).dominant(0.5, 3);
        let iid = iid_detect_all(&dense, &IidParams::default()).dominant(0.5, 3);
        assert_eq!(sea.len(), iid.len());
        for (a, b) in sea.clusters.iter().zip(&iid.clusters) {
            assert_eq!(a.members, b.members);
        }
    }

    #[test]
    fn isolated_vertices_become_singletons() {
        let ds = points();
        let g = knn_sparse(&ds, 2);
        let clustering = sea_detect_all(&g, &SeaParams::default());
        // Noise items 11 and 12 never end up inside a dense cluster;
        // when they do surface, it is in a near-zero-density cluster.
        for noise in [11u32, 12u32] {
            for c in &clustering.clusters {
                if c.members.contains(&noise) {
                    assert!(c.density < 0.3, "noise {noise} in a dense cluster?");
                }
            }
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let ds = points();
        let g = knn_sparse(&ds, 3);
        let cluster = sea_detect_one(&g, 7, &SeaParams::default());
        let s: f64 = cluster.weights.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
