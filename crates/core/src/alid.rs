//! The ALID detection loop — Algorithm 2.
//!
//! One call to [`detect_one`] grows a single dominant cluster from a
//! seed vertex: LID finds the dense subgraph of the current local range,
//! the ROI bounds where infective vertices can still hide, CIVS pulls at
//! most `δ` of them in, and the loop repeats until no candidate remains
//! (a *global* dense subgraph by Theorem 1) or the iteration cap `C`
//! hits. Only the column group `A_{βα}` is ever computed, giving the
//! `O(C(a*+δ)n)` / `O(a*(a*+δ))` bounds of Section 4.5.

use std::sync::{Arc, OnceLock};

use alid_affinity::clustering::DetectedCluster;
use alid_affinity::cost::CostModel;
use alid_affinity::local::LocalAffinity;
use alid_affinity::vector::Dataset;
use alid_lsh::LshIndex;

use crate::civs::{center_distances, nearest_within, retrieve};
use crate::config::AlidParams;
use crate::lid::{lid_converge, LidState};
use crate::roi::Roi;

/// The result of growing one cluster from a seed.
#[derive(Clone, Debug)]
pub struct AlidOutcome {
    /// The converged dense subgraph: support, weights and density.
    pub cluster: DetectedCluster,
    /// ALID iterations executed (`c` at exit, at most `C`).
    pub iterations: usize,
    /// Total LID iterations across all steps.
    pub lid_iterations: usize,
    /// `true` when the subgraph was certified global: the ROI reached
    /// the outer ball and CIVS produced no (infective) candidate.
    pub converged_globally: bool,
}

/// Runs Algorithm 2 from `seed`. The LSH `index` provides candidate
/// retrieval; tombstoned items are invisible, which is how the peeling
/// driver restricts detection to the remaining data.
pub fn detect_one(
    ds: &Dataset,
    params: &AlidParams,
    index: &LshIndex,
    seed: u32,
    cost: &Arc<CostModel>,
) -> AlidOutcome {
    assert!((seed as usize) < ds.len(), "seed {seed} out of range");
    let uncertified = uncertified_counter();
    let kernel = params.kernel;
    // Algorithm 2, line 1: α = β = {i}, x = s_i, A_{βα}x_α = a_ii = 0.
    let mut beta: Vec<u32> = vec![seed];
    let mut state = LidState::seed(1);
    let mut lid_iterations = 0;
    let mut converged_globally = false;

    let mut alpha: Vec<u32> = vec![seed];
    let mut weights: Vec<f64> = vec![1.0];
    let mut density = 0.0;
    // The index is read-only for the whole call, so CIVS's raw hits
    // depend on α alone: keep the last support's hits and re-fetch them
    // only when α changes. The empty start is exact too, since an empty
    // support retrieves nothing.
    let mut hits_of: Vec<u32> = Vec::new();
    let mut hits: Vec<u32> = Vec::new();

    let mut c = 1;
    while c <= params.max_alid_iters {
        // ---- Step 1: LID on the current local range -----------------
        let mut aff = LocalAffinity::new(ds, kernel, Arc::clone(cost), std::mem::take(&mut beta));
        let out = lid_converge(&mut aff, &mut state, params.max_lid_iters, params.tol);
        lid_iterations += out.iterations;
        density = out.density;
        let sup = state.support();
        alpha = sup.iter().map(|&p| aff.global(p)).collect();
        weights = sup.iter().map(|&p| state.x[p]).collect();

        // ---- Step 2: ROI ---------------------------------------------
        // π(x̂) = 0 means the subgraph is still a singleton (always the
        // case at c = 1, where Eq. 15 is undefined): Algorithm 2's
        // special case fixes the radius instead.
        let (center, radius, r_out) = if density > 0.0 {
            let roi = Roi::estimate(ds, &kernel, &alpha, &weights, density);
            let r = roi.radius_at(c);
            (roi.center, r, roi.r_out)
        } else {
            let r = params.first_roi_radius;
            (ds.get(seed as usize).to_vec(), r, r)
        };
        let at_outer_ball = radius >= r_out * (1.0 - 1e-9);

        // ---- Step 3: CIVS --------------------------------------------
        if hits_of != alpha {
            hits = retrieve(ds, index, &alpha);
            hits_of.clone_from(&alpha);
        }
        let dists = center_distances(ds, &kernel, &hits, &center);
        let psi = nearest_within(&hits, &dists, radius, params.delta);
        if psi.is_empty() {
            // Nothing new inside the scheduled radius. Before spending
            // further iterations on the θ(c) schedule, probe the outer
            // ball directly: Proposition 1 guarantees every vertex
            // beyond R_out is immune, so an empty outer-ball probe
            // certifies x̂ as a global dense subgraph (Theorem 1). The
            // probe shares this iteration's support and centre, so it
            // filters the same hits at the same distances.
            let certified =
                at_outer_ball || nearest_within(&hits, &dists, r_out, params.delta).is_empty();
            if certified {
                converged_globally = true;
                break;
            }
            // Candidates exist farther out; re-enter with the bare
            // support and let the radius schedule widen.
            beta = alpha.clone();
            state = LidState { x: weights.clone(), g: restrict(&state, &sup) };
            c += 1;
            continue;
        }

        // Update per Eq. 17: β ← α ∪ ψ; keep (A_{αα} x̂_α) rows, compute
        // the (A_{ψα} x̂_α) rows directly.
        let g_alpha = restrict(&state, &sup);
        let g_psi = aff.product_rows(&psi, &alpha, &weights);
        let infective_scale = params.tol * (1.0 + density.abs());
        let any_infective = g_psi.iter().any(|&g| g - density > infective_scale);
        if !any_infective && at_outer_ball && density > 0.0 {
            // Everything the outer ball can still offer is immune —
            // continuing cannot change x̂ (Theorem 1).
            converged_globally = true;
            break;
        }

        beta = alpha.iter().copied().chain(psi.iter().copied()).collect();
        let mut x = weights.clone();
        x.resize(beta.len(), 0.0);
        let mut g = g_alpha;
        g.extend_from_slice(&g_psi);
        state = LidState { x, g };
        c += 1;
    }

    // Package the support as a cluster, members ascending.
    let mut pairs: Vec<(u32, f64)> = alpha.iter().copied().zip(weights.iter().copied()).collect();
    pairs.sort_unstable_by_key(|&(m, _)| m);
    let cluster = DetectedCluster {
        members: pairs.iter().map(|&(m, _)| m).collect(),
        weights: pairs.iter().map(|&(_, w)| w).collect(),
        density,
    };
    if !converged_globally {
        uncertified.inc();
    }
    AlidOutcome {
        cluster,
        iterations: c.min(params.max_alid_iters),
        lid_iterations,
        converged_globally,
    }
}

/// `alid_detect_uncertified_total`: detections that exit with
/// `converged_globally == false`.
/// Registered by the first detection, so `/metrics` reports 0 rather
/// than omitting the series.
fn uncertified_counter() -> &'static alid_obs::Counter {
    static COUNTER: OnceLock<Arc<alid_obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        alid_obs::global().counter(
            "alid_detect_uncertified_total",
            "Detections that stopped at the iteration cap without certifying a global dense subgraph",
            &[],
        )
    })
}

/// Rows of the product vector `g` at the support positions, in support
/// order — the `(A_{αα} x̂_α)` part of Eq. 17.
fn restrict(state: &LidState, sup: &[usize]) -> Vec<f64> {
    sup.iter().map(|&p| state.g[p]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_lsh::LshParams;

    /// Two tight 1-d clusters of five points each plus scattered noise.
    fn fixture() -> Dataset {
        let mut flat = Vec::new();
        for i in 0..5 {
            flat.push(i as f64 * 0.05); // cluster A around 0.0..0.2
        }
        for i in 0..5 {
            flat.push(10.0 + i as f64 * 0.05); // cluster B around 10.0..10.2
        }
        flat.extend([50.0, -40.0, 75.0]); // noise
        Dataset::from_flat(1, flat)
    }

    fn params(ds: &Dataset) -> AlidParams {
        AlidParams::calibrated(ds, 0.2, 0.9).with_lsh(LshParams::new(12, 8, 1.0, 42)).with_delta(16)
    }

    fn index(ds: &Dataset, p: &AlidParams) -> LshIndex {
        LshIndex::build(ds, p.lsh, &CostModel::shared())
    }

    #[test]
    fn grows_the_full_cluster_from_one_member() {
        let ds = fixture();
        let p = params(&ds);
        let idx = index(&ds, &p);
        let out = detect_one(&ds, &p, &idx, 0, &CostModel::shared());
        assert_eq!(out.cluster.members, vec![0, 1, 2, 3, 4]);
        assert!(out.converged_globally, "small instance must certify globality");
        // π of a 5-clique is capped at (4/5) * mean affinity ≈ 0.76.
        assert!(out.cluster.density > 0.7, "got {}", out.cluster.density);
    }

    #[test]
    fn different_seeds_of_one_cluster_agree() {
        let ds = fixture();
        let p = params(&ds);
        let idx = index(&ds, &p);
        let a = detect_one(&ds, &p, &idx, 5, &CostModel::shared());
        let b = detect_one(&ds, &p, &idx, 9, &CostModel::shared());
        assert_eq!(a.cluster.members, b.cluster.members);
        assert_eq!(a.cluster.members, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn noise_seed_stays_a_singleton() {
        let ds = fixture();
        let p = params(&ds);
        let idx = index(&ds, &p);
        let out = detect_one(&ds, &p, &idx, 10, &CostModel::shared());
        assert_eq!(out.cluster.members, vec![10]);
        assert_eq!(out.cluster.density, 0.0);
        assert!(out.converged_globally);
    }

    #[test]
    fn weights_form_a_simplex_vector() {
        let ds = fixture();
        let p = params(&ds);
        let idx = index(&ds, &p);
        let out = detect_one(&ds, &p, &idx, 2, &CostModel::shared());
        let sum: f64 = out.cluster.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(out.cluster.weights.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn tombstones_split_detection() {
        let ds = fixture();
        let p = params(&ds);
        let mut idx = index(&ds, &p);
        // Peel half of cluster A; the seed can only gather what is left.
        idx.remove(3);
        idx.remove(4);
        let out = detect_one(&ds, &p, &idx, 0, &CostModel::shared());
        assert_eq!(out.cluster.members, vec![0, 1, 2]);
    }

    #[test]
    fn never_exceeds_iteration_cap() {
        let ds = fixture();
        let p = params(&ds).with_iteration_caps(2, 50);
        let idx = index(&ds, &p);
        let out = detect_one(&ds, &p, &idx, 0, &CostModel::shared());
        assert!(out.iterations <= 2);
    }

    #[test]
    fn capped_detection_counts_as_uncertified() {
        let ds = fixture();
        let p = params(&ds).with_iteration_caps(1, 50);
        let idx = index(&ds, &p);
        // Other tests share the process-global counter, so only a lower
        // bound holds.
        let before = uncertified_counter().metric_value();
        let out = detect_one(&ds, &p, &idx, 0, &CostModel::shared());
        assert!(!out.converged_globally);
        assert!(uncertified_counter().metric_value() > before);
    }

    #[test]
    fn space_cost_stays_local() {
        let ds = fixture();
        let p = params(&ds);
        let idx = index(&ds, &p);
        let cost = CostModel::shared();
        let _ = detect_one(&ds, &p, &idx, 0, &cost);
        let snap = cost.snapshot();
        // All LocalAffinity column caches were released...
        assert_eq!(snap.entries_current, 0);
        // ...and the peak stayed well under the full n^2 = 169 matrix.
        assert!(snap.entries_peak < 100, "peak {} too close to n^2", snap.entries_peak);
    }

    #[test]
    fn detection_is_deterministic() {
        let ds = fixture();
        let p = params(&ds);
        let idx = index(&ds, &p);
        let a = detect_one(&ds, &p, &idx, 1, &CostModel::shared());
        let b = detect_one(&ds, &p, &idx, 1, &CostModel::shared());
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.iterations, b.iterations);
    }
}
