//! Workload generators shared between the experiment binaries and the
//! workspace's integration tests, so a bench and the test that proves
//! its workload's properties can never drift apart.

use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_core::AlidParams;
use alid_lsh::{signature_hamming, ShardRouter};

/// The hyperplane-straddling workload of the cross-shard reducer's
/// acceptance tests (`tests/service.rs`) and the `bench_service`
/// merge-cost scenario.
///
/// One tight 12-member cluster is placed *on* the router's first
/// hyperplane — six members a hair on each side — so its signatures
/// differ in exactly that plane's bit and deterministic routing
/// fragments it across shards, while a well-separated 8-member
/// control cluster sits far along the plane normal. The constructor
/// searches router seeds until the geometry provably splits: the two
/// sides route to *different* shards for every shard count in
/// `{2, 4, 8}` (signature bits feed the mixer, so a single-bit flip
/// lands on the same shard with probability `1/shards` per count —
/// the search pins a seed where it never does).
#[derive(Clone, Debug)]
pub struct StraddleFixture {
    /// Arrival-ordered items (straddler and control interleaved).
    pub items: Vec<Vec<f64>>,
    /// Detection parameters calibrated for the fixture's scale.
    pub params: AlidParams,
    /// The router seed the search pinned (`ServiceConfig.router_seed`).
    pub router_seed: u64,
    /// Global ids (arrival indices) of the straddling cluster.
    pub straddler: Vec<u64>,
    /// Global ids of the control cluster.
    pub control: Vec<u64>,
}

/// Router geometry the fixture is built against: the sharded
/// service's defaults.
pub const STRADDLE_DIM: usize = 2;
/// `ServiceConfig` default signature width.
pub const STRADDLE_BITS: usize = 16;

/// Builds [`StraddleFixture`] — see its docs. Deterministic: the seed
/// search and the geometry are pure functions of the router
/// construction, so every caller gets the identical fixture.
///
/// # Panics
/// Panics if no router seed below the search bound produces a clean
/// split (a fixed RNG regression would surface loudly here).
pub fn straddling_cluster() -> StraddleFixture {
    let kernel = LaplacianKernel::calibrate(0.3, 0.9, LpNorm::L2);
    let mut params = AlidParams::new(kernel);
    params.first_roi_radius = kernel.distance_at(0.5);
    params.density_threshold = 0.7;
    params.min_cluster_size = 3;
    params.lsh.seed = 5;
    'seed: for router_seed in 0..4096u64 {
        let router = ShardRouter::new(STRADDLE_DIM, STRADDLE_BITS, router_seed);
        let w = router.plane(0); // lifted normal: (w0, w1, bias)
        let nrm2 = w[0] * w[0] + w[1] * w[1];
        if nrm2 < 1e-12 {
            continue;
        }
        // A point on hyperplane 0, and the in-plane / normal frame.
        let p0 = [-w[2] * w[0] / nrm2, -w[2] * w[1] / nrm2];
        if p0[0].hypot(p0[1]) > 20.0 {
            continue; // keep the geometry at fixture scale
        }
        let nrm = nrm2.sqrt();
        let n = [w[0] / nrm, w[1] / nrm];
        let t = [-w[1] / nrm, w[0] / nrm];
        let eps = 0.02;
        let place = |along_n: f64, along_t: f64| {
            vec![p0[0] + along_n * n[0] + along_t * t[0], p0[1] + along_n * n[1] + along_t * t[1]]
        };
        // Twelve straddler members alternating sides, eight control
        // members 30 units along the normal.
        let straddle_pts: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let side = if i % 2 == 0 { -eps } else { eps };
                place(side, (i / 2) as f64 * 0.02 - 0.05)
            })
            .collect();
        let control_pts: Vec<Vec<f64>> =
            (0..8).map(|i| place(30.0, i as f64 * 0.02 - 0.07)).collect();
        // Each side and the control cluster must be signature-pure,
        // and the two sides must differ in exactly the first plane's
        // bit (the top bit: signatures shift in MSB-first).
        let sig = |v: &[f64]| router.signature(v);
        let neg = sig(&straddle_pts[0]);
        let pos = sig(&straddle_pts[1]);
        if neg ^ pos != 1 << (STRADDLE_BITS - 1) {
            continue;
        }
        for (i, p) in straddle_pts.iter().enumerate() {
            if sig(p) != if i % 2 == 0 { neg } else { pos } {
                continue 'seed;
            }
        }
        let ctrl = sig(&control_pts[0]);
        if control_pts.iter().any(|p| sig(p) != ctrl) {
            continue;
        }
        debug_assert_eq!(signature_hamming(neg, pos), 1);
        // The sides must land on different shards at every tested
        // shard count (the mixer decides; the search pins a seed
        // where it splits everywhere).
        for shards in [2usize, 4, 8] {
            if router.route(&straddle_pts[0], shards) == router.route(&straddle_pts[1], shards) {
                continue 'seed;
            }
        }
        // Interleave arrivals so drains exercise both clusters.
        let mut items = Vec::new();
        let mut straddler = Vec::new();
        let mut control = Vec::new();
        let (mut si, mut ci) = (0usize, 0usize);
        while si < straddle_pts.len() || ci < control_pts.len() {
            if si < straddle_pts.len() {
                straddler.push(items.len() as u64);
                items.push(straddle_pts[si].clone());
                si += 1;
            }
            if ci < control_pts.len() {
                control.push(items.len() as u64);
                items.push(control_pts[ci].clone());
                ci += 1;
            }
        }
        return StraddleFixture { items, params, router_seed, straddler, control };
    }
    panic!("no router seed below the search bound splits the straddle fixture");
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_affinity::cost::CostModel;
    use alid_affinity::vector::Dataset;
    use alid_core::Peeler;

    /// The properties the service tests lean on: a deterministic
    /// fixture whose straddler splits across every tested shard
    /// count while each cluster is dominant under its params.
    #[test]
    fn straddle_fixture_splits_and_both_clusters_are_dominant() {
        let fx = straddling_cluster();
        assert_eq!(straddling_cluster().router_seed, fx.router_seed, "search is deterministic");
        assert_eq!(fx.items.len(), 20);
        assert_eq!(fx.straddler.len(), 12);
        assert_eq!(fx.control.len(), 8);
        let router = ShardRouter::new(STRADDLE_DIM, STRADDLE_BITS, fx.router_seed);
        for shards in [2usize, 4, 8] {
            let routes: std::collections::BTreeSet<usize> = fx
                .straddler
                .iter()
                .map(|&id| router.route(&fx.items[id as usize], shards))
                .collect();
            assert_eq!(routes.len(), 2, "{shards} shards: straddler must split in two");
            let ctrl: std::collections::BTreeSet<usize> =
                fx.control.iter().map(|&id| router.route(&fx.items[id as usize], shards)).collect();
            assert_eq!(ctrl.len(), 1, "{shards} shards: control must co-locate");
        }
        // A single-instance detection finds exactly the two planted
        // clusters, dominant under the fixture's own filter.
        let ds = Dataset::from_rows(STRADDLE_DIM, fx.items.iter().map(Vec::as_slice));
        let clustering = Peeler::new(&ds, fx.params, CostModel::shared()).detect_all();
        let dominant = clustering.dominant(fx.params.density_threshold, fx.params.min_cluster_size);
        assert_eq!(dominant.len(), 2, "{dominant:?}");
        let mut sizes: Vec<usize> = dominant.clusters.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![8, 12]);
    }
}
