//! Tunables of the ALID detection loop, with the paper's defaults.

use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_affinity::vector::Dataset;
use alid_exec::ExecPolicy;
use alid_lsh::LshParams;

/// Parameters of Algorithm 2 and its inner steps.
#[derive(Clone, Copy, Debug)]
pub struct AlidParams {
    /// The affinity kernel of Eq. 1.
    pub kernel: LaplacianKernel,
    /// `δ` — maximum number of new candidates CIVS may retrieve per
    /// iteration (fixed to 800 in the paper's experiments).
    pub delta: usize,
    /// `C` — maximum number of ALID iterations per detection
    /// (Section 4.5 argues 10 suffices).
    pub max_alid_iters: usize,
    /// `T` — maximum LID iterations per Step 1 invocation.
    pub max_lid_iters: usize,
    /// Relative tolerance below which a vertex no longer counts as
    /// infective (`π(s_i - x, x) <= tol * (1 + π(x))` ends LID).
    pub tol: f64,
    /// ROI radius for the very first iteration, where `π(x) = 0` makes
    /// Eq. 15 undefined (the paper hard-codes 0.4 for its normalised
    /// features; [`AlidParams::calibrated`] derives a data-scale-aware
    /// value instead).
    pub first_roi_radius: f64,
    /// Density threshold for the final dominant-cluster selection
    /// (`π(x) >= 0.75` in Section 4.4).
    pub density_threshold: f64,
    /// Minimum member count for a dominant cluster.
    pub min_cluster_size: usize,
    /// LSH configuration for CIVS.
    pub lsh: LshParams,
    /// Execution policy of the detection fan-outs: the peeling
    /// driver's speculative multi-seed detection (batch and streaming)
    /// and, in a service, the per-shard drain and sweep. Matrix and
    /// index builds always run sequentially. Sequential by default; any
    /// worker count produces byte-identical output (see
    /// `Peeler::detect_all`).
    pub exec: ExecPolicy,
}

impl AlidParams {
    /// Paper defaults around an explicit kernel: `δ = 800`, `C = 10`,
    /// density threshold 0.75, first ROI radius 0.4, CIVS-grade LSH with
    /// `r` set to the distance at which the kernel decays to 0.5.
    pub fn new(kernel: LaplacianKernel) -> Self {
        let half_dist = kernel.distance_at(0.5);
        Self {
            kernel,
            delta: 800,
            max_alid_iters: 10,
            max_lid_iters: 2000,
            tol: 1e-9,
            first_roi_radius: 0.4,
            density_threshold: 0.75,
            min_cluster_size: 2,
            lsh: LshParams::civs_default(half_dist, 0x5eed),
            exec: ExecPolicy::sequential(),
        }
    }

    /// Calibrates the kernel from the data scale: `k` is chosen so that
    /// the kernel decays to `target_affinity` at `scale_dist`
    /// (`scale_dist` should be a typical intra-cluster distance). The
    /// first ROI radius and the LSH segment length are derived from the
    /// same scale, replacing the paper's hard-coded 0.4 which assumes
    /// normalised features.
    ///
    /// # Panics
    /// Panics unless `scale_dist > 0` and `0 < target_affinity < 1`.
    pub fn calibrated(_ds: &Dataset, scale_dist: f64, target_affinity: f64) -> Self {
        let kernel = LaplacianKernel::calibrate(scale_dist, target_affinity, LpNorm::L2);
        let mut p = Self::new(kernel);
        // Cover the near neighbourhood on the first, blind iteration.
        p.first_roi_radius = kernel.distance_at(0.5);
        p
    }

    /// Replaces `δ`.
    pub fn with_delta(mut self, delta: usize) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        self.delta = delta;
        self
    }

    /// Replaces the LSH configuration.
    pub fn with_lsh(mut self, lsh: LshParams) -> Self {
        self.lsh = lsh;
        self
    }

    /// Replaces only the LSH seed (convenient for reproducible examples).
    pub fn with_lsh_seed(mut self, seed: u64) -> Self {
        self.lsh.seed = seed;
        self
    }

    /// Replaces the iteration caps `C` and `T`.
    pub fn with_iteration_caps(mut self, max_alid: usize, max_lid: usize) -> Self {
        assert!(max_alid >= 1 && max_lid >= 1, "iteration caps must be positive");
        self.max_alid_iters = max_alid;
        self.max_lid_iters = max_lid;
        self
    }

    /// Replaces the execution policy.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = AlidParams::new(LaplacianKernel::l2(1.0));
        assert_eq!(p.delta, 800);
        assert_eq!(p.max_alid_iters, 10);
        assert!((p.density_threshold - 0.75).abs() < 1e-12);
        assert!((p.first_roi_radius - 0.4).abs() < 1e-12);
    }

    #[test]
    fn calibrated_derives_scale_aware_radius() {
        let ds = Dataset::from_flat(1, vec![0.0, 1.0]);
        let p = AlidParams::calibrated(&ds, 2.0, 0.9);
        // Kernel decays to 0.9 at distance 2.
        assert!((p.kernel.affinity_at(2.0) - 0.9).abs() < 1e-12);
        // First radius is where it decays to 0.5 — farther than 2.
        assert!(p.first_roi_radius > 2.0);
        assert!((p.kernel.affinity_at(p.first_roi_radius) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn builders_apply() {
        let p = AlidParams::new(LaplacianKernel::l2(1.0))
            .with_delta(5)
            .with_iteration_caps(3, 77)
            .with_lsh_seed(9)
            .with_exec(ExecPolicy::workers(3));
        assert_eq!(p.delta, 5);
        assert_eq!(p.max_alid_iters, 3);
        assert_eq!(p.max_lid_iters, 77);
        assert_eq!(p.lsh.seed, 9);
        assert_eq!(p.exec.worker_count(), 3);
    }

    #[test]
    fn exec_defaults_to_sequential() {
        let p = AlidParams::new(LaplacianKernel::l2(1.0));
        assert!(p.exec.is_sequential());
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn delta_zero_rejected() {
        let _ = AlidParams::new(LaplacianKernel::l2(1.0)).with_delta(0);
    }
}
