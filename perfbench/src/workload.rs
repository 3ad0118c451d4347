//! Seeded input generator for the two cluster-size regimes of the
//! paper's Table 1 that the workloads run on.
//!
//! Both regimes are burst streams from `alid_data::stream`: dominant
//! clusters are runs of near-identical items interleaved with
//! Gaussian background noise, and half of all items are noise. The
//! seed picks burst centres, burst schedules and noise, so the same
//! seed always yields the same items and the same ground truth; the
//! detection parameters do not depend on the seed.
//!
//! * [`Regime::Large`] — three bursts of `n/6` items each, so the
//!   largest cluster grows with `n` (a* ∝ n). Peeling one burst leaves
//!   thousands of tombstoned entries in the same LSH buckets, which is
//!   what makes CIVS retrieval dominate batch peeling.
//! * [`Regime::Fixed`] — bursts of [`FIXED_BURST`] items whose count
//!   grows with `n` (a* fixed). Clusters stay small, so tombstones
//!   matter little, while a stream's pending residue and cluster count
//!   both grow with `n`: the streaming sweep's re-test and re-peel
//!   dominate.

use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_affinity::vector::Dataset;
use alid_core::AlidParams;
use alid_data::groundtruth::GroundTruth;
use alid_data::stream::{generate_stream, Burst, StreamConfig};
use alid_exec::ExecPolicy;

/// Feature dimensionality of every workload.
pub const DIM: usize = 8;

/// Burst size of the fixed-size-cluster regime.
pub const FIXED_BURST: usize = 60;

/// Which cluster-size regime to generate.
#[derive(Clone, Copy, Debug)]
pub enum Regime {
    /// Three bursts of `n/6` items.
    Large,
    /// `n / (2 * FIXED_BURST)` bursts of `FIXED_BURST` items.
    Fixed,
}

/// Generated inputs: items in arrival order, the ground truth over
/// arrival indices, and the detection parameters.
pub struct Workload {
    pub data: Dataset,
    pub truth: GroundTruth,
    pub params: AlidParams,
}

/// Generates `n` items of `regime` from `seed`; detection runs on
/// `exec`.
pub fn generate(regime: Regime, n: usize, seed: u64, exec: ExecPolicy) -> Workload {
    let bursts = match regime {
        Regime::Large => {
            let size = n / 6;
            [n / 10, n / 2, n * 7 / 10]
                .into_iter()
                .map(|start| Burst { start, size, spacing: 1 })
                .collect()
        }
        Regime::Fixed => {
            // Bursts start evenly over the stream, each spread over
            // about twice its size (mean gap 1), so noise and bursts
            // interleave throughout. The margin keeps the last burst
            // from overrunning the stream.
            let count = n / (2 * FIXED_BURST);
            let span = n - 4 * FIXED_BURST;
            (0..count)
                .map(|b| Burst { start: b * span / count, size: FIXED_BURST, spacing: 2 })
                .collect()
        }
    };
    let scenario = generate_stream(&StreamConfig {
        dim: DIM,
        total: n,
        bursts,
        jitter: 0.05,
        noise_span: 25.0,
        seed,
    });
    let kernel = LaplacianKernel::calibrate(scenario.scale * 2.0, 0.9, LpNorm::L2);
    let mut params = AlidParams::new(kernel).with_exec(exec);
    params.first_roi_radius = kernel.distance_at(0.5);
    params.density_threshold = 0.75;
    params.min_cluster_size = 4;
    params.lsh.seed = 11;
    Workload { data: scenario.data, truth: scenario.truth, params }
}
