//! # alid — Scalable Dominant Cluster Detection
//!
//! A from-scratch Rust reproduction of *ALID: Scalable Dominant Cluster
//! Detection* (Chu, Wang, Liu, Huang & Pei, VLDB 2015), including every
//! substrate and baseline the paper's evaluation depends on.
//!
//! A *dominant cluster* is a group of highly similar objects — a dense
//! subgraph of the affinity graph — hidden in an unknown amount of
//! background noise. ALID detects such clusters without knowing their
//! number and without ever materialising the `O(n^2)` affinity matrix:
//! evolutionary-game dynamics are confined to lazily computed local
//! submatrices inside an adaptively grown Region of Interest, with
//! candidate vertices retrieved by locality-sensitive hashing.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`affinity`] | `alid-affinity` | data sets, Lp metrics, the Laplacian kernel, dense/local/sparse affinity matrices, the deterministic cost model, simplex utilities |
//! | [`lsh`] | `alid-lsh` | p-stable LSH (Datar et al. 2004) with tombstones and inverted lists |
//! | [`linalg`] | `alid-linalg` | Jacobi eigensolver, orthogonal iteration |
//! | [`core`] | `alid-core` | LID, ROI, CIVS, the ALID driver, peeling, PALID |
//! | [`exec`] | `alid-exec` | the shared parallel-execution layer: [`ExecPolicy`](prelude::ExecPolicy), deterministic parallel map, work stealing, the persistent worker pool |
//! | [`baselines`] | `alid-baselines` | IID, replicator dynamics / dominant sets, SEA, affinity propagation, k-means, spectral clustering (full + Nyström), mean shift |
//! | [`data`] | `alid-data` | NART / NDI / SIFT simulators, the synthetic regimes, noise injection, AVG-F metrics |
//! | [`service`] | `alid-service` | the sharded online detection service: deterministic routing, bounded admission, snapshot persistence, the std-only HTTP front end (`alid serve`) |
//!
//! ## Quick start
//!
//! ```
//! use alid::prelude::*;
//!
//! // A workload with planted clusters: 3 visual words of 30 descriptors
//! // plus 40 noise descriptors on the unit sphere.
//! let ds = alid::data::sift::sift(&alid::data::sift::SiftConfig {
//!     words: 3,
//!     word_size: 30,
//!     noise: 40,
//!     seed: 7,
//! });
//!
//! // Calibrate the kernel from the data scale and run the peeling loop.
//! let params = AlidParams::calibrated(&ds.data, ds.scale, 0.9);
//! let cost = CostModel::shared();
//! let clustering = Peeler::new(&ds.data, params, cost).detect_all();
//! let dominant = clustering.dominant(0.75, 3);
//!
//! assert_eq!(dominant.len(), 3);
//! assert!(alid::data::metrics::avg_f1(&ds.truth, &dominant) > 0.99);
//! ```

#![forbid(unsafe_code)]

pub use alid_affinity as affinity;
pub use alid_baselines as baselines;
pub use alid_core as core;
pub use alid_data as data;
pub use alid_exec as exec;
pub use alid_linalg as linalg;
pub use alid_lsh as lsh;
pub use alid_obs as obs;
pub use alid_service as service;

/// The items most programs need.
pub mod prelude {
    pub use alid_affinity::clustering::{Clustering, DetectedCluster};
    pub use alid_affinity::cost::CostModel;
    pub use alid_affinity::kernel::{LaplacianKernel, LpNorm};
    pub use alid_affinity::vector::Dataset;
    pub use alid_core::streaming::{MergeEvidence, StreamUpdate, StreamingAlid};
    pub use alid_core::{
        detect_on_subset, detect_one, palid_detect, AlidParams, PalidParams, PeelStats, Peeler,
        RoundStats,
    };
    pub use alid_data::groundtruth::{GroundTruth, LabeledDataset};
    pub use alid_exec::ExecPolicy;
    pub use alid_lsh::{LshIndex, LshParams, ShardRouter};
    pub use alid_service::{
        Admission, ClusterSummary, MergedCluster, MergedView, ReduceStats, Service, ServiceConfig,
    };
}
