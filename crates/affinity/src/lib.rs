//! Vector/metric substrate and affinity-matrix structures for the ALID
//! reproduction (Chu et al., *ALID: Scalable Dominant Cluster Detection*,
//! VLDB 2015).
//!
//! Every method in the paper operates on the affinity graph
//! `G = (V, I, A)` whose edge weights follow the Laplacian kernel
//!
//! ```text
//! a_ij = exp(-k * ||v_i - v_j||_p)   for i != j,     a_ii = 0        (Eq. 1)
//! ```
//!
//! The crate provides:
//!
//! * [`Dataset`] — a flat, row-major store of `n` d-dimensional points;
//! * [`LpNorm`] / [`LaplacianKernel`] — the metric and the kernel of Eq. 1;
//! * [`DenseAffinity`] — the full `n x n` matrix the baselines need
//!   (`O(n^2)` time and space, the scalability bottleneck the paper
//!   attacks);
//! * [`LocalAffinity`] — the lazily-computed column group `A_beta_alpha`
//!   of Fig. 3 that makes LID cheap;
//! * [`SparseAffinity`] — a CSR matrix built from LSH neighbour lists,
//!   used for the sparsification study of Section 5.1;
//! * [`CostModel`] — a deterministic accounting of kernel evaluations and
//!   peak stored entries, so the runtime/memory *growth orders* of
//!   Table 1 and Figs. 7/9 can be reproduced hardware-independently;
//! * [`simplex`] — utilities for vectors on the standard simplex, the
//!   state space of the evolutionary-game dynamics;
//! * [`clustering`] — the shared `Clustering` output vocabulary;
//! * [`block`] — blocked, lane-per-pair batch kernel evaluation
//!   (bit-identical to scalar) that every consumer above routes
//!   through.

#![warn(missing_docs)]
pub mod block;
pub mod clustering;
pub mod cost;
pub mod dense;
pub mod fx;
pub mod kernel;
pub mod local;
pub mod simplex;
pub mod sparse;
pub mod vector;

pub use block::BlockEval;
pub use clustering::{Clustering, DetectedCluster};
pub use cost::{CostModel, CostSnapshot};
pub use dense::DenseAffinity;
pub use kernel::{LaplacianKernel, LpNorm};
pub use local::LocalAffinity;
pub use sparse::{SparseAffinity, SparseBuilder};
pub use vector::Dataset;
