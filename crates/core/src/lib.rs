//! ALID — Approximate Localized Infection Immunization Dynamics
//! (Chu, Wang, Liu, Huang & Pei, VLDB 2015).
//!
//! Detects *dominant clusters* — dense subgraphs of the affinity graph —
//! without knowing their number and under heavy background noise, while
//! avoiding the `O(n^2)` affinity-matrix construction that bottlenecks
//! every earlier affinity-based method. One detection run (Algorithm 2)
//! iterates three steps at most `C` times:
//!
//! 1. [`lid`] — Localized Infection Immunization Dynamics (Algorithm 1):
//!    evolutionary-game dynamics confined to a local index range `β`,
//!    touching only lazily computed columns `A_{β i}`;
//! 2. [`roi`] — estimates the double-deck hyperball (Proposition 1)
//!    that provably sandwiches all remaining infective vertices, and
//!    grows the region of interest from the inner to the outer ball;
//! 3. [`civs`] — Candidate Infective Vertex Search: multi-query LSH
//!    retrieval of at most `δ` in-ROI items to extend `β`.
//!
//! The [`peel`] module runs detections to exhaustion, peeling each
//! cluster off (the protocol shared with DS and IID, Section 4.4); the
//! [`palid`] module is the MapReduce-style parallel driver of
//! Section 4.6, with seeds sampled from large LSH buckets ([`seeding`]).
//!
//! # Quick start
//!
//! ```
//! use alid_affinity::{CostModel, Dataset, LaplacianKernel};
//! use alid_core::{AlidParams, Peeler};
//!
//! // Two tight 1-d clusters and two stray noise points.
//! let ds = Dataset::from_flat(
//!     1,
//!     vec![0.0, 0.05, 0.1, 5.0, 5.05, 5.1, 20.0, -14.0],
//! );
//! let params = AlidParams::calibrated(&ds, 0.3, 0.9).with_lsh_seed(7);
//! let cost = CostModel::shared();
//! let clustering = Peeler::new(&ds, params, cost).detect_all();
//! // π of an m-clique is capped at (m-1)/m of its mean affinity, so a
//! // 3-item cluster tops out near 0.65 — pick the threshold accordingly.
//! let dominant = clustering.dominant(0.6, 2);
//! assert_eq!(dominant.len(), 2);
//! # let _ = LaplacianKernel::l2(1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod alid;
pub mod civs;
pub mod config;
pub mod lid;
pub mod palid;
pub mod peel;
pub mod roi;
pub mod seeding;
pub mod streaming;

pub use alid::{detect_one, AlidOutcome};
pub use config::AlidParams;
pub use lid::{LidOutcome, LidState};
pub use palid::{palid_detect, PalidParams};
pub use peel::{detect_on_subset, PeelStats, Peeler, RoundStats};
pub use roi::Roi;
pub use streaming::{ImmunityBall, MergeEvidence, StreamUpdate, StreamingAlid};
