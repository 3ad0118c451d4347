//! p-stable Locality Sensitive Hashing (Datar, Immorlica, Indyk &
//! Mirrokni, SoCG 2004) as used by the ALID paper.
//!
//! ALID needs a fixed-radius near-neighbour oracle three times over:
//!
//! 1. **CIVS** (Section 4.3) queries the index with every supporting
//!    data item of the current local dense subgraph and keeps the hits
//!    that fall inside the ROI hyperball;
//! 2. the **sparsification study** (Section 5.1) builds the sparse
//!    affinity matrices AP/SEA/IID run on from hash-collision neighbour
//!    lists, with the segment length `r` steering the sparse degree;
//! 3. **PALID** (Section 4.6) samples its initial seeds from hash
//!    buckets holding more than five items.
//!
//! Each of `l` tables hashes a point `v` with `mu` independent functions
//! `h(v) = floor((w . v + b) / r)` where `w` has i.i.d. standard-normal
//! coordinates (2-stable) and `b ~ U[0, r)`; the `mu` quantised
//! projections are mixed into one 64-bit bucket key. The index supports
//! tombstone deletion so the peeling loop can retire detected clusters
//! without rebuilding, and keeps an inverted list from item to buckets
//! (the paper stores the same and skips storing hash keys).
//!
//! The crate also hosts the service's [`ShardRouter`], which routes
//! vectors to shards by one seeded sign-random-projection (SimHash)
//! signature drawn from the same Gaussian generator.

#![warn(missing_docs)]
pub mod collision;
mod gauss;
pub mod index;
pub mod params;
pub mod route;

pub use collision::collision_probability;
pub use index::LshIndex;
pub use params::LshParams;
pub use route::{signature_hamming, ShardRouter};
