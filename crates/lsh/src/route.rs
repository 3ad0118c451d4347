//! Deterministic shard routing on SimHash signatures — the signature
//! exposure the sharded serving layer keys on.
//!
//! The service partitions its stream over N independent `StreamingAlid`
//! shards. For detection quality the partition must keep near
//! neighbours together (a dominant cluster split across shards is
//! detected late or not at all), and for reproducibility it must be a
//! pure function of the item — never of arrival timing or thread
//! scheduling. A single-table SimHash signature gives both: items
//! within a tight cluster share all sign bits with high probability
//! (Charikar 2002: `P[bit collision] = 1 - θ/π`), so the whole cluster
//! lands on one shard, while the mixed signature spreads distinct
//! clusters uniformly.
//!
//! [`ShardRouter::route`] is stable by construction: the hyperplanes
//! are drawn from a seeded RNG at router construction, so the same
//! `(dim, bits, seed, shard count)` maps every vector to the same
//! shard in every process, on every machine — re-ingesting a stream
//! reproduces the exact per-shard substreams, which is what makes the
//! whole service byte-reproducible.
//!
//! Raw SimHash locality is *angular*, which is wrong for L2-clustered
//! data near the origin: `(0.01, 0)` and `(0, 0.01)` are 0.01 apart
//! but 90° apart, so their sign bits disagree half the time. The
//! router therefore hashes the **homogeneous lift** `(v, 1)` instead
//! of `v`: near the origin all lifted vectors point almost parallel to
//! the bias axis (tiny angles — one shard), while far from the origin
//! the lift is a negligible rotation and behaves like plain SimHash.
//! Metric-ish locality at every scale, still a pure seeded signature.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gauss::sample_standard_normal;
use alid_affinity::fx::mix_words;

/// Hamming distance between two router signatures — the number of
/// hyperplanes the two hashed vectors fall on opposite sides of. For
/// vectors this is a *metric-ish* proximity signal (Charikar's
/// `P[bit agreement] = 1 - θ/π` per plane, on the lifted vectors):
/// fragments of one hyperplane-straddling cluster sit within a couple
/// of bits of each other by construction, which is what lets the
/// cross-shard reducer generate candidate fragment pairs from
/// signature buckets instead of an all-pairs centroid scan.
pub fn signature_hamming(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// Deterministic vector-to-shard routing via one SimHash signature of
/// the homogeneous lift `(v, 1)`.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    dim: usize,
    bits: usize,
    seed: u64,
    /// Row-major `bits x (dim + 1)` hyperplane normals over the lifted
    /// space; the last coefficient of each row multiplies the bias
    /// coordinate.
    planes: Vec<f64>,
}

impl ShardRouter {
    /// Draws `bits` random hyperplanes over the lifted
    /// `(dim + 1)`-dimensional space from the seeded generator.
    ///
    /// # Panics
    /// Panics unless `dim >= 1` and `1 <= bits <= 64`.
    pub fn new(dim: usize, bits: usize, seed: u64) -> Self {
        assert!(dim >= 1, "router dimensionality must be positive");
        assert!((1..=64).contains(&bits), "bits must be in 1..=64, got {bits}");
        let mut rng = StdRng::seed_from_u64(seed);
        let planes = (0..bits * (dim + 1)).map(|_| sample_standard_normal(&mut rng)).collect();
        Self { dim, bits, seed, planes }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Sign bits per signature.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The seed the hyperplanes were drawn from (persisted by service
    /// snapshots so a restore rebuilds the identical router).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw sign-bit signature of the lifted `(v, 1)`: bit `b` is
    /// set when the lift lies on the positive side of hyperplane `b`.
    ///
    /// # Panics
    /// Panics if `v`'s dimensionality differs from the router's.
    pub fn signature(&self, v: &[f64]) -> u64 {
        assert_eq!(v.len(), self.dim, "routed vector dimensionality mismatch");
        let width = self.dim + 1;
        let mut signature: u64 = 0;
        for b in 0..self.bits {
            let plane = &self.planes[b * width..(b + 1) * width];
            // Bias coefficient times the implicit 1.0 of the lift.
            let mut dot = plane[self.dim];
            for (p, x) in plane.iter().zip(v) {
                dot += p * x;
            }
            signature = (signature << 1) | u64::from(dot >= 0.0);
        }
        signature
    }

    /// The lifted normal of hyperplane `b` (`dim + 1` coefficients;
    /// the last one multiplies the implicit bias coordinate of the
    /// lift). Exposed so harnesses can *construct* geometry relative
    /// to the router — e.g. a cluster deliberately straddling the
    /// first hyperplane, the fixture behind the cross-shard reducer's
    /// acceptance tests.
    ///
    /// # Panics
    /// Panics if `b >= self.bits()`.
    pub fn plane(&self, b: usize) -> &[f64] {
        assert!(b < self.bits, "plane {b} out of range (bits = {})", self.bits);
        let width = self.dim + 1;
        &self.planes[b * width..(b + 1) * width]
    }

    /// Every signature within Hamming distance `radius` of
    /// `signature` (the probe set of a multi-probe lookup), in a
    /// canonical order: distance ascending, flipped-bit combinations
    /// lexicographic. The identity probe (`radius = 0`) comes first.
    /// Only the router's `bits` low planes are flipped, so probes stay
    /// inside the signature space.
    ///
    /// The probe count is `Σ_{r<=radius} C(bits, r)` — with the
    /// default 16 bits, radius 2 costs 137 probes per lookup, which is
    /// how the reducer's candidate generation stays linear in the
    /// fragment count.
    ///
    /// # Panics
    /// Panics if `radius > 4` (the combinatorial blow-up past that is
    /// never what a caller wants) or `radius > bits`.
    pub fn probe_signatures(&self, signature: u64, radius: u32) -> Vec<u64> {
        assert!(radius <= 4, "probe radius {radius} explodes combinatorially (max 4)");
        assert!(radius as usize <= self.bits, "radius exceeds the signature width");
        let mut out = vec![signature];
        let mut flips: Vec<usize> = Vec::with_capacity(radius as usize);
        for r in 1..=radius {
            push_flips(signature, self.bits, r as usize, 0, &mut flips, &mut out);
        }
        out
    }

    /// The shard `v` belongs to among `shards` shards: the mixed
    /// signature reduced modulo the shard count. Locality-preserving
    /// (identical signatures — in particular, near-identical vectors —
    /// always co-locate) and stable for a fixed `(router, shards)`.
    ///
    /// # Panics
    /// Panics if `shards == 0` or on dimensionality mismatch.
    pub fn route(&self, v: &[f64], shards: usize) -> usize {
        assert!(shards >= 1, "need at least one shard");
        if shards == 1 {
            return 0;
        }
        // Mix before reducing: raw signatures are heavily structured in
        // their low bits (nearby directions share them), and the
        // modulus must see avalanche, not geometry.
        (mix_words([self.signature(v)]) % shards as u64) as usize
    }
}

/// Appends to `out` every signature obtained from `signature` by
/// flipping exactly `remaining` distinct bit positions `>= start`
/// (positions count from the low end; `bits` bounds them), in
/// lexicographic position order. `flips` is the recursion's scratch.
fn push_flips(
    signature: u64,
    bits: usize,
    remaining: usize,
    start: usize,
    flips: &mut Vec<usize>,
    out: &mut Vec<u64>,
) {
    if remaining == 0 {
        let mut s = signature;
        for &b in flips.iter() {
            s ^= 1u64 << b;
        }
        out.push(s);
        return;
    }
    for b in start..=bits - remaining {
        flips.push(b);
        push_flips(signature, bits, remaining - 1, b + 1, flips, out);
        flips.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs() -> Vec<Vec<f64>> {
        (0..256)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.37).sin() * 5.0, (t * 0.11).cos() * 3.0, t * 0.01, -t * 0.02]
            })
            .collect()
    }

    #[test]
    fn routing_is_deterministic_across_instances() {
        let a = ShardRouter::new(4, 16, 42);
        let b = ShardRouter::new(4, 16, 42);
        for v in vecs() {
            assert_eq!(a.signature(&v), b.signature(&v));
            for shards in [1usize, 2, 3, 8] {
                assert_eq!(a.route(&v, shards), b.route(&v, shards));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_partitions() {
        let a = ShardRouter::new(4, 16, 1);
        let b = ShardRouter::new(4, 16, 2);
        let moved = vecs().iter().filter(|v| a.route(v, 8) != b.route(v, 8)).count();
        assert!(moved > 64, "independent seeds should reshuffle most items, moved {moved}");
    }

    #[test]
    fn near_duplicates_co_locate() {
        let r = ShardRouter::new(4, 16, 7);
        for v in vecs() {
            let jittered: Vec<f64> = v.iter().map(|x| x + 1e-9).collect();
            // 1e-9 jitter flips a sign bit only for points essentially
            // on a hyperplane; none of the fixture points are.
            assert_eq!(r.route(&v, 8), r.route(&jittered, 8), "{v:?}");
        }
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        let r = ShardRouter::new(4, 16, 9);
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for v in vecs() {
            counts[r.route(&v, shards)] += 1;
        }
        // 256 structured items over 4 shards: no shard empty, none
        // hoarding more than 60%.
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {s} empty: {counts:?}");
            assert!(c < 154, "shard {s} overloaded: {counts:?}");
        }
    }

    #[test]
    fn tight_l2_clusters_mostly_co_locate_even_near_the_origin() {
        // The homogeneous lift's raison d'être: a radius-0.05 cluster
        // straddling the origin has members pointing in *every*
        // direction, so raw angular SimHash scatters it uniformly.
        // Lifted, the members subtend ~0.1 rad and land almost
        // entirely on one shard. (Exact co-location is probabilistic —
        // a member within ~0.1 rad of some hyperplane still flips a
        // bit — which is precisely the split the cross-shard top-k
        // merge is documented to tolerate; see DESIGN.md.)
        let r = ShardRouter::new(2, 16, 3);
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..40 {
            let t = i as f64;
            let v = [(t * 0.7).sin() * 0.05, (t * 1.3).cos() * 0.05];
            *counts.entry(r.route(&v, 8)).or_insert(0usize) += 1;
        }
        let modal = *counts.values().max().unwrap();
        assert!(modal >= 35, "origin cluster scattered: {counts:?}");
    }

    #[test]
    fn signature_hamming_counts_differing_bits() {
        assert_eq!(signature_hamming(0b1010, 0b1010), 0);
        assert_eq!(signature_hamming(0b1010, 0b0011), 2);
    }

    #[test]
    fn probe_signatures_cover_exactly_the_hamming_ball() {
        let r = ShardRouter::new(2, 6, 0);
        let sig = r.signature(&[0.4, -0.7]) & 0x3f;
        for radius in 0..=2u32 {
            let probes = r.probe_signatures(sig, radius);
            // Count = sum of binomials; all distinct; all within radius.
            let expect: usize = (0..=radius).map(|k| binom(6, k as usize)).sum();
            assert_eq!(probes.len(), expect, "radius {radius}");
            let mut dedup = probes.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), probes.len(), "radius {radius}: duplicate probes");
            assert_eq!(probes[0], sig, "identity probe first");
            for p in &probes {
                assert!(signature_hamming(*p, sig) <= radius);
                assert_eq!(p >> 6, 0, "probes must stay inside the signature width");
            }
            // Every 6-bit word within the ball is present.
            for w in 0..64u64 {
                assert_eq!(
                    probes.contains(&w),
                    signature_hamming(w, sig) <= radius,
                    "radius {radius}, word {w:#b}"
                );
            }
        }
    }

    fn binom(n: usize, k: usize) -> usize {
        (1..=k).fold(1, |acc, i| acc * (n - k + i) / i)
    }

    #[test]
    #[should_panic(expected = "combinatorially")]
    fn probe_radius_is_capped() {
        let r = ShardRouter::new(2, 16, 0);
        let _ = r.probe_signatures(0, 5);
    }

    #[test]
    fn plane_exposes_the_lifted_normals() {
        let r = ShardRouter::new(3, 8, 11);
        for b in 0..8 {
            assert_eq!(r.plane(b).len(), 4, "dim + 1 coefficients");
        }
        // The exposed normal reproduces the signature bit: plane 0 is
        // the *top* bit of the signature (bits shift in MSB-first).
        for v in vecs().iter().map(|v| &v[..3]) {
            let w = r.plane(0);
            let dot = w[3] + w.iter().zip(v).map(|(p, x)| p * x).sum::<f64>();
            let top_bit = (r.signature(v) >> 7) & 1;
            assert_eq!(top_bit == 1, dot >= 0.0, "{v:?}");
        }
    }

    #[test]
    fn single_shard_short_circuits() {
        let r = ShardRouter::new(2, 8, 0);
        assert_eq!(r.route(&[1.0, 2.0], 1), 0);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn rejects_wrong_dim() {
        let r = ShardRouter::new(3, 8, 0);
        let _ = r.signature(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn rejects_oversized_bits() {
        let _ = ShardRouter::new(3, 65, 0);
    }
}
