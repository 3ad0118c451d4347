//! The LSH index: `l` tables of `mu` concatenated Gaussian projections,
//! with an inverted list and tombstone deletion.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use alid_affinity::cost::CostModel;
use alid_affinity::fx::mix_words;
use alid_affinity::vector::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gauss::sample_standard_normal;
use crate::params::LshParams;

/// One hash table: `mu` projection directions, `mu` offsets and the
/// bucket map from mixed key to member ids.
#[derive(Debug)]
struct Table {
    /// Row-major `mu x dim` projection directions with N(0,1) entries.
    proj: Vec<f64>,
    /// Offsets `b ~ U[0, r)`, one per projection.
    offsets: Vec<f64>,
    /// Bucket key -> item ids (insertion order within a bucket).
    /// BTreeMap so whole-table iteration (`large_buckets`) runs in
    /// ascending key order — hash-map order would silently couple seed
    /// sampling to the hasher.
    buckets: BTreeMap<u64, Vec<u32>>,
}

/// A p-stable LSH index over a data set.
///
/// Items are addressed by their index in the originating [`Dataset`].
/// Deletion is by tombstone: peeled items stay in the buckets but are
/// filtered from every query, matching the paper's peeling loop which
/// "reiterates on the remaining data items" without rebuilding the
/// tables.
#[derive(Debug)]
pub struct LshIndex {
    params: LshParams,
    dim: usize,
    tables: Vec<Table>,
    alive: Vec<bool>,
    alive_count: usize,
    /// Shared cost model: build records the O(n*l) hash-table memory,
    /// and every streaming insert records its own growth so Section 4.3
    /// memory reports stay truthful as the stream runs.
    cost: Arc<CostModel>,
    /// Reusable signature scratch for the streaming-ingest path.
    scratch: Vec<u64>,
}

impl LshIndex {
    /// Builds the index for every item of `ds`: an empty index, then
    /// [`Self::insert`] of every row in item order, so a batch build
    /// and a stream of inserts fill byte-identical buckets.
    ///
    /// Time `O(n * d * l * mu)`; auxiliary space `O(n * l)` for the
    /// bucket lists (reported to `cost` as the paper's hash-table
    /// memory, Section 4.3).
    pub fn build(ds: &Dataset, params: LshParams, cost: &Arc<CostModel>) -> Self {
        let dim = ds.dim();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let tables = (0..params.tables)
            .map(|_| {
                let proj: Vec<f64> = (0..params.projections * dim)
                    .map(|_| sample_standard_normal(&mut rng))
                    .collect();
                let offsets: Vec<f64> =
                    (0..params.projections).map(|_| rng.gen::<f64>() * params.r).collect();
                Table { proj, offsets, buckets: BTreeMap::new() }
            })
            .collect();
        let mut index = Self {
            params,
            dim,
            tables,
            alive: Vec::with_capacity(ds.len()),
            alive_count: 0,
            cost: Arc::clone(cost),
            scratch: vec![0u64; params.projections],
        };
        for row in ds.iter() {
            index.insert(row);
        }
        index
    }

    /// Number of indexed items (alive + tombstoned).
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Items not yet tombstoned.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Whether item `id` is still alive.
    pub fn is_alive(&self, id: u32) -> bool {
        self.alive[id as usize]
    }

    /// The index parameters.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// Inserts a new item with the next id (`= len()` before the call),
    /// hashing it into every table. This is the one hashing path: the
    /// batch [`Self::build`] runs it over every row, and the online ALID
    /// extension runs it per arrival through [`Self::insert_and_query`];
    /// the vector must also be appended to the backing [`Dataset`] by
    /// the caller.
    ///
    /// The signature scratch buffer is owned by the index, so steady
    /// ingest performs no per-item allocation (bucket growth aside),
    /// and each insert records its own aux-byte growth — `4l` bucket
    /// bytes plus one tombstone byte — keeping the Section 4.3 memory
    /// accounting truthful as the stream grows.
    ///
    /// # Panics
    /// Panics if `v`'s dimensionality differs from the index's.
    pub fn insert(&mut self, v: &[f64]) -> u32 {
        self.insert_into(v, None)
    }

    /// [`Self::insert`] followed by [`Self::query`] of the same vector,
    /// hashing it once: the new id and the alive items sharing a bucket
    /// with it, the item itself included, deduplicated and sorted
    /// ascending. The bucket entries visited are counted as `query`
    /// counts them. The streaming ingest path runs this per arrival.
    ///
    /// # Panics
    /// Panics if `v`'s dimensionality differs from the index's.
    pub fn insert_and_query(&mut self, v: &[f64]) -> (u32, Vec<u32>) {
        let mut hits = Vec::new();
        let id = self.insert_into(v, Some(&mut hits));
        hits.sort_unstable();
        hits.dedup();
        (id, hits)
    }

    /// Hashes `v` into every table under the next id; with `hits`, also
    /// pushes the alive members of each bucket it joined onto `hits`.
    fn insert_into(&mut self, v: &[f64], mut hits: Option<&mut Vec<u32>>) -> u32 {
        assert_eq!(v.len(), self.dim, "inserted vector dimensionality mismatch");
        let id = self.alive.len() as u32;
        self.alive.push(true);
        self.alive_count += 1;
        let mut signature = std::mem::take(&mut self.scratch);
        let mut visited = 0;
        for t in 0..self.tables.len() {
            let key = self.key_into(t, v, &mut signature);
            self.tables[t].buckets.entry(key).or_default().push(id);
            if let Some(out) = hits.as_deref_mut() {
                visited += self.scan_bucket(t, key, out);
            }
        }
        self.scratch = signature;
        if hits.is_some() {
            bucket_entries().add(visited as u64);
        }
        self.cost.record_aux_bytes((self.params.tables * 4 + 1) as u64);
        id
    }

    /// Tombstones item `id` (idempotent). Peeled clusters call this for
    /// every member.
    ///
    /// Tombstoning frees **no** aux bytes, deliberately: the id stays in
    /// every bucket list (queries filter it), so the hash-table memory
    /// of Section 4.3 is still held until the whole index is dropped —
    /// the accounting matches the allocation exactly.
    pub fn remove(&mut self, id: u32) {
        let slot = &mut self.alive[id as usize];
        if *slot {
            *slot = false;
            self.alive_count -= 1;
        }
    }

    /// Clears every tombstone (PALID mappers share one index and never
    /// peel; streaming sweeps re-run detection from scratch).
    pub fn restore_all(&mut self) {
        self.alive.fill(true);
        self.alive_count = self.alive.len();
    }

    /// Computes the bucket key of `v` in table `t`, reusing `signature`
    /// as scratch.
    fn key_into(&self, t: usize, v: &[f64], signature: &mut [u64]) -> u64 {
        debug_assert_eq!(v.len(), self.dim, "query dimensionality mismatch");
        let table = &self.tables[t];
        for (p, sig) in signature.iter_mut().enumerate() {
            let w = &table.proj[p * self.dim..(p + 1) * self.dim];
            let mut dot = table.offsets[p];
            for (wi, vi) in w.iter().zip(v) {
                dot += wi * vi;
            }
            *sig = (dot / self.params.r).floor() as i64 as u64;
        }
        mix_words(signature.iter().copied())
    }

    /// Pushes every *alive* item colliding with `v` in any table onto
    /// `out`, duplicates across tables included, in table order.
    pub fn query_into(&self, v: &[f64], out: &mut Vec<u32>) {
        let mut signature = vec![0u64; self.params.projections];
        let mut visited = 0;
        for t in 0..self.tables.len() {
            let key = self.key_into(t, v, &mut signature);
            visited += self.scan_bucket(t, key, out);
        }
        bucket_entries().add(visited as u64);
    }

    /// Alive items colliding with `v` in any table, deduplicated and
    /// sorted ascending.
    pub fn query(&self, v: &[f64]) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(v, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Union of [`Self::query`] over several query points — the CIVS
    /// multi-query retrieval of Fig. 4(b). Deduplicated and sorted.
    ///
    /// Near-duplicate query points hash to the same buckets, so the
    /// `(table, key)` pairs of every query are gathered and deduplicated
    /// first and each distinct bucket is scanned once: the union's cost
    /// is the distinct buckets' size, not `|queries| * l` bucket scans.
    pub fn multi_query<'q>(&self, queries: impl IntoIterator<Item = &'q [f64]>) -> Vec<u32> {
        let queries = queries.into_iter();
        let mut signature = vec![0u64; self.params.projections];
        let mut keys = Vec::with_capacity(queries.size_hint().0 * self.tables.len());
        for q in queries {
            for t in 0..self.tables.len() {
                keys.push((t, self.key_into(t, q, &mut signature)));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let mut out = Vec::new();
        let mut visited = 0;
        for (t, key) in keys {
            visited += self.scan_bucket(t, key, &mut out);
        }
        bucket_entries().add(visited as u64);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Pushes the alive members of bucket `key` of table `t` onto `out`
    /// and returns the entries visited, tombstones included.
    fn scan_bucket(&self, t: usize, key: u64, out: &mut Vec<u32>) -> usize {
        let Some(bucket) = self.tables[t].buckets.get(&key) else { return 0 };
        out.extend(bucket.iter().copied().filter(|&id| self.alive[id as usize]));
        bucket.len()
    }

    /// Approximate-nearest-neighbour lists for sparsification
    /// (Section 5.1): item `i` is adjacent to every alive item sharing a
    /// bucket with it. `i` itself is excluded.
    pub fn neighbor_lists(&self, ds: &Dataset) -> Vec<Vec<u32>> {
        let mut lists = Vec::with_capacity(self.len());
        for id in 0..self.len() {
            if !self.alive[id] {
                lists.push(Vec::new());
                continue;
            }
            let mut l = self.query(ds.get(id));
            l.retain(|&j| j != id as u32);
            lists.push(l);
        }
        lists
    }

    /// Iterates over every bucket (across all tables) with at least
    /// `min_size` alive members, yielding the alive member ids. PALID
    /// samples its seeds from buckets with more than five items.
    pub fn large_buckets(&self, min_size: usize) -> impl Iterator<Item = Vec<u32>> + '_ {
        self.tables.iter().flat_map(move |t| {
            t.buckets.values().filter_map(move |bucket| {
                let alive: Vec<u32> =
                    bucket.iter().copied().filter(|&id| self.alive[id as usize]).collect();
                (alive.len() >= min_size).then_some(alive)
            })
        })
    }

    /// Distinct non-empty bucket count (diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.tables.iter().map(|t| t.buckets.len()).sum()
    }
}

/// `alid_work_total{phase="lsh",unit="bucket_entries"}`: bucket
/// entries visited by `query_into`, `multi_query` and
/// `insert_and_query`, tombstones included, added once per call.
/// Registered by the first query, so `/metrics` reports 0 rather than
/// omitting the series.
fn bucket_entries() -> &'static alid_obs::Counter {
    static COUNTER: OnceLock<Arc<alid_obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        alid_obs::global().counter(
            "alid_work_total",
            "Hardware-independent work done, by phase and unit",
            &[("phase", "lsh"), ("unit", "bucket_entries")],
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight blobs far apart plus one extreme outlier.
    fn blob_dataset() -> Dataset {
        let mut ds = Dataset::new(2);
        for i in 0..20 {
            let t = i as f64 * 0.01;
            ds.push(&[t, -t]); // blob A near the origin
        }
        for i in 0..20 {
            let t = i as f64 * 0.01;
            ds.push(&[50.0 + t, 50.0 - t]); // blob B far away
        }
        ds.push(&[1e4, -1e4]); // outlier
        ds
    }

    fn build(ds: &Dataset, r: f64) -> LshIndex {
        LshIndex::build(ds, LshParams::new(8, 6, r, 42), &CostModel::shared())
    }

    #[test]
    fn near_points_collide_far_points_do_not() {
        let ds = blob_dataset();
        let idx = build(&ds, 1.0);
        let hits = idx.query(ds.get(0));
        // Item 0's blob-mates should dominate the result.
        let blob_a_hits = hits.iter().filter(|&&h| h < 20).count();
        assert!(blob_a_hits >= 15, "expected most of blob A, got {blob_a_hits}");
        assert!(!hits.contains(&40), "the far outlier must not collide with the origin blob");
    }

    #[test]
    fn query_results_are_sorted_and_deduped() {
        let ds = blob_dataset();
        let idx = build(&ds, 2.0);
        let hits = idx.query(ds.get(3));
        let mut sorted = hits.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(hits, sorted);
    }

    #[test]
    fn tombstones_filter_queries() {
        let ds = blob_dataset();
        let mut idx = build(&ds, 1.0);
        assert!(idx.query(ds.get(0)).contains(&1));
        idx.remove(1);
        idx.remove(1); // idempotent
        assert!(!idx.query(ds.get(0)).contains(&1));
        assert_eq!(idx.alive_count(), ds.len() - 1);
        idx.restore_all();
        assert!(idx.query(ds.get(0)).contains(&1));
        assert_eq!(idx.alive_count(), ds.len());
    }

    #[test]
    fn multi_query_unions_results() {
        let ds = blob_dataset();
        let idx = build(&ds, 1.0);
        let a = idx.query(ds.get(0));
        let b = idx.query(ds.get(25));
        let union = idx.multi_query([ds.get(0), ds.get(25)]);
        for h in a.iter().chain(&b) {
            assert!(union.contains(h));
        }
        let mut sorted = union.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(union, sorted);
    }

    #[test]
    fn multi_query_counts_at_least_its_distinct_buckets() {
        let ds = blob_dataset();
        let idx = build(&ds, 1.0);
        // Near-duplicate and repeated queries share buckets.
        let queries = [ds.get(0), ds.get(1), ds.get(0), ds.get(25)];
        let mut signature = vec![0u64; idx.params.projections];
        let mut keys: Vec<(usize, u64)> = Vec::new();
        for q in queries {
            for t in 0..idx.tables.len() {
                keys.push((t, idx.key_into(t, q, &mut signature)));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let distinct: usize =
            keys.iter().map(|&(t, key)| idx.tables[t].buckets.get(&key).map_or(0, Vec::len)).sum();
        // Other tests share the process-global counter, so only a lower
        // bound holds.
        let before = bucket_entries().metric_value();
        let _ = idx.multi_query(queries);
        assert!(bucket_entries().metric_value() - before >= distinct as u64);
    }

    #[test]
    fn neighbor_lists_exclude_self_and_respect_tombstones() {
        let ds = blob_dataset();
        let mut idx = build(&ds, 1.0);
        idx.remove(2);
        let lists = idx.neighbor_lists(&ds);
        assert!(lists[2].is_empty(), "tombstoned items get empty lists");
        assert!(!lists[0].contains(&0), "self excluded");
        assert!(!lists[0].contains(&2), "tombstoned neighbours excluded");
    }

    #[test]
    fn large_buckets_find_the_blobs() {
        let ds = blob_dataset();
        let idx = build(&ds, 2.0);
        let mut saw_blob = false;
        for bucket in idx.large_buckets(6) {
            let all_a = bucket.iter().all(|&id| id < 20);
            let all_b = bucket.iter().all(|&id| (20..40).contains(&id));
            if all_a || all_b {
                saw_blob = true;
            }
        }
        assert!(saw_blob, "at least one large bucket should be blob-pure");
    }

    #[test]
    fn insert_makes_items_queryable() {
        let ds = blob_dataset();
        let mut idx = build(&ds, 1.0);
        let n0 = idx.len();
        let new_point = [0.005, -0.005]; // inside blob A
        let id = idx.insert(&new_point);
        assert_eq!(id as usize, n0);
        assert_eq!(idx.len(), n0 + 1);
        assert_eq!(idx.alive_count(), n0 + 1);
        assert!(idx.is_alive(id));
        // The new item collides with its blob...
        let hits = idx.query(&new_point);
        assert!(hits.contains(&id));
        assert!(hits.iter().any(|&h| h < 20), "blob A neighbours found");
        // ...and queries from old blob members see it.
        assert!(idx.query(ds.get(0)).contains(&id));
    }

    #[test]
    fn insert_equivalent_to_batch_build() {
        // Building an index over n+1 points must hash the last item into
        // the same buckets as building over n points and inserting it.
        let mut full = Dataset::new(2);
        for i in 0..30 {
            full.push(&[i as f64 * 0.01, 1.0]);
        }
        let prefix = full.subset(&(0..29).collect::<Vec<_>>());
        let params = LshParams::new(6, 4, 0.7, 99);
        let batch = LshIndex::build(&full, params, &CostModel::shared());
        let mut incremental = LshIndex::build(&prefix, params, &CostModel::shared());
        incremental.insert(full.get(29));
        for probe in 0..30 {
            assert_eq!(
                batch.query(full.get(probe)),
                incremental.query(full.get(probe)),
                "query {probe} diverged"
            );
        }
    }

    /// One hashing pass gives what `insert` then `query` give, with
    /// tombstones in place and after they are cleared, and visits at
    /// least the entries of the buckets the item joined.
    #[test]
    fn insert_and_query_equals_insert_then_query() {
        let ds = blob_dataset();
        let mut fused = build(&ds, 1.0);
        let mut twin = build(&ds, 1.0);
        for id in [0, 1, 5, 22, 40] {
            fused.remove(id);
            twin.remove(id);
        }
        let probes = [[0.005, -0.005], [50.01, 49.99], [3.0, 3.0], [0.015, -0.015]];
        for (round, probe) in probes.iter().enumerate() {
            if round == 2 {
                fused.restore_all();
                twin.restore_all();
            }
            let mut signature = vec![0u64; fused.params.projections];
            let before = bucket_entries().metric_value();
            let (id, hits) = fused.insert_and_query(probe);
            let visited: usize = (0..fused.tables.len())
                .map(|t| fused.tables[t].buckets[&fused.key_into(t, probe, &mut signature)].len())
                .sum();
            assert!(bucket_entries().metric_value() - before >= visited as u64);
            let twin_id = twin.insert(probe);
            assert_eq!((id, &hits), (twin_id, &twin.query(probe)), "probe {round}");
            assert!(hits.contains(&id), "probe {round}: the item is its own bucket-mate");
            assert_eq!(fused.alive_count(), twin.alive_count());
        }
        for v in ds.iter().chain(probes.iter().map(|p| &p[..])) {
            assert_eq!(fused.query(v), twin.query(v), "buckets diverged at {v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn insert_rejects_wrong_dim() {
        let ds = blob_dataset();
        let mut idx = build(&ds, 1.0);
        let _ = idx.insert(&[1.0]);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let ds = blob_dataset();
        let a = build(&ds, 1.0);
        let b = build(&ds, 1.0);
        assert_eq!(a.query(ds.get(7)), b.query(ds.get(7)));
        assert_eq!(a.bucket_count(), b.bucket_count());
    }

    #[test]
    fn aux_bytes_are_recorded() {
        let ds = blob_dataset();
        let cost = CostModel::shared();
        let _idx = LshIndex::build(&ds, LshParams::new(4, 3, 1.0, 7), &cost);
        let expect = (ds.len() * 4 * 4 + ds.len()) as u64;
        assert_eq!(cost.snapshot().aux_bytes, expect);
    }

    #[test]
    fn insert_records_aux_growth_and_tombstones_free_nothing() {
        let ds = blob_dataset();
        let cost = CostModel::shared();
        let mut idx = LshIndex::build(&ds, LshParams::new(4, 3, 1.0, 7), &cost);
        let base = cost.snapshot().aux_bytes;
        for i in 0..10 {
            idx.insert(&[i as f64 * 0.01, -(i as f64) * 0.01]);
        }
        let per_insert = (4 * 4 + 1) as u64; // 4 tables x u32 id + tombstone byte
        assert_eq!(cost.snapshot().aux_bytes, base + 10 * per_insert);
        // Tombstoning keeps the ids in the bucket lists, so the bytes
        // stay allocated — no free is recorded.
        idx.remove(0);
        idx.remove(41);
        assert_eq!(cost.snapshot().aux_bytes, base + 10 * per_insert);
    }

    #[test]
    fn empirical_collision_rate_tracks_theory() {
        // Pairs at distance u should collide under a single hash function
        // with probability close to collision_probability(u, r).
        use crate::collision::collision_probability;
        let r = 1.5;
        let u = 1.0;
        let trials = 600u64;
        let mut collisions = 0;
        for t in 0..trials {
            // Each trial draws a fresh hash function (fresh seed) for an
            // isolated pair at distance exactly u.
            let angle = t as f64;
            let ds = Dataset::from_flat(2, vec![0.0, 0.0, u * angle.cos(), u * angle.sin()]);
            let idx = LshIndex::build(&ds, LshParams::new(1, 1, r, 1000 + t), &CostModel::shared());
            if idx.query(ds.get(0)).contains(&1) {
                collisions += 1;
            }
        }
        let empirical = collisions as f64 / trials as f64;
        let theory = collision_probability(u, r);
        assert!(
            (empirical - theory).abs() < 0.08,
            "empirical {empirical:.3} vs theory {theory:.3}"
        );
    }
}
