//! Property-based tests of the LSH substrates: determinism, tombstone
//! laws, the multi-query union, and locality (nearer pairs collide at
//! least as often as far pairs, on average over hash draws).

use alid_affinity::cost::CostModel;
use alid_affinity::vector::Dataset;
use alid_lsh::collision::collision_probability;
use alid_lsh::{LshIndex, LshParams};
use proptest::prelude::*;

fn dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(-10.0f64..10.0, 3 * 5..=3 * 20).prop_map(|flat| {
        let n = flat.len() / 3;
        Dataset::from_flat(3, flat[..3 * n].to_vec())
    })
}

/// A few base rows plus copies of them: exact duplicates and
/// near-duplicates (a per-coordinate jitter of at most 1e-3), the rows
/// whose queries repeat `(table, key)` pairs in a multi-query.
fn dataset_with_duplicates() -> impl Strategy<Value = Dataset> {
    let base = prop::collection::vec(-10.0f64..10.0, 3 * 2..=3 * 6);
    let copies = prop::collection::vec((0usize..1000, 0u8..2, -1e-3f64..1e-3), 10..=40);
    (base, copies).prop_map(|(base, copies)| {
        let rows = base.len() / 3;
        let mut ds = Dataset::new(3);
        for r in 0..rows {
            ds.push(&base[3 * r..3 * r + 3]);
        }
        for (pick, near, jitter) in copies {
            let row = &base[3 * (pick % rows)..3 * (pick % rows) + 3];
            if near == 0 {
                ds.push(row);
            } else {
                ds.push(&row.iter().map(|v| v + jitter).collect::<Vec<_>>());
            }
        }
        ds
    })
}

/// The sorted, deduplicated union of `query(v)` over `support`.
fn union_of_queries(idx: &LshIndex, ds: &Dataset, support: &[usize]) -> Vec<u32> {
    let mut union: Vec<u32> = support.iter().flat_map(|&i| idx.query(ds.get(i))).collect();
    union.sort_unstable();
    union.dedup();
    union
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `multi_query` over a support is exactly the union of its members'
    /// single queries — with repeated support members, with a random
    /// tombstoned subset, and again after `restore_all`.
    #[test]
    fn multi_query_is_the_union_of_queries(
        ds in dataset_with_duplicates(),
        shape in (1usize..=4, 1usize..=4),
        seed in 0u64..1000,
        picks in prop::collection::vec(0usize..1000, 1..=12),
        dead in prop::collection::vec(0usize..1000, 0..=15),
    ) {
        let (tables, projections) = shape;
        let params = LshParams::new(tables, projections, 1.0, seed);
        let mut idx = LshIndex::build(&ds, params, &CostModel::shared());
        let support: Vec<usize> = picks.iter().map(|&p| p % ds.len()).collect();
        let multi = |idx: &LshIndex| idx.multi_query(support.iter().map(|&i| ds.get(i)));
        prop_assert_eq!(multi(&idx), union_of_queries(&idx, &ds, &support), "no tombstones");
        for &d in &dead {
            idx.remove((d % ds.len()) as u32);
        }
        prop_assert_eq!(multi(&idx), union_of_queries(&idx, &ds, &support), "tombstoned");
        idx.restore_all();
        prop_assert_eq!(multi(&idx), union_of_queries(&idx, &ds, &support), "restored");
    }

    /// Every item collides with itself (recall of the query point is 1).
    #[test]
    fn self_collision_always(ds in dataset(), seed in 0u64..1000) {
        let idx = LshIndex::build(&ds, LshParams::new(4, 4, 1.0, seed), &CostModel::shared());
        for i in 0..ds.len() {
            let hits = idx.query(ds.get(i));
            prop_assert!(hits.contains(&(i as u32)), "item {i} missing from its own query");
        }
    }

    /// Query results are sorted, deduplicated, and only contain alive ids.
    #[test]
    fn query_output_wellformed(ds in dataset(), seed in 0u64..1000, dead in 0usize..5) {
        let mut idx =
            LshIndex::build(&ds, LshParams::new(4, 4, 1.0, seed), &CostModel::shared());
        let dead = dead % ds.len();
        idx.remove(dead as u32);
        for i in 0..ds.len() {
            let hits = idx.query(ds.get(i));
            let mut sorted = hits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&hits, &sorted);
            prop_assert!(!hits.contains(&(dead as u32)));
            prop_assert!(hits.iter().all(|&h| (h as usize) < ds.len()));
        }
    }

    /// Tombstoning then restoring returns exactly the original result.
    #[test]
    fn restore_undoes_removal(ds in dataset(), seed in 0u64..1000) {
        let mut idx =
            LshIndex::build(&ds, LshParams::new(4, 4, 1.0, seed), &CostModel::shared());
        let before = idx.query(ds.get(0));
        for i in 0..ds.len() as u32 {
            idx.remove(i);
        }
        prop_assert!(idx.query(ds.get(0)).is_empty());
        idx.restore_all();
        prop_assert_eq!(idx.query(ds.get(0)), before);
    }

    /// The theoretical collision model is monotone: for any r, nearer
    /// distances never have lower collision probability.
    #[test]
    fn collision_model_monotone(r in 0.05f64..5.0, d1 in 0.0f64..10.0, d2 in 0.0f64..10.0) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(collision_probability(near, r) >= collision_probability(far, r) - 1e-12);
    }
}
