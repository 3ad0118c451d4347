//! Property-based tests of the LSH substrates: determinism, tombstone
//! laws, and locality (nearer pairs collide at least as often as far
//! pairs, on average over hash draws).

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
