//! Bit-for-bit parity of the blocked kernel evaluator against the
//! scalar reference: odd dimensions, block-tail remainders, and
//! adversarial values (±0.0, denormals, huge magnitudes) honoring the
//! documented `== 0.0` support-skip contract.

use alid_affinity::block::{default_block_rows, BlockEval, LANES};
use alid_affinity::cost::CostModel;
use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_affinity::local::LocalAffinity;
use alid_affinity::vector::Dataset;
use proptest::prelude::*;

/// Entries stressing the edges the kernels and the support-skip
/// contract care about: exact ±0.0, positive and negative denormals,
/// huge magnitudes, and ordinary values.
fn entry() -> impl Strategy<Value = f64> {
    (0u8..8, -20.0f64..20.0).prop_map(|(sel, v)| match sel {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE / 2.0,
        3 => -f64::MIN_POSITIVE / 4.0,
        4 => v * 1e300,
        _ => v,
    })
}

/// `(dim, flat)` with odd dims included and a row count that leaves
/// remainders against every block size the properties sweep.
fn case() -> impl Strategy<Value = (usize, Vec<f64>)> {
    (1usize..12).prop_flat_map(|dim| {
        prop::collection::vec(entry(), dim..=dim * 67).prop_map(move |mut flat| {
            flat.truncate(flat.len() / dim * dim);
            (dim, flat)
        })
    })
}

proptest! {
    #[test]
    fn blocked_eval_matches_scalar_bitwise(case in case(), k in 0.01f64..5.0) {
        let (dim, flat) = case;
        let ds = Dataset::from_flat(dim, flat);
        let query = ds.get(ds.len() - 1).to_vec();
        let mut scratch = BlockEval::new();
        for norm in [LpNorm::L1, LpNorm::L2, LpNorm::P(2.5)] {
            let kern = LaplacianKernel::new(k, norm);
            let mut out = vec![0.0; ds.len()];
            for block in [1usize, 3, LANES, 7, default_block_rows(dim), 1024] {
                scratch.eval_rows_blocked(&kern, dim, ds.as_flat(), &query, &mut out, block);
                for (i, &got) in out.iter().enumerate() {
                    let want = kern.eval(ds.get(i), &query);
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "norm={:?} block={} row={}",
                        norm,
                        block,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_distances_match_scalar_bitwise(case in case()) {
        let (dim, flat) = case;
        let ds = Dataset::from_flat(dim, flat);
        let query = ds.get(0).to_vec();
        let ids: Vec<u32> = (0..ds.len() as u32).rev().collect();
        let mut scratch = BlockEval::new();
        for norm in [LpNorm::L1, LpNorm::L2, LpNorm::P(3.0)] {
            let mut out = vec![0.0; ds.len()];
            scratch.distances_rows(norm, dim, ds.as_flat(), &query, &mut out);
            for (i, &got) in out.iter().enumerate() {
                prop_assert_eq!(got.to_bits(), norm.distance(ds.get(i), &query).to_bits());
            }
            // Gathered (non-contiguous, here reversed) rows too.
            let mut gathered = vec![0.0; ids.len()];
            scratch.distances_indexed(norm, &ds, &ids, &query, &mut gathered);
            for (&id, &got) in ids.iter().zip(&gathered) {
                let want = norm.distance(ds.get(id as usize), &query);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn local_density_keeps_the_strict_support_filter(case in case(), k in 0.1f64..3.0) {
        let (dim, flat) = case;
        // density() filters weights by `x[i] > 0.0`: ±0.0 rows are
        // skipped, denormal weights participate. The blocked rewrite
        // must preserve both the filter and every accumulation bit.
        let ds = Dataset::from_flat(dim, flat);
        let n = ds.len();
        let kern = LaplacianKernel::new(k, LpNorm::L2);
        let beta: Vec<u32> = (0..n as u32).collect();
        let local = LocalAffinity::new(&ds, kern, CostModel::shared(), beta.clone());
        // Weights cycling through the adversarial cases.
        let x: Vec<f64> = (0..n)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE / 2.0,
                _ => 1.0 / (i + 1) as f64,
            })
            .collect();
        let got = local.density(&x);
        // Scalar reference: the pre-blocking implementation verbatim.
        let sup: Vec<usize> = (0..n).filter(|&i| x[i] > 0.0).collect();
        let mut want = 0.0;
        for (a, &i) in sup.iter().enumerate() {
            let vi = ds.get(beta[i] as usize);
            for &j in &sup[a + 1..] {
                want += x[i] * x[j] * kern.eval(vi, ds.get(beta[j] as usize));
            }
        }
        prop_assert_eq!(got.to_bits(), (2.0 * want).to_bits());
    }

    #[test]
    fn product_rows_cache_and_fresh_paths_match_scalar(case in case(), k in 0.1f64..3.0) {
        let (dim, flat) = case;
        let ds = Dataset::from_flat(dim, flat);
        let n = ds.len();
        let kern = LaplacianKernel::new(k, LpNorm::L2);
        let beta: Vec<u32> = (0..n as u32).collect();
        let mut local = LocalAffinity::new(&ds, kern, CostModel::shared(), beta);
        // Cache every other column so the product mixes cached rows
        // (served from the column cache) with fresh blocked rows.
        for g in (0..n as u32).step_by(2) {
            local.column(g);
        }
        let alpha: Vec<u32> = (0..n as u32).filter(|a| a % 3 != 1).collect();
        let w: Vec<f64> = alpha.iter().map(|&a| 1.0 / (a + 2) as f64).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let got = local.product_rows(&rows, &alpha, &w);
        for (&r, &gv) in rows.iter().zip(&got) {
            // Scalar reference: the pre-blocking implementation verbatim.
            let vr = ds.get(r as usize);
            let mut want = 0.0;
            for (&a, &wa) in alpha.iter().zip(&w) {
                if a == r {
                    continue;
                }
                want += wa * kern.eval(ds.get(a as usize), vr);
            }
            prop_assert_eq!(gv.to_bits(), want.to_bits(), "row {}", r);
        }
    }
}
