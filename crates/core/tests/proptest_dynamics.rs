//! Property-based tests of the game dynamics, the ROI guarantee and
//! the streaming immunity-ball bound on randomly generated instances.

use alid_affinity::block::BlockEval;
use alid_affinity::cost::CostModel;
use alid_affinity::dense::DenseAffinity;
use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_affinity::local::LocalAffinity;
use alid_affinity::simplex;
use alid_affinity::vector::Dataset;
use alid_core::lid::{lid_converge, lid_step, LidState};
use alid_core::roi::Roi;
use alid_core::ImmunityBall;
use proptest::prelude::*;

/// Random 2-d point sets of 4..=12 points in a [0, 5]^2 box.
fn points() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(0.0f64..5.0, 2 * 4..=2 * 12).prop_map(|flat| {
        let n = flat.len() / 2;
        Dataset::from_flat(2, flat[..2 * n].to_vec())
    })
}

/// A member set for the immunity-ball bound: a kernel (L1, L2 or
/// P(3), `k` log-uniform in [1e−3, 1e3]), 1–64 members of dimension
/// 1–16 spread uniformly around a centre, and probe points on top of
/// the members, far outside them and just beyond the farthest one.
/// `k` times the per-coordinate half-width is log-uniform in
/// [1e−4, 2e3], so member exponents `k·‖v_j − D‖` run from negligible
/// past the `f64` overflow at 709.78.
fn ball_case() -> impl Strategy<Value = (LaplacianKernel, Dataset, Vec<Vec<f64>>)> {
    (1usize..=16, 1usize..=64, 0usize..3, -3.0f64..3.0, -4.0f64..3.3, 0u64..u64::MAX).prop_map(
        |(dim, m, norm, log_k, log_ks, seed)| {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let norm = [LpNorm::L1, LpNorm::L2, LpNorm::P(3.0)][norm];
            let k = 10f64.powf(log_k);
            let spread = 10f64.powf(log_ks) / k;
            let mut rng = StdRng::seed_from_u64(seed);
            let centre: Vec<f64> = (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut data = Dataset::new(dim);
            for _ in 0..m {
                let row: Vec<f64> =
                    centre.iter().map(|c| c + spread * rng.gen_range(-1.0..1.0)).collect();
                data.push(&row);
            }
            let kernel = LaplacianKernel::new(k, norm);
            // The member farthest from the centroid: probes just
            // outward of it have `e^{−k‖v − D‖}` underflow on its own
            // while `S/m` is still a normal float.
            let ball = ImmunityBall::of(&kernel, &data, &(0..m as u32).collect::<Vec<_>>());
            let far = (0..m)
                .max_by(|&a, &b| {
                    let d = |i: usize| norm.distance(data.get(i), &ball.center);
                    d(a).total_cmp(&d(b))
                })
                .map(|i| data.get(i).to_vec())
                .expect("at least one member");
            let probes = (0..9)
                .map(|p| match p % 3 {
                    // Near a member.
                    0 => {
                        let base = data.get(rng.gen_range(0..m)).to_vec();
                        let reach = spread * 10f64.powf(rng.gen_range(-4.0..0.0));
                        base.iter().map(|b| b + reach * rng.gen_range(-1.0..1.0)).collect()
                    }
                    // Up to 300 spreads from the centre.
                    1 => {
                        let reach = spread * 10f64.powf(rng.gen_range(-1.0..2.5));
                        centre.iter().map(|c| c + reach * rng.gen_range(-1.0..1.0)).collect()
                    }
                    // Outward of the farthest member.
                    _ => {
                        let t = 10f64.powf(rng.gen_range(-3.0..0.0));
                        far.iter().zip(&ball.center).map(|(f, d)| f + t * (f - d)).collect()
                    }
                })
                .collect();
            (kernel, data, probes)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 2: every LID step strictly increases π (up to the
    /// numerical tolerance used for selection).
    #[test]
    fn lid_density_is_monotone(ds in points(), k in 0.2f64..2.0, start in 0usize..4) {
        let kernel = LaplacianKernel::l2(k);
        let beta: Vec<u32> = (0..ds.len() as u32).collect();
        let mut aff = LocalAffinity::new(&ds, kernel, CostModel::shared(), beta);
        let start = start % ds.len();
        let mut state = LidState::from_vertex(&mut aff, start);
        let mut last = state.density();
        for _ in 0..100 {
            match lid_step(&mut aff, &mut state, 1e-10) {
                Some(pi) => {
                    prop_assert!(pi >= last - 1e-9, "π decreased: {pi} < {last}");
                    last = pi;
                }
                None => break,
            }
        }
    }

    /// LID's converged state is a KKT point of the StQP: no vertex in
    /// the range is infective (Theorem 1).
    #[test]
    fn lid_converges_to_kkt_point(ds in points(), k in 0.2f64..2.0) {
        let kernel = LaplacianKernel::l2(k);
        let beta: Vec<u32> = (0..ds.len() as u32).collect();
        let mut aff = LocalAffinity::new(&ds, kernel, CostModel::shared(), beta);
        let mut state = LidState::from_vertex(&mut aff, 0);
        let out = lid_converge(&mut aff, &mut state, 20_000, 1e-10);
        prop_assume!(out.converged);
        let pi = out.density;
        // Verify against the *full* matrix, not the incremental g.
        let dense = DenseAffinity::build(&ds, &kernel, CostModel::shared());
        let mut ax = vec![0.0; ds.len()];
        dense.matvec(&state.x, &mut ax);
        for (i, &a) in ax.iter().enumerate() {
            prop_assert!(
                a - pi <= 1e-6 * (1.0 + pi),
                "vertex {i} still infective: (Ax)_i = {a}, π = {pi}"
            );
            if state.x[i] > 1e-9 {
                // Support members sit exactly at the density (KKT
                // complementarity).
                prop_assert!(
                    (a - pi).abs() <= 1e-6 * (1.0 + pi),
                    "support vertex {i} off the density: {a} vs {pi}"
                );
            }
        }
        prop_assert!(simplex::is_on_simplex(&state.x, 1e-9));
    }

    /// Proposition 1 on random instances: items inside the inner ball
    /// are infective, items outside the outer ball are immune.
    #[test]
    fn roi_double_deck_guarantee(ds in points(), k in 0.2f64..2.0) {
        let kernel = LaplacianKernel::l2(k);
        let beta: Vec<u32> = (0..ds.len() as u32).collect();
        let mut aff = LocalAffinity::new(&ds, kernel, CostModel::shared(), beta.clone());
        let mut state = LidState::from_vertex(&mut aff, 0);
        let out = lid_converge(&mut aff, &mut state, 20_000, 1e-12);
        prop_assume!(out.converged && out.density > 1e-6);
        let sup = state.support();
        let alpha: Vec<u32> = sup.iter().map(|&p| beta[p]).collect();
        let weights: Vec<f64> = sup.iter().map(|&p| state.x[p]).collect();
        let roi = Roi::estimate(&ds, &kernel, &alpha, &weights, out.density);
        prop_assert!(roi.r_out >= roi.r_in);

        let dense = DenseAffinity::build(&ds, &kernel, CostModel::shared());
        let mut x_full = vec![0.0; ds.len()];
        for (&a, &w) in alpha.iter().zip(&weights) {
            x_full[a as usize] = w;
        }
        let mut ax = vec![0.0; ds.len()];
        dense.matvec(&x_full, &mut ax);
        let pi = dense.quadratic_form(&x_full);
        for (j, &axj) in ax.iter().enumerate() {
            let dist = kernel.norm.distance(ds.get(j), &roi.center);
            if dist < roi.r_in - 1e-9 {
                prop_assert!(axj - pi > -1e-7, "inner-ball item {j} not infective");
            }
            if dist > roi.r_out + 1e-9 {
                prop_assert!(axj - pi < 1e-7, "outer-ball item {j} not immune");
            }
        }
    }

    /// The incremental product vector g never drifts from the direct
    /// product A_{β,sup} x_sup.
    #[test]
    fn lid_product_vector_stays_exact(ds in points(), k in 0.2f64..2.0) {
        let kernel = LaplacianKernel::l2(k);
        let beta: Vec<u32> = (0..ds.len() as u32).collect();
        let mut aff = LocalAffinity::new(&ds, kernel, CostModel::shared(), beta);
        let mut state = LidState::from_vertex(&mut aff, 0);
        let _ = lid_converge(&mut aff, &mut state, 500, 1e-10);
        let dense = DenseAffinity::build(&ds, &kernel, CostModel::shared());
        let mut want = vec![0.0; ds.len()];
        dense.matvec(&state.x, &mut want);
        for (g, w) in state.g.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-7, "g drifted: {g} vs {w}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Proposition 1's outer-ball bound under uniform weights: the
    /// attachment payoff `S/m`, summed through `BlockEval::eval_indexed`
    /// as `StreamingAlid::best_infective` sums it, never exceeds the
    /// immunity ball's bound times (1 + 1e−9) while it is a normal
    /// float, so the ball never excludes a density the kernel test
    /// would accept; and a non-finite `λ` excludes nothing.
    #[test]
    fn immunity_ball_bounds_the_uniform_payoff(case in ball_case()) {
        let (kernel, data, probes) = case;
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let ball = ImmunityBall::of(&kernel, &data, &ids);
        let m = ids.len() as f64;
        let mut scratch = BlockEval::new();
        let mut vals = vec![0.0; ids.len()];
        for v in &probes {
            scratch.eval_indexed(&kernel, &data, &ids, v, &mut vals);
            let s: f64 = vals.iter().sum();
            let payoff = s / m;
            if ball.ln_lambda.is_finite() && payoff >= f64::MIN_POSITIVE {
                let bound = ball.bound(&kernel, v);
                prop_assert!(
                    payoff <= bound * (1.0 + 1e-9),
                    "S/m = {payoff:e} above the bound {bound:e} (k = {}, ln λ = {})",
                    kernel.k,
                    ball.ln_lambda
                );
            }
            prop_assert!(!ball.excludes(&kernel, v, payoff), "excluded an accepted density {payoff:e}");
            if !ball.ln_lambda.is_finite() {
                for density in [payoff, 1.0, f64::MAX] {
                    prop_assert!(!ball.excludes(&kernel, v, density), "a non-finite λ excluded");
                }
            }
        }
    }
}
