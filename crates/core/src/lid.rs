//! Localized Infection Immunization Dynamics — Algorithm 1.
//!
//! LID solves the StQP `max π(x) = xᵀAx` restricted to a local range
//! `β`, never materialising `A_{ββ}`: the state carries the product
//! vector `g = A_{βα} x_α` and each iteration touches at most one fresh
//! matrix column (Fig. 3). A single iteration is `O(|β|)` time.
//!
//! Derivations used below (all from Section 4.1):
//!
//! * `π(s_i − x, x) = g_i − π(x)`                             (Eq. 10)
//! * `π(s_i − x)    = −2 g_i + π(x)`                          (Eq. 11, `a_ii = 0`)
//! * co-vertex factors: `π(s_i(x) − x, x) = μ (g_i − π)` and
//!   `π(s_i(x) − x) = μ² π(s_i − x)` with `μ = x_i / (x_i − 1)` (Eq. 12)
//! * invasion share `ε_y(x)` by Eq. 9, guaranteeing `π` strictly
//!   increases and `y` leaves the infective set (Theorem 2).

use alid_affinity::local::LocalAffinity;
use alid_affinity::simplex;

/// Mutable LID state over a local range `β`: the subgraph weights and
/// the product vector, both indexed by *local* position in `β`.
#[derive(Clone, Debug)]
pub struct LidState {
    /// Subgraph weights `x ∈ Δ^β` (local positions).
    pub x: Vec<f64>,
    /// `g = A_{βα} x_α` (local positions).
    pub g: Vec<f64>,
}

impl LidState {
    /// The singleton start state of Algorithm 2, line 1: `β = {i}`,
    /// `x = s_i`, `A_{βα} x_α = a_ii = 0`. Only a singleton range keeps
    /// the `g = A_{βα} x_α` invariant with zeroed `g`; use
    /// [`LidState::from_vertex`] for larger ranges.
    pub fn seed(beta_len: usize) -> Self {
        assert_eq!(
            beta_len, 1,
            "seed() is the singleton initialisation; use from_vertex for |β| > 1"
        );
        Self { x: simplex::vertex(1, 0), g: vec![0.0; 1] }
    }

    /// Start state with all mass on local position `i` of an arbitrary
    /// range: `x = s_i`, `g = A_{β i}` (the column of the start vertex).
    pub fn from_vertex(aff: &mut LocalAffinity<'_>, i: usize) -> Self {
        let n = aff.len();
        let g = aff.column(aff.global(i)).to_vec();
        Self { x: simplex::vertex(n, i), g }
    }

    /// Current density `π(x) = xᵀ A_{ββ} x = Σ_i x_i g_i`.
    pub fn density(&self) -> f64 {
        simplex::dot(&self.x, &self.g)
    }

    /// Local positions of the support `α`.
    pub fn support(&self) -> Vec<usize> {
        simplex::support(&self.x)
    }
}

/// What a LID run reports back.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LidOutcome {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Final density `π(x̂)`.
    pub density: f64,
    /// `true` when `γ_β(x̂) = ∅` up to tolerance (Theorem 1's local
    /// optimality), `false` when the iteration cap `T` hit first.
    pub converged: bool,
}

/// One infection–immunization step (the body of Algorithm 1).
///
/// Returns `None` when `x` is already immune against every vertex of `β`
/// up to `tol`, otherwise performs the invasion and returns the new
/// density.
pub fn lid_step(aff: &mut LocalAffinity<'_>, state: &mut LidState, tol: f64) -> Option<f64> {
    let pi = state.density();
    step(aff, state, pi, tol)
}

/// [`lid_step`] on a state whose density `pi = x·g` the caller already
/// holds: the density a step returns is the next step's `pi`, bit for
/// bit, so [`lid_converge`] carries it instead of recomputing it.
fn step(aff: &mut LocalAffinity<'_>, state: &mut LidState, pi: f64, tol: f64) -> Option<f64> {
    let scale = tol * (1.0 + pi.abs());

    // Select M(x) per Eq. 6: the vertex maximising |π(s_i − x, x)| over
    // C1 (infective) ∪ C2 (weak support members).
    let mut best_infect: Option<(usize, f64)> = None; // (local i, g_i − π)
    let mut best_weak: Option<(usize, f64)> = None; // (local i, π − g_i)
    for (i, (&gi, &xi)) in state.g.iter().zip(&state.x).enumerate() {
        let d = gi - pi;
        if d > scale {
            if best_infect.is_none_or(|(_, b)| d > b) {
                best_infect = Some((i, d));
            }
        } else if d < -scale && xi > simplex::SUPPORT_EPS && best_weak.is_none_or(|(_, b)| -d > b) {
            best_weak = Some((i, -d));
        }
    }

    let infect = match (best_infect, best_weak) {
        (None, None) => return None,
        (Some(inf), None) => Ok(inf),
        (None, Some(weak)) => Err(weak),
        (Some(inf), Some(weak)) => {
            if inf.1 >= weak.1 {
                Ok(inf)
            } else {
                Err(weak)
            }
        }
    };

    match infect {
        // ---- Infection: y = s_i (Case 1 of Eq. 9) -------------------
        Ok((i, d)) => {
            let gi = state.g[i];
            let pi_y_minus_x = -2.0 * gi + pi; // Eq. 11
            let eps = if pi_y_minus_x < 0.0 { (-d / pi_y_minus_x).min(1.0) } else { 1.0 };
            let col = aff.column(aff.global(i));
            for (g, &c) in state.g.iter_mut().zip(col) {
                *g = (1.0 - eps) * *g + eps * c; // Eq. 14, y = s_i
            }
            simplex::invade_vertex(&mut state.x, i, eps); // Eq. 13
        }
        // ---- Immunization: y = s_i(x) (Case 2 of Eq. 9) -------------
        Err((i, neg_d)) => {
            let xi = state.x[i];
            debug_assert!(xi > 0.0 && xi < 1.0, "weak vertex must have weight in (0,1)");
            let mu = xi / (xi - 1.0); // < 0
            let d = -neg_d; // g_i − π < 0
            let num = mu * d; // π(s_i(x) − x, x) > 0  (Eq. 12)
            let den = mu * mu * (-2.0 * state.g[i] + pi); // π(s_i(x) − x)
            let eps = if den < 0.0 { (-num / den).min(1.0) } else { 1.0 };
            let col = aff.column(aff.global(i));
            let step = mu * eps;
            for (g, &c) in state.g.iter_mut().zip(col) {
                *g += step * (c - *g); // Eq. 14, y = s_i(x)
            }
            simplex::invade_covertex(&mut state.x, i, eps);
        }
    }
    Some(state.density())
}

/// Runs Algorithm 1 until the local infective set empties or `max_iters`
/// is reached, returning the outcome. The state is left at the local
/// dense subgraph `x̂`.
pub fn lid_converge(
    aff: &mut LocalAffinity<'_>,
    state: &mut LidState,
    max_iters: usize,
    tol: f64,
) -> LidOutcome {
    debug_assert_eq!(state.x.len(), aff.len(), "state/range size mismatch");
    let mut iterations = 0;
    let mut converged = false;
    let mut pi = state.density();
    while iterations < max_iters {
        match step(aff, state, pi, tol) {
            Some(next) => {
                pi = next;
                iterations += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }
    // Hygiene after many multiplicative updates.
    simplex::renormalize(&mut state.x);
    LidOutcome { iterations, density: state.density(), converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_affinity::cost::CostModel;
    use alid_affinity::dense::DenseAffinity;
    use alid_affinity::kernel::LaplacianKernel;
    use alid_affinity::vector::Dataset;
    use std::sync::Arc;

    /// 1-d data: a tight triple {0, 0.1, 0.2} plus a far singleton at 10.
    fn fixture() -> (Dataset, LaplacianKernel) {
        (Dataset::from_flat(1, vec![0.0, 0.1, 0.2, 10.0]), LaplacianKernel::l2(1.0))
    }

    fn local<'a>(ds: &'a Dataset, k: LaplacianKernel, beta: Vec<u32>) -> LocalAffinity<'a> {
        LocalAffinity::new(ds, k, CostModel::shared(), beta)
    }

    #[test]
    fn seed_state_is_singleton_with_zero_density() {
        let s = LidState::seed(1);
        assert_eq!(s.x, vec![1.0]);
        assert_eq!(s.density(), 0.0);
        assert_eq!(s.support(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "singleton")]
    fn seed_rejects_wide_ranges() {
        let _ = LidState::seed(4);
    }

    #[test]
    fn from_vertex_establishes_the_g_invariant() {
        let (ds, k) = fixture();
        let mut aff = local(&ds, k, vec![0, 1, 2, 3]);
        let state = LidState::from_vertex(&mut aff, 1);
        let dense = DenseAffinity::build(&ds, &k, CostModel::shared());
        for (li, &gi) in state.g.iter().enumerate() {
            assert!((gi - dense.get(li, 1)).abs() < 1e-12);
        }
        assert_eq!(state.support(), vec![1]);
    }

    #[test]
    fn density_increases_monotonically() {
        let (ds, k) = fixture();
        let mut aff = local(&ds, k, vec![0, 1, 2, 3]);
        let mut state = LidState::from_vertex(&mut aff, 0);
        let mut last = state.density();
        for _ in 0..100 {
            match lid_step(&mut aff, &mut state, 1e-12) {
                Some(pi) => {
                    assert!(pi > last - 1e-12, "π must not decrease: {pi} < {last}");
                    last = pi;
                }
                None => break,
            }
        }
    }

    #[test]
    fn converges_to_the_tight_cluster_not_the_outlier() {
        let (ds, k) = fixture();
        let mut aff = local(&ds, k, vec![0, 1, 2, 3]);
        let mut state = LidState::from_vertex(&mut aff, 0);
        let out = lid_converge(&mut aff, &mut state, 1000, 1e-10);
        assert!(out.converged);
        let sup = state.support();
        assert!(sup.contains(&0) && sup.contains(&1) && sup.contains(&2));
        assert!(!sup.contains(&3), "the far point must be immunized away");
        // A 3-clique with affinities ~0.9 has π ≈ 2/3 * 0.9 ≈ 0.58
        // (π of an m-clique is capped at (m-1)/m times the mean affinity).
        assert!(out.density > 0.55, "tight cluster density, got {}", out.density);
    }

    #[test]
    fn incremental_g_matches_recomputed_product() {
        let (ds, k) = fixture();
        let mut aff = local(&ds, k, vec![0, 1, 2, 3]);
        let mut state = LidState::from_vertex(&mut aff, 0);
        for _ in 0..50 {
            if lid_step(&mut aff, &mut state, 1e-12).is_none() {
                break;
            }
            // Recompute g = A_{β,sup} x_sup from scratch and compare.
            let dense = DenseAffinity::build(&ds, &k, CostModel::shared());
            for (li, &gi) in state.g.iter().enumerate() {
                let mut want = 0.0;
                for (lj, &xj) in state.x.iter().enumerate() {
                    want += dense.get(li, lj) * xj;
                }
                assert!((gi - want).abs() < 1e-9, "g[{li}] drifted: {gi} vs {want}");
            }
        }
    }

    #[test]
    fn converged_state_is_immune_against_all_local_vertices() {
        let (ds, k) = fixture();
        let mut aff = local(&ds, k, vec![0, 1, 2, 3]);
        let mut state = LidState::from_vertex(&mut aff, 0);
        let out = lid_converge(&mut aff, &mut state, 1000, 1e-10);
        let pi = out.density;
        // Theorem 1: π(s_i − x̂, x̂) ≤ 0 for every i in β.
        for &gi in &state.g {
            assert!(gi - pi <= 1e-7 * (1.0 + pi), "infective vertex survived");
        }
    }

    #[test]
    fn matches_exhaustive_quadratic_maximum_on_tiny_graph() {
        // With 3 points, the simplex optimum can be approximated by grid
        // search; LID must land at least as high (it finds a local max,
        // and on this geometry the max is unique).
        let ds = Dataset::from_flat(1, vec![0.0, 0.5, 0.9]);
        let k = LaplacianKernel::l2(1.0);
        let dense = DenseAffinity::build(&ds, &k, CostModel::shared());
        let mut best = 0.0f64;
        let steps = 60;
        for a in 0..=steps {
            for b in 0..=(steps - a) {
                let x = [
                    a as f64 / steps as f64,
                    b as f64 / steps as f64,
                    (steps - a - b) as f64 / steps as f64,
                ];
                best = best.max(dense.quadratic_form(&x));
            }
        }
        let mut aff = local(&ds, k, vec![0, 1, 2]);
        let mut state = LidState::from_vertex(&mut aff, 0);
        let out = lid_converge(&mut aff, &mut state, 2000, 1e-12);
        assert!(
            out.density >= best - 1e-3,
            "LID {} fell short of grid optimum {best}",
            out.density
        );
    }

    #[test]
    fn x_stays_on_simplex_throughout() {
        let (ds, k) = fixture();
        let mut aff = local(&ds, k, vec![0, 1, 2, 3]);
        let mut state = LidState::from_vertex(&mut aff, 0);
        for _ in 0..200 {
            if lid_step(&mut aff, &mut state, 1e-12).is_none() {
                break;
            }
            assert!(simplex::is_on_simplex(&state.x, 1e-9));
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let (ds, k) = fixture();
        let mut aff = local(&ds, k, vec![0, 1, 2, 3]);
        let mut state = LidState::from_vertex(&mut aff, 0);
        let out = lid_converge(&mut aff, &mut state, 1, 1e-12);
        assert_eq!(out.iterations, 1);
        assert!(!out.converged);
    }

    #[test]
    fn only_selected_columns_are_computed() {
        let (ds, k) = fixture();
        let cost = CostModel::shared();
        let mut aff = LocalAffinity::new(&ds, k, Arc::clone(&cost), vec![0, 1, 2, 3]);
        let mut state = LidState::from_vertex(&mut aff, 0);
        let _ = lid_converge(&mut aff, &mut state, 1000, 1e-10);
        // Never more than |β| columns; the far point's column may or may
        // not be touched, but the full 4x4 matrix must not be.
        assert!(aff.cached_columns() <= 4);
        assert!(cost.snapshot().entries_current <= 16);
    }
}
