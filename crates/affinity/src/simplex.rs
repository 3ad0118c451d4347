//! Utilities for vectors on the standard simplex.
//!
//! A subgraph of the affinity graph is represented by a point
//! `x` of the standard simplex `Δⁿ = { x : Σ x_i = 1, x_i ≥ 0 }`
//! (Section 3): `x_i` is the probabilistic membership of vertex `i`. The
//! evolutionary-game dynamics (RD, IID, LID) all evolve such vectors, and
//! they accumulate floating-point drift; these helpers centralise the
//! hygiene — clamping, renormalisation, support extraction — with one
//! shared tolerance.

/// Weights below this are treated as "not in the support". The invasion
/// model zeroes weights exactly when `eps = 1` (Theorem 2), but partial
/// invasions leave dust.
pub const SUPPORT_EPS: f64 = 1e-12;

/// Returns `true` if `x` lies on the simplex up to `tol` (component
/// non-negativity up to `-tol`, sum within `tol` of one).
pub fn is_on_simplex(x: &[f64], tol: f64) -> bool {
    let mut sum = 0.0;
    for &v in x {
        if v < -tol || !v.is_finite() {
            return false;
        }
        sum += v;
    }
    (sum - 1.0).abs() <= tol
}

/// Clamps tiny negatives to zero and rescales so the entries sum to one.
/// Vectors whose mass collapsed to zero are reset to the barycenter.
pub fn renormalize(x: &mut [f64]) {
    let mut sum = 0.0;
    for v in x.iter_mut() {
        if *v < SUPPORT_EPS {
            *v = 0.0;
        }
        sum += *v;
    }
    if sum <= 0.0 {
        let u = 1.0 / x.len() as f64;
        x.fill(u);
        return;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Positions with weight above [`SUPPORT_EPS`] — the support `α` of the
/// subgraph.
pub fn support(x: &[f64]) -> Vec<usize> {
    x.iter().enumerate().filter(|(_, &v)| v > SUPPORT_EPS).map(|(i, _)| i).collect()
}

/// The barycenter of `Δⁿ` (uniform weights) — the canonical start point
/// of the full-graph dynamics (DS, IID baselines).
pub fn barycenter(n: usize) -> Vec<f64> {
    assert!(n > 0, "barycenter of the empty simplex");
    vec![1.0 / n as f64; n]
}

/// The vertex `s_i` of `Δⁿ` (all mass on position `i`) — ALID's
/// per-seed start point (Algorithm 2, line 1).
pub fn vertex(n: usize, i: usize) -> Vec<f64> {
    assert!(i < n, "vertex index {i} out of range {n}");
    let mut x = vec![0.0; n];
    x[i] = 1.0;
    x
}

/// In-place invasion by a *vertex*: `x ← (1-ε)x + ε s_i` (Eq. 5 with
/// `y = s_i`), without materialising `s_i`.
pub fn invade_vertex(x: &mut [f64], i: usize, eps: f64) {
    debug_assert!((0.0..=1.0).contains(&eps), "invasion share {eps} outside [0,1]");
    for xi in x.iter_mut() {
        *xi *= 1.0 - eps;
    }
    x[i] += eps;
}

/// In-place invasion by the *co-vertex* `s_i(x)` of Eq. 7:
/// `x ← x + ε·μ·(s_i - x)` with `μ = x_i / (x_i - 1) < 0`, which drains
/// weight from vertex `i` into the rest of the subgraph. With `ε = 1` the
/// weight of `i` becomes exactly zero.
///
/// # Panics
/// Panics in debug builds if `x[i]` is not strictly inside `(0, 1)` (the
/// co-vertex is undefined at `x_i = 1`, and pointless at `x_i = 0`).
pub fn invade_covertex(x: &mut [f64], i: usize, eps: f64) {
    let xi = x[i];
    debug_assert!(xi > 0.0 && xi < 1.0, "co-vertex needs x_i in (0,1), got {xi}");
    let mu = xi / (xi - 1.0);
    let scale = 1.0 - eps * mu; // > 1 since mu < 0
    for v in x.iter_mut() {
        *v *= scale;
    }
    x[i] += eps * mu;
    if x[i] < SUPPORT_EPS {
        x[i] = 0.0;
    }
}

/// Dot product restricted to finite slices (plain, but placed here so the
/// dynamics read declaratively).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barycenter_is_on_simplex() {
        let x = barycenter(7);
        assert!(is_on_simplex(&x, 1e-12));
        assert_eq!(support(&x).len(), 7);
    }

    #[test]
    fn vertex_is_on_simplex_with_singleton_support() {
        let x = vertex(5, 3);
        assert!(is_on_simplex(&x, 0.0));
        assert_eq!(support(&x), vec![3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vertex_rejects_out_of_range() {
        let _ = vertex(3, 3);
    }

    #[test]
    fn invade_vertex_interpolates_toward_the_vertex() {
        let mut x = vec![0.5, 0.3, 0.2];
        invade_vertex(&mut x, 1, 0.4);
        for (got, want) in x.iter().zip([0.3, 0.58, 0.12]) {
            assert!((got - want).abs() < 1e-15);
        }
        assert!(is_on_simplex(&x, 1e-12));
    }

    #[test]
    fn covertex_full_invasion_zeroes_the_vertex() {
        let mut x = vec![0.5, 0.3, 0.2];
        invade_covertex(&mut x, 1, 1.0);
        assert_eq!(x[1], 0.0);
        assert!(is_on_simplex(&x, 1e-12));
        // Remaining mass is redistributed proportionally: 0.5/0.7, 0.2/0.7.
        assert!((x[0] - 0.5 / 0.7).abs() < 1e-12);
        assert!((x[2] - 0.2 / 0.7).abs() < 1e-12);
    }

    #[test]
    fn covertex_partial_invasion_stays_on_simplex() {
        let mut x = vec![0.25, 0.25, 0.5];
        invade_covertex(&mut x, 2, 0.5);
        assert!(is_on_simplex(&x, 1e-12));
        assert!(x[2] < 0.5);
    }

    #[test]
    fn renormalize_fixes_drift_and_dust() {
        let mut x = vec![0.5 + 1e-14, -1e-15, 0.5];
        renormalize(&mut x);
        assert!(is_on_simplex(&x, 1e-12));
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn renormalize_resurrects_collapsed_vector() {
        let mut x = vec![0.0, 0.0];
        renormalize(&mut x);
        assert_eq!(x, vec![0.5, 0.5]);
    }

    #[test]
    fn is_on_simplex_rejects_negative_and_nan() {
        assert!(!is_on_simplex(&[1.1, -0.1], 1e-9));
        assert!(!is_on_simplex(&[f64::NAN, 1.0], 1e-9));
        assert!(is_on_simplex(&[0.4, 0.6], 1e-9));
    }
}
