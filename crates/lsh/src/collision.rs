//! The collision-probability model of p-stable LSH.
//!
//! For the 2-stable (Gaussian) family with segment length `r`, two
//! points at Euclidean distance `u` collide under a single hash function
//! with probability (Datar et al. 2004, Eq. for p(u)):
//!
//! ```text
//! p(u) = 1 - 2*Phi(-r/u) - (2u / (sqrt(2*pi) * r)) * (1 - exp(-r^2 / (2u^2)))
//! ```
//!
//! where `Phi` is the standard normal CDF. The function decreases
//! monotonically in `u`, which is exactly the locality-sensitivity
//! property the CIVS convergence proof (Proposition 2 in the paper's
//! appendix) relies on: the recall for items of a dense cluster is lower
//! bounded by a constant `p > 0`.

use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Standard normal CDF via the error function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x * FRAC_1_SQRT_2))
}

/// Abramowitz & Stegun 7.1.26 rational approximation of `erf`
/// (absolute error below 1e-5, ample for recall estimates).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Probability that two points at L2 distance `u` fall into the same
/// segment under one Gaussian p-stable hash function with segment
/// length `r`.
///
/// Returns 1 for `u == 0` and handles the `u -> 0` limit smoothly.
///
/// # Panics
/// Panics if `u < 0` or `r <= 0`.
pub fn collision_probability(u: f64, r: f64) -> f64 {
    assert!(u >= 0.0, "distance must be non-negative");
    assert!(r > 0.0, "segment length must be positive");
    if u == 0.0 {
        return 1.0;
    }
    let ru = r / u;
    let p = 1.0
        - 2.0 * normal_cdf(-ru)
        - (2.0 / ((2.0 * PI).sqrt() * ru)) * (1.0 - (-ru * ru / 2.0).exp());
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_known_values() {
        // erf(0)=0, erf(1)≈0.8427, erf(-1)≈-0.8427, erf(2)≈0.9953;
        // the A&S 7.1.26 approximation is good to ~1e-5 absolute.
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-4);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-4);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-4);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-8);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn collision_probability_boundaries() {
        assert_eq!(collision_probability(0.0, 1.0), 1.0);
        // Far beyond r, collisions become rare.
        assert!(collision_probability(100.0, 1.0) < 0.02);
    }

    #[test]
    fn collision_probability_is_monotone_in_distance() {
        let r = 1.0;
        let mut prev = collision_probability(0.0, r);
        for step in 1..50 {
            let u = step as f64 * 0.2;
            let p = collision_probability(u, r);
            assert!(p <= prev + 1e-12, "p(u) must not increase with distance");
            prev = p;
        }
    }

    #[test]
    fn collision_probability_grows_with_r() {
        let u = 1.0;
        assert!(collision_probability(u, 0.5) < collision_probability(u, 2.0));
    }
}
