//! Box–Muller standard-normal sampling, shared by the p-stable index
//! and the shard router.
//!
//! The rand shim's core crate has no normal distribution; one local
//! implementation keeps the dependency set minimal and guarantees both
//! draw their projections from exactly the same generator — a seed
//! means the same directions everywhere.

use rand::rngs::StdRng;
use rand::Rng;

/// One draw from N(0, 1).
pub(crate) fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn moments_are_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = sample_standard_normal(&mut rng);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
