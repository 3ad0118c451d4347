//! LSH configuration.

/// Parameters of a p-stable LSH index.
///
/// The paper's sparsity study (Fig. 6) uses "40 projections per hash
/// value and 50 hash tables"; CIVS runs with lighter settings since its
/// multi-query scheme compensates for recall (Fig. 4). `r` is the
/// segment length of the quantised real line: larger `r` means more
/// collisions, higher recall and lower sparse degree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LshParams {
    /// Number of hash tables `l`.
    pub tables: usize,
    /// Number of projections `mu` per table (concatenated into the key).
    pub projections: usize,
    /// Segment length `r` of each hash function's quantisation.
    pub r: f64,
    /// RNG seed for the projection directions and offsets.
    pub seed: u64,
}

impl LshParams {
    /// Parameters with explicit values.
    ///
    /// # Panics
    /// Panics unless `tables >= 1`, `projections >= 1` and `r > 0`.
    pub fn new(tables: usize, projections: usize, r: f64, seed: u64) -> Self {
        assert!(tables >= 1, "need at least one hash table");
        assert!(projections >= 1, "need at least one projection");
        assert!(r.is_finite() && r > 0.0, "segment length must be positive, got {r}");
        Self { tables, projections, r, seed }
    }

    /// A lighter default suited to CIVS, whose multi-query scheme covers
    /// the ROI with many locality-sensitive regions.
    pub fn civs_default(r: f64, seed: u64) -> Self {
        Self::new(12, 16, r, seed)
    }
}

impl Default for LshParams {
    fn default() -> Self {
        Self::new(12, 16, 1.0, 0x1d5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        let p = LshParams::new(3, 4, 0.5, 7);
        assert_eq!(p.tables, 3);
        assert_eq!(p.projections, 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_r() {
        let _ = LshParams::new(1, 1, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one hash table")]
    fn rejects_zero_tables() {
        let _ = LshParams::new(0, 1, 1.0, 0);
    }
}
