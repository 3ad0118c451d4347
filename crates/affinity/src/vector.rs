//! Flat, row-major storage for a set of d-dimensional data points.
//!
//! Every vertex `v_i` of the affinity graph corresponds to one row. All
//! methods in the workspace share this representation, so a single
//! contiguous allocation backs the whole data set and row access is a
//! bounds-checked slice view.

/// An `n x dim` collection of points in row-major order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dataset {
    dim: usize,
    data: Vec<f64>,
}

impl Dataset {
    /// Creates an empty data set of the given dimensionality.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "Dataset dimensionality must be positive");
        Self { dim, data: Vec::new() }
    }

    /// Creates an empty data set with room for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "Dataset dimensionality must be positive");
        Self { dim, data: Vec::with_capacity(dim * n) }
    }

    /// Builds a data set from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `flat.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, flat: Vec<f64>) -> Self {
        assert!(dim > 0, "Dataset dimensionality must be positive");
        assert_eq!(
            flat.len() % dim,
            0,
            "flat buffer length {} is not a multiple of dim {}",
            flat.len(),
            dim
        );
        Self { dim, data: flat }
    }

    /// Builds a data set from an iterator of rows.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows<'a, I>(dim: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut ds = Self::new(dim);
        for row in rows {
            ds.push(row);
        }
        ds
    }

    /// Appends one point.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row length mismatch");
        self.data.extend_from_slice(row);
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the data set holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of each point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row view of point `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f64] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Mutable row view of point `i`.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut [f64] {
        let start = i * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// The underlying flat buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Iterates over row views.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// Copies the rows listed in `idx` (in order, duplicates allowed) into
    /// a new data set.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, idx.len());
        for &i in idx {
            out.push(self.get(i));
        }
        out
    }

    /// The weighted centroid `D = sum_i w_i * v_i` over the rows listed in
    /// `idx`. Weights are used as given (callers pass simplex weights, so
    /// they already sum to one).
    ///
    /// # Panics
    /// Panics if `idx.len() != weights.len()`.
    pub fn weighted_centroid(&self, idx: &[usize], weights: &[f64]) -> Vec<f64> {
        assert_eq!(idx.len(), weights.len(), "index/weight length mismatch");
        let mut out = vec![0.0; self.dim];
        for (&i, &w) in idx.iter().zip(weights) {
            for (o, &x) in out.iter_mut().zip(self.get(i)) {
                *o += w * x;
            }
        }
        out
    }

    /// Unweighted centroid over the rows listed in `idx`.
    pub fn centroid(&self, idx: &[usize]) -> Vec<f64> {
        assert!(!idx.is_empty(), "centroid of an empty index set");
        let w = 1.0 / idx.len() as f64;
        let weights = vec![w; idx.len()];
        self.weighted_centroid(idx, &weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0, 3.0]);
        ds.push(&[4.0, 5.0, 6.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.get(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_accepts_multiple_of_dim() {
        let ds = Dataset::from_flat(2, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.get(1), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged_buffer() {
        let _ = Dataset::from_flat(3, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn push_rejects_wrong_dim() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0]);
    }

    #[test]
    fn subset_preserves_order_and_duplicates() {
        let ds = Dataset::from_flat(1, vec![10.0, 20.0, 30.0]);
        let sub = ds.subset(&[2, 0, 2]);
        assert_eq!(sub.as_flat(), &[30.0, 10.0, 30.0]);
    }

    #[test]
    fn weighted_centroid_matches_hand_computation() {
        let ds = Dataset::from_flat(2, vec![0.0, 0.0, 2.0, 4.0]);
        let c = ds.weighted_centroid(&[0, 1], &[0.75, 0.25]);
        assert_eq!(c, vec![0.5, 1.0]);
    }

    #[test]
    fn centroid_is_mean() {
        let ds = Dataset::from_flat(1, vec![1.0, 3.0]);
        let c = ds.centroid(&[0, 1]);
        assert!((c[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_all_rows() {
        let ds = Dataset::from_flat(2, vec![0.0, 1.0, 2.0, 3.0]);
        let rows: Vec<&[f64]> = ds.iter().collect();
        assert_eq!(rows, vec![&[0.0, 1.0][..], &[2.0, 3.0][..]]);
    }
}
