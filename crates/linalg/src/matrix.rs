//! A plain row-major dense matrix with the handful of operations the
//! spectral baselines need. Not a general-purpose BLAS: sizes here are
//! `n x K` embeddings and landmark blocks of a few hundred rows.

/// Row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` out.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Sets column `j` from a slice.
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert_eq!(v.len(), self.rows, "column length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self[(i, j)] = x;
        }
    }

    /// The underlying buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `self * other`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let orow = out.row_mut(i);
            for (k, &aik) in self.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                for (o, &bkj) in orow.iter_mut().zip(other.row(k)) {
                    *o += aik * bkj;
                }
            }
        }
        out
    }

    /// `out = self * x` for a vector.
    ///
    /// # Panics
    /// Panics in debug builds on length mismatches.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (a, &xv) in self.row(i).iter().zip(x) {
                acc += a * xv;
            }
            *o = acc;
        }
    }

    /// Maximum absolute off-diagonal entry (Jacobi convergence check).
    pub fn max_offdiag(&self) -> f64 {
        let mut m: f64 = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }

    /// Frobenius norm of `self - other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn frobenius_distance(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eye_times_anything_is_identity_map() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Mat::eye(2);
        assert_eq!(i.matmul(&a), a);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_vec(2, 2, vec![1.0, -1.0, 2.0, 0.5]);
        let x = vec![3.0, 4.0];
        let mut out = vec![0.0; 2];
        a.matvec(&x, &mut out);
        assert_eq!(out, vec![-1.0, 8.0]);
    }

    #[test]
    fn column_get_set_roundtrip() {
        let mut a = Mat::zeros(3, 2);
        a.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(a.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_offdiag_ignores_diagonal() {
        let a = Mat::from_vec(2, 2, vec![9.0, 0.5, -0.7, 9.0]);
        assert_eq!(a.max_offdiag(), 0.7);
    }

    #[test]
    fn frobenius_distance_zero_iff_equal() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.frobenius_distance(&a), 0.0);
        let mut b = a.clone();
        b[(0, 0)] += 3.0;
        b[(1, 1)] -= 4.0;
        assert!((b.frobenius_distance(&a) - 5.0).abs() < 1e-12);
    }
}
