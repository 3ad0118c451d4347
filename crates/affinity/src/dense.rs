//! The full `n x n` affinity matrix.
//!
//! This is the structure whose `O(n^2)` time and space cost motivates the
//! whole paper: DS, IID, SEA and AP all need it (Section 2). We store the
//! full symmetric matrix (both triangles) so that row access and
//! mat-vecs are contiguous; the cost model records `n*(n-1)/2` kernel
//! evaluations (symmetry is exploited when *computing*) and `n^2` stored
//! entries (what a dense solver actually holds).

use std::sync::Arc;

use crate::block::BlockEval;
use crate::cost::CostModel;
use crate::kernel::LaplacianKernel;
use crate::vector::Dataset;

/// Dense symmetric affinity matrix with zero diagonal.
#[derive(Debug)]
pub struct DenseAffinity {
    n: usize,
    a: Vec<f64>,
    cost: Arc<CostModel>,
}

impl DenseAffinity {
    /// Computes the full matrix for `ds` under `kernel`.
    ///
    /// Cost: `n(n-1)/2` kernel evaluations, `n^2` stored entries.
    pub fn build(ds: &Dataset, kernel: &LaplacianKernel, cost: Arc<CostModel>) -> Self {
        let n = ds.len();
        let dim = ds.dim();
        let flat = ds.as_flat();
        let mut a = vec![0.0; n * n];
        let mut scratch = BlockEval::new();
        let mut vals = vec![0.0; n.saturating_sub(1)];
        for i in 0..n {
            // Row i owns pairs (i, i+1..n), whose rows are contiguous
            // in flat storage — the blocked evaluator's best case.
            let tail = n - i - 1;
            if tail == 0 {
                break;
            }
            let vi = ds.get(i);
            scratch.eval_rows(kernel, dim, &flat[(i + 1) * dim..], vi, &mut vals[..tail]);
            a[i * n + i + 1..(i + 1) * n].copy_from_slice(&vals[..tail]);
            for (off, &v) in vals[..tail].iter().enumerate() {
                a[(i + 1 + off) * n + i] = v;
            }
        }
        cost.record_kernel_evals((n as u64).saturating_mul((n as u64).saturating_sub(1)) / 2);
        cost.alloc_entries((n * n) as u64);
        Self { n, a, cost }
    }

    /// Matrix order `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `a_ij`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.a[i * self.n..(i + 1) * self.n]
    }

    /// `out = A x`.
    ///
    /// # Panics
    /// Panics in debug builds on length mismatches.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (a, &xv) in self.row(i).iter().zip(x) {
                acc += a * xv;
            }
            *o = acc;
        }
    }

    /// `A x` restricted to the support of `x`: skips zero weights, which
    /// makes peeling-phase mat-vecs proportional to the support size.
    ///
    /// Zero entries are filtered by the exact compare `x[j] == 0.0`
    /// under the same contract as
    /// [`crate::sparse::SparseAffinity::matvec_support`]: ±0.0 is
    /// skipped (bit-exactly harmless), denormals are accumulated.
    pub fn matvec_support(&self, x: &[f64], support: &[usize], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n);
        out.fill(0.0);
        for &j in support {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let row = self.row(j); // symmetric: column j == row j
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * xj;
            }
        }
    }

    /// The quadratic form `π(x) = xᵀ A x` (the subgraph density, Eq. 2).
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n);
        let mut total = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, &xj) in row.iter().zip(x) {
                acc += a * xj;
            }
            total += xi * acc;
        }
        total
    }

    /// Average intra-cluster affinity under uniform weights over
    /// `members` — the density a partitioning method reports for a
    /// cluster it found.
    pub fn uniform_density(&self, members: &[u32]) -> f64 {
        let m = members.len();
        if m < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[a + 1..] {
                acc += self.get(i as usize, j as usize);
            }
        }
        2.0 * acc / (m as f64 * m as f64)
    }

    /// The shared cost model.
    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }
}

impl Drop for DenseAffinity {
    fn drop(&mut self) {
        self.cost.free_entries((self.n * self.n) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LpNorm;

    fn small() -> (Dataset, LaplacianKernel, Arc<CostModel>) {
        // Three collinear points at 0, 1, 3.
        let ds = Dataset::from_flat(1, vec![0.0, 1.0, 3.0]);
        (ds, LaplacianKernel::new(1.0, LpNorm::L2), CostModel::shared())
    }

    #[test]
    fn build_is_symmetric_with_zero_diagonal() {
        let (ds, k, cost) = small();
        let a = DenseAffinity::build(&ds, &k, cost);
        for i in 0..3 {
            assert_eq!(a.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
        assert!((a.get(0, 1) - (-1.0f64).exp()).abs() < 1e-12);
        assert!((a.get(0, 2) - (-3.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn build_of_empty_dataset_is_empty() {
        let ds = Dataset::new(2);
        let k = LaplacianKernel::new(1.0, LpNorm::L2);
        let a = DenseAffinity::build(&ds, &k, CostModel::shared());
        assert_eq!(a.n(), 0);
    }

    #[test]
    fn cost_records_evals_and_entries() {
        let (ds, k, cost) = small();
        let a = DenseAffinity::build(&ds, &k, Arc::clone(&cost));
        let snap = cost.snapshot();
        assert_eq!(snap.kernel_evals, 3); // 3 choose 2
        assert_eq!(snap.entries_current, 9);
        drop(a);
        assert_eq!(cost.snapshot().entries_current, 0);
        assert_eq!(cost.snapshot().entries_peak, 9);
    }

    #[test]
    fn matvec_matches_manual() {
        let (ds, k, cost) = small();
        let a = DenseAffinity::build(&ds, &k, cost);
        let x = vec![0.5, 0.5, 0.0];
        let mut out = vec![0.0; 3];
        a.matvec(&x, &mut out);
        assert!((out[0] - 0.5 * a.get(0, 1)).abs() < 1e-12);
        assert!((out[1] - 0.5 * a.get(1, 0)).abs() < 1e-12);
        assert!((out[2] - (0.5 * a.get(2, 0) + 0.5 * a.get(2, 1))).abs() < 1e-12);
    }

    #[test]
    fn matvec_support_equals_matvec() {
        let (ds, k, cost) = small();
        let a = DenseAffinity::build(&ds, &k, cost);
        let x = vec![0.25, 0.0, 0.75];
        let mut full = vec![0.0; 3];
        let mut sup = vec![0.0; 3];
        a.matvec(&x, &mut full);
        a.matvec_support(&x, &[0, 2], &mut sup);
        for (f, s) in full.iter().zip(&sup) {
            assert!((f - s).abs() < 1e-12);
        }
    }

    #[test]
    fn quadratic_form_matches_matvec_dot() {
        let (ds, k, cost) = small();
        let a = DenseAffinity::build(&ds, &k, cost);
        let x = vec![0.2, 0.3, 0.5];
        let mut ax = vec![0.0; 3];
        a.matvec(&x, &mut ax);
        let manual: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!((a.quadratic_form(&x) - manual).abs() < 1e-12);
    }

    #[test]
    fn uniform_density_matches_quadratic_form_with_uniform_x() {
        let (ds, k, cost) = small();
        let a = DenseAffinity::build(&ds, &k, cost);
        let members = [0u32, 1, 2];
        let x = vec![1.0 / 3.0; 3];
        assert!((a.uniform_density(&members) - a.quadratic_form(&x)).abs() < 1e-12);
    }

    #[test]
    fn uniform_density_of_singleton_is_zero() {
        let (ds, k, cost) = small();
        let a = DenseAffinity::build(&ds, &k, cost);
        assert_eq!(a.uniform_density(&[1]), 0.0);
    }
}
