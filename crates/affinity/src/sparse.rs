//! Sparse CSR affinity matrices built from neighbour lists.
//!
//! Section 5.1 studies what happens when the canonical methods (AP, IID,
//! SEA) are run on an LSH-*sparsified* matrix: only affinities between
//! hash-collision neighbours are computed and stored, everything else is
//! forced to zero. The *sparse degree* — the fraction of zero entries —
//! is the x-axis companion of Fig. 6. This module provides the symmetric
//! CSR matrix those baselines run on.

use std::sync::Arc;

use crate::block::BlockEval;
use crate::cost::CostModel;
use crate::fx::FxHashSet;
use crate::kernel::LaplacianKernel;
use crate::vector::Dataset;

/// Accumulates an undirected edge set, then materialises a CSR matrix.
#[derive(Debug)]
pub struct SparseBuilder {
    n: usize,
    edges: FxHashSet<(u32, u32)>,
}

impl SparseBuilder {
    /// A builder for an `n x n` matrix with no edges yet.
    pub fn new(n: usize) -> Self {
        Self { n, edges: FxHashSet::default() }
    }

    /// Adds the undirected edge `{i, j}`; self-loops are ignored
    /// (diagonal is zero per Eq. 1).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, i: u32, j: u32) {
        assert!((i as usize) < self.n && (j as usize) < self.n, "edge endpoint out of range");
        if i == j {
            return;
        }
        let key = if i < j { (i, j) } else { (j, i) };
        self.edges.insert(key);
    }

    /// Adds every pair from a neighbour list (item `i` adjacent to each
    /// of `neighbors[i]`), symmetrising automatically.
    pub fn add_neighbor_lists(&mut self, neighbors: &[Vec<u32>]) {
        assert_eq!(neighbors.len(), self.n, "one neighbour list per item");
        for (i, list) in neighbors.iter().enumerate() {
            for &j in list {
                self.add_edge(i as u32, j);
            }
        }
    }

    /// Evaluates the kernel on every edge and builds the CSR matrix.
    /// CSR assembly runs over the canonically sorted edge list, so every
    /// hash-set iteration order yields the byte-identical matrix and
    /// cost trace.
    ///
    /// Cost: one kernel evaluation per undirected edge; `2|E|` stored
    /// entries (both triangles, as a solver holds them).
    pub fn build(
        self,
        ds: &Dataset,
        kernel: &LaplacianKernel,
        cost: Arc<CostModel>,
    ) -> SparseAffinity {
        assert_eq!(ds.len(), self.n, "data set size mismatch");
        let n = self.n;
        // Canonical edge order: makes the CSR fill (and therefore the
        // pre-sort entry layout) independent of FxHashSet iteration.
        // alid-lint: allow(no-unordered-iteration) -- drained into a Vec and canonically sorted on the next line
        let mut edge_list: Vec<(u32, u32)> = self.edges.into_iter().collect();
        edge_list.sort_unstable();
        // One kernel evaluation per edge. Each run of edges sharing a
        // source row `i` becomes one blocked batch (row i vs the
        // gathered `j` rows), so the kernel runs over flat memory
        // instead of pair-at-a-time.
        let mut edge_vals = vec![0.0f64; edge_list.len()];
        let mut scratch = BlockEval::new();
        let mut ids = Vec::new();
        let mut e = 0;
        while e < edge_list.len() {
            let i = edge_list[e].0;
            let mut run = e + 1;
            while run < edge_list.len() && edge_list[run].0 == i {
                run += 1;
            }
            ids.clear();
            ids.extend(edge_list[e..run].iter().map(|&(_, j)| j));
            scratch.eval_indexed(kernel, ds, &ids, ds.get(i as usize), &mut edge_vals[e..run]);
            e = run;
        }
        // Count per-row degrees (both directions).
        let mut deg = vec![0usize; n];
        for &(i, j) in &edge_list {
            deg[i as usize] += 1;
            deg[j as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        for d in &deg {
            row_ptr.push(row_ptr.last().expect("non-empty") + d);
        }
        let nnz = *row_ptr.last().expect("non-empty");
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut fill = row_ptr.clone();
        for (&(i, j), &v) in edge_list.iter().zip(&edge_vals) {
            let pi = fill[i as usize];
            col_idx[pi] = j;
            values[pi] = v;
            fill[i as usize] += 1;
            let pj = fill[j as usize];
            col_idx[pj] = i;
            values[pj] = v;
            fill[j as usize] += 1;
        }
        // Sort each row by column for deterministic iteration and
        // binary-search access.
        for i in 0..n {
            let lo = row_ptr[i];
            let hi = row_ptr[i + 1];
            let mut pairs: Vec<(u32, f64)> =
                col_idx[lo..hi].iter().copied().zip(values[lo..hi].iter().copied()).collect();
            pairs.sort_unstable_by_key(|&(c, _)| c);
            for (off, (c, v)) in pairs.into_iter().enumerate() {
                col_idx[lo + off] = c;
                values[lo + off] = v;
            }
        }
        cost.record_kernel_evals(edge_list.len() as u64);
        cost.alloc_entries(nnz as u64);
        SparseAffinity { n, row_ptr, col_idx, values, cost }
    }
}

/// Symmetric CSR affinity matrix with zero diagonal.
#[derive(Debug)]
pub struct SparseAffinity {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    cost: Arc<CostModel>,
}

impl SparseAffinity {
    /// Matrix order `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored (non-zero) entries, both triangles.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The fraction of zero entries over the full `n x n` matrix — the
    /// "sparse degree (SD)" of Section 5.1.
    pub fn sparse_degree(&self) -> f64 {
        let total = self.n as f64 * self.n as f64;
        1.0 - self.nnz() as f64 / total
    }

    /// Row `i`: parallel slices of column indices (ascending) and values.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Entry `a_ij` (zero if the edge is not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        }
    }

    /// Degree (stored neighbours) of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// `out = A x`.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        for (i, o) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *o = acc;
        }
    }

    /// `A x` visiting only rows adjacent to the support of `x` — the
    /// sparse analogue of support-restricted mat-vec. Returns the result
    /// for all `n` rows (non-adjacent rows are zero).
    ///
    /// # Support contract
    /// `support` must contain every index `j` with `x[j] != 0.0`
    /// (supersets are fine). Entries are skipped by the exact IEEE-754
    /// compare `x[j] == 0.0`, which matches **both** `+0.0` and `-0.0`
    /// but **no** denormal: a subnormal weight, however tiny, is a real
    /// contribution and is accumulated. Skipping an exact ±0.0 weight
    /// is bit-exact — with `out` initialised to `+0.0`, adding
    /// `v * ±0.0` can never change any accumulator bit — so this test
    /// is a pure work filter, never an approximation.
    pub fn matvec_support(&self, x: &[f64], support: &[usize], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n);
        out.fill(0.0);
        for &j in support {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(j);
            for (&c, &v) in cols.iter().zip(vals) {
                out[c as usize] += v * xj;
            }
        }
    }

    /// `π(x) = xᵀ A x`.
    ///
    /// Rows with `x[i] == 0.0` are skipped under the same exact-zero
    /// contract as [`Self::matvec_support`]: ±0.0 contributes an exact
    /// zero term either way (the row's inner product is scaled by
    /// `xi`), denormals are never skipped.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        let mut total = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            total += xi * acc;
        }
        total
    }

    /// Average intra-cluster affinity under uniform weights, over stored
    /// edges only.
    pub fn uniform_density(&self, members: &[u32]) -> f64 {
        let m = members.len();
        if m < 2 {
            return 0.0;
        }
        let member_set: FxHashSet<u32> = members.iter().copied().collect();
        let mut acc = 0.0;
        for &i in members {
            let (cols, vals) = self.row(i as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                if member_set.contains(&c) {
                    acc += v;
                }
            }
        }
        acc / (m as f64 * m as f64)
    }

    /// The shared cost model.
    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }
}

impl Drop for SparseAffinity {
    fn drop(&mut self) {
        self.cost.free_entries(self.col_idx.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseAffinity;
    use crate::kernel::LpNorm;

    fn fixture() -> (Dataset, LaplacianKernel) {
        let ds = Dataset::from_flat(1, vec![0.0, 1.0, 2.0, 4.0]);
        (ds, LaplacianKernel::new(0.5, LpNorm::L2))
    }

    fn full_builder(n: usize) -> SparseBuilder {
        let mut b = SparseBuilder::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                b.add_edge(i, j);
            }
        }
        b
    }

    #[test]
    fn full_sparse_matches_dense() {
        let (ds, k) = fixture();
        let dense = DenseAffinity::build(&ds, &k, CostModel::shared());
        let sparse = full_builder(4).build(&ds, &k, CostModel::shared());
        for i in 0..4 {
            for j in 0..4 {
                assert!((sparse.get(i, j) - dense.get(i, j)).abs() < 1e-12);
            }
        }
        assert_eq!(sparse.nnz(), 12);
        assert!((sparse.sparse_degree() - 4.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn self_loops_and_duplicates_are_ignored() {
        let (ds, k) = fixture();
        let mut b = SparseBuilder::new(4);
        b.add_edge(0, 0);
        b.add_edge(1, 2);
        b.add_edge(2, 1);
        let m = b.build(&ds, &k, CostModel::shared());
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 0.0);
        assert!(m.get(1, 2) > 0.0);
        assert_eq!(m.get(1, 2), m.get(2, 1));
    }

    #[test]
    fn neighbor_lists_symmetrise() {
        let (ds, k) = fixture();
        let mut b = SparseBuilder::new(4);
        b.add_neighbor_lists(&[vec![1], vec![], vec![3], vec![2]]);
        let m = b.build(&ds, &k, CostModel::shared());
        assert!(m.get(1, 0) > 0.0);
        assert_eq!(m.degree(0), 1);
        assert_eq!(m.degree(2), 1);
    }

    #[test]
    fn matvec_matches_dense_on_full_graph() {
        let (ds, k) = fixture();
        let dense = DenseAffinity::build(&ds, &k, CostModel::shared());
        let sparse = full_builder(4).build(&ds, &k, CostModel::shared());
        let x = vec![0.1, 0.4, 0.3, 0.2];
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        dense.matvec(&x, &mut a);
        sparse.matvec(&x, &mut b);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
        assert!((dense.quadratic_form(&x) - sparse.quadratic_form(&x)).abs() < 1e-12);
    }

    #[test]
    fn matvec_support_equals_matvec() {
        let (ds, k) = fixture();
        let sparse = full_builder(4).build(&ds, &k, CostModel::shared());
        let x = vec![0.5, 0.0, 0.5, 0.0];
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        sparse.matvec(&x, &mut a);
        sparse.matvec_support(&x, &[0, 2], &mut b);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cost_accounting_and_release() {
        let (ds, k) = fixture();
        let cost = CostModel::shared();
        {
            let m = full_builder(4).build(&ds, &k, Arc::clone(&cost));
            assert_eq!(cost.snapshot().kernel_evals, 6);
            assert_eq!(cost.snapshot().entries_current, 12);
            drop(m);
        }
        assert_eq!(cost.snapshot().entries_current, 0);
    }

    #[test]
    fn uniform_density_counts_stored_edges_only() {
        let (ds, k) = fixture();
        let mut b = SparseBuilder::new(4);
        b.add_edge(0, 1);
        let m = b.build(&ds, &k, CostModel::shared());
        let d = m.uniform_density(&[0, 1, 2]);
        let expect = 2.0 * m.get(0, 1) / 9.0;
        assert!((d - expect).abs() < 1e-12);
    }

    #[test]
    fn support_skip_handles_negative_zero_and_denormals() {
        let (ds, k) = fixture();
        let m = full_builder(4).build(&ds, &k, CostModel::shared());
        // -0.0 must behave exactly like +0.0: skipped, same bits out.
        let pos = vec![0.5, 0.0, 0.5, 0.0];
        let neg = vec![0.5, -0.0, 0.5, -0.0];
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        m.matvec_support(&pos, &[0, 1, 2, 3], &mut a);
        m.matvec_support(&neg, &[0, 1, 2, 3], &mut b);
        let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "-0.0 weights must be skipped exactly like +0.0");
        assert_eq!(m.quadratic_form(&pos).to_bits(), m.quadratic_form(&neg).to_bits());
        // A denormal weight is NOT zero: it must contribute, i.e. the
        // support-restricted product must still match the full matvec.
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        assert!(tiny > 0.0 && !tiny.is_normal());
        let x = vec![0.5, tiny, 0.5, 0.0];
        let mut full = vec![0.0; 4];
        let mut sup = vec![0.0; 4];
        m.matvec(&x, &mut full);
        m.matvec_support(&x, &[0, 1, 2], &mut sup);
        let fb: Vec<u64> = full.iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u64> = sup.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fb, sb, "denormal weights must not be skipped");
    }

    #[test]
    fn rows_are_sorted() {
        let (ds, k) = fixture();
        let mut b = SparseBuilder::new(4);
        b.add_edge(3, 0);
        b.add_edge(3, 2);
        b.add_edge(3, 1);
        let m = b.build(&ds, &k, CostModel::shared());
        let (cols, _) = m.row(3);
        assert_eq!(cols, &[0, 1, 2]);
    }
}
