//! Blocked, lane-per-pair batch evaluation of the Laplacian kernel —
//! the raw-speed frontier of ROADMAP item 3.
//!
//! Every inner loop of the reproduction (LID column pulls, CIVS
//! `product_rows`, the sparse/dense builders, LSH candidate
//! verification, the service reduce's kernel-affinity merge test)
//! bottoms out in one-pair-at-a-time [`LaplacianKernel::eval`] calls:
//! a bounds-checked `Dataset::get` per row, a strictly ordered
//! reduction over `dim`, an `exp`. This module evaluates **one query
//! vector against [`LANES`] rows at a time** straight out of flat
//! row-major storage: each group of four rows forms a *register tile*
//! with four independent accumulators, and the distance loop walks the
//! dimensions once, feeding all four. There is no staging buffer — an
//! earlier SoA-transpose-in-memory design spent as long scattering
//! each tile (used exactly once) as computing on it, and lost to the
//! scalar path outright.
//!
//! # Why the results are bit-for-bit identical to the scalar path
//!
//! Floating-point addition is not associative, so any scheme that
//! splits *one pair's* per-dimension reduction across lanes would
//! change the answer. Lane-per-pair never does: pair `j`'s accumulator
//! receives its `dim` terms in exactly the order the scalar
//! [`LpNorm::distance`] loop adds them, starting from the same `0.0` —
//! the four accumulators of a register tile belong to four *different*
//! pairs. The per-term arithmetic is identical too — subtract, square
//! (or `abs`/`powf`), add, with no FMA contraction (Rust never
//! contracts `a * b + c` implicitly), and the final
//! `sqrt`/`powf`/`exp` are the same scalar calls per pair. The
//! subtraction runs `row - query` where a scalar call site may compute
//! `query - row`; the difference is only the sign, and both `abs` and
//! squaring erase it exactly in IEEE arithmetic. Hence blocked output
//! == scalar output, bit for bit, for every norm, including
//! NaN/∞/-0.0/denormal inputs. The parity suite
//! (`tests/proptest_block.rs`) pins this.
//!
//! The implementation below is plain Rust written so the four
//! accumulator chains are independent (superscalar hardware overlaps
//! them, and LLVM's SLP vectorizer may pack them).

use crate::kernel::{LaplacianKernel, LpNorm};
use crate::vector::Dataset;

/// Rows per register tile: `f64x4`, one AVX register.
pub const LANES: usize = 4;

/// Default outer-block height (rows handed to the tile loop per
/// chunk) for dimension `dim`: targets ~16 KiB of row data (half a
/// typical 32 KiB L1d), clamped to `[LANES, 256]` and rounded down to
/// a multiple of [`LANES`]. Purely a performance knob — **any** block
/// size produces bit-identical results, because blocking only decides
/// how many independent pairs are processed per chunk (the bench
/// harness sweeps it).
pub fn default_block_rows(dim: usize) -> usize {
    const BLOCK_BUDGET_F64S: usize = 2048;
    let b = (BLOCK_BUDGET_F64S / dim.max(1)).clamp(LANES, 256);
    b - (b % LANES)
}

/// Reusable scratch for blocked evaluation: a gather buffer for
/// non-contiguous row sets. Create one per worker (or reuse across
/// calls) to amortize the allocation.
#[derive(Debug, Default)]
pub struct BlockEval {
    gather: Vec<f64>,
}

impl BlockEval {
    /// Fresh scratch with no capacity reserved yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates `kernel` between `query` and every row of `rows`
    /// (flat row-major, `out.len()` rows of `dim` floats), writing the
    /// affinities into `out`. Bit-identical to calling
    /// [`LaplacianKernel::eval`] per row.
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * dim` or
    /// `query.len() != dim`.
    pub fn eval_rows(
        &mut self,
        kernel: &LaplacianKernel,
        dim: usize,
        rows: &[f64],
        query: &[f64],
        out: &mut [f64],
    ) {
        self.eval_rows_blocked(kernel, dim, rows, query, out, default_block_rows(dim));
    }

    /// [`Self::eval_rows`] with an explicit block height — a pure
    /// performance knob (the bench harness sweeps it); every block size
    /// yields identical bits.
    ///
    /// # Panics
    /// Panics if `block == 0`, `rows.len() != out.len() * dim` or
    /// `query.len() != dim`.
    pub fn eval_rows_blocked(
        &mut self,
        kernel: &LaplacianKernel,
        dim: usize,
        rows: &[f64],
        query: &[f64],
        out: &mut [f64],
        block: usize,
    ) {
        block_distances(kernel.norm, dim, rows, query, out, block);
        for o in out.iter_mut() {
            *o = (-kernel.k * *o).exp();
        }
    }

    /// [`Self::eval_rows`] gathering the rows of `ds` named by `ids`
    /// first (for non-contiguous row sets: a β range, LSH candidates).
    ///
    /// # Panics
    /// Panics if `out.len() != ids.len()`, `query.len() != ds.dim()`,
    /// or any id is out of range.
    pub fn eval_indexed(
        &mut self,
        kernel: &LaplacianKernel,
        ds: &Dataset,
        ids: &[u32],
        query: &[f64],
        out: &mut [f64],
    ) {
        gather_rows(&mut self.gather, ds, ids);
        let block = default_block_rows(ds.dim());
        block_distances(kernel.norm, ds.dim(), &self.gather, query, out, block);
        for o in out.iter_mut() {
            *o = (-kernel.k * *o).exp();
        }
    }

    /// Distances `||row_j - query||` for every row of flat row-major
    /// `rows`, bit-identical to [`LpNorm::distance`] per row. No cost
    /// side effects — distance-only callers (ROI membership tests)
    /// account for themselves.
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * dim` or
    /// `query.len() != dim`.
    pub fn distances_rows(
        &mut self,
        norm: LpNorm,
        dim: usize,
        rows: &[f64],
        query: &[f64],
        out: &mut [f64],
    ) {
        block_distances(norm, dim, rows, query, out, default_block_rows(dim));
    }

    /// [`Self::distances_rows`] over the rows of `ds` named by `ids`.
    ///
    /// # Panics
    /// Panics if `out.len() != ids.len()`, `query.len() != ds.dim()`,
    /// or any id is out of range.
    pub fn distances_indexed(
        &mut self,
        norm: LpNorm,
        ds: &Dataset,
        ids: &[u32],
        query: &[f64],
        out: &mut [f64],
    ) {
        gather_rows(&mut self.gather, ds, ids);
        let block = default_block_rows(ds.dim());
        block_distances(norm, ds.dim(), &self.gather, query, out, block);
    }
}

/// Packs the rows of `ds` named by `ids` into `buf`, densely.
fn gather_rows(buf: &mut Vec<f64>, ds: &Dataset, ids: &[u32]) {
    buf.clear();
    buf.reserve(ids.len() * ds.dim());
    for &id in ids {
        buf.extend_from_slice(ds.get(id as usize));
    }
}

/// The blocking engine: hands `block` rows at a time to the
/// lane-per-pair tile loops.
fn block_distances(
    norm: LpNorm,
    dim: usize,
    rows: &[f64],
    query: &[f64],
    out: &mut [f64],
    block: usize,
) {
    let n = out.len();
    assert_eq!(rows.len(), n * dim, "rows must hold out.len() rows of dim floats");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert!(block >= 1, "block height must be at least 1");
    if n == 0 {
        return;
    }
    let mut start = 0;
    while start < n {
        let b = block.min(n - start);
        let rows_blk = &rows[start * dim..(start + b) * dim];
        let out_blk = &mut out[start..start + b];
        match norm {
            LpNorm::L2 => l2_rows(rows_blk, dim, query, out_blk),
            LpNorm::L1 => l1_rows(rows_blk, dim, query, out_blk),
            LpNorm::P(p) => p_rows(rows_blk, dim, query, p, out_blk),
        }
        start += b;
    }
}

/// L2 distances for `out.len()` contiguous row-major rows. Register
/// tiles of [`LANES`] rows: four independent accumulators, each
/// receiving its own pair's squared terms in dimension order — the
/// scalar loop's order — then the same final `sqrt` per pair.
fn l2_rows(rows: &[f64], dim: usize, query: &[f64], out: &mut [f64]) {
    let query = &query[..dim];
    let b = out.len();
    let mut j = 0;
    while j + LANES <= b {
        let (r0, rest) = rows[j * dim..(j + LANES) * dim].split_at(dim);
        let (r1, rest) = rest.split_at(dim);
        let (r2, r3) = rest.split_at(dim);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for d in 0..dim {
            let q = query[d];
            let d0 = r0[d] - q;
            let d1 = r1[d] - q;
            let d2 = r2[d] - q;
            let d3 = r3[d] - q;
            a0 += d0 * d0;
            a1 += d1 * d1;
            a2 += d2 * d2;
            a3 += d3 * d3;
        }
        out[j] = a0.sqrt();
        out[j + 1] = a1.sqrt();
        out[j + 2] = a2.sqrt();
        out[j + 3] = a3.sqrt();
        j += LANES;
    }
    for t in j..b {
        let row = &rows[t * dim..(t + 1) * dim];
        let mut acc = 0.0;
        for d in 0..dim {
            let diff = row[d] - query[d];
            acc += diff * diff;
        }
        out[t] = acc.sqrt();
    }
}

/// L1 distances; same register-tile layout.
fn l1_rows(rows: &[f64], dim: usize, query: &[f64], out: &mut [f64]) {
    let query = &query[..dim];
    let b = out.len();
    let mut j = 0;
    while j + LANES <= b {
        let (r0, rest) = rows[j * dim..(j + LANES) * dim].split_at(dim);
        let (r1, rest) = rest.split_at(dim);
        let (r2, r3) = rest.split_at(dim);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for d in 0..dim {
            let q = query[d];
            a0 += (r0[d] - q).abs();
            a1 += (r1[d] - q).abs();
            a2 += (r2[d] - q).abs();
            a3 += (r3[d] - q).abs();
        }
        out[j] = a0;
        out[j + 1] = a1;
        out[j + 2] = a2;
        out[j + 3] = a3;
        j += LANES;
    }
    for t in j..b {
        let row = &rows[t * dim..(t + 1) * dim];
        let mut acc = 0.0;
        for d in 0..dim {
            acc += (row[d] - query[d]).abs();
        }
        out[t] = acc;
    }
}

/// General Minkowski distances. `powf` is a scalar libm call per term
/// and dwarfs everything else, so this is a straight per-row loop (no
/// register tiling) — the win here is the
/// bounds-check-free flat-storage walk.
fn p_rows(rows: &[f64], dim: usize, query: &[f64], p: f64, out: &mut [f64]) {
    let query = &query[..dim];
    for (t, o) in out.iter_mut().enumerate() {
        let row = &rows[t * dim..(t + 1) * dim];
        let mut acc = 0.0;
        for d in 0..dim {
            acc += (row[d] - query[d]).abs().powf(p);
        }
        *o = acc.powf(1.0 / p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> LaplacianKernel {
        LaplacianKernel::new(0.7, LpNorm::L2)
    }

    fn dataset(n: usize, dim: usize) -> Dataset {
        // Deterministic, sign-mixed, non-round values.
        let data: Vec<f64> =
            (0..n * dim).map(|i| ((i * 2_654_435_761 % 1_000) as f64 - 500.0) / 97.0).collect();
        Dataset::from_flat(dim, data)
    }

    #[test]
    fn eval_rows_is_bit_identical_to_scalar() {
        for dim in [1usize, 3, 8, 33] {
            let ds = dataset(70, dim);
            let k = kernel();
            let query = ds.get(0).to_vec();
            let mut out = vec![0.0; ds.len()];
            BlockEval::new().eval_rows(&k, dim, ds.as_flat(), &query, &mut out);
            for (i, &got) in out.iter().enumerate() {
                let want = k.eval(ds.get(i), &query);
                assert_eq!(got.to_bits(), want.to_bits(), "dim={dim} row={i}");
            }
        }
    }

    #[test]
    fn distances_match_scalar_for_every_norm() {
        let dim = 5;
        let ds = dataset(41, dim);
        let query = ds.get(7).to_vec();
        for norm in [LpNorm::L1, LpNorm::L2, LpNorm::P(3.0)] {
            let mut out = vec![0.0; ds.len()];
            BlockEval::new().distances_rows(norm, dim, ds.as_flat(), &query, &mut out);
            for (i, &got) in out.iter().enumerate() {
                let want = norm.distance(ds.get(i), &query);
                assert_eq!(got.to_bits(), want.to_bits(), "{norm:?} row={i}");
            }
        }
    }

    #[test]
    fn indexed_variants_match_direct_gather() {
        let dim = 4;
        let ds = dataset(30, dim);
        let k = kernel();
        let ids: Vec<u32> = vec![3, 29, 0, 17, 17, 5];
        let query = ds.get(11).to_vec();
        let mut out = vec![0.0; ids.len()];
        let mut scratch = BlockEval::new();
        scratch.eval_indexed(&k, &ds, &ids, &query, &mut out);
        for (&id, &got) in ids.iter().zip(&out) {
            let want = k.eval(ds.get(id as usize), &query);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let mut dists = vec![0.0; ids.len()];
        scratch.distances_indexed(k.norm, &ds, &ids, &query, &mut dists);
        for (&id, &got) in ids.iter().zip(&dists) {
            let want = k.norm.distance(ds.get(id as usize), &query);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut out: Vec<f64> = Vec::new();
        BlockEval::new().eval_rows(&kernel(), 8, &[], &[0.0; 8], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn default_block_rows_is_lane_aligned_and_bounded() {
        for dim in [1usize, 2, 7, 32, 128, 1000, 10_000] {
            let b = default_block_rows(dim);
            assert!(b >= LANES, "dim={dim}");
            assert!(b <= 256, "dim={dim}");
            assert_eq!(b % LANES, 0, "dim={dim}");
        }
    }

    #[test]
    #[should_panic(expected = "rows must hold")]
    fn rejects_mismatched_row_buffer() {
        let mut out = vec![0.0; 3];
        BlockEval::new().eval_rows(&kernel(), 4, &[0.0; 7], &[0.0; 4], &mut out);
    }
}
