//! Spectral clustering baselines of the noise-resistance study
//! (Appendix C): SC-FL on the full affinity matrix (Ng, Jordan & Weiss,
//! NIPS 2002) and SC-NYS with the Nyström approximation (Fowlkes,
//! Belongie, Chung & Malik, TPAMI 2004).
//!
//! Both embed the items with the top-K eigenvectors of the normalised
//! affinity `D^{-1/2} A D^{-1/2}`, row-normalise, and run k-means in the
//! embedding. SC-FL extracts the eigenvectors by orthogonal iteration on
//! the full matrix; SC-NYS approximates them from an `m`-landmark sample
//! using the one-shot method of Fowlkes et al.

use alid_affinity::clustering::Clustering;
use alid_affinity::dense::DenseAffinity;
use alid_affinity::kernel::LaplacianKernel;
use alid_affinity::vector::Dataset;
use alid_linalg::eigen::jacobi_eigh;
use alid_linalg::matrix::Mat;
use alid_linalg::power::simultaneous_iteration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kmeans::{kmeans_detect_all, KmeansParams};

/// Spectral clustering tunables.
#[derive(Clone, Copy, Debug)]
pub struct SpectralParams {
    /// Cluster count `K` (partitioning methods need it up front).
    pub k: usize,
    /// Power-iteration cap (SC-FL).
    pub max_power_iters: usize,
    /// Landmark count `m` (SC-NYS).
    pub landmarks: usize,
    /// RNG seed (landmark sampling, start block, k-means).
    pub seed: u64,
}

impl SpectralParams {
    /// Defaults for a given `K`.
    pub fn with_k(k: usize) -> Self {
        assert!(k >= 1, "need at least one cluster");
        Self { k, max_power_iters: 300, landmarks: 150, seed: 0x5c }
    }
}

/// SC-FL: full-matrix normalised spectral clustering.
pub fn sc_full_detect_all(
    ds: &Dataset,
    kernel: &LaplacianKernel,
    params: &SpectralParams,
    cost: &std::sync::Arc<alid_affinity::cost::CostModel>,
) -> Clustering {
    let n = ds.len();
    if n == 0 {
        return Clustering::new(0);
    }
    let k = params.k.min(n);
    let affinity = DenseAffinity::build(ds, kernel, std::sync::Arc::clone(cost));
    // Degrees (add a floor so isolated rows do not blow up the scaling).
    let deg: Vec<f64> = (0..n).map(|i| affinity.row(i).iter().sum::<f64>().max(1e-12)).collect();
    let dinv_sqrt: Vec<f64> = deg.iter().map(|d| 1.0 / d.sqrt()).collect();
    // Operator x -> D^{-1/2} A D^{-1/2} x (the mat-vec dominates SC-FL
    // after the build).
    let matvec = |x: &[f64], out: &mut [f64]| {
        let scaled: Vec<f64> = x.iter().zip(&dinv_sqrt).map(|(v, s)| v * s).collect();
        affinity.matvec(&scaled, out);
        for (o, s) in out.iter_mut().zip(&dinv_sqrt) {
            *o *= s;
        }
    };
    let (_vals, vecs) =
        simultaneous_iteration(matvec, n, k, params.max_power_iters, 1e-12, params.seed);
    let embedding = row_normalized_embedding(&vecs, n, k);
    kmeans_detect_all(&embedding, &KmeansParams { seed: params.seed, ..KmeansParams::with_k(k) })
}

/// SC-NYS: Nyström-approximated spectral clustering. Only the
/// `n x m` kernel block is ever computed.
pub fn sc_nystrom_detect_all(
    ds: &Dataset,
    kernel: &LaplacianKernel,
    params: &SpectralParams,
    cost: &std::sync::Arc<alid_affinity::cost::CostModel>,
) -> Clustering {
    let n = ds.len();
    if n == 0 {
        return Clustering::new(0);
    }
    let k = params.k.min(n);
    let m = params.landmarks.clamp(k, n);
    let mut rng = StdRng::seed_from_u64(params.seed);
    // Sample m distinct landmarks.
    let mut ids: Vec<usize> = (0..n).collect();
    for i in 0..m {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    let landmarks = &ids[..m];
    let rest = &ids[m..];
    // W: m x m landmark block; B: m x (n-m) cross block. W is small
    // (m^2); B is the dominant kernel cost.
    let mut w = Mat::zeros(m, m);
    for (a, &i) in landmarks.iter().enumerate() {
        for (b, &j) in landmarks.iter().enumerate().skip(a + 1) {
            let v = kernel.eval(ds.get(i), ds.get(j));
            w[(a, b)] = v;
            w[(b, a)] = v;
        }
    }
    let mut bmat = Mat::zeros(m, n - m);
    for (a, &i) in landmarks.iter().enumerate() {
        for (b, &j) in rest.iter().enumerate() {
            bmat[(a, b)] = kernel.eval(ds.get(i), ds.get(j));
        }
    }
    cost.record_kernel_evals((m * (m - 1) / 2 + m * (n - m)) as u64);
    cost.alloc_entries((m * m + m * (n - m)) as u64);
    // ---- Approximate degrees (Fowlkes et al., one-shot) -------------
    // d1 = W 1 + B 1 ; d2 = Bᵀ 1 + Bᵀ W^{-1} (B 1).
    let ones_m = vec![1.0; m];
    let mut w_row = vec![0.0; m];
    w.matvec(&ones_m, &mut w_row);
    let b_row: Vec<f64> = (0..m).map(|i| bmat.row(i).iter().sum()).collect();
    let d1: Vec<f64> = (0..m).map(|i| (w_row[i] + b_row[i]).max(1e-12)).collect();
    let w_eig = jacobi_eigh(&w, 1e-12, 60);
    let w_pinv = w_eig.apply_function(|l| if l.abs() > 1e-10 { 1.0 / l } else { 0.0 });
    let mut winv_brow = vec![0.0; m];
    w_pinv.matvec(&b_row, &mut winv_brow);
    let bt = bmat.transpose();
    let mut d2 = vec![0.0; n - m];
    for (b, d) in d2.iter_mut().enumerate() {
        let row = bt.row(b);
        let col_sum: f64 = row.iter().sum();
        let corr: f64 = row.iter().zip(&winv_brow).map(|(x, y)| x * y).sum();
        *d = (col_sum + corr).max(1e-12);
    }
    // ---- Normalise W and B by the approximate degrees ----------------
    let mut wn = w.clone();
    for i in 0..m {
        for j in 0..m {
            wn[(i, j)] /= (d1[i] * d1[j]).sqrt();
        }
    }
    let mut bn = bmat.clone();
    for i in 0..m {
        for j in 0..(n - m) {
            bn[(i, j)] /= (d1[i] * d2[j]).sqrt();
        }
    }
    // ---- One-shot orthogonalisation ----------------------------------
    // S = Wn + Wn^{-1/2} Bn Bnᵀ Wn^{-1/2}; eigendecompose S; embed
    // V = [Wn; Bnᵀ] Wn^{-1/2} U Λ^{-1/2}.
    let wn_eig = jacobi_eigh(&wn, 1e-12, 60);
    let wn_inv_sqrt = wn_eig.apply_function(|l| if l > 1e-10 { 1.0 / l.sqrt() } else { 0.0 });
    let bbt = bn.matmul(&bn.transpose());
    let mut s = wn.clone();
    let corr = wn_inv_sqrt.matmul(&bbt).matmul(&wn_inv_sqrt);
    for i in 0..m {
        for j in 0..m {
            s[(i, j)] += corr[(i, j)];
        }
    }
    // Jacobi needs exact symmetry; the matmuls leave ~1e-15 asymmetry.
    for i in 0..m {
        for j in (i + 1)..m {
            let avg = 0.5 * (s[(i, j)] + s[(j, i)]);
            s[(i, j)] = avg;
            s[(j, i)] = avg;
        }
    }
    let s_eig = jacobi_eigh(&s, 1e-12, 60);
    // Top-k eigenpairs of S.
    // proj = Wn^{-1/2} U_k Λ_k^{-1/2}
    let proj = {
        let mut uk = Mat::zeros(m, k);
        for j in 0..k {
            let col = s_eig.vectors.col(j);
            let lam = s_eig.values[j].max(1e-12);
            for i in 0..m {
                uk[(i, j)] = col[i] / lam.sqrt();
            }
        }
        wn_inv_sqrt.matmul(&uk)
    };
    // Embedding rows: landmarks via Wn * proj, the rest via Bnᵀ * proj.
    let land_emb = wn.matmul(&proj);
    let rest_emb = bn.transpose().matmul(&proj);
    let mut embedding_rows = vec![vec![0.0; k]; n];
    for (a, &i) in landmarks.iter().enumerate() {
        embedding_rows[i].copy_from_slice(land_emb.row(a));
    }
    for (b, &j) in rest.iter().enumerate() {
        embedding_rows[j].copy_from_slice(rest_emb.row(b));
    }
    // Row-normalise and cluster.
    let mut flat = Vec::with_capacity(n * k);
    for row in &embedding_rows {
        let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            flat.extend(row.iter().map(|v| v / norm));
        } else {
            flat.extend(row.iter());
        }
    }
    cost.free_entries((m * m + m * (n - m)) as u64);
    let embedding = Dataset::from_flat(k, flat);
    kmeans_detect_all(&embedding, &KmeansParams { seed: params.seed, ..KmeansParams::with_k(k) })
}

/// Row-normalises the `n x k` eigenvector matrix into a [`Dataset`].
fn row_normalized_embedding(vecs: &Mat, n: usize, k: usize) -> Dataset {
    let mut flat = Vec::with_capacity(n * k);
    for i in 0..n {
        let row = vecs.row(i);
        let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            flat.extend(row.iter().map(|v| v / norm));
        } else {
            flat.extend(row.iter());
        }
    }
    Dataset::from_flat(k, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_affinity::cost::CostModel;

    /// Three well-separated 2-d blobs.
    fn blobs() -> Dataset {
        let mut ds = Dataset::new(2);
        for c in 0..3 {
            let cx = c as f64 * 20.0;
            for i in 0..12 {
                ds.push(&[cx + (i % 4) as f64 * 0.1, (i / 4) as f64 * 0.1]);
            }
        }
        ds
    }

    fn assert_partitions_blobs(clustering: &Clustering) {
        // Each blob must land in a single cluster.
        let labels = clustering.labels();
        for blob in 0..3 {
            let first = labels[blob * 12].expect("assigned");
            for i in 0..12 {
                assert_eq!(labels[blob * 12 + i], Some(first), "blob {blob} split at item {i}");
            }
        }
    }

    #[test]
    fn sc_full_separates_three_blobs() {
        let ds = blobs();
        let kernel = LaplacianKernel::l2(1.0);
        let clustering =
            sc_full_detect_all(&ds, &kernel, &SpectralParams::with_k(3), &CostModel::shared());
        assert_eq!(clustering.covered(), 36);
        assert_partitions_blobs(&clustering);
    }

    #[test]
    fn sc_nystrom_separates_three_blobs() {
        let ds = blobs();
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = SpectralParams::with_k(3);
        p.landmarks = 12;
        let clustering = sc_nystrom_detect_all(&ds, &kernel, &p, &CostModel::shared());
        assert_eq!(clustering.covered(), 36);
        assert_partitions_blobs(&clustering);
    }

    #[test]
    fn nystrom_computes_far_fewer_kernel_entries() {
        let ds = blobs();
        let kernel = LaplacianKernel::l2(1.0);
        let full_cost = CostModel::shared();
        let _ = sc_full_detect_all(&ds, &kernel, &SpectralParams::with_k(3), &full_cost);
        let nys_cost = CostModel::shared();
        let mut p = SpectralParams::with_k(3);
        p.landmarks = 6;
        let _ = sc_nystrom_detect_all(&ds, &kernel, &p, &nys_cost);
        assert!(
            nys_cost.snapshot().kernel_evals < full_cost.snapshot().kernel_evals,
            "Nyström must evaluate fewer kernels"
        );
        assert!(nys_cost.snapshot().entries_peak < full_cost.snapshot().entries_peak);
    }

    #[test]
    fn landmark_count_is_clamped() {
        let ds = blobs();
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = SpectralParams::with_k(2);
        p.landmarks = 10_000; // > n: clamp to n
        let clustering = sc_nystrom_detect_all(&ds, &kernel, &p, &CostModel::shared());
        assert_eq!(clustering.covered(), 36);
    }

    #[test]
    fn k_one_collapses_everything() {
        let ds = blobs();
        let kernel = LaplacianKernel::l2(1.0);
        let clustering =
            sc_full_detect_all(&ds, &kernel, &SpectralParams::with_k(1), &CostModel::shared());
        assert_eq!(clustering.len(), 1);
        assert_eq!(clustering.clusters[0].len(), 36);
    }
}
