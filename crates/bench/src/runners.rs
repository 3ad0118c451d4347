//! Uniform method runners: each takes a labelled data set, runs one
//! method end to end (affinity construction included, as the paper
//! measures), and reports runtime, deterministic cost counters and
//! detection quality.

use std::sync::Arc;
use std::time::Instant;

use alid_affinity::clustering::Clustering;
use alid_affinity::cost::CostModel;
use alid_affinity::dense::DenseAffinity;
use alid_affinity::kernel::LaplacianKernel;
use alid_affinity::sparse::{SparseAffinity, SparseBuilder};
use alid_baselines::ap::{ap_detect_all, ApParams};
use alid_baselines::common::HaltPolicy;
use alid_baselines::iid::{iid_detect_all, IidParams};
use alid_baselines::kmeans::{kmeans_detect_all, KmeansParams};
use alid_baselines::meanshift::{meanshift_detect_all, MeanShiftParams};
use alid_baselines::sea::{sea_detect_all, SeaParams};
use alid_baselines::spectral::{sc_full_detect_all, sc_nystrom_detect_all, SpectralParams};
use alid_core::palid::{palid_detect, PalidParams};
use alid_core::{AlidParams, Peeler};
use alid_data::groundtruth::LabeledDataset;
use alid_data::metrics::{avg_f1, precision_recall};
use alid_lsh::{LshIndex, LshParams};
use serde::{Json, Serialize};

/// Shared run configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Affinity the kernel should take at the data set's `scale`
    /// distance (calibrates `k` of Eq. 1).
    pub target_affinity: f64,
    /// Dominant-cluster density threshold (paper: 0.75).
    pub dominant_density: f64,
    /// Dominant-cluster minimum size.
    pub dominant_min_size: usize,
    /// Memory budget in bytes for matrix-holding methods; a method whose
    /// matrix would not fit is reported as OOM instead of run (the
    /// paper stops baselines at its 12 GB RAM the same way).
    pub budget_bytes: u64,
    /// Ceiling for the affinity of typical *noise* pairs; the kernel is
    /// sharpened until unrelated items fall below it (matters on bounded
    /// feature spaces, where noise cannot get arbitrarily far).
    pub noise_floor: f64,
    /// Halt policy handed to the full-graph peeling baselines.
    pub halt: HaltPolicy,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for RunCfg {
    fn default() -> Self {
        Self {
            target_affinity: 0.9,
            dominant_density: 0.75,
            dominant_min_size: 3,
            budget_bytes: 1_500_000_000,
            noise_floor: 0.35,
            halt: HaltPolicy::StopBelowDensity { threshold: 0.5, patience: 20 },
            seed: 0xbe7c,
        }
    }
}

impl RunCfg {
    /// The calibrated kernel for a data set (intra-cluster affinity at
    /// `target_affinity`, noise affinity at most `noise_floor`).
    pub fn kernel(&self, ds: &LabeledDataset) -> LaplacianKernel {
        ds.suggested_kernel(self.target_affinity, self.noise_floor)
    }

    /// AP parameters: bounded sweeps (AP with damping 0.5 converges well
    /// before 300 on these workloads) and an exemplar preference midway
    /// between the noise floor and the intra-cluster affinity — the
    /// "carefully tuned" setting of Section 5. The canonical
    /// median-similarity preference sits *at* the noise level on bounded
    /// feature spaces and merges clusters with adjacent noise.
    pub fn ap_params(&self) -> ApParams {
        ApParams {
            max_iters: 300,
            convits: 30,
            preference: Some(0.5 * (self.noise_floor + self.target_affinity)),
            ..Default::default()
        }
    }

    /// ALID parameters for a data set.
    pub fn alid_params(&self, ds: &LabeledDataset) -> AlidParams {
        let mut p = AlidParams::new(self.kernel(ds));
        p.first_roi_radius = p.kernel.distance_at(0.5);
        p.density_threshold = self.dominant_density;
        p.min_cluster_size = self.dominant_min_size;
        p.lsh.seed = self.seed;
        p
    }
}

/// One method's measured outcome on one data set.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Method tag ("ALID", "IID", ...).
    pub method: String,
    /// Data-set name.
    pub dataset: String,
    /// Data-set size.
    pub n: usize,
    /// Wall-clock seconds, affinity construction included.
    pub runtime_s: f64,
    /// Kernel evaluations (deterministic time proxy).
    pub kernel_evals: u64,
    /// Peak memory in MiB per the cost model (matrix entries + aux).
    pub peak_mib: f64,
    /// Peak memory of affinity-matrix entries alone, MiB (Table 1's
    /// quantity — excludes LSH tables and other auxiliary structures).
    pub matrix_peak_mib: f64,
    /// AVG-F against the ground truth.
    pub avg_f: f64,
    /// Corpus precision of clustered items.
    pub precision: f64,
    /// Corpus recall of positive items.
    pub recall: f64,
    /// Clusters surviving the dominant filter (or all clusters for
    /// partitioning methods).
    pub clusters: usize,
    /// Sparse degree of the matrix the method ran on, when applicable.
    pub sparse_degree: Option<f64>,
    /// The method was skipped because its matrix exceeded the budget.
    pub oom: bool,
}

// Hand-written where the real serde would derive: the offline serde
// shim has no proc macro (see DESIGN.md, "Dependency shims").
impl Serialize for RunRecord {
    fn to_json(&self) -> Json {
        Json::object([
            ("method", self.method.to_json()),
            ("dataset", self.dataset.to_json()),
            ("n", self.n.to_json()),
            ("runtime_s", self.runtime_s.to_json()),
            ("kernel_evals", self.kernel_evals.to_json()),
            ("peak_mib", self.peak_mib.to_json()),
            ("matrix_peak_mib", self.matrix_peak_mib.to_json()),
            ("avg_f", self.avg_f.to_json()),
            ("precision", self.precision.to_json()),
            ("recall", self.recall.to_json()),
            ("clusters", self.clusters.to_json()),
            ("sparse_degree", self.sparse_degree.to_json()),
            ("oom", self.oom.to_json()),
        ])
    }
}

impl RunRecord {
    fn oom(method: &str, ds: &LabeledDataset) -> Self {
        Self {
            method: method.into(),
            dataset: ds.name.clone(),
            n: ds.len(),
            runtime_s: f64::NAN,
            kernel_evals: 0,
            peak_mib: f64::NAN,
            matrix_peak_mib: f64::NAN,
            avg_f: f64::NAN,
            precision: f64::NAN,
            recall: f64::NAN,
            clusters: 0,
            sparse_degree: None,
            oom: true,
        }
    }

    fn finish(
        method: &str,
        ds: &LabeledDataset,
        started: Instant,
        cost: &CostModel,
        clustering: &Clustering,
        sparse_degree: Option<f64>,
    ) -> Self {
        let snap = cost.snapshot();
        let (precision, recall) = precision_recall(&ds.truth, clustering);
        Self {
            method: method.into(),
            dataset: ds.name.clone(),
            n: ds.len(),
            runtime_s: started.elapsed().as_secs_f64(),
            kernel_evals: snap.kernel_evals,
            peak_mib: snap.peak_mib(),
            matrix_peak_mib: snap.entries_peak as f64 * 8.0 / (1024.0 * 1024.0),
            avg_f: avg_f1(&ds.truth, clustering),
            precision,
            recall,
            clusters: clustering.len(),
            sparse_degree,
            oom: false,
        }
    }
}

/// Whether a dense `n x n` matrix (plus AP's two message planes when
/// `ap` is set) fits the budget.
fn dense_fits(n: usize, budget: u64, ap: bool) -> bool {
    let planes: u64 = if ap { 3 } else { 1 };
    (n as u64 * n as u64).saturating_mul(8 * planes) <= budget
}

/// ALID with the data-set-calibrated parameters.
pub fn run_alid(ds: &LabeledDataset, cfg: &RunCfg) -> RunRecord {
    run_alid_with(ds, cfg, cfg.alid_params(ds))
}

/// ALID with explicit parameters (used by Fig. 6, which pins the LSH
/// module across methods, and by the ablations).
pub fn run_alid_with(ds: &LabeledDataset, cfg: &RunCfg, params: AlidParams) -> RunRecord {
    let cost = CostModel::shared();
    let started = Instant::now();
    let clustering = Peeler::new(&ds.data, params, Arc::clone(&cost)).detect_all();
    let dominant = clustering.dominant(cfg.dominant_density, cfg.dominant_min_size);
    let n2 = (ds.len() * ds.len()) as f64;
    let sparse_degree = (1.0 - cost.snapshot().kernel_evals as f64 / n2.max(1.0)).max(0.0);
    RunRecord::finish("ALID", ds, started, &cost, &dominant, Some(sparse_degree))
}

/// PALID with the given executor count.
pub fn run_palid(ds: &LabeledDataset, cfg: &RunCfg, executors: usize) -> RunRecord {
    let params = cfg.alid_params(ds);
    let cost = CostModel::shared();
    let pp = PalidParams::with_executors(executors);
    let started = Instant::now();
    let clustering = palid_detect(&ds.data, &params, &pp, &cost);
    let dominant = clustering.dominant(cfg.dominant_density, cfg.dominant_min_size);
    let mut rec = RunRecord::finish("PALID", ds, started, &cost, &dominant, None);
    rec.method = format!("PALID-{executors}");
    rec
}

/// IID on the full dense matrix.
pub fn run_iid_dense(ds: &LabeledDataset, cfg: &RunCfg) -> RunRecord {
    if !dense_fits(ds.len(), cfg.budget_bytes, false) {
        return RunRecord::oom("IID", ds);
    }
    let cost = CostModel::shared();
    let kernel = cfg.kernel(ds);
    let started = Instant::now();
    let graph = DenseAffinity::build(&ds.data, &kernel, Arc::clone(&cost));
    let params = IidParams { halt: cfg.halt, ..Default::default() };
    let clustering = iid_detect_all(&graph, &params);
    let dominant = clustering.dominant(cfg.dominant_density, cfg.dominant_min_size);
    RunRecord::finish("IID", ds, started, &cost, &dominant, Some(0.0))
}

/// SEA on the full dense matrix.
pub fn run_sea_dense(ds: &LabeledDataset, cfg: &RunCfg) -> RunRecord {
    if !dense_fits(ds.len(), cfg.budget_bytes, false) {
        return RunRecord::oom("SEA", ds);
    }
    let cost = CostModel::shared();
    let kernel = cfg.kernel(ds);
    let started = Instant::now();
    let graph = DenseAffinity::build(&ds.data, &kernel, Arc::clone(&cost));
    let params = SeaParams { halt: cfg.halt, ..Default::default() };
    let clustering = sea_detect_all(&graph, &params);
    let dominant = clustering.dominant(cfg.dominant_density, cfg.dominant_min_size);
    RunRecord::finish("SEA", ds, started, &cost, &dominant, Some(0.0))
}

/// AP on the full dense matrix.
pub fn run_ap_dense(ds: &LabeledDataset, cfg: &RunCfg) -> RunRecord {
    if !dense_fits(ds.len(), cfg.budget_bytes, true) {
        return RunRecord::oom("AP", ds);
    }
    let cost = CostModel::shared();
    let kernel = cfg.kernel(ds);
    let started = Instant::now();
    let graph = DenseAffinity::build(&ds.data, &kernel, Arc::clone(&cost));
    let clustering = ap_detect_all(&graph, &cfg.ap_params(), &cost);
    let dominant = clustering.dominant(cfg.dominant_density, cfg.dominant_min_size);
    RunRecord::finish("AP", ds, started, &cost, &dominant, Some(0.0))
}

/// Builds the LSH-sparsified matrix of Section 5.1 and reports its
/// sparse degree.
pub fn sparsify(
    ds: &LabeledDataset,
    kernel: &LaplacianKernel,
    lsh: LshParams,
    cost: &Arc<CostModel>,
) -> SparseAffinity {
    let index = LshIndex::build(&ds.data, lsh, cost);
    let lists = index.neighbor_lists(&ds.data);
    let mut builder = SparseBuilder::new(ds.len());
    builder.add_neighbor_lists(&lists);
    builder.build(&ds.data, kernel, Arc::clone(cost))
}

/// IID / SEA / AP on an LSH-sparsified matrix (Fig. 6). `method` picks
/// which baseline; budget gating uses the *sparse* size.
pub fn run_sparse_baseline(
    method: &str,
    ds: &LabeledDataset,
    cfg: &RunCfg,
    lsh: LshParams,
) -> RunRecord {
    let cost = CostModel::shared();
    let kernel = cfg.kernel(ds);
    let started = Instant::now();
    let graph = sparsify(ds, &kernel, lsh, &cost);
    if graph.nnz() as u64 * 8 * 3 > cfg.budget_bytes {
        return RunRecord::oom(method, ds);
    }
    let sd = graph.sparse_degree();
    let clustering = match method {
        "IID" => {
            let params = IidParams { halt: cfg.halt, ..Default::default() };
            iid_detect_all(&graph, &params)
        }
        "SEA" => {
            let params = SeaParams { halt: cfg.halt, ..Default::default() };
            sea_detect_all(&graph, &params)
        }
        "AP" => ap_detect_all(&graph, &cfg.ap_params(), &cost),
        other => panic!("unknown sparse baseline {other}"),
    };
    let dominant = clustering.dominant(cfg.dominant_density, cfg.dominant_min_size);
    RunRecord::finish(method, ds, started, &cost, &dominant, Some(sd))
}

/// k-means with `K = true clusters + 1` (noise as an extra cluster, the
/// Fig. 11 protocol).
pub fn run_kmeans(ds: &LabeledDataset, cfg: &RunCfg) -> RunRecord {
    let k = ds.truth.cluster_count() + 1;
    let cost = CostModel::shared();
    let started = Instant::now();
    let params = KmeansParams { seed: cfg.seed, ..KmeansParams::with_k(k.min(ds.len())) };
    let clustering = kmeans_detect_all(&ds.data, &params);
    RunRecord::finish("KM", ds, started, &cost, &clustering, None)
}

/// Spectral clustering on the full matrix, `K = true clusters + 1`.
pub fn run_sc_full(ds: &LabeledDataset, cfg: &RunCfg) -> RunRecord {
    if !dense_fits(ds.len(), cfg.budget_bytes, false) {
        return RunRecord::oom("SC-FL", ds);
    }
    let k = (ds.truth.cluster_count() + 1).min(ds.len());
    let cost = CostModel::shared();
    let kernel = cfg.kernel(ds);
    let started = Instant::now();
    let params = SpectralParams { seed: cfg.seed, ..SpectralParams::with_k(k) };
    let clustering = sc_full_detect_all(&ds.data, &kernel, &params, &cost);
    RunRecord::finish("SC-FL", ds, started, &cost, &clustering, None)
}

/// Nyström spectral clustering, `K = true clusters + 1`.
pub fn run_sc_nystrom(ds: &LabeledDataset, cfg: &RunCfg) -> RunRecord {
    let k = (ds.truth.cluster_count() + 1).min(ds.len());
    let cost = CostModel::shared();
    let kernel = cfg.kernel(ds);
    let started = Instant::now();
    let params = SpectralParams { seed: cfg.seed, ..SpectralParams::with_k(k) };
    let clustering = sc_nystrom_detect_all(&ds.data, &kernel, &params, &cost);
    RunRecord::finish("SC-NYS", ds, started, &cost, &clustering, None)
}

/// Gaussian mean shift; the bandwidth defaults to twice the data set's
/// intra-cluster scale (a "properly fitting" setting per Appendix C).
pub fn run_meanshift(ds: &LabeledDataset, _cfg: &RunCfg) -> RunRecord {
    let cost = CostModel::shared();
    let started = Instant::now();
    let params = MeanShiftParams::with_bandwidth(ds.scale * 2.0);
    let clustering = meanshift_detect_all(&ds.data, &params);
    RunRecord::finish("MS", ds, started, &cost, &clustering, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_data::ndi::ndi_with;

    fn tiny() -> LabeledDataset {
        ndi_with(3, 45, 30, 9)
    }

    #[test]
    fn alid_and_iid_agree_on_a_tiny_instance() {
        let ds = tiny();
        let cfg = RunCfg::default();
        let alid = run_alid(&ds, &cfg);
        let iid = run_iid_dense(&ds, &cfg);
        assert!(!alid.oom && !iid.oom);
        assert!(alid.avg_f > 0.95, "ALID AVG-F {}", alid.avg_f);
        assert!(iid.avg_f > 0.95, "IID AVG-F {}", iid.avg_f);
        // ALID computes strictly fewer kernels than the full matrix.
        assert!(alid.kernel_evals < iid.kernel_evals);
        assert!(alid.peak_mib < iid.peak_mib);
    }

    #[test]
    fn oom_gate_fires() {
        let ds = tiny();
        let cfg = RunCfg { budget_bytes: 1, ..Default::default() };
        assert!(run_iid_dense(&ds, &cfg).oom);
        assert!(run_ap_dense(&ds, &cfg).oom);
        assert!(!run_alid(&ds, &cfg).oom, "ALID never allocates the matrix");
    }

    #[test]
    fn sparse_baseline_reports_sparse_degree() {
        let ds = tiny();
        let cfg = RunCfg::default();
        let kernel = cfg.kernel(&ds);
        let lsh = LshParams::new(8, 8, kernel.distance_at(0.5), 3);
        let rec = run_sparse_baseline("SEA", &ds, &cfg, lsh);
        let sd = rec.sparse_degree.expect("sparse degree reported");
        assert!((0.0..=1.0).contains(&sd));
    }

    #[test]
    fn partitioning_methods_cover_everything() {
        let ds = tiny();
        let cfg = RunCfg::default();
        for rec in [run_kmeans(&ds, &cfg), run_sc_nystrom(&ds, &cfg)] {
            assert!(rec.avg_f > 0.3, "{}: AVG-F {}", rec.method, rec.avg_f);
            assert!(rec.clusters >= 1);
        }
    }
}
