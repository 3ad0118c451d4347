//! Fig. 6 — influence of the sparse degree (Section 5.1).
//!
//! AP/SEA/IID run on an LSH-sparsified affinity matrix; the LSH segment
//! length `r` steers the sparse degree (fraction of zero entries). ALID
//! uses the same LSH module inside CIVS but always computes *exact*
//! local submatrices. The paper's claims: (a) everyone's AVG-F rises as
//! the sparse degree falls (cohesiveness is restored); (b) ALID reaches
//! its plateau AVG-F while still pruning ~99.8% of the matrix; (c) at
//! low sparse degree the baselines' runtimes blow up (AP worst) while
//! ALID stays flat.

use alid_bench::report::fmt;
use alid_bench::runners::{run_alid_with, run_sparse_baseline};
use alid_bench::{parse_args, print_table, save_json, RunCfg};
use alid_data::groundtruth::LabeledDataset;
use alid_data::nart::nart_with;
use alid_data::ndi::sub_ndi;
use alid_lsh::LshParams;

fn main() {
    let args = parse_args();
    // Quick mode shrinks the corpora (the paper's NART is 5 301 items,
    // Sub-NDI 9 940) and lightens the LSH ensemble; full mode uses the
    // paper's 40 projections x 50 tables.
    let (scale, tables, projections) = if args.full { (1.0, 50, 40) } else { (0.22, 16, 12) };
    let scale = scale * args.scale;
    let datasets: Vec<LabeledDataset> = vec![nart_with(scale, None, 5), sub_ndi(scale, None, 5)];
    // Segment lengths as multiples of the kernel's half-affinity
    // distance (the paper sweeps r in feature-space units; our
    // simulators have their own scales, so the sweep is expressed
    // relative to the calibrated kernel).
    // The top factors push the matrices toward dense (low sparse
    // degree), where the paper's runtime blow-up of the baselines shows.
    let r_factors = [0.3, 0.8, 1.5, 3.0, 5.0, 8.0];
    let cfg = RunCfg::default();
    let mut all = Vec::new();
    for ds in &datasets {
        let kernel = cfg.kernel(ds);
        let d_half = kernel.distance_at(0.5);
        let mut rows = Vec::new();
        for &f in &r_factors {
            let r = f * d_half;
            let lsh = LshParams { tables, projections, r, seed: cfg.seed };
            for method in ["AP", "SEA", "IID"] {
                let rec = run_sparse_baseline(method, ds, &cfg, lsh);
                eprintln!(
                    "[{} r={:.3}] {}: SD={} AVG-F={} {}s",
                    ds.name,
                    r,
                    rec.method,
                    fmt(rec.sparse_degree.unwrap_or(f64::NAN)),
                    fmt(rec.avg_f),
                    fmt(rec.runtime_s)
                );
                rows.push(vec![
                    format!("{f:.2}"),
                    rec.method.clone(),
                    fmt(rec.sparse_degree.unwrap_or(f64::NAN)),
                    fmt(rec.avg_f),
                    if rec.oom { "OOM".into() } else { fmt(rec.runtime_s) },
                ]);
                all.push(rec);
            }
            // ALID with the *same* LSH module (Section 5.1: parameter
            // settings of LSH kept identical across methods).
            let mut params = cfg.alid_params(ds);
            params.lsh = lsh;
            let rec = run_alid_with(ds, &cfg, params);
            eprintln!(
                "[{} r={:.3}] ALID: SD={} AVG-F={} {}s",
                ds.name,
                r,
                fmt(rec.sparse_degree.unwrap_or(f64::NAN)),
                fmt(rec.avg_f),
                fmt(rec.runtime_s)
            );
            rows.push(vec![
                format!("{f:.2}"),
                rec.method.clone(),
                fmt(rec.sparse_degree.unwrap_or(f64::NAN)),
                fmt(rec.avg_f),
                fmt(rec.runtime_s),
            ]);
            all.push(rec);
        }
        print_table(
            &format!(
                "Fig. 6 on {} — AVG-F & runtime vs LSH segment length (r = factor x {:.3})",
                ds.name, d_half
            ),
            &["r factor", "method", "sparse degree", "AVG-F", "runtime_s"],
            &rows,
        );
    }
    save_json("fig6_sparsity", &all);
}
