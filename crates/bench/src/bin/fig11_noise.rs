//! Fig. 11 — noise-resistance study (Appendix C).
//!
//! AVG-F of eight methods as the noise degree (#noise / #ground-truth)
//! grows from 0 to 6, on NART and Sub-NDI. The paper's claims: the
//! partitioning methods (KM, SC-FL, SC-NYS) fall off fast — they force
//! noise into clusters — while the affinity-based methods (AP, IID,
//! SEA, ALID) degrade slowly; mean shift sits in between, fine on NART
//! but poor on the image features.

use alid_bench::report::fmt;
use alid_bench::runners::{
    run_alid, run_ap_dense, run_iid_dense, run_kmeans, run_meanshift, run_sc_full, run_sc_nystrom,
    run_sea_dense,
};
use alid_bench::{parse_args, print_table, save_json, RunCfg};
use alid_data::groundtruth::LabeledDataset;
use alid_data::nart::nart_with;
use alid_data::ndi::sub_ndi;

fn main() {
    let args = parse_args();
    let scale = if args.full { 0.6 } else { 0.2 } * args.scale;
    let degrees = [0.0, 1.0, 2.0, 4.0, 6.0];
    let cfg = RunCfg::default();
    let mut all = Vec::new();
    for corpus in ["nart", "sub-ndi"] {
        let mut rows = Vec::new();
        for &degree in &degrees {
            let ds: LabeledDataset = if corpus == "nart" {
                let positive = (734.0 * scale).round() as usize;
                nart_with(scale, Some((positive as f64 * degree).round() as usize), 23)
            } else {
                let positive = (1420.0 * scale).round() as usize;
                sub_ndi(scale, Some((positive as f64 * degree).round() as usize), 23)
            };
            eprintln!(
                "[{corpus} ND={degree}] n={} ({} positive / {} noise)",
                ds.len(),
                ds.truth.positive_count(),
                ds.truth.noise_count()
            );
            let recs = vec![
                run_ap_dense(&ds, &cfg),
                run_iid_dense(&ds, &cfg),
                run_sea_dense(&ds, &cfg),
                run_alid(&ds, &cfg),
                run_kmeans(&ds, &cfg),
                run_sc_full(&ds, &cfg),
                run_sc_nystrom(&ds, &cfg),
                run_meanshift(&ds, &cfg),
            ];
            for rec in recs {
                eprintln!("  {}: AVG-F {}", rec.method, fmt(rec.avg_f));
                rows.push(vec![
                    format!("{degree}"),
                    rec.method.clone(),
                    fmt(rec.avg_f),
                    fmt(rec.runtime_s),
                ]);
                all.push(rec);
            }
        }
        print_table(
            &format!("Fig. 11 on {corpus}-sim — AVG-F vs noise degree"),
            &["noise degree", "method", "AVG-F", "runtime_s"],
            &rows,
        );
    }
    save_json("fig11_noise", &all);
}
