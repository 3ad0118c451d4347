//! Fig. 10 — qualitative visual-word detection ("KFC grandpa").
//!
//! Partial-duplicate images share regions whose SIFT descriptors form
//! tight visual words; descriptors from random regions are noise. The
//! paper plots detected descriptors in green and filtered noise in red
//! per method (PALID, ALID, IID, SEA, AP). Without images, the same
//! content is a table: per method, how many true visual-word
//! descriptors were detected (recall, "green points") and how much
//! noise was filtered out (precision).

use alid_bench::report::fmt;
use alid_bench::runners::{run_alid, run_ap_dense, run_iid_dense, run_palid, run_sea_dense};
use alid_bench::{parse_args, print_table, save_json, RunCfg};
use alid_data::sift::partial_duplicate_scene;

fn main() {
    let args = parse_args();
    let images = if args.full { 200 } else { 50 };
    let images = ((images as f64 * args.scale) as usize).max(10);
    let ds = partial_duplicate_scene(images, 17);
    eprintln!(
        "scene: {} images sharing {} regions -> {} word descriptors + {} noise",
        images,
        ds.truth.cluster_count(),
        ds.truth.positive_count(),
        ds.truth.noise_count()
    );
    let cfg = RunCfg::default();
    let recs = vec![
        run_palid(&ds, &cfg, 4),
        run_alid(&ds, &cfg),
        run_iid_dense(&ds, &cfg),
        run_sea_dense(&ds, &cfg),
        run_ap_dense(&ds, &cfg),
    ];
    let positives = ds.truth.positive_count() as f64;
    let noise = ds.truth.noise_count() as f64;
    let rows: Vec<Vec<String>> = recs
        .iter()
        .map(|r| {
            let detected_pos = (r.recall * positives).round() as usize;
            let clustered = if r.precision > 0.0 { detected_pos as f64 / r.precision } else { 0.0 };
            let noise_kept = (clustered - detected_pos as f64).max(0.0);
            let noise_filtered = noise - noise_kept;
            vec![
                r.method.clone(),
                format!("{detected_pos}/{}", positives as usize),
                fmt(r.recall),
                fmt(r.precision),
                format!("{:.0}/{}", noise_filtered, noise as usize),
                fmt(r.avg_f),
            ]
        })
        .collect();
    print_table(
        "Fig. 10 — visual words: detected descriptors (green) vs filtered noise (red)",
        &["method", "detected positives", "recall", "precision", "noise filtered", "AVG-F"],
        &rows,
    );
    save_json("fig10_visual_words", &recs);
}
