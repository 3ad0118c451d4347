//! Developer utility: time each method on one workload (not a paper
//! artifact; used to size the quick-mode figure runs).

use alid_bench::runners::*;
use alid_bench::RunCfg;
use alid_data::sift::partial_duplicate_scene;
use std::time::Instant;

fn main() {
    let ds = partial_duplicate_scene(50, 17);
    eprintln!("n = {}", ds.len());
    let cfg = RunCfg::default();
    type Stage<'a> = (&'a str, Box<dyn Fn() -> RunRecord + 'a>);
    let stages: Vec<Stage> = vec![
        ("ALID", Box::new(|| run_alid(&ds, &cfg))),
        ("PALID-4", Box::new(|| run_palid(&ds, &cfg, 4))),
        ("IID", Box::new(|| run_iid_dense(&ds, &cfg))),
        ("SEA", Box::new(|| run_sea_dense(&ds, &cfg))),
        ("AP", Box::new(|| run_ap_dense(&ds, &cfg))),
    ];
    for (name, f) in stages {
        let t = Instant::now();
        let rec = f();
        eprintln!(
            "{name}: {:.2}s (avg_f {:.3}, {} clusters)",
            t.elapsed().as_secs_f64(),
            rec.avg_f,
            rec.clusters
        );
    }
}
