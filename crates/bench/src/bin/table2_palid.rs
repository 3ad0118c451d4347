//! Table 2 — parallel performance of PALID on the SIFT workload.
//!
//! The paper runs PALID on Apache Spark over 50 million SIFT
//! descriptors: 17.2 h on 1 executor down to 2.29 h on 8 (speedup
//! 7.51). This reproduction swaps Spark for an in-process executor pool
//! (DESIGN.md records the substitution); the quantity under test — the
//! speedup ratio of the embarrassingly parallel map phase versus the
//! executor count — is the same. The SIFT simulator is size-scaled so
//! the run fits a laptop; pass `--full` for a larger sweep.

use alid_bench::report::fmt;
use alid_bench::runners::run_palid;
use alid_bench::{parse_args, print_table, save_json, RunCfg};
use alid_data::sift::{sift, SiftConfig};

fn main() {
    let args = parse_args();
    let total = if args.full { 200_000 } else { 20_000 };
    let total = ((total as f64 * args.scale) as usize).max(2_000);
    let ds = sift(&SiftConfig::scaled(total, 11));
    eprintln!(
        "SIFT workload: {} descriptors, {} visual words, {} noise",
        ds.len(),
        ds.truth.cluster_count(),
        ds.truth.noise_count()
    );
    let cfg = RunCfg::default();
    let executors = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut t1 = f64::NAN;
    for &e in &executors {
        let rec = run_palid(&ds, &cfg, e);
        if e == 1 {
            t1 = rec.runtime_s;
        }
        let speedup = t1 / rec.runtime_s;
        eprintln!(
            "PALID-{e}: {:.2}s (speedup {:.2}), AVG-F {}",
            rec.runtime_s,
            speedup,
            fmt(rec.avg_f)
        );
        rows.push(vec![
            format!("PALID-{e}Exec"),
            e.to_string(),
            fmt(rec.runtime_s),
            fmt(speedup),
            fmt(rec.avg_f),
        ]);
        records.push(rec);
    }
    print_table(
        "Table 2 — PALID on the SIFT workload (paper: 17.2h -> 2.29h, speedup 7.51 at 8 executors)",
        &["method", "executors", "runtime_s", "speedup ratio", "AVG-F"],
        &rows,
    );
    save_json("table2_palid", &records);
}
