//! Experiment harness regenerating every table and figure of the ALID
//! paper's evaluation (Section 5 + Appendix C).
//!
//! Each binary under `src/bin/` reproduces one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_complexity` | Table 1 — affinity-matrix complexity in the three `a*` regimes |
//! | `fig6_sparsity` | Fig. 6 — AVG-F / runtime / sparse degree vs LSH segment length `r` |
//! | `fig7_scalability` | Fig. 7 — runtime / memory / AVG-F vs data size |
//! | `table2_palid` | Table 2 — PALID speedup vs executors |
//! | `fig9_sift_scalability` | Fig. 9 — runtime / memory on SIFT subsets |
//! | `fig10_visual_words` | Fig. 10 — qualitative visual-word detection |
//! | `fig11_noise` | Fig. 11 — AVG-F vs noise degree, 8 methods |
//! | `bench_speculation` | beyond the paper: speculative-peeling conflict rates and adaptive round width on overlap sweeps |
//!
//! Every binary runs at a laptop-friendly quick scale by default and at
//! a larger scale with `--full`; absolute numbers differ from the
//! paper's 2014 hardware, the *shapes* (growth orders, method ordering,
//! crossovers) are what EXPERIMENTS.md compares. Results are printed as
//! aligned tables and mirrored as JSON under `experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod fit;
pub mod fixtures;
pub mod report;
pub mod runners;

pub use fit::loglog_slope;
pub use report::{print_table, save_json};
pub use runners::{RunCfg, RunRecord};

/// Parses the common CLI convention of the figure binaries: `--full`
/// switches to paper-leaning sizes, `--scale=X` multiplies data-set
/// sizes, `--workers=N` pins the exec-layer worker count (the default
/// is [`alid_exec::ExecPolicy::auto`]; results are byte-identical for
/// any count, but parallel speculative peeling records the discarded
/// speculations' work too — pass `--workers=1` when comparing raw cost
/// counters against the paper's sequential growth orders).
pub fn parse_args() -> CliArgs {
    let mut full = false;
    let mut scale = 1.0f64;
    let mut workers = None;
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            full = true;
        } else if let Some(v) = arg.strip_prefix("--scale=") {
            scale = v.parse().expect("--scale=<float>");
        } else if let Some(v) = arg.strip_prefix("--workers=") {
            let w: usize = v.parse().expect("--workers=<positive integer>");
            assert!(w >= 1, "--workers must be at least 1");
            workers = Some(w);
        } else if arg == "--help" || arg == "-h" {
            eprintln!(
                "options: --full (paper-leaning sizes), --scale=<f64>, \
                 --workers=<n> (default: all cores)"
            );
            std::process::exit(0);
        } else {
            eprintln!("unknown option {arg}; try --help");
            std::process::exit(2);
        }
    }
    CliArgs { full, scale, workers }
}

/// Parsed CLI options.
#[derive(Clone, Copy, Debug)]
pub struct CliArgs {
    /// Run at paper-leaning sizes.
    pub full: bool,
    /// Extra multiplier on data-set sizes.
    pub scale: f64,
    /// Explicit exec-layer worker count (`None` = auto).
    pub workers: Option<usize>,
}

impl CliArgs {
    /// The execution policy the binaries hand to [`RunCfg`]:
    /// `--workers=N` when given, every core otherwise.
    pub fn exec(&self) -> alid_exec::ExecPolicy {
        alid_exec::ExecPolicy::auto_or(self.workers)
    }
}
