//! `alid` — the one command-line entry point.
//!
//! Three subcommands:
//!
//! * `alid detect <data.csv> [options]` — batch detection: reads a
//!   headerless CSV of f64 feature rows, runs the ALID peeling loop
//!   (or PALID with `--parallel`), prints the dominant clusters. The
//!   subcommand name may be omitted (`alid data.csv ...` still works).
//! * `alid serve [options]` — the sharded online detection service
//!   with the std-only HTTP front end (see `alid serve --help`).
//! * `alid lint [options]` — the workspace determinism & safety
//!   linter (see DESIGN.md, "Enforced invariants"; `alid lint --help`).
//!
//! `detect` and `serve` take the same detection flags, parsed and
//! validated by one [`DetectionFlags`] (in `alid_service::cli`).
//!
//! Exit codes: 0 on success, 2 for a usage error, 1 for a failure. A
//! reader that closes stdout early (`alid detect … | head -1`) ends the
//! run with 0 and no message; a closed stderr never changes the code.
//!
//! ```text
//! alid data.csv --scale 0.3                  # calibrated kernel
//! alid data.csv --k 1.5 --min-density 0.6    # explicit kernel
//! alid data.csv --scale 0.3 --parallel 4     # PALID with 4 executors
//! alid serve --dim 16 --scale 0.25 --shards 4
//! ```

use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use alid::data::io::read_csv;
use alid::prelude::*;
use alid::service::cli::{DetectionFlags, DETECTION_USAGE};

struct Options {
    input: PathBuf,
    params: AlidParams,
    parallel: Option<usize>,
    assignments: bool,
}

fn usage() -> String {
    format!(
        "usage: alid [detect] <data.csv> [options]\n\
         \x20      alid serve [options]        (see `alid serve --help`)\n\
         \x20      alid lint [options]         (see `alid lint --help`)\n\
         \n\
         input: headerless CSV, one item per row, f64 columns\n\
         \n\
         detection:\n\
         {DETECTION_USAGE}\n\
         \n\
         output:\n\
         \x20 --parallel <e>          run PALID with e executors instead of peeling\n\
         \x20 --assignments           also print one `item cluster` line per item\n\
         \x20 --help"
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut input: Option<PathBuf> = None;
    let mut detection = DetectionFlags::default();
    let mut parallel = None;
    let mut assignments = false;
    let with_usage = |e: String| format!("{e}\n\n{}", usage());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if detection.apply(arg, &mut it).map_err(with_usage)? {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => return Err(usage()),
            "--parallel" => {
                let v = it.next().ok_or("--parallel needs a value")?;
                parallel = Some(v.parse().map_err(|e| format!("--parallel: {e}"))?);
            }
            "--assignments" => assignments = true,
            other if other.starts_with('-') => {
                return Err(with_usage(format!("unknown option {other}")))
            }
            path => {
                if input.replace(PathBuf::from(path)).is_some() {
                    return Err("multiple input files given".into());
                }
            }
        }
    }
    let input = input.ok_or_else(usage)?;
    // Auto-parallelism is on by default (results are byte-identical for
    // any worker count); --workers pins the count, --workers 1 restores
    // the sequential pass and its minimal cost trace.
    let params = detection.params().map_err(with_usage)?;
    Ok(Options { input, params, parallel, assignments })
}

/// Writes `msg` as one line to stderr. A closed stderr is ignored, so
/// it never turns a documented exit code into a panic.
fn note(msg: impl std::fmt::Display) {
    let _ = writeln!(io::stderr().lock(), "{msg}");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => match alid::service::cli::serve_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                note(&e);
                ExitCode::from(e.exit_code())
            }
        },
        Some("detect") => detect_main(&argv[1..]),
        Some("lint") => ExitCode::from(alid_lint::cli_main(&argv[1..]) as u8),
        _ => detect_main(&argv),
    }
}

fn detect_main(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            note(msg);
            return ExitCode::from(2);
        }
    };
    let data = match read_csv(&opts.input) {
        Ok(d) => d,
        Err(e) => {
            note(format_args!("error reading {}: {e}", opts.input.display()));
            return ExitCode::FAILURE;
        }
    };
    note(format_args!("{} items x {} dims", data.len(), data.dim()));
    let params = opts.params;
    let cost = CostModel::shared();
    let clustering = match opts.parallel {
        Some(executors) => {
            let mut pp = PalidParams::with_executors(executors.max(1));
            pp.seed = params.lsh.seed;
            palid_detect(&data, &params, &pp, &cost)
        }
        None => Peeler::new(&data, params, Arc::clone(&cost)).detect_all(),
    };
    let mut dominant = clustering.dominant(params.density_threshold, params.min_cluster_size);
    dominant.sort_by_density();
    let stdout = &mut BufWriter::new(io::stdout().lock());
    match write_report(stdout, &params, &dominant, opts.assignments) {
        Ok(()) => {}
        // The reader has all it wanted.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => return ExitCode::SUCCESS,
        Err(e) => {
            note(format_args!("error writing the report: {e}"));
            return ExitCode::FAILURE;
        }
    }
    let snap = cost.snapshot();
    note(format_args!(
        "kernel evals: {} ({:.2}% of full matrix), peak matrix entries: {}",
        snap.kernel_evals,
        100.0 * snap.kernel_evals as f64 / ((data.len() * data.len()).max(1)) as f64,
        snap.entries_peak
    ));
    ExitCode::SUCCESS
}

/// The report on stdout: a header, one line per dominant cluster and,
/// with `--assignments`, one `item cluster` line per item.
fn write_report(
    out: &mut impl Write,
    params: &AlidParams,
    dominant: &Clustering,
    assignments: bool,
) -> io::Result<()> {
    let (min_density, min_size) = (params.density_threshold, params.min_cluster_size);
    writeln!(
        out,
        "# {} dominant clusters (density >= {min_density}, size >= {min_size})",
        dominant.len()
    )?;
    for (i, c) in dominant.clusters.iter().enumerate() {
        let members: Vec<String> = c.members.iter().map(|m| m.to_string()).collect();
        writeln!(
            out,
            "cluster {i}\tdensity {:.4}\tsize {}\tmembers {}",
            c.density,
            c.len(),
            members.join(",")
        )?;
    }
    if assignments {
        for (item, label) in dominant.labels().iter().enumerate() {
            match label {
                Some(c) => writeln!(out, "{item}\t{c}")?,
                None => writeln!(out, "{item}\t-")?,
            }
        }
    }
    out.flush()
}
