//! The command line of `alid detect` and `alid serve`: the detection
//! flags both subcommands take ([`DetectionFlags`], parsed and turned
//! into [`AlidParams`] in one place), and the `serve` entry point
//! behind the root CLI's `alid serve` subcommand.

use std::fmt::Display;
use std::io::{self, Write};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_core::AlidParams;
use alid_exec::ExecPolicy;

use crate::http::{self, HttpOptions};
use crate::service::{Service, ServiceConfig};
use crate::snapshot;

/// Help text of the [`DetectionFlags`], embedded in both usage texts.
pub const DETECTION_USAGE: &str = "\
    \x20 --scale <d>             typical intra-cluster distance; k is calibrated so\n\
    \x20                         that distance maps to --target-affinity\n\
    \x20 --k <k>                 explicit Laplacian scaling factor of a_ij = e^(-k*d)\n\
    \x20                         (give exactly one of --scale and --k)\n\
    \x20 --target-affinity <a>   affinity at --scale, in (0, 1) (default 0.9)\n\
    \x20 --min-density <pi>      dominant-cluster threshold (default 0.75)\n\
    \x20 --min-size <m>          minimum cluster size (default 3)\n\
    \x20 --delta <n>             CIVS candidate cap, at least 1 (default 800)\n\
    \x20 --seed <s>              detection seed (LSH; PALID's task list too),\n\
    \x20                         decimal or 0x-hex (default 42)";

/// The detection flags `alid detect` and `alid serve` share, holding
/// their defaults until [`DetectionFlags::apply`] overrides them.
#[derive(Clone, Debug)]
pub struct DetectionFlags {
    scale: Option<f64>,
    k: Option<f64>,
    target_affinity: f64,
    min_density: f64,
    min_size: usize,
    delta: usize,
    seed: u64,
}

impl Default for DetectionFlags {
    fn default() -> Self {
        Self {
            scale: None,
            k: None,
            target_affinity: 0.9,
            min_density: 0.75,
            min_size: 3,
            delta: 800,
            seed: 42,
        }
    }
}

impl DetectionFlags {
    /// Applies `flag` when it is one of the shared detection flags,
    /// taking its value from `args`; returns `Ok(false)`, with `args`
    /// untouched, for any other argument. Values are checked one by
    /// one here (`--delta` must be at least 1); the rules that relate
    /// flags are checked by [`Self::params`].
    ///
    /// # Errors
    /// A missing or malformed value.
    pub fn apply<'a>(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--scale" => self.scale = Some(number(flag, value()?)?),
            "--k" => self.k = Some(number(flag, value()?)?),
            "--target-affinity" => self.target_affinity = number(flag, value()?)?,
            "--min-density" => self.min_density = number(flag, value()?)?,
            "--min-size" => self.min_size = number(flag, value()?)?,
            "--delta" => self.delta = at_least_one(flag, number(flag, value()?)?)?,
            "--seed" => self.seed = parse_seed(flag, value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The detection parameters the flags describe: the kernel from
    /// `--scale` (calibrated to `--target-affinity`) or `--k`, the
    /// first ROI radius where that kernel decays to 0.5, and the
    /// remaining flags copied in.
    ///
    /// # Errors
    /// Neither or both of `--scale` and `--k`; a non-positive or
    /// non-finite kernel value; `--target-affinity` outside (0, 1).
    pub fn params(&self) -> Result<AlidParams, String> {
        if !(self.target_affinity > 0.0 && self.target_affinity < 1.0) {
            return Err(format!(
                "--target-affinity must lie strictly between 0 and 1, got {}",
                self.target_affinity
            ));
        }
        let kernel = match (self.k, self.scale) {
            (Some(_), Some(_)) => return Err("--scale and --k are mutually exclusive".into()),
            (None, None) => return Err("one of --scale or --k is required".into()),
            (Some(k), None) if k > 0.0 && k.is_finite() => LaplacianKernel::l2(k),
            (Some(k), None) => {
                return Err(format!("--k must be a positive finite factor, got {k}"))
            }
            (None, Some(scale)) if scale > 0.0 && scale.is_finite() => {
                LaplacianKernel::calibrate(scale, self.target_affinity, LpNorm::L2)
            }
            (None, Some(scale)) => {
                return Err(format!("--scale must be a positive finite distance, got {scale}"))
            }
        };
        let mut params = AlidParams::new(kernel).with_delta(self.delta);
        params.first_roi_radius = kernel.distance_at(0.5);
        params.density_threshold = self.min_density;
        params.min_cluster_size = self.min_size;
        params.lsh.seed = self.seed;
        Ok(params)
    }
}

fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e| format!("{flag}: bad value {v:?}: {e}"))
}

fn at_least_one(flag: &str, n: usize) -> Result<usize, String> {
    if n == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Seeds accept decimal or `0x`-prefixed hex — the usage text prints
/// the router default as `0xa11d`, and pasting a documented default
/// back must work.
fn parse_seed(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("{flag}: {e}"))
}

/// The serve usage text, returned as the error of `alid serve --help`.
fn usage() -> String {
    format!(
        "usage: alid serve [options]\n\
         \n\
         serving:\n\
        \x20 --addr <host:port>      listen address (default 127.0.0.1:7099)\n\
        \x20 --shards <n>            hash-partitioned detection shards (default 4)\n\
        \x20 --batch <n>             per-shard sweep period (default 32)\n\
        \x20 --queue <n>             per-shard admission queue bound (default 1024)\n\
        \x20 --http-workers <n>      acceptor threads (default 4)\n\
        \x20 --workers <w>           exec-layer worker threads of the fan-out across\n\
        \x20                         shards, fresh or restored (default: auto = all\n\
        \x20                         cores; output is byte-identical for any count)\n\
        \x20 --snapshot <path>       restore from this snapshot if it exists; also\n\
        \x20                         the default target of POST /snapshot\n\
        \x20 --journal <dir>         durable append-only journal of applied\n\
        \x20                         mutations: replayed on top of the snapshot at\n\
        \x20                         start, appended to (group commit) while\n\
        \x20                         serving — recovery is bit-identical to an\n\
        \x20                         uninterrupted run\n\
        \x20 --compact-every <bytes> rotate journal segments at this size and fold\n\
        \x20                         them into the snapshot once they accumulate\n\
        \x20                         (default 8388608 = 8 MiB; 0 disables both,\n\
        \x20                         POST /snapshot still compacts explicitly)\n\
        \x20 --trace-out <path>      enable phase tracing and append span events\n\
        \x20                         to this file as JSONL (drained once per\n\
        \x20                         second; telemetry only, outputs unchanged)\n\
        \x20 --router-bits <b>       routing signature bits (default 16)\n\
        \x20 --router-seed <s>       routing hyperplane seed (default 0xa11d)\n\
         \n\
         detection (a fresh start; a restored snapshot carries its own\n\
         parameters):\n\
        \x20 --dim <d>               feature dimensionality (required)\n\
         {DETECTION_USAGE}\n\
        \x20 --help"
    )
}

fn with_usage(msg: String) -> String {
    format!("{msg}\n\n{}", usage())
}

#[derive(Debug)]
struct ServeOptions {
    addr: String,
    shards: usize,
    batch: usize,
    queue: usize,
    http_workers: usize,
    /// `--workers`: the fan-out across shards, fresh or restored.
    exec: ExecPolicy,
    snapshot: Option<PathBuf>,
    journal: Option<PathBuf>,
    compact_every: u64,
    dim: Option<usize>,
    detection: DetectionFlags,
    router_bits: usize,
    router_seed: u64,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<ServeOptions, String> {
    let mut o = ServeOptions {
        addr: "127.0.0.1:7099".into(),
        shards: 4,
        batch: 32,
        queue: 1024,
        http_workers: 4,
        exec: ExecPolicy::auto(),
        snapshot: None,
        journal: None,
        compact_every: 8 << 20,
        dim: None,
        detection: DetectionFlags::default(),
        router_bits: 16,
        router_seed: 0xa11d,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if o.detection.apply(arg, &mut it).map_err(with_usage)? {
            continue;
        }
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| with_usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(usage()),
            "--addr" => o.addr = take("--addr")?.clone(),
            "--shards" => o.shards = number(arg, take(arg)?).map_err(with_usage)?,
            "--batch" => o.batch = number(arg, take(arg)?).map_err(with_usage)?,
            "--queue" => o.queue = number(arg, take(arg)?).map_err(with_usage)?,
            "--http-workers" => o.http_workers = number(arg, take(arg)?).map_err(with_usage)?,
            "--workers" => {
                let n = number(arg, take(arg)?).map_err(with_usage)?;
                o.exec = ExecPolicy::workers(at_least_one(arg, n).map_err(with_usage)?);
            }
            "--snapshot" => o.snapshot = Some(PathBuf::from(take("--snapshot")?)),
            "--journal" => o.journal = Some(PathBuf::from(take("--journal")?)),
            "--compact-every" => {
                o.compact_every = number(arg, take(arg)?).map_err(with_usage)?;
            }
            "--dim" => o.dim = Some(number(arg, take(arg)?).map_err(with_usage)?),
            "--router-bits" => o.router_bits = number(arg, take(arg)?).map_err(with_usage)?,
            "--router-seed" => o.router_seed = parse_seed(arg, take(arg)?)?,
            "--trace-out" => o.trace_out = Some(PathBuf::from(take("--trace-out")?)),
            other => return Err(with_usage(format!("unknown option {other}"))),
        }
    }
    if o.shards == 0 || o.batch == 0 || o.queue == 0 {
        return Err("--shards, --batch and --queue must be positive".into());
    }
    if o.dim == Some(0) {
        return Err("--dim must be positive".into());
    }
    if !(1..=64).contains(&o.router_bits) {
        return Err(format!("--router-bits must be in 1..=64, got {}", o.router_bits));
    }
    Ok(o)
}

fn fresh_service(o: &ServeOptions) -> Result<Service, String> {
    let dim = o.dim.ok_or_else(|| with_usage("--dim is required for a fresh start".into()))?;
    let params = o.detection.params().map_err(with_usage)?;
    let mut cfg = ServiceConfig::new(dim, o.shards, params)
        .with_batch(o.batch)
        .with_queue_capacity(o.queue)
        .with_exec(o.exec);
    cfg.router_bits = o.router_bits;
    cfg.router_seed = o.router_seed;
    // The ceiling restore applies: every service serve starts can be
    // restored from its own snapshot.
    cfg.check_projection_draws()?;
    Ok(Service::new(cfg))
}

/// Why [`serve_main`] stopped, which decides the exit code.
#[derive(Debug)]
pub enum ServeError {
    /// The flags, or the service they describe, are invalid; the
    /// message may carry the usage text. Exit code 2.
    Usage(String),
    /// The service could not start: reading or restoring the
    /// snapshot, recovering the journal, opening `--trace-out`,
    /// binding the address or writing the readiness line failed.
    /// Exit code 1.
    Failed(String),
}

impl ServeError {
    /// The process exit code: 2 for a usage error, 1 for a failure.
    pub fn exit_code(&self) -> u8 {
        match self {
            ServeError::Usage(_) => 2,
            ServeError::Failed(_) => 1,
        }
    }
}

impl Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Usage(msg) | ServeError::Failed(msg) => f.write_str(msg),
        }
    }
}

/// Parses `args` (everything after `serve`), builds or restores the
/// service, and serves until the process dies. Returns the error
/// (possibly the usage text) instead of printing it, so the binary
/// controls its own exit code.
pub fn serve_main(args: &[String]) -> Result<(), ServeError> {
    let o = parse(args).map_err(ServeError::Usage)?;
    let (mut service, snap_meta) = match &o.snapshot {
        Some(path) if path.exists() => {
            let bytes = std::fs::read(path)
                .map_err(|e| ServeError::Failed(format!("reading {}: {e}", path.display())))?;
            let (svc, meta) = snapshot::restore_with_meta(&bytes, o.exec)
                .map_err(|e| ServeError::Failed(format!("restoring {}: {e}", path.display())))?;
            note(format_args!(
                "restored {} items / {} shards from {}",
                svc.len(),
                svc.shard_count(),
                path.display()
            ));
            (svc, meta)
        }
        _ => (fresh_service(&o).map_err(ServeError::Usage)?, snapshot::SnapshotMeta::default()),
    };
    if let Some(dir) = &o.journal {
        // Replay any frames past the snapshot's cut through the
        // deterministic insert path, then attach the live journal so
        // every mutation from here on is appended. Replay runs before
        // the attach — the service must not re-journal its own replay.
        let cfg =
            crate::journal::JournalConfig { dir: dir.clone(), compact_every: o.compact_every };
        let journal = crate::journal::recover_and_open(cfg, &service, snap_meta.journal_pos)
            .map_err(|e| {
                ServeError::Failed(format!("recovering journal {}: {e}", dir.display()))
            })?;
        note(format_args!(
            "journal {} replayed to position {} ({} items live)",
            dir.display(),
            journal.appended(),
            service.len()
        ));
        service.set_journal(journal);
    }
    // Tracing is observation only: spans record phase timings, and the
    // parity suite proves outputs are byte-identical with it on or off.
    if let Some(path) = &o.trace_out {
        alid_obs::trace::enable(alid_obs::trace::DEFAULT_CAPACITY);
        alid_obs::trace::start_writer(path.clone(), std::time::Duration::from_secs(1)).map_err(
            |e| ServeError::Failed(format!("opening --trace-out {}: {e}", path.display())),
        )?;
        note(format_args!("tracing spans to {}", path.display()));
    }
    let cfg = service.config();
    note(format_args!(
        "alid-service: {} shards, dim {}, sweep period {}, queue bound {}, {} exec workers",
        cfg.shards,
        cfg.dim,
        cfg.batch,
        cfg.queue_capacity,
        cfg.params.exec.worker_count()
    ));
    let server = http::start(
        Arc::new(service),
        o.addr.as_str(),
        HttpOptions { http_workers: o.http_workers.max(1), snapshot_path: o.snapshot.clone() },
    )
    .map_err(|e| ServeError::Failed(format!("binding {}: {e}", o.addr)))?;
    // Single readiness line on stdout: scripts wait for it (or poll
    // /healthz) before sending traffic. A reader that closed stdout
    // first ends the run quietly, as the default SIGPIPE would.
    let ready = writeln!(io::stdout().lock(), "listening on http://{}", server.addr());
    match ready {
        Ok(()) => server.join(),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => server.shutdown(),
        Err(e) => {
            server.shutdown();
            return Err(ServeError::Failed(format!("writing the readiness line: {e}")));
        }
    }
    Ok(())
}

/// Writes one progress line to stderr. A closed stderr is ignored:
/// losing a progress line must not stop the server.
fn note(msg: impl std::fmt::Display) {
    let _ = writeln!(io::stderr().lock(), "{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_flags_report_usage() {
        let err = parse(&args(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown option --bogus"));
        assert!(err.contains("usage: alid serve"), "must include the usage text");
    }

    #[test]
    fn missing_values_report_usage() {
        let err = parse(&args(&["--shards"])).unwrap_err();
        assert!(err.contains("--shards needs a value"));
        assert!(err.contains("usage: alid serve"));
    }

    #[test]
    fn fresh_service_requires_dim_and_kernel() {
        let o = parse(&args(&[])).unwrap();
        let err = fresh_service(&o).unwrap_err();
        assert!(err.contains("--dim is required"));
        let o = parse(&args(&["--dim", "4"])).unwrap();
        let err = fresh_service(&o).unwrap_err();
        assert!(err.contains("one of --scale or --k"));
    }

    #[test]
    fn fresh_service_builds_with_scale() {
        let o = parse(&args(&["--dim", "3", "--scale", "0.5", "--shards", "2", "--workers", "1"]))
            .unwrap();
        let svc = fresh_service(&o).unwrap();
        assert_eq!(svc.shard_count(), 2);
        assert_eq!(svc.config().dim, 3);
        assert!(svc.config().params.exec.is_sequential());
    }

    #[test]
    fn fresh_service_refuses_a_dim_restore_would_refuse() {
        // 12 tables × 16 projections × 21,846 dims is one draw past the
        // ceiling; 21,845 is the largest fresh dim at the defaults.
        let o = parse(&args(&["--dim", "21846", "--k", "1"])).unwrap();
        assert!(fresh_service(&o).unwrap_err().contains("LSH projections"));
        let o = parse(&args(&["--dim", &usize::MAX.to_string(), "--k", "1"])).unwrap();
        assert!(fresh_service(&o).unwrap_err().contains("routing hyperplanes"));
        let o = parse(&args(&["--dim", "21845", "--k", "1"])).unwrap();
        let cfg = ServiceConfig::new(21845, 1, o.detection.params().unwrap());
        assert_eq!(cfg.check_projection_draws(), Ok(()));
    }

    #[test]
    fn conflicting_kernel_flags_rejected() {
        let o = parse(&args(&["--dim", "3", "--scale", "0.5", "--k", "2.0"])).unwrap();
        assert!(fresh_service(&o).unwrap_err().contains("mutually exclusive"));
    }

    /// Runs a whitespace-separated flag line through
    /// [`DetectionFlags::apply`] alone, the way both subcommands do,
    /// then builds the parameters.
    fn params_of(line: &str) -> Result<AlidParams, String> {
        let a: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut f = DetectionFlags::default();
        let mut it = a.iter();
        while let Some(arg) = it.next() {
            assert!(f.apply(arg, &mut it)?, "{arg} is not a detection flag");
        }
        f.params()
    }

    #[test]
    fn detection_flags_build_the_documented_params() {
        let p = params_of(
            "--scale 0.5 --target-affinity 0.8 --min-density 0.6 --min-size 4 --delta 32 \
             --seed 0x7",
        )
        .unwrap();
        let kernel = LaplacianKernel::calibrate(0.5, 0.8, LpNorm::L2);
        assert_eq!(p.kernel.k.to_bits(), kernel.k.to_bits());
        assert_eq!(p.first_roi_radius.to_bits(), kernel.distance_at(0.5).to_bits());
        assert_eq!((p.density_threshold, p.min_cluster_size), (0.6, 4));
        assert_eq!((p.delta, p.lsh.seed), (32, 7));
        let d = params_of("--k 2").unwrap();
        assert_eq!((d.kernel.k, d.delta, d.lsh.seed), (2.0, 800, 42));
        assert_eq!((d.density_threshold, d.min_cluster_size), (0.75, 3));
    }

    #[test]
    fn other_arguments_are_left_to_the_caller() {
        for flag in ["--shards", "--workers"] {
            let a = args(&[flag, "2"]);
            let mut it = a.iter();
            let arg = it.next().unwrap();
            assert!(!DetectionFlags::default().apply(arg, &mut it).unwrap(), "{flag}");
            assert_eq!(it.next().map(String::as_str), Some("2"), "the value is not consumed");
        }
        let o = parse(&args(&["--workers", "3", "--dim", "2", "--k", "1"])).unwrap();
        assert_eq!(fresh_service(&o).unwrap().config().params.exec.worker_count(), 3);
    }

    #[test]
    fn bad_detection_flags_are_errors() {
        for (line, want) in [
            ("--k 2 --delta 0", "--delta must be at least 1"),
            ("--k 2 --min-size -3", "--min-size"),
            ("--scale", "--scale needs a value"),
            ("--scale -1", "positive finite"),
            ("--scale inf", "positive finite"),
            ("--k 0", "positive finite"),
            ("--k NaN", "positive finite"),
            // Range-checked whichever kernel flag is given.
            ("--scale 0.5 --target-affinity 1", "--target-affinity"),
            ("--k 2 --target-affinity 0", "--target-affinity"),
            ("--k 2 --target-affinity NaN", "--target-affinity"),
        ] {
            let err = params_of(line).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
        let err = parse(&args(&["--delta", "0"])).unwrap_err();
        assert!(err.contains("usage: alid serve"), "{err}");
    }

    #[test]
    fn zero_structural_values_rejected() {
        assert!(parse(&args(&["--shards", "0"])).is_err());
        assert!(parse(&args(&["--batch", "0"])).is_err());
        let err = parse(&args(&["--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers must be at least 1"), "{err}");
        assert!(err.contains("usage: alid serve"), "{err}");
    }

    #[test]
    fn invalid_dim_and_router_bits_error_instead_of_panicking() {
        assert!(parse(&args(&["--dim", "0"])).unwrap_err().contains("--dim"));
        assert!(parse(&args(&["--router-bits", "0"])).unwrap_err().contains("--router-bits"));
        assert!(parse(&args(&["--router-bits", "65"])).unwrap_err().contains("--router-bits"));
    }

    #[test]
    fn journal_flags_parse() {
        let o = parse(&args(&["--journal", "/tmp/j", "--compact-every", "1024"])).unwrap();
        assert_eq!(o.journal.as_deref(), Some(std::path::Path::new("/tmp/j")));
        assert_eq!(o.compact_every, 1024);
        let o = parse(&args(&[])).unwrap();
        assert!(o.journal.is_none());
        assert_eq!(o.compact_every, 8 << 20, "default is 8 MiB");
        assert!(parse(&args(&["--journal"])).unwrap_err().contains("--journal needs a value"));
        assert!(parse(&args(&["--compact-every", "lots"]))
            .unwrap_err()
            .contains("--compact-every"));
    }

    #[test]
    fn trace_out_parses_and_requires_a_value() {
        let o = parse(&args(&["--trace-out", "/tmp/trace.jsonl"])).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some(std::path::Path::new("/tmp/trace.jsonl")));
        assert!(parse(&args(&[])).unwrap().trace_out.is_none());
        assert!(parse(&args(&["--trace-out"])).unwrap_err().contains("--trace-out needs a value"));
    }

    #[test]
    fn seeds_accept_the_documented_hex_form() {
        // The usage text prints the router default as 0xa11d; pasting
        // it back must parse.
        let o = parse(&args(&["--router-seed", "0xa11d", "--seed", "0xFF"])).unwrap();
        assert_eq!(o.router_seed, 0xa11d);
        assert_eq!(o.detection.seed, 255);
        let o = parse(&args(&["--router-seed", "41245"])).unwrap();
        assert_eq!(o.router_seed, 0xa11d);
        assert!(parse(&args(&["--seed", "0xZZ"])).is_err());
    }
}
