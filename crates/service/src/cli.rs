//! The `serve` entry point behind the root CLI's `alid serve`
//! subcommand.

use std::path::PathBuf;
use std::sync::Arc;

use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_core::AlidParams;
use alid_exec::ExecPolicy;

use crate::http::{self, HttpOptions};
use crate::service::{Service, ServiceConfig};
use crate::snapshot;

/// The serve usage text (also printed by the root CLI on `alid serve
/// --help`).
pub fn usage() -> &'static str {
    "usage: alid serve [options]\n\
     \n\
     serving:\n\
       --addr <host:port>      listen address (default 127.0.0.1:7099)\n\
       --shards <n>            hash-partitioned detection shards (default 4)\n\
       --batch <n>             per-shard sweep period (default 32)\n\
       --queue <n>             per-shard admission queue bound (default 1024)\n\
       --http-workers <n>      acceptor threads (default 4)\n\
       --workers <w>           exec-layer workers for drains and sweeps\n\
                               (default: auto = all cores; output is\n\
                               byte-identical for any count)\n\
       --snapshot <path>       restore from this snapshot if it exists; also\n\
                               the default target of POST /snapshot\n\
       --journal <dir>         durable append-only journal of applied\n\
                               mutations: replayed on top of the snapshot at\n\
                               start, appended to (group commit) while\n\
                               serving — recovery is bit-identical to an\n\
                               uninterrupted run\n\
       --compact-every <bytes> rotate journal segments at this size and fold\n\
                               them into the snapshot once they accumulate\n\
                               (default 8388608 = 8 MiB; 0 disables both,\n\
                               POST /snapshot still compacts explicitly)\n\
       --trace-out <path>      enable phase tracing and append span events\n\
                               to this file as JSONL (drained once per\n\
                               second; telemetry only, outputs unchanged)\n\
     \n\
     detection (fresh start; a restored snapshot carries its own):\n\
       --dim <d>               feature dimensionality (required)\n\
       --scale <d>             typical intra-cluster distance; k calibrated so\n\
                               that distance maps to --target-affinity\n\
       --k <k>                 explicit Laplacian scaling factor\n\
       --target-affinity <a>   affinity at --scale (default 0.9)\n\
       --min-density <pi>      dominant-cluster threshold (default 0.75)\n\
       --min-size <m>          minimum cluster size (default 3)\n\
       --delta <n>             CIVS candidate cap (default 800)\n\
       --seed <s>              LSH seed (default 42)\n\
       --router-bits <b>       routing signature bits (default 16)\n\
       --router-seed <s>       routing hyperplane seed (default 0xa11d)\n\
       --help"
}

#[derive(Debug)]
struct ServeOptions {
    addr: String,
    shards: usize,
    batch: usize,
    queue: usize,
    http_workers: usize,
    workers: Option<usize>,
    snapshot: Option<PathBuf>,
    journal: Option<PathBuf>,
    compact_every: u64,
    dim: Option<usize>,
    scale: Option<f64>,
    k: Option<f64>,
    target_affinity: f64,
    min_density: f64,
    min_size: usize,
    delta: usize,
    seed: u64,
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
        workers: None,
        snapshot: None,
        journal: None,
        compact_every: 8 << 20,
        dim: None,
        scale: None,
        k: None,
        target_affinity: 0.9,
        min_density: 0.75,
        min_size: 3,
        delta: 800,
        seed: 42,
        router_bits: 16,
        router_seed: 0xa11d,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value\n\n{}", usage()))
        };
        let parse_usize = |name: &str, v: &str| -> Result<usize, String> {
            v.parse().map_err(|e| format!("{name}: {e}\n\n{}", usage()))
        };
        let parse_f64 = |name: &str, v: &str| -> Result<f64, String> {
            v.parse().map_err(|e| format!("{name}: {e}\n\n{}", usage()))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(usage().to_string()),
            "--addr" => o.addr = take("--addr")?.clone(),
            "--shards" => o.shards = parse_usize("--shards", take("--shards")?)?,
            "--batch" => o.batch = parse_usize("--batch", take("--batch")?)?,
            "--queue" => o.queue = parse_usize("--queue", take("--queue")?)?,
            "--http-workers" => {
                o.http_workers = parse_usize("--http-workers", take("--http-workers")?)?
            }
            "--workers" => {
                let w = parse_usize("--workers", take("--workers")?)?;
                if w == 0 {
                    return Err("--workers must be at least 1".into());
                }
                o.workers = Some(w);
            }
            "--snapshot" => o.snapshot = Some(PathBuf::from(take("--snapshot")?)),
            "--journal" => o.journal = Some(PathBuf::from(take("--journal")?)),
            "--compact-every" => {
                let v = take("--compact-every")?;
                o.compact_every =
                    v.parse().map_err(|e| format!("--compact-every: {e}\n\n{}", usage()))?;
            }
            "--dim" => o.dim = Some(parse_usize("--dim", take("--dim")?)?),
            "--scale" => o.scale = Some(parse_f64("--scale", take("--scale")?)?),
            "--k" => o.k = Some(parse_f64("--k", take("--k")?)?),
            "--target-affinity" => {
                o.target_affinity = parse_f64("--target-affinity", take("--target-affinity")?)?
            }
            "--min-density" => o.min_density = parse_f64("--min-density", take("--min-density")?)?,
            "--min-size" => o.min_size = parse_usize("--min-size", take("--min-size")?)?,
            "--delta" => o.delta = parse_usize("--delta", take("--delta")?)?,
            "--seed" => o.seed = parse_seed("--seed", take("--seed")?)?,
            "--router-bits" => {
                o.router_bits = parse_usize("--router-bits", take("--router-bits")?)?
            }
            "--router-seed" => o.router_seed = parse_seed("--router-seed", take("--router-seed")?)?,
            "--trace-out" => o.trace_out = Some(PathBuf::from(take("--trace-out")?)),
            other => return Err(format!("unknown option {other}\n\n{}", usage())),
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

/// Seeds accept decimal or `0x`-prefixed hex — the usage text prints
/// the router default as `0xa11d`, and pasting a documented default
/// back must work.
fn parse_seed(name: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| format!("{name}: {e}"))
}

fn fresh_service(o: &ServeOptions, exec: ExecPolicy) -> Result<Service, String> {
    let dim = o.dim.ok_or_else(|| format!("--dim is required for a fresh start\n\n{}", usage()))?;
    let kernel = match (o.k, o.scale) {
        (Some(_), Some(_)) => return Err("--scale and --k are mutually exclusive".into()),
        (Some(k), None) => {
            if !(k > 0.0 && k.is_finite()) {
                return Err(format!("--k must be a positive finite factor, got {k}"));
            }
            LaplacianKernel::l2(k)
        }
        (None, Some(scale)) => {
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(format!("--scale must be a positive finite distance, got {scale}"));
            }
            if !(o.target_affinity > 0.0 && o.target_affinity < 1.0) {
                return Err(format!(
                    "--target-affinity must lie strictly between 0 and 1, got {}",
                    o.target_affinity
                ));
            }
            LaplacianKernel::calibrate(scale, o.target_affinity, LpNorm::L2)
        }
        (None, None) => return Err(format!("one of --scale or --k is required\n\n{}", usage())),
    };
    let mut params = AlidParams::new(kernel).with_delta(o.delta.max(1));
    params.first_roi_radius = kernel.distance_at(0.5);
    params.density_threshold = o.min_density;
    params.min_cluster_size = o.min_size;
    params.lsh.seed = o.seed;
    let mut cfg = ServiceConfig::new(dim, o.shards, params)
        .with_batch(o.batch)
        .with_queue_capacity(o.queue)
        .with_exec(exec);
    cfg.router_bits = o.router_bits;
    cfg.router_seed = o.router_seed;
    Ok(Service::new(cfg))
}

/// Parses `args` (everything after `serve`), builds or restores the
/// service, and serves until the process dies. Returns an error
/// message (possibly the usage text) instead of printing it, so both
/// binaries control their own exit codes.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let o = parse(args)?;
    let exec = ExecPolicy::auto_or(o.workers);
    let (mut service, snap_meta) = match &o.snapshot {
        Some(path) if path.exists() => {
            let bytes =
                std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            let (svc, meta) = snapshot::restore_with_meta(&bytes, exec)
                .map_err(|e| format!("restoring {}: {e}", path.display()))?;
            eprintln!(
                "restored {} items / {} shards from {}",
                svc.len(),
                svc.shard_count(),
                path.display()
            );
            (svc, meta)
        }
        _ => (fresh_service(&o, exec)?, snapshot::SnapshotMeta::default()),
    };
    if let Some(dir) = &o.journal {
        // Replay any frames past the snapshot's cut through the
        // deterministic insert path, then attach the live journal so
        // every mutation from here on is appended. Replay runs before
        // the attach — the service must not re-journal its own replay.
        let cfg =
            crate::journal::JournalConfig { dir: dir.clone(), compact_every: o.compact_every };
        let journal = crate::journal::recover_and_open(cfg, &service, snap_meta.journal_pos)
            .map_err(|e| format!("recovering journal {}: {e}", dir.display()))?;
        eprintln!(
            "journal {} replayed to position {} ({} items live)",
            dir.display(),
            journal.appended(),
            service.len()
        );
        service.set_journal(journal);
    }
    // Tracing is observation only: spans record phase timings, and the
    // parity suite proves outputs are byte-identical with it on or off.
    if let Some(path) = &o.trace_out {
        alid_obs::trace::enable(alid_obs::trace::DEFAULT_CAPACITY);
        alid_obs::trace::start_writer(path.clone(), std::time::Duration::from_secs(1))
            .map_err(|e| format!("opening --trace-out {}: {e}", path.display()))?;
        eprintln!("tracing spans to {}", path.display());
    }
    let cfg = service.config();
    eprintln!(
        "alid-service: {} shards, dim {}, sweep period {}, queue bound {}, {} exec workers",
        cfg.shards,
        cfg.dim,
        cfg.batch,
        cfg.queue_capacity,
        cfg.params.exec.worker_count()
    );
    let server = http::start(
        Arc::new(service),
        o.addr.as_str(),
        HttpOptions { http_workers: o.http_workers.max(1), snapshot_path: o.snapshot.clone() },
    )
    .map_err(|e| format!("binding {}: {e}", o.addr))?;
    // Single readiness line on stdout: scripts wait for it (or poll
    // /healthz) before sending traffic.
    println!("listening on http://{}", server.addr());
    server.join();
    Ok(())
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
        let err = fresh_service(&o, ExecPolicy::sequential()).unwrap_err();
        assert!(err.contains("--dim is required"));
        let o = parse(&args(&["--dim", "4"])).unwrap();
        let err = fresh_service(&o, ExecPolicy::sequential()).unwrap_err();
        assert!(err.contains("one of --scale or --k"));
    }

    #[test]
    fn fresh_service_builds_with_scale() {
        let o = parse(&args(&["--dim", "3", "--scale", "0.5", "--shards", "2"])).unwrap();
        let svc = fresh_service(&o, ExecPolicy::sequential()).unwrap();
        assert_eq!(svc.shard_count(), 2);
        assert_eq!(svc.config().dim, 3);
    }

    #[test]
    fn conflicting_kernel_flags_rejected() {
        let o = parse(&args(&["--dim", "3", "--scale", "0.5", "--k", "2.0"])).unwrap();
        assert!(fresh_service(&o, ExecPolicy::sequential())
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn zero_structural_values_rejected() {
        assert!(parse(&args(&["--shards", "0"])).is_err());
        assert!(parse(&args(&["--batch", "0"])).is_err());
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
        assert_eq!(o.seed, 255);
        let o = parse(&args(&["--router-seed", "41245"])).unwrap();
        assert_eq!(o.router_seed, 0xa11d);
        assert!(parse(&args(&["--seed", "0xZZ"])).is_err());
    }
}
