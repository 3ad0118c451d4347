//! Versioned binary snapshot/restore for the whole [`Service`].
//!
//! Layout: an 8-byte magic (`ALIDSNAP`), a little-endian `u32` format
//! version, then one [`serde::bin`]-encoded value holding the full
//! state — config, detection parameters, placements, and per shard
//! the dataset, clusters, incremental density sums, pending buffer,
//! unapplied ingest queue and sweep phase — plus the
//! *logical journal position* the snapshot reflects, so journal
//! replay ([`crate::journal`]) knows where to cut. Every
//! float travels as raw IEEE-754 bits, so restore is *exact*: a
//! restored service continues bit-for-bit identically to one that was
//! never persisted (`tests/service.rs` proves it end to end).
//!
//! What is **not** stored, and why:
//!
//! * the LSH indexes — pure functions of `(params.lsh, data)`,
//!   rebuilt on restore through the same insert path the live
//!   instance used (see `StreamingAlid::from_state`);
//! * per-item assignments — an item is assigned exactly when it is a
//!   cluster member, so `from_state` derives them (and validates the
//!   membership) from the clusters;
//! * the routing hyperplanes — redrawn from `(dim, router_bits,
//!   router_seed)`;
//! * execution policies — a runtime choice; any worker count yields
//!   the same bytes, so the restorer picks its own;
//! * peel telemetry and per-shard busy counts — diagnostics that
//!   never feed back into detection;
//! * the merged-view cache — the reduction is recomputed on demand
//!   from restored shard state, and because its evidence is canonical
//!   in the member sets, a restored service's merged view is
//!   bit-identical to the uninterrupted one.

use std::fmt;

use alid_affinity::clustering::DetectedCluster;
use alid_affinity::cost::CostModel;
use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_affinity::vector::Dataset;
use alid_core::streaming::StreamingAlid;
use alid_core::AlidParams;
use alid_exec::ExecPolicy;
use alid_lsh::LshParams;
use serde::bin::{self, BinError};
use serde::{Json, Serialize};

use crate::service::{Placement, Service, ServiceConfig, Shard};

/// Leading bytes of every snapshot.
pub const MAGIC: &[u8; 8] = b"ALIDSNAP";
/// Current format version. Version 2 added `journal_pos` (the logical
/// journal frame count folded into this snapshot, so recovery knows
/// which journal frames are already reflected) and the packed-f64
/// array encoding in the `serde::bin` codec. Version 3 dropped the
/// per-shard `assigned` array (derived from cluster membership on
/// restore) and made `journal_pos` required. Files written while the
/// peel round width was still configurable also carry `spec_adaptive`
/// and `spec_initial_width` under `params`; the reader looks fields up
/// by key, so it ignores them.
pub const VERSION: u32 = 3;

/// Why a snapshot failed to restore.
#[derive(Debug)]
pub enum SnapshotError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The version word names a format this build cannot read.
    UnsupportedVersion(u32),
    /// The binary payload is corrupt.
    Decode(BinError),
    /// The payload decoded but its shape is wrong.
    Schema(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an ALID snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot version {v} unsupported (this build reads {VERSION})")
            }
            SnapshotError::Decode(e) => write!(f, "snapshot payload corrupt: {e}"),
            SnapshotError::Schema(msg) => write!(f, "snapshot schema violation: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<BinError> for SnapshotError {
    fn from(e: BinError) -> Self {
        SnapshotError::Decode(e)
    }
}

/// Largest `lsh_tables` and `lsh_projections` a snapshot may carry.
/// The paper's heaviest setting is 50 tables of 40 projections; the
/// ceiling sits far above it and keeps a corrupt count from sizing the
/// restored LSH index's allocations (`LshIndex::build` draws
/// `tables × projections × dim` Gaussians before it inserts anything).
const MAX_LSH_SHAPE: usize = 1024;

fn schema_err(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Schema(msg.into())
}

// --- encode ------------------------------------------------------------

fn params_json(p: &AlidParams) -> Json {
    Json::object([
        ("kernel_k", p.kernel.k.to_json()),
        ("kernel_p", p.kernel.norm.p().to_json()),
        ("delta", p.delta.to_json()),
        ("max_alid_iters", p.max_alid_iters.to_json()),
        ("max_lid_iters", p.max_lid_iters.to_json()),
        ("tol", p.tol.to_json()),
        ("first_roi_radius", p.first_roi_radius.to_json()),
        ("density_threshold", p.density_threshold.to_json()),
        ("min_cluster_size", p.min_cluster_size.to_json()),
        ("lsh_tables", p.lsh.tables.to_json()),
        ("lsh_projections", p.lsh.projections.to_json()),
        ("lsh_r", p.lsh.r.to_json()),
        ("lsh_seed", p.lsh.seed.to_json()),
    ])
}

fn floats_json(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn shard_json(shard: &Shard) -> Json {
    let stream = &shard.stream;
    let clusters = Json::Arr(
        stream
            .clusters()
            .iter()
            .map(|c| {
                Json::object([
                    ("members", c.members.to_json()),
                    ("weights", floats_json(&c.weights)),
                    ("density", Json::Num(c.density)),
                ])
            })
            .collect(),
    );
    let queue = Json::Arr(shard.queue.iter().map(|v| floats_json(v)).collect());
    Json::object([
        ("flat", floats_json(stream.data().as_flat())),
        ("clusters", clusters),
        ("pair_sums", floats_json(stream.pair_sums())),
        ("pending", stream.pending().to_json()),
        ("since_sweep", stream.since_sweep().to_json()),
        ("queue", queue),
    ])
}

/// Serialises the full service state into the versioned binary format.
///
/// Holds every shard lock *and* the placement lock simultaneously (a
/// consistent cut — see `Service::lock_all`): a concurrent ingest is
/// either entirely before the snapshot (queued vector and placement
/// both present) or entirely after it. Anything less lets an
/// acknowledged id restore to a different vector: the orphan-queue
/// race where a vector is captured in a shard queue while its
/// placement entry is not.
pub fn snapshot_bytes(service: &Service) -> Vec<u8> {
    snapshot_bytes_with_meta(service).0
}

/// [`snapshot_bytes`] plus the logical journal position folded into the
/// snapshot — the number of journal frames whose effects the snapshot
/// body reflects. Frames below that position are redundant with the
/// snapshot; [`crate::journal::Journal::truncate_below`] may drop the
/// segments that hold only such frames once the snapshot is durably on
/// disk.
///
/// The position is read inside the same all-locks window as the state
/// itself (every journaled mutation enqueues its frame while still
/// holding its commit locks, so with all locks held the appended count
/// is exactly the number of frames whose effects are visible), and it
/// is *logical* — a pure function of the mutation history, so two
/// services with identical histories stamp identical snapshots
/// regardless of how their journals were segmented. Without a journal
/// attached the position is 0.
pub fn snapshot_bytes_with_meta(service: &Service) -> (Vec<u8>, u64) {
    let cfg = service.config();
    let (shard_guards, placement_guard) = service.lock_all();
    let journal_pos = service.journal().map(|j| j.rotate_for_cut()).unwrap_or(0);
    let placements: Vec<u64> =
        placement_guard.iter().map(|p| ((p.shard as u64) << 32) | p.local as u64).collect();
    let shard_states: Vec<Json> = shard_guards.iter().map(|g| shard_json(g)).collect();
    drop(placement_guard);
    drop(shard_guards);
    let body = Json::object([
        ("schema", "alid-service-snapshot".to_json()),
        ("version", VERSION.to_json()),
        ("dim", cfg.dim.to_json()),
        ("shards", cfg.shards.to_json()),
        ("batch", cfg.batch.to_json()),
        ("queue_capacity", cfg.queue_capacity.to_json()),
        ("router_bits", cfg.router_bits.to_json()),
        ("router_seed", cfg.router_seed.to_json()),
        ("journal_pos", journal_pos.to_json()),
        ("params", params_json(&cfg.params)),
        ("placements", placements.to_json()),
        ("shard_states", Json::Arr(shard_states)),
    ]);
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    bin::encode_into(&body, &mut out);
    (out, journal_pos)
}

// --- decode ------------------------------------------------------------

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, SnapshotError> {
    obj.get(key).ok_or_else(|| schema_err(format!("missing field {key:?}")))
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, SnapshotError> {
    field(obj, key)?
        .as_u64()
        .map(|u| u as usize)
        .ok_or_else(|| schema_err(format!("field {key:?} is not an unsigned integer")))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, SnapshotError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| schema_err(format!("field {key:?} is not an unsigned integer")))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, SnapshotError> {
    field(obj, key)?.as_f64().ok_or_else(|| schema_err(format!("field {key:?} is not a number")))
}

fn arr_field<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], SnapshotError> {
    field(obj, key)?.as_arr().ok_or_else(|| schema_err(format!("field {key:?} is not an array")))
}

fn floats(items: &[Json], what: &str) -> Result<Vec<f64>, SnapshotError> {
    items
        .iter()
        .map(|j| j.as_f64().ok_or_else(|| schema_err(format!("{what}: non-numeric element"))))
        .collect()
}

fn uints(items: &[Json], what: &str) -> Result<Vec<u32>, SnapshotError> {
    items
        .iter()
        .map(|j| {
            j.as_u64()
                .filter(|&u| u <= u32::MAX as u64)
                .map(|u| u as u32)
                .ok_or_else(|| schema_err(format!("{what}: element is not a u32")))
        })
        .collect()
}

fn params_from_json(obj: &Json) -> Result<AlidParams, SnapshotError> {
    let p = f64_field(obj, "kernel_p")?;
    if p < 1.0 {
        return Err(schema_err(format!("kernel_p must be >= 1, got {p}")));
    }
    let k = f64_field(obj, "kernel_k")?;
    if !(k.is_finite() && k > 0.0) {
        return Err(schema_err(format!("kernel_k must be positive, got {k}")));
    }
    let kernel = LaplacianKernel::new(k, LpNorm::new(p));
    let mut params = AlidParams::new(kernel);
    // Restored faithfully, not clamped: these are plain pub fields
    // with no construction invariant, and "restore then continue is
    // bit-for-bit the uninterrupted run" forbids silently changing
    // whatever (possibly degenerate) values the live instance ran.
    params.delta = usize_field(obj, "delta")?;
    params.max_alid_iters = usize_field(obj, "max_alid_iters")?;
    params.max_lid_iters = usize_field(obj, "max_lid_iters")?;
    params.tol = f64_field(obj, "tol")?;
    params.first_roi_radius = f64_field(obj, "first_roi_radius")?;
    params.density_threshold = f64_field(obj, "density_threshold")?;
    params.min_cluster_size = usize_field(obj, "min_cluster_size")?;
    let tables = usize_field(obj, "lsh_tables")?;
    let projections = usize_field(obj, "lsh_projections")?;
    let r = f64_field(obj, "lsh_r")?;
    let shape = 1..=MAX_LSH_SHAPE;
    if !(shape.contains(&tables) && shape.contains(&projections) && r.is_finite() && r > 0.0) {
        return Err(schema_err(format!(
            "invalid LSH parameters: {tables} tables, {projections} projections, r = {r} \
             (tables and projections must lie in 1..={MAX_LSH_SHAPE})"
        )));
    }
    params.lsh = LshParams::new(tables, projections, r, u64_field(obj, "lsh_seed")?);
    Ok(params)
}

fn shard_from_json(
    obj: &Json,
    dim: usize,
    batch: usize,
    params: AlidParams,
    cost: &std::sync::Arc<CostModel>,
) -> Result<Shard, SnapshotError> {
    let flat = floats(arr_field(obj, "flat")?, "flat")?;
    if flat.len() % dim != 0 {
        return Err(schema_err("shard dataset length is not a multiple of dim"));
    }
    let data = Dataset::from_flat(dim, flat);
    let mut clusters = Vec::new();
    for c in arr_field(obj, "clusters")? {
        let members = uints(arr_field(c, "members")?, "members")?;
        let weights = floats(arr_field(c, "weights")?, "weights")?;
        if weights.len() != members.len() {
            return Err(schema_err("cluster members/weights length mismatch"));
        }
        let density = f64_field(c, "density")?;
        clusters.push(DetectedCluster { members, weights, density });
    }
    let pair_sums = floats(arr_field(obj, "pair_sums")?, "pair_sums")?;
    let pending = uints(arr_field(obj, "pending")?, "pending")?;
    let since_sweep = usize_field(obj, "since_sweep")?;
    let mut queue = std::collections::VecDeque::new();
    for q in arr_field(obj, "queue")? {
        let v = floats(
            q.as_arr().ok_or_else(|| schema_err("queue entry is not an array"))?,
            "queue entry",
        )?;
        if v.len() != dim {
            return Err(schema_err("queued vector dimensionality mismatch"));
        }
        queue.push_back(v);
    }
    // `from_state` owns every cross-field check (lengths, bounds,
    // membership), so a corrupt shard is a schema error, not an abort.
    let stream = StreamingAlid::from_state(
        params,
        batch,
        std::sync::Arc::clone(cost),
        data,
        clusters,
        pair_sums,
        pending,
        since_sweep,
    )
    .map_err(schema_err)?;
    // Busy counts are process-lifetime telemetry, not state: a
    // restored service starts refusing from zero.
    Ok(Shard { stream, queue })
}

/// Snapshot-level facts a restorer needs beyond the [`Service`] itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Logical journal position folded into the snapshot: journal
    /// frames below this position are already reflected in the
    /// restored state and must be skipped during replay
    /// ([`crate::journal::recover_and_open`] does so). 0 when the
    /// snapshot was taken without a journal.
    pub journal_pos: u64,
}

/// Restores a service from [`snapshot_bytes`] output. `exec` becomes
/// the service's execution policy (`params.exec`) — a runtime choice,
/// since any worker count produces the same bytes.
pub fn restore(bytes: &[u8], exec: ExecPolicy) -> Result<Service, SnapshotError> {
    restore_with_meta(bytes, exec).map(|(svc, _)| svc)
}

/// [`restore`] plus the [`SnapshotMeta`] needed to resume a journal
/// (the replay cut point).
pub fn restore_with_meta(
    bytes: &[u8],
    exec: ExecPolicy,
) -> Result<(Service, SnapshotMeta), SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut ver = [0u8; 4];
    ver.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 4]);
    let version = u32::from_le_bytes(ver);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let body = bin::decode(&bytes[MAGIC.len() + 4..])?;
    let dim = usize_field(&body, "dim")?;
    let shards = usize_field(&body, "shards")?;
    if dim == 0 || shards == 0 {
        return Err(schema_err("dim and shards must be positive"));
    }
    let batch = usize_field(&body, "batch")?;
    if batch == 0 {
        return Err(schema_err("batch must be positive"));
    }
    let queue_capacity = usize_field(&body, "queue_capacity")?;
    if queue_capacity == 0 {
        // A zero bound would answer every admission Busy and fail
        // journal replay at the first Admit frame.
        return Err(schema_err("queue_capacity must be positive"));
    }
    let router_bits = usize_field(&body, "router_bits")?;
    if !(1..=64).contains(&router_bits) {
        return Err(schema_err("router_bits must be in 1..=64"));
    }
    let router_seed = u64_field(&body, "router_seed")?;
    let mut params = params_from_json(field(&body, "params")?)?;
    params.exec = exec;
    let cfg =
        ServiceConfig { dim, shards, batch, queue_capacity, router_bits, router_seed, params };
    cfg.check_projection_draws().map_err(schema_err)?;
    let shard_states = arr_field(&body, "shard_states")?;
    if shard_states.len() != shards {
        return Err(schema_err("shard_states count does not match shards"));
    }
    let cost = CostModel::shared();
    let mut shard_vec = Vec::with_capacity(shards);
    for s in shard_states {
        shard_vec.push(shard_from_json(s, dim, batch, params, &cost)?);
    }
    let mut placements = Vec::new();
    for packed in arr_field(&body, "placements")? {
        let u = packed.as_u64().ok_or_else(|| schema_err("placement is not a u64"))?;
        let p = Placement { shard: (u >> 32) as u32, local: u as u32 };
        let shard = shard_vec
            .get(p.shard as usize)
            .ok_or_else(|| schema_err("placement references an unknown shard"))?;
        if (p.local as usize) >= shard.stream.len() + shard.queue.len() {
            return Err(schema_err("placement local index out of bounds"));
        }
        placements.push(p);
    }
    // A consistent snapshot registers every shard-held item exactly
    // once (snapshot_bytes guarantees it by holding all locks); a
    // mismatch means a corrupt or hand-edited file.
    let held: usize = shard_vec.iter().map(|s| s.stream.len() + s.queue.len()).sum();
    if placements.len() != held {
        return Err(schema_err(format!(
            "{} placements for {held} shard-held items",
            placements.len()
        )));
    }
    let meta = SnapshotMeta { journal_pos: u64_field(&body, "journal_pos")? };
    Ok((Service::from_parts(cfg, shard_vec, placements, cost), meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alid_core::streaming::StreamingAlid;

    fn params() -> AlidParams {
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = AlidParams::new(kernel);
        p.first_roi_radius = kernel.distance_at(0.5);
        p.density_threshold = 0.7;
        p.min_cluster_size = 3;
        p.lsh.seed = 5;
        p
    }

    fn populated_service() -> Service {
        let cfg = ServiceConfig::new(2, 3, params()).with_batch(8).with_queue_capacity(64);
        let svc = Service::new(cfg);
        for i in 0..50 {
            let v = match i % 5 {
                0 | 1 => [(i % 7) as f64 * 0.03, 0.0],
                2 | 3 => [40.0 + (i % 7) as f64 * 0.03, 40.0],
                _ => [i as f64 * 17.0, -(i as f64) * 23.0],
            };
            svc.ingest(&v);
        }
        svc.drain();
        // Leave some items queued so the snapshot covers that path too.
        for i in 0..5 {
            svc.ingest(&[i as f64 * 0.03, 0.0]);
        }
        svc
    }

    fn assert_identical(a: &Service, b: &Service) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.depths(), b.depths());
        for s in 0..a.shard_count() {
            let (sa, sb) = (a.shard_state(s), b.shard_state(s));
            assert_eq!(sa.queue, sb.queue, "shard {s} queue");
            assert_eq!(sa.stream.assignments(), sb.stream.assignments(), "shard {s}");
            assert_eq!(sa.stream.pending(), sb.stream.pending(), "shard {s}");
            assert_eq!(sa.stream.since_sweep(), sb.stream.since_sweep(), "shard {s}");
            assert_eq!(sa.stream.data(), sb.stream.data(), "shard {s} data");
            let pa: Vec<u64> = sa.stream.pair_sums().iter().map(|x| x.to_bits()).collect();
            let pb: Vec<u64> = sb.stream.pair_sums().iter().map(|x| x.to_bits()).collect();
            assert_eq!(pa, pb, "shard {s} pair sums");
            assert_eq!(sa.stream.clusters().len(), sb.stream.clusters().len());
            for (ca, cb) in sa.stream.clusters().iter().zip(sb.stream.clusters()) {
                assert_eq!(ca.members, cb.members);
                assert_eq!(ca.density.to_bits(), cb.density.to_bits());
            }
        }
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let svc = populated_service();
        let bytes = snapshot_bytes(&svc);
        let restored = restore(&bytes, ExecPolicy::sequential()).expect("restore");
        assert_identical(&svc, &restored);
        // And the snapshot of the restore is byte-identical.
        assert_eq!(bytes, snapshot_bytes(&restored));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let svc = populated_service();
        let mut bytes = snapshot_bytes(&svc);
        assert!(matches!(
            restore(b"NOTASNAP", ExecPolicy::sequential()),
            Err(SnapshotError::BadMagic)
        ));
        bytes[8] = 99; // version word
        assert!(matches!(
            restore(&bytes, ExecPolicy::sequential()),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    /// The corruption matrix: a recorded snapshot cut at every byte
    /// offset, then with one bit flipped at every offset. A cut is
    /// always refused; a flip is refused or restores a service that
    /// snapshots again. Neither panics nor aborts. The empty two-shard
    /// service is the case where nothing but the draw ceiling bounds a
    /// flipped `dim`.
    #[test]
    fn corrupt_payload_is_an_error_not_a_panic() {
        let empty = Service::new(ServiceConfig::new(2, 2, params()));
        for bytes in [snapshot_bytes(&populated_service()), snapshot_bytes(&empty)] {
            for cut in 0..bytes.len() {
                assert!(
                    restore(&bytes[..cut], ExecPolicy::sequential()).is_err(),
                    "a cut at byte {cut} restored"
                );
            }
            let mut restored = 0;
            for offset in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[offset] ^= 1 << (offset % 8);
                if let Ok(svc) = restore(&flipped, ExecPolicy::sequential()) {
                    let _ = snapshot_bytes(&svc);
                    restored += 1;
                }
            }
            // Flips inside the float payloads decode to other valid states.
            assert!(restored > 0, "no flip of {} bytes restored", bytes.len());
        }
    }

    /// A `dim` no item constrains must not size the router's or the
    /// shard indexes' Gaussian draws.
    #[test]
    fn oversized_dim_of_an_empty_service_is_a_schema_error() {
        let empty = Service::new(ServiceConfig::new(2, 2, params()));
        for dim in [1u64 << 40, u64::MAX] {
            let bytes = tampered(&snapshot_bytes(&empty), |body| {
                *field_mut(body, "dim") = Json::UInt(dim);
            });
            let msg = schema_error(&bytes);
            assert!(msg.contains("Gaussian draws"), "dim {dim}: {msg}");
        }
    }

    /// One flipped high bit in the LSH shape must not reach the index
    /// build's allocations.
    #[test]
    fn oversized_lsh_shape_is_a_schema_error() {
        for key in ["lsh_tables", "lsh_projections"] {
            let bytes = tampered(&snapshot_bytes(&populated_service()), |body| {
                let Json::Obj(params) = field_mut(body, "params") else { panic!("params") };
                *field_mut(params, key) = Json::UInt(1 << 40);
            });
            let msg = schema_error(&bytes);
            assert!(msg.contains("1..=1024"), "{key}: {msg}");
        }
    }

    #[test]
    fn streaming_state_fields_survive() {
        // A shard mid-batch (since_sweep != 0) restores on schedule.
        let svc = populated_service();
        let restored = restore(&snapshot_bytes(&svc), ExecPolicy::sequential()).unwrap();
        let any_mid_batch =
            (0..svc.shard_count()).any(|s| svc.shard_state(s).stream.since_sweep() != 0);
        assert!(any_mid_batch, "fixture should leave a shard mid-batch");
        let _ = restored;
    }

    /// Regression for the orphan-queue race: snapshots taken while
    /// another thread ingests must always be a consistent cut — every
    /// shard-held vector has its placement entry and vice versa, so
    /// every concurrent snapshot restores (the old
    /// one-lock-at-a-time reader could capture a queued vector whose
    /// placement was still being registered, silently re-aliasing an
    /// acknowledged id after restore).
    #[test]
    fn concurrent_snapshots_are_consistent_cuts() {
        let cfg = ServiceConfig::new(2, 3, params()).with_batch(16).with_queue_capacity(10_000);
        let svc = std::sync::Arc::new(Service::new(cfg));
        let writer = {
            let svc = std::sync::Arc::clone(&svc);
            // alid-lint: allow(no-raw-threads) -- the race under test *is* a raw writer thread against the snapshot path
            std::thread::spawn(move || {
                for i in 0..400 {
                    let v = [40.0 + (i % 7) as f64 * 0.03, (i % 11) as f64 * 0.03];
                    let _ = svc.ingest(&v);
                    if i % 64 == 63 {
                        svc.drain();
                    }
                }
            })
        };
        let mut taken = 0;
        while !writer.is_finished() {
            let bytes = snapshot_bytes(&svc);
            let restored =
                restore(&bytes, ExecPolicy::sequential()).expect("mid-ingest snapshot restores");
            let held: usize = (0..restored.shard_count())
                .map(|s| {
                    let g = restored.shard_state(s);
                    g.stream.len() + g.queue.len()
                })
                .sum();
            assert_eq!(restored.len(), held, "placements out of sync with shard state");
            taken += 1;
        }
        writer.join().expect("writer thread");
        assert!(taken > 0, "at least one snapshot raced the writer");
    }

    #[test]
    fn journal_pos_defaults_to_zero_without_a_journal() {
        let svc = populated_service();
        let (bytes, pos) = snapshot_bytes_with_meta(&svc);
        assert_eq!(pos, 0);
        let (_, meta) = restore_with_meta(&bytes, ExecPolicy::sequential()).expect("restore");
        assert_eq!(meta, SnapshotMeta { journal_pos: 0 });
    }

    #[test]
    fn version_constant_is_stamped() {
        let svc = populated_service();
        let bytes = snapshot_bytes(&svc);
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), VERSION);
    }

    #[test]
    fn from_state_is_reachable_standalone() {
        // The persistence surface works without a Service wrapper too
        // (other tools can snapshot a bare stream).
        let mut s = StreamingAlid::new(1, params(), 8, CostModel::shared());
        for i in 0..12 {
            s.push(&[i as f64 * 0.01]);
        }
        let rebuilt = StreamingAlid::from_state(
            *s.params(),
            s.batch(),
            CostModel::shared(),
            s.data().clone(),
            s.clusters().to_vec(),
            s.pair_sums().to_vec(),
            s.pending().to_vec(),
            s.since_sweep(),
        )
        .expect("a live stream's state restores");
        assert_eq!(rebuilt.assignments(), s.assignments());
    }

    /// Re-encodes `bytes` after `edit` has rewritten the decoded body —
    /// a well-formed file carrying a corrupt state.
    fn tampered(bytes: &[u8], edit: impl FnOnce(&mut Vec<(String, Json)>)) -> Vec<u8> {
        let Json::Obj(mut body) = bin::decode(&bytes[MAGIC.len() + 4..]).expect("decode") else {
            panic!("snapshot body is not an object")
        };
        edit(&mut body);
        let mut out = bytes[..MAGIC.len() + 4].to_vec();
        bin::encode_into(&Json::Obj(body), &mut out);
        out
    }

    fn field_mut<'a>(fields: &'a mut [(String, Json)], key: &str) -> &'a mut Json {
        &mut fields.iter_mut().find(|(k, _)| k == key).expect("field present").1
    }

    /// Applies `edit` to the fields of the first shard holding a
    /// cluster.
    fn tamper_clustered_shard(edit: impl FnOnce(&mut Vec<(String, Json)>)) -> Vec<u8> {
        tampered(&snapshot_bytes(&populated_service()), |body| {
            let Json::Arr(shards) = field_mut(body, "shard_states") else { panic!("shards") };
            let clustered = shards
                .iter_mut()
                .find(|s| s.get("clusters").and_then(Json::as_arr).is_some_and(|c| !c.is_empty()))
                .expect("the fixture promotes a cluster");
            let Json::Obj(fields) = clustered else { panic!("shard state is not an object") };
            edit(fields);
        })
    }

    fn schema_error(bytes: &[u8]) -> String {
        match restore(bytes, ExecPolicy::sequential()) {
            Err(SnapshotError::Schema(msg)) => msg,
            Err(e) => panic!("expected a schema error, got {e}"),
            Ok(_) => panic!("expected a schema error, the snapshot restored"),
        }
    }

    #[test]
    fn clusters_sharing_an_item_are_a_schema_error() {
        let bytes = tamper_clustered_shard(|shard| {
            let Json::Arr(clusters) = field_mut(shard, "clusters") else { panic!("clusters") };
            clusters.push(clusters[0].clone());
            let Json::Arr(sums) = field_mut(shard, "pair_sums") else { panic!("pair_sums") };
            sums.push(Json::Num(0.0));
        });
        let msg = schema_error(&bytes);
        assert!(msg.contains("listed in clusters"), "{msg}");
    }

    #[test]
    fn pending_cluster_member_is_a_schema_error() {
        let bytes = tamper_clustered_shard(|shard| {
            let member = field_mut(shard, "clusters").as_arr().expect("clusters")[0]
                .get("members")
                .and_then(Json::as_arr)
                .expect("members")[0]
                .clone();
            let Json::Arr(pending) = field_mut(shard, "pending") else { panic!("pending") };
            pending.push(member);
        });
        let msg = schema_error(&bytes);
        assert!(msg.contains("pending item"), "{msg}");
    }

    /// A live buffer is strictly ascending and, with the clusters,
    /// covers every item, so a repeated pending item and an item that
    /// is neither clustered nor pending are schema errors too.
    #[test]
    fn repeated_and_missing_pending_items_are_schema_errors() {
        let edit_pending = |edit: fn(&mut Vec<Json>)| {
            tampered(&snapshot_bytes(&populated_service()), |body| {
                let Json::Arr(shards) = field_mut(body, "shard_states") else { panic!("shards") };
                let buffering = shards
                    .iter_mut()
                    .find(|s| {
                        s.get("pending").and_then(Json::as_arr).is_some_and(|p| !p.is_empty())
                    })
                    .expect("the fixture buffers noise");
                let Json::Obj(fields) = buffering else { panic!("shard state is not an object") };
                let Json::Arr(pending) = field_mut(fields, "pending") else { panic!("pending") };
                edit(pending);
            })
        };
        let repeated = schema_error(&edit_pending(|p| p.push(p[p.len() - 1].clone())));
        assert!(repeated.contains("listed twice"), "{repeated}");
        let missing = schema_error(&edit_pending(|p| {
            p.pop();
        }));
        assert!(missing.contains("neither in a cluster nor pending"), "{missing}");
    }

    /// Files written while the peel round width was still configurable
    /// carry `spec_adaptive` and `spec_initial_width` under `params`.
    /// Both shapes must restore to the same state: the fields are
    /// ignored when present and need not be there.
    #[test]
    fn retired_spec_params_are_optional_and_ignored() {
        let original = snapshot_bytes(&populated_service());
        let with_spec_fields = |keep: bool| {
            tampered(&original, |body| {
                let Json::Obj(params) = field_mut(body, "params") else { panic!("params") };
                params.retain(|(k, _)| !k.starts_with("spec_"));
                if keep {
                    params.push(("spec_adaptive".into(), Json::Bool(true)));
                    params.push(("spec_initial_width".into(), Json::UInt(0)));
                }
            })
        };
        let mut resnapshots = Vec::new();
        for keep in [true, false] {
            let restored = restore(&with_spec_fields(keep), ExecPolicy::sequential())
                .unwrap_or_else(|e| panic!("spec fields present = {keep}: {e}"));
            resnapshots.push(snapshot_bytes(&restored));
        }
        assert_eq!(resnapshots[0], resnapshots[1], "the spec fields changed the restored state");
        assert_eq!(resnapshots[0], original, "the restore does not round-trip");
    }

    /// `with_queue_capacity` and `--queue` refuse 0; a file carrying it
    /// would restore a service that answers every admission Busy.
    #[test]
    fn zero_queue_capacity_is_a_schema_error() {
        let bytes = tampered(&snapshot_bytes(&populated_service()), |body| {
            *field_mut(body, "queue_capacity") = Json::UInt(0);
        });
        let msg = schema_error(&bytes);
        assert!(msg.contains("queue_capacity"), "{msg}");
    }

    #[test]
    fn missing_journal_pos_is_a_schema_error() {
        let bytes = tampered(&snapshot_bytes(&populated_service()), |body| {
            body.retain(|(k, _)| k != "journal_pos");
        });
        let msg = schema_error(&bytes);
        assert!(msg.contains("journal_pos"), "{msg}");
    }
}
