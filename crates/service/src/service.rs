//! The sharded service core: routing, bounded admission, parallel
//! drain, and cross-shard queries (raw fragment ranking and the
//! merged view's full PALID reduce — see [`crate::reduce`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use alid_affinity::cost::CostModel;
use alid_affinity::vector::Dataset;
use alid_core::streaming::{StreamUpdate, StreamingAlid};
use alid_core::AlidParams;
use alid_exec::ExecPolicy;
use alid_lsh::ShardRouter;
use serde::{Json, Serialize};

use crate::reduce::{self, FragmentCut, MergedCluster, MergedView, ReduceCut, UnionCut};

/// Most Gaussian coefficients one random projection of a service may
/// draw: the router's `router_bits × (dim + 1)` hyperplane
/// coefficients, or one shard index's `tables × projections × dim`
/// directions. Both are drawn before the first item arrives, so on an
/// empty service nothing else bounds `dim`. 2^22 draws (32 MiB of
/// `f64`) still admit 21,845 dimensions at the CIVS default of 12
/// tables × 16 projections. Snapshot restore refuses a config past it,
/// and `alid serve` refuses to start one.
pub const MAX_PROJECTION_DRAWS: usize = 1 << 22;

/// Static configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Feature dimensionality of every ingested vector.
    pub dim: usize,
    /// Number of hash-partitioned [`StreamingAlid`] shards.
    pub shards: usize,
    /// Per-shard sweep period (arrivals between detection passes).
    pub batch: usize,
    /// Per-shard bound on admitted-but-unapplied items; admissions
    /// beyond it are refused with [`Admission::Busy`].
    pub queue_capacity: usize,
    /// Sign bits of the routing signature.
    pub router_bits: usize,
    /// Seed of the routing hyperplanes. Independent of `params.lsh.seed`
    /// so re-seeding detection never silently re-partitions the stream.
    pub router_seed: u64,
    /// Detection parameters handed to every shard. `params.exec` is
    /// the service's one execution policy: drains and forced sweeps
    /// fan out across shards on it. Each shard's sweep peels
    /// sequentially.
    pub params: AlidParams,
}

impl ServiceConfig {
    /// A config with serving-friendly defaults: sweep period 32,
    /// queue capacity 1024, 16 routing bits.
    ///
    /// # Panics
    /// Panics unless `dim >= 1` and `shards >= 1`.
    pub fn new(dim: usize, shards: usize, params: AlidParams) -> Self {
        assert!(dim >= 1, "dimensionality must be positive");
        assert!(shards >= 1, "need at least one shard");
        Self {
            dim,
            shards,
            batch: 32,
            queue_capacity: 1024,
            router_bits: 16,
            router_seed: 0xa11d,
            params,
        }
    }

    /// Replaces the sweep period.
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "sweep period must be positive");
        self.batch = batch;
        self
    }

    /// Replaces the per-shard queue capacity.
    ///
    /// # Panics
    /// Panics if `queue_capacity == 0`.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        assert!(queue_capacity >= 1, "queue capacity must be positive");
        self.queue_capacity = queue_capacity;
        self
    }

    /// Replaces the execution policy (`params.exec`).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.params.exec = exec;
        self
    }

    /// Checks the router's and each shard index's Gaussian draws
    /// against [`MAX_PROJECTION_DRAWS`], in checked arithmetic.
    ///
    /// # Errors
    /// Names the projection whose draw exceeds the ceiling.
    pub fn check_projection_draws(&self) -> Result<(), String> {
        let lsh = &self.params.lsh;
        let router = self.router_bits.checked_mul(self.dim.saturating_add(1));
        let index = lsh.tables.checked_mul(lsh.projections).and_then(|tp| tp.checked_mul(self.dim));
        for (what, draws) in [("routing hyperplanes", router), ("LSH projections", index)] {
            if draws.is_none_or(|d| d > MAX_PROJECTION_DRAWS) {
                return Err(format!(
                    "dim {} needs more than {MAX_PROJECTION_DRAWS} Gaussian draws for the {what}",
                    self.dim
                ));
            }
        }
        Ok(())
    }
}

/// Where an item lives: which shard, and its arrival position within
/// that shard's substream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Owning shard.
    pub shard: u32,
    /// Arrival index within the shard's substream.
    pub local: u32,
}

/// A cluster's global address: `(shard, index within the shard)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ClusterRef {
    /// Owning shard.
    pub shard: u32,
    /// Cluster index within the shard (stable: shards only append).
    pub cluster: u32,
}

/// The admission decision for one ingested item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: the item received a global id and a queue slot on its
    /// shard (`depth` = queue length after the enqueue).
    Enqueued {
        /// Global item id (dense, in admission order).
        id: u64,
        /// Shard the router chose.
        shard: u32,
        /// Shard queue depth right after this enqueue.
        depth: usize,
    },
    /// Refused: the shard's queue is full. The item holds no id; the
    /// caller decides whether to retry, shed, or block.
    Busy {
        /// Shard the router chose.
        shard: u32,
        /// The (full) queue's depth.
        depth: usize,
    },
}

impl Serialize for Admission {
    fn to_json(&self) -> Json {
        match *self {
            Admission::Enqueued { id, shard, depth } => Json::object([
                ("status", "enqueued".to_json()),
                ("id", id.to_json()),
                ("shard", shard.to_json()),
                ("depth", depth.to_json()),
            ]),
            Admission::Busy { shard, depth } => Json::object([
                ("status", "busy".to_json()),
                ("shard", shard.to_json()),
                ("depth", depth.to_json()),
            ]),
        }
    }
}

/// What one [`Service::drain`] call applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued items applied to their shards.
    pub applied: usize,
    /// Items that attached to an existing cluster on the ingest path.
    pub attached: usize,
    /// Items left buffered as unexplained.
    pub buffered: usize,
    /// New dominant clusters promoted by triggered sweeps.
    pub promoted: usize,
}

impl Serialize for DrainReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("applied", self.applied.to_json()),
            ("attached", self.attached.to_json()),
            ("buffered", self.buffered.to_json()),
            ("promoted", self.promoted.to_json()),
        ])
    }
}

/// Per-shard load metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardDepth {
    /// Admitted-but-unapplied items in the ingest queue.
    pub queued: usize,
    /// Applied items the shard has not yet explained (its sweep
    /// buffer).
    pub pending: usize,
    /// Items the shard has applied.
    pub items: usize,
    /// Dominant clusters the shard currently holds.
    pub clusters: usize,
    /// Admissions this shard refused with [`Admission::Busy`] since
    /// the process started (telemetry, not state: snapshots do not
    /// persist it and a restore starts the count afresh).
    pub busy: u64,
}

impl Serialize for ShardDepth {
    fn to_json(&self) -> Json {
        Json::object([
            ("queued", self.queued.to_json()),
            ("pending", self.pending.to_json()),
            ("items", self.items.to_json()),
            ("clusters", self.clusters.to_json()),
            ("busy", self.busy.to_json()),
        ])
    }
}

/// A cluster's cross-shard summary row.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSummary {
    /// Global address.
    pub cluster: ClusterRef,
    /// Member count.
    pub size: usize,
    /// Graph density `π(x)`.
    pub density: f64,
}

impl Serialize for ClusterSummary {
    fn to_json(&self) -> Json {
        Json::object([
            ("shard", self.cluster.shard.to_json()),
            ("cluster", self.cluster.cluster.to_json()),
            ("size", self.size.to_json()),
            ("density", self.density.to_json()),
        ])
    }
}

/// One shard: the streaming detector plus its bounded ingest queue.
/// (Busy-refusal telemetry lives in [`ServiceMetrics`], not here —
/// the shard holds state, the registry holds observations.)
pub(crate) struct Shard {
    pub(crate) stream: StreamingAlid,
    pub(crate) queue: VecDeque<Vec<f64>>,
}

/// Per-service observability: a private `alid-obs` registry plus the
/// write-side handles the service's own paths bump.
///
/// Private rather than process-global on purpose: tests run many
/// services in one process, and a shared registry would bleed one
/// service's busy counts into another's `/healthz`. Everything that
/// *is* process-global (exec pool, peeler, tracer) lives
/// in `alid_obs::global()`; the HTTP front end renders both at
/// `GET /metrics` and registers its own series into this registry via
/// [`Service::metrics_registry`].
pub(crate) struct ServiceMetrics {
    registry: alid_obs::Registry,
    /// Admissions refused with [`Admission::Busy`], one counter per
    /// shard (telemetry, not state: snapshots do not persist it and a
    /// restore starts the count afresh).
    busy: Vec<Arc<alid_obs::Counter>>,
    admitted: Arc<alid_obs::Counter>,
    drains: Arc<alid_obs::Counter>,
    drain_applied: Arc<alid_obs::Counter>,
    drain_seconds: Arc<alid_obs::Histogram>,
    sweeps: Arc<alid_obs::Counter>,
    reduce_hits: Arc<alid_obs::Counter>,
    reduce_misses: Arc<alid_obs::Counter>,
    reduce_seconds: Arc<alid_obs::Histogram>,
    reduce_pairs_tested: Arc<alid_obs::Counter>,
    reduce_pairs_linked: Arc<alid_obs::Counter>,
}

impl ServiceMetrics {
    fn new(shards: usize) -> Self {
        let r = alid_obs::Registry::new();
        let busy = (0..shards)
            .map(|s| {
                r.counter(
                    "alid_service_busy_total",
                    "Admissions refused with Busy since the process started",
                    &[("shard", &s.to_string())],
                )
            })
            .collect();
        ServiceMetrics {
            busy,
            admitted: r.counter(
                "alid_service_admitted_total",
                "Items admitted with an id and a queue slot",
                &[],
            ),
            drains: r.counter("alid_service_drains_total", "Drain calls", &[]),
            drain_applied: r.counter(
                "alid_service_drain_applied_total",
                "Queued items applied to their shards by drains",
                &[],
            ),
            drain_seconds: r.histogram(
                "alid_service_drain_seconds",
                "Wall time of one drain call across all shards",
                &[],
            ),
            sweeps: r.counter("alid_service_sweeps_total", "Forced detection sweeps", &[]),
            reduce_hits: r.counter(
                "alid_service_reduce_cache_hits_total",
                "Merged-view queries served from the epoch-keyed cache",
                &[],
            ),
            reduce_misses: r.counter(
                "alid_service_reduce_cache_misses_total",
                "Merged-view queries that re-ran the PALID reduce",
                &[],
            ),
            reduce_seconds: r.histogram(
                "alid_service_reduce_seconds",
                "Wall time of one full cross-shard reduce (cut + merge)",
                &[],
            ),
            reduce_pairs_tested: r.counter(
                "alid_service_reduce_pairs_tested_total",
                "Candidate fragment pairs affinity-tested by reduces",
                &[],
            ),
            reduce_pairs_linked: r.counter(
                "alid_service_reduce_pairs_linked_total",
                "Candidate fragment pairs that cleared the join threshold",
                &[],
            ),
            registry: r,
        }
    }
}

/// The sharded online detection service. Thread-safe: admission,
/// drain and queries may be called concurrently from any number of
/// threads (the HTTP front end does exactly that).
pub struct Service {
    cfg: ServiceConfig,
    router: ShardRouter,
    shards: Vec<Mutex<Shard>>,
    /// Global id -> placement, in admission order. Lock order: a shard
    /// lock may be held while taking this lock (admission); never the
    /// reverse.
    placements: Mutex<Vec<Placement>>,
    cost: Arc<CostModel>,
    /// Bumped after every state mutation that can change the merged
    /// view (a drain that applied something, any sweep); the
    /// merged-view cache is keyed on it. Plain admission never bumps —
    /// queued items are invisible to the reduction until applied. Mutations bump *after* they complete, so a
    /// cached view can be tagged older than the state it reflects (a
    /// harmless recompute) but never newer (a stale hit).
    epoch: AtomicU64,
    /// The cached merged view with the epoch it was computed at.
    merged: Mutex<Option<(u64, Arc<MergedView>)>>,
    /// Write-side telemetry handles plus the per-service registry.
    obs: ServiceMetrics,
    /// Durable mutation journal, attached by [`Self::set_journal`]
    /// after recovery. Appends happen *after* each mutation commits
    /// and while its lock is still held, so the journal order is a
    /// legal commit order; `None` means persistence is snapshot-only.
    journal: Option<crate::journal::Journal>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("dim", &self.cfg.dim)
            .field("shards", &self.cfg.shards)
            .field("items", &self.len())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// An empty service.
    pub fn new(cfg: ServiceConfig) -> Self {
        let router = ShardRouter::new(cfg.dim, cfg.router_bits, cfg.router_seed);
        let cost = CostModel::shared();
        let shards: Vec<_> = (0..cfg.shards)
            .map(|_| {
                Mutex::new(Shard {
                    stream: StreamingAlid::new(cfg.dim, cfg.params, cfg.batch, Arc::clone(&cost)),
                    queue: VecDeque::new(),
                })
            })
            .collect();
        let obs = ServiceMetrics::new(shards.len());
        Self {
            cfg,
            router,
            shards,
            placements: Mutex::new(Vec::new()),
            cost,
            epoch: AtomicU64::new(0),
            merged: Mutex::new(None),
            obs,
            journal: None,
        }
    }

    /// Rebuilds a service from restored parts (the snapshot codec's
    /// constructor).
    pub(crate) fn from_parts(
        cfg: ServiceConfig,
        shards: Vec<Shard>,
        placements: Vec<Placement>,
        cost: Arc<CostModel>,
    ) -> Self {
        let router = ShardRouter::new(cfg.dim, cfg.router_bits, cfg.router_seed);
        let obs = ServiceMetrics::new(shards.len());
        Self {
            cfg,
            router,
            shards: shards.into_iter().map(Mutex::new).collect(),
            placements: Mutex::new(placements),
            cost,
            epoch: AtomicU64::new(0),
            merged: Mutex::new(None),
            obs,
            journal: None,
        }
    }

    /// The per-service metrics registry — the exposition surface
    /// `GET /metrics` renders and the HTTP front end registers its own
    /// series into. Write handles stay private to the paths that bump
    /// them.
    pub fn metrics_registry(&self) -> &alid_obs::Registry {
        &self.obs.registry
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Attaches the durability journal. Call *after*
    /// [`crate::journal::recover_and_open`] has replayed history into
    /// this service — replayed mutations must not re-journal
    /// themselves — and before the service starts taking traffic.
    pub fn set_journal(&mut self, journal: crate::journal::Journal) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any (the HTTP front end barriers and
    /// compacts through this; the snapshot codec captures its cut).
    pub fn journal(&self) -> Option<&crate::journal::Journal> {
        self.journal.as_ref()
    }

    /// The shared cost model all shards account into.
    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// Total admitted items (applied + queued).
    pub fn len(&self) -> usize {
        self.placements.lock().expect("placements").len()
    }

    /// Whether nothing has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, s: usize) -> MutexGuard<'_, Shard> {
        self.shards[s].lock().expect("shard mutex")
    }

    /// Test-only peek at one shard's raw state (production readers go
    /// through the query API or `lock_all`).
    #[cfg(test)]
    pub(crate) fn shard_state(&self, s: usize) -> MutexGuard<'_, Shard> {
        self.shard(s)
    }

    /// Locks the whole service — every shard (in index order) and the
    /// placement registry — and returns the guards, giving the
    /// snapshot codec a *consistent cut*: no item can be captured in
    /// a shard queue without its placement entry (or vice versa).
    /// The order is compatible with `ingest` (one shard, then
    /// placements), so no lock cycle exists: an ingest holding shard
    /// `s` blocks this method at `s` *before* it reaches the
    /// placement lock.
    pub(crate) fn lock_all(&self) -> (Vec<MutexGuard<'_, Shard>>, MutexGuard<'_, Vec<Placement>>) {
        let shards = self.lock_shards();
        let placements = self.placements.lock().expect("placements");
        (shards, placements)
    }

    /// Locks every shard in index order — the shard-only consistent
    /// cut cross-shard readers (`summaries`, `top_k`) take so a
    /// concurrent drain can never yield a view that counts an item
    /// mid-migration on two shards (or on none). A prefix of the
    /// `lock_all` order, so it composes with admission's
    /// one-shard-then-placements discipline without a cycle.
    pub(crate) fn lock_shards(&self) -> Vec<MutexGuard<'_, Shard>> {
        (0..self.shards.len()).map(|s| self.shard(s)).collect()
    }

    /// The shard the router assigns to `v` (pure; exposed so clients
    /// can pre-partition their own batches).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn route(&self, v: &[f64]) -> usize {
        self.router.route(v, self.shards.len())
    }

    /// Admits one item: routes it, enqueues it on its shard (bounded),
    /// and assigns the global id. The item is *not* applied until the
    /// next [`Self::drain`] — admission is cheap and never triggers a
    /// sweep.
    ///
    /// # Panics
    /// Panics if `v.len() != config().dim`.
    pub fn ingest(&self, v: &[f64]) -> Admission {
        assert_eq!(v.len(), self.cfg.dim, "ingested vector dimensionality mismatch");
        let s = self.route(v);
        let mut shard = self.shard(s);
        if shard.queue.len() >= self.cfg.queue_capacity {
            self.obs.busy[s].inc();
            return Admission::Busy { shard: s as u32, depth: shard.queue.len() };
        }
        self.obs.admitted.inc();
        let local = (shard.stream.len() + shard.queue.len()) as u32;
        shard.queue.push_back(v.to_vec());
        let depth = shard.queue.len();
        // Shard lock still held: the global order must agree with the
        // shard-local order for items of the same shard.
        let mut placements = self.placements.lock().expect("placements");
        let id = placements.len() as u64;
        placements.push(Placement { shard: s as u32, local });
        if let Some(journal) = &self.journal {
            // Both commit locks still held: the journal's pending
            // order agrees with the admission order.
            journal.append_admit(id, s as u32, v);
        }
        // No epoch bump: admission only touches the queue and the
        // placement registry, both invisible to the merged view until
        // a drain applies the item (the reduce's reverse map skips
        // locals past the applied prefix) — enqueue-heavy clients
        // keep their merged-view cache hot.
        Admission::Enqueued { id, shard: s as u32, depth }
    }

    /// Admits a batch in order. Stops at nothing: every item gets its
    /// own admission verdict (a full shard refuses, others continue).
    pub fn ingest_batch<'a, I>(&self, items: I) -> Vec<Admission>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        items.into_iter().map(|v| self.ingest(v)).collect()
    }

    /// Applies every queued item to its shard, fanning out across
    /// shards on `params.exec` (this is where server threads reuse the
    /// shared exec pool). Per-shard application is strictly FIFO, so
    /// the outcome is byte-identical for any worker count.
    pub fn drain(&self) -> DrainReport {
        self.obs.drains.inc();
        let _drain_timer = self.obs.drain_seconds.start_timer();
        let reports = self
            .cfg
            .params
            .exec
            .map_indexed(self.shards.len(), |s| self.apply_queued(s, u64::MAX).0);
        let mut total = DrainReport::default();
        for r in reports {
            total.applied += r.applied;
            total.attached += r.attached;
            total.buffered += r.buffered;
            total.promoted += r.promoted;
        }
        self.obs.drain_applied.add(total.applied as u64);
        if total.applied > 0 {
            // After the mutations: a merged view cut mid-drain tags
            // itself with the pre-bump epoch and is invalidated here.
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
        total
    }

    /// Forces a detection sweep on every shard (tail flush — the
    /// stream analogue of "run detection on what's left").
    pub fn sweep(&self) -> usize {
        self.obs.sweeps.inc();
        let promoted = self
            .cfg
            .params
            .exec
            .map_indexed(self.shards.len(), |s| self.sweep_shard(s))
            .into_iter()
            .sum();
        // A sweep can attach pending items even when it promotes
        // nothing, so the merged-view cache is always invalidated.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        promoted
    }

    /// One shard's slice of [`Self::drain`]: applies queued items in
    /// FIFO order until the shard holds `upto` items or its queue is
    /// empty, and journals the `Apply` frame when it applied anything.
    /// Returns the report and the shard's item count after.
    fn apply_queued(&self, s: usize, upto: u64) -> (DrainReport, u64) {
        let mut shard = self.shard(s);
        let mut report = DrainReport::default();
        while (shard.stream.len() as u64) < upto {
            let Some(v) = shard.queue.pop_front() else { break };
            report.applied += 1;
            // alid-lint: allow(panic-under-lock) -- queued vectors were dim-checked at ingest admission, or when their admit frame decoded on replay; push's dim assert cannot fire here
            match shard.stream.push(&v) {
                StreamUpdate::Attached(_) => report.attached += 1,
                StreamUpdate::Buffered => report.buffered += 1,
                StreamUpdate::SweptNewClusters(k) => report.promoted += k,
            }
        }
        let held = shard.stream.len() as u64;
        if report.applied > 0 {
            if let Some(journal) = &self.journal {
                // Shard lock still held: the frame records the
                // shard-local item count this drain reached, the
                // anchor replay validates against.
                journal.append_apply(s as u32, held);
            }
        }
        (report, held)
    }

    /// One shard's slice of [`Self::sweep`]: runs the forced sweep and
    /// journals the `Sweep` frame.
    fn sweep_shard(&self, s: usize) -> usize {
        let mut shard = self.shard(s);
        // alid-lint: allow(panic-under-lock) -- sweep's asserts are internal invariants over ingest-validated data; a failure means corrupted shard state, where fail-fast poisoning beats serving wrong clusters
        let promoted = shard.stream.sweep();
        if let Some(journal) = &self.journal {
            // Shard lock still held: the frame records the item count
            // this sweep ran at, the anchor replay validates against.
            journal.append_sweep(s as u32, shard.stream.len() as u64);
        }
        promoted
    }

    /// Journal replay of one drain frame: [`Self::drain`]'s per-shard
    /// code, stopped at `upto` items, erroring unless the shard ends
    /// at exactly `upto` (already past it, or the queue ran dry). No
    /// journal is attached during replay, so nothing re-journals.
    pub(crate) fn replay_apply(&self, s: usize, upto: u64) -> Result<(), String> {
        let (report, held) = self.apply_queued(s, upto);
        if report.applied > 0 {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
        if held != upto {
            return Err(format!("shard {s} holds {held} items replaying a drain to {upto}"));
        }
        Ok(())
    }

    /// Journal replay of one sweep frame, validated against the item
    /// count the live sweep ran at — a mismatch means the journal
    /// belongs to a different history.
    pub(crate) fn replay_sweep(&self, s: usize, upto: u64) -> Result<(), String> {
        let held = {
            let shard = self.shard(s);
            shard.stream.len() as u64
        };
        if held != upto {
            return Err(format!("shard {s} holds {held} items, sweep frame ran at {upto}"));
        }
        self.sweep_shard(s);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// The current cluster assignment of admitted item `id`: `None`
    /// for unknown ids; `Some(None)` while the item is queued or
    /// unexplained; `Some(Some(cluster))` once a cluster claims it.
    pub fn assignment(&self, id: u64) -> Option<Option<ClusterRef>> {
        let placement = {
            let placements = self.placements.lock().expect("placements");
            *placements.get(id as usize)?
        };
        let shard = self.shard(placement.shard as usize);
        let assigned = shard
            .stream
            .assignments()
            .get(placement.local as usize)
            .copied()
            .flatten()
            .map(|c| ClusterRef { shard: placement.shard, cluster: c as u32 });
        Some(assigned)
    }

    /// Read-only attachment probe: the densest cluster on `v`'s shard
    /// that `v` would join under the infective-attachment rule
    /// (`π(s_new, x_c) >= π(x_c)`), without mutating anything. `None`
    /// when no cluster would accept the vector. Delegates to
    /// [`StreamingAlid::best_infective`] — the same evaluation the
    /// ingest path runs — so probe answers can never drift from what
    /// an actual ingest of `v` would decide.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn probe(&self, v: &[f64]) -> Option<(ClusterRef, f64)> {
        assert_eq!(v.len(), self.cfg.dim, "probed vector dimensionality mismatch");
        let s = self.route(v);
        let shard = self.shard(s);
        let all = 0..shard.stream.clusters().len();
        // alid-lint: allow(panic-under-lock) -- probe dim-asserts its input before taking the shard lock; the evaluation asserts cannot fire on validated data
        shard
            .stream
            .best_infective(v, all)
            .map(|(c, density, _)| (ClusterRef { shard: s as u32, cluster: c as u32 }, density))
    }

    /// Every shard's current load metrics.
    pub fn depths(&self) -> Vec<ShardDepth> {
        (0..self.shards.len())
            .map(|s| {
                let shard = self.shard(s);
                ShardDepth {
                    queued: shard.queue.len(),
                    pending: shard.stream.pending().len(),
                    items: shard.stream.len(),
                    clusters: shard.stream.clusters().len(),
                    // alid-lint: allow(no-metric-branching) -- /healthz telemetry read-out; the value feeds load reporting, never clustering outputs
                    busy: self.obs.busy[s].metric_value(),
                }
            })
            .collect()
    }

    /// A retry-backoff hint (milliseconds) for a [`Admission::Busy`]
    /// verdict observed at queue `depth`: one millisecond per queued
    /// item — the drain applies queued items at sub-millisecond rates,
    /// so by then the queue has almost certainly made room — clamped
    /// to `[25, 10_000]` so tiny queues don't spin and huge ones don't
    /// park clients for minutes. The HTTP front end surfaces it as a
    /// `Retry-After` header.
    pub fn retry_after_hint_ms(depth: usize) -> u64 {
        (depth as u64).clamp(25, 10_000)
    }

    /// Summaries of every cluster across all shards, in `(shard,
    /// cluster)` order — one consistent cut: all shard locks are held
    /// together (same discipline as the snapshot codec), so a
    /// concurrent drain can never produce a view that observes an
    /// item on two shards or on none.
    pub fn summaries(&self) -> Vec<ClusterSummary> {
        let shards = self.lock_shards();
        let mut out = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            for (c, cluster) in shard.stream.clusters().iter().enumerate() {
                out.push(ClusterSummary {
                    cluster: ClusterRef { shard: s as u32, cluster: c as u32 },
                    size: cluster.members.len(),
                    density: cluster.density,
                });
            }
        }
        out
    }

    /// The `k` densest clusters service-wide — the PALID reduction
    /// rule (Fig. 5's "maximum density wins") applied across shards:
    /// the [`Self::summaries`] cut ranked by density, ties broken by
    /// `(shard, cluster)` so the merge is deterministic.
    pub fn top_k(&self, k: usize) -> Vec<ClusterSummary> {
        let mut out = self.summaries();
        out.sort_by(|a, b| b.density.total_cmp(&a.density).then_with(|| a.cluster.cmp(&b.cluster)));
        out.truncate(k);
        out
    }

    /// The fully reduced cross-shard view — the paper's PALID reduce
    /// phase (Fig. 5) done properly on partitioned data: instead of
    /// merely *ranking* shard-local detections, fragments of a
    /// dominant cluster that straddles a routing hyperplane are
    /// *joined* by re-running the detection dynamics on their member
    /// union.
    ///
    /// The pipeline (see [`crate::reduce`] for the stages): take a
    /// consistent cut of every shard's clusters with their merge
    /// evidence; generate candidate fragment pairs from router
    /// signatures of the centroids (fragments of one straddling
    /// cluster have near-identical signatures by construction — no
    /// all-pairs scan); accept pairs whose centroid/support-sample
    /// kernel affinity clears the detection threshold; re-detect on
    /// the member union of each accepted group via
    /// [`alid_core::detect_on_subset`]; and resolve all surviving
    /// claims by the paper's maximum-density rule with the
    /// deterministic `(shard, cluster)` tie-break.
    ///
    /// The result is cached and invalidated whenever applied state
    /// changes (a drain that applied items, any sweep), so repeated
    /// queries between mutations never re-pay the reduction; plain
    /// admission leaves the cache hot, since queued items cannot
    /// appear in any cluster until drained.
    /// Determinism: the view is a pure function of the cut shard
    /// states, so it is bit-identical across reruns and worker
    /// counts; the re-detected clusters are additionally a pure
    /// function of the member *union*, which is what makes the merged
    /// view agree with a single-shard run on straddling fixtures (see
    /// `tests/service.rs`).
    pub fn merged_view(&self) -> Arc<MergedView> {
        let hint = self.epoch.load(Ordering::SeqCst);
        if let Some((tag, view)) = self.merged.lock().expect("merged cache").as_ref() {
            if *tag == hint {
                self.obs.reduce_hits.inc();
                return Arc::clone(view);
            }
        }
        self.obs.reduce_misses.inc();
        let _reduce_timer = self.obs.reduce_seconds.start_timer();
        let cut = self.reduce_cut();
        self.obs.reduce_pairs_tested.add(cut.pairs_tested as u64);
        self.obs.reduce_pairs_linked.add(cut.pairs_linked as u64);
        let view = Arc::new(reduce::merge(cut, &self.cfg.params, &self.cost));
        *self.merged.lock().expect("merged cache") = Some((view.epoch, Arc::clone(&view)));
        view
    }

    /// The `k` densest clusters of the [`Self::merged_view`] — the
    /// `top_k` analogue after fragment joining (the `top_k_merged`
    /// library API behind `GET /clusters?view=merged`).
    pub fn top_k_merged(&self, k: usize) -> Vec<MergedCluster> {
        self.merged_view().clusters.iter().take(k).cloned().collect()
    }

    /// Extracts everything the reducer needs under one consistent cut
    /// (all shard locks + the placement lock, the `lock_all`
    /// discipline), leaving the expensive union re-detection to run
    /// *after* the locks drop: fragment summaries with merge
    /// evidence, signature-generated candidate groups, and the member
    /// union (ids + vectors) of every accepted group.
    fn reduce_cut(&self) -> ReduceCut {
        let (shards, placements) = self.lock_all();
        // Read under the full cut: a mutation serialized before this
        // cut either already bumped (tag exact) or bumps after (tag
        // older than the state — the cache then recomputes once, it
        // never serves a stale view).
        let epoch = self.epoch.load(Ordering::SeqCst);
        // Reverse placement map: (shard, local) -> global id, for the
        // applied prefix of every shard (cluster members are always
        // applied; queued items have local indices past `stream.len()`).
        let mut rev: Vec<Vec<u64>> =
            shards.iter().map(|g| vec![u64::MAX; g.stream.len()]).collect();
        for (gid, p) in placements.iter().enumerate() {
            if let Some(slot) = rev[p.shard as usize].get_mut(p.local as usize) {
                *slot = gid as u64;
            }
        }
        let mut fragments = Vec::new();
        for (s, guard) in shards.iter().enumerate() {
            for (c, cluster) in guard.stream.clusters().iter().enumerate() {
                // alid-lint: allow(panic-under-lock) -- MERGE_SAMPLE is a positive constant; the sample-cap assert cannot fire
                let evidence = guard.stream.merge_evidence(c, reduce::MERGE_SAMPLE);
                let members: Vec<u64> =
                    cluster.members.iter().map(|&m| rev[s][m as usize]).collect();
                fragments.push(FragmentCut {
                    r: ClusterRef { shard: s as u32, cluster: c as u32 },
                    members,
                    density: cluster.density,
                    // alid-lint: allow(panic-under-lock) -- the centroid dim comes from the shard dataset, which matches the router dim fixed at construction
                    signature: self.router.signature(&evidence.centroid),
                    evidence,
                });
            }
        }
        // A radius wider than the signature itself would trip the
        // probe enumerator's assertion — while this cut holds every
        // lock, poisoning the whole service — so narrow routers clamp
        // it (probing the full Hamming ball of a 1-bit signature is
        // already exhaustive).
        let radius = reduce::MERGE_RADIUS.min(self.cfg.router_bits as u32);
        // alid-lint: allow(panic-under-lock) -- probe_signatures asserts radius <= 4 and <= router bits, and the radius is MERGE_RADIUS = 2 clamped to router_bits just above; the block kernel's dim asserts cannot fire, as every centroid and sample row comes from a shard dataset of cfg.dim
        let (groups, pairs_tested, pairs_linked) = reduce::candidate_groups(
            &fragments,
            &self.router,
            radius,
            &self.cfg.params.kernel,
            self.cfg.params.density_threshold,
            &self.cost,
        );
        // The union data set: every grouped fragment's members, in
        // ascending global-id order — canonical in the member sets
        // alone, so any partitioning producing the same unions
        // re-detects identically.
        let mut union_gids: Vec<u64> = groups
            .iter()
            .flat_map(|g| g.iter().flat_map(|&f| fragments[f].members.iter().copied()))
            .collect();
        union_gids.sort_unstable();
        union_gids.dedup();
        // alid-lint: allow(panic-under-lock) -- cfg.dim is asserted positive at construction; the capacity assert cannot fire
        let mut union_data = Dataset::with_capacity(self.cfg.dim, union_gids.len());
        for &gid in &union_gids {
            let p = placements[gid as usize];
            // alid-lint: allow(panic-under-lock) -- rows are copied between same-dim datasets; the dim-equality assert cannot fire
            union_data.push(shards[p.shard as usize].stream.data().get(p.local as usize));
        }
        // The group → union-row mapping needs only `fragments` and
        // `union_gids`, both owned copies — drop the cut first so the
        // lookup below can never panic while a lock is held (and
        // admissions stop queueing behind the reduction's tail work).
        drop(placements);
        drop(shards);
        let groups = groups
            .into_iter()
            .map(|g| {
                let mut rows: Vec<u32> = g
                    .iter()
                    .flat_map(|&f| fragments[f].members.iter())
                    .map(|gid| {
                        union_gids.binary_search(gid).expect("union covers its groups") as u32
                    })
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                UnionCut { fragment_ids: g, rows }
            })
            .collect();
        ReduceCut { epoch, fragments, union_gids, union_data, groups, pairs_tested, pairs_linked }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use alid_affinity::kernel::LaplacianKernel;

    pub(crate) fn test_params() -> AlidParams {
        let kernel = LaplacianKernel::l2(1.0);
        let mut p = AlidParams::new(kernel);
        p.first_roi_radius = kernel.distance_at(0.5);
        p.density_threshold = 0.7;
        p.min_cluster_size = 3;
        p.lsh.seed = 5;
        p
    }

    fn two_blob_items(n: usize) -> Vec<Vec<f64>> {
        // Two separable blobs in 2-d plus occasional noise.
        (0..n)
            .map(|i| match i % 5 {
                0 | 1 => vec![(i % 7) as f64 * 0.03, 0.0],
                2 | 3 => vec![40.0 + (i % 7) as f64 * 0.03, 40.0],
                _ => vec![i as f64 * 17.0, -(i as f64) * 23.0],
            })
            .collect()
    }

    fn service(shards: usize) -> Service {
        Service::new(ServiceConfig::new(2, shards, test_params()).with_batch(8))
    }

    #[test]
    fn ingest_assigns_dense_global_ids_in_order() {
        let svc = service(4);
        for (i, v) in two_blob_items(20).iter().enumerate() {
            match svc.ingest(v) {
                Admission::Enqueued { id, .. } => assert_eq!(id, i as u64),
                Admission::Busy { .. } => panic!("queues are far from full"),
            }
        }
        assert_eq!(svc.len(), 20);
    }

    #[test]
    fn backpressure_refuses_beyond_capacity_and_assigns_no_id() {
        let cfg = ServiceConfig::new(2, 1, test_params()).with_queue_capacity(3);
        let svc = Service::new(cfg);
        let items = two_blob_items(6);
        let verdicts = svc.ingest_batch(items.iter().map(Vec::as_slice));
        let enqueued = verdicts.iter().filter(|a| matches!(a, Admission::Enqueued { .. })).count();
        assert_eq!(enqueued, 3, "{verdicts:?}");
        assert_eq!(svc.len(), 3, "refused items must not consume ids");
        for a in &verdicts[3..] {
            assert!(matches!(a, Admission::Busy { depth: 3, .. }), "{a:?}");
        }
        // Draining frees the queue; admission resumes.
        svc.drain();
        assert!(matches!(svc.ingest(&items[0]), Admission::Enqueued { .. }));
    }

    #[test]
    fn drain_applies_everything_and_detects() {
        let svc = service(2);
        let items = two_blob_items(40);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        let report = svc.drain();
        assert_eq!(report.applied, 40);
        svc.sweep();
        let depths = svc.depths();
        assert!(depths.iter().all(|d| d.queued == 0));
        assert_eq!(depths.iter().map(|d| d.items).sum::<usize>(), 40);
        let clusters = svc.summaries();
        assert!(clusters.len() >= 2, "both blobs should be detected, got {clusters:?}");
    }

    #[test]
    fn assignment_tracks_items_through_their_shards() {
        let svc = service(3);
        let items = two_blob_items(40);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        svc.drain();
        svc.sweep();
        let mut explained = 0;
        for id in 0..40u64 {
            let a = svc.assignment(id).expect("known id");
            if let Some(cref) = a {
                explained += 1;
                // The claimed cluster must actually exist.
                let shard = svc.shard(cref.shard as usize);
                assert!((cref.cluster as usize) < shard.stream.clusters().len());
            }
        }
        assert!(explained >= 16, "most blob items should be explained, got {explained}");
        assert_eq!(svc.assignment(40), None, "unknown id");
    }

    #[test]
    fn probe_finds_the_home_cluster_without_mutating() {
        let svc = service(2);
        let items = two_blob_items(40);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        svc.drain();
        svc.sweep();
        let before = svc.depths();
        let hit = svc.probe(&[0.05, 0.0]);
        assert!(hit.is_some(), "an in-blob vector must probe into its cluster");
        let miss = svc.probe(&[9e5, -9e5]);
        assert!(miss.is_none(), "far noise must not probe into anything");
        assert_eq!(svc.depths(), before, "probe mutated the service");
    }

    #[test]
    fn top_k_is_density_sorted_and_deterministic() {
        let svc = service(4);
        let items = two_blob_items(60);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        svc.drain();
        svc.sweep();
        let top = svc.top_k(8);
        for w in top.windows(2) {
            assert!(w[0].density >= w[1].density, "top-k not density-sorted: {:?}", top);
        }
        assert_eq!(top, svc.top_k(8), "repeat query must be identical");
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn ingest_rejects_wrong_dim() {
        let svc = service(1);
        let _ = svc.ingest(&[1.0]);
    }

    /// `top_k` must agree with a full sort of the summaries at every
    /// k, including k = 0, k beyond the cluster count, and the
    /// `usize::MAX` "everything" query.
    #[test]
    fn top_k_matches_full_sort_at_every_k() {
        let svc = service(4);
        let items = two_blob_items(60);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        svc.drain();
        svc.sweep();
        let mut full = svc.summaries();
        full.sort_by(|a, b| {
            b.density.total_cmp(&a.density).then_with(|| a.cluster.cmp(&b.cluster))
        });
        assert!(full.len() >= 2, "fixture must produce several clusters");
        for k in 0..full.len() + 2 {
            assert_eq!(svc.top_k(k), full[..k.min(full.len())], "k = {k}");
        }
        assert_eq!(svc.top_k(usize::MAX), full);
    }

    #[test]
    fn busy_admissions_are_counted_per_shard() {
        let cfg = ServiceConfig::new(2, 1, test_params()).with_queue_capacity(2);
        let svc = Service::new(cfg);
        let items = two_blob_items(6);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        assert_eq!(svc.depths()[0].busy, 4, "four of six admissions refused");
        svc.drain();
        assert_eq!(svc.depths()[0].busy, 4, "draining never clears the telemetry");
        // `/healthz` and `/metrics` are the same counter now: the
        // registry must render exactly what `depths()` reports.
        let text = svc.metrics_registry().render_prometheus();
        assert!(
            text.contains("alid_service_busy_total{shard=\"0\"} 4"),
            "registry and depths() must agree: {text}"
        );
        // Per-service registries must not bleed into one another.
        let other = Service::new(ServiceConfig::new(2, 1, test_params()).with_queue_capacity(2));
        assert_eq!(other.depths()[0].busy, 0, "fresh service, fresh counters");
    }

    /// On one shard no cross-shard pair exists, so the merged view is
    /// exactly the raw reduction.
    #[test]
    fn merged_view_on_one_shard_equals_the_raw_view() {
        let svc = service(1);
        let items = two_blob_items(60);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        svc.drain();
        svc.sweep();
        let merged = svc.merged_view();
        assert_eq!(merged.stats.clusters_merged, 0);
        assert_eq!(merged.stats.pairs_tested, 0);
        let raw = svc.top_k(usize::MAX);
        assert_eq!(merged.clusters.len(), raw.len());
        for (m, r) in merged.clusters.iter().zip(&raw) {
            assert_eq!(m.rep, r.cluster);
            assert_eq!(m.fragments, vec![r.cluster]);
            assert_eq!(m.size(), r.size);
            assert_eq!(m.density.to_bits(), r.density.to_bits());
        }
    }

    #[test]
    fn merged_view_is_cached_until_a_mutation() {
        let svc = service(4);
        let items = two_blob_items(60);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        svc.drain();
        svc.sweep();
        let first = svc.merged_view();
        // Unmutated repeats serve the same Arc, not a recomputation.
        let second = svc.merged_view();
        assert!(Arc::ptr_eq(&first, &second), "cache must serve repeats");
        // A mutation invalidates; the fresh view explains the new
        // member (global id 60, inside blob A).
        let in_first = first.clusters.iter().any(|c| c.members.contains(&60));
        assert!(!in_first, "id 60 does not exist yet");
        svc.ingest(&[0.01, 0.0]);
        // Enqueue alone leaves the cache hot: a queued item cannot
        // appear in any cluster until a drain applies it.
        assert!(
            Arc::ptr_eq(&first, &svc.merged_view()),
            "admission without a drain must not invalidate the cache"
        );
        svc.drain();
        svc.sweep();
        let third = svc.merged_view();
        assert!(!Arc::ptr_eq(&first, &third), "ingest must invalidate the cache");
        assert!(
            third.clusters.iter().any(|c| c.members.contains(&60)),
            "the new member shows up in the merged view: {:?}",
            third.clusters
        );
    }

    /// Regression: a router narrower than the merge radius used to
    /// trip the probe enumerator's assertion while the reduce held
    /// every lock, poisoning the whole service off one query. The
    /// radius now clamps to the signature width.
    #[test]
    fn merged_view_survives_a_router_narrower_than_the_merge_radius() {
        let mut cfg = ServiceConfig::new(2, 2, test_params()).with_batch(8);
        cfg.router_bits = 1;
        let svc = Service::new(cfg);
        let items = two_blob_items(40);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        svc.drain();
        svc.sweep();
        let view = svc.merged_view();
        assert!(!view.clusters.is_empty());
        // And the service is still alive for every other query.
        assert!(matches!(svc.ingest(&items[0]), Admission::Enqueued { .. }));
    }

    #[test]
    fn top_k_merged_truncates_the_ranked_view() {
        let svc = service(2);
        let items = two_blob_items(40);
        svc.ingest_batch(items.iter().map(Vec::as_slice));
        svc.drain();
        svc.sweep();
        let all = svc.merged_view();
        assert!(all.clusters.len() >= 2);
        let top = svc.top_k_merged(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0], all.clusters[0]);
        for w in all.clusters.windows(2) {
            assert!(w[0].density >= w[1].density, "merged view must stay rank-ordered");
        }
    }
}
