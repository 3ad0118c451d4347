//! Durable append-only journal of applied mutations, with group
//! commit and segment-based compaction — the O(delta) half of the
//! persistence story (`POST /snapshot` is the O(n) half).
//!
//! # What is journaled
//!
//! Exactly the three mutations that change shard state, recorded
//! *after* they commit (observation-not-control, the `alid-obs`
//! discipline — a journal failure can stall durability, never change
//! a detection result):
//!
//! * **admit** (`"t":"a"`) — one item's global id, routed shard, and
//!   vector, enqueued by [`Service::ingest`](crate::Service::ingest)
//!   while the shard and placement locks are still held;
//! * **apply** (`"t":"d"`) — one shard's drain, recorded as the
//!   shard-local item count after the queue was applied;
//! * **sweep** (`"t":"s"`) — one shard's forced detection sweep, with
//!   the item count it ran at (a validation anchor for replay). Older
//!   writers also stored an always-zero `freed` field; replay ignores
//!   unknown fields, so their segments still replay.
//!
//! Queries, merge-knob changes and telemetry are all derived or
//! ephemeral and stay out. Because every frame is enqueued while its
//! mutation's commit lock is held, the channel's FIFO order *is* a
//! legal commit order: frames touching one shard appear in that
//! shard's commit order, and frames of different shards commute.
//!
//! # Frame and segment format
//!
//! A segment file `journal-<seq>` starts with a 20-byte header —
//! magic `ALIDJRNL`, a little-endian `u32` format version, and the
//! little-endian `u64` *logical position* (frames appended since the
//! service's birth) of its first frame — followed by frames laid out
//! as `[u32 payload len][u32 FNV-1a checksum][serde::bin payload]`,
//! both words little-endian. Positions are logical on purpose: they
//! are a pure function of the mutation history, so an uninterrupted
//! run and a snapshot+replay run stamp byte-identical positions into
//! their snapshots, which is what makes the recovery proof a one-line
//! `snapshot_bytes` comparison. Physical segment numbers, which
//! depend on restart and compaction timing, never enter a snapshot.
//!
//! # Group commit
//!
//! Appenders never touch the file: they bump the logical position and
//! send a typed message to a dedicated writer thread, which drains
//! everything queued, encodes it, and pays **one** `write` + one
//! `fsync` for the whole batch. [`Journal::barrier`] waits for the
//! fsync covering every previously appended frame; N concurrent HTTP
//! ingests that barrier together therefore share one disk flush. A
//! writer I/O failure is fail-fast: the thread panics (visibly, on
//! stderr), subsequent appends are dropped, and `/healthz` shows the
//! growing `appended - durable` lag — detection itself never stops.
//!
//! # Compaction
//!
//! The snapshot codec captures the cut position and asks the writer
//! to rotate segments while it still holds every service lock (see
//! `Journal::rotate_for_cut`); once the snapshot is durably on
//! disk, [`Journal::truncate_below`] deletes every closed segment
//! whose frames all lie below the cut. A crash between the snapshot
//! rename and the truncation is safe: replay skips frames below the
//! snapshot's embedded position.
//!
//! # Recovery
//!
//! [`recover_and_open`] replays every frame at or past the restored
//! snapshot's position through the service's ordinary deterministic
//! mutation paths. A *torn tail* — the final segment ending inside a
//! frame, the signature of a crash mid-`write` — recovers cleanly to
//! the last complete frame and truncates the file to that boundary;
//! any other malformation (checksum mismatch, undecodable payload, a
//! position gap) is a positioned [`JournalError`], because silently
//! skipping a mid-history frame would replay a *different* history.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};

use serde::bin;
use serde::{Json, Serialize};

use crate::service::{Admission, Service};

/// Leading bytes of every journal segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"ALIDJRNL";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Segment header: magic + version word + first logical position.
const SEGMENT_HEADER_LEN: usize = SEGMENT_MAGIC.len() + 4 + 8;
/// Frame header: payload length word + checksum word.
const FRAME_HEADER_LEN: usize = 8;

/// Static configuration of a [`Journal`].
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the `journal-<seq>` segment files.
    pub dir: PathBuf,
    /// Segment size threshold in bytes: the writer rotates to a fresh
    /// segment once the current one exceeds it, and the HTTP front
    /// end triggers a compacting snapshot once this many journal
    /// bytes accumulated since the last one. `0` disables both (the
    /// journal still appends and recovers; explicit `POST /snapshot`
    /// still compacts).
    pub compact_every: u64,
}

/// Why a journal failed to open, replay, or recover.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A segment's bytes are malformed mid-history (checksum
    /// mismatch, undecodable payload, position gap) — not a torn
    /// tail, which recovers cleanly.
    Corrupt {
        /// Segment file holding the damage.
        segment: PathBuf,
        /// Byte offset of the offending frame within the segment.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// A frame decoded but could not be re-applied to the service
    /// (wrong dimensionality, id mismatch, a dry queue) — the journal
    /// and the restored snapshot disagree about history.
    Replay {
        /// Segment file holding the frame.
        segment: PathBuf,
        /// Byte offset of the frame within the segment.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { segment, offset, reason } => {
                write!(f, "journal corrupt at {}:{offset}: {reason}", segment.display())
            }
            JournalError::Replay { segment, offset, reason } => {
                write!(f, "journal replay failed at {}:{offset}: {reason}", segment.display())
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What appenders enqueue to the writer thread. Mutation variants are
/// captured by value under the mutation's commit lock; encoding
/// happens on the writer thread, off every hot path.
enum Msg {
    Admit {
        id: u64,
        shard: u32,
        v: Vec<f64>,
    },
    Apply {
        shard: u32,
        upto: u64,
    },
    Sweep {
        shard: u32,
        upto: u64,
    },
    /// Close the current segment (flush + fsync) and open the next —
    /// enqueued by the snapshot codec at its cut position.
    Rotate,
    /// Reply on the channel once every earlier frame is fsynced.
    Barrier(SyncSender<()>),
    /// Flush and exit the writer thread.
    Shutdown,
}

/// State the writer thread shares with appenders — split from
/// [`JournalInner`] so the thread holds no reference cycle keeping
/// the journal alive.
struct Shared {
    dir: PathBuf,
    compact_every: u64,
    /// Frames durably on disk (logical position after the last fsync).
    durable: AtomicU64,
    /// Journal bytes written since the last compaction — the
    /// auto-compaction trigger.
    since_compaction: AtomicU64,
    appends: Arc<alid_obs::Counter>,
    bytes: Arc<alid_obs::Counter>,
    fsync_seconds: Arc<alid_obs::Histogram>,
}

struct JournalInner {
    shared: Arc<Shared>,
    compactions: Arc<alid_obs::Counter>,
    tx: Mutex<Sender<Msg>>,
    /// Frames appended (enqueued) since the service's birth — the
    /// logical position. Bumped under the mutation's commit lock, so
    /// under `lock_all` it is exact (no appender can be in flight).
    appended: AtomicU64,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for JournalInner {
    fn drop(&mut self) {
        if let Ok(tx) = self.tx.lock() {
            let _ = tx.send(Msg::Shutdown);
        }
        let handle = self.writer.lock().ok().and_then(|mut w| w.take());
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// Handle to a live journal: cheap to clone, shared between the
/// [`Service`] (which appends) and the HTTP front end (which
/// barriers, compacts, and reports lag).
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.inner.shared.dir)
            .field("appended", &self.appended())
            .field("durable", &self.durable())
            .finish()
    }
}

impl Journal {
    /// Frames appended since the service's birth (the logical
    /// position; includes frames not yet fsynced).
    pub fn appended(&self) -> u64 {
        self.inner.appended.load(Ordering::SeqCst)
    }

    /// Frames durably fsynced to disk.
    pub fn durable(&self) -> u64 {
        self.inner.shared.durable.load(Ordering::SeqCst)
    }

    /// Appended-but-not-yet-fsynced frames — the durability lag
    /// `/healthz` reports. Zero after any [`Self::barrier`].
    pub fn lag(&self) -> u64 {
        self.appended().saturating_sub(self.durable())
    }

    /// Blocks until every frame appended before this call is fsynced.
    /// Concurrent barriers batch into one group commit (one fsync
    /// covers them all). Returns immediately if the writer has died.
    pub fn barrier(&self) {
        let (done_tx, done_rx) = mpsc::sync_channel(1);
        let sent = {
            let tx = self.inner.tx.lock().expect("journal tx");
            tx.send(Msg::Barrier(done_tx)).is_ok()
        };
        if sent {
            let _ = done_rx.recv();
        }
    }

    /// Whether enough journal bytes accumulated since the last
    /// compaction to warrant folding them into a snapshot (the HTTP
    /// ingest path's auto-compaction trigger; always `false` when
    /// `compact_every` is 0).
    pub fn needs_compaction(&self) -> bool {
        self.inner.shared.compact_every > 0
            && self.inner.shared.since_compaction.load(Ordering::SeqCst)
                >= self.inner.shared.compact_every
    }

    /// Captures the snapshot cut: the exact logical position the
    /// snapshot covers, plus a non-blocking rotation request so the
    /// cut lands on a segment boundary (making the covered segments
    /// deletable by [`Self::truncate_below`]).
    ///
    /// Must be called while the caller holds the service's `lock_all`
    /// cut: every append happens under a shard lock, so no append can
    /// be in flight and the position read is exact. Deliberately
    /// fire-and-forget — waiting for the writer here would block I/O
    /// under every service lock.
    pub(crate) fn rotate_for_cut(&self) -> u64 {
        let cut = self.inner.appended.load(Ordering::SeqCst);
        let tx = self.inner.tx.lock().expect("journal tx");
        let _ = tx.send(Msg::Rotate);
        cut
    }

    /// Deletes every closed segment whose frames all lie below
    /// `cut_pos` (covered by the snapshot just written) and returns
    /// the bytes freed. The newest segment is never touched — the
    /// writer owns it. Call after the snapshot is durably renamed
    /// into place; a crash in between is safe either way, because
    /// replay skips frames below the snapshot's position.
    pub fn truncate_below(&self, cut_pos: u64) -> u64 {
        let Ok(segments) = list_segments(&self.inner.shared.dir) else { return 0 };
        let mut freed = 0u64;
        for pair in segments.windows(2) {
            // A segment's frames end where the next one begins: it is
            // fully covered iff its successor starts at or below the
            // cut. An unreadable successor header (the writer may be
            // mid-create) just means "don't delete yet" — the next
            // compaction will.
            let Some(next_first) = read_first_pos(&pair[1].1) else { continue };
            if next_first <= cut_pos {
                if let Ok(meta) = fs::metadata(&pair[0].1) {
                    if fs::remove_file(&pair[0].1).is_ok() {
                        freed += meta.len();
                    }
                }
            }
        }
        self.inner.compactions.inc();
        self.inner.shared.since_compaction.store(0, Ordering::SeqCst);
        freed
    }

    /// Journals one admission. Called by `Service::ingest` while the
    /// shard and placement locks are held, so the channel order
    /// agrees with the commit order.
    pub(crate) fn append_admit(&self, id: u64, shard: u32, v: &[f64]) {
        self.push(Msg::Admit { id, shard, v: v.to_vec() });
    }

    /// Journals one shard's drain (called under that shard's lock).
    pub(crate) fn append_apply(&self, shard: u32, upto: u64) {
        self.push(Msg::Apply { shard, upto });
    }

    /// Journals one shard's forced sweep (called under that shard's
    /// lock).
    pub(crate) fn append_sweep(&self, shard: u32, upto: u64) {
        self.push(Msg::Sweep { shard, upto });
    }

    fn push(&self, msg: Msg) {
        self.inner.appended.fetch_add(1, Ordering::SeqCst);
        let tx = self.inner.tx.lock().expect("journal tx");
        // A send can only fail once the writer died (I/O panic); the
        // frame is dropped and the lag surfaces on /healthz.
        let _ = tx.send(msg);
    }
}

/// 32-bit FNV-1a over `bytes` — the frame checksum. Hand-rolled (no
/// external crates) and byte-order independent.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal-{seq:08}"))
}

/// Every `journal-<seq>` file under `dir`, sorted by segment number.
fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name.strip_prefix("journal-").and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        out.push((seq, entry.path()));
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// The logical position of a segment's first frame, read from its
/// header; `None` when the header is short or malformed.
fn read_first_pos(path: &Path) -> Option<u64> {
    let mut file = File::open(path).ok()?;
    let mut hdr = [0u8; SEGMENT_HEADER_LEN];
    file.read_exact(&mut hdr).ok()?;
    if &hdr[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(hdr[8..12].try_into().ok()?) != SEGMENT_VERSION {
        return None;
    }
    Some(u64::from_le_bytes(hdr[12..20].try_into().ok()?))
}

/// The writer thread's open segment.
struct Seg {
    file: File,
    seq: u64,
    written: u64,
}

/// Fsyncs directory `dir`, making the entries created, renamed or
/// deleted in it so far survive a power loss (a file's own fsync does
/// not cover its directory entry).
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Creates `journal-<seq>` with its header durably on disk (file and
/// directory both fsynced, so a crash right after still lists it).
fn open_segment(dir: &Path, seq: u64, first_pos: u64) -> std::io::Result<Seg> {
    let mut file = File::create(segment_path(dir, seq))?;
    let mut hdr = Vec::with_capacity(SEGMENT_HEADER_LEN);
    hdr.extend_from_slice(SEGMENT_MAGIC);
    hdr.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    hdr.extend_from_slice(&first_pos.to_le_bytes());
    file.write_all(&hdr)?;
    file.sync_all()?;
    let _ = sync_dir(dir);
    Ok(Seg { file, seq, written: hdr.len() as u64 })
}

/// Appends one `[len][checksum][payload]` frame to the batch buffer.
fn encode_frame(buf: &mut Vec<u8>, payload: &Json) {
    let mut body = Vec::new();
    bin::encode_into(payload, &mut body);
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a32(&body).to_le_bytes());
    buf.extend_from_slice(&body);
}

/// Writes and fsyncs the accumulated batch, then publishes the new
/// durable position. One call per group commit: N queued mutations
/// cost one `write` + one `fsync`.
fn commit_batch(
    shared: &Shared,
    seg: &mut Seg,
    buf: &mut Vec<u8>,
    frames: &mut u64,
    pos: &mut u64,
) {
    if buf.is_empty() {
        return;
    }
    {
        let _fsync = shared.fsync_seconds.start_timer();
        seg.file.write_all(buf).expect("journal segment write");
        seg.file.sync_all().expect("journal segment fsync");
    }
    seg.written += buf.len() as u64;
    *pos += *frames;
    shared.appends.add(*frames);
    shared.bytes.add(buf.len() as u64);
    shared.since_compaction.fetch_add(buf.len() as u64, Ordering::SeqCst);
    shared.durable.store(*pos, Ordering::SeqCst);
    buf.clear();
    *frames = 0;
}

/// Closes the current segment and opens its successor, whose first
/// frame will be logical position `pos`.
fn next_segment(shared: &Shared, seg: Seg, pos: u64) -> Seg {
    let seq = seg.seq + 1;
    drop(seg);
    open_segment(&shared.dir, seq, pos).expect("journal segment rotate")
}

/// The group-commit writer loop: block on one message, drain
/// everything else queued, encode, write + fsync once, answer
/// barriers, rotate when the segment outgrows its bound.
fn writer_loop(shared: &Shared, rx: &Receiver<Msg>, mut seg: Seg, mut pos: u64) {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let Ok(first) = rx.recv() else { return };
        let mut batch = vec![first];
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        let mut frames = 0u64;
        let mut barriers: Vec<SyncSender<()>> = Vec::new();
        let mut shutdown = false;
        for msg in batch {
            let payload = match msg {
                Msg::Barrier(done) => {
                    barriers.push(done);
                    continue;
                }
                Msg::Shutdown => {
                    shutdown = true;
                    continue;
                }
                Msg::Rotate => {
                    // Frames queued before the rotation belong to the
                    // closing segment; land them first.
                    commit_batch(shared, &mut seg, &mut buf, &mut frames, &mut pos);
                    seg = next_segment(shared, seg, pos);
                    continue;
                }
                Msg::Admit { id, shard, v } => Json::object([
                    ("t", "a".to_json()),
                    ("id", Json::UInt(id)),
                    ("shard", Json::UInt(u64::from(shard))),
                    ("v", Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())),
                ]),
                Msg::Apply { shard, upto } => Json::object([
                    ("t", "d".to_json()),
                    ("shard", Json::UInt(u64::from(shard))),
                    ("upto", Json::UInt(upto)),
                ]),
                Msg::Sweep { shard, upto } => Json::object([
                    ("t", "s".to_json()),
                    ("shard", Json::UInt(u64::from(shard))),
                    ("upto", Json::UInt(upto)),
                ]),
            };
            encode_frame(&mut buf, &payload);
            frames += 1;
        }
        commit_batch(shared, &mut seg, &mut buf, &mut frames, &mut pos);
        if shared.compact_every > 0 && seg.written >= shared.compact_every {
            seg = next_segment(shared, seg, pos);
        }
        // Barriers answer only after the batch fsync above: an acked
        // barrier means every earlier frame is durable.
        for done in barriers {
            let _ = done.send(());
        }
        if shutdown {
            return;
        }
    }
}

fn corrupt(path: &Path, offset: u64, reason: impl Into<String>) -> JournalError {
    JournalError::Corrupt { segment: path.to_path_buf(), offset, reason: reason.into() }
}

/// Truncates `path` to `len` bytes and fsyncs — how recovery disposes
/// of a torn tail, so a second recovery sees a clean segment.
fn truncate_file(path: &Path, len: u64) -> Result<(), JournalError> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()?;
    Ok(())
}

fn frame_u64(frame: &Json, key: &str) -> Result<u64, String> {
    frame
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("frame field {key:?} missing or not an unsigned integer"))
}

/// Re-applies one decoded frame through the service's deterministic
/// mutation paths, validating that the replay lands exactly where the
/// live run did (same id, same shard, same item counts).
fn apply_frame(
    service: &Service,
    frame: &Json,
    segment: &Path,
    offset: u64,
) -> Result<(), JournalError> {
    let fail =
        |reason: String| JournalError::Replay { segment: segment.to_path_buf(), offset, reason };
    let t = frame
        .get("t")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("frame has no type tag".into()))?;
    let shard = frame_u64(frame, "shard").map_err(&fail)?;
    if shard as usize >= service.shard_count() {
        return Err(fail(format!(
            "frame names shard {shard}, service has {}",
            service.shard_count()
        )));
    }
    match t {
        "a" => {
            let id = frame_u64(frame, "id").map_err(&fail)?;
            let nums = frame
                .get("v")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail("admit frame has no vector".into()))?;
            let mut v = Vec::with_capacity(nums.len());
            for x in nums {
                v.push(
                    x.as_f64()
                        .ok_or_else(|| fail("admit vector has a non-numeric element".into()))?,
                );
            }
            if v.len() != service.config().dim {
                return Err(fail(format!(
                    "admit vector has {} dims, service expects {}",
                    v.len(),
                    service.config().dim
                )));
            }
            match service.ingest(&v) {
                Admission::Enqueued { id: got_id, shard: got_shard, .. }
                    if got_id == id && u64::from(got_shard) == shard =>
                {
                    Ok(())
                }
                Admission::Enqueued { id: got_id, shard: got_shard, .. } => Err(fail(format!(
                    "admit replayed as id {got_id} on shard {got_shard}, journal recorded id {id} on shard {shard}"
                ))),
                Admission::Busy { .. } => {
                    Err(fail("shard queue refused a replayed admission".into()))
                }
            }
        }
        "d" => {
            let upto = frame_u64(frame, "upto").map_err(&fail)?;
            service.replay_apply(shard as usize, upto).map(|_| ()).map_err(&fail)
        }
        "s" => {
            let upto = frame_u64(frame, "upto").map_err(&fail)?;
            service.replay_sweep(shard as usize, upto).map(|_| ()).map_err(&fail)
        }
        other => Err(fail(format!("unknown frame type {other:?}"))),
    }
}

/// Replays the journal in `cfg.dir` into `service` from logical
/// position `since_pos` (the restored snapshot's embedded position;
/// 0 for a fresh service), then opens a writer on a fresh segment and
/// returns the live [`Journal`].
///
/// Call *before* [`Service::set_journal`](crate::Service::set_journal)
/// — the service must not re-journal its own replay. Frames below
/// `since_pos` are skipped (already folded into the snapshot); a gap
/// above it is corruption. The returned journal's position continues
/// the logical count, so a later snapshot of the recovered service is
/// byte-identical to one of an uninterrupted run.
pub fn recover_and_open(
    cfg: JournalConfig,
    service: &Service,
    since_pos: u64,
) -> Result<Journal, JournalError> {
    fs::create_dir_all(&cfg.dir)?;
    let segments = list_segments(&cfg.dir)?;
    let mut last_seq = segments.last().map(|&(seq, _)| seq);
    let mut expected = since_pos;
    let n = segments.len();
    for (i, (_, path)) in segments.iter().enumerate() {
        let is_last = i + 1 == n;
        let bytes = fs::read(path)?;
        let header_ok = bytes.len() >= SEGMENT_HEADER_LEN
            && &bytes[..SEGMENT_MAGIC.len()] == SEGMENT_MAGIC
            && u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"))
                == SEGMENT_VERSION;
        if !header_ok {
            if is_last {
                // A crash between segment creation and the header
                // fsync: the file provably holds no acked frame
                // (barriers ack only after fsync), so drop it.
                fs::remove_file(path)?;
                last_seq = if i == 0 { None } else { Some(segments[i - 1].0) };
                break;
            }
            return Err(corrupt(path, 0, "bad or truncated segment header"));
        }
        let first_pos = u64::from_le_bytes(bytes[12..20].try_into().expect("8 header bytes"));
        if first_pos > expected {
            return Err(corrupt(
                path,
                12,
                format!("segment begins at frame {first_pos} but recovery is at frame {expected}"),
            ));
        }
        let mut posn = first_pos;
        let mut offset = SEGMENT_HEADER_LEN;
        while offset < bytes.len() {
            let remaining = bytes.len() - offset;
            if remaining < FRAME_HEADER_LEN {
                if is_last {
                    truncate_file(path, offset as u64)?;
                    break;
                }
                return Err(corrupt(path, offset as u64, "torn frame header"));
            }
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 len bytes"))
                as usize;
            let sum = u32::from_le_bytes(
                bytes[offset + 4..offset + 8].try_into().expect("4 checksum bytes"),
            );
            if remaining < FRAME_HEADER_LEN + len {
                if is_last {
                    truncate_file(path, offset as u64)?;
                    break;
                }
                return Err(corrupt(
                    path,
                    offset as u64,
                    format!("frame of {len} payload bytes torn at end of segment"),
                ));
            }
            let payload = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + len];
            if fnv1a32(payload) != sum {
                // A full-length frame with a bad checksum is bit rot
                // or tampering, not a torn append (group commits are
                // contiguous prefix writes) — refuse loudly.
                return Err(corrupt(path, offset as u64, "frame checksum mismatch"));
            }
            let frame = bin::decode(payload).map_err(|e| {
                corrupt(path, offset as u64, format!("frame payload undecodable: {e}"))
            })?;
            if posn == expected {
                apply_frame(service, &frame, path, offset as u64)?;
                expected += 1;
            } else if posn > expected {
                return Err(corrupt(
                    path,
                    offset as u64,
                    format!("frame {posn} but recovery is at frame {expected}"),
                ));
            }
            posn += 1;
            offset += FRAME_HEADER_LEN + len;
        }
    }
    let registry = service.metrics_registry();
    let shared = Arc::new(Shared {
        dir: cfg.dir.clone(),
        compact_every: cfg.compact_every,
        durable: AtomicU64::new(expected),
        since_compaction: AtomicU64::new(0),
        appends: registry.counter(
            "alid_service_journal_appends_total",
            "Mutation frames durably appended to the journal",
            &[],
        ),
        bytes: registry.counter(
            "alid_service_journal_bytes_total",
            "Bytes durably appended to journal segments",
            &[],
        ),
        fsync_seconds: registry.histogram(
            "alid_service_journal_fsync_seconds",
            "Wall time of one group-commit write+fsync batch",
            &[],
        ),
    });
    let compactions = registry.counter(
        "alid_service_journal_compactions_total",
        "Compactions folding closed journal segments into a snapshot",
        &[],
    );
    let seg = open_segment(&cfg.dir, last_seq.map_or(0, |s| s + 1), expected)?;
    let (tx, rx) = mpsc::channel();
    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("alid-journal-writer".into())
            .spawn(move || writer_loop(&shared, &rx, seg, expected))
            .map_err(JournalError::Io)?
    };
    Ok(Journal {
        inner: Arc::new(JournalInner {
            shared,
            compactions,
            tx: Mutex::new(tx),
            appended: AtomicU64::new(expected),
            writer: Mutex::new(Some(writer)),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Service, ServiceConfig};
    use crate::snapshot;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "alid-journal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("test dir");
        d
    }

    fn items(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| match i % 5 {
                0 | 1 => vec![(i % 7) as f64 * 0.03, 0.0],
                2 | 3 => vec![40.0 + (i % 7) as f64 * 0.03, 40.0],
                _ => vec![i as f64 * 17.0, -(i as f64) * 23.0],
            })
            .collect()
    }

    fn journaled_service(dir: &Path, shards: usize) -> Service {
        let cfg = ServiceConfig::new(2, shards, crate::service::tests::test_params()).with_batch(8);
        let mut svc = Service::new(cfg);
        let journal =
            recover_and_open(JournalConfig { dir: dir.to_path_buf(), compact_every: 0 }, &svc, 0)
                .expect("open journal");
        svc.set_journal(journal);
        svc
    }

    /// Drives a deterministic mutation history: ingest + drain +
    /// sweep over `n` items, then a few extra admissions left queued.
    fn run_history(svc: &Service, n: usize) {
        let data = items(n);
        for chunk in data.chunks(16) {
            svc.ingest_batch(chunk.iter().map(Vec::as_slice));
            svc.drain();
        }
        svc.sweep();
        for v in items(5) {
            svc.ingest(&v);
        }
    }

    #[test]
    fn fnv1a32_matches_reference_vectors() {
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn replay_reproduces_the_run_bit_for_bit() {
        let dir = temp_dir("replay");
        let live = journaled_service(&dir, 3);
        run_history(&live, 50);
        live.journal().expect("journal attached").barrier();
        let live_bytes = snapshot::snapshot_bytes(&live);
        drop(live); // shuts the writer down cleanly

        let cfg = ServiceConfig::new(2, 3, crate::service::tests::test_params()).with_batch(8);
        let mut fresh = Service::new(cfg);
        let journal =
            recover_and_open(JournalConfig { dir: dir.clone(), compact_every: 0 }, &fresh, 0)
                .expect("recover");
        fresh.set_journal(journal);
        assert_eq!(
            live_bytes,
            snapshot::snapshot_bytes(&fresh),
            "journal replay must reproduce the uninterrupted run byte for byte"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Segments written when sweep frames still carried a `freed` field
    /// replay exactly like current ones.
    #[test]
    fn sweep_frames_with_the_dropped_freed_field_still_replay() {
        let dir = temp_dir("freed");
        let live = journaled_service(&dir, 2);
        run_history(&live, 30);
        live.journal().expect("journal attached").barrier();
        let live_bytes = snapshot::snapshot_bytes(&live);
        drop(live);
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).expect("segment");
        let mut rewritten = bytes[..SEGMENT_HEADER_LEN].to_vec();
        let mut offset = SEGMENT_HEADER_LEN;
        let mut sweeps = 0;
        while offset < bytes.len() {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("len"));
            let start = offset + FRAME_HEADER_LEN;
            let Json::Obj(mut frame) =
                bin::decode(&bytes[start..start + len as usize]).expect("frame decodes")
            else {
                panic!("frame is not an object")
            };
            if frame.iter().any(|(k, v)| k == "t" && v.as_str() == Some("s")) {
                frame.push(("freed".into(), Json::UInt(0)));
                sweeps += 1;
            }
            encode_frame(&mut rewritten, &Json::Obj(frame));
            offset = start + len as usize;
        }
        assert!(sweeps > 0, "the history must journal a sweep");
        fs::write(&seg, &rewritten).expect("rewrite");
        let fresh = journaled_service(&dir, 2);
        assert_eq!(live_bytes, snapshot::snapshot_bytes(&fresh));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_to_the_last_complete_frame_and_truncates() {
        let dir = temp_dir("torn");
        let live = journaled_service(&dir, 1);
        let data = items(8);
        for v in &data {
            live.ingest(v);
        }
        live.journal().expect("journal").barrier();
        drop(live);
        // Tear the final frame: chop a few bytes off the only segment.
        let seg = segment_path(&dir, 0);
        let full = fs::metadata(&seg).expect("segment").len();
        truncate_file(&seg, full - 3).expect("tear");

        let fresh = journaled_service(&dir, 1);
        assert_eq!(fresh.len(), data.len() - 1, "recovery stops at the last complete frame");
        assert!(
            fs::metadata(&seg).expect("segment").len() < full - 3,
            "the torn bytes must be truncated away"
        );
        drop(fresh);
        // A second recovery sees a clean (now non-last) segment.
        let again = journaled_service(&dir, 1);
        assert_eq!(again.len(), data.len() - 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_corruption_is_a_positioned_error() {
        let dir = temp_dir("corrupt");
        let live = journaled_service(&dir, 1);
        for v in items(4) {
            live.ingest(&v);
        }
        live.journal().expect("journal").barrier();
        drop(live);
        // Flip one payload byte of the first frame.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).expect("segment");
        bytes[SEGMENT_HEADER_LEN + FRAME_HEADER_LEN + 2] ^= 0xff;
        fs::write(&seg, &bytes).expect("rewrite");

        let cfg = ServiceConfig::new(2, 1, crate::service::tests::test_params()).with_batch(8);
        let fresh = Service::new(cfg);
        let err = recover_and_open(JournalConfig { dir: dir.clone(), compact_every: 0 }, &fresh, 0)
            .expect_err("corruption must refuse recovery");
        match err {
            JournalError::Corrupt { segment, offset, reason } => {
                assert_eq!(segment, seg);
                assert_eq!(offset, SEGMENT_HEADER_LEN as u64);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_truncation_free_covered_segments() {
        let dir = temp_dir("truncate");
        let live = journaled_service(&dir, 2);
        for v in items(20) {
            live.ingest(&v);
        }
        live.drain();
        let journal = live.journal().expect("journal").clone();
        journal.barrier();
        let cut = journal.rotate_for_cut();
        assert!(cut > 0);
        journal.barrier(); // writer has processed the rotation
        let freed = journal.truncate_below(cut);
        assert!(freed > 0, "the closed segment must be deleted");
        let segs = list_segments(&dir).expect("list");
        assert!(
            segs.iter().all(|&(seq, _)| seq >= 1),
            "segment 0 was covered by the cut: {segs:?}"
        );
        drop(live);
        // Recovery from the cut position finds nothing left to replay.
        let cfg = ServiceConfig::new(2, 2, crate::service::tests::test_params()).with_batch(8);
        let fresh = Service::new(cfg);
        let journal =
            recover_and_open(JournalConfig { dir: dir.clone(), compact_every: 0 }, &fresh, cut)
                .expect("recover past the cut");
        assert_eq!(fresh.len(), 0, "all frames below the cut are skipped");
        assert_eq!(journal.appended(), cut, "the logical position continues");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn barrier_makes_appends_durable_and_lag_zero() {
        let dir = temp_dir("barrier");
        let live = journaled_service(&dir, 1);
        for v in items(10) {
            live.ingest(&v);
        }
        let journal = live.journal().expect("journal");
        journal.barrier();
        assert_eq!(journal.appended(), 10);
        assert_eq!(journal.durable(), 10);
        assert_eq!(journal.lag(), 0);
        let text = live.metrics_registry().render_prometheus();
        assert!(
            text.contains("alid_service_journal_appends_total 10"),
            "journal series must render: {text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gap_between_snapshot_and_journal_is_refused() {
        let dir = temp_dir("gap");
        let live = journaled_service(&dir, 1);
        for v in items(6) {
            live.ingest(&v);
        }
        live.journal().expect("journal").barrier();
        drop(live);
        // Claim the snapshot is *behind* the journal's start: frames
        // 0.. exist but recovery expects to begin past them — fine.
        // The reverse (journal starts after the snapshot) must fail.
        fs::remove_file(segment_path(&dir, 0)).expect("drop segment 0");
        // Re-create a later segment only.
        let live2 = {
            let cfg = ServiceConfig::new(2, 1, crate::service::tests::test_params()).with_batch(8);
            let svc = Service::new(cfg);
            // Opening against the now-empty dir at position 0 creates
            // a fresh segment claiming first_pos 0 — drop it and
            // hand-craft one starting at 4 instead.
            drop(recover_and_open(JournalConfig { dir: dir.clone(), compact_every: 0 }, &svc, 0));
            svc
        };
        drop(live2);
        for (_, p) in list_segments(&dir).expect("list") {
            fs::remove_file(p).expect("clean");
        }
        drop(open_segment(&dir, 7, 4).expect("hand-made segment"));
        // Write one complete frame at position 4 so the segment is
        // non-empty and recovery must confront the gap.
        let mut frame = Vec::new();
        encode_frame(&mut frame, &Json::object([("t", "d".to_json())]));
        let mut f = OpenOptions::new().append(true).open(segment_path(&dir, 7)).expect("open");
        f.write_all(&frame).expect("frame");
        drop(f);
        let cfg = ServiceConfig::new(2, 1, crate::service::tests::test_params()).with_batch(8);
        let fresh = Service::new(cfg);
        let err = recover_and_open(JournalConfig { dir: dir.clone(), compact_every: 0 }, &fresh, 0)
            .expect_err("a position gap must refuse recovery");
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
