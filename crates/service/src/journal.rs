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
//! ephemeral and stay out. Because every frame is appended while its
//! mutation's commit lock is held, the pending list's order *is* a
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
//! Appenders never touch the file: under their commit locks they bump
//! the logical position and push the frame onto an in-memory list.
//! [`Journal::barrier`] — run by every HTTP path that acknowledges a
//! mutation, by the snapshot writer and on drop — encodes, writes and
//! fsyncs the whole list on the caller's thread: **one** `write` + one
//! `fsync` per segment touched, shared by every concurrent barrier.
//! Nothing reaches disk in the background. The first I/O error stops
//! the journal: every later barrier fails too (HTTP ingest answers 500,
//! never an undurable 200), appends drop their frames, and `/healthz`
//! shows the growing `appended - durable` lag — detection itself never
//! stops.
//!
//! # Compaction
//!
//! The snapshot codec captures the cut position while it still holds
//! every service lock (see `Journal::rotate_for_cut`); the next flush
//! opens a fresh segment there. Once the snapshot is durably on disk,
//! [`Journal::truncate_below`] deletes every closed segment whose
//! frames all lie below the cut. A crash between the snapshot rename
//! and the truncation is safe: replay skips frames below the
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
    /// Segment size threshold in bytes: a flush rotates to a fresh
    /// segment once the current one reaches it, and the HTTP front
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

/// One journaled mutation, captured under its commit lock and encoded
/// by the next flush.
enum Frame {
    Admit { id: u64, shard: u32, v: Vec<f64> },
    Apply { shard: u32, upto: u64 },
    Sweep { shard: u32, upto: u64 },
}

impl Frame {
    fn payload(&self) -> Json {
        match self {
            Frame::Admit { id, shard, v } => Json::object([
                ("t", "a".to_json()),
                ("id", Json::UInt(*id)),
                ("shard", Json::UInt(u64::from(*shard))),
                ("v", Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())),
            ]),
            Frame::Apply { shard, upto } => Json::object([
                ("t", "d".to_json()),
                ("shard", Json::UInt(u64::from(*shard))),
                ("upto", Json::UInt(*upto)),
            ]),
            Frame::Sweep { shard, upto } => Json::object([
                ("t", "s".to_json()),
                ("shard", Json::UInt(u64::from(*shard))),
                ("upto", Json::UInt(*upto)),
            ]),
        }
    }
}

/// What appenders hand the next flush. Its lock is taken under the
/// commit locks, so nothing under it encodes or does I/O.
struct Pending {
    /// Unflushed frames, in commit order.
    frames: Vec<Frame>,
    /// Frames appended since the service's birth — the logical
    /// position, exact under `lock_all` (appends hold a commit lock).
    appended: u64,
    /// Logical positions where a snapshot asked for a segment
    /// boundary, ascending.
    cuts: Vec<u64>,
    /// The first I/O error, which stopped the journal: from then on
    /// appends only count.
    failed: Option<String>,
}

/// The flush side: held for the whole of one flush, so concurrent
/// barriers serialise their segment I/O.
struct Writer {
    seg: Seg,
    /// Logical position after the last fsynced frame.
    pos: u64,
}

/// Handle to a live journal, owned by the [`Service`] (which appends)
/// and reached by the HTTP front end through
/// [`Service::journal`](crate::Service::journal) (which barriers,
/// compacts, and reports lag).
pub struct Journal {
    dir: PathBuf,
    compact_every: u64,
    pending: Mutex<Pending>,
    writer: Mutex<Writer>,
    /// `Writer::pos`, readable without waiting for a flush.
    durable: AtomicU64,
    /// Journal bytes written since the last compaction — the
    /// auto-compaction trigger.
    since_compaction: AtomicU64,
    appends: Arc<alid_obs::Counter>,
    bytes: Arc<alid_obs::Counter>,
    fsync_seconds: Arc<alid_obs::Histogram>,
    compactions: Arc<alid_obs::Counter>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("appended", &self.appended())
            .field("durable", &self.durable())
            .finish()
    }
}

impl Drop for Journal {
    /// Flushes what is still pending, best effort. A lock poisoned by
    /// an earlier panic skips the flush, so dropping never panics.
    fn drop(&mut self) {
        if !self.writer.is_poisoned() && !self.pending.is_poisoned() {
            let _ = self.barrier();
        }
    }
}

impl Journal {
    /// Frames appended since the service's birth (the logical
    /// position; includes frames not yet fsynced).
    pub fn appended(&self) -> u64 {
        self.pending.lock().expect("journal pending").appended
    }

    /// Frames durably fsynced to disk.
    pub fn durable(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// Appended-but-not-yet-fsynced frames — the durability lag
    /// `/healthz` reports.
    pub fn lag(&self) -> u64 {
        self.appended().saturating_sub(self.durable())
    }

    /// Writes and fsyncs every frame appended before this call, on the
    /// caller's thread, opening a fresh segment at each pending
    /// snapshot cut and once a segment reaches `compact_every`.
    /// Concurrent barriers serialise on the writer lock; one that
    /// waited finds its frames already flushed by the barrier ahead
    /// of it, so they share one fsync.
    ///
    /// # Errors
    /// The I/O error of a failed write, fsync or segment creation. The
    /// first one stops the journal: every later barrier fails with an
    /// error naming it, and appends keep counting positions but drop
    /// their frames.
    pub fn barrier(&self) -> std::io::Result<()> {
        let mut w = self.writer.lock().expect("journal writer");
        // alid-lint: allow(block-under-lock) -- the writer lock exists to serialise segment I/O; no commit path takes it, so only concurrent barriers wait here
        let flushed = self.write_pending(&mut w);
        if let Err(e) = &flushed {
            let mut p = self.pending.lock().expect("journal pending");
            p.failed.get_or_insert_with(|| e.to_string());
            p.frames.clear();
            p.cuts.clear();
        }
        flushed
    }

    /// Takes every pending frame and cut and writes the frames (the
    /// positions from `w.pos` on), opening the next segment at each
    /// cut: its first position is the cut, so the segments below it
    /// become deletable.
    fn write_pending(&self, w: &mut Writer) -> std::io::Result<()> {
        let (frames, cuts) = {
            let mut p = self.pending.lock().expect("journal pending");
            if let Some(reason) = &p.failed {
                let reason = format!("journal stopped by an earlier I/O error: {reason}");
                return Err(std::io::Error::other(reason));
            }
            (std::mem::take(&mut p.frames), std::mem::take(&mut p.cuts))
        };
        let mut frames = frames.into_iter();
        for cut in cuts {
            let below = cut.saturating_sub(w.pos) as usize;
            self.write_frames(w, frames.by_ref().take(below))?;
            w.seg = open_segment(&self.dir, w.seg.seq + 1, w.pos)?;
        }
        self.write_frames(w, frames)
    }

    /// Appends `frames` to the open segment with one `write` and one
    /// `fsync` — first rotating to a fresh segment if this one has
    /// reached `compact_every` — then publishes the durable position.
    fn write_frames(
        &self,
        w: &mut Writer,
        frames: impl Iterator<Item = Frame>,
    ) -> std::io::Result<()> {
        let mut buf = Vec::new();
        let mut n = 0u64;
        for frame in frames {
            encode_frame(&mut buf, &frame.payload());
            n += 1;
        }
        if n == 0 {
            return Ok(());
        }
        if self.compact_every > 0 && w.seg.written >= self.compact_every {
            w.seg = open_segment(&self.dir, w.seg.seq + 1, w.pos)?;
        }
        {
            let _fsync = self.fsync_seconds.start_timer();
            w.seg.file.write_all(&buf)?;
            w.seg.file.sync_all()?;
        }
        w.seg.written += buf.len() as u64;
        w.pos += n;
        self.appends.add(n);
        self.bytes.add(buf.len() as u64);
        self.since_compaction.fetch_add(buf.len() as u64, Ordering::SeqCst);
        self.durable.store(w.pos, Ordering::SeqCst);
        Ok(())
    }

    /// Whether enough journal bytes accumulated since the last
    /// compaction to warrant folding them into a snapshot (the HTTP
    /// ingest path's auto-compaction trigger; always `false` when
    /// `compact_every` is 0).
    pub fn needs_compaction(&self) -> bool {
        self.compact_every > 0 && self.since_compaction.load(Ordering::SeqCst) >= self.compact_every
    }

    /// Captures the snapshot cut: the exact logical position the
    /// snapshot covers, recorded as a segment boundary for the next
    /// flush (making the covered segments deletable by
    /// [`Self::truncate_below`]).
    ///
    /// Must be called while the caller holds the service's `lock_all`
    /// cut: every append happens under a shard lock, so no append can
    /// be in flight and the position read is exact. Does no I/O, which
    /// would block under every service lock.
    pub(crate) fn rotate_for_cut(&self) -> u64 {
        let mut p = self.pending.lock().expect("journal pending");
        let cut = p.appended;
        if p.failed.is_none() {
            p.cuts.push(cut);
        }
        cut
    }

    /// Deletes every closed segment whose frames all lie below
    /// `cut_pos` (covered by the snapshot just written) and returns
    /// the bytes freed. The newest segment is never touched — the
    /// next flush appends to it. Call after the snapshot is durably
    /// renamed into place and a barrier has flushed past the cut; a
    /// crash in between is safe either way, because replay skips
    /// frames below the snapshot's position.
    pub fn truncate_below(&self, cut_pos: u64) -> u64 {
        let Ok(segments) = list_segments(&self.dir) else { return 0 };
        let mut freed = 0u64;
        for pair in segments.windows(2) {
            // A segment's frames end where the next one begins: it is
            // fully covered iff its successor starts at or below the
            // cut. An unreadable successor header (a flush may be
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
        self.compactions.inc();
        self.since_compaction.store(0, Ordering::SeqCst);
        freed
    }

    /// Journals one admission. Called by `Service::ingest` while the
    /// shard and placement locks are held, so the pending order
    /// agrees with the commit order.
    pub(crate) fn append_admit(&self, id: u64, shard: u32, v: &[f64]) {
        self.push(Frame::Admit { id, shard, v: v.to_vec() });
    }

    /// Journals one shard's drain (called under that shard's lock).
    pub(crate) fn append_apply(&self, shard: u32, upto: u64) {
        self.push(Frame::Apply { shard, upto });
    }

    /// Journals one shard's forced sweep (called under that shard's
    /// lock).
    pub(crate) fn append_sweep(&self, shard: u32, upto: u64) {
        self.push(Frame::Sweep { shard, upto });
    }

    fn push(&self, frame: Frame) {
        let mut p = self.pending.lock().expect("journal pending");
        p.appended += 1;
        // Once stopped, the frame is dropped; /healthz shows the lag.
        if p.failed.is_none() {
            p.frames.push(frame);
        }
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

/// The open segment a flush appends to.
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
            service.replay_apply(shard as usize, upto).map_err(&fail)
        }
        "s" => {
            let upto = frame_u64(frame, "upto").map_err(&fail)?;
            service.replay_sweep(shard as usize, upto).map_err(&fail)
        }
        other => Err(fail(format!("unknown frame type {other:?}"))),
    }
}

/// Replays the journal in `cfg.dir` into `service` from logical
/// position `since_pos` (the restored snapshot's embedded position;
/// 0 for a fresh service), then opens a fresh segment and returns the
/// live [`Journal`].
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
    let seg = open_segment(&cfg.dir, last_seq.map_or(0, |s| s + 1), expected)?;
    Ok(Journal {
        dir: cfg.dir,
        compact_every: cfg.compact_every,
        pending: Mutex::new(Pending {
            frames: Vec::new(),
            appended: expected,
            cuts: Vec::new(),
            failed: None,
        }),
        writer: Mutex::new(Writer { seg, pos: expected }),
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
        compactions: registry.counter(
            "alid_service_journal_compactions_total",
            "Compactions folding closed journal segments into a snapshot",
            &[],
        ),
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
        live.journal().expect("journal attached").barrier().expect("flush");
        let live_bytes = snapshot::snapshot_bytes(&live);
        drop(live); // flushes and closes the journal

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
        live.journal().expect("journal attached").barrier().expect("flush");
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
        live.journal().expect("journal").barrier().expect("flush");
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
        live.journal().expect("journal").barrier().expect("flush");
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
        let journal = live.journal().expect("journal");
        journal.barrier().expect("flush");
        let cut = journal.rotate_for_cut();
        assert!(cut > 0);
        journal.barrier().expect("flush"); // the flush has rotated at the cut
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
        journal.barrier().expect("flush");
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
        live.journal().expect("journal").barrier().expect("flush");
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

    /// Recovers a two-shard service from `segment`, written as the only
    /// segment of a directory of its own (recovery truncates torn tails
    /// in place), and returns the recovered state: its snapshot bytes
    /// and the journal's logical position.
    fn recover_segment(segment: &[u8]) -> Result<(Vec<u8>, u64), JournalError> {
        let dir = temp_dir("trial");
        fs::write(segment_path(&dir, 0), segment).expect("write the trial segment");
        let cfg = ServiceConfig::new(2, 2, crate::service::tests::test_params()).with_batch(8);
        let svc = Service::new(cfg);
        let state = recover_and_open(JournalConfig { dir: dir.clone(), compact_every: 0 }, &svc, 0)
            .map(|journal| (snapshot::snapshot_bytes(&svc), journal.appended()));
        let _ = fs::remove_dir_all(&dir);
        state
    }

    /// The corruption matrix: a recorded segment holding all three
    /// frame kinds, cut at every byte offset and with one bit flipped
    /// at every byte offset. A cut recovers to the last complete frame;
    /// a flip is refused with a positioned error or recovers a prefix
    /// of the recorded history; no trial panics.
    #[test]
    fn every_truncation_and_bit_flip_recovers_a_prefix_or_is_refused() {
        let dir = temp_dir("matrix");
        let live = journaled_service(&dir, 2);
        for chunk in items(8).chunks(4) {
            live.ingest_batch(chunk.iter().map(Vec::as_slice));
            live.drain();
        }
        live.sweep();
        for v in items(2) {
            live.ingest(&v);
        }
        drop(live);
        let segment = fs::read(segment_path(&dir, 0)).expect("segment");
        let _ = fs::remove_dir_all(&dir);

        // The oracle: the state recovered at each frame boundary.
        let mut bounds = vec![SEGMENT_HEADER_LEN];
        let mut kinds = Vec::new();
        let mut end = SEGMENT_HEADER_LEN;
        while end < segment.len() {
            let len = u32::from_le_bytes(segment[end..end + 4].try_into().expect("len")) as usize;
            let payload = &segment[end + FRAME_HEADER_LEN..end + FRAME_HEADER_LEN + len];
            let frame = bin::decode(payload).expect("recorded frame decodes");
            kinds.push(frame.get("t").and_then(Json::as_str).expect("type tag").to_string());
            end += FRAME_HEADER_LEN + len;
            bounds.push(end);
        }
        assert_eq!(end, segment.len(), "the recorded segment ends on a frame boundary");
        for kind in ["a", "d", "s"] {
            assert!(kinds.iter().any(|k| k == kind), "no {kind:?} frame in {kinds:?}");
        }
        let prefixes: Vec<(Vec<u8>, u64)> = bounds
            .iter()
            .map(|&b| recover_segment(&segment[..b]).expect("a frame boundary recovers"))
            .collect();
        for (frames, (_, pos)) in prefixes.iter().enumerate() {
            assert_eq!(*pos, frames as u64);
        }

        for cut in 0..=segment.len() {
            // A cut inside the header drops the segment: zero frames.
            let complete = bounds.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            let state = recover_segment(&segment[..cut])
                .unwrap_or_else(|e| panic!("a cut at byte {cut} must recover: {e}"));
            assert!(
                state == prefixes[complete],
                "a cut at byte {cut} must recover {complete} frames"
            );
        }
        for offset in 0..segment.len() {
            let mut flipped = segment.clone();
            flipped[offset] ^= 1 << (offset % 8);
            match recover_segment(&flipped) {
                Ok(state) => assert!(
                    prefixes.contains(&state),
                    "a flip at byte {offset} recovered a state off the recorded history"
                ),
                Err(JournalError::Corrupt { .. } | JournalError::Replay { .. }) => {}
                Err(e) => panic!("a flip at byte {offset} must not fail with {e}"),
            }
        }
    }
}
