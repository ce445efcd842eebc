//! The engine store manifest: one versioned, checksummed file that makes
//! a spill directory **reopenable**.
//!
//! The shard spill files (`logr-cluster::spill`) hold the history's
//! pairwise mismatch structure, but on their own a directory of them is
//! not a resumable engine: nothing records the stream configuration, the
//! absorbed history log (codebook + distinct vectors + multiplicities),
//! the drift-baseline rotation, the partially-filled window buffer, or
//! which files belong to the checkpoint in which order. The manifest
//! stores exactly that — every bit of [`logr_core::StreamState`] plus the
//! ordered shard-file list — so [`crate::Engine::open`] rebuilds a
//! summarizer that continues **bit-identically** from where the persisted
//! one stopped.
//!
//! # Format (version 3, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! ──────  ────  ──────────────────────────────────────────────────────
//!      0  8     magic  b"LOGRMNFT"
//!      8  4     version (u32, = 3)
//!     12  …     body (see below)
//!  end−8  8     checksum: FNV-1a 64 over bytes [8, end−8)
//! ```
//!
//! Body, in order: the stream configuration (ending with the source
//! configuration — a tag byte, plus the template-miner knobs when the
//! source is `Template`), the resident budget, the scalar stream
//! state, the window buffer and pending statements (raw record text),
//! the baseline rotation and materialized baseline, the history log, the
//! featurizer journal (`u64` length + bytes), and the
//! shard chain (universe width, total points, ordered file names
//! relative to the store directory). Strings are `u64` length + UTF-8;
//! optional integers are a presence byte + value; query logs store their
//! universe width, codebook (class tag + text, in id order) and entries
//! (sorted id list + multiplicity, in insertion order) — enough to
//! reproduce interning order, and therefore every downstream bit.
//!
//! Readers validate in order — length floor, magic, **version** (a
//! manifest in any other format version is refused before its bytes are
//! interpreted), checksum, then structure — so every way the file can be
//! wrong maps to one typed [`Error`] variant and decoding never panics.
//!
//! # The delta log (`engine.delta`)
//!
//! Rewriting the full manifest at every window close costs
//! `O(history)`; the delta log makes the close path `O(window)`. Each
//! window close appends one self-checksummed [`DeltaRecord`] — the
//! post-close scalars, window buffer, pending statements, the closed
//! window's stride log (the increment `history.absorb`ed *and* the input
//! the baseline rotation replays, with its weight and exclusion span),
//! and the shard files added by that close — to an append-only log
//! **bound to one exact base manifest** by the base's trailing checksum
//! and byte length (header fields). Recovery reads the base, then
//! replays every valid record in sequence; a log whose binding does not
//! match the current base is stale (a full rewrite superseded it) and is
//! ignored, then swept by the next writable resume's GC.
//!
//! ```text
//! header:  magic b"LOGRDLTA" · version u32 · base checksum u64 ·
//!          base length u64 · FNV-1a 64 over bytes [8, 28)
//! record:  payload length u64 · payload · FNV-1a 64 over the payload
//! ```
//!
//! Commit protocol: the first record is written together with the header
//! as one file creation (truncating any stale predecessor), fsynced,
//! and the directory synced; every later record is a single
//! [`Vfs::append`] followed by an fsync — no rename, because the log is
//! never replaced, only extended. Replay stops at the first torn or
//! checksum-invalid frame: a torn tail is an unacknowledged close (the
//! ingest call that wrote it never returned), exactly like a torn
//! manifest rename under the full-rewrite protocol. A checksum-*valid*
//! record that is structurally wrong (bad sequence number, malformed
//! body) is a typed [`Error::CorruptManifest`] — that is tampering or a
//! writer bug, never a crash artifact, and must be loud.
//!
//! Readers accept exactly the versions this build writes — manifest
//! [`VERSION`] and delta-log [`DELTA_VERSION`]; any other version is
//! [`Error::ManifestVersion`]. (Manifest version 3 and delta-log version
//! 2 added the pluggable-source fields: the source configuration, the
//! featurizer journal, and each close's journal increment.)

use crate::error::Error;
use logr_cluster::spill::fnv1a64;
use logr_cluster::vfs::{retry_io, RealFs, Vfs};
use logr_cluster::Distance;
use logr_core::{
    rotate_baseline, SourceConfig, StreamConfig, StreamState, TemplateConfig, TimeWindows,
};
use logr_feature::{Feature, FeatureClass, FeatureId, QueryLog, QueryVector};
use std::collections::VecDeque;
use std::path::Path;

/// File name of the manifest inside an engine store directory.
pub const FILE_NAME: &str = "engine.manifest";

/// First 8 bytes of every manifest.
pub const MAGIC: [u8; 8] = *b"LOGRMNFT";

/// Format version this build writes and the only one it reads.
pub const VERSION: u32 = 3;

/// Everything needed to reopen an engine (see the module docs).
#[derive(Debug, Clone)]
pub struct Manifest {
    /// The stream configuration in force when the checkpoint was taken.
    pub config: StreamConfig,
    /// The resident shard budget in force.
    pub resident_budget: usize,
    /// The summarizer's resumable state.
    pub state: StreamState,
    /// Feature-universe width of the shard set at checkpoint.
    pub n_features: usize,
    /// Total points across the shard chain (cross-check for the files).
    pub total_points: usize,
    /// Shard file names in chain order, relative to the store directory.
    pub shard_files: Vec<String>,
}

/// Serialize a manifest to its wire form.
pub fn encode(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());

    put_config(&mut out, &m.config);
    put_u64(&mut out, m.resident_budget as u64);

    put_u64(&mut out, m.state.windows_closed as u64);
    put_u64(&mut out, m.state.since_close);
    put_u64(&mut out, m.state.last_ts_ms);
    put_opt_u64(&mut out, m.state.next_close_ms);
    put_u64(&mut out, m.state.statements_parsed);

    put_u64(&mut out, m.state.buffer.len() as u64);
    for (sql, count, ts) in &m.state.buffer {
        put_str(&mut out, sql);
        put_u64(&mut out, *count);
        put_u64(&mut out, *ts);
    }
    put_u64(&mut out, m.state.pending.len() as u64);
    for (sql, count) in &m.state.pending {
        put_str(&mut out, sql);
        put_u64(&mut out, *count);
    }
    put_u64(&mut out, m.state.baseline_logs.len() as u64);
    for (log, offered) in &m.state.baseline_logs {
        put_log(&mut out, log);
        put_u64(&mut out, *offered);
    }
    put_log(&mut out, &m.state.baseline);
    put_log(&mut out, &m.state.history);
    put_bytes(&mut out, &m.state.source_state);

    put_u64(&mut out, m.n_features as u64);
    put_u64(&mut out, m.total_points as u64);
    put_u64(&mut out, m.shard_files.len() as u64);
    for name in &m.shard_files {
        put_str(&mut out, name);
    }

    let checksum = fnv1a64(&out[8..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decode and validate a manifest's wire form (see the module docs for
/// the validation order). Never panics.
pub fn decode(bytes: &[u8]) -> Result<Manifest, Error> {
    if bytes.len() < 8 + 4 + 8 {
        return Err(corrupt("shorter than magic + version + checksum"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("bad magic (not an engine manifest)"));
    }
    let mut version_le = [0u8; 4];
    version_le.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(version_le);
    if version != VERSION {
        return Err(Error::ManifestVersion { found: version, supported: VERSION });
    }
    let mut stored_le = [0u8; 8];
    stored_le.copy_from_slice(&bytes[bytes.len() - 8..]);
    let stored = u64::from_le_bytes(stored_le);
    let computed = fnv1a64(&bytes[8..bytes.len() - 8]);
    if stored != computed {
        return Err(Error::CorruptManifest {
            detail: format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
        });
    }

    let mut r = Reader { bytes: &bytes[12..bytes.len() - 8] };
    let config = get_config(&mut r)?;
    let resident_budget = get_usize(&mut r, "resident budget")?;

    let windows_closed = get_usize(&mut r, "windows closed")?;
    let since_close = r.u64("since-close counter")?;
    let last_ts_ms = r.u64("last timestamp")?;
    let next_close_ms = get_opt_u64(&mut r, "next close boundary")?;
    let statements_parsed = r.u64("parse counter")?;

    let n = get_len(&mut r, "buffer length")?;
    let mut buffer = Vec::with_capacity(n);
    for _ in 0..n {
        let sql = r.str("buffered statement")?;
        let count = r.u64("buffered multiplicity")?;
        let ts = r.u64("buffered timestamp")?;
        buffer.push((sql, count, ts));
    }
    let n = get_len(&mut r, "pending length")?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        let sql = r.str("pending statement")?;
        let count = r.u64("pending multiplicity")?;
        pending.push((sql, count));
    }
    let n = get_len(&mut r, "baseline rotation length")?;
    let mut baseline_logs = Vec::with_capacity(n);
    for _ in 0..n {
        let log = get_log(&mut r)?;
        let offered = r.u64("baseline stride size")?;
        baseline_logs.push((log, offered));
    }
    let baseline = get_log(&mut r)?;
    let history = get_log(&mut r)?;
    let source_state = get_bytes(&mut r, "featurizer journal")?;

    let n_features = get_usize(&mut r, "shard universe width")?;
    let total_points = get_usize(&mut r, "shard point total")?;
    let n = get_len(&mut r, "shard file count")?;
    let mut shard_files = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("shard file name")?;
        // File names are interpreted relative to the store directory; a
        // name that escapes it (separator or parent component) cannot
        // come from our writer.
        if name.is_empty() || name.contains(['/', '\\']) || name == ".." {
            return Err(corrupt("shard file name escapes the store directory"));
        }
        shard_files.push(name);
    }
    if !r.bytes.is_empty() {
        return Err(corrupt("trailing bytes after the shard file list"));
    }

    Ok(Manifest {
        config,
        resident_budget,
        state: StreamState {
            buffer,
            pending,
            since_close,
            next_close_ms,
            last_ts_ms,
            windows_closed,
            statements_parsed,
            baseline_logs,
            baseline,
            history,
            source_state,
        },
        n_features,
        total_points,
        shard_files,
    })
}

/// Atomically and durably write a manifest to `path`: write a `.tmp`
/// sibling, **fsync it**, rename over the target, then fsync the
/// directory. The manifest is the store's single recovery root (shard
/// files are write-once under fresh names, so an old manifest always
/// points at intact files — but a replaced manifest is gone), which is
/// why the fsyncs matter: without them a power loss shortly after the
/// rename can leave a zero-length manifest on journaled filesystems
/// with delayed allocation, and with them a crash at any point leaves
/// either the previous checkpoint or the new one.
pub fn write_file(path: &Path, m: &Manifest) -> Result<(), Error> {
    write_file_with(&RealFs, path, m)
}

/// [`write_file`] with every file operation routed through `vfs`.
/// Transient errors (`EINTR`/`EAGAIN`) are retried with bounded backoff
/// at each step; any other failure — `ENOSPC` included — aborts with the
/// `.tmp` sibling swept, leaving the previous manifest untouched (the
/// store stays openable at its last durable checkpoint).
pub fn write_file_with(vfs: &dyn Vfs, path: &Path, m: &Manifest) -> Result<(), Error> {
    write_bytes_with(vfs, path, &encode(m))
}

/// [`write_file_with`] that also opens a fresh [`DeltaLog`] session bound
/// to the just-written base — the one encode pass serves both the file
/// and the binding, so full persists never hash the manifest twice.
pub fn write_base_with(vfs: &dyn Vfs, path: &Path, m: &Manifest) -> Result<DeltaLog, Error> {
    let bytes = encode(m);
    write_bytes_with(vfs, path, &bytes)?;
    Ok(DeltaLog::for_base_bytes(&bytes))
}

fn write_bytes_with(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), Error> {
    let tmp = path.with_extension("tmp");
    let write_sync_rename = (|| {
        retry_io(|| vfs.write(&tmp, bytes))?;
        retry_io(|| vfs.fsync(&tmp))?;
        retry_io(|| vfs.rename(&tmp, path))?;
        // Persist the rename itself (see `Vfs::sync_dir` for the
        // non-POSIX degradation).
        if let Some(dir) = path.parent() {
            retry_io(|| vfs.sync_dir(dir))?;
        }
        Ok::<(), std::io::Error>(())
    })();
    if let Err(e) = write_sync_rename {
        let _: Result<(), _> = vfs.remove(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Load and validate a manifest from `path`.
pub fn read_file(path: &Path) -> Result<Manifest, Error> {
    read_file_with(&RealFs, path)
}

/// [`read_file`] through `vfs`, riding out transient read errors.
pub fn read_file_with(vfs: &dyn Vfs, path: &Path) -> Result<Manifest, Error> {
    decode(&retry_io(|| vfs.read(path))?)
}

fn corrupt(detail: impl Into<String>) -> Error {
    Error::CorruptManifest { detail: detail.into() }
}

// ---- the delta log ----------------------------------------------------

/// File name of the delta log inside an engine store directory.
pub const DELTA_FILE_NAME: &str = "engine.delta";

/// First 8 bytes of every delta log.
pub const DELTA_MAGIC: [u8; 8] = *b"LOGRDLTA";

/// Delta-log format version this build writes and the only one it reads.
pub const DELTA_VERSION: u32 = 2;

/// Bytes in a delta-log header: magic + version + base checksum + base
/// length + header checksum.
pub const DELTA_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// One window close's increment over the base manifest (see the module
/// docs): everything `close_window` changed, in `O(window)` bytes —
/// scalars and the window buffer are post-close *values* (overwritten on
/// replay), the stride log is the exact increment the history absorbed
/// (re-absorbed on replay) and the pair the baseline rotation pushed
/// (replayed through [`logr_core::rotate_baseline`], the same function
/// the live close ran, so the rotation and rebuilt baseline land
/// bit-identically without being recorded), and the shard-file additions
/// extend the base's chain.
#[derive(Debug, Clone)]
pub struct DeltaRecord {
    /// 1-based position in the log (assigned by [`DeltaLog::append_with`],
    /// verified on replay).
    pub seq: u64,
    /// Post-close [`StreamState::windows_closed`].
    pub windows_closed: usize,
    /// Post-close [`StreamState::since_close`].
    pub since_close: u64,
    /// Post-close [`StreamState::last_ts_ms`].
    pub last_ts_ms: u64,
    /// Post-close [`StreamState::next_close_ms`].
    pub next_close_ms: Option<u64>,
    /// Post-close [`StreamState::statements_parsed`].
    pub statements_parsed: u64,
    /// Post-close window buffer (the sliding overlap; empty for tumbling).
    pub buffer: Vec<(String, u64, u64)>,
    /// Post-close pending stride statements.
    pub pending: Vec<(String, u64)>,
    /// The closed window's stride log — the exact increment
    /// `history.absorb`ed at this close, and the log the baseline
    /// rotation pushed.
    pub stride_log: QueryLog,
    /// Offered-query weight the rotation paired with `stride_log`.
    pub window_queries: u64,
    /// Exclusion span the rotation's skip walk used at close time.
    pub overlap_span: u64,
    /// Shard file names this close added to the chain, in order.
    pub new_shard_files: Vec<String>,
    /// Post-close feature-universe width of the shard set.
    pub n_features: usize,
    /// Post-close total points across the shard chain.
    pub total_points: usize,
    /// The featurizer-journal increment since the previous record (from
    /// [`logr_core::CloseDelta::source_events`]); replay appends it to
    /// the base's journal, so concatenated increments rebuild the full
    /// journal byte-for-byte. Empty for the SQL source.
    pub source_events: Vec<u8>,
}

/// Writer side of one delta log, bound to the base manifest it extends.
/// Created by [`write_base_with`] (or [`DeltaLog::for_base_bytes`]);
/// dropped — never persisted — whenever a full rewrite supersedes it.
#[derive(Debug, Clone)]
pub struct DeltaLog {
    base_checksum: u64,
    base_len: u64,
    next_seq: u64,
    appended_bytes: u64,
}

impl DeltaLog {
    /// A fresh session bound to the encoded base manifest `bytes`
    /// (binding = its trailing FNV-1a 64 checksum + byte length).
    pub fn for_base_bytes(bytes: &[u8]) -> DeltaLog {
        let mut checksum_le = [0u8; 8];
        if bytes.len() >= 8 {
            checksum_le.copy_from_slice(&bytes[bytes.len() - 8..]);
        }
        DeltaLog {
            base_checksum: u64::from_le_bytes(checksum_le),
            base_len: bytes.len() as u64,
            next_seq: 1,
            appended_bytes: 0,
        }
    }

    /// Records appended so far in this session.
    pub fn records(&self) -> u64 {
        self.next_seq - 1
    }

    /// Log bytes appended so far (frames only; the header is free).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Byte length of the base manifest this session extends.
    pub fn base_len(&self) -> u64 {
        self.base_len
    }

    /// Append one record durably: the first record creates the log file
    /// (header + frame in one truncating write — replacing any stale
    /// predecessor — then fsync + directory sync for the new dirent);
    /// every later record is a single [`Vfs::append`] + fsync. On error
    /// the log tail may be torn — the caller must abandon the session
    /// (fall back to a full rewrite), never append again, because a
    /// second append after a partial one would misalign every later
    /// frame. Replay treats a torn tail as an unacknowledged close.
    pub fn append_with(
        &mut self,
        vfs: &dyn Vfs,
        dir: &Path,
        rec: &DeltaRecord,
    ) -> Result<(), Error> {
        let payload = encode_record_payload(rec, self.next_seq);
        let mut frame = Vec::with_capacity(payload.len() + 16);
        put_u64(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        let path = dir.join(DELTA_FILE_NAME);
        if self.next_seq == 1 {
            let mut bytes = Vec::with_capacity(DELTA_HEADER_LEN + frame.len());
            bytes.extend_from_slice(&DELTA_MAGIC);
            bytes.extend_from_slice(&DELTA_VERSION.to_le_bytes());
            put_u64(&mut bytes, self.base_checksum);
            put_u64(&mut bytes, self.base_len);
            let header_sum = fnv1a64(&bytes[8..28]);
            bytes.extend_from_slice(&header_sum.to_le_bytes());
            bytes.extend_from_slice(&frame);
            retry_io(|| vfs.write(&path, &bytes))?;
            retry_io(|| vfs.fsync(&path))?;
            retry_io(|| vfs.sync_dir(dir))?;
        } else {
            retry_io(|| vfs.append(&path, &frame))?;
            retry_io(|| vfs.fsync(&path))?;
        }
        self.next_seq += 1;
        self.appended_bytes += frame.len() as u64;
        Ok(())
    }
}

/// What replaying a store's delta log found (see [`read_store_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaReplay {
    /// Valid records applied on top of the base (0 when the log is
    /// absent, stale, or its first frame is torn).
    pub records_applied: u64,
    /// Whether an `engine.delta` file existed at all.
    pub log_present: bool,
    /// Whether its header was intact and bound to the loaded base. A
    /// present-but-unbound log is stale (a full rewrite superseded it)
    /// and safe to delete.
    pub log_bound: bool,
}

/// Load a store's recovery root: the base manifest plus every valid
/// delta record replayed in sequence. This is the one read-side entry
/// point recovery uses; the [`DeltaReplay`] tells the caller whether a
/// fold (rewrite base, drop log) is warranted.
pub fn read_store_with(vfs: &dyn Vfs, dir: &Path) -> Result<(Manifest, DeltaReplay), Error> {
    let base_bytes = retry_io(|| vfs.read(&dir.join(FILE_NAME)))?;
    let mut m = decode(&base_bytes)?;
    let delta_bytes = match retry_io(|| vfs.read(&dir.join(DELTA_FILE_NAME))) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let replay = DeltaReplay { records_applied: 0, log_present: false, log_bound: false };
            return Ok((m, replay));
        }
        Err(e) => return Err(e.into()),
    };
    let replay = replay_delta(&mut m, &base_bytes, &delta_bytes)?;
    Ok((m, replay))
}

/// Replay `delta_bytes` over the manifest decoded from `base_bytes`.
/// Tolerant exactly where a power cut can tear (short/unsynced header,
/// torn or checksum-invalid trailing frame: replay stops, the tail was
/// never acknowledged), loud everywhere else (foreign magic, newer
/// version, checksum-valid but malformed or out-of-sequence records are
/// typed errors — those are tampering or writer bugs, not crash
/// artifacts).
pub fn replay_delta(
    m: &mut Manifest,
    base_bytes: &[u8],
    delta_bytes: &[u8],
) -> Result<DeltaReplay, Error> {
    let stale = |bound| DeltaReplay { records_applied: 0, log_present: true, log_bound: bound };
    if delta_bytes.len() < DELTA_HEADER_LEN {
        // A creation write torn before the header completed: the log
        // holds nothing acknowledged.
        return Ok(stale(false));
    }
    if delta_bytes[..8] != DELTA_MAGIC {
        return Err(corrupt("bad delta-log magic (not an engine delta log)"));
    }
    let mut version_le = [0u8; 4];
    version_le.copy_from_slice(&delta_bytes[8..12]);
    let version = u32::from_le_bytes(version_le);
    if version != DELTA_VERSION {
        return Err(Error::ManifestVersion { found: version, supported: DELTA_VERSION });
    }
    let mut stored_le = [0u8; 8];
    stored_le.copy_from_slice(&delta_bytes[28..36]);
    if u64::from_le_bytes(stored_le) != fnv1a64(&delta_bytes[8..28]) {
        // Torn creation: header never became durable in full.
        return Ok(stale(false));
    }
    let mut base_checksum_le = [0u8; 8];
    base_checksum_le.copy_from_slice(&delta_bytes[12..20]);
    let mut base_len_le = [0u8; 8];
    base_len_le.copy_from_slice(&delta_bytes[20..28]);
    let bound_checksum = base_bytes.len() >= 8
        && base_bytes[base_bytes.len() - 8..] == base_checksum_le
        && u64::from_le_bytes(base_len_le) == base_bytes.len() as u64;
    if !bound_checksum {
        // Bound to a different base: a full rewrite superseded this log.
        return Ok(stale(false));
    }
    let mut off = DELTA_HEADER_LEN;
    let mut applied = 0u64;
    while off < delta_bytes.len() {
        if delta_bytes.len() - off < 8 {
            break; // torn length prefix
        }
        let mut len_le = [0u8; 8];
        len_le.copy_from_slice(&delta_bytes[off..off + 8]);
        let Ok(len) = usize::try_from(u64::from_le_bytes(len_le)) else { break };
        let Some(end) = off.checked_add(8 + len).and_then(|e| e.checked_add(8)) else { break };
        if end > delta_bytes.len() {
            break; // torn frame
        }
        let payload = &delta_bytes[off + 8..off + 8 + len];
        let mut frame_sum_le = [0u8; 8];
        frame_sum_le.copy_from_slice(&delta_bytes[end - 8..end]);
        if u64::from_le_bytes(frame_sum_le) != fnv1a64(payload) {
            break; // torn or unsynced tail — never acknowledged
        }
        let rec = decode_record(payload)?;
        if rec.seq != applied + 1 {
            return Err(corrupt(format!(
                "delta record out of sequence: found {}, expected {}",
                rec.seq,
                applied + 1
            )));
        }
        apply_record(m, &rec);
        applied += 1;
        off = end;
    }
    Ok(DeltaReplay { records_applied: applied, log_present: true, log_bound: true })
}

/// Fold one record into the manifest — the replay side of the recording
/// `close_window` does (see [`DeltaRecord`] field docs). The baseline
/// rotation is not stored in the record: it reruns here through the same
/// [`rotate_baseline`] the live close used, on the manifest's rotation
/// state, from the record's inputs.
fn apply_record(m: &mut Manifest, rec: &DeltaRecord) {
    m.state.windows_closed = rec.windows_closed;
    m.state.since_close = rec.since_close;
    m.state.last_ts_ms = rec.last_ts_ms;
    m.state.next_close_ms = rec.next_close_ms;
    m.state.statements_parsed = rec.statements_parsed;
    m.state.buffer = rec.buffer.clone();
    m.state.pending = rec.pending.clone();
    m.state.history.absorb(&rec.stride_log);
    let mut rotation: VecDeque<(QueryLog, u64)> = std::mem::take(&mut m.state.baseline_logs).into();
    m.state.baseline = rotate_baseline(
        &mut rotation,
        rec.stride_log.clone(),
        rec.window_queries,
        rec.overlap_span,
        m.config.baseline_windows,
    );
    m.state.baseline_logs = rotation.into();
    m.shard_files.extend(rec.new_shard_files.iter().cloned());
    m.n_features = rec.n_features;
    m.total_points = rec.total_points;
    m.state.source_state.extend_from_slice(&rec.source_events);
}

fn encode_record_payload(rec: &DeltaRecord, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    put_u64(&mut out, seq);
    put_u64(&mut out, rec.windows_closed as u64);
    put_u64(&mut out, rec.since_close);
    put_u64(&mut out, rec.last_ts_ms);
    put_opt_u64(&mut out, rec.next_close_ms);
    put_u64(&mut out, rec.statements_parsed);
    put_u64(&mut out, rec.buffer.len() as u64);
    for (sql, count, ts) in &rec.buffer {
        put_str(&mut out, sql);
        put_u64(&mut out, *count);
        put_u64(&mut out, *ts);
    }
    put_u64(&mut out, rec.pending.len() as u64);
    for (sql, count) in &rec.pending {
        put_str(&mut out, sql);
        put_u64(&mut out, *count);
    }
    put_log(&mut out, &rec.stride_log);
    put_u64(&mut out, rec.window_queries);
    put_u64(&mut out, rec.overlap_span);
    put_u64(&mut out, rec.new_shard_files.len() as u64);
    for name in &rec.new_shard_files {
        put_str(&mut out, name);
    }
    put_u64(&mut out, rec.n_features as u64);
    put_u64(&mut out, rec.total_points as u64);
    put_bytes(&mut out, &rec.source_events);
    out
}

fn decode_record(payload: &[u8]) -> Result<DeltaRecord, Error> {
    let mut r = Reader { bytes: payload };
    let seq = r.u64("delta sequence number")?;
    let windows_closed = get_usize(&mut r, "delta windows closed")?;
    let since_close = r.u64("delta since-close counter")?;
    let last_ts_ms = r.u64("delta last timestamp")?;
    let next_close_ms = get_opt_u64(&mut r, "delta next close boundary")?;
    let statements_parsed = r.u64("delta parse counter")?;
    let n = get_len(&mut r, "delta buffer length")?;
    let mut buffer = Vec::with_capacity(n);
    for _ in 0..n {
        let sql = r.str("delta buffered statement")?;
        let count = r.u64("delta buffered multiplicity")?;
        let ts = r.u64("delta buffered timestamp")?;
        buffer.push((sql, count, ts));
    }
    let n = get_len(&mut r, "delta pending length")?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        let sql = r.str("delta pending statement")?;
        let count = r.u64("delta pending multiplicity")?;
        pending.push((sql, count));
    }
    let stride_log = get_log(&mut r)?;
    let window_queries = r.u64("delta rotation weight")?;
    let overlap_span = r.u64("delta rotation exclusion span")?;
    let n = get_len(&mut r, "delta shard file count")?;
    let mut new_shard_files = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("delta shard file name")?;
        if name.is_empty() || name.contains(['/', '\\']) || name == ".." {
            return Err(corrupt("delta shard file name escapes the store directory"));
        }
        new_shard_files.push(name);
    }
    let n_features = get_usize(&mut r, "delta shard universe width")?;
    let total_points = get_usize(&mut r, "delta shard point total")?;
    let source_events = get_bytes(&mut r, "delta journal increment")?;
    if !r.bytes.is_empty() {
        return Err(corrupt("trailing bytes after the delta record"));
    }
    Ok(DeltaRecord {
        seq,
        windows_closed,
        since_close,
        last_ts_ms,
        next_close_ms,
        statements_parsed,
        buffer,
        pending,
        stride_log,
        window_queries,
        overlap_span,
        new_shard_files,
        n_features,
        total_points,
        source_events,
    })
}

// ---- primitive writers ------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_config(out: &mut Vec<u8>, c: &StreamConfig) {
    put_u64(out, c.window);
    put_opt_u64(out, c.slide);
    match c.time {
        None => out.push(0),
        Some(tw) => {
            out.push(1);
            put_u64(out, tw.window_ms);
            put_opt_u64(out, tw.slide_ms);
        }
    }
    put_u64(out, c.baseline_windows as u64);
    put_u64(out, c.k as u64);
    let (tag, p) = match c.metric {
        Distance::Euclidean => (0u8, 0.0),
        Distance::Manhattan => (1, 0.0),
        Distance::Minkowski(p) => (2, p),
        Distance::Hamming => (3, 0.0),
        Distance::Chebyshev => (4, 0.0),
        Distance::Canberra => (5, 0.0),
    };
    out.push(tag);
    put_f64(out, p);
    put_f64(out, c.drift_tolerance);
    put_u64(out, c.seed);
    // Version 3: the record → feature source. A tag byte keeps the SQL
    // default one byte wide; the template miner's knobs follow its tag.
    match c.source {
        SourceConfig::Sql => out.push(0),
        SourceConfig::Template(t) => {
            out.push(1);
            put_u64(out, t.depth as u64);
            put_u64(out, t.max_children as u64);
            put_f64(out, t.similarity);
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn put_log(out: &mut Vec<u8>, log: &QueryLog) {
    put_u64(out, log.num_features() as u64);
    put_u64(out, log.codebook().len() as u64);
    for (_, feature) in log.codebook().iter() {
        let tag = match feature.class {
            FeatureClass::Select => 0u8,
            FeatureClass::From => 1,
            FeatureClass::Where => 2,
            FeatureClass::GroupBy => 3,
            FeatureClass::OrderBy => 4,
            FeatureClass::Template => 5,
            FeatureClass::Param => 6,
        };
        out.push(tag);
        put_str(out, &feature.text);
    }
    put_u64(out, log.entries().len() as u64);
    for (vector, count) in log.entries() {
        put_u64(out, vector.ids().len() as u64);
        for id in vector.iter() {
            out.extend_from_slice(&id.0.to_le_bytes());
        }
        put_u64(out, *count);
    }
}

// ---- primitive readers ------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], Error> {
        if self.bytes.len() < n {
            return Err(corrupt(format!("truncated while reading {what}")));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, Error> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, Error> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, Error> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self, what: &str) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String, Error> {
        // `as usize` would silently truncate a hostile 64-bit length on
        // 32-bit targets and misparse from the wrong offset; convert
        // fallibly like `get_usize` does.
        let len = usize::try_from(self.u64(what)?)
            .map_err(|_| corrupt(format!("{what} length exceeds the address space")))?;
        // A hostile length must not become a huge reservation: take()
        // bounds it against the remaining bytes first.
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt(format!("{what} is not valid UTF-8")))
    }
}

fn get_usize(r: &mut Reader<'_>, what: &str) -> Result<usize, Error> {
    usize::try_from(r.u64(what)?).map_err(|_| corrupt(format!("{what} exceeds the address space")))
}

/// A declared element count, sanity-bounded by the remaining bytes (every
/// element is at least one byte) so hostile counts cannot over-reserve.
fn get_len(r: &mut Reader<'_>, what: &str) -> Result<usize, Error> {
    let n = get_usize(r, what)?;
    if n > r.bytes.len() {
        return Err(corrupt(format!("{what} larger than the remaining payload")));
    }
    Ok(n)
}

fn get_opt_u64(r: &mut Reader<'_>, what: &str) -> Result<Option<u64>, Error> {
    match r.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(r.u64(what)?)),
        _ => Err(corrupt(format!("bad presence byte for {what}"))),
    }
}

fn get_config(r: &mut Reader<'_>) -> Result<StreamConfig, Error> {
    let window = r.u64("window size")?;
    let slide = get_opt_u64(r, "slide")?;
    let time = match r.u8("time-window presence")? {
        0 => None,
        1 => {
            let window_ms = r.u64("time window span")?;
            let slide_ms = get_opt_u64(r, "time slide")?;
            Some(TimeWindows { window_ms, slide_ms })
        }
        _ => return Err(corrupt("bad presence byte for time windows")),
    };
    let baseline_windows = get_usize(r, "baseline window count")?;
    let k = get_usize(r, "cluster count")?;
    let tag = r.u8("metric tag")?;
    let p = r.f64("metric parameter")?;
    let metric = match tag {
        0 => Distance::Euclidean,
        1 => Distance::Manhattan,
        2 => Distance::Minkowski(p),
        3 => Distance::Hamming,
        4 => Distance::Chebyshev,
        5 => Distance::Canberra,
        _ => return Err(corrupt(format!("unknown metric tag {tag}"))),
    };
    let drift_tolerance = r.f64("drift tolerance")?;
    let seed = r.u64("seed")?;
    let source = match r.u8("source tag")? {
        0 => SourceConfig::Sql,
        1 => {
            let depth = get_usize(r, "template depth")?;
            let max_children = get_usize(r, "template fan-out bound")?;
            let similarity = r.f64("template similarity threshold")?;
            SourceConfig::Template(TemplateConfig { depth, max_children, similarity })
        }
        tag => return Err(corrupt(format!("unknown source tag {tag}"))),
    };
    Ok(StreamConfig {
        window,
        slide,
        time,
        baseline_windows,
        k,
        metric,
        drift_tolerance,
        seed,
        source,
    })
}

fn get_bytes(r: &mut Reader<'_>, what: &str) -> Result<Vec<u8>, Error> {
    let len = get_len(r, what)?;
    Ok(r.take(len, what)?.to_vec())
}

fn get_log(r: &mut Reader<'_>) -> Result<QueryLog, Error> {
    let num_features = get_usize(r, "log universe width")?;
    let mut log = QueryLog::new();
    let n_features = get_len(r, "codebook length")?;
    for i in 0..n_features {
        let tag = r.u8("feature class tag")?;
        let class = match tag {
            0 => FeatureClass::Select,
            1 => FeatureClass::From,
            2 => FeatureClass::Where,
            3 => FeatureClass::GroupBy,
            4 => FeatureClass::OrderBy,
            5 => FeatureClass::Template,
            6 => FeatureClass::Param,
            _ => return Err(corrupt(format!("unknown feature class tag {tag}"))),
        };
        let text = r.str("feature text")?;
        let id = log.codebook_mut().intern(Feature::new(class, text));
        if id.index() != i {
            // A duplicate feature would silently renumber everything
            // after it — reject rather than rebuild a different log.
            return Err(corrupt("duplicate feature in a stored codebook"));
        }
    }
    let n_entries = get_len(r, "entry count")?;
    for _ in 0..n_entries {
        let n_ids = get_len(r, "entry id count")?;
        let mut ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            ids.push(FeatureId(r.u32("feature id")?));
        }
        let count = r.u64("entry multiplicity")?;
        if count == 0 {
            // `add_vector` ignores zero counts; a stored zero would
            // silently drop a distinct entry and shift every index after
            // it.
            return Err(corrupt("zero-multiplicity entry in a stored log"));
        }
        log.add_vector(QueryVector::new(ids), count);
    }
    log.reserve_universe(num_features);
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::LogIngest;

    fn sample_log(statements: &[(&str, u64)]) -> QueryLog {
        let mut ingest = LogIngest::new();
        for (sql, count) in statements {
            ingest.ingest_with_count(sql, *count);
        }
        ingest.finish().0
    }

    fn sample_manifest() -> Manifest {
        let history = sample_log(&[
            ("SELECT id, body FROM messages WHERE status = ?", 40),
            ("SELECT balance FROM accounts WHERE owner = ?", 7),
            ("SELECT a FROM t WHERE x = ? OR y = ?", 2),
        ]);
        let baseline = sample_log(&[("SELECT id, body FROM messages WHERE status = ?", 40)]);
        Manifest {
            config: StreamConfig {
                window: 64,
                slide: Some(16),
                time: None,
                baseline_windows: 3,
                k: 4,
                metric: Distance::Minkowski(4.0),
                drift_tolerance: 1e-3,
                seed: 42,
                source: SourceConfig::Sql,
            },
            resident_budget: 65536,
            state: StreamState {
                buffer: vec![("SELECT tab\there FROM t".into(), 3, 17)],
                pending: vec![("SELECT 1 FROM t".into(), 1)],
                since_close: 3,
                next_close_ms: Some(12345),
                last_ts_ms: 12000,
                windows_closed: 9,
                statements_parsed: 31,
                baseline_logs: vec![(baseline.clone(), 40)],
                baseline,
                history,
                source_state: Vec::new(),
            },
            n_features: 11,
            total_points: 4,
            shard_files: vec!["shard-00000-1-00000001.bin".into()],
        }
    }

    fn assert_log_eq(a: &QueryLog, b: &QueryLog) {
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.num_features(), b.num_features());
        assert_eq!(a.total_queries(), b.total_queries());
        assert_eq!(a.codebook().len(), b.codebook().len());
        for (id, f) in a.codebook().iter() {
            assert_eq!(b.codebook().feature(id), f);
        }
    }

    #[test]
    fn round_trips_bit_for_bit() {
        let m = sample_manifest();
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(format!("{:?}", decoded.config), format!("{:?}", m.config));
        assert_eq!(decoded.resident_budget, m.resident_budget);
        assert_eq!(decoded.state.buffer, m.state.buffer);
        assert_eq!(decoded.state.pending, m.state.pending);
        assert_eq!(decoded.state.since_close, m.state.since_close);
        assert_eq!(decoded.state.next_close_ms, m.state.next_close_ms);
        assert_eq!(decoded.state.windows_closed, m.state.windows_closed);
        assert_eq!(decoded.state.statements_parsed, m.state.statements_parsed);
        assert_eq!(decoded.state.baseline_logs.len(), 1);
        assert_eq!(decoded.state.baseline_logs[0].1, 40);
        assert_log_eq(&decoded.state.baseline_logs[0].0, &m.state.baseline_logs[0].0);
        assert_log_eq(&decoded.state.baseline, &m.state.baseline);
        assert_log_eq(&decoded.state.history, &m.state.history);
        assert_eq!(decoded.n_features, m.n_features);
        assert_eq!(decoded.total_points, m.total_points);
        assert_eq!(decoded.shard_files, m.shard_files);
        // Re-encoding the decoded manifest is byte-identical.
        assert_eq!(encode(&decoded), encode(&m));
    }

    #[test]
    fn version_gate_refuses_newer_manifests() {
        // Newer builds' manifests, and the retired pre-source versions 1
        // and 2, are refused alike: only `VERSION` decodes.
        for version in [VERSION + 1, 1, 2] {
            let mut bytes = encode(&sample_manifest());
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            // Version is checked before the checksum: no need to re-hash.
            match decode(&bytes).unwrap_err() {
                Error::ManifestVersion { found, supported } => {
                    assert_eq!(found, version);
                    assert_eq!(supported, VERSION);
                }
                other => panic!("wrong error: {other}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode(&sample_manifest());
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(Error::CorruptManifest { .. }) => {}
                Err(other) => panic!("cut {cut}: wrong error {other}"),
                Ok(_) => panic!("cut {cut}: truncated manifest decoded"),
            }
        }
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let bytes = encode(&sample_manifest());
        // Flip each payload byte (past magic, before checksum): the
        // checksum rejects it before any structural interpretation.
        for i in 8..bytes.len() - 8 {
            let mut dirty = bytes.clone();
            dirty[i] ^= 0x40;
            match decode(&dirty) {
                Err(Error::CorruptManifest { .. }) | Err(Error::ManifestVersion { .. }) => {}
                Err(other) => panic!("byte {i}: wrong error {other}"),
                Ok(_) => panic!("byte {i}: corrupt manifest decoded"),
            }
        }
        // Bad magic is its own message.
        let mut dirty = bytes.clone();
        dirty[0] ^= 0xff;
        assert!(matches!(decode(&dirty), Err(Error::CorruptManifest { .. })));
    }

    #[test]
    fn hostile_lengths_do_not_over_allocate() {
        // A checksum-valid manifest with an absurd declared count
        // *mid-body* must be rejected by the remaining-bytes bound in
        // `get_len`, not trusted into a multi-gigabyte reservation.
        // Locate the buffer-length field without hard-coding offsets:
        // encode two manifests identical up to the buffer, whose buffers
        // differ in entry count — the first differing byte is the low
        // byte of the buffer-length u64.
        let m = sample_manifest();
        let mut m2 = m.clone();
        m2.state.buffer.push(("SELECT 2 FROM t".into(), 1, 18));
        let (a, b) = (encode(&m), encode(&m2));
        let off = a.iter().zip(&b).position(|(x, y)| x != y).expect("buffers differ");
        // Overwrite the count with u64::MAX and re-checksum, so the
        // checksum gate passes and the hostile-count path is what fires.
        let mut bytes = a;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let total = bytes.len();
        let checksum = fnv1a64(&bytes[8..total - 8]);
        bytes[total - 8..].copy_from_slice(&checksum.to_le_bytes());
        match decode(&bytes).unwrap_err() {
            Error::CorruptManifest { detail } => {
                // The typed rejection must come from the count bound
                // itself (no reservation happened), not from running off
                // the end of the payload while parsing entries.
                assert!(
                    detail.contains("buffer length") && detail.contains("remaining"),
                    "rejection must name the hostile count: {detail}"
                );
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let store = logr_cluster::testutil::TempStore::new("manifest");
        let path = store.join(FILE_NAME);
        let m = sample_manifest();
        write_file(&path, &m).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let back = read_file(&path).unwrap();
        assert_eq!(encode(&back), encode(&m));
        // Overwrite with different content: reads see old-or-new, never torn.
        let mut m2 = m.clone();
        m2.state.windows_closed += 1;
        write_file(&path, &m2).unwrap();
        assert_eq!(read_file(&path).unwrap().state.windows_closed, m.state.windows_closed + 1);
    }

    #[test]
    fn escaping_shard_names_are_rejected() {
        let mut m = sample_manifest();
        m.shard_files = vec!["../../etc/passwd".into()];
        assert!(matches!(decode(&encode(&m)), Err(Error::CorruptManifest { .. })));
    }

    #[test]
    fn template_manifest_round_trips_with_its_journal() {
        let mut m = sample_manifest();
        m.config.source = SourceConfig::template();
        m.state.source_state = vec![5, 0, 0, 0, b'h', b'e', b'l', b'l', b'o'];
        let decoded = decode(&encode(&m)).unwrap();
        match decoded.config.source {
            SourceConfig::Template(t) => {
                let d = TemplateConfig::default();
                assert_eq!((t.depth, t.max_children), (d.depth, d.max_children));
                assert_eq!(t.similarity.to_bits(), d.similarity.to_bits());
            }
            other => panic!("wrong source decoded: {other:?}"),
        }
        assert_eq!(decoded.state.source_state, m.state.source_state);
        assert_eq!(encode(&decoded), encode(&m));
    }

    #[test]
    fn unknown_source_tag_is_a_typed_error() {
        // Locate the source tag without hard-coding offsets: the Sql and
        // Template encodings of the same manifest first differ at it.
        let m = sample_manifest();
        let mut m2 = m.clone();
        m2.config.source = SourceConfig::template();
        let (a, b) = (encode(&m), encode(&m2));
        let off = a.iter().zip(&b).position(|(x, y)| x != y).expect("sources differ");
        let mut bytes = a;
        bytes[off] = 9;
        let total = bytes.len();
        let checksum = fnv1a64(&bytes[8..total - 8]);
        bytes[total - 8..].copy_from_slice(&checksum.to_le_bytes());
        match decode(&bytes).unwrap_err() {
            Error::CorruptManifest { detail } => {
                assert!(detail.contains("source tag"), "{detail}")
            }
            other => panic!("wrong error: {other}"),
        }
    }

    // ---- delta log ----------------------------------------------------

    use logr_cluster::vfs::{FaultFs, IoOp, Vfs};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn sample_record(i: u64) -> DeltaRecord {
        let stride = sample_log(&[(&format!("SELECT s{i} FROM t{i} WHERE q{i} = ?"), i + 1)]);
        DeltaRecord {
            seq: 0, // assigned by append_with
            windows_closed: 9 + i as usize,
            since_close: i,
            last_ts_ms: 12000 + i,
            next_close_ms: Some(13000 + i),
            statements_parsed: 31 + i,
            buffer: vec![(format!("SELECT b{i} FROM t"), 1, 90 + i)],
            pending: vec![(format!("SELECT p{i} FROM t"), 2)],
            stride_log: stride,
            window_queries: 7 + i,
            overlap_span: 0,
            new_shard_files: vec![format!("shard-0000{i}-1-0000000{i}.bin")],
            n_features: 11 + i as usize,
            total_points: 4 + i as usize,
            source_events: format!("journal-increment-{i}").into_bytes(),
        }
    }

    /// Base written to a FaultFs store, a delta session over it, and the
    /// frame end offsets after each of `n` appends.
    fn delta_store(n: u64) -> (Arc<FaultFs>, PathBuf, Manifest, Vec<usize>) {
        let fs = Arc::new(FaultFs::new());
        let dir = PathBuf::from("/delta-store");
        fs.create_dir_all(&dir).unwrap();
        let m = sample_manifest();
        let mut log = write_base_with(&*fs, &dir.join(FILE_NAME), &m).unwrap();
        let mut ends = Vec::new();
        for i in 0..n {
            log.append_with(&*fs, &dir, &sample_record(i)).unwrap();
            ends.push(DELTA_HEADER_LEN + log.appended_bytes() as usize);
        }
        (fs, dir, m, ends)
    }

    #[test]
    fn delta_records_replay_onto_the_base_in_sequence() {
        let (fs, dir, base, _) = delta_store(3);
        let (m, replay) = read_store_with(&*fs, &dir).unwrap();
        assert_eq!(replay, DeltaReplay { records_applied: 3, log_present: true, log_bound: true });
        // Scalars come from the *last* record; shard files accumulate;
        // the history absorbed every stride in order; the rotation
        // replayed each record's push (exclusion span 0, capacity 3), so
        // the base's one stride rotated out at the third record and the
        // three record strides remain — the rebuilt baseline is their
        // union.
        let last = sample_record(2);
        assert_eq!(m.state.windows_closed, last.windows_closed);
        assert_eq!(m.state.since_close, last.since_close);
        assert_eq!(m.state.next_close_ms, last.next_close_ms);
        assert_eq!(m.state.statements_parsed, last.statements_parsed);
        assert_eq!(m.state.buffer, last.buffer);
        assert_eq!(m.state.pending, last.pending);
        assert_eq!(m.state.baseline_logs.len(), 3);
        let mut expected_baseline = QueryLog::new();
        for i in 0..3u64 {
            let rec = sample_record(i);
            assert_log_eq(&m.state.baseline_logs[i as usize].0, &rec.stride_log);
            assert_eq!(m.state.baseline_logs[i as usize].1, rec.window_queries);
            expected_baseline.absorb(&rec.stride_log);
        }
        assert_log_eq(&m.state.baseline, &expected_baseline);
        assert_eq!(m.n_features, last.n_features);
        assert_eq!(m.total_points, last.total_points);
        let mut expected_files = base.shard_files.clone();
        for i in 0..3 {
            expected_files.extend(sample_record(i).new_shard_files);
        }
        assert_eq!(m.shard_files, expected_files);
        let mut expected_history = base.state.history.clone();
        for i in 0..3 {
            expected_history.absorb(&sample_record(i).stride_log);
        }
        assert_log_eq(&m.state.history, &expected_history);
        // Journal increments concatenate in record order onto the base's
        // journal (empty here), rebuilding the full journal.
        let mut expected_journal = base.state.source_state.clone();
        for i in 0..3 {
            expected_journal.extend_from_slice(&sample_record(i).source_events);
        }
        assert_eq!(m.state.source_state, expected_journal);
        // Replay is deterministic: a second read applies identically.
        let (m2, _) = read_store_with(&*fs, &dir).unwrap();
        assert_eq!(encode(&m2), encode(&m));
    }

    #[test]
    fn delta_append_protocol_creates_then_extends() {
        let (fs, dir, _, _) = delta_store(0);
        let mut log = DeltaLog::for_base_bytes(&fs.files()[&dir.join(FILE_NAME)]);
        let before = fs.trace_len();
        log.append_with(&*fs, &dir, &sample_record(0)).unwrap();
        log.append_with(&*fs, &dir, &sample_record(1)).unwrap();
        let trace = fs.trace();
        let delta = dir.join(DELTA_FILE_NAME);
        // First record: truncating create + fsync + directory sync (the
        // dirent must be durable). Second record: append + fsync only —
        // no rename, no directory sync, no tmp sibling, ever.
        match &trace[before..] {
            [IoOp::Write { path: p1, .. }, IoOp::Fsync { path: p2 }, IoOp::SyncDir { dir: d }, IoOp::Append { path: p3, .. }, IoOp::Fsync { path: p4 }] =>
            {
                assert_eq!((p1, p2, d), (&delta, &delta, &dir));
                assert_eq!((p3, p4), (&delta, &delta));
            }
            ops => panic!("unexpected delta commit trace: {ops:?}"),
        }
    }

    #[test]
    fn superseded_delta_log_is_stale_and_ignored() {
        let (fs, dir, _, _) = delta_store(2);
        // A full rewrite supersedes the log: its binding no longer
        // matches, so replay must apply nothing from it.
        let mut m2 = sample_manifest();
        m2.state.windows_closed = 77;
        write_file_with(&*fs, &dir.join(FILE_NAME), &m2).unwrap();
        let (m, replay) = read_store_with(&*fs, &dir).unwrap();
        assert_eq!(replay, DeltaReplay { records_applied: 0, log_present: true, log_bound: false });
        assert_eq!(m.state.windows_closed, 77);
    }

    #[test]
    fn torn_delta_tail_replays_the_acknowledged_prefix() {
        let (fs, dir, _, ends) = delta_store(3);
        let delta_path = dir.join(DELTA_FILE_NAME);
        let full = fs.files()[&delta_path].clone();
        assert_eq!(*ends.last().unwrap(), full.len());
        for cut in 0..full.len() {
            fs.write(&delta_path, &full[..cut]).unwrap();
            let expected = ends.iter().filter(|&&e| e <= cut).count() as u64;
            let (m, replay) = read_store_with(&*fs, &dir)
                .unwrap_or_else(|e| panic!("cut {cut}: torn tail must not be an error: {e}"));
            assert_eq!(replay.records_applied, expected, "cut {cut}");
            assert_eq!(replay.log_bound, cut >= DELTA_HEADER_LEN, "cut {cut}");
            let expected_windows = if expected == 0 {
                sample_manifest().state.windows_closed
            } else {
                sample_record(expected - 1).windows_closed
            };
            assert_eq!(m.state.windows_closed, expected_windows, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_delta_frames_stop_replay_at_the_last_good_record() {
        let (fs, dir, _, ends) = delta_store(3);
        let delta_path = dir.join(DELTA_FILE_NAME);
        let full = fs.files()[&delta_path].clone();
        for flip in DELTA_HEADER_LEN..full.len() {
            let mut dirty = full.clone();
            dirty[flip] ^= 0x40;
            fs.write(&delta_path, &dirty).unwrap();
            // The frame containing the flipped byte fails its checksum
            // (or tears the framing); every record before it applies.
            let expected = ends.iter().filter(|&&e| e <= flip).count() as u64;
            match read_store_with(&*fs, &dir) {
                Ok((_, replay)) => assert_eq!(replay.records_applied, expected, "flip {flip}"),
                Err(e) => panic!("flip {flip}: corruption must degrade, not error: {e}"),
            }
        }
    }

    #[test]
    fn delta_version_gate_refuses_newer_logs() {
        // The retired pre-source delta version 1 is refused like a newer
        // build's log: only `DELTA_VERSION` replays.
        for version in [DELTA_VERSION + 1, 1] {
            let (fs, dir, _, _) = delta_store(1);
            let delta_path = dir.join(DELTA_FILE_NAME);
            let mut bytes = fs.files()[&delta_path].clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let header_sum = fnv1a64(&bytes[8..28]);
            bytes[28..36].copy_from_slice(&header_sum.to_le_bytes());
            fs.write(&delta_path, &bytes).unwrap();
            match read_store_with(&*fs, &dir).unwrap_err() {
                Error::ManifestVersion { found, supported } => {
                    assert_eq!(found, version);
                    assert_eq!(supported, DELTA_VERSION);
                }
                other => panic!("wrong error: {other}"),
            }
        }
    }

    #[test]
    fn out_of_sequence_delta_record_is_a_typed_error() {
        // A checksum-valid frame whose payload claims the wrong sequence
        // number is tampering or a writer bug, never a crash artifact —
        // it must be loud. Splice a seq-5 frame after the two real ones.
        let (fs, dir, _, _) = delta_store(2);
        let delta_path = dir.join(DELTA_FILE_NAME);
        let mut bytes = fs.files()[&delta_path].clone();
        let payload = encode_record_payload(&sample_record(2), 5);
        put_u64(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        fs.write(&delta_path, &bytes).unwrap();
        match read_store_with(&*fs, &dir).unwrap_err() {
            Error::CorruptManifest { detail } => {
                assert!(detail.contains("out of sequence"), "{detail}")
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
