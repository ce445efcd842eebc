//! `logr::Engine` — the one durable, concurrent front door for batch and
//! streaming workload analytics.
//!
//! The paper's pitch is an *always-on* service: compress the access log
//! once, then answer index-advisor / view-advisor / monitoring questions
//! from the summary. The pieces exist as separate crates — `LogIngest` →
//! `LogR::compress` for batch, `StreamSummarizer` + the spill store for
//! bounded-memory streaming — but wiring them by hand leaves three gaps
//! this module closes:
//!
//! * **Recovery** — [`Engine::open`] on a directory rebuilds the whole
//!   session (history, codebook, drift baseline, half-filled window,
//!   sharded distance structure) from a versioned [`crate::manifest`]
//!   plus the spilled shard files, and continues **bit-identically**;
//!   torn or corrupt state surfaces as typed [`Error`]s, never a panic.
//! * **Concurrent reads** — [`Engine::snapshot`] hands out a cheap,
//!   `Arc`-backed immutable view; any number of reader threads answer
//!   statistics from it while one writer keeps ingesting. Writers
//!   publish a new snapshot at every window close; readers never block
//!   ingestion and never observe a torn state.
//! * **One error type** — every public method returns
//!   `Result<_, `[`Error`]`>`, with the per-crate errors wrapped via
//!   `From`.
//!
//! One ingest path and one read surface: writes go through
//! [`Engine::ingest_with`] (record text, multiplicity, optional
//! timestamp; [`Engine::ingest`] is its multiplicity-1 shorthand) and
//! [`Engine::flush`]; every read — summaries, drift, estimates, advisors
//! — goes through the [`EngineSnapshot`] that [`Engine::snapshot`] hands
//! out. Batch is the degenerate stream: ingest everything,
//! [`Engine::flush`], read `engine.snapshot()?.summary()`. See the crate
//! root for a quickstart.

use crate::analytics::{WorkloadQuery, WorkloadView};
use crate::error::Error;
use crate::manifest::{self, DeltaLog, DeltaRecord, Manifest};
use logr_cluster::vfs::{self, retry_io, Vfs};
use logr_cluster::{Distance, ShardedPointSet, SpillConfig};
use logr_core::PortableSummary;
use logr_core::{
    CompressionObjective, DriftReport, LogR, LogRSummary, SourceConfig, StreamConfig,
    StreamSummarizer, TimeWindows, WindowSummary,
};
use logr_feature::{Codebook, QueryLog};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// Builder for [`Engine`] sessions. Defaults mirror
/// [`StreamConfig::default`] (256-query tumbling windows, 4 clusters,
/// Hamming distance) with an unbounded resident-shard budget.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    stream: StreamConfig,
    resident_budget: Option<usize>,
    /// Storage layer override ([`logr_cluster::vfs::RealFs`] when unset)
    /// — the injection point every fault test builds on.
    vfs: Option<Arc<dyn Vfs>>,
    read_only: bool,
}

impl EngineBuilder {
    /// Start from the defaults.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Queries per tumbling window (see [`StreamConfig::window`]).
    pub fn window(mut self, queries: u64) -> Self {
        self.stream.window = queries;
        self
    }

    /// Slide the window by `queries` instead of tumbling
    /// (see [`StreamConfig::slide`]).
    pub fn slide(mut self, queries: u64) -> Self {
        self.stream.slide = Some(queries);
        self
    }

    /// Close windows on wall-clock boundaries instead of counts
    /// (see [`StreamConfig::time`]).
    pub fn time_windows(mut self, windows: TimeWindows) -> Self {
        self.stream.time = Some(windows);
        self
    }

    /// Closed windows forming the drift baseline
    /// (see [`StreamConfig::baseline_windows`]).
    pub fn baseline_windows(mut self, windows: usize) -> Self {
        self.stream.baseline_windows = windows;
        self
    }

    /// Clusters per summary (see [`StreamConfig::k`]).
    pub fn clusters(mut self, k: usize) -> Self {
        self.stream.k = k;
        self
    }

    /// Distance measure for clustering and novelty scoring.
    pub fn metric(mut self, metric: Distance) -> Self {
        self.stream.metric = metric;
        self
    }

    /// `stable` tolerance for window drift reports.
    pub fn drift_tolerance(mut self, tolerance: f64) -> Self {
        self.stream.drift_tolerance = tolerance;
        self
    }

    /// RNG seed threaded into clustering.
    pub fn seed(mut self, seed: u64) -> Self {
        self.stream.seed = seed;
        self
    }

    /// The record → feature source (see [`SourceConfig`]): SQL feature
    /// extraction by default, or the Drain-style template miner for
    /// free-form service logs. On [`EngineBuilder::resume`] the stored
    /// source always wins — the manifest's featurizer journal only
    /// replays through the configuration that wrote it.
    pub fn source(mut self, source: SourceConfig) -> Self {
        self.stream.source = source;
        self
    }

    /// Resident shard-payload budget in bytes for durable engines (see
    /// [`SpillConfig::resident_budget`]); unbounded when unset. On
    /// [`EngineBuilder::resume`], an explicitly set budget overrides the
    /// stored one.
    pub fn resident_budget(mut self, bytes: usize) -> Self {
        self.resident_budget = Some(bytes);
        self
    }

    /// The full [`StreamConfig`] escape hatch.
    pub fn stream_config(mut self, config: StreamConfig) -> Self {
        self.stream = config;
        self
    }

    /// Route every file operation (shard spill/reload, manifest
    /// write/read, lock acquisition, resume-time GC) through `vfs`
    /// instead of the real filesystem. This is how the fault-injection
    /// and power-cut-replay tests drive the engine against a
    /// [`logr_cluster::vfs::FaultFs`]; production code leaves it unset.
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Open the store **read-only**: no write lock is taken, no
    /// garbage collection runs, and no initial checkpoint is written —
    /// the engine serves the full snapshot/analytics read surface off
    /// the last durable manifest, even while another live process owns
    /// the store for writing (safe because shard files are write-once
    /// and the manifest is replaced atomically; writers never delete
    /// files — only an exclusive writer's resume-time GC does). Write
    /// entry points (ingest, flush, checkpoint, compact) return
    /// [`Error::ReadOnly`]. The degraded-open mode for inspecting a
    /// wedged or foreign-owned store.
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Validate without panicking (the [`StreamSummarizer::new`] contract,
    /// as a typed error).
    fn validate(&self) -> Result<(), Error> {
        self.stream.validate().map_err(|detail| Error::Config { detail })
    }

    /// An ephemeral engine: everything stays in memory, nothing survives
    /// the process. [`Engine::checkpoint`] and recovery are unavailable;
    /// everything else behaves identically to a durable engine.
    pub fn in_memory(self) -> Result<Engine, Error> {
        self.validate()?;
        let vfs = self.vfs.unwrap_or_else(vfs::default_vfs);
        Ok(Engine::assemble(StreamSummarizer::new(self.stream), None, None, None, vfs, false))
    }

    /// Open-or-create a durable engine on `dir`: when the directory holds
    /// an engine manifest, this **resumes** the persisted session (see
    /// [`EngineBuilder::resume`] — the stored configuration wins, since
    /// continuing bit-identically under a different one is impossible);
    /// otherwise it initializes a fresh store there (creating the
    /// directory and writing an initial manifest, so an immediately
    /// dropped engine is already reopenable).
    pub fn open(self, dir: impl Into<PathBuf>) -> Result<Engine, Error> {
        let dir = dir.into();
        let vfs = self.vfs.clone().unwrap_or_else(vfs::default_vfs);
        if vfs.exists(&dir.join(manifest::FILE_NAME)) {
            return self.resume(dir);
        }
        if self.read_only {
            // A read-only open cannot initialize a store — there is
            // nothing durable to serve.
            return Err(Error::MissingManifest { dir });
        }
        self.validate()?;
        retry_io(|| vfs.create_dir_all(&dir))?;
        let lock = StoreLock::acquire(&dir, vfs.clone())?;
        let mut summarizer = StreamSummarizer::new(self.stream);
        let budget = self.resident_budget.unwrap_or(usize::MAX);
        summarizer.spill_to_with(vfs.clone(), &dir, budget)?;
        let engine = Engine::assemble(summarizer, Some(dir), None, Some(lock), vfs, false);
        engine.checkpoint()?;
        Ok(engine)
    }

    /// Resume a persisted engine from `dir`, which must hold a manifest
    /// ([`Error::MissingManifest`] otherwise — `open` is the
    /// open-or-create flavor). The recovered engine continues
    /// bit-identically from the last checkpoint: the stored stream
    /// configuration replaces this builder's, while an explicitly set
    /// [`EngineBuilder::resident_budget`] (an operational knob, not a
    /// semantic one) overrides the stored budget.
    ///
    /// Every corruption mode is a distinct typed error: a missing
    /// manifest is [`Error::MissingManifest`], a manifest from a newer
    /// build [`Error::ManifestVersion`], a damaged manifest
    /// [`Error::CorruptManifest`], a deleted shard file
    /// [`Error::MissingShard`], a truncated or rotted shard file
    /// [`Error::Spill`] with the decoder's verdict, and checkpoint-level
    /// inconsistency between them [`Error::StoreMismatch`]. A store
    /// owned by a live engine is [`Error::StoreLocked`] (resume
    /// garbage-collects files a live owner's snapshots may still read,
    /// so ownership must be exclusive; a dead owner's lock is stale and
    /// taken over). Never a panic.
    pub fn resume(self, dir: impl Into<PathBuf>) -> Result<Engine, Error> {
        let dir = dir.into();
        let vfs = self.vfs.clone().unwrap_or_else(vfs::default_vfs);
        let manifest_path = dir.join(manifest::FILE_NAME);
        if !vfs.exists(&manifest_path) {
            return Err(Error::MissingManifest { dir });
        }
        // Exclusive ownership before anything destructive: resume ends
        // with a garbage-collection pass over unreferenced shard files,
        // which must never run while another live engine (whose
        // snapshots may read exactly those files) owns the store. A
        // read-only open skips both the lock and the GC — it deletes
        // nothing and can safely coexist with a live writer.
        let lock = if self.read_only { None } else { Some(StoreLock::acquire(&dir, vfs.clone())?) };
        // Base manifest plus the delta log's acknowledged closes (a torn
        // log tail replays its valid prefix; a log bound to a replaced
        // base is ignored — see `crate::manifest`'s delta-log docs).
        let (m, replay) = manifest::read_store_with(&*vfs, &dir)?;
        // A checksum-valid manifest can still carry a configuration the
        // summarizer would refuse (hand-edited store, foreign writer) —
        // recovery must reject it as data, never reach a panic.
        if let Err(detail) = m.config.validate() {
            return Err(Error::CorruptManifest {
                detail: format!("stored stream configuration is invalid: {detail}"),
            });
        }
        let budget = self.resident_budget.unwrap_or(m.resident_budget);

        let mut files = Vec::with_capacity(m.shard_files.len());
        for name in &m.shard_files {
            let path = dir.join(name);
            if !vfs.exists(&path) {
                return Err(Error::MissingShard { path });
            }
            files.push(path);
        }
        let shards = ShardedPointSet::from_spilled_files_with(
            vfs.clone(),
            SpillConfig { dir: dir.clone(), resident_budget: budget },
            &files,
        )?;
        // The manifest and the shard files checksum independently; now
        // check they describe the same checkpoint before handing them to
        // the summarizer (whose constructor treats disagreement as a bug,
        // not an input).
        if shards.len() != m.total_points || shards.n_features() != m.n_features {
            return Err(Error::StoreMismatch {
                detail: format!(
                    "shard files hold {} points over {} features, manifest expects {} over {}",
                    shards.len(),
                    shards.n_features(),
                    m.total_points,
                    m.n_features
                ),
            });
        }
        if shards.len() != m.state.history.distinct_count()
            || shards.n_features() != m.state.history.num_features()
        {
            return Err(Error::StoreMismatch {
                detail: format!(
                    "shard files hold {} points over {} features, history log has {} over {}",
                    shards.len(),
                    shards.n_features(),
                    m.state.history.distinct_count(),
                    m.state.history.num_features()
                ),
            });
        }
        // A checksum-valid manifest can still carry a featurizer journal
        // the miner cannot replay (hand-edited store, foreign writer) —
        // recovery rejects it as data, never a panic.
        let summarizer = StreamSummarizer::from_state(m.config, m.state, shards).map_err(|e| {
            Error::CorruptManifest {
                detail: format!("stored featurizer journal failed to replay: {e}"),
            }
        })?;
        // Garbage-collect shard files the manifest no longer references
        // (left behind by compactions — see `Engine::compact`). Recovery
        // is the one moment no live snapshot can be holding them: the
        // engine has not been assembled yet and any previous process's
        // snapshots died with it. Only files the engine itself owns are
        // touched — a store directory may hold unrelated user files the
        // engine must never delete. Swept alongside unreferenced shards:
        // shard `.tmp` siblings AND the manifest's own `engine.tmp`,
        // both left by a crash between an atomic-replace's write and
        // rename, plus a delta log whose binding no longer matches the
        // base (superseded by a later full persist). A *bound* delta log
        // is never touched here: the fold below has not committed its
        // new base yet, and deleting the log first would lose the
        // acknowledged closes it carries if power fails mid-fold.
        // Best-effort; a file that refuses to delete only costs disk.
        // Read-only opens hold no lock and therefore never delete
        // anything.
        if lock.is_some() {
            let manifest_tmp = Path::new(manifest::FILE_NAME).with_extension("tmp");
            if let Ok(paths) = vfs.list(&dir) {
                for path in paths {
                    let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
                    let orphaned_shard = name.starts_with("shard-")
                        && (name.ends_with(".bin") || name.ends_with(".tmp"))
                        && !m.shard_files.iter().any(|f| f == name);
                    let orphaned_tmp = manifest_tmp.as_os_str() == name;
                    let stale_delta = name == manifest::DELTA_FILE_NAME && !replay.log_bound;
                    if orphaned_shard || orphaned_tmp || stale_delta {
                        let _ = vfs.remove(&path);
                    }
                }
            }
        }
        let read_only = self.read_only;
        let engine =
            Engine::assemble(summarizer, Some(dir.clone()), None, lock, vfs.clone(), read_only);
        if !read_only && replay.records_applied > 0 {
            // Fold the replayed delta records into a fresh base before
            // serving writes, then retire the log: once the checkpoint's
            // rename+sync_dir commits, every acknowledged close lives in
            // the base. A crash in between leaves base' + a now-unbound
            // log — ignored by replay and swept by the next resume's GC.
            engine.checkpoint()?;
            let _ = vfs.remove(&dir.join(manifest::DELTA_FILE_NAME));
        }
        Ok(engine)
    }
}

/// File name of the ownership lock inside a store directory.
const LOCK_FILE: &str = "engine.lock";

/// Exclusive ownership of a store directory, held for an [`Engine`]'s
/// lifetime. Two layers, because the destructive operations (resume-time
/// garbage collection, compaction) assume no one else reads the store:
///
/// * an **in-process registry** — opening the same directory from two
///   `Engine`s in one process is refused outright;
/// * a **pid lock file**, acquired with `O_CREAT | O_EXCL` — the
///   creation either atomically succeeds or atomically loses, so two
///   racing acquisitions can never both hold the file (the
///   read-then-write protocol this replaced could interleave). A lock
///   left by a dead process (crash) is stale; takeover **renames** it to
///   a private name first, re-verifies the renamed file is still the
///   stale lock probed (not a fresh one a racer created in the gap),
///   deletes it, and retries the exclusive create — the rename is
///   atomic, so two racers cannot both reclaim one stale lock. Liveness
///   is probed via `/proc`; on systems without it a foreign lock is
///   treated as live (never stolen) until the operator removes it.
#[derive(Debug)]
struct StoreLock {
    /// Normalized registry key (see [`lock_key`]).
    key: (u64, PathBuf),
    /// The lock file, at the directory spelling the engine opened with —
    /// virtual stores (FaultFs) only know that spelling.
    lock_path: PathBuf,
    vfs: Arc<dyn Vfs>,
}

/// Registry key for a store directory: the filesystem namespace
/// ([`Vfs::fs_id`]) plus the directory. On the real filesystem (id 0)
/// the path is canonicalized, resolving symlinks, when it exists; a
/// virtual namespace knows nothing of real symlinks, and a path that
/// does not exist yet cannot be canonicalized, so both fall back to a
/// lexical normalization — absolute-ized against the working directory
/// with `.` and `..` components folded. Two spellings of one directory
/// (`./store` vs `store`, `/a/../a/store` vs `/a/store`, a symlinked
/// root) can therefore never both pass the in-process exclusivity check,
/// while the same path in two independent in-memory filesystems never
/// collides.
fn lock_key(fs_id: u64, dir: &Path) -> (u64, PathBuf) {
    if fs_id == 0 {
        if let Ok(real) = dir.canonicalize() {
            return (fs_id, real);
        }
    }
    let joined;
    let dir = if dir.is_absolute() {
        dir
    } else {
        joined = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("/")).join(dir);
        &joined
    };
    let mut out = PathBuf::new();
    for comp in dir.components() {
        match comp {
            std::path::Component::CurDir => {}
            std::path::Component::ParentDir => {
                out.pop();
            }
            other => out.push(other),
        }
    }
    (fs_id, out)
}

/// Store directories locked by engines in this process, keyed by
/// [`lock_key`].
static STORE_LOCKS: Mutex<Vec<(u64, PathBuf)>> = Mutex::new(Vec::new());

/// Bound on stale-takeover rounds before reporting the store locked —
/// each round means a racer stole the stale lock first, and a handful of
/// consecutive losses means live contention, not staleness.
const LOCK_TAKEOVER_ROUNDS: usize = 8;

impl StoreLock {
    fn acquire(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<StoreLock, Error> {
        let key = lock_key(vfs.fs_id(), dir);
        {
            let mut held = STORE_LOCKS.lock().map_err(|_| Error::Poisoned)?;
            if held.contains(&key) {
                return Err(Error::StoreLocked { dir: dir.to_path_buf(), pid: std::process::id() });
            }
            held.push(key.clone());
        }
        // In-process claim is ours; now contest the cross-process file.
        // Until create_exclusive succeeds the file is NOT ours, so error
        // paths must release only the registry entry, never the file.
        let release_claim = |key: &(u64, PathBuf)| {
            if let Ok(mut held) = STORE_LOCKS.lock() {
                held.retain(|d| d != key);
            }
        };
        let path = dir.join(LOCK_FILE);
        let payload = format!("{}\n", std::process::id());
        let parse_pid = |bytes: Vec<u8>| -> Option<u32> {
            std::str::from_utf8(&bytes).ok().and_then(|s| s.trim().parse::<u32>().ok())
        };
        for round in 0..LOCK_TAKEOVER_ROUNDS {
            match retry_io(|| vfs.create_exclusive(&path, payload.as_bytes())) {
                Ok(()) => return Ok(StoreLock { key, lock_path: path, vfs }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Contested. Probe the owner recorded in the file; a
                    // vanished file means a racer's Drop just released it
                    // — loop straight back to the exclusive create.
                    let owner = match vfs.read(&path) {
                        Ok(bytes) => parse_pid(bytes),
                        Err(_) => continue,
                    };
                    if let Some(pid) = owner {
                        if pid != std::process::id() && process_alive(pid) {
                            release_claim(&key);
                            return Err(Error::StoreLocked { dir: dir.to_path_buf(), pid });
                        }
                    }
                    // Stale (dead pid, our own crash leftover, or
                    // unparseable). Steal it atomically: rename to a name
                    // only this acquisition knows, re-verify the stolen
                    // file is the same stale lock (a racer may have
                    // replaced it with a fresh one between read and
                    // rename), then delete and retry. Losing the rename
                    // means a racer reclaimed it first — just retry.
                    let steal =
                        dir.join(format!("{LOCK_FILE}.{}-{round:02}.stale", std::process::id()));
                    // lint:allow(sync-protocol): advisory lock file — atomicity matters, durability does not; a lock lost to power-off is correctly stale
                    if vfs.rename(&path, &steal).is_ok() {
                        let stolen = vfs.read(&steal).ok().and_then(parse_pid);
                        if stolen == owner {
                            let _ = vfs.remove(&steal);
                        } else {
                            // We stole a fresh lock — put it back and
                            // report its owner.
                            // lint:allow(sync-protocol): restoring an advisory lock we stole by mistake; same non-durable contract as the steal above
                            let _ = vfs.rename(&steal, &path);
                            release_claim(&key);
                            return Err(Error::StoreLocked {
                                dir: dir.to_path_buf(),
                                pid: stolen.unwrap_or(0),
                            });
                        }
                    }
                }
                Err(e) => {
                    release_claim(&key);
                    return Err(e.into());
                }
            }
        }
        release_claim(&key);
        Err(Error::StoreLocked { dir: dir.to_path_buf(), pid: 0 })
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        if let Ok(mut held) = STORE_LOCKS.lock() {
            held.retain(|d| d != &self.key);
        }
        let _ = self.vfs.remove(&self.lock_path);
    }
}

/// Best-effort liveness probe for a pid (Linux `/proc`; `false` — i.e.
/// stale — where that does not exist).
fn process_alive(pid: u32) -> bool {
    Path::new("/proc").exists() && Path::new(&format!("/proc/{pid}")).exists()
}

/// An immutable, internally consistent view of the engine at one window
/// boundary, shared by `Arc`: history and baseline logs, the sharded
/// distance structure (cheap `Arc`-per-slot clone; spilled shards reload
/// read-only through the snapshot's own cache), and the last closed
/// window. Reader threads hold snapshots across any number of queries;
/// the writer never blocks on them and never mutates what they see.
#[derive(Debug)]
pub struct EngineSnapshot {
    config: StreamConfig,
    windows_closed: usize,
    buffered: u64,
    history: Arc<QueryLog>,
    baseline: Arc<QueryLog>,
    shards: Arc<ShardedPointSet>,
    last_window: Option<Arc<WindowSummary>>,
    /// Memoized history summary: computed by the first reader that asks
    /// (clustering over the merged condensed matrix — no distance is
    /// recomputed), shared by every later one. Errors are not memoized —
    /// a reload failure may be transient.
    summary: Mutex<Option<Arc<LogRSummary>>>,
}

impl EngineSnapshot {
    fn capture(s: &StreamSummarizer, last_window: Option<Arc<WindowSummary>>) -> Self {
        EngineSnapshot {
            config: *s.config(),
            windows_closed: s.windows_closed(),
            buffered: s.buffered_queries(),
            // O(1) publication: the logs are shared, not cloned — the
            // summarizer's next close copies them out from under the
            // snapshot (`Arc::make_mut`), so capture cost no longer
            // grows with the distinct-query count.
            history: s.history_arc(),
            baseline: s.baseline_arc(),
            shards: Arc::new(s.shard_store().clone()),
            last_window,
            summary: Mutex::new(None),
        }
    }

    /// Windows closed when the snapshot was taken.
    pub fn windows_closed(&self) -> usize {
        self.windows_closed
    }

    /// The source (featurizer) configuration the engine runs — the
    /// builder's [`EngineBuilder::source`] on fresh stores, the
    /// manifest's stored source after [`EngineBuilder::resume`].
    pub fn source(&self) -> SourceConfig {
        self.config.source
    }

    /// Total queries as of the snapshot's window boundary (absorbed
    /// history plus the queries buffered when it was taken). Snapshots
    /// publish at closes, so records buffered since then are not counted
    /// — [`Engine::total_queries`] reads the live count.
    pub fn total_queries(&self) -> u64 {
        self.history.total_queries() + self.buffered
    }

    /// Queries buffered toward the next window close.
    pub fn buffered_queries(&self) -> u64 {
        self.buffered
    }

    /// The absorbed history log (every closed window).
    pub fn history(&self) -> &QueryLog {
        &self.history
    }

    /// The rolling drift baseline.
    pub fn baseline(&self) -> &QueryLog {
        &self.baseline
    }

    /// The last closed window's full artifacts, if any window has closed.
    pub fn last_window(&self) -> Option<&WindowSummary> {
        self.last_window.as_deref()
    }

    /// The last closed window's drift report.
    pub fn drift(&self) -> Option<&DriftReport> {
        self.last_window.as_deref().and_then(|w| w.drift.as_ref())
    }

    /// The last closed window's per-query novelty scores.
    pub fn novelty(&self) -> &[f64] {
        self.last_window.as_deref().map_or(&[], |w| &w.novelty)
    }

    /// Pattern mixture summary of everything seen so far, clustered over
    /// the sharded history's merged condensed matrix — bit-identical to
    /// [`StreamSummarizer::history_summary`] at the same boundary.
    /// Computed once per snapshot (first caller pays; concurrent callers
    /// wait and share), `None` before any distinct query was absorbed.
    pub fn summary(&self) -> Result<Option<Arc<LogRSummary>>, Error> {
        if self.history.distinct_count() == 0 {
            return Ok(None);
        }
        let mut slot = self.summary.lock().map_err(|_| Error::Poisoned)?;
        if let Some(s) = &*slot {
            return Ok(Some(s.clone()));
        }
        let dist = self.shards.condensed(self.config.metric)?;
        // The identical compressor StreamSummarizer::history_summary
        // builds — one shared definition, so the documented bit-identity
        // cannot silently drift.
        let compressor = LogR::new(self.config.compressor_config());
        let s = Arc::new(compressor.compress_condensed(&self.history, dist));
        *slot = Some(s.clone());
        Ok(Some(s))
    }

    /// A summary recompressed under a different [`CompressionObjective`]
    /// at read time — the trade-off knob without touching the stream
    /// configuration. Possible because the sharded history's condensed
    /// matrix serves every K through one dendrogram (no distance is
    /// recomputed); unlike [`EngineSnapshot::summary`] the result is
    /// **not** memoized, so each call pays one clustering.
    pub fn summary_with(
        &self,
        objective: CompressionObjective,
    ) -> Result<Option<Arc<LogRSummary>>, Error> {
        if self.history.distinct_count() == 0 {
            return Ok(None);
        }
        let dist = self.shards.condensed(self.config.metric)?;
        let mut config = self.config.compressor_config();
        config.objective = objective;
        Ok(Some(Arc::new(LogR::new(config).compress_condensed(&self.history, dist))))
    }

    /// The whole Error/Verbosity trade-off curve in one clustering:
    /// nested summaries at every requested K, cut from one dendrogram
    /// over the merged condensed matrix (see
    /// [`LogR::compress_condensed_multiresolution`]). Empty before any
    /// distinct query was absorbed.
    pub fn multiresolution(&self, ks: &[usize]) -> Result<Vec<LogRSummary>, Error> {
        if self.history.distinct_count() == 0 {
            return Ok(Vec::new());
        }
        let dist = self.shards.condensed(self.config.metric)?;
        let compressor = LogR::new(self.config.compressor_config());
        Ok(compressor.compress_condensed_multiresolution(&self.history, dist, ks))
    }

    /// The typed estimation surface over this snapshot's summary: build
    /// [`crate::analytics::Pred`] predicates and evaluate
    /// frequency/conditional/co-occurrence/top-k through the returned
    /// [`WorkloadQuery`]. `None` before the first distinct query.
    pub fn query(&self) -> Result<Option<WorkloadQuery<'_>>, Error> {
        WorkloadQuery::over(self)
    }

    /// A self-contained portable artifact of the current summary (ship
    /// it, drop the log) — `None` before the first close.
    pub fn portable(&self) -> Result<Option<PortableSummary>, Error> {
        Ok(self.summary()?.map(|s| PortableSummary::from_summary(&s, &self.history)))
    }
}

/// Every snapshot is a [`WorkloadView`], so any
/// [`crate::analytics::Advisor`] (and [`WorkloadQuery`]) runs off reader
/// threads concurrently with ingestion.
impl WorkloadView for EngineSnapshot {
    fn summary(&self) -> Result<Option<Arc<LogRSummary>>, Error> {
        EngineSnapshot::summary(self)
    }

    fn codebook(&self) -> &Codebook {
        self.history.codebook()
    }

    fn summarized_queries(&self) -> u64 {
        // The summary covers absorbed history only — buffered queries of
        // the open window are not in it (unlike `total_queries`).
        self.history.total_queries()
    }

    fn drift(&self) -> Option<&DriftReport> {
        EngineSnapshot::drift(self)
    }

    fn baseline_codebook(&self) -> Option<&Codebook> {
        Some(self.baseline.codebook())
    }
}

/// Writer-side state, serialized behind one lock.
#[derive(Debug)]
struct WriterState {
    summarizer: StreamSummarizer,
    /// The newest closed window, carried across snapshots taken between
    /// closes.
    last_window: Option<Arc<WindowSummary>>,
    /// The live delta-log session: the append log bound to the current
    /// base manifest, plus the shard-file names the base and its records
    /// have acknowledged so far. `None` until a full persist establishes
    /// a base (and again after any append failure — the next persist
    /// then rewrites the base instead of extending a log whose tail may
    /// be torn).
    delta: Option<DeltaSession>,
}

/// One base manifest's append-log session (see [`WriterState::delta`]).
#[derive(Debug)]
struct DeltaSession {
    log: DeltaLog,
    /// Shard-file names acknowledged by the base plus every appended
    /// record, in manifest order — the prefix the next record's file
    /// list must extend.
    shard_files: Vec<String>,
}

/// Delta records accumulate until the log outgrows
/// `max(DELTA_FOLD_MIN_BYTES, base manifest size)`, then the next close
/// folds everything into a fresh base. Replay work at resume therefore
/// stays proportional to one base rewrite, while small stores don't
/// rewrite a tiny base every few closes.
const DELTA_FOLD_MIN_BYTES: u64 = 64 * 1024;

/// One durable, concurrent session over a query workload — see the
/// module docs. Share it as `Arc<Engine>`: ingestion entry points take
/// `&self` (one writer at a time proceeds; they serialize on an internal
/// lock), and [`Engine::snapshot`] hands any number of reader threads a
/// consistent view without blocking the writer.
#[derive(Debug)]
pub struct Engine {
    dir: Option<PathBuf>,
    state: Mutex<WriterState>,
    published: RwLock<Arc<EngineSnapshot>>,
    /// Storage layer every manifest write/read goes through (shard I/O
    /// carries its own handle inside the summarizer's shard store).
    vfs: Arc<dyn Vfs>,
    /// Opened via [`EngineBuilder::read_only`]: no lock is held and every
    /// write entry point returns [`Error::ReadOnly`].
    read_only: bool,
    /// Exclusive store ownership, released (registry entry + lock file)
    /// when the engine drops. `None` for in-memory and read-only engines.
    _lock: Option<StoreLock>,
}

impl Engine {
    /// Start configuring a session.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Shorthand: [`EngineBuilder::in_memory`] with defaults.
    pub fn in_memory() -> Result<Engine, Error> {
        EngineBuilder::new().in_memory()
    }

    /// Shorthand: [`EngineBuilder::open`] with defaults.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Engine, Error> {
        EngineBuilder::new().open(dir)
    }

    fn assemble(
        summarizer: StreamSummarizer,
        dir: Option<PathBuf>,
        last_window: Option<Arc<WindowSummary>>,
        lock: Option<StoreLock>,
        vfs: Arc<dyn Vfs>,
        read_only: bool,
    ) -> Engine {
        let snapshot = Arc::new(EngineSnapshot::capture(&summarizer, last_window.clone()));
        Engine {
            dir,
            state: Mutex::new(WriterState { summarizer, last_window, delta: None }),
            published: RwLock::new(snapshot),
            vfs,
            read_only,
            _lock: lock,
        }
    }

    /// The store directory (`None` for in-memory engines).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// True when the engine was opened via [`EngineBuilder::read_only`].
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Refuse writes on a read-only engine.
    fn check_writable(&self) -> Result<(), Error> {
        if self.read_only {
            return Err(Error::ReadOnly);
        }
        Ok(())
    }

    /// Ingest one record (multiplicity 1) — shorthand for
    /// [`Engine::ingest_with`]`(text, 1, None)`. Returns the closed
    /// window's artifacts when this record completes a window — at which point
    /// a new snapshot is published and, on durable engines, the store is
    /// checkpointed.
    ///
    /// # Error semantics
    ///
    /// An [`Error::Spill`] means the window close itself failed and the
    /// stream is wedged (reopen from the store). Any *other* error from
    /// an ingest entry point arrives **after** the close took effect in
    /// memory: the record was ingested and the window closed — do not
    /// re-ingest it (that would count it twice). Two failure stages
    /// share that shape: a snapshot-publication failure
    /// ([`Error::Poisoned`] — persistence is still attempted before the
    /// error surfaces, so durability may well have advanced), and a
    /// persistence failure (the new snapshot is already published with
    /// the closed window's artifacts on it
    /// ([`EngineSnapshot::last_window`]) — only durability did not
    /// advance). Either way a later close or [`Engine::checkpoint`]
    /// retries persistence, and recovery meanwhile resumes from the last
    /// durable state.
    pub fn ingest(&self, text: &str) -> Result<Option<Arc<WindowSummary>>, Error> {
        self.ingest_with(text, 1, None)
    }

    /// Ingest one record occurring `count` times — the one write path.
    /// The record is raw text for the engine's configured source (a SQL
    /// statement, or a free-form service-log line on a template-source
    /// engine); `ts_ms` is its arrival time for time-based windows, with
    /// `None` stamping the system clock (see
    /// [`StreamSummarizer::ingest_with`]). Error semantics are those of
    /// [`Engine::ingest`].
    pub fn ingest_with(
        &self,
        text: &str,
        count: u64,
        ts_ms: Option<u64>,
    ) -> Result<Option<Arc<WindowSummary>>, Error> {
        self.check_writable()?;
        let mut st = self.state.lock().map_err(|_| Error::Poisoned)?;
        let closed = st.summarizer.ingest_with(text, count, ts_ms)?;
        self.after_ingest(&mut st, closed)
    }

    /// The same call as [`Engine::ingest`], under the name the `perfbench`
    /// harness uses; new code calls [`Engine::ingest`].
    pub fn ingest_record(&self, text: &str) -> Result<Option<Arc<WindowSummary>>, Error> {
        self.ingest(text)
    }

    /// Close a partial window (end of batch / forced boundary). `None`
    /// when nothing arrived since the last close.
    pub fn flush(&self) -> Result<Option<Arc<WindowSummary>>, Error> {
        self.check_writable()?;
        let mut st = self.state.lock().map_err(|_| Error::Poisoned)?;
        let closed = st.summarizer.flush()?;
        self.after_ingest(&mut st, closed)
    }

    fn after_ingest(
        &self,
        st: &mut WriterState,
        closed: Option<WindowSummary>,
    ) -> Result<Option<Arc<WindowSummary>>, Error> {
        let Some(w) = closed else { return Ok(None) };
        let w = Arc::new(w);
        st.last_window = Some(w.clone());
        // Publish before persisting: the close already happened in
        // memory, so readers must see it (and its artifacts must not be
        // lost) even when the checkpoint write below fails. Persistence
        // is attempted even when publication fails (a poisoned reader
        // lock must not cost durability — the ingest error contract
        // promises the checkpoint was tried); the publish error wins the
        // return because it reflects the earlier stage.
        let published = self.publish(st);
        let persisted = self.persist_close(st);
        published?;
        persisted?;
        Ok(Some(w))
    }

    /// Every shard's store-file name, in shard order — the manifest's
    /// `shard_files` list (and the prefix a delta record extends).
    fn shard_file_names(summarizer: &StreamSummarizer) -> Result<Vec<String>, Error> {
        let shards = summarizer.shard_store();
        let mut shard_files = Vec::with_capacity(shards.n_shards());
        for s in 0..shards.n_shards() {
            let path = shards.shard_file(s).ok_or_else(|| Error::StoreMismatch {
                detail: format!("persist_shards left shard {s} without a store file"),
            })?;
            let name =
                path.file_name().and_then(|n| n.to_str()).ok_or_else(|| Error::StoreMismatch {
                    detail: format!("spill file for shard {s} has a non-UTF-8 name: {path:?}"),
                })?;
            shard_files.push(name.to_string());
        }
        Ok(shard_files)
    }

    /// Persist the **full** state (durable engines; no-op in memory):
    /// every history shard gets a store file, then the base manifest is
    /// atomically replaced and a fresh delta-log session starts. A crash
    /// between the two leaves the previous manifest pointing at its own
    /// (still present, write-once) files. A delta log extending the
    /// replaced base is *not* deleted here — its binding checksum no
    /// longer matches, so replay ignores it, and the next writable
    /// resume's GC sweeps it (removal now would be an extra namespace op
    /// on the hot path for a file that is already inert).
    fn persist_full(&self, st: &mut WriterState) -> Result<(), Error> {
        let Some(dir) = &self.dir else { return Ok(()) };
        // Until the new base commits there is no log to extend: an error
        // below must leave the next persist rewriting the base again.
        st.delta = None;
        st.summarizer.persist_shards()?;
        let shard_files = Self::shard_file_names(&st.summarizer)?;
        let shards = st.summarizer.shard_store();
        let budget = shards.spill_config().map(|c| c.resident_budget).unwrap_or(usize::MAX);
        let m = Manifest {
            config: *st.summarizer.config(),
            resident_budget: budget,
            state: st.summarizer.export_state(),
            n_features: shards.n_features(),
            total_points: shards.len(),
            shard_files: shard_files.clone(),
        };
        let log = manifest::write_base_with(&*self.vfs, &dir.join(manifest::FILE_NAME), &m)?;
        st.delta = Some(DeltaSession { log, shard_files });
        Ok(())
    }

    /// Persist one window close (durable engines; no-op in memory): the
    /// `O(window)` path. When a delta-log session is live and the close
    /// recorded its [`logr_core::CloseDelta`], one checksummed record is
    /// appended and fsynced — the base manifest is untouched. Falls back
    /// to [`Engine::persist_full`] when there is no session (first
    /// persist, or a previous failure), no recorded close (forced
    /// checkpoints take this route too), the log has outgrown its fold
    /// threshold, or the shard-file list no longer extends the
    /// acknowledged prefix (compaction renames the whole set).
    fn persist_close(&self, st: &mut WriterState) -> Result<(), Error> {
        let Some(dir) = self.dir.clone() else { return Ok(()) };
        let close = st.summarizer.take_close_delta();
        let fold_due = match (&st.delta, &close) {
            (Some(session), Some(_)) => {
                session.log.appended_bytes() >= DELTA_FOLD_MIN_BYTES.max(session.log.base_len())
            }
            _ => true,
        };
        if fold_due {
            // The taken close (if any) is folded into the fresh base —
            // persist_full re-exports the whole state, close included.
            return self.persist_full(st);
        }
        st.summarizer.persist_shards()?;
        let shard_files = Self::shard_file_names(&st.summarizer)?;
        // `fold_due` covered both `None`s; these fallbacks exist so the
        // write path can never panic.
        let (Some(mut session), Some(close)) = (st.delta.take(), close) else {
            return self.persist_full(st);
        };
        if shard_files.len() < session.shard_files.len()
            || shard_files[..session.shard_files.len()] != session.shard_files[..]
        {
            // The store's file set was rewritten under the session
            // (compaction without a close, store surgery): a record can
            // only *extend* the acknowledged list, so rewrite the base.
            return self.persist_full(st);
        }
        let shards = st.summarizer.shard_store();
        let record = DeltaRecord {
            seq: 0, // assigned by the log at append time
            windows_closed: close.windows_closed,
            since_close: close.since_close,
            last_ts_ms: close.last_ts_ms,
            next_close_ms: close.next_close_ms,
            statements_parsed: close.statements_parsed,
            buffer: close.buffer,
            pending: close.pending,
            stride_log: close.stride_log,
            window_queries: close.window_queries,
            overlap_span: close.overlap_span,
            new_shard_files: shard_files[session.shard_files.len()..].to_vec(),
            n_features: shards.n_features(),
            total_points: shards.len(),
            source_events: close.source_events,
        };
        match session.log.append_with(&*self.vfs, &dir, &record) {
            Ok(()) => {
                session.shard_files = shard_files;
                st.delta = Some(session);
                Ok(())
            }
            // The log's tail may be torn mid-frame; replay tolerates
            // that (the acknowledged prefix survives), but a second
            // append would land misaligned bytes after it — the session
            // stays abandoned (taken above), so the next persist
            // rewrites the base.
            Err(e) => Err(e),
        }
    }

    /// Publish a fresh snapshot for readers.
    fn publish(&self, st: &WriterState) -> Result<(), Error> {
        let snapshot = Arc::new(EngineSnapshot::capture(&st.summarizer, st.last_window.clone()));
        *self.published.write().map_err(|_| Error::Poisoned)? = snapshot;
        Ok(())
    }

    /// The current published snapshot — a cheap `Arc` clone that never
    /// blocks on the writer beyond the publish pointer swap. Snapshots
    /// advance at window closes (and checkpoints/compactions), so a
    /// reader sees the state as of the latest boundary, never a torn
    /// mid-close intermediate.
    pub fn snapshot(&self) -> Result<Arc<EngineSnapshot>, Error> {
        Ok(self.published.read().map_err(|_| Error::Poisoned)?.clone())
    }

    /// Total queries ingested so far: the absorbed history plus the open
    /// window's buffered queries, read from the writer's live state (a
    /// snapshot's count stops at its window boundary — see
    /// [`EngineSnapshot::total_queries`]).
    pub fn total_queries(&self) -> Result<u64, Error> {
        let st = self.state.lock().map_err(|_| Error::Poisoned)?;
        Ok(st.summarizer.history().total_queries() + st.summarizer.buffered_queries())
    }

    /// Persist everything **including the half-filled window buffer** to
    /// the store, so [`Engine::open`] resumes bit-identically from this
    /// exact point (ingestion between closes otherwise persists at window
    /// granularity). This is also the **fold** point of the delta log:
    /// the accumulated per-close records collapse into a fresh base
    /// manifest and a new, empty append session starts.
    /// [`Error::NotDurable`] on in-memory engines.
    pub fn checkpoint(&self) -> Result<(), Error> {
        self.check_writable()?;
        if self.dir.is_none() {
            return Err(Error::NotDurable);
        }
        let mut st = self.state.lock().map_err(|_| Error::Poisoned)?;
        self.persist_full(&mut st)?;
        self.publish(&st)
    }

    /// Merge the history's many per-window shards (and store files) into
    /// one — bit-identical reads at a fraction of the per-shard reload
    /// and bookkeeping overhead. On durable engines the manifest is
    /// rewritten to reference only the merged file; the replaced files
    /// are left on disk, because snapshots handed out **before** the
    /// compaction still read from them — [`EngineBuilder::resume`]
    /// garbage-collects unreferenced shard files on the next open, when
    /// no snapshot can exist. Returns how many shards were merged
    /// (0 = nothing to do).
    pub fn compact(&self) -> Result<usize, Error> {
        self.check_writable()?;
        let mut st = self.state.lock().map_err(|_| Error::Poisoned)?;
        let stats = st.summarizer.compact_shards()?;
        if stats.shards_merged == 0 {
            return Ok(0);
        }
        // Compaction rewrites the shard-file set wholesale, which no
        // delta record can express — fold into a fresh base.
        self.persist_full(&mut st)?;
        self.publish(&st)?;
        Ok(stats.shards_merged)
    }

    /// History shards currently on disk only (0 for in-memory engines).
    pub fn spilled_shards(&self) -> Result<usize, Error> {
        let st = self.state.lock().map_err(|_| Error::Poisoned)?;
        Ok(st.summarizer.spilled_shards())
    }

    /// Resident history-shard payload bytes.
    pub fn resident_shard_bytes(&self) -> Result<usize, Error> {
        let st = self.state.lock().map_err(|_| Error::Poisoned)?;
        Ok(st.summarizer.resident_shard_bytes())
    }

    /// Re-bound the resident-byte budget of this engine's spill store,
    /// enforcing the new bound immediately (shrinking evicts resident
    /// shards oldest-first). No-op for in-memory engines, which have no
    /// spill store. Summaries and on-disk contents are unaffected — the
    /// budget governs only which shard payloads stay resident, which is
    /// what lets a multi-tenant host re-apportion one global budget
    /// across engines as tenants come and go.
    pub fn set_resident_budget(&self, bytes: usize) -> Result<(), Error> {
        let mut st = self.state.lock().map_err(|_| Error::Poisoned)?;
        st.summarizer.set_resident_budget(bytes)?;
        Ok(())
    }
}
