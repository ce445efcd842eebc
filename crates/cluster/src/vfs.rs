//! Injectable storage layer: every file the spill store, the engine
//! manifest, and the engine lock touch goes through the [`Vfs`] trait.
//!
//! Production code runs on [`RealFs`], a thin passthrough to `std::fs`.
//! Tests run on [`FaultFs`], an in-memory filesystem that (1) **records**
//! the full trace of mutating IO ops — including which writes were
//! fsynced — so a power-cut replay harness can materialize the surviving
//! on-disk state after a crash at *any* point in the trace
//! ([`durable_state`]), and (2) **injects** transient or permanent
//! failures (`EINTR`, `EAGAIN`, `ENOSPC`, `EIO`, …) at chosen call sites
//! ([`FaultFs::inject`]) to prove the write path retries what is
//! retryable and surfaces everything else as a typed error with the store
//! left openable.
//!
//! # The durability model behind [`durable_state`]
//!
//! The simulator distinguishes the **page cache** (what a running process
//! observes) from the **platter** (what survives a power cut), with the
//! adversarial POSIX rules crash-consistency literature assumes:
//!
//! * a [`Vfs::write`] lands in cache only — after a crash the file's
//!   *previous* durable content survives (or a zero-length file, if the
//!   file was never fsynced under any name);
//! * a [`Vfs::append`] extends the cache view only; after a crash the
//!   previously durable content survives unchanged, and a torn final
//!   append can leave half the suffix behind it — which is why the
//!   delta-log framing checksums every record;
//! * [`Vfs::fsync`] makes the file's current **content** durable, but not
//!   the directory entry pointing at it;
//! * [`Vfs::rename`] / [`Vfs::remove`] / file creation are **namespace**
//!   ops: visible immediately in cache, durable only after a
//!   [`Vfs::sync_dir`] of the parent directory;
//! * rename moves the *inode*, so content fsynced under the old name is
//!   intact under the new one.
//!
//! A crash state for a trace prefix is therefore: the durable namespace,
//! each entry resolving to its inode's last-fsynced content (zero-length
//! when the inode was never fsynced). On top of the pessimistic base
//! state, [`LastOpVariant`] materializes the optimistic and torn outcomes
//! of the prefix's final op — a write whose pages happened to hit disk
//! (fully or torn in half), a rename the journal committed early — so the
//! harness covers both "the op was lost" and "the op survived without the
//! fsync" for every single op in a run.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Whole-file storage operations, at exactly the granularity the store
/// uses them (`std::fs::write`-style full replacement, never seeks).
/// Implementations must be shareable across threads — snapshots reload
/// spilled shards from reader threads while the writer appends.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Read a file's entire contents.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create-or-truncate `path` and write `bytes`. **No durability** is
    /// implied — pair with [`Vfs::fsync`] (and, for the name itself,
    /// [`Vfs::sync_dir`]).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append `bytes` to `path`, creating it if missing. **No
    /// durability** is implied — pair with [`Vfs::fsync`]. The one
    /// sequential-growth primitive the delta log needs; everything else
    /// in the store remains whole-file replacement.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flush a file's content to stable storage (`fsync`).
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Direct children of `dir` that are files.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Create `dir` and any missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Flush `dir`'s entries to stable storage — what makes renames,
    /// removals, and creations in it survive a power cut.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Does `path` name an existing file or directory?
    fn exists(&self, path: &Path) -> bool;
    /// Create `path` **exclusively** (`O_CREAT | O_EXCL`) with `bytes` as
    /// content; [`io::ErrorKind::AlreadyExists`] when it exists. The
    /// primitive cross-process lock acquisition is built on — unlike
    /// read-then-write, two racing creators cannot both succeed.
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// The namespace this handle's paths live in: 0 (the default) for
    /// the real filesystem, a process-unique nonzero id for each
    /// in-memory filesystem. Handles with equal ids see the same files,
    /// so anything keyed by path (the engine's store-lock registry) keys
    /// by `(fs_id, path)` — one virtual `/srv` must not collide with
    /// another. Wrappers forward their inner handle's id.
    fn fs_id(&self) -> u64 {
        0
    }
}

/// The default [`Vfs`]: a passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).create(true).open(path)?;
        f.write_all(bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        // Opening read-only is enough to fsync on every Unix; the handle
        // is fresh, but fsync flushes the *inode*, not the descriptor's
        // private view, so this is equivalent to syncing the write handle.
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_file() {
                out.push(path);
            }
        }
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is POSIX-only plumbing; where a directory
        // cannot be opened the rename is still atomic, just not yet
        // durable — degrade silently rather than fail the write path.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_all(bytes)
    }
}

/// The process-wide default [`Vfs`] handle ([`RealFs`]).
pub fn default_vfs() -> Arc<dyn Vfs> {
    Arc::new(RealFs)
}

// ---- transient-fault policy -------------------------------------------

/// Attempts [`retry_io`] makes before giving up on a transient error.
pub const IO_RETRY_ATTEMPTS: usize = 6;

/// Is this error worth retrying? `EINTR` (a signal landed mid-syscall)
/// and `EAGAIN`/`EWOULDBLOCK` (a transiently saturated resource) are the
/// classic transients; everything else — `ENOSPC` included — reflects a
/// state retrying cannot fix and must surface immediately as a typed
/// error.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock)
}

/// Run `op`, retrying transient failures ([`is_transient`]) up to
/// [`IO_RETRY_ATTEMPTS`] times with doubling backoff (100 µs start, 5 ms
/// cap — a few milliseconds worst case, never an unbounded stall on the
/// write path). The last error is returned unchanged, so callers still
/// see the real [`io::ErrorKind`] for classification.
pub fn retry_io<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay = Duration::from_micros(100);
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if attempt + 1 < IO_RETRY_ATTEMPTS && is_transient(&e) => {
                attempt += 1;
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(5));
            }
            other => return other,
        }
    }
}

// ---- the fault-injecting, trace-recording test filesystem -------------

/// One mutating IO operation, as recorded by [`FaultFs`]. Read-only ops
/// (read/list/exists) have no durability footprint and are not traced, so
/// a trace prefix is exactly "the state after the first `k` mutations".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOp {
    /// Create-or-truncate with full new content (cache only).
    Write {
        /// Target file.
        path: PathBuf,
        /// The full content written.
        bytes: Vec<u8>,
    },
    /// Sequential extension of an existing (or fresh) file (cache only).
    Append {
        /// Target file.
        path: PathBuf,
        /// The bytes appended after the previous content.
        bytes: Vec<u8>,
    },
    /// Content flush of one file.
    Fsync {
        /// The flushed file.
        path: PathBuf,
    },
    /// Atomic rename (namespace op).
    Rename {
        /// Old name.
        from: PathBuf,
        /// New name (replaced if present).
        to: PathBuf,
    },
    /// File removal (namespace op).
    Remove {
        /// The removed file.
        path: PathBuf,
    },
    /// Directory creation (modeled durable immediately).
    CreateDirAll {
        /// The created directory.
        dir: PathBuf,
    },
    /// Directory-entry flush — what makes renames/removals/creations in
    /// `dir` durable.
    SyncDir {
        /// The flushed directory.
        dir: PathBuf,
    },
    /// Exclusive creation (`O_EXCL`) with content (cache only, like
    /// [`IoOp::Write`]).
    CreateExclusive {
        /// Target file.
        path: PathBuf,
        /// The content written.
        bytes: Vec<u8>,
    },
}

impl IoOp {
    /// The op's kind, for fault matching.
    pub fn kind(&self) -> OpKind {
        match self {
            IoOp::Write { .. } => OpKind::Write,
            IoOp::Append { .. } => OpKind::Append,
            IoOp::Fsync { .. } => OpKind::Fsync,
            IoOp::Rename { .. } => OpKind::Rename,
            IoOp::Remove { .. } => OpKind::Remove,
            IoOp::CreateDirAll { .. } => OpKind::CreateDirAll,
            IoOp::SyncDir { .. } => OpKind::SyncDir,
            IoOp::CreateExclusive { .. } => OpKind::CreateExclusive,
        }
    }
}

/// Operation kinds a [`FaultFs`] fault rule can match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`Vfs::read`] (not traced, but faultable).
    Read,
    /// [`Vfs::write`].
    Write,
    /// [`Vfs::append`].
    Append,
    /// [`Vfs::fsync`].
    Fsync,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::remove`].
    Remove,
    /// [`Vfs::list`] (not traced, but faultable).
    List,
    /// [`Vfs::create_dir_all`].
    CreateDirAll,
    /// [`Vfs::sync_dir`].
    SyncDir,
    /// [`Vfs::create_exclusive`].
    CreateExclusive,
}

/// One injected-failure rule: the next `remaining` operations matching
/// `kind` whose primary path contains `path_contains` fail with `error`.
#[derive(Debug, Clone)]
struct FaultRule {
    kind: OpKind,
    path_contains: String,
    error: io::ErrorKind,
    remaining: usize,
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
    trace: Vec<IoOp>,
    faults: Vec<FaultRule>,
}

/// In-memory [`Vfs`] for fault testing: records every mutating op (see
/// [`IoOp`]) and injects failures on demand ([`FaultFs`::inject]). Pair
/// with [`durable_state`] to materialize what a power cut at any trace
/// point leaves behind, then open an engine directly on the materialized
/// state via [`FaultFs::from_files`] — no real disk is touched anywhere
/// in the loop.
#[derive(Debug)]
pub struct FaultFs {
    state: Mutex<FaultState>,
    /// This namespace's [`Vfs::fs_id`], unique in the process.
    id: u64,
}

/// Next [`FaultFs`] namespace id; 0 is the real filesystem's.
static NEXT_FAULT_FS_ID: AtomicU64 = AtomicU64::new(1);

impl Default for FaultFs {
    fn default() -> Self {
        FaultFs::from_files(BTreeMap::new(), BTreeSet::new())
    }
}

impl FaultFs {
    /// An empty filesystem (no files, no directories, no faults).
    pub fn new() -> Self {
        FaultFs::default()
    }

    /// A filesystem pre-populated with `files` and `dirs` — the shape
    /// [`durable_state`] returns, so a crash state plugs straight back
    /// into `Engine::open`.
    pub fn from_files(files: BTreeMap<PathBuf, Vec<u8>>, dirs: BTreeSet<PathBuf>) -> Self {
        FaultFs {
            state: Mutex::new(FaultState { files, dirs, trace: Vec::new(), faults: Vec::new() }),
            id: NEXT_FAULT_FS_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Inject a failure: the next `times` ops matching (`kind`, path
    /// containing `path_contains`) fail with `error`. Rules stack; the
    /// first matching rule fires and is consumed once per op.
    pub fn inject(&self, kind: OpKind, path_contains: &str, error: io::ErrorKind, times: usize) {
        self.lock().faults.push(FaultRule {
            kind,
            path_contains: path_contains.to_string(),
            error,
            remaining: times,
        });
    }

    /// Drop every pending fault rule.
    pub fn clear_faults(&self) {
        self.lock().faults.clear();
    }

    /// The recorded mutating-op trace so far.
    pub fn trace(&self) -> Vec<IoOp> {
        self.lock().trace.clone()
    }

    /// Number of mutating ops recorded so far.
    pub fn trace_len(&self) -> usize {
        self.lock().trace.len()
    }

    /// Snapshot of the **cache** view (what a running process sees) —
    /// after a clean shutdown with everything synced, this equals the
    /// durable state.
    pub fn files(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.lock().files.clone()
    }

    /// Snapshot of the directory set.
    pub fn dirs(&self) -> BTreeSet<PathBuf> {
        self.lock().dirs.clone()
    }

    /// Fire the first matching fault rule, if any.
    fn check_fault(state: &mut FaultState, kind: OpKind, path: &Path) -> io::Result<()> {
        let text = path.to_string_lossy();
        for (i, rule) in state.faults.iter_mut().enumerate() {
            if rule.kind == kind && text.contains(&rule.path_contains) {
                rule.remaining -= 1;
                let error = rule.error;
                if rule.remaining == 0 {
                    state.faults.remove(i);
                }
                return Err(io::Error::new(
                    error,
                    format!("injected {kind:?} fault on {}", path.display()),
                ));
            }
        }
        Ok(())
    }

    fn parent_exists(state: &FaultState, path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => {
                if state.dirs.contains(parent) {
                    Ok(())
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no such directory: {}", parent.display()),
                    ))
                }
            }
            _ => Ok(()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // lint:allow(no-panic-paths): FaultFs is the fault-injection test double; a poisoned mutex means a prior test panicked mid-op, and aborting the test loudly beats limping on with torn state
        self.state.lock().expect("FaultFs state poisoned")
    }
}

impl Vfs for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::Read, path)?;
        state.files.get(path).cloned().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
        })
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::Write, path)?;
        FaultFs::parent_exists(&state, path)?;
        state.files.insert(path.to_path_buf(), bytes.to_vec());
        state.trace.push(IoOp::Write { path: path.to_path_buf(), bytes: bytes.to_vec() });
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::Append, path)?;
        FaultFs::parent_exists(&state, path)?;
        state.files.entry(path.to_path_buf()).or_default().extend_from_slice(bytes);
        state.trace.push(IoOp::Append { path: path.to_path_buf(), bytes: bytes.to_vec() });
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::Fsync, path)?;
        if !state.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {}", path.display()),
            ));
        }
        state.trace.push(IoOp::Fsync { path: path.to_path_buf() });
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::Rename, from)?;
        let Some(bytes) = state.files.remove(from) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {}", from.display()),
            ));
        };
        state.files.insert(to.to_path_buf(), bytes);
        state.trace.push(IoOp::Rename { from: from.to_path_buf(), to: to.to_path_buf() });
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::Remove, path)?;
        if state.files.remove(path).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {}", path.display()),
            ));
        }
        state.trace.push(IoOp::Remove { path: path.to_path_buf() });
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::List, dir)?;
        if !state.dirs.contains(dir) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such directory: {}", dir.display()),
            ));
        }
        Ok(state.files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::CreateDirAll, dir)?;
        let mut cursor = dir;
        loop {
            state.dirs.insert(cursor.to_path_buf());
            match cursor.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => cursor = parent,
                _ => break,
            }
        }
        state.trace.push(IoOp::CreateDirAll { dir: dir.to_path_buf() });
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::SyncDir, dir)?;
        state.trace.push(IoOp::SyncDir { dir: dir.to_path_buf() });
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let state = self.lock();
        state.files.contains_key(path) || state.dirs.contains(path)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        FaultFs::check_fault(&mut state, OpKind::CreateExclusive, path)?;
        FaultFs::parent_exists(&state, path)?;
        if state.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("file exists: {}", path.display()),
            ));
        }
        state.files.insert(path.to_path_buf(), bytes.to_vec());
        state.trace.push(IoOp::CreateExclusive { path: path.to_path_buf(), bytes: bytes.to_vec() });
        Ok(())
    }

    fn fs_id(&self) -> u64 {
        self.id
    }
}

// ---- power-cut crash-state materialization ----------------------------

/// How the **final** op of a trace prefix landed on the platter. The base
/// ([`LastOpVariant::Lost`]) is the pessimistic reading: the op happened
/// in cache but none of its un-fsynced effects survive. The other
/// variants model the op's data racing to disk ahead of any fsync —
/// legal on every real filesystem, and exactly the states a
/// write-then-rename protocol must tolerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LastOpVariant {
    /// Pessimistic: the final op's un-fsynced effects are lost (same
    /// rules as every earlier op).
    Lost,
    /// Optimistic: the final op's full effect reached disk even without
    /// an fsync (content for writes, the namespace change for
    /// rename/remove/create).
    Applied,
    /// A write's pages half-landed: the file's durable content is the
    /// first half of the written bytes (torn page). For non-write ops
    /// this degenerates to [`LastOpVariant::Applied`].
    Torn,
}

/// One simulated inode: cache content vs last-fsynced content.
#[derive(Debug, Default, Clone)]
struct Inode {
    cache: Vec<u8>,
    /// `None` until the first fsync under any name — a crash then leaves
    /// a zero-length file behind the durable dirent, the classic
    /// journaled-fs-with-delayed-allocation outcome.
    durable: Option<Vec<u8>>,
}

/// Materialize the on-disk state a power cut leaves after `ops`, under
/// the durability model in the module docs, with `last` selecting how the
/// final op's own data landed. Returns the surviving `(files, dirs)` —
/// feed them to [`FaultFs::from_files`] and recovery runs against the
/// crash state directly.
pub fn durable_state(
    ops: &[IoOp],
    last: LastOpVariant,
) -> (BTreeMap<PathBuf, Vec<u8>>, BTreeSet<PathBuf>) {
    let mut next_id = 0u64;
    let mut cache_ns: BTreeMap<PathBuf, u64> = BTreeMap::new();
    let mut disk_ns: BTreeMap<PathBuf, u64> = BTreeMap::new();
    let mut inodes: HashMap<u64, Inode> = HashMap::new();
    let mut dirs: BTreeSet<PathBuf> = BTreeSet::new();

    for (i, op) in ops.iter().enumerate() {
        let is_last = i + 1 == ops.len();
        let variant = if is_last { last } else { LastOpVariant::Lost };
        match op {
            IoOp::Write { path, bytes } | IoOp::CreateExclusive { path, bytes } => {
                let id = *cache_ns.entry(path.clone()).or_insert_with(|| {
                    next_id += 1;
                    next_id
                });
                let inode = inodes.entry(id).or_default();
                inode.cache = bytes.clone();
                match variant {
                    LastOpVariant::Lost => {}
                    LastOpVariant::Applied => {
                        inode.durable = Some(bytes.clone());
                        disk_ns.insert(path.clone(), id);
                    }
                    LastOpVariant::Torn => {
                        inode.durable = Some(bytes[..bytes.len() / 2].to_vec());
                        disk_ns.insert(path.clone(), id);
                    }
                }
            }
            IoOp::Append { path, bytes } => {
                let id = *cache_ns.entry(path.clone()).or_insert_with(|| {
                    next_id += 1;
                    next_id
                });
                let inode = inodes.entry(id).or_default();
                let prev_len = inode.cache.len();
                inode.cache.extend_from_slice(bytes);
                match variant {
                    LastOpVariant::Lost => {}
                    LastOpVariant::Applied => {
                        inode.durable = Some(inode.cache.clone());
                        disk_ns.insert(path.clone(), id);
                    }
                    LastOpVariant::Torn => {
                        // Half the appended pages landed: the durable
                        // content is the pre-append cache plus the first
                        // half of the suffix — the torn-tail shape the
                        // delta log's per-record checksums must absorb.
                        let cut = prev_len + bytes.len() / 2;
                        inode.durable = Some(inode.cache[..cut].to_vec());
                        disk_ns.insert(path.clone(), id);
                    }
                }
            }
            IoOp::Fsync { path } => {
                if let Some(id) = cache_ns.get(path) {
                    let inode = inodes.entry(*id).or_default();
                    inode.durable = Some(inode.cache.clone());
                }
            }
            IoOp::Rename { from, to } => {
                if let Some(id) = cache_ns.remove(from) {
                    cache_ns.insert(to.clone(), id);
                    if variant != LastOpVariant::Lost {
                        disk_ns.remove(from);
                        disk_ns.insert(to.clone(), id);
                    }
                }
            }
            IoOp::Remove { path } => {
                cache_ns.remove(path);
                if variant != LastOpVariant::Lost {
                    disk_ns.remove(path);
                }
            }
            IoOp::CreateDirAll { dir } => {
                // Directory creation is modeled durable immediately: the
                // store creates its directory exactly once, before any
                // file lands in it, and a crash losing the whole
                // directory is the trivially-empty store.
                let mut cursor = dir.as_path();
                loop {
                    dirs.insert(cursor.to_path_buf());
                    match cursor.parent() {
                        Some(parent) if !parent.as_os_str().is_empty() => cursor = parent,
                        _ => break,
                    }
                }
            }
            IoOp::SyncDir { dir } => {
                // Align the durable namespace with the cache for direct
                // children of `dir`: pending creations/renames commit,
                // pending removals take effect.
                let stale: Vec<PathBuf> = disk_ns
                    .keys()
                    .filter(|p| p.parent() == Some(dir) && !cache_ns.contains_key(*p))
                    .cloned()
                    .collect();
                for p in stale {
                    disk_ns.remove(&p);
                }
                for (p, id) in &cache_ns {
                    if p.parent() == Some(dir.as_path()) {
                        disk_ns.insert(p.clone(), *id);
                    }
                }
            }
        }
    }

    let files = disk_ns
        .into_iter()
        .map(|(path, id)| {
            let content = inodes.get(&id).and_then(|i| i.durable.clone()).unwrap_or_default();
            (path, content)
        })
        .collect();
    (files, dirs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn faultfs_round_trips_files() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/store")).unwrap();
        fs.write(&p("/store/a"), b"hello").unwrap();
        assert_eq!(fs.read(&p("/store/a")).unwrap(), b"hello");
        assert!(fs.exists(&p("/store/a")));
        assert!(fs.exists(&p("/store")));
        fs.rename(&p("/store/a"), &p("/store/b")).unwrap();
        assert!(!fs.exists(&p("/store/a")));
        assert_eq!(fs.read(&p("/store/b")).unwrap(), b"hello");
        assert_eq!(fs.list(&p("/store")).unwrap(), vec![p("/store/b")]);
        fs.remove(&p("/store/b")).unwrap();
        assert!(fs.list(&p("/store")).unwrap().is_empty());
    }

    #[test]
    fn missing_parent_directory_is_not_found() {
        let fs = FaultFs::new();
        let err = fs.write(&p("/nowhere/a"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn create_exclusive_refuses_existing_files() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.create_exclusive(&p("/d/lock"), b"1").unwrap();
        let err = fs.create_exclusive(&p("/d/lock"), b"2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(fs.read(&p("/d/lock")).unwrap(), b"1", "loser must not clobber");
    }

    #[test]
    fn injected_faults_fire_in_order_and_expire() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.inject(OpKind::Write, "victim", io::ErrorKind::Interrupted, 2);
        assert_eq!(fs.write(&p("/d/victim"), b"x").unwrap_err().kind(), io::ErrorKind::Interrupted);
        fs.write(&p("/d/other"), b"x").unwrap(); // non-matching path unaffected
        assert_eq!(fs.write(&p("/d/victim"), b"x").unwrap_err().kind(), io::ErrorKind::Interrupted);
        fs.write(&p("/d/victim"), b"x").unwrap(); // rule consumed
    }

    #[test]
    fn retry_io_rides_out_transients_but_not_enospc() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.inject(OpKind::Write, "a", io::ErrorKind::Interrupted, 2);
        retry_io(|| fs.write(&p("/d/a"), b"x")).unwrap();

        fs.inject(OpKind::Write, "b", io::ErrorKind::StorageFull, 1);
        let err = retry_io(|| fs.write(&p("/d/b"), b"x")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "ENOSPC must not be retried");
        fs.write(&p("/d/b"), b"x").unwrap(); // rule would have survived a retry

        fs.inject(OpKind::Write, "c", io::ErrorKind::Interrupted, IO_RETRY_ATTEMPTS + 3);
        let err = retry_io(|| fs.write(&p("/d/c"), b"x")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted, "retries are bounded");
    }

    #[test]
    fn unsynced_write_is_lost_synced_write_survives() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/a"), b"payload").unwrap();
        // No fsync, no dir sync: nothing survives.
        let (files, dirs) = durable_state(&fs.trace(), LastOpVariant::Lost);
        assert!(files.is_empty());
        assert!(dirs.contains(&p("/d")));

        fs.fsync(&p("/d/a")).unwrap();
        // Content is durable but the dirent is not.
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Lost);
        assert!(files.is_empty(), "dirent needs a dir sync");

        fs.sync_dir(&p("/d")).unwrap();
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Lost);
        assert_eq!(files.get(&p("/d/a")).map(Vec::as_slice), Some(&b"payload"[..]));
    }

    #[test]
    fn write_fsync_rename_syncdir_protocol_survives_every_prefix() {
        // The store's atomic-replace protocol: after the final sync_dir
        // the new content is durable under the target name; before it,
        // the *previous* target content is untouched at every prefix.
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/target"), b"old").unwrap();
        fs.fsync(&p("/d/target")).unwrap();
        fs.sync_dir(&p("/d")).unwrap();
        fs.write(&p("/d/target.tmp"), b"new!").unwrap();
        fs.fsync(&p("/d/target.tmp")).unwrap();
        fs.rename(&p("/d/target.tmp"), &p("/d/target")).unwrap();
        fs.sync_dir(&p("/d")).unwrap();

        let trace = fs.trace();
        // Prefix 4 is the first with the old content fully durable
        // (create, write, fsync, sync_dir); from there on it must
        // survive every crash point until the replacing dir sync.
        for k in 4..trace.len() {
            let (files, _) = durable_state(&trace[..k], LastOpVariant::Lost);
            assert_eq!(
                files.get(&p("/d/target")).map(Vec::as_slice),
                Some(&b"old"[..]),
                "prefix {k}: old content must survive until the final dir sync"
            );
        }
        let (files, _) = durable_state(&trace, LastOpVariant::Lost);
        assert_eq!(files.get(&p("/d/target")).map(Vec::as_slice), Some(&b"new!"[..]));
        // The tmp name never survives the full trace.
        assert!(!files.contains_key(&p("/d/target.tmp")));
    }

    #[test]
    fn rename_moves_fsynced_content_with_the_inode() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/tmp"), b"data").unwrap();
        fs.fsync(&p("/d/tmp")).unwrap();
        fs.rename(&p("/d/tmp"), &p("/d/final")).unwrap();
        fs.sync_dir(&p("/d")).unwrap();
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Lost);
        assert_eq!(files.get(&p("/d/final")).map(Vec::as_slice), Some(&b"data"[..]));
        assert!(!files.contains_key(&p("/d/tmp")));
    }

    #[test]
    fn unsynced_rename_leaves_the_old_name_durable() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/tmp"), b"data").unwrap();
        fs.fsync(&p("/d/tmp")).unwrap();
        fs.sync_dir(&p("/d")).unwrap(); // tmp's dirent is durable
        fs.rename(&p("/d/tmp"), &p("/d/final")).unwrap();
        // Crash before the dir sync: the rename is lost.
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Lost);
        assert_eq!(files.get(&p("/d/tmp")).map(Vec::as_slice), Some(&b"data"[..]));
        assert!(!files.contains_key(&p("/d/final")));
        // …unless the journal committed it early.
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Applied);
        assert_eq!(files.get(&p("/d/final")).map(Vec::as_slice), Some(&b"data"[..]));
        assert!(!files.contains_key(&p("/d/tmp")));
    }

    #[test]
    fn append_extends_the_cache_and_survives_only_after_fsync() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/log"), b"head").unwrap();
        fs.fsync(&p("/d/log")).unwrap();
        fs.sync_dir(&p("/d")).unwrap();
        fs.append(&p("/d/log"), b"+tail").unwrap();
        assert_eq!(fs.read(&p("/d/log")).unwrap(), b"head+tail", "cache sees the extension");

        // Unsynced append: the previously durable content is untouched.
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Lost);
        assert_eq!(files.get(&p("/d/log")).map(Vec::as_slice), Some(&b"head"[..]));

        fs.fsync(&p("/d/log")).unwrap();
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Lost);
        assert_eq!(files.get(&p("/d/log")).map(Vec::as_slice), Some(&b"head+tail"[..]));
    }

    #[test]
    fn append_creates_missing_files_under_an_existing_parent() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.append(&p("/d/fresh"), b"abc").unwrap();
        assert_eq!(fs.read(&p("/d/fresh")).unwrap(), b"abc");
        let err = fs.append(&p("/nowhere/fresh"), b"abc").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn torn_final_append_keeps_the_head_plus_half_the_suffix() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/log"), b"head").unwrap();
        fs.fsync(&p("/d/log")).unwrap();
        fs.sync_dir(&p("/d")).unwrap();
        fs.append(&p("/d/log"), b"12345678").unwrap();
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Torn);
        assert_eq!(files.get(&p("/d/log")).map(Vec::as_slice), Some(&b"head1234"[..]));
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Applied);
        assert_eq!(files.get(&p("/d/log")).map(Vec::as_slice), Some(&b"head12345678"[..]));
    }

    #[test]
    fn torn_final_write_halves_the_durable_content() {
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/a"), b"12345678").unwrap();
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Torn);
        assert_eq!(files.get(&p("/d/a")).map(Vec::as_slice), Some(&b"1234"[..]));
    }

    #[test]
    fn durable_dirent_over_unsynced_inode_is_a_zero_length_file() {
        // Create + sync_dir but never fsync the content: the name
        // survives pointing at nothing — the classic empty-file crash.
        let fs = FaultFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/a"), b"payload").unwrap();
        fs.sync_dir(&p("/d")).unwrap();
        let (files, _) = durable_state(&fs.trace(), LastOpVariant::Lost);
        assert_eq!(files.get(&p("/d/a")).map(Vec::as_slice), Some(&b""[..]));
    }
}
