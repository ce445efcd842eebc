//! Group commit: deferring delta-log fsyncs so one `fsync` covers many
//! acknowledged batches.
//!
//! [`GroupCommitVfs`] wraps a tenant's [`Vfs`] and intercepts exactly one
//! operation: `fsync` of the engine's **delta log** (`engine.delta`).
//! Instead of syncing immediately it records the path as *pending*; the
//! server's committer thread calls [`GroupCommitVfs::flush`] once per
//! commit interval, paying a single real fsync for every delta append the
//! interval accumulated. Connection acks are parked until the covering
//! flush, so the client-visible durability contract is unchanged — an
//! acked batch survives a power cut.
//!
//! # Why deferring *only* the delta fsync is crash-safe
//!
//! The engine's write path orders durability deliberately: spilled shard
//! files are written **and fsynced** before the delta record that
//! references them is appended, and base-manifest rewrites use the full
//! write → fsync → rename → sync_dir protocol. Both of those flow through
//! this wrapper untouched. The delta log itself is a checksummed
//! record-framed append log whose reader accepts every valid prefix and
//! discards a torn or lost tail — so a crash between an append and the
//! deferred fsync loses only *unacknowledged* batches, which is exactly
//! the promise group commit makes.
//!
//! A failed flush is handled like a failed synchronous fsync one layer
//! up: the covered acks fail with the typed error, and the server rebases
//! the tenant (full checkpoint through the untouched synchronous path)
//! before accepting its next batch — the classic defense against fsync
//! result amnesia.

use logr::cluster::vfs::{retry_io, Vfs};
use logr::manifest::DELTA_FILE_NAME;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A [`Vfs`] wrapper that defers delta-log fsyncs into batched flushes.
///
/// Everything except `fsync` of a file named
/// [`DELTA_FILE_NAME`] passes straight through to the
/// inner vfs, preserving the store's write→fsync→rename→sync_dir
/// protocols byte for byte.
#[derive(Debug)]
pub struct GroupCommitVfs {
    inner: Arc<dyn Vfs>,
    pending: Mutex<Vec<PathBuf>>,
}

impl GroupCommitVfs {
    /// Wraps `inner`, deferring its delta-log fsyncs.
    pub fn new(inner: Arc<dyn Vfs>) -> GroupCommitVfs {
        GroupCommitVfs { inner, pending: Mutex::new(Vec::new()) }
    }

    /// The wrapped vfs.
    pub fn inner(&self) -> &Arc<dyn Vfs> {
        &self.inner
    }

    /// Number of deferred fsync targets not yet flushed.
    pub fn pending_len(&self) -> usize {
        match self.pending.lock() {
            Ok(pending) => pending.len(),
            Err(_) => 0,
        }
    }

    /// Pays every deferred fsync, once per distinct path.
    ///
    /// On failure the remaining pending set is still cleared: the caller
    /// must treat the tenant as non-durable and rebase it (a full
    /// checkpoint through the synchronous path) before acknowledging
    /// anything further, so re-syncing a stale delta would only mask the
    /// failure.
    pub fn flush(&self) -> io::Result<()> {
        let drained: Vec<PathBuf> = {
            let mut pending = self
                .pending
                .lock()
                .map_err(|_| io::Error::other("group-commit pending set poisoned"))?;
            std::mem::take(&mut *pending)
        };
        for path in drained {
            retry_io(|| self.inner.fsync(&path))?;
        }
        Ok(())
    }

    fn defer(&self, path: &Path) -> bool {
        if path.file_name().map(|n| n == DELTA_FILE_NAME) != Some(true) {
            return false;
        }
        match self.pending.lock() {
            Ok(mut pending) => {
                if !pending.iter().any(|p| p == path) {
                    pending.push(path.to_path_buf());
                }
                true
            }
            // A poisoned pending set degrades to synchronous fsync —
            // strictly more durable, never less.
            Err(_) => false,
        }
    }
}

impl Vfs for GroupCommitVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // The caller (the engine's delta append path) pairs this append
        // with an fsync through this same wrapper, which is where the
        // deferral decision lives.
        // lint:allow(sync-protocol): pure passthrough; the commit protocol runs in the caller
        self.inner.append(path, bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        if self.defer(path) {
            return Ok(());
        }
        self.inner.fsync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // The engine's base rewrite protocol already orders this rename
        // between fsync and sync_dir, both of which pass through
        // unmodified (base files never defer — see `defer`).
        // lint:allow(sync-protocol): pure passthrough; the rewrite protocol runs in the caller
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.create_exclusive(path, bytes)
    }

    fn fs_id(&self) -> u64 {
        self.inner.fs_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr::cluster::vfs::{FaultFs, IoOp};

    fn fsync_count(fs: &FaultFs, needle: &str) -> usize {
        fs.trace()
            .iter()
            .filter(
                |op| matches!(op, IoOp::Fsync { path } if path.to_string_lossy().contains(needle)),
            )
            .count()
    }

    #[test]
    fn delta_fsyncs_defer_until_flush_and_coalesce() {
        let fs = Arc::new(FaultFs::new());
        fs.create_dir_all(Path::new("/t")).unwrap();
        let gc = GroupCommitVfs::new(fs.clone() as Arc<dyn Vfs>);
        let delta = Path::new("/t").join(DELTA_FILE_NAME);

        for _ in 0..5 {
            gc.append(&delta, b"rec").unwrap();
            gc.fsync(&delta).unwrap();
        }
        assert_eq!(fsync_count(&fs, "engine.delta"), 0, "deferred");
        assert_eq!(gc.pending_len(), 1, "coalesced to one distinct path");

        gc.flush().unwrap();
        assert_eq!(fsync_count(&fs, "engine.delta"), 1, "one covering fsync");
        assert_eq!(gc.pending_len(), 0);
        gc.flush().unwrap();
        assert_eq!(fsync_count(&fs, "engine.delta"), 1, "idempotent when empty");
    }

    #[test]
    fn non_delta_fsyncs_pass_through_synchronously() {
        let fs = Arc::new(FaultFs::new());
        fs.create_dir_all(Path::new("/t")).unwrap();
        let gc = GroupCommitVfs::new(fs.clone() as Arc<dyn Vfs>);
        let shard = Path::new("/t/shard-00000-1-00000001.bin");
        gc.write(shard, b"points").unwrap();
        gc.fsync(shard).unwrap();
        assert_eq!(fsync_count(&fs, "shard-"), 1);
        assert_eq!(gc.pending_len(), 0);
    }

    #[test]
    fn failed_flush_clears_pending_and_reports() {
        let fs = Arc::new(FaultFs::new());
        fs.create_dir_all(Path::new("/t")).unwrap();
        let gc = GroupCommitVfs::new(fs.clone() as Arc<dyn Vfs>);
        let delta = Path::new("/t").join(DELTA_FILE_NAME);
        gc.append(&delta, b"rec").unwrap();
        gc.fsync(&delta).unwrap();
        fs.inject(logr::cluster::vfs::OpKind::Fsync, "engine.delta", io::ErrorKind::StorageFull, 1);
        assert!(gc.flush().is_err());
        assert_eq!(gc.pending_len(), 0, "failed flush leaves nothing masked");
    }
}
