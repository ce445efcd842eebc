//! The storage boundary shim: a [`Vfs`] that forwards every call to the
//! wrapped one unchanged (real fsync, nothing skipped or batched) while
//! counting calls and bytes and timing each call. When tracing is on,
//! every call is also a `vfs.*` span — a real child of whatever span the
//! calling thread has open, e.g. the engine close that issued it.

use crate::trace;
use logr::cluster::vfs::Vfs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The storage calls the shim tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
    Append,
    Fsync,
    Rename,
    Remove,
    List,
    CreateDir,
    SyncDir,
    Exists,
    CreateExclusive,
    /// The subset of `Fsync` calls on the engine's delta log: the commit
    /// point of a window close.
    DeltaFsync,
}

const OPS: usize = 12;

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Read => "vfs.read",
            Op::Write => "vfs.write",
            Op::Append => "vfs.append",
            Op::Fsync => "vfs.fsync",
            Op::Rename => "vfs.rename",
            Op::Remove => "vfs.remove",
            Op::List => "vfs.list",
            Op::CreateDir => "vfs.create_dir",
            Op::SyncDir => "vfs.sync_dir",
            Op::Exists => "vfs.exists",
            Op::CreateExclusive => "vfs.create_exclusive",
            Op::DeltaFsync => "vfs.fsync",
        }
    }
}

/// Calls, bytes and busy nanoseconds of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    pub calls: u64,
    pub bytes: u64,
    pub ns: u64,
}

/// A copy of every counter at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts([OpCount; OPS]);

impl Counts {
    pub fn get(&self, op: Op) -> OpCount {
        self.0[op as usize]
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut out = Counts::default();
        for i in 0..OPS {
            out.0[i] = OpCount {
                calls: self.0[i].calls - earlier.0[i].calls,
                bytes: self.0[i].bytes - earlier.0[i].bytes,
                ns: self.0[i].ns - earlier.0[i].ns,
            };
        }
        out
    }

    /// Bytes handed to `write`, `append` and `create_exclusive`.
    pub fn bytes_written(&self) -> u64 {
        [Op::Write, Op::Append, Op::CreateExclusive].iter().map(|&o| self.get(o).bytes).sum()
    }

    /// Nanoseconds spent in `write`, `append` and `create_exclusive`.
    pub fn write_ns(&self) -> u64 {
        [Op::Write, Op::Append, Op::CreateExclusive].iter().map(|&o| self.get(o).ns).sum()
    }
}

#[derive(Debug, Default)]
struct Counter {
    calls: AtomicU64,
    bytes: AtomicU64,
    ns: AtomicU64,
}

/// The counting, timing pass-through.
#[derive(Debug)]
pub struct CountingFs {
    inner: Arc<dyn Vfs>,
    counters: [Counter; OPS],
}

impl CountingFs {
    pub fn new(inner: Arc<dyn Vfs>) -> CountingFs {
        CountingFs { inner, counters: Default::default() }
    }

    pub fn counts(&self) -> Counts {
        let mut out = Counts::default();
        for (o, c) in out.0.iter_mut().zip(&self.counters) {
            *o = OpCount {
                calls: c.calls.load(Ordering::Relaxed),
                bytes: c.bytes.load(Ordering::Relaxed),
                ns: c.ns.load(Ordering::Relaxed),
            };
        }
        out
    }

    /// Run one forwarded call, counting it, timing it and (when tracing)
    /// recording it as a span whose value is the bytes moved — for an
    /// fsync, 1 when the file is the engine's delta log.
    fn call<T>(
        &self,
        op: Op,
        value: impl Fn(&T) -> u64,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut span = trace::span(op.span_name(), 0);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let c = &self.counters[op as usize];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.ns.fetch_add(ns, Ordering::Relaxed);
        if let Ok(v) = &out {
            let v = value(v);
            c.bytes.fetch_add(v, Ordering::Relaxed);
            span.set_value(v);
        }
        out
    }
}

/// True for the engine's delta log, whose fsync is the commit point of a
/// window close.
fn is_delta_log(path: &Path) -> bool {
    path.file_name().is_some_and(|n| n == logr::manifest::DELTA_FILE_NAME)
}

impl Vfs for CountingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.call(Op::Read, |b: &Vec<u8>| b.len() as u64, || self.inner.read(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.call(Op::Write, |_| bytes.len() as u64, || self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // lint:allow(sync-protocol): a pass-through: the caller's commit protocol issues its fsync through this same shim
        self.call(Op::Append, |_| bytes.len() as u64, || self.inner.append(path, bytes))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let delta = is_delta_log(path) as u64;
        self.counters[Op::DeltaFsync as usize].calls.fetch_add(delta, Ordering::Relaxed);
        self.call(Op::Fsync, |_| delta, || self.inner.fsync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // lint:allow(sync-protocol): a pass-through: the caller's commit protocol issues its fsync and sync_dir through this same shim
        self.call(Op::Rename, |_| 0, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.call(Op::Remove, |_| 0, || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.call(Op::List, |v: &Vec<PathBuf>| v.len() as u64, || self.inner.list(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.call(Op::CreateDir, |_| 0, || self.inner.create_dir_all(dir))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.call(Op::SyncDir, |_| 0, || self.inner.sync_dir(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.call(Op::Exists, |_| 0, || Ok(self.inner.exists(path))).unwrap_or(false)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.call(
            Op::CreateExclusive,
            |_| bytes.len() as u64,
            || self.inner.create_exclusive(path, bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr::cluster::vfs::RealFs;
    use logr::Engine;

    /// A store grown through the shim reopens under plain `RealFs` with
    /// the same totals and the same summary, bit for bit.
    #[test]
    fn store_grown_through_the_shim_reopens_under_real_fs() {
        let dir =
            std::env::temp_dir().join(format!("perfbench-vfs-selftest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
        let (total, windows, error) = {
            let engine = Engine::builder()
                .window(32)
                .clusters(4)
                .resident_budget(4096)
                .vfs(shim.clone())
                .open(&dir)
                .unwrap();
            for i in 0..400u64 {
                let sql = format!(
                    "SELECT c{} FROM t{} WHERE a{} = {} AND b = {}",
                    i % 7,
                    i % 5,
                    i % 11,
                    i % 13,
                    i % 3
                );
                engine.ingest(&sql).unwrap();
            }
            // Close the open window, so every record is durable.
            engine.flush().unwrap();
            let snap = engine.snapshot().unwrap();
            let error = snap.summary().unwrap().unwrap().error();
            (snap.total_queries(), snap.windows_closed(), error)
        };
        let counts = shim.counts();
        assert!(counts.get(Op::Fsync).calls >= windows as u64, "every close fsyncs");
        assert!(counts.get(Op::Append).bytes > 0 && counts.bytes_written() > 0);

        let reopened = Engine::builder().vfs(Arc::new(RealFs)).open(&dir).unwrap();
        let snap = reopened.snapshot().unwrap();
        assert_eq!((total, windows), (400, 13));
        assert_eq!((snap.total_queries(), snap.windows_closed()), (total, windows));
        assert_eq!(snap.summary().unwrap().unwrap().error().to_bits(), error.to_bits());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
