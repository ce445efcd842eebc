//! Appendable, sharded condensed-matrix construction (streaming windows),
//! with optional out-of-core storage for closed shards.
//!
//! The monolithic [`PointSet::distances`](crate::PointSet::distances) build
//! recomputes every pair each time a dataset grows, which makes windowed
//! ingestion quadratic in the whole history. [`ShardedPointSet`] fixes the
//! cost model: points arrive in **shards** (one per streaming window, or one
//! per dataset), and closing a shard of `w` points against a history of `h`
//! only computes
//!
//! * the shard's own condensed triangle — `w·(w−1)/2` pairs — and
//! * the `h × w` cross block against the existing points,
//!
//! both on scoped threads via the existing `parallel` feature. Earlier
//! shards are never touched again — which also makes them **immutable**,
//! and immutability is what the out-of-core layer exploits.
//!
//! # Out-of-core shards (PR 3)
//!
//! Shard payloads grow quadratically with the history (`Σ hₛ·wₛ` cross
//! cells), so an unbounded stream eventually cannot keep every closed
//! shard resident. [`ShardedPointSet::set_spill`] attaches a persistent
//! store ([`SpillConfig`]: a directory plus a resident-byte budget in the
//! versioned, checksummed [`crate::spill`] format); after every append the
//! set evicts closed shards oldest-first — the hot tail (the newest
//! shard) is pinned — until the resident payload fits the budget. Spilled
//! shards reload transparently on read: point lookups go through a
//! single-slot reload cache, and bulk merges ([`CondensedShards`]) stream
//! one spilled shard at a time, so peak memory is the budget plus one
//! shard. Files are written once (shards are immutable) and re-eviction
//! after a reload is free. Reloaded payloads are integer mismatch counts
//! and bit-packed points — no floats touch disk — so a spilled/reloaded
//! set serves **bit-identical** distances to the all-resident build
//! (property-tested in `tests/proptest_shards.rs`).
//!
//! Shards store **integer mismatch counts** (`d = |x ⊕ y|`), not metric
//! values: every §6.1 metric is a function of `(d, n_features)`, and the
//! feature universe may still be growing while early shards are built. A
//! metric is applied only at read time, through the same
//! [`Distance::of_mismatches`] kernel as the monolithic path — so the merged
//! view is **bit-identical** to `PointSet::distances` over the concatenated
//! points at the final universe (property-tested in
//! `tests/proptest_shards.rs`).
//!
//! [`CondensedShards`] is the merged read view: it serves the same
//! `n()`/`get(i, j)` reads as [`CondensedMatrix`], and
//! [`CondensedShards::to_condensed`] materializes a real `CondensedMatrix`
//! for the consumers that mutate distances in place (hierarchical
//! Lance–Williams) or scan the raw buffer (spectral's median-σ heuristic).

use crate::distance::Distance;
use crate::par;
use crate::par::PARALLEL_MIN_POINTS;
use crate::pointset::{condensed_row_start, CondensedMatrix};
use crate::spill::{self, ShardRecord, SpillError};
use crate::vfs::{self, Vfs};
use logr_feature::{BitVec, QueryVector};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cell-count threshold below which shard fills run serially (the same
/// break-even as `PARALLEL_MIN_POINTS` points in the monolithic build).
const PARALLEL_MIN_CELLS: usize = PARALLEL_MIN_POINTS * (PARALLEL_MIN_POINTS - 1) / 2;

/// Process-global sequence for spill file names. Clones of a spilling set
/// share a directory, so per-set indexes alone would collide; the file
/// name also carries the pid so concurrent processes pointed at one
/// store directory cannot overwrite each other's shards.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Out-of-core policy for a [`ShardedPointSet`].
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory shard files are written to (created if absent). Files
    /// are never deleted by the set — a shard's file outlives reloads, so
    /// re-evicting it later costs no I/O.
    pub dir: PathBuf,
    /// Resident shard-payload budget in bytes. After every append the set
    /// evicts closed shards oldest-first (hot tail pinned) until resident
    /// bytes fit; `0` keeps only the pinned tail resident. Oldest-first
    /// *is* least-recently-appended, and merges touch every shard
    /// equally, so no finer recency signal exists to act on.
    pub resident_budget: usize,
}

/// One shard and where its payload currently lives.
#[derive(Debug, Clone)]
struct ShardSlot {
    /// `Some` while resident; `None` once spilled (then `path` is `Some`).
    data: Option<Arc<ShardRecord>>,
    /// The shard's spill file, once it has ever been written.
    path: Option<PathBuf>,
    /// Payload heap size (stable across spill/reload).
    bytes: usize,
}

/// Single-slot cache for point reads against spilled shards, so repeated
/// `get(i, j)` probes into the same shard pay one reload, not one per
/// probe. Bulk merges bypass it (they stream shards explicitly).
#[derive(Debug, Default)]
struct ReloadCache {
    entry: Option<(usize, Arc<ShardRecord>)>,
}

/// A dataset of binary vectors accumulated shard by shard, with pairwise
/// mismatch counts maintained incrementally and (optionally) spilled to a
/// persistent store under a resident-memory budget.
#[derive(Debug)]
pub struct ShardedPointSet {
    /// Widest universe seen so far; reads normalize against this.
    n_features: usize,
    /// Shard `s` spans points `shard_starts[s] .. shard_starts[s + 1]`.
    shard_starts: Vec<usize>,
    shards: Vec<ShardSlot>,
    spill: Option<SpillConfig>,
    /// Storage layer all spill reads/writes go through ([`crate::vfs`]);
    /// [`vfs::RealFs`] unless a test injected a fault filesystem.
    vfs: Arc<dyn Vfs>,
    cache: Mutex<ReloadCache>,
}

impl Clone for ShardedPointSet {
    fn clone(&self) -> Self {
        ShardedPointSet {
            n_features: self.n_features,
            shard_starts: self.shard_starts.clone(),
            shards: self.shards.clone(),
            spill: self.spill.clone(),
            vfs: self.vfs.clone(),
            cache: Mutex::new(ReloadCache { entry: self.cache_lock().entry.clone() }),
        }
    }
}

impl Default for ShardedPointSet {
    fn default() -> Self {
        ShardedPointSet::new()
    }
}

impl ShardedPointSet {
    /// Empty set (zero shards, empty universe, no spill store).
    pub fn new() -> Self {
        ShardedPointSet {
            n_features: 0,
            // One boundary, zero shards — `len()` reads the last entry,
            // so this must never be empty (Default delegates here).
            shard_starts: vec![0],
            shards: Vec::new(),
            spill: None,
            vfs: vfs::default_vfs(),
            cache: Mutex::new(ReloadCache::default()),
        }
    }

    /// Route every subsequent spill read/write through `vfs` — the
    /// injection point fault tests build on. Production code never calls
    /// this ([`vfs::RealFs`] is the default).
    pub fn set_vfs(&mut self, vfs: Arc<dyn Vfs>) {
        self.vfs = vfs;
    }

    /// The storage layer this set's spill I/O goes through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Rebuild a set from a directory of previously spilled shard files —
    /// the recovery path behind `logr::Engine::open`. Every file is fully
    /// decoded (length, magic, version, checksum, structure) — the
    /// **once-per-open validation**; later reloads of these write-once
    /// files skip the checksum pass ([`spill::decode_trusted`]) — and the
    /// chain is validated — each record's `start` must equal the points
    /// before it and the feature universe may only grow — then dropped
    /// again, so
    /// the rebuilt set starts with **zero resident bytes** regardless of
    /// the budget and every read reloads transparently, exactly as after
    /// a long-running eviction.
    ///
    /// Any invalid file surfaces as the [`SpillError`] the decoder
    /// reports (missing → `Io`, cut short → `Truncated`, rotted →
    /// `ChecksumMismatch`, …); a chain inconsistency between valid files —
    /// including shard files whose payloads were swapped — is
    /// [`SpillError::ChainMismatch`]. Never panics.
    pub fn from_spilled_files(
        config: SpillConfig,
        files: &[PathBuf],
    ) -> Result<ShardedPointSet, SpillError> {
        ShardedPointSet::from_spilled_files_with(vfs::default_vfs(), config, files)
    }

    /// [`ShardedPointSet::from_spilled_files`] with every file operation
    /// routed through `vfs`.
    pub fn from_spilled_files_with(
        vfs: Arc<dyn Vfs>,
        config: SpillConfig,
        files: &[PathBuf],
    ) -> Result<ShardedPointSet, SpillError> {
        vfs.create_dir_all(&config.dir)?;
        let mut shard_starts = vec![0usize];
        let mut shards = Vec::with_capacity(files.len());
        let mut n_features = 0usize;
        let mut len = 0usize;
        for path in files {
            let record = spill::read_file_with(&*vfs, path)?;
            if record.start != len {
                return Err(SpillError::ChainMismatch {
                    detail: "recovered shard chain has a start/length mismatch",
                });
            }
            if record.n_features < n_features {
                return Err(SpillError::ChainMismatch {
                    detail: "recovered shard chain shrinks the feature universe",
                });
            }
            n_features = record.n_features;
            len += record.len();
            shard_starts.push(len);
            shards.push(ShardSlot {
                data: None,
                path: Some(path.clone()),
                bytes: record.payload_bytes(),
            });
        }
        Ok(ShardedPointSet {
            n_features,
            shard_starts,
            shards,
            spill: Some(config),
            vfs,
            cache: Mutex::new(ReloadCache::default()),
        })
    }

    /// The single-slot reload cache, with poisoning folded to a panic in
    /// one place.
    fn cache_lock(&self) -> std::sync::MutexGuard<'_, ReloadCache> {
        // lint:allow(no-panic-paths): the cache is pure redundancy (the spill file always exists), but a poisoned lock means another thread panicked mid-reload — propagating the abort is safer than serving a half-updated cache
        self.cache.lock().expect("reload cache poisoned")
    }

    /// Total number of points across all shards.
    pub fn len(&self) -> usize {
        // lint:allow(no-panic-paths): shard_starts is initialized to [0] and only ever appended to; an empty vec is unreachable by construction
        *self.shard_starts.last().expect("shard_starts is never empty")
    }

    /// True when no points have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards pushed (empty shards count).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current feature-universe size (the widest push so far).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The point range covered by shard `s`.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn shard_range(&self, s: usize) -> std::ops::Range<usize> {
        self.shard_starts[s]..self.shard_starts[s + 1]
    }

    /// Attach (or reconfigure) the out-of-core store: creates `dir` and
    /// immediately enforces the budget over the existing shards. The set
    /// works identically afterwards — reads against spilled shards reload
    /// transparently.
    pub fn set_spill(&mut self, config: SpillConfig) -> Result<(), SpillError> {
        self.vfs.create_dir_all(&config.dir)?;
        self.spill = Some(config);
        self.enforce_budget()
    }

    /// The active out-of-core policy, if any.
    pub fn spill_config(&self) -> Option<&SpillConfig> {
        self.spill.as_ref()
    }

    /// Re-bound the resident budget of an already-attached spill store,
    /// immediately enforcing the new bound (shrinking evicts oldest-first;
    /// growing lets future reloads stay resident). No-op without a spill
    /// store — a purely in-memory set has nowhere to evict to.
    pub fn set_resident_budget(&mut self, bytes: usize) -> Result<(), SpillError> {
        match self.spill.as_mut() {
            Some(config) => {
                config.resident_budget = bytes;
                self.enforce_budget()
            }
            None => Ok(()),
        }
    }

    /// Bytes of shard payload currently resident (including the reload
    /// cache). The eviction budget bounds this between appends; a bulk
    /// merge over spilled shards transiently adds at most one shard.
    pub fn resident_bytes(&self) -> usize {
        let slots: usize = self.shards.iter().filter(|s| s.data.is_some()).map(|s| s.bytes).sum();
        let cached = match &self.cache_lock().entry {
            // A cache entry for a shard that is (still) resident would
            // double-count, but the cache only ever holds spilled shards.
            Some((s, _)) if self.shards[*s].data.is_none() => self.shards[*s].bytes,
            _ => 0,
        };
        slots + cached
    }

    /// Number of shards whose payload is currently on disk only.
    pub fn spilled_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.data.is_none()).count()
    }

    /// True when shard `s`'s payload is in memory.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn shard_is_resident(&self, s: usize) -> bool {
        self.shards[s].data.is_some()
    }

    /// Ensure shard `s` has a store file (first write only — shards are
    /// immutable, so the file is reused forever after), leaving its
    /// residency untouched.
    ///
    /// # Panics
    /// Panics if no store was configured via
    /// [`ShardedPointSet::set_spill`] and the shard has never been
    /// written.
    fn write_shard_file(&mut self, s: usize) -> Result<(), SpillError> {
        if self.shards[s].path.is_some() {
            return Ok(());
        }
        // lint:allow(no-panic-paths): shards spill only through write_shard_file, so an unwritten shard still holds its payload — invariant, not input
        let data = self.shards[s].data.clone().expect("an unwritten shard is always resident");
        let dir = &self
            .spill
            .as_ref()
            // lint:allow(no-panic-paths): documented "# Panics" contract — calling persist without set_spill is a caller bug, not a runtime condition
            .expect("configure a spill store (set_spill) before persisting shards")
            .dir;
        let seq = SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        // pid + process-global sequence: unique across clones sharing
        // the directory AND across concurrent processes pointed at
        // the same store (either would otherwise overwrite the
        // other's checksum-valid files).
        let path = dir.join(format!("shard-{s:05}-{}-{seq:08x}.bin", std::process::id()));
        spill::write_file_with(&*self.vfs, &path, &data)?;
        self.shards[s].path = Some(path);
        Ok(())
    }

    /// Write shard `s` to the store (first eviction only — the file is
    /// reused afterwards) and drop its resident payload. Returns `false`
    /// when the shard was already spilled. A write failure keeps the
    /// payload resident (no data loss).
    ///
    /// # Panics
    /// Panics if `s` is out of range, or if no store was configured via
    /// [`ShardedPointSet::set_spill`] and the shard has never been
    /// written.
    pub fn spill_shard(&mut self, s: usize) -> Result<bool, SpillError> {
        if self.shards[s].data.is_none() {
            return Ok(false);
        }
        self.write_shard_file(s)?;
        self.shards[s].data = None;
        Ok(true)
    }

    /// Write every shard that has never been written to the store,
    /// **without evicting anything** — afterwards each shard's payload
    /// exists on disk (the durability point `Engine::open` recovers from)
    /// while residency, and therefore read performance, is unchanged.
    /// Returns how many files this call wrote.
    ///
    /// # Panics
    /// Panics if no store was configured via
    /// [`ShardedPointSet::set_spill`] and a shard has never been written.
    pub fn persist_all(&mut self) -> Result<usize, SpillError> {
        let mut written = 0;
        for s in 0..self.shards.len() {
            if self.shards[s].path.is_none() {
                self.write_shard_file(s)?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Shard `s`'s store file, once it has ever been written
    /// ([`ShardedPointSet::persist_all`] / eviction assign it).
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn shard_file(&self, s: usize) -> Option<&Path> {
        self.shards[s].path.as_deref()
    }

    /// Force every shard to disk, including the pinned tail, and clear the
    /// reload cache — afterwards `resident_bytes() == 0` and every read
    /// reloads. Returns how many shards this call evicted.
    ///
    /// # Panics
    /// Panics if no store was configured via
    /// [`ShardedPointSet::set_spill`] and a shard has never been written
    /// (same contract as [`ShardedPointSet::spill_shard`]).
    pub fn spill_all(&mut self) -> Result<usize, SpillError> {
        let mut evicted = 0;
        for s in 0..self.shards.len() {
            if self.spill_shard(s)? {
                evicted += 1;
            }
        }
        self.cache_lock().entry = None;
        Ok(evicted)
    }

    /// Evict until the resident payload fits the budget: drop the reload
    /// cache first (it is pure redundancy — the file already exists), then
    /// spill resident shards oldest-first (= least recently appended;
    /// merges touch every shard equally, so there is no finer per-shard
    /// recency to act on). The newest shard is pinned — the streaming
    /// close path reads it immediately — so the budget is honored
    /// whenever it covers at least that one shard.
    fn enforce_budget(&mut self) -> Result<(), SpillError> {
        let Some(budget) = self.spill.as_ref().map(|c| c.resident_budget) else {
            return Ok(());
        };
        if self.resident_bytes() > budget {
            self.cache_lock().entry = None;
        }
        // One pass: track the remaining resident total and resume the
        // oldest-first scan where it left off, instead of recomputing
        // `resident_bytes()` (a full slot scan plus a lock) per eviction
        // — bulk evictions are O(shards), not O(shards²).
        let mut resident = self.resident_bytes();
        let mut from = 0;
        while resident > budget {
            let pinned = self.shards.len().saturating_sub(1);
            let candidate = self.shards[from..pinned.max(from)]
                .iter()
                .position(|slot| slot.data.is_some())
                .map(|offset| from + offset);
            let Some(s) = candidate else { break };
            resident -= self.shards[s].bytes;
            self.spill_shard(s)?;
            from = s + 1;
        }
        Ok(())
    }

    /// Run `f` over shard `s`'s payload, reloading from the store when it
    /// is spilled (through the single-slot cache).
    fn try_with_shard<R>(
        &self,
        s: usize,
        f: impl FnOnce(&ShardRecord) -> R,
    ) -> Result<R, SpillError> {
        let data = self.load_shard(s, true)?;
        Ok(f(&data))
    }

    /// Infallible [`ShardedPointSet::try_with_shard`] for read paths whose
    /// signatures predate the store.
    ///
    /// # Panics
    /// Panics if a spilled shard cannot be reloaded (store deleted or
    /// corrupted underneath the set).
    fn with_shard<R>(&self, s: usize, f: impl FnOnce(&ShardRecord) -> R) -> R {
        self.try_with_shard(s, f).unwrap_or_else(|e| self.reload_panic(s, e))
    }

    /// Panic for an infallible read path whose reload failed, naming the
    /// shard's file — a store directory holds many pid/sequence-named
    /// files, so the shard index alone would not say which one to
    /// inspect or restore.
    fn reload_panic(&self, s: usize, e: SpillError) -> ! {
        // lint:allow(no-panic-paths): the one deliberate bridge from pre-store infallible read signatures to store errors; fallible callers use try_with_shard instead
        panic!("reloading spilled shard {s} ({:?}) failed: {e}", self.shards[s].path)
    }

    /// The one reload path: shard `s`'s payload from memory, the reload
    /// cache, or (last) the store — optionally caching a store miss. Both
    /// the caching and transient read flavors fold through here, so the
    /// reload invariants ("a spilled shard always has a file"; a
    /// single-slot cache, only ever holding spilled shards) live in one
    /// place.
    fn load_shard(&self, s: usize, populate_cache: bool) -> Result<Arc<ShardRecord>, SpillError> {
        if let Some(data) = &self.shards[s].data {
            return Ok(data.clone());
        }
        let mut cache = self.cache_lock();
        if let Some((cached, data)) = &cache.entry {
            if *cached == s {
                return Ok(data.clone());
            }
        }
        // lint:allow(no-panic-paths): spilling writes the file before dropping the payload, so a spilled shard without a path is unreachable by construction
        let path = self.shards[s].path.as_ref().expect("a spilled shard always has a file");
        // Validate-once: every slot's file was checksummed in full exactly
        // once in this process — `from_spilled_files_with` decodes every
        // recovered file before admitting it, and every other path is a
        // file this process encoded and wrote itself. Shard files are
        // write-once, so reloads re-parse the (still structurally
        // validated) payload without re-hashing it — a budget-bounded
        // workload faults the same immutable files back in constantly,
        // and the checksum pass was the dominant redundant cost.
        let data = Arc::new(spill::read_file_trusted_with(&*self.vfs, path)?);
        if populate_cache {
            cache.entry = Some((s, data.clone()));
        }
        Ok(data)
    }

    /// Append one shard of points over a universe of `n_features`,
    /// computing its internal triangle and its cross block against all
    /// earlier points. Cost: `O(w² + h·w)` popcounts for a shard of `w`
    /// points over a history of `h` — never `O((h + w)²)`.
    ///
    /// Appending against spilled history reads the store (and may evict
    /// afterwards); those failures surface as [`SpillError`]s. A failure
    /// while **reloading history** for the cross block leaves the set
    /// untouched (safe to retry); a failure while **evicting** afterwards
    /// means the append itself already succeeded — check `len()` before
    /// retrying, or points double-append.
    ///
    /// # Panics
    /// Panics if `n_features` is smaller than a previous push's universe
    /// (codebooks only grow) or if a vector sets a feature outside it.
    pub fn push_shard(
        &mut self,
        vectors: &[&QueryVector],
        n_features: usize,
    ) -> Result<(), SpillError> {
        self.push_shard_threads(vectors, n_features, par::threads())
    }

    /// [`ShardedPointSet::push_shard`] with an explicit worker count.
    /// Mismatch counts are integers written to disjoint slices, so the
    /// result is identical for every `n_threads` (unit- and
    /// property-tested); this entry point exists so tests and benches can
    /// force the fan-out.
    pub fn push_shard_threads(
        &mut self,
        vectors: &[&QueryVector],
        n_features: usize,
        n_threads: usize,
    ) -> Result<(), SpillError> {
        assert!(
            n_features >= self.n_features,
            "feature universe may only grow ({} < {})",
            n_features,
            self.n_features
        );
        let start = self.len();
        let w = vectors.len();
        let new_bits: Vec<BitVec> =
            vectors.iter().map(|v| BitVec::from_query_vector(v, n_features)).collect();

        // Intra-shard strict upper triangle: rows (i, i+1..w) partition the
        // condensed buffer, so they fill lock-free.
        let mut intra = vec![0u32; w * w.saturating_sub(1) / 2];
        if w >= 2 {
            let cells = intra.len();
            let rows = par::triangle_rows(&mut intra, w);
            let nt = if cells < PARALLEL_MIN_CELLS { 1 } else { n_threads };
            let nb = &new_bits;
            par::run_tasks(rows, nt, |(i, row)| {
                let a = &nb[i];
                for (offset, cell) in row.iter_mut().enumerate() {
                    *cell = a.xor_count(&nb[i + 1 + offset]) as u32;
                }
            });
        }

        // Cross block against the history: one row per earlier point,
        // streamed one history shard at a time so spilled shards are
        // reloaded once each (and dropped again — peak memory stays at
        // the budget plus one shard). Earlier bitsets may be narrower
        // (the universe grew); the padded xor zero-extends them, which
        // preserves mismatch counts exactly.
        let mut cross = vec![0u32; start * w];
        if start > 0 && w > 0 {
            let mut rows = cross.chunks_mut(w).enumerate();
            let nb = &new_bits;
            // Gate parallelism on the *total* cross size, not per shard:
            // a long stream's history is many small shards, and per-shard
            // gating would serialize the whole block even when start·w is
            // huge. (Each shard still pays its own spawn round; the fill
            // dominates once the total crosses the threshold.)
            let nt = if start * w < PARALLEL_MIN_CELLS { 1 } else { n_threads };
            for h in 0..self.shards.len() {
                let hs = self.shard_starts[h];
                let he = self.shard_starts[h + 1];
                if he == hs {
                    continue;
                }
                let shard_rows: Vec<(usize, &mut [u32])> = rows.by_ref().take(he - hs).collect();
                self.try_with_shard(h, |data| {
                    par::run_tasks(shard_rows, nt, |(i, row)| {
                        let a = &data.bits[i - hs];
                        for (j, cell) in row.iter_mut().enumerate() {
                            *cell = a.xor_count_padded(&nb[j]) as u32;
                        }
                    });
                })?;
            }
        }

        // The fallible cross-block reloads are done: only now may
        // set-level state change, so an `Err` up to this point leaves the
        // set exactly as it was — in particular the universe width, which
        // every later distance read normalizes by. (The one later
        // fallible step, `enforce_budget`, can still fail — but by then
        // the append has succeeded, which is what its `Err` means; see
        // `push_shard`'s docs.)
        self.n_features = n_features;
        let record = ShardRecord { n_features, start, intra, cross, bits: new_bits };
        let bytes = record.payload_bytes();
        self.shards.push(ShardSlot { data: Some(Arc::new(record)), path: None, bytes });
        self.shard_starts.push(start + w);
        self.enforce_budget()
    }

    /// Shard containing point `i` (the latest shard when empty shards
    /// share a boundary, which is always the one that owns the point).
    fn shard_of(&self, i: usize) -> usize {
        self.shard_starts.partition_point(|&s| s <= i) - 1
    }

    /// `|xᵢ ⊕ xⱼ|`, served from the precomputed shard buffers (reloading
    /// a spilled shard if needed).
    ///
    /// # Panics
    /// Panics if an index is out of range, or if a spilled shard cannot be
    /// reloaded.
    pub fn mismatches(&self, i: usize, j: usize) -> usize {
        let n = self.len();
        assert!(i < n && j < n, "index ({i}, {j}) out of range {n}");
        if i == j {
            return 0;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        let s = self.shard_of(j);
        let start = self.shard_starts[s];
        let w = self.shard_starts[s + 1] - start;
        self.with_shard(s, |data| {
            if i >= start {
                // Same shard: condensed triangle of shard s.
                let (a, b) = (i - start, j - start);
                data.intra[condensed_row_start(w, a) + (b - a - 1)] as usize
            } else {
                data.cross[i * w + (j - start)] as usize
            }
        })
    }

    /// Distance between points `i` and `j` under `metric`, normalized at
    /// the **current** universe — identical to what the monolithic
    /// `PointSet` would report for the concatenated points.
    #[inline]
    pub fn distance(&self, i: usize, j: usize, metric: Distance) -> f64 {
        metric.of_mismatches(self.mismatches(i, j), self.n_features)
    }

    /// Merged read view under `metric` (borrowing; no materialization).
    pub fn condensed_shards(&self, metric: Distance) -> CondensedShards<'_> {
        CondensedShards { set: self, metric }
    }

    /// Materialize the merged condensed matrix under `metric` — the exact
    /// bits `PointSet::distances` would produce for the same points. A
    /// spilled shard that can no longer be reloaded (store deleted or
    /// corrupted underneath the set) surfaces as a [`SpillError`].
    pub fn condensed(&self, metric: Distance) -> Result<CondensedMatrix, SpillError> {
        self.condensed_shards(metric).to_condensed()
    }

    /// Merge every shard into **one** — same points, same integer
    /// mismatch counts, one slot — and return what was replaced. A long
    /// stream accretes one shard (and one store file) per window, and
    /// every bulk read then pays per-shard segment bookkeeping plus, when
    /// spilled, one file reload each; compaction collapses that to a
    /// single record whose merged triangle is assembled by **copying**
    /// the existing intra/cross integers (never recomputing a distance),
    /// so the compacted set serves bit-identical reads. Bitsets recorded
    /// at an older, narrower universe are zero-widened to the current
    /// one, which preserves every mismatch count.
    ///
    /// With a store attached the merged shard is written immediately
    /// (write-once files: the constituent files are obsolete but never
    /// deleted by the set — clones may still reference them; the
    /// returned [`CompactionStats::stale_files`] tells a caller which
    /// files stopped being referenced *by this set*, and deleting them
    /// is safe only once no clone can read them — `logr::Engine` defers
    /// that to its next recovery) and, when the merged payload exceeds
    /// the resident budget, evicted — compaction must not turn a bounded
    /// stream into an unbounded resident matrix just because the tail is
    /// normally pinned.
    ///
    /// No-op (and no write) when the set has fewer than two shards.
    pub fn compact(&mut self) -> Result<CompactionStats, SpillError> {
        let n_shards_before = self.n_shards();
        if n_shards_before <= 1 {
            return Ok(CompactionStats { shards_merged: 0, stale_files: Vec::new() });
        }
        let n = self.len();
        let nf = self.n_features;
        let mut intra = vec![0u32; n * n.saturating_sub(1) / 2];
        let mut bits: Vec<BitVec> = Vec::with_capacity(n);
        {
            // Same segment walk as the metric merge (`to_condensed`),
            // but copying raw u32 mismatch counts: shard t owns the intra
            // suffix of its own points' rows plus one w_t-wide run in each
            // earlier row, consumed left to right as t ascends.
            let mut rest: Vec<&mut [u32]> =
                par::triangle_rows(&mut intra, n).into_iter().map(|(_, row)| row).collect();
            for t in 0..self.shards.len() {
                let ts = self.shard_starts[t];
                let te = self.shard_starts[t + 1];
                let wt = te - ts;
                if wt == 0 {
                    continue;
                }
                let data = self.load_shard(t, false)?;
                for b in &data.bits {
                    bits.push(if b.len() == nf { b.clone() } else { b.widened(nf) });
                }
                for (i, slot) in rest.iter_mut().enumerate().take(te) {
                    let seg_len = if i >= ts { te - i - 1 } else { wt };
                    if seg_len == 0 {
                        continue;
                    }
                    let (seg, tail) = std::mem::take(slot).split_at_mut(seg_len);
                    *slot = tail;
                    let run: &[u32] = if i >= ts {
                        let a = i - ts;
                        &data.intra[condensed_row_start(wt, a)..][..wt - 1 - a]
                    } else {
                        &data.cross[i * wt..][..wt]
                    };
                    seg.copy_from_slice(run);
                }
            }
            debug_assert!(rest.iter().all(|r| r.is_empty()), "compaction left unfilled cells");
        }
        let record = ShardRecord { n_features: nf, start: 0, intra, cross: Vec::new(), bits };
        let bytes = record.payload_bytes();
        // Write the merged file *before* touching any set state, so an
        // `Err` anywhere in compaction leaves the set exactly as it was
        // (same contract as `push_shard`'s pre-append reloads).
        let mut path = None;
        let mut keep_resident = true;
        if let Some(cfg) = &self.spill {
            let seq = SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
            let p = cfg.dir.join(format!("shard-00000-{}-{seq:08x}.bin", std::process::id()));
            spill::write_file_with(&*self.vfs, &p, &record)?;
            path = Some(p);
            keep_resident = bytes <= cfg.resident_budget;
        }
        let stale_files: Vec<PathBuf> =
            self.shards.iter().filter_map(|slot| slot.path.clone()).collect();
        let data = keep_resident.then(|| Arc::new(record));
        self.shards = vec![ShardSlot { data, path, bytes }];
        self.shard_starts = vec![0, n];
        self.cache_lock().entry = None;
        Ok(CompactionStats { shards_merged: n_shards_before, stale_files })
    }
}

/// What [`ShardedPointSet::compact`] replaced.
#[derive(Debug, Clone, Default)]
pub struct CompactionStats {
    /// Shards merged into the single survivor (0 when compaction was a
    /// no-op).
    pub shards_merged: usize,
    /// Store files of the replaced shards. Obsolete for this set, but not
    /// deleted by it — clones sharing the directory may still read them;
    /// an exclusive owner may remove them.
    pub stale_files: Vec<PathBuf>,
}

/// Merged view over a [`ShardedPointSet`]'s per-shard buffers: serves the
/// same `n()`/`get(i, j)` reads as [`CondensedMatrix`] without copying, and
/// materializes one on demand for consumers that mutate in place.
#[derive(Debug, Clone, Copy)]
pub struct CondensedShards<'a> {
    set: &'a ShardedPointSet,
    metric: Distance,
}

impl CondensedShards<'_> {
    /// Number of points (side length of the represented square matrix).
    pub fn n(&self) -> usize {
        self.set.len()
    }

    /// The metric this view folds mismatch counts through.
    pub fn metric(&self) -> Distance {
        self.metric
    }

    /// Distance between `i` and `j` (0 on the diagonal) — the same
    /// contract as [`CondensedMatrix::get`].
    ///
    /// # Panics
    /// Panics if an index is out of range, or if a spilled shard cannot be
    /// reloaded.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.set.distance(i, j, self.metric)
    }

    /// Materialize as a [`CondensedMatrix`], filling rows in parallel.
    ///
    /// The merge streams **one shard at a time**: shard `t` owns a
    /// contiguous segment of every merged row it touches — the suffix of
    /// its own points' intra rows, plus one `w_t`-wide run in each earlier
    /// point's row (its cross block) — and merged rows are consumed left
    /// to right as `t` ascends, so each segment is split off and filled
    /// exactly once, in parallel, with no per-cell shard lookup. Spilled
    /// shards are reloaded for their turn and dropped again, so
    /// materializing over a spilled history holds at most one shard's
    /// payload beyond the resident budget. A spilled shard that can no
    /// longer be reloaded surfaces as a [`SpillError`].
    pub fn to_condensed(&self) -> Result<CondensedMatrix, SpillError> {
        let set = self.set;
        let n = set.len();
        let mut cm = CondensedMatrix::zeros(n);
        if n < 2 {
            return Ok(cm);
        }
        let metric = self.metric;
        let nf = set.n_features;
        let n_threads = par::threads();
        // Each merged row, progressively consumed: rest[i] holds the not-
        // yet-filled tail of row i.
        let mut rest: Vec<&mut [f64]> =
            par::triangle_rows(cm.data_mut(), n).into_iter().map(|(_, row)| row).collect();
        for t in 0..set.shards.len() {
            let ts = set.shard_starts[t];
            let te = set.shard_starts[t + 1];
            let wt = te - ts;
            if wt == 0 {
                continue;
            }
            // Loaded without touching the reload cache: a cache hit is
            // reused, but a miss loads transiently and drops when the
            // shard's segments are filled — a completed merge leaves
            // `resident_bytes()` exactly where it found it, so the budget
            // holds after a `history_summary`-style read, not just after
            // appends.
            let data = set.load_shard(t, false)?;
            let mut tasks: Vec<(usize, &mut [f64])> = Vec::with_capacity(te);
            let mut cells = 0usize;
            for (i, slot) in rest.iter_mut().enumerate().take(te) {
                // Rows of shard t's own points still need their intra
                // suffix; every earlier row needs t's cross run.
                let seg_len = if i >= ts { te - i - 1 } else { wt };
                if seg_len == 0 {
                    continue;
                }
                let (seg, tail) = std::mem::take(slot).split_at_mut(seg_len);
                *slot = tail;
                cells += seg_len;
                tasks.push((i, seg));
            }
            // Fan out per shard, by this shard's own cell count — a
            // history of many small shards fills serially instead of
            // paying a scoped spawn/join round per shard.
            let nt = if cells < PARALLEL_MIN_CELLS { 1 } else { n_threads };
            par::run_tasks(tasks, nt, |(i, seg)| {
                let run: &[u32] = if i >= ts {
                    let a = i - ts;
                    &data.intra[condensed_row_start(wt, a)..][..wt - 1 - a]
                } else {
                    &data.cross[i * wt..][..wt]
                };
                debug_assert_eq!(seg.len(), run.len());
                for (cell, &d) in seg.iter_mut().zip(run) {
                    *cell = metric.of_mismatches(d as usize, nf);
                }
            });
        }
        debug_assert!(rest.iter().all(|r| r.is_empty()), "merge left unfilled cells");
        Ok(cm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointset::PointSet;
    use crate::testutil::TempStore;
    use logr_feature::FeatureId;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    fn sample() -> Vec<QueryVector> {
        vec![
            qv(&[0, 1, 2]),
            qv(&[2, 3]),
            qv(&[]),
            qv(&[0, 5, 63, 64]),
            qv(&[64]),
            qv(&[1]),
            qv(&[7, 8]),
        ]
    }

    fn all_metrics() -> [Distance; 6] {
        [
            Distance::Euclidean,
            Distance::Manhattan,
            Distance::Minkowski(4.0),
            Distance::Hamming,
            Distance::Chebyshev,
            Distance::Canberra,
        ]
    }

    #[test]
    fn sharded_matches_monolithic_across_shardings() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let nf = 80;
        let monolithic = PointSet::from_vectors(&refs, nf);
        for shard_size in [1, 2, 3, refs.len()] {
            let mut sharded = ShardedPointSet::new();
            for chunk in refs.chunks(shard_size) {
                sharded.push_shard(chunk, nf).unwrap();
            }
            assert_eq!(sharded.len(), refs.len());
            for metric in all_metrics() {
                let merged = sharded.condensed(metric).unwrap();
                let whole = monolithic.distances(metric);
                assert_eq!(
                    merged.as_slice(),
                    whole.as_slice(),
                    "{metric:?} shard_size={shard_size}"
                );
            }
        }
    }

    #[test]
    fn view_reads_match_materialized_matrix() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        for chunk in refs.chunks(3) {
            sharded.push_shard(chunk, 80).unwrap();
        }
        let view = sharded.condensed_shards(Distance::Hamming);
        let cm = view.to_condensed().unwrap();
        assert_eq!(view.n(), cm.n());
        for i in 0..view.n() {
            for j in 0..view.n() {
                assert_eq!(view.get(i, j).to_bits(), cm.get(i, j).to_bits(), "({i}, {j})");
            }
        }
        assert_eq!(view.get(2, 2), 0.0);
    }

    #[test]
    fn growing_universe_normalizes_at_the_widest_push() {
        // Shard 1 lives in a 8-feature universe, shard 2 widens it to 128;
        // Hamming must normalize every pair by the final width, exactly as
        // a monolithic build over the final universe would.
        let a = [qv(&[0, 1]), qv(&[2])];
        let b = [qv(&[100, 127]), qv(&[0])];
        let refs_a: Vec<&QueryVector> = a.iter().collect();
        let refs_b: Vec<&QueryVector> = b.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded.push_shard(&refs_a, 8).unwrap();
        sharded.push_shard(&refs_b, 128).unwrap();
        assert_eq!(sharded.n_features(), 128);

        let all: Vec<&QueryVector> = a.iter().chain(b.iter()).collect();
        let monolithic = PointSet::from_vectors(&all, 128);
        for metric in all_metrics() {
            assert_eq!(
                sharded.condensed(metric).unwrap().as_slice(),
                monolithic.distances(metric).as_slice(),
                "{metric:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "universe may only grow")]
    fn shrinking_universe_rejected() {
        let v = qv(&[0]);
        let mut sharded = ShardedPointSet::new();
        sharded.push_shard(&[&v], 16).unwrap();
        sharded.push_shard(&[&v], 8).unwrap();
    }

    #[test]
    fn empty_shards_are_transparent() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded.push_shard(&[], 80).unwrap();
        sharded.push_shard(&refs[..4], 80).unwrap();
        sharded.push_shard(&[], 80).unwrap();
        sharded.push_shard(&refs[4..], 80).unwrap();
        assert_eq!(sharded.n_shards(), 4);
        assert_eq!(sharded.shard_range(1), 0..4);
        assert!(sharded.shard_range(2).is_empty());
        let monolithic = PointSet::from_vectors(&refs, 80);
        assert_eq!(
            sharded.condensed(Distance::Manhattan).unwrap().as_slice(),
            monolithic.distances(Distance::Manhattan).as_slice()
        );
    }

    #[test]
    fn forced_thread_counts_are_deterministic() {
        // Big enough to cross PARALLEL_MIN_CELLS in both intra and cross.
        let vs: Vec<QueryVector> =
            (0..300u32).map(|i| qv(&[i % 32, (i * 7) % 32, (i * 13) % 32])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut results = Vec::new();
        for n_threads in [1usize, 2, 7] {
            let mut sharded = ShardedPointSet::new();
            for chunk in refs.chunks(150) {
                sharded.push_shard_threads(chunk, 32, n_threads).unwrap();
            }
            results.push(sharded.condensed(Distance::Euclidean).unwrap());
        }
        assert_eq!(results[0].as_slice(), results[1].as_slice());
        assert_eq!(results[0].as_slice(), results[2].as_slice());
    }

    #[test]
    fn degenerate_sizes() {
        // Regression: `default()` must be the same valid empty set as
        // `new()` (an earlier cut derived Default with an empty
        // `shard_starts`, which panicked on first use).
        let defaulted = ShardedPointSet::default();
        assert!(defaulted.is_empty());
        assert_eq!(defaulted.condensed(Distance::Hamming).unwrap().n(), 0);

        let empty = ShardedPointSet::new();
        assert!(empty.is_empty());
        assert_eq!(empty.n_shards(), 0);
        assert_eq!(empty.condensed(Distance::Hamming).unwrap().n(), 0);

        let v = qv(&[1]);
        let mut one = ShardedPointSet::new();
        one.push_shard(&[&v], 4).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one.mismatches(0, 0), 0);
        let cm = one.condensed(Distance::Manhattan).unwrap();
        assert_eq!(cm.n(), 1);
        assert_eq!(cm.get(0, 0), 0.0);
    }

    #[test]
    fn budget_evicts_oldest_and_pins_the_tail() {
        let store = TempStore::new("budget");
        let vs: Vec<QueryVector> = (0..60u32).map(|i| qv(&[i % 16, (i * 3) % 16])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        for chunk in refs.chunks(10) {
            sharded.push_shard(chunk, 16).unwrap();
            // Budget 0: everything but the pinned tail is spilled, and the
            // tail is always the newest shard.
            let n = sharded.n_shards();
            assert!(sharded.shard_is_resident(n - 1), "hot tail must stay resident");
            assert_eq!(sharded.spilled_shards(), n - 1);
        }
        // The resident payload is exactly the tail's.
        assert!(sharded.resident_bytes() > 0);
        // Reads against spilled shards reload transparently and agree with
        // the monolithic build.
        let monolithic = PointSet::from_vectors(&refs, 16);
        assert_eq!(
            sharded.condensed(Distance::Hamming).unwrap().as_slice(),
            monolithic.distances(Distance::Hamming).as_slice()
        );
        assert_eq!(sharded.mismatches(0, 59), monolithic.mismatches(0, 59));
    }

    #[test]
    fn spill_all_forces_every_shard_out_and_back() {
        let store = TempStore::new("all");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut resident = ShardedPointSet::new();
        let mut spilled = ShardedPointSet::new();
        spilled
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX })
            .unwrap();
        for chunk in refs.chunks(2) {
            resident.push_shard(chunk, 80).unwrap();
            spilled.push_shard(chunk, 80).unwrap();
        }
        assert_eq!(spilled.spilled_shards(), 0, "unbounded budget spills nothing");
        let evicted = spilled.spill_all().unwrap();
        assert_eq!(evicted, spilled.n_shards());
        assert_eq!(spilled.resident_bytes(), 0);
        for metric in all_metrics() {
            assert_eq!(
                spilled.condensed(metric).unwrap().as_slice(),
                resident.condensed(metric).unwrap().as_slice(),
                "{metric:?}"
            );
        }
        // Bulk merges stream shards transiently: after six full merges
        // nothing is pinned — the budget holds across reads, not just
        // appends.
        assert_eq!(spilled.resident_bytes(), 0, "a merge must not populate the cache");
        // Point reads reload through the cache; re-evicting afterwards is
        // free (the files already exist).
        assert_eq!(spilled.mismatches(1, 6), resident.mismatches(1, 6));
        assert!(spilled.resident_bytes() > 0, "point read populated the reload cache");
        let again = spilled.spill_all().unwrap();
        assert_eq!(again, 0, "payloads were already on disk; only the cache cleared");
        assert_eq!(spilled.resident_bytes(), 0);
    }

    #[test]
    fn pushing_against_spilled_history_matches_resident_push() {
        let store = TempStore::new("push");
        // Enough points per shard to exercise real cross blocks.
        let vs: Vec<QueryVector> =
            (0..200u32).map(|i| qv(&[i % 24, (i * 5) % 24, (i * 11) % 24])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut resident = ShardedPointSet::new();
        let mut spilled = ShardedPointSet::new();
        spilled
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        for chunk in refs.chunks(40) {
            resident.push_shard(chunk, 24).unwrap();
            spilled.push_shard(chunk, 24).unwrap(); // cross block reloads history shards
        }
        assert_eq!(spilled.spilled_shards(), spilled.n_shards() - 1);
        assert_eq!(
            spilled.condensed(Distance::Canberra).unwrap().as_slice(),
            resident.condensed(Distance::Canberra).unwrap().as_slice()
        );
    }

    #[test]
    fn failed_push_does_not_widen_the_universe() {
        // Regression: a push that dies reloading spilled history (here:
        // the store vanishes underneath the set) must leave the set
        // exactly as it was — in particular `n_features`, which every
        // later read normalizes distances by. The buggy version widened
        // the universe before the fallible reload, silently shrinking
        // all Hamming/Canberra distances after a handled error.
        let store = TempStore::new("rollback");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        sharded.push_shard(&refs[..3], 80).unwrap();
        sharded.push_shard(&refs[3..5], 80).unwrap(); // spills shard 0
        assert_eq!(sharded.spilled_shards(), 1);
        let before = sharded.condensed(Distance::Hamming).unwrap();
        for entry in std::fs::read_dir(store.path()).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
        sharded.cache.lock().unwrap().entry = None; // drop the reload cache
        let err = sharded.push_shard(&refs[5..], 120).unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err}");
        assert_eq!(sharded.n_features(), 80, "failed push must not widen the universe");
        assert_eq!(sharded.len(), 5, "failed push must not append points");
        // Resident reads (shard 1 + the pinned tail) still normalize at
        // the original width.
        assert_eq!(sharded.distance(3, 4, Distance::Hamming), before.get(3, 4));
    }

    #[test]
    fn compact_preserves_every_distance_bit_for_bit() {
        // Growing universe + a mix of resident and spilled constituents:
        // compaction must copy, never recompute, so reads agree with the
        // monolithic build on every metric.
        let store = TempStore::new("compact");
        let vs: Vec<QueryVector> =
            (0..90u32).map(|i| qv(&[i % 16, (i * 3) % 48, (i * 7) % 48])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        // First shards close at a narrower universe than later ones.
        for (c, chunk) in refs.chunks(15).enumerate() {
            sharded.push_shard(chunk, if c < 2 { 48 } else { 64 }).unwrap();
        }
        assert!(sharded.spilled_shards() > 0, "budget 0 must have spilled history");
        let before: Vec<CondensedMatrix> =
            all_metrics().iter().map(|&m| sharded.condensed(m).unwrap()).collect();
        let point_before = sharded.mismatches(3, 71);

        let stats = sharded.compact().unwrap();
        assert_eq!(stats.shards_merged, 6);
        assert!(!stats.stale_files.is_empty(), "spilled constituents leave stale files");
        assert_eq!(sharded.n_shards(), 1);
        assert_eq!(sharded.len(), refs.len());
        assert_eq!(sharded.n_features(), 64);
        for (m, reference) in all_metrics().iter().zip(&before) {
            assert_eq!(sharded.condensed(*m).unwrap().as_slice(), reference.as_slice(), "{m:?}");
        }
        assert_eq!(sharded.mismatches(3, 71), point_before);
        // Appends keep working against the compacted history.
        let extra = qv(&[0, 63]);
        let mut grown = sharded.clone();
        grown.push_shard(&[&extra], 64).unwrap();
        let mut all: Vec<&QueryVector> = refs.clone();
        all.push(&extra);
        let monolithic = PointSet::from_vectors(&all, 64);
        assert_eq!(
            grown.condensed(Distance::Hamming).unwrap().as_slice(),
            monolithic.distances(Distance::Hamming).as_slice()
        );
        // Compacting a single shard is a no-op.
        let again = sharded.compact().unwrap();
        assert_eq!(again.shards_merged, 0);
    }

    #[test]
    fn compact_respects_the_resident_budget() {
        // The merged shard is the pinned tail, but compaction must not let
        // that pin blow the budget: over-budget merges land evicted.
        let store = TempStore::new("compact-budget");
        let vs: Vec<QueryVector> = (0..60u32).map(|i| qv(&[i % 16, (i * 5) % 16])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        for chunk in refs.chunks(10) {
            sharded.push_shard(chunk, 16).unwrap();
        }
        sharded.compact().unwrap();
        assert_eq!(sharded.spilled_shards(), 1, "over-budget merge must evict");
        assert_eq!(sharded.resident_bytes(), 0);
        let monolithic = PointSet::from_vectors(&refs, 16);
        assert_eq!(
            sharded.condensed(Distance::Hamming).unwrap().as_slice(),
            monolithic.distances(Distance::Hamming).as_slice()
        );
    }

    #[test]
    fn persist_all_writes_files_without_evicting() {
        let store = TempStore::new("persist");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX })
            .unwrap();
        for chunk in refs.chunks(2) {
            sharded.push_shard(chunk, 80).unwrap();
        }
        let resident_before = sharded.resident_bytes();
        let written = sharded.persist_all().unwrap();
        assert_eq!(written, sharded.n_shards());
        assert_eq!(sharded.resident_bytes(), resident_before, "persisting must not evict");
        assert_eq!(sharded.spilled_shards(), 0);
        for s in 0..sharded.n_shards() {
            assert!(sharded.shard_file(s).is_some_and(Path::exists), "shard {s} has no file");
        }
        // Idempotent: the files exist, nothing rewrites.
        assert_eq!(sharded.persist_all().unwrap(), 0);
    }

    #[test]
    fn from_spilled_files_rebuilds_bit_identically() {
        let store = TempStore::new("recover");
        let vs: Vec<QueryVector> =
            (0..50u32).map(|i| qv(&[i % 8, (i * 3) % 40, (i * 11) % 40])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut original = ShardedPointSet::new();
        original
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX })
            .unwrap();
        for (c, chunk) in refs.chunks(10).enumerate() {
            original.push_shard(chunk, if c == 0 { 40 } else { 48 }).unwrap();
        }
        original.persist_all().unwrap();
        let files: Vec<PathBuf> = (0..original.n_shards())
            .map(|s| original.shard_file(s).unwrap().to_path_buf())
            .collect();

        let reopened = ShardedPointSet::from_spilled_files(
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX },
            &files,
        )
        .unwrap();
        assert_eq!(reopened.len(), original.len());
        assert_eq!(reopened.n_shards(), original.n_shards());
        assert_eq!(reopened.n_features(), original.n_features());
        assert_eq!(reopened.resident_bytes(), 0, "recovery must not preload payloads");
        for metric in all_metrics() {
            assert_eq!(
                reopened.condensed(metric).unwrap().as_slice(),
                original.condensed(metric).unwrap().as_slice(),
                "{metric:?}"
            );
        }
        assert_eq!(reopened.mismatches(0, 49), original.mismatches(0, 49));

        // A reordered chain is a typed error, not a wrong answer.
        let mut swapped = files.clone();
        swapped.swap(0, 1);
        let err = ShardedPointSet::from_spilled_files(
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 },
            &swapped,
        )
        .unwrap_err();
        assert!(matches!(err, SpillError::ChainMismatch { .. }), "{err}");
        // A missing file is an I/O error.
        let mut missing = files.clone();
        missing[0] = store.join("gone.bin");
        let err = ShardedPointSet::from_spilled_files(
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 },
            &missing,
        )
        .unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err}");
    }

    #[test]
    fn reloads_skip_the_checksum_pass_after_first_open_validation() {
        let store = TempStore::new("validate-once");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        sharded.push_shard(&refs[..4], 80).unwrap();
        sharded.push_shard(&refs[4..], 80).unwrap(); // spills shard 0
        assert!(!sharded.shard_is_resident(0));
        let before = sharded.mismatches(0, 1);
        sharded.cache.lock().unwrap().entry = None;
        // Flip a byte of the *stored checksum* (the payload is untouched):
        // a first-open validation rejects the file, but reloads trust it —
        // this process already checksummed these exact payload bytes once,
        // and the file is write-once.
        let path = sharded.shard_file(0).unwrap().to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(sharded.mismatches(0, 1), before, "trusted reload must serve the payload");
        let err = ShardedPointSet::from_spilled_files(
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 },
            &[path],
        )
        .unwrap_err();
        assert!(matches!(err, SpillError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn clones_share_the_store_without_colliding() {
        let store = TempStore::new("clone");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut base = ShardedPointSet::new();
        base.set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        base.push_shard(&refs[..4], 80).unwrap();
        let mut a = base.clone();
        let mut b = base.clone();
        // Both clones append shard #1 and spill it into the shared
        // directory; the global name sequence keeps the files distinct.
        a.push_shard(&refs[4..6], 80).unwrap();
        b.push_shard(&refs[4..], 80).unwrap();
        a.spill_all().unwrap();
        b.spill_all().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 7);
        let mono_a = PointSet::from_vectors(&refs[..6], 80);
        assert_eq!(
            a.condensed(Distance::Hamming).unwrap().as_slice(),
            mono_a.distances(Distance::Hamming).as_slice()
        );
        let mono_b = PointSet::from_vectors(&refs, 80);
        assert_eq!(
            b.condensed(Distance::Hamming).unwrap().as_slice(),
            mono_b.distances(Distance::Hamming).as_slice()
        );
    }

    #[test]
    fn store_failure_is_a_typed_error_not_a_corrupt_set() {
        let store = TempStore::new("fail");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        sharded.push_shard(&refs[..3], 80).unwrap();
        // Point the store at a dead directory: the next eviction fails
        // with a typed error and the shard stays resident (no data loss).
        sharded.spill = Some(SpillConfig { dir: store.join("no/such/dir"), resident_budget: 0 });
        let err = sharded.push_shard(&refs[3..], 80).unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err}");
        assert_eq!(sharded.len(), refs.len(), "the append itself succeeded");
        assert_eq!(sharded.spilled_shards(), 0, "the failed eviction restored the payload");
        let monolithic = PointSet::from_vectors(&refs, 80);
        assert_eq!(
            sharded.condensed(Distance::Hamming).unwrap().as_slice(),
            monolithic.distances(Distance::Hamming).as_slice()
        );
    }
}
