//! Tenant registry: lazily opened per-tenant engines under one root,
//! sharing one global resident-byte budget.
//!
//! Each tenant owns a subdirectory `<root>/<name>` holding a complete,
//! standalone engine store (manifest, delta log, spilled shards, lock
//! file) — a tenant's store can always be opened later by a plain
//! [`logr::Engine`] session; the daemon adds nothing to the on-disk
//! format. Engines open lazily on first use, exclusively locked through
//! the engine's own `StoreLock`, and write through a per-tenant
//! [`GroupCommitVfs`] so the committer can coalesce their delta fsyncs.
//!
//! # Budget apportionment
//!
//! The server is configured with one **global** resident-byte budget for
//! spilled shard caches. The registry splits it evenly across live
//! tenants and re-apportions on every open and close — admitting a tenant
//! shrinks everyone's share (evicting resident shards as needed, oldest
//! first), closing one returns its share to the survivors. Apportionment
//! only governs which shards stay *resident in memory*; it never changes
//! what is on disk.

use crate::commit::GroupCommitVfs;
use crate::protocol::{protocol, ServerError};
use logr::cluster::vfs::Vfs;
use logr::{Engine, SourceConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum tenant-name length, in bytes.
pub const MAX_TENANT_NAME: usize = 64;

/// Validates a tenant name: 1–64 bytes of `[A-Za-z0-9_-]`.
///
/// The name becomes a single path component under the server root, so the
/// alphabet excludes separators, `.`, and anything else that could
/// traverse or alias directories.
pub fn validate_name(name: &str) -> Result<(), ServerError> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME {
        return Err(protocol(format!("tenant name must be 1..={MAX_TENANT_NAME} bytes")));
    }
    if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-') {
        return Err(protocol("tenant name may only contain [A-Za-z0-9_-]".to_owned()));
    }
    Ok(())
}

/// Engine parameters every tenant store is opened with.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Queries per summarization window.
    pub window: u64,
    /// Clusters (patterns) per window summary.
    pub clusters: usize,
    /// Deterministic seed for clustering.
    pub seed: u64,
    /// Default source (featurizer) for tenants that don't name one in
    /// their first frame. A request's `"source"` field overrides this at
    /// first open; a resumed store's manifest always wins over both.
    pub source: SourceConfig,
}

impl Default for EngineProfile {
    fn default() -> EngineProfile {
        EngineProfile { window: 64, clusters: 4, seed: 42, source: SourceConfig::Sql }
    }
}

/// One live tenant: its engine, its group-commit wrapper, and the
/// rebase-needed flag the committer raises when a flush fails.
#[derive(Debug)]
pub struct Tenant {
    /// The validated tenant name.
    pub name: String,
    /// The tenant's engine, writing through [`Tenant::commit`].
    pub engine: Engine,
    /// The group-commit vfs wrapper holding this tenant's deferred
    /// delta fsyncs.
    pub commit: Arc<GroupCommitVfs>,
    needs_rebase: AtomicBool,
}

impl Tenant {
    /// True when a failed flush left the delta log's durability unknown
    /// and the tenant must be checkpointed before the next ack.
    pub fn needs_rebase(&self) -> bool {
        self.needs_rebase.load(Ordering::Acquire)
    }

    /// Raise or clear the rebase flag.
    pub fn set_needs_rebase(&self, value: bool) {
        self.needs_rebase.store(value, Ordering::Release);
    }
}

/// The set of live tenants plus the budget math over them.
#[derive(Debug)]
pub struct TenantRegistry {
    root: PathBuf,
    base_vfs: Arc<dyn Vfs>,
    global_budget: usize,
    profile: EngineProfile,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// A registry over `root`, opening tenant engines on `base_vfs` with
    /// `profile`, apportioning `global_budget` resident bytes.
    pub fn new(
        root: PathBuf,
        base_vfs: Arc<dyn Vfs>,
        profile: EngineProfile,
        global_budget: usize,
    ) -> TenantRegistry {
        TenantRegistry {
            root,
            base_vfs,
            global_budget,
            profile,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured global resident-byte budget.
    pub fn global_budget(&self) -> usize {
        self.global_budget
    }

    /// The per-tenant budget share at `n` live tenants (the whole
    /// budget when none are).
    pub fn share_at(&self, n: usize) -> usize {
        self.global_budget.checked_div(n).unwrap_or(self.global_budget)
    }

    fn lock_tenants(
        &self,
    ) -> Result<std::sync::MutexGuard<'_, BTreeMap<String, Arc<Tenant>>>, ServerError> {
        self.tenants.lock().map_err(|_| ServerError::Engine(logr::Error::Poisoned))
    }

    /// The tenant's engine, opening (and locking) its store on first use.
    ///
    /// `source` is the request's `"source"` field: it selects the
    /// featurizer when this call **creates** the tenant's store. On an
    /// already-open tenant — or a store resumed from disk, where the
    /// manifest's stored source always wins — a mismatching explicit
    /// `source` is a protocol error rather than a silent ignore.
    ///
    /// Opening a new tenant re-apportions the global budget over the
    /// grown tenant set before returning.
    pub fn get_or_open(
        &self,
        name: &str,
        source: Option<SourceConfig>,
    ) -> Result<Arc<Tenant>, ServerError> {
        validate_name(name)?;
        let mut tenants = self.lock_tenants()?;
        if let Some(t) = tenants.get(name) {
            Self::check_source(name, &t.engine, source)?;
            return Ok(t.clone());
        }
        let share = self.share_at(tenants.len() + 1);
        let commit = Arc::new(GroupCommitVfs::new(self.base_vfs.clone()));
        let engine = Engine::builder()
            .window(self.profile.window)
            .clusters(self.profile.clusters)
            .seed(self.profile.seed)
            .source(source.unwrap_or(self.profile.source))
            .resident_budget(share)
            .vfs(commit.clone() as Arc<dyn Vfs>)
            .open(self.root.join(name))?;
        // A resumed store keeps its manifest's source; dropping the
        // engine here releases the store lock before we report the
        // conflict.
        if let Err(e) = Self::check_source(name, &engine, source) {
            drop(engine);
            return Err(e);
        }
        let tenant = Arc::new(Tenant {
            name: name.to_owned(),
            engine,
            commit,
            needs_rebase: AtomicBool::new(false),
        });
        tenants.insert(name.to_owned(), tenant.clone());
        Self::apportion(&tenants, share)?;
        Ok(tenant)
    }

    /// The tenant if it is currently open.
    pub fn get(&self, name: &str) -> Result<Option<Arc<Tenant>>, ServerError> {
        validate_name(name)?;
        Ok(self.lock_tenants()?.get(name).cloned())
    }

    /// Closes a tenant: flushes its deferred fsyncs, releases its engine
    /// (and store lock), and returns its budget share to the survivors.
    pub fn close(&self, name: &str) -> Result<(), ServerError> {
        validate_name(name)?;
        let tenant = {
            let mut tenants = self.lock_tenants()?;
            let tenant = tenants
                .remove(name)
                .ok_or_else(|| protocol(format!("tenant \"{name}\" is not open")))?;
            let share = self.share_at(tenants.len().max(1));
            Self::apportion(&tenants, share)?;
            tenant
        };
        // Flush outside the registry lock: a slow disk must not block
        // other tenants opening/closing.
        tenant.commit.flush().map_err(|e| ServerError::Engine(logr::Error::from(e)))?;
        Ok(())
    }

    /// Every live tenant, in name order.
    pub fn list(&self) -> Result<Vec<Arc<Tenant>>, ServerError> {
        Ok(self.lock_tenants()?.values().cloned().collect())
    }

    /// Number of live tenants.
    pub fn len(&self) -> Result<usize, ServerError> {
        Ok(self.lock_tenants()?.len())
    }

    /// True when no tenant is open.
    pub fn is_empty(&self) -> Result<bool, ServerError> {
        Ok(self.lock_tenants()?.is_empty())
    }

    /// Errors when a request's explicit source disagrees with the source
    /// the tenant's engine actually runs.
    fn check_source(
        name: &str,
        engine: &Engine,
        requested: Option<SourceConfig>,
    ) -> Result<(), ServerError> {
        // Frames without an explicit source (the common case) never
        // touch the engine here.
        let Some(requested) = requested else { return Ok(()) };
        let actual = engine.snapshot()?.source();
        if requested != actual {
            return Err(protocol(format!(
                "tenant \"{name}\" runs source {actual:?} but the request asked for {requested:?}"
            )));
        }
        Ok(())
    }

    fn apportion(tenants: &BTreeMap<String, Arc<Tenant>>, share: usize) -> Result<(), ServerError> {
        for tenant in tenants.values() {
            tenant.engine.set_resident_budget(share)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_rejects_traversal_and_separators() {
        for ok in ["a", "tenant-1", "A_b-C", &"x".repeat(64)] {
            assert!(validate_name(ok).is_ok(), "rejected {ok:?}");
        }
        for bad in ["", "..", "a/b", "a\\b", ".", "a.b", "a b", "é", &"x".repeat(65)] {
            assert!(validate_name(bad).is_err(), "accepted {bad:?}");
        }
    }
}
