//! PR 6 acceptance, transient-fault half: injected IO errors.
//!
//! Every test drives a real engine over a [`FaultFs`] and injects
//! failures at specific call sites:
//!
//! * transient faults (`EINTR`) are retried transparently — bounded by
//!   [`IO_RETRY_ATTEMPTS`], never forever;
//! * `ENOSPC` fails fast as the typed [`Error::StorageExhausted`];
//! * a failed persist leaves the store openable at its previous durable
//!   checkpoint;
//! * [`EngineBuilder::read_only`] serves the full read surface without
//!   taking the store lock or garbage-collecting, and every write entry
//!   point is the typed [`Error::ReadOnly`];
//! * the `O_EXCL` store lock takes over verified-stale (dead-pid) locks,
//!   refuses live foreign owners, and survives a lost `create_exclusive`
//!   race.

use logr::cluster::vfs::{FaultFs, OpKind, Vfs, IO_RETRY_ATTEMPTS};
use logr::cluster::SpillError;
use logr::{Engine, EngineBuilder, Error};
use std::collections::{BTreeMap, BTreeSet};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn statement(i: u64) -> String {
    format!("SELECT c{} FROM t{} WHERE a{} = ?", i % 13, i % 3, i % 7)
}

/// Fresh engine on a fresh `FaultFs`: window 4, 2 clusters, budget 0 so
/// every window close writes shard files (maximum IO surface).
fn spilling_engine(dir: &Path) -> (Arc<FaultFs>, Engine) {
    let fs = Arc::new(FaultFs::new());
    let engine = Engine::builder()
        .window(4)
        .clusters(2)
        .resident_budget(0)
        .vfs(fs.clone())
        .open(dir)
        .expect("open");
    (fs, engine)
}

#[test]
fn transient_eintr_is_retried_transparently() {
    let dir = PathBuf::from("/vstore-eintr-ok");
    let (fs, engine) = spilling_engine(&dir);
    // Two consecutive EINTRs on every IO class the write path uses —
    // all inside the retry budget, so the caller never sees them.
    fs.inject(OpKind::Write, "shard-", ErrorKind::Interrupted, 2);
    fs.inject(OpKind::Fsync, "shard-", ErrorKind::Interrupted, 2);
    fs.inject(OpKind::Write, "engine.tmp", ErrorKind::Interrupted, 2);
    for i in 0..8 {
        engine.ingest(&statement(i)).expect("ingest rides out EINTR");
    }
    engine.checkpoint().expect("checkpoint rides out EINTR");
    assert_eq!(engine.snapshot().unwrap().windows_closed(), 2);
}

#[test]
fn persistent_eintr_is_bounded_not_an_infinite_loop() {
    let dir = PathBuf::from("/vstore-eintr-forever");
    let (fs, engine) = spilling_engine(&dir);
    // More consecutive failures than the retry budget: the engine must
    // give up with a typed error (here inside the shard store), not spin.
    fs.inject(OpKind::Write, "shard-", ErrorKind::Interrupted, IO_RETRY_ATTEMPTS + 10);
    let err = (0..8)
        .map(|i| engine.ingest(&statement(i)))
        .find_map(Result::err)
        .expect("a window close must hit the failing shard write");
    match err {
        Error::Spill(SpillError::Io(io)) => assert_eq!(io.kind(), ErrorKind::Interrupted),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn enospc_on_the_shard_store_is_storage_exhausted() {
    let dir = PathBuf::from("/vstore-enospc-shard");
    let (fs, engine) = spilling_engine(&dir);
    // ENOSPC is not transient: it must fail fast (single attempt), with
    // the operator-actionable typed error.
    fs.inject(OpKind::Write, "shard-", ErrorKind::StorageFull, usize::MAX);
    let err = (0..8)
        .map(|i| engine.ingest(&statement(i)))
        .find_map(Result::err)
        .expect("a window close must hit the full disk");
    assert!(matches!(err, Error::StorageExhausted { .. }), "wrong error: {err}");
}

#[test]
fn enospc_on_the_manifest_is_storage_exhausted() {
    let dir = PathBuf::from("/vstore-enospc-manifest");
    let (fs, engine) = spilling_engine(&dir);
    for i in 0..8 {
        engine.ingest(&statement(i)).expect("ingest");
    }
    fs.inject(OpKind::Write, "engine.tmp", ErrorKind::StorageFull, usize::MAX);
    match engine.checkpoint().unwrap_err() {
        Error::StorageExhausted { detail } => {
            assert!(detail.contains("engine.tmp"), "detail should name the failing file: {detail}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn failed_persist_leaves_the_store_openable_at_the_previous_checkpoint() {
    let dir = PathBuf::from("/vstore-failed-close");
    let (fs, engine) = spilling_engine(&dir);
    for i in 0..8 {
        engine.ingest(&statement(i)).expect("ingest");
    }
    engine.checkpoint().expect("good checkpoint");
    // Ingest to the next window close: its auto-persist is the last
    // checkpoint the store will hold durably.
    for i in 8..12 {
        engine.ingest(&statement(i)).expect("ingest");
    }
    let durable_windows = engine.snapshot().unwrap().windows_closed();
    let durable_queries = engine.total_queries().unwrap();
    // More work lands in the buffer, then the disk starts failing: the
    // checkpoint attempt errors out...
    for i in 12..14 {
        engine.ingest(&statement(i)).expect("ingest");
    }
    fs.inject(OpKind::Write, "engine.tmp", ErrorKind::StorageFull, usize::MAX);
    assert!(engine.checkpoint().is_err(), "checkpoint must fail under ENOSPC");
    fs.clear_faults();
    drop(engine);
    // ...and the store still opens, exactly at the last good checkpoint:
    // the atomic write protocol never touched the previous manifest.
    let recovered =
        EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("store survived the failed close");
    assert_eq!(recovered.snapshot().unwrap().windows_closed(), durable_windows);
    assert_eq!(recovered.total_queries().unwrap(), durable_queries);
}

#[test]
fn read_only_engine_serves_reads_beside_a_live_writer() {
    let dir = PathBuf::from("/vstore-ro-beside");
    let (fs, writer) = spilling_engine(&dir);
    for i in 0..9 {
        writer.ingest(&statement(i)).expect("ingest");
    }
    writer.checkpoint().expect("checkpoint");
    // The writer still holds the store lock; a read-only open must not
    // contend for it.
    let reader = EngineBuilder::new()
        .read_only()
        .vfs(fs.clone())
        .resume(&dir)
        .expect("read-only open beside the live writer");
    assert!(reader.is_read_only());
    assert!(!writer.is_read_only());
    assert_eq!(
        reader.snapshot().unwrap().windows_closed(),
        writer.snapshot().unwrap().windows_closed()
    );
    assert_eq!(reader.total_queries().unwrap(), writer.total_queries().unwrap());
    let (r, w) = (
        reader.snapshot().unwrap().summary().unwrap(),
        writer.snapshot().unwrap().summary().unwrap(),
    );
    match (r, w) {
        (Some(r), Some(w)) => {
            assert_eq!(r.clustering, w.clustering);
            assert_eq!(r.error().to_bits(), w.error().to_bits());
        }
        (r, w) => panic!("summaries diverged: reader={:?} writer={:?}", r.is_some(), w.is_some()),
    }
}

#[test]
fn read_only_engine_rejects_every_write_entry_point() {
    let dir = PathBuf::from("/vstore-ro-writes");
    let (fs, writer) = spilling_engine(&dir);
    for i in 0..9 {
        writer.ingest(&statement(i)).expect("ingest");
    }
    writer.checkpoint().expect("checkpoint");
    drop(writer);
    let reader = EngineBuilder::new().read_only().vfs(fs).resume(&dir).expect("read-only open");
    assert!(matches!(reader.ingest("SELECT 1"), Err(Error::ReadOnly)));
    assert!(matches!(reader.ingest_with("SELECT 1", 3, None), Err(Error::ReadOnly)));
    assert!(matches!(reader.ingest_with("SELECT 1", 1, Some(99)), Err(Error::ReadOnly)));
    assert!(matches!(reader.flush(), Err(Error::ReadOnly)));
    assert!(matches!(reader.checkpoint(), Err(Error::ReadOnly)));
    assert!(matches!(reader.compact(), Err(Error::ReadOnly)));
}

#[test]
fn read_only_open_takes_no_lock_and_garbage_collects_nothing() {
    let dir = PathBuf::from("/vstore-ro-nogc");
    let (fs, writer) = spilling_engine(&dir);
    for i in 0..9 {
        writer.ingest(&statement(i)).expect("ingest");
    }
    writer.checkpoint().expect("checkpoint");
    drop(writer);
    // Plant leftovers a writable resume would sweep: an unreferenced
    // shard file and an orphaned .tmp.
    let orphan_bin = dir.join("shard-99999-orphan.bin");
    let orphan_tmp = dir.join("shard-99999-orphan.tmp");
    fs.write(&orphan_bin, b"junk").unwrap();
    fs.write(&orphan_tmp, b"junk").unwrap();
    let reader =
        EngineBuilder::new().read_only().vfs(fs.clone()).resume(&dir).expect("read-only open");
    assert!(reader.snapshot().unwrap().summary().unwrap().is_some());
    assert!(!fs.exists(&dir.join("engine.lock")), "read-only open must not create a lock");
    assert!(fs.exists(&orphan_bin), "read-only open must not garbage-collect");
    assert!(fs.exists(&orphan_tmp), "read-only open must not garbage-collect");
    drop(reader);
    // A writable resume of the same store does sweep them.
    let writer = EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("writable resume");
    assert!(!fs.exists(&orphan_bin), "writable resume sweeps unreferenced shards");
    assert!(!fs.exists(&orphan_tmp), "writable resume sweeps orphaned tmp files");
    drop(writer);
}

#[test]
fn read_only_open_of_an_empty_directory_is_missing_manifest() {
    let fs = Arc::new(FaultFs::new());
    let dir = PathBuf::from("/vstore-ro-empty");
    match EngineBuilder::new().read_only().vfs(fs).open(&dir) {
        Err(Error::MissingManifest { dir: d }) => assert_eq!(d, dir),
        other => panic!("wrong outcome: {:?}", other.map(|_| ())),
    }
}

#[test]
fn stale_lock_of_a_dead_process_is_taken_over() {
    // A store whose last owner crashed: the lock file survives, naming a
    // pid that no longer exists. Acquisition must verify the owner is
    // dead and steal the lock instead of refusing the open.
    let dir = PathBuf::from("/vstore-lock-dead");
    let mut files = BTreeMap::new();
    // Largest representable pid: never a live process.
    files.insert(dir.join("engine.lock"), format!("{}\n", u32::MAX).into_bytes());
    let mut dirs = BTreeSet::new();
    dirs.insert(dir.clone());
    let fs = Arc::new(FaultFs::from_files(files, dirs));
    let engine = Engine::builder()
        .window(4)
        .clusters(2)
        .vfs(fs.clone())
        .open(&dir)
        .expect("stale lock must be taken over");
    engine.ingest("SELECT 1").expect("ingest");
    drop(engine);
    assert!(!fs.exists(&dir.join("engine.lock")), "lock released on drop");
}

#[test]
fn live_foreign_lock_refuses_the_open() {
    // pid 1 always exists. A lock naming it must refuse the open with
    // the typed StoreLocked error, never steal.
    let dir = PathBuf::from("/vstore-lock-live");
    let mut files = BTreeMap::new();
    files.insert(dir.join("engine.lock"), b"1\n".to_vec());
    let mut dirs = BTreeSet::new();
    dirs.insert(dir.clone());
    let fs = Arc::new(FaultFs::from_files(files, dirs));
    match Engine::builder().vfs(fs).open(&dir) {
        Err(Error::StoreLocked { pid, .. }) => assert_eq!(pid, 1),
        other => panic!("wrong outcome: {:?}", other.map(|_| ())),
    }
}

#[test]
fn lost_create_exclusive_race_is_retried_not_fatal() {
    // Simulate losing the O_EXCL race: the first create_exclusive fails
    // AlreadyExists even though no lock file is visible. The acquirer
    // must re-probe and win the next round, not give up.
    let dir = PathBuf::from("/vstore-lock-race");
    let fs = Arc::new(FaultFs::new());
    fs.inject(OpKind::CreateExclusive, "engine.lock", ErrorKind::AlreadyExists, 1);
    let engine = Engine::builder()
        .window(4)
        .clusters(2)
        .vfs(fs.clone())
        .open(&dir)
        .expect("lost race must be retried");
    engine.ingest("SELECT 1").expect("ingest");
}

#[test]
fn two_writable_opens_of_one_store_never_both_succeed() {
    let dir = PathBuf::from("/vstore-lock-twice");
    let (fs, first) = spilling_engine(&dir);
    match Engine::builder().vfs(fs.clone()).open(&dir) {
        Err(Error::StoreLocked { pid, .. }) => assert_eq!(pid, std::process::id()),
        other => panic!("second writable open must refuse: {:?}", other.map(|_| ())),
    }
    drop(first);
    Engine::builder().vfs(fs).open(&dir).expect("open succeeds once the first owner is gone");
}

#[test]
fn aliased_store_path_spellings_share_one_lock() {
    // PR 9 regression: `/vstore-canon`, `/vstore-canon/.` and
    // `/vstore-canon/../vstore-canon` all name the same store. The
    // in-process lock registry must normalize the path before the
    // exclusivity check, so a second spelling can never acquire a
    // second writable lock on a store that is already open.
    let dir = PathBuf::from("/vstore-canon");
    let (fs, first) = spilling_engine(&dir);
    for alias in ["/vstore-canon/../vstore-canon", "/vstore-canon/."] {
        match Engine::builder().vfs(fs.clone()).open(alias) {
            Err(Error::StoreLocked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("aliased open {alias:?} must refuse: {:?}", other.map(|_| ())),
        }
    }
    drop(first);
    // Released under one spelling, acquirable under another.
    Engine::builder()
        .vfs(fs)
        .open("/vstore-canon/../vstore-canon")
        .expect("open succeeds under an alias once the owner is gone");
}

#[test]
fn one_virtual_path_on_two_fault_filesystems_opens_on_both() {
    // Two independent in-memory filesystems that both serve
    // `/vstore-twin` hold two different stores. The in-process lock
    // registry keys on (filesystem, path), so opening both at once —
    // racing on two threads — must succeed, while a second open inside
    // one filesystem stays refused.
    let dir = PathBuf::from("/vstore-twin");
    let barrier = std::sync::Barrier::new(2);
    let opened: Vec<(Arc<FaultFs>, Engine)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    spilling_engine(&dir)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("opener panicked")).collect()
    });
    assert_ne!(opened[0].0.fs_id(), opened[1].0.fs_id());
    for (_, engine) in &opened {
        for i in 0..8 {
            engine.ingest(&statement(i)).expect("ingest");
        }
        assert_eq!(engine.snapshot().expect("snapshot").windows_closed(), 2);
    }
    for (fs, _) in &opened {
        match Engine::builder().vfs(fs.clone()).open(&dir) {
            Err(Error::StoreLocked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("a second open in one namespace must refuse: {:?}", other.map(|_| ())),
        }
    }
}
