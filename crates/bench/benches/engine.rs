//! `logr::Engine` lifecycle costs: `open()` recovery time as the store
//! grows, concurrent `snapshot()` read throughput, and what compaction
//! buys.
//!
//! Three groups:
//!
//! 1. `engine_recovery` — reopening a persisted store: full manifest
//!    decode, shard-file validation (every file's checksum is verified)
//!    and summarizer rebuild, at several store sizes, plus the same
//!    store after `compact()` (one merged file instead of one per
//!    window).
//! 2. `engine_snapshot` — the read side: acquiring a snapshot (the cost
//!    a reader pays per query round), answering a workload estimate from
//!    a warmed snapshot, and aggregate read throughput with 1 vs 4
//!    reader threads sharing one engine (the handoff the stress test
//!    exercises for correctness; wall-clock gain needs >1 core).
//! 3. `engine_compaction` — spilled-history reads before vs after
//!    `compact()`, at the cluster layer where the effect is isolated.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use logr::analytics::Pred;
use logr::Engine;
use std::path::PathBuf;

/// Distinct-heavy SQL stream: 600 statement shapes cycled to `n`.
fn statement(i: usize) -> String {
    let i = (i % 600) as u32;
    match i % 3 {
        0 => format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 37, i % 23, i % 7, i % 19),
        1 => {
            format!("SELECT c{} FROM t{} WHERE a{} = ? AND b{} = ?", i % 41, i % 7, i % 19, i % 13)
        }
        _ => format!("SELECT c{}, c{} FROM t{}", i % 37, i % 41, i % 5),
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logr-engine-bench-{tag}-{}", std::process::id()))
}

/// Build a persisted store of `windows` closed windows (window 64).
fn build_store(tag: &str, windows: usize) -> PathBuf {
    let dir = bench_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::builder().window(64).clusters(4).open(&dir).expect("open store");
    for i in 0..windows * 64 {
        engine.ingest(&statement(i)).expect("ingest");
    }
    drop(engine);
    dir
}

fn engine_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_recovery");
    for windows in [4usize, 16] {
        let dir = build_store(&format!("open-{windows}w"), windows);
        group.bench_function(format!("open/{windows}_windows"), |b| {
            b.iter(|| black_box(Engine::open(&dir).expect("reopen")));
        });
    }
    // The same 16-window store, compacted: one shard file instead of 16.
    let dir = build_store("open-compacted", 16);
    Engine::open(&dir).expect("reopen").compact().expect("compact");
    group.bench_function("open/16_windows_compacted", |b| {
        b.iter(|| black_box(Engine::open(&dir).expect("reopen")));
    });
    group.finish();
}

fn engine_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_snapshot");
    let engine = Engine::builder().window(64).clusters(4).in_memory().expect("engine");
    for i in 0..16 * 64 {
        engine.ingest(&statement(i)).expect("ingest");
    }
    // Warm the published snapshot's memoized summary once, as a
    // long-lived reader would find it.
    engine.snapshot().expect("snapshot").summary().expect("summary");
    let probe = Pred::table("t0");

    group.bench_function("snapshot_acquire", |b| {
        b.iter(|| black_box(engine.snapshot().expect("snapshot")));
    });
    group.bench_function("estimate/1_thread", |b| {
        b.iter(|| {
            let snap = engine.snapshot().expect("snapshot");
            black_box(
                snap.query().expect("query").expect("summary").frequency(&probe).expect("estimate"),
            )
        });
    });
    // Aggregate throughput: the same total number of reads, spread over
    // 4 scoped reader threads sharing the engine (per-iteration cost is
    // 4096 reads in both flavors — divide by 4096 for per-read time).
    const READS: usize = 4096;
    group.bench_function("estimate/4096_reads_1_thread", |b| {
        b.iter(|| {
            for _ in 0..READS {
                let snap = engine.snapshot().expect("snapshot");
                black_box(
                    snap.query()
                        .expect("query")
                        .expect("summary")
                        .frequency(&probe)
                        .expect("estimate"),
                );
            }
        });
    });
    group.bench_function("estimate/4096_reads_4_threads", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..READS / 4 {
                            let snap = engine.snapshot().expect("snapshot");
                            black_box(
                                snap.query()
                                    .expect("query")
                                    .expect("summary")
                                    .frequency(&probe)
                                    .expect("estimate"),
                            );
                        }
                    });
                }
            });
        });
    });
    group.finish();
}

/// Where compaction pays: a fully spilled history (budget 0) of 128
/// tiny per-window shards — the shape a long-running stream accretes —
/// vs the one compacted file.
///
/// * Random **point reads** (`mismatches(i, j)`) thrash the single-slot
///   reload cache across 128 files (most probes land outside whichever
///   shard is cached, so most reads decode a file); with one shard,
///   every read after the first is a cache hit.
/// * The bulk **merged read** streams every spilled file on every call
///   in the many-shard layout, paying 128 open+decode+segment rounds;
///   the compacted store serves it from the same single cached record
///   with zero decodes. (Benches run in this order deliberately: the
///   point reads warm the cache exactly as a live engine's would.)
///
/// At few-shard counts (16 windows of 64) the merged read is a wash —
/// the crossover is where per-file overhead outgrows one big decode.
fn engine_compaction(c: &mut Criterion) {
    use logr::cluster::{Distance, ShardedPointSet, SpillConfig};
    use logr::feature::LogIngest;

    let mut group = c.benchmark_group("engine_compaction");
    let mut ingest = LogIngest::new();
    for i in 0..16 * 64 {
        ingest.ingest(&statement(i));
    }
    let (log, _) = ingest.finish();
    let vectors: Vec<_> = log.entries().iter().map(|(v, _)| v).collect();

    let dir = bench_dir("merge");
    let _ = std::fs::remove_dir_all(&dir);
    let mut sharded = ShardedPointSet::new();
    sharded.set_spill(SpillConfig { dir: dir.clone(), resident_budget: 0 }).expect("attach store");
    for chunk in vectors.chunks(vectors.len().div_ceil(128)) {
        sharded.push_shard(chunk, log.num_features()).unwrap();
    }
    sharded.spill_all().expect("spill");
    let mut compacted = sharded.clone();
    compacted.compact().expect("compact");
    let n = compacted.len();
    assert_eq!(
        sharded.condensed(Distance::Hamming).unwrap().as_slice(),
        compacted.condensed(Distance::Hamming).unwrap().as_slice(),
        "compaction changed a bit"
    );

    for (label, set) in [("128_spilled_shards", &sharded), ("compacted_1_shard", &compacted)] {
        group.bench_function(format!("point_reads_2000/{label}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                let mut x = 1usize;
                for _ in 0..2000 {
                    x = x.wrapping_mul(48271) % (n - 1);
                    let y = (x * 7 + 13) % n;
                    acc += set.mismatches(x.min(y), x.max(y));
                }
                black_box(acc)
            });
        });
        group.bench_function(format!("merged_read/{label}"), |b| {
            b.iter(|| black_box(set.condensed(Distance::Hamming).unwrap()));
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn cleanup(_c: &mut Criterion) {
    for tag in ["open-4w", "open-16w", "open-compacted"] {
        let _ = std::fs::remove_dir_all(bench_dir(tag));
    }
}

criterion_group!(benches, engine_recovery, engine_snapshot, engine_compaction, cleanup);
criterion_main!(benches);
