//! Out-of-core shard store costs: serialization throughput, the
//! reload tax on history reads and appends, and end-to-end bounded-memory
//! streaming vs the unbounded baseline.
//!
//! Three groups:
//!
//! 1. `spill_io` — encode/decode and write/read of one realistic shard
//!    record (the format's raw throughput).
//! 2. `out_of_core` — history-wide operations A/B'd resident vs fully
//!    spilled: materializing the merged condensed matrix (one reload per
//!    shard per read) and appending a window shard (one reload per
//!    history shard per push).
//! 3. `bounded_stream` — `StreamSummarizer` end-to-end over a
//!    distinct-heavy synthetic stream, unbounded vs `spill_to(dir, 0)`
//!    (every closed shard evicted; the strictest budget): the
//!    bounded-memory overhead a production stream would pay. Resident
//!    footprints for both runs are printed once so the BENCH record can
//!    pair time with memory.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use logr_cluster::{spill, Distance, ShardedPointSet, SpillConfig};
use logr_core::{StreamConfig, StreamSummarizer};
use logr_feature::{FeatureId, QueryVector};
use std::path::PathBuf;

/// Deterministic synthetic vectors (same generator family as the
/// `ablation_distance` bench).
fn synthetic_vectors(n: usize, universe: u32) -> Vec<QueryVector> {
    let mut state = 0x9E37_79B9u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let len = 3 + (next() % 10) as u32;
            QueryVector::new((0..len).map(|_| FeatureId(next() as u32 % universe)).collect())
        })
        .collect()
}

/// Distinct-heavy SQL stream: 1000 statement shapes cycled to `n`.
fn distinct_statements(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let i = (i % 1000) as u32;
            match i % 3 {
                0 => {
                    format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 37, i % 23, i % 7, i % 19)
                }
                1 => format!(
                    "SELECT c{} FROM t{} WHERE a{} = ? AND b{} = ?",
                    i % 41,
                    i % 7,
                    i % 19,
                    i % 13
                ),
                _ => format!("SELECT c{}, c{} FROM t{}", i % 37, i % 41, i % 5),
            }
        })
        .collect()
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logr-bench-spill-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench spill dir");
    dir
}

fn bench_spill_io(c: &mut Criterion) {
    let nf = 512usize;
    let history_n = 1024usize;
    let window_n = 128usize;
    let vectors = synthetic_vectors(history_n + window_n, nf as u32);
    let refs: Vec<&QueryVector> = vectors.iter().collect();
    let dir = bench_dir("io");

    // The record the streaming close path would spill: a 128-point shard
    // closed against 1024 history points.
    let mut set = ShardedPointSet::new();
    set.push_shard(&refs[..history_n], nf).unwrap();
    set.push_shard(&refs[history_n..], nf).unwrap();
    let record = spill_record_of(&set, &refs, nf, history_n);
    let path = dir.join("bench-record.bin");

    let mut group = c.benchmark_group("spill_io");
    group.bench_function("encode/h1024_w128", |b| b.iter(|| spill::encode(black_box(&record))));
    let bytes = spill::encode(&record);
    group.bench_function("decode/h1024_w128", |b| b.iter(|| spill::decode(black_box(&bytes))));
    group.bench_function("write_read_file/h1024_w128", |b| {
        b.iter(|| {
            spill::write_file(&path, black_box(&record)).unwrap();
            black_box(spill::read_file(&path).unwrap())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exact record `ShardedPointSet` spills for the last shard: rebuilt
/// here through the public push API so the bench measures a faithful
/// payload (1024×128 cross block + 128-triangle + 128 bitsets).
fn spill_record_of(
    set: &ShardedPointSet,
    refs: &[&QueryVector],
    nf: usize,
    history_n: usize,
) -> spill::ShardRecord {
    let bits: Vec<logr_feature::BitVec> =
        refs[history_n..].iter().map(|v| logr_feature::BitVec::from_query_vector(v, nf)).collect();
    let w = bits.len();
    let mut intra = Vec::with_capacity(w * (w - 1) / 2);
    for i in 0..w {
        for j in i + 1..w {
            intra.push(set.mismatches(history_n + i, history_n + j) as u32);
        }
    }
    let mut cross = Vec::with_capacity(history_n * w);
    for i in 0..history_n {
        for j in 0..w {
            cross.push(set.mismatches(i, history_n + j) as u32);
        }
    }
    spill::ShardRecord { n_features: nf, start: history_n, intra, cross, bits }
}

fn bench_out_of_core(c: &mut Criterion) {
    let nf = 512usize;
    let vectors = synthetic_vectors(1152, nf as u32);
    let refs: Vec<&QueryVector> = vectors.iter().collect();
    let dir = bench_dir("ooc");

    // 8 × 128-point shards, one resident copy and one fully spilled copy.
    let mut resident = ShardedPointSet::new();
    for chunk in refs[..1024].chunks(128) {
        resident.push_shard(chunk, nf).unwrap();
    }
    let mut spilled = resident.clone();
    spilled.set_spill(SpillConfig { dir: dir.clone(), resident_budget: usize::MAX }).unwrap();
    spilled.spill_all().unwrap();

    let mut group = c.benchmark_group("out_of_core");
    group.bench_function("history_read/resident/h1024", |b| {
        b.iter(|| black_box(&resident).condensed(Distance::Hamming).unwrap())
    });
    group.bench_function("history_read/spilled/h1024", |b| {
        b.iter(|| black_box(&spilled).condensed(Distance::Hamming).unwrap())
    });
    group.bench_function("shard_append/resident/h1024_w128", |b| {
        b.iter(|| {
            let mut h = resident.clone();
            h.push_shard(black_box(&refs[1024..]), nf).unwrap();
            black_box(h.len())
        })
    });
    group.bench_function("shard_append/spilled/h1024_w128", |b| {
        b.iter(|| {
            // Cloning an all-spilled set copies paths, not payloads; the
            // append then reloads each history shard for its cross rows.
            let mut h = spilled.clone();
            h.push_shard(black_box(&refs[1024..]), nf).unwrap();
            black_box(h.len())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_bounded_stream(c: &mut Criterion) {
    let statements = distinct_statements(2000);
    let dir = bench_dir("stream");
    let config = StreamConfig { window: 64, k: 4, ..StreamConfig::default() };

    // One instrumented pass for the memory numbers the BENCH record pairs
    // with the timings below.
    let mut probe = StreamSummarizer::new(config);
    for sql in &statements {
        probe.ingest(sql).unwrap();
    }
    let unbounded_bytes = probe.resident_shard_bytes();
    let mut probe = StreamSummarizer::new(config);
    probe.spill_to(dir.join("probe"), 0).unwrap();
    for sql in &statements {
        probe.ingest(sql).unwrap();
    }
    eprintln!(
        "bounded_stream resident bytes: unbounded={unbounded_bytes} budget0={} ({} shards spilled)",
        probe.resident_shard_bytes(),
        probe.spilled_shards()
    );

    let mut group = c.benchmark_group("bounded_stream");
    group.bench_function("ingest_2000_distinct/unbounded", |b| {
        b.iter(|| {
            let mut s = StreamSummarizer::new(config);
            let mut closed = 0usize;
            for sql in &statements {
                if s.ingest(black_box(sql)).unwrap().is_some() {
                    closed += 1;
                }
            }
            black_box(closed)
        })
    });
    group.bench_function("ingest_2000_distinct/budget0", |b| {
        b.iter(|| {
            let mut s = StreamSummarizer::new(config);
            s.spill_to(dir.join("run"), 0).unwrap();
            let mut closed = 0usize;
            for sql in &statements {
                if s.ingest(black_box(sql)).unwrap().is_some() {
                    closed += 1;
                }
            }
            black_box(closed)
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_spill_io, bench_out_of_core, bench_bounded_stream);
criterion_main!(benches);
