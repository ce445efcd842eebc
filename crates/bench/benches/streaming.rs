//! Streaming ingestion throughput and the sharded window-close cost.
//!
//! Two groups:
//!
//! 1. `streaming` — end-to-end `StreamSummarizer` throughput
//!    (`queries/sec`) over a synthetic PocketData stream at several window
//!    sizes: every ingested statement pays parse → anonymize → featurize,
//!    and each window close pays clustering + drift + the history shard
//!    append. Smaller windows close more often (more summaries per query);
//!    larger windows amortize.
//! 2. `window_close` — the tentpole's cost model in isolation: appending
//!    one window-sized shard to a sharded history
//!    (`ShardedPointSet::push_shard`, `O(w² + h·w)`) versus rebuilding the
//!    monolithic condensed matrix over history + window
//!    (`PointSet::distances`, `O((h + w)²)`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use logr_cluster::{Distance, PointSet, ShardedPointSet};
use logr_core::{StreamConfig, StreamSummarizer};
use logr_feature::{FeatureId, QueryVector};
use logr_workload::{generate_pocketdata, PocketDataConfig};

/// The replayed stream: PocketData statements cycled to `n` entries.
fn stream_statements(n: usize) -> Vec<String> {
    let synthetic = generate_pocketdata(&PocketDataConfig::default());
    synthetic.statements.iter().map(|(sql, _)| sql.clone()).cycle().take(n).collect()
}

fn bench_streaming_throughput(c: &mut Criterion) {
    let statements = stream_statements(2000);
    let mut group = c.benchmark_group("streaming");
    for window in [64u64, 256, 1024] {
        group.bench_with_input(
            BenchmarkId::new("ingest_2000_queries/window", window),
            &statements,
            |b, stmts| {
                b.iter(|| {
                    let mut s = StreamSummarizer::new(StreamConfig {
                        window,
                        k: 4,
                        metric: Distance::Hamming,
                        ..StreamConfig::default()
                    });
                    let mut closed = 0usize;
                    for sql in stmts {
                        if s.ingest(black_box(sql)).unwrap().is_some() {
                            closed += 1;
                        }
                    }
                    black_box(closed)
                })
            },
        );
    }
    group.finish();
}

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

fn bench_window_close(c: &mut Criterion) {
    let nf = 512usize;
    let history_n = 1024usize;
    let window_n = 128usize;
    let vectors = synthetic_vectors(history_n + window_n, nf as u32);
    let refs: Vec<&QueryVector> = vectors.iter().collect();

    // Pre-built history the window closes against.
    let mut history = ShardedPointSet::new();
    history.push_shard(&refs[..history_n], nf).unwrap();

    let mut group = c.benchmark_group("window_close");
    group.bench_function("shard_append/h1024_w128", |b| {
        b.iter(|| {
            let mut h = history.clone();
            h.push_shard(black_box(&refs[history_n..]), nf).unwrap();
            black_box(h.len())
        })
    });
    // Control: the clone the append bench pays per iteration, so the pure
    // append cost is `shard_append − history_clone`.
    group.bench_function("history_clone/h1024", |b| b.iter(|| black_box(&history).clone()));
    group.bench_function("monolithic_rebuild/h1024_w128", |b| {
        let points = PointSet::from_vectors(&refs, nf);
        b.iter(|| black_box(&points).distances(Distance::Hamming))
    });
    group.bench_function("merged_condensed_read/h1024_w128", |b| {
        let mut h = history.clone();
        h.push_shard(&refs[history_n..], nf).unwrap();
        b.iter(|| black_box(&h).condensed(Distance::Hamming).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_streaming_throughput, bench_window_close);
criterion_main!(benches);
