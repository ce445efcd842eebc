//! Advisor and typed-query latency through an `EngineSnapshot` — the
//! read-side cost of the `logr::analytics` facade at a realistic history
//! size (h ≈ 1024 distinct queries, the same scale the shard-append and
//! engine benches use).
//!
//! All groups run against one warmed snapshot (the memoized history
//! summary is built once, as a long-lived reader would find it), so the
//! numbers isolate the advisor / evaluator work itself:
//!
//! * `analytics_query` — single-feature frequency (the hot estimator),
//!   an AND/OR composite (inclusion–exclusion over 2 branches), and a
//!   conditional.
//! * `analytics_advisor` — each shipped advisor end to end: codebook
//!   scan + mixture estimates + ranking (index), FROM-pair co-occurrence
//!   (view), fragment featurization + conditional ranking (recommend).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use logr::analytics::{Advisor, IndexAdvisor, Pred, QueryRecommender, ViewAdvisor};
use logr::Engine;

/// Distinct-heavy SQL stream: 1024 statement shapes over shared tables.
fn statement(i: usize) -> String {
    let i = (i % 1024) as u32;
    match i % 3 {
        0 => format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 37, i % 23, i % 7, i % 19),
        1 => {
            format!("SELECT c{} FROM t{} WHERE a{} = ? AND b{} = ?", i % 41, i % 7, i % 19, i % 13)
        }
        _ => format!("SELECT c{}, c{} FROM t{}, u{}", i % 37, i % 41, i % 5, i % 3),
    }
}

fn warmed_engine() -> Engine {
    let engine = Engine::builder().window(128).clusters(8).in_memory().expect("engine");
    for i in 0..1024 {
        engine.ingest(&statement(i)).expect("ingest");
    }
    engine.flush().expect("flush");
    // Memoize the snapshot summary once, like a long-lived reader.
    engine.snapshot().expect("snapshot").summary().expect("summary");
    engine
}

fn analytics_query(c: &mut Criterion) {
    let engine = warmed_engine();
    let snap = engine.snapshot().expect("snapshot");
    let query = snap.query().expect("query").expect("non-empty");
    let mut group = c.benchmark_group("analytics_query");
    let single = Pred::table("t0");
    group.bench_function("frequency/single_feature", |b| {
        b.iter(|| black_box(query.frequency(&single).expect("estimate")));
    });
    let composite = Pred::table("t0").and(Pred::column_eq("a0")).or(Pred::table("u2"));
    group.bench_function("frequency/and_or_composite", |b| {
        b.iter(|| black_box(query.frequency(&composite).expect("estimate")));
    });
    let (given, then) = (Pred::table("t0"), Pred::column_eq("a0"));
    group.bench_function("conditional", |b| {
        b.iter(|| black_box(query.conditional(&given, &then).expect("estimate")));
    });
    group.finish();
}

fn analytics_advisor(c: &mut Criterion) {
    let engine = warmed_engine();
    let snap = engine.snapshot().expect("snapshot");
    let mut group = c.benchmark_group("analytics_advisor");
    let index = IndexAdvisor::new(0.01);
    group.bench_function("index/h1024", |b| {
        b.iter(|| black_box(index.advise(&*snap).expect("advise")));
    });
    let view = ViewAdvisor::new(0.01);
    group.bench_function("view/h1024", |b| {
        b.iter(|| black_box(view.advise(&*snap).expect("advise")));
    });
    let recommend = QueryRecommender::new("SELECT c1 FROM t0 WHERE a5 = ?", 0.10);
    group.bench_function("recommend/h1024", |b| {
        b.iter(|| black_box(recommend.advise(&*snap).expect("advise")));
    });
    group.finish();
}

criterion_group!(benches, analytics_query, analytics_advisor);
criterion_main!(benches);
