//! Pluggable-source ingest cost: the Drain-style template path next to
//! the SQL path it replaces for free-form logs.
//!
//! Two groups:
//!
//! 1. `template_mining` — the miner in isolation: `featurize` throughput
//!    over a steady-shape service stream (tree routing + token compare +
//!    journal append per line), and journal `replay` throughput (the
//!    recovery path — every engine resume replays this).
//! 2. `source_ingest` — end-to-end `StreamSummarizer::ingest`
//!    throughput with the template source versus the SQL source at the
//!    same window size, so the per-record delta between "parse SQL" and
//!    "mine a template" is read straight off the two numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use logr_core::{StreamConfig, StreamSummarizer};
use logr_source::{Featurizer, SourceConfig, TemplateConfig, TemplateMiner};
use logr_workload::{generate_pocketdata, PocketDataConfig};

/// A steady free-form service stream: ten shapes with rotating
/// parameters, cycled to `n` lines — the template-source analogue of the
/// PocketData statement stream.
fn service_lines(n: usize) -> Vec<String> {
    (0..n as u64)
        .map(|i| match i % 10 {
            0 => format!("auth: user u{} logged in from 10.0.{}.{}", i % 19, i % 17, i % 251),
            1 => format!("auth: user u{} failed password from 203.0.113.{}", i % 23, i % 251),
            2 => format!("http: GET /api/v1/items/{} -> 200 in {} ms", i % 97, 3 + i % 40),
            3 => format!("http: POST /api/v1/orders -> 201 in {} ms", 5 + i % 60),
            4 => format!("db: slow query {} ms on shard {}", 100 + i % 400, i % 8),
            5 => format!("cache: evicted {} keys from shard {}", i % 512, i % 8),
            6 => format!("gc: pause {} ms heap {} mb", i % 60, 256 + i % 512),
            7 => format!("disk: wrote segment /var/data/seg-{}.db in {} ms", i % 40, 2 + i % 30),
            8 => format!("net: connection reset by 10.1.{}.{}", i % 17, i % 251),
            _ => format!("job: backup {} completed in {} s", i % 1000, 1 + i % 90),
        })
        .collect()
}

fn bench_template_mining(c: &mut Criterion) {
    let lines = service_lines(2000);
    let mut group = c.benchmark_group("template_mining");
    group.bench_function("featurize_2000_lines", |b| {
        b.iter(|| {
            let mut miner = TemplateMiner::new(TemplateConfig::default());
            let mut branches = 0usize;
            for line in &lines {
                branches += miner.featurize(black_box(line)).len();
            }
            black_box(branches)
        })
    });
    // The recovery path: replaying the journal a full mining pass left
    // behind (this is what every template-source engine resume pays).
    let journal = {
        let mut miner = TemplateMiner::new(TemplateConfig::default());
        for line in &lines {
            miner.featurize(line);
        }
        miner.export_journal()
    };
    group.bench_function("journal_replay_2000_lines", |b| {
        b.iter(|| {
            let mut miner = TemplateMiner::new(TemplateConfig::default());
            miner.replay(black_box(&journal)).expect("journal replays");
            black_box(miner.template_count())
        })
    });
    group.finish();
}

fn bench_source_ingest(c: &mut Criterion) {
    let lines = service_lines(2000);
    let synthetic = generate_pocketdata(&PocketDataConfig::default());
    let statements: Vec<String> =
        synthetic.statements.iter().map(|(sql, _)| sql.clone()).cycle().take(2000).collect();

    let mut group = c.benchmark_group("source_ingest");
    let run = |records: &[String], source: SourceConfig| {
        let mut s =
            StreamSummarizer::new(StreamConfig { window: 256, source, ..StreamConfig::default() });
        let mut closed = 0usize;
        for record in records {
            if s.ingest(black_box(record)).unwrap().is_some() {
                closed += 1;
            }
        }
        black_box(closed)
    };
    group.bench_function("template_2000_records/window_256", |b| {
        b.iter(|| run(&lines, SourceConfig::template()))
    });
    group.bench_function("sql_2000_records/window_256", |b| {
        b.iter(|| run(&statements, SourceConfig::Sql))
    });
    group.finish();
}

criterion_group!(benches, bench_template_mining, bench_source_ingest);
criterion_main!(benches);
