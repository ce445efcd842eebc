//! Degraded read-only opens: serving analytics from a store you must
//! not (or cannot) write.
//!
//! [`logr::EngineBuilder::read_only`] opens a durable store without
//! taking the store lock and without resume-time garbage collection —
//! the two things a writable open does that mutate the directory. That
//! makes it the right tool when:
//!
//! 1. another process owns the store (a live writer holds the lock) and
//!    a dashboard or ad-hoc query session wants the latest checkpoint;
//! 2. the store lives on genuinely read-only media (a snapshot mount, a
//!    backup, an artifact download);
//! 3. an operator is diagnosing a sick deployment and must not disturb
//!    the evidence.
//!
//! The read-only engine serves the full read surface — summaries,
//! snapshots, analytics estimators — and answers every write entry
//! point with the typed [`logr::Error::ReadOnly`].
//!
//! Run with: `cargo run --release --example degraded_read_only`

use logr::analytics::{Advisor, IndexAdvisor};
use logr::{Engine, Error};

fn main() -> Result<(), Error> {
    let dir = std::env::temp_dir().join(format!("logr-ro-example-{}", std::process::id()));

    // A writer builds up a store: three windows of a small workload,
    // then an explicit checkpoint.
    let writer = Engine::builder().window(50).clusters(4).resident_budget(0).open(&dir)?;
    for i in 0..150u64 {
        let sql = format!("SELECT c{} FROM t{} WHERE a{} = ?", i % 13, i % 3, i % 7);
        writer.ingest(&sql)?;
    }
    writer.checkpoint()?;
    println!(
        "writer: {} windows closed, {} queries, store at {}",
        writer.snapshot()?.windows_closed(),
        writer.total_queries()?,
        dir.display()
    );

    // The writer is still alive and still holds the lock — a second
    // writable open would be refused. A read-only open is not: it never
    // contends for the lock.
    match Engine::builder().open(&dir) {
        Err(Error::StoreLocked { pid, .. }) => {
            println!("writable second open: refused (locked by pid {pid}) — as it must be");
        }
        Ok(_) => unreachable!("two writable engines on one store"),
        Err(e) => return Err(e),
    }
    let reader = Engine::builder().read_only().resume(&dir)?;
    println!("read-only open beside the live writer: ok (read_only = {})", reader.is_read_only());

    // The full read surface works: history summary and analytics.
    let summary = reader.snapshot()?.summary()?.expect("three checkpointed windows");
    println!(
        "reader sees {} windows / {} queries; summary error {:.4}",
        reader.snapshot()?.windows_closed(),
        reader.total_queries()?,
        summary.error()
    );
    let advisor = IndexAdvisor::new(0.05);
    let picks = advisor.advise(&*reader.snapshot()?)?;
    println!("index advisor proposes {} candidate(s) from the read-only store", picks.len());

    // Every write entry point is the typed error — not a panic, not a
    // silent no-op.
    match reader.ingest("SELECT 1") {
        Err(Error::ReadOnly) => println!("reader.ingest(..): Error::ReadOnly — as it must be"),
        other => unreachable!("write on a read-only engine: {other:?}"),
    }
    match reader.checkpoint() {
        Err(Error::ReadOnly) => println!("reader.checkpoint(): Error::ReadOnly — as it must be"),
        other => unreachable!("checkpoint on a read-only engine: {other:?}"),
    }

    drop(reader);
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
