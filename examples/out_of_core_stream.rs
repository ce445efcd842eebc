//! Durable, bounded-memory streaming over an unbounded query log — the
//! full [`logr::Engine`] lifecycle: open on a directory, stream under a
//! resident budget, compact the store, crash, reopen, continue.
//!
//! A long-running engine accumulates one history shard per window, and
//! the shards' mismatch buffers grow quadratically with the
//! distinct-query count — fine for a demo, fatal for a daemon. This
//! example runs the same distinct-heavy stream twice:
//!
//! 1. **in-memory** — every closed shard stays resident;
//! 2. **durable** — `open(dir)` with a 256 KiB resident budget: closed
//!    shards evict to the versioned store and reload transparently, the
//!    manifest makes every window close a recovery point, and
//!    `compact()` folds the per-window shard files into one.
//!
//! Both runs must produce identical history summaries (the store holds
//! integer mismatch counts and bit-packed points — reloads are
//! bit-exact); after a simulated crash the reopened engine must agree
//! too. A final section closes windows on a wall-clock grid via
//! `ingest_with(.., Some(ts_ms))` — the time-based flavor a production
//! tail would use.
//!
//! Run with: `cargo run --release --example out_of_core_stream`

use logr::core::TimeWindows;
use logr::{Engine, Error};

/// 600 distinct statement shapes, cycled: enough distinct mass that the
/// history's shard payloads dwarf a 256 KiB budget. (The budget must
/// cover the largest single shard — the hot tail is pinned while the
/// close path reads it.)
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

fn main() -> Result<(), Error> {
    const STREAM_LEN: usize = 1200;
    const BUDGET: usize = 256 * 1024;

    // ---- Run 1: in-memory (every shard resident). ----------------------
    let unbounded = Engine::builder().window(100).clusters(4).in_memory()?;
    for i in 0..STREAM_LEN {
        unbounded.ingest(&statement(i))?;
    }

    // ---- Run 2: durable (256 KiB resident budget, store on disk). ------
    let dir = std::env::temp_dir().join(format!("logr-ooc-example-{}", std::process::id()));
    let bounded = Engine::builder().window(100).clusters(4).resident_budget(BUDGET).open(&dir)?;
    let mut peak = 0usize;
    for i in 0..STREAM_LEN {
        if bounded.ingest(&statement(i))?.is_some() {
            peak = peak.max(bounded.resident_shard_bytes()?);
        }
    }

    println!("=== resident history-shard bytes ({STREAM_LEN} queries, window 100) ===");
    println!(
        "in-memory : {:>8} bytes, {} windows all resident",
        unbounded.resident_shard_bytes()?,
        unbounded.snapshot()?.windows_closed()
    );
    println!(
        "durable   : {:>8} bytes peak (budget {BUDGET}), {} shards on disk",
        peak,
        bounded.spilled_shards()?
    );
    assert!(peak <= BUDGET, "budget violated");

    // The summaries are bit-identical: reloaded shards serve the exact
    // mismatch counts the resident ones would.
    let a = unbounded.snapshot()?.summary()?.expect("history");
    let b = bounded.snapshot()?.summary()?.expect("history");
    assert_eq!(a.clustering, b.clustering);
    assert_eq!(a.error().to_bits(), b.error().to_bits());
    println!(
        "history summary over {} distinct queries: k={}, error={:.4} — identical in both runs",
        bounded.snapshot()?.history().distinct_count(),
        b.mixture.k(),
        b.error()
    );

    // ---- Compaction: many per-window files -> one. ---------------------
    // The replaced files stay on disk until the next reopen (snapshots
    // handed out before the compaction may still read them); recovery
    // garbage-collects everything the manifest no longer references.
    let files_before = std::fs::read_dir(&dir)?.count();
    let merged = bounded.compact()?;
    println!("compacted {merged} shards into one file, summaries unchanged");
    let c = bounded.snapshot()?.summary()?.expect("history");
    assert_eq!(b.clustering, c.clustering);

    // ---- Crash + recovery: drop everything, reopen, agree. -------------
    drop(bounded);
    let reopened = Engine::open(&dir)?;
    let files_after = std::fs::read_dir(&dir)?.count();
    let d = reopened.snapshot()?.summary()?.expect("history");
    assert_eq!(a.clustering, d.clustering);
    assert_eq!(a.error().to_bits(), d.error().to_bits());
    println!(
        "reopened from {} after a simulated crash: {} windows, summary bit-identical; \
         recovery swept the store from {files_before} files to {files_after}",
        dir.display(),
        reopened.snapshot()?.windows_closed()
    );

    // ---- Time-based windows (wall-clock grid, injected here). ----------
    let timed = Engine::builder()
        .time_windows(TimeWindows { window_ms: 1_000, slide_ms: None })
        .clusters(2)
        .in_memory()?;
    println!("=== time-based tumbling windows (1 s grid) ===");
    // ~3.3 statements per second for five seconds.
    for i in 0..17u64 {
        if let Some(w) = timed.ingest_with(&statement(i as usize), 1, Some(i * 300))? {
            println!(
                "window {} closed at t={}ms: {} queries, {} distinct",
                w.index,
                w.closed_at_ms.unwrap(),
                w.queries,
                w.distinct
            );
        }
    }
    if let Some(w) = timed.flush()? {
        println!("flush closed window {} with {} queries", w.index, w.queries);
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("ok");
    Ok(())
}
