//! `history-read`: set-up grows a long durable US-bank SQL history under
//! a small resident budget (most shards spilled), drops the engine and
//! reopens it, timed. The measured phase interleaves, on one thread, a
//! closed-loop reader over a fixed read mix through `Engine::snapshot()`
//! with a writer ingesting the continuing stream in an open loop at a
//! fixed rate: a write runs as soon as it is due and the current read is
//! done, otherwise the next read runs. Each close publishes a snapshot
//! whose first read recomputes the history summary, reloading spilled
//! shards.
//!
//! One thread, because the reader and the writer on two threads measured
//! the machine rather than the program on a shared 2-vCPU VM: when the
//! host took back much of one vCPU, the two threads shared the other, and
//! every close of a whole run took about 46 ms instead of 22 ms.

use crate::calib;
use crate::common::*;
use crate::gen::{sql_read_mix, Rng, UsBank};
use crate::reader::Reader;
use crate::sql_ingest::{
    check_checkpoint, wire_replay_sql, FixedPoint, Resumes, CHECKPOINT_WINDOWS,
};
use crate::stats::{median, open_loop_latency, Samples};
use crate::trace::{self, Trace};
use crate::vfs::CountingFs;
use crate::Args;
use logr::cluster::vfs::RealFs;
use logr::feature::FeatureClass;
use logr::SourceConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records in the history set-up builds.
const HISTORY_RECORDS: usize = 24 * 1024;
/// Resident shard budget: far below the history's shard bytes.
const BUDGET: usize = 64 * 1024;
/// The writer's fixed rate, about a tenth of `sql-ingest` throughput: a
/// window closes every 200 ms.
const WRITE_RATE: f64 = 1280.0;
const STREAM_RECORDS: u64 = 40;
/// The measuring thread reopens the built history's copy (for
/// `resume_ms`) this often.
const RESUME_EVERY: Duration = Duration::from_secs(1);

/// What the open-loop writer measured.
struct Writer {
    acked: u64,
    /// Records of the windows this writer's ingests closed.
    windowed: u64,
    raw_bytes: u64,
    close_ms: Samples,
    open_ms: Samples,
    lateness_ms: Vec<f64>,
    errors: Vec<String>,
    tap: WindowTap,
}

/// One open-loop write of record `i`, due at `due`: timed from when it
/// was due, so a read that held the thread past it charges its wait.
fn write(
    engine: &logr::Engine,
    bank: &UsBank,
    rng: &mut Rng,
    w: &mut Writer,
    start: Instant,
    due: Instant,
    i: u64,
) {
    let sql = bank.sample(rng);
    let closing = (HISTORY_RECORDS as u64 + w.acked + 1).is_multiple_of(WINDOW);
    let baseline = w.tap.baseline(engine, closing);
    let sent = Instant::now();
    let result = {
        let mut span = trace::span("engine.ingest", i);
        let r = engine.ingest(sql);
        span.set_value(matches!(r, Ok(Some(_))) as u64);
        r
    };
    let done = Instant::now();
    let at = |t: Instant| t.duration_since(start).as_secs_f64() * 1e3;
    let (latency, late) = open_loop_latency(at(due), at(sent), at(done));
    w.lateness_ms.push(late);
    match result {
        Ok(closed) => {
            w.acked += 1;
            w.raw_bytes += sql.len() as u64;
            w.tap.acked(sql, closed.as_ref(), baseline);
            match closed {
                Some(win) => {
                    w.windowed += win.queries;
                    w.close_ms.push(at(done) / 1e3, latency);
                }
                None => w.open_ms.push(at(done) / 1e3, latency),
            }
        }
        Err(e) => w.errors.push(error_code(&e)),
    }
}

pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let bank = UsBank::new();
    let mut rng = Rng::derive(args.seed, STREAM_RECORDS);
    let history: Vec<String> = bank.stream(&mut rng, HISTORY_RECORDS);
    let history_bytes: u64 = history.iter().map(|r| r.len() as u64).sum();

    // Set-up: grow the history, drop the engine, reopen it (timed).
    let dir = work.join("store");
    let t = Instant::now();
    let mut windowed = 0;
    let (windows, total, error, build_s) = {
        let shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
        let engine = open_engine(&dir, SourceConfig::Sql, shim, Some(BUDGET))
            .map_err(|e| format!("open: {e:?}"))?;
        let (mut checkpoint, mut calibrating) = (None, 0.0);
        for (i, r) in history.iter().enumerate() {
            calibrating += calib::tick();
            let closed = engine.ingest(r).map_err(|e| format!("history build: {e:?}"))?;
            windowed += closed.map_or(0, |w| w.queries);
            if i + 1 == CHECKPOINT_WINDOWS * WINDOW as usize {
                checkpoint = engine.snapshot().ok();
            }
        }
        let build_s = secs(t) - calibrating;
        report.note(format!(
            "history: {} records, {} spilled shards, {} resident shard bytes (budget {BUDGET})",
            history.len(),
            engine.spilled_shards().unwrap_or(0),
            engine.resident_shard_bytes().unwrap_or(0)
        ));
        // The built history is this workload's fixed input size for the
        // store's bytes and the summary's Error.
        let fixed = FixedPoint::take(&engine, &dir, history_bytes, work.join("fixed"))?;
        FixedPoint::report(Some(&fixed), report)?;
        let snap = engine.snapshot().map_err(|e| format!("{e:?}"))?;
        let error = snap.summary().map_err(|e| format!("{e:?}"))?.map_or(f64::NAN, |s| s.error());
        check_checkpoint(&bank, args.seed, STREAM_RECORDS, checkpoint.as_deref(), report)?;
        report.note(format!(
            "history: built in {build_s:.3} s, {} distinct vectors",
            snap.history().distinct_count()
        ));
        (snap.windows_closed(), snap.history().total_queries(), error, build_s)
    };
    reopen_checks(&dir, windows, total, &same_error(error), 1, false, report)?;
    let shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
    let t = Instant::now();
    let engine = open_engine(&dir, SourceConfig::Sql, shim.clone(), Some(BUDGET))
        .map_err(|e| format!("open: {e:?}"))?;
    let open_s = secs(t);
    report.metric("setup_s", build_s + open_s, "s");

    let snap = engine.snapshot().map_err(|e| format!("{e:?}"))?;
    let tables = hot_features(snap.history(), FeatureClass::From, 8);
    let atoms = hot_features(snap.history(), FeatureClass::Where, 8);
    let mix = sql_read_mix(&tables, &atoms);
    drop(snap);

    // Measured phase: writes when due, reads in between.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let vfs_start = shim.counts();
    let mut resumes = Resumes::new(work.join("fixed"));
    let mut reader = Reader::new(start);
    let mut writer = Writer {
        acked: 0,
        windowed: 0,
        raw_bytes: 0,
        close_ms: Samples::default(),
        open_ms: Samples::default(),
        lateness_ms: Vec::new(),
        errors: Vec::new(),
        tap: WindowTap::new(args.trace),
    };
    let mut by_slice = [0u64; 2];
    let (mut i, mut req) = (0u64, 0u64);
    let mut next_resume = start;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let traced = args.trace && in_traced_slice(now.duration_since(start).as_secs_f64());
        trace::set_enabled(traced);
        let due = start + Duration::from_secs_f64(i as f64 / WRITE_RATE);
        if due <= now {
            write(&engine, &bank, &mut rng, &mut writer, start, due, i);
            i += 1;
            continue;
        }
        if now >= next_resume {
            next_resume += RESUME_EVERY;
            if let Err(e) = resumes.open_timed() {
                reader.errors.push(e);
            }
            continue;
        }
        calib::tick();
        reader.read_next(&engine, &mix, req);
        by_slice[traced as usize] += 1;
        req += 1;
    }
    let elapsed = secs(start);
    let peak_rss = peak_rss_mib();
    trace::set_enabled(false);
    let vfs_measured = shim.counts().since(&vfs_start);

    // The writer runs at a fixed rate: what it achieved over the whole
    // phase (it falls short only when acks fall behind the schedule).
    report.metric("ingest_rps", writer.acked as f64 / elapsed, "records/s");
    report.latency("close_ack_p50_ms", Some("close_ack_tail_ms"), "ms", &writer.close_ms);
    let late = crate::stats::summarize(&writer.lateness_ms);
    if let Some(l) = late {
        report.note(format!(
            "writer: open loop at {WRITE_RATE} records/s; sent late by p50 {:.3} ms, p{} {:.3} ms",
            l.p50, l.tail_pct, l.tail
        ));
    }
    report.attempted += writer.acked + writer.errors.len() as u64;
    for e in &writer.errors {
        report.fail_op(e);
    }
    reader.finish(report);
    resumes.report(report);
    report.estimates(&reader.estimate_pass_us, &reader.estimate_us);
    report.latency("advise_p50_ms", None, "ms", &reader.advise_ms);
    report.latency("fresh_read_p50_ms", None, "ms", &reader.fresh_ms);
    report.note(format!(
        "measured: {} reads ({} fresh), {} records written, {} closes in {elapsed:.3} s",
        reader.attempted,
        reader.fresh_ms.len(),
        writer.acked,
        writer.close_ms.len()
    ));
    if args.trace {
        report.metric("trace.overhead_ratio", overhead_ratio(by_slice, elapsed), "ratio");
    }

    // Checks, then durability: after a flush every acked record is in a
    // closed window.
    windowed += writer.windowed;
    windowed += engine.flush().map_err(|e| format!("flush: {e:?}"))?.map_or(0, |w| w.queries);
    let acked = HISTORY_RECORDS as u64 + writer.acked;
    report.check(
        windowed == acked,
        format!("acked records {acked} == records in closed windows {windowed}"),
    );
    let snap = engine.snapshot().map_err(|e| format!("{e:?}"))?;
    let error = snap.summary().map_err(|e| format!("{e:?}"))?.map_or(f64::NAN, |s| s.error());
    let (windows, total) = (snap.windows_closed(), snap.history().total_queries());
    drop(snap);
    drop(engine);
    let read_bytes =
        reopen_checks(&dir, windows, total, &same_error(error), 1, args.trace, report)?.read_bytes;
    report.metric("peak_rss_mib", peak_rss, "MiB");

    if args.trace {
        let spans = trace::take();
        report.metric("trace.spans", spans.len() as f64, "count");
        let trace = Trace::new(spans);
        save_trace(&trace, args, report);
        let stages = replay_windows(SourceConfig::Sql, &writer.tap.windows, report);
        layer_metrics(
            &LayerInputs {
                trace: &trace,
                storage: &trace,
                stages: &stages,
                closes: writer.close_ms.len() as u64,
                vfs: vfs_measured,
                close_ack_ms: median(writer.close_ms.values()).unwrap_or(f64::NAN),
                open_ack_ms: median(writer.open_ms.values()).unwrap_or(f64::NAN),
                wire: wire_replay_sql(&bank, args.seed, &mix),
                read_rtt_us: reader.median_us(),
                read_bytes_at_resume: read_bytes,
            },
            report,
        );
    }
    Ok(())
}
