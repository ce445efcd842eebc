//! `sql-ingest`: one writer in a closed loop through `Engine::ingest` on
//! a durable store (real fsync, fresh directory), SQL source, US-bank
//! records sampled by multiplicity. Featurize and the window close do
//! most of the work. Every [`PROBE_EVERY`] closes after the first
//! [`MEASURE_WINDOWS`] the writer pauses for a read probe on a copy of
//! the store as it stood after those windows: the copy is reopened
//! (`resume_ms`), read once (the first read pays the history summary)
//! and then read warm for a fixed time. Every probe reads the same
//! history, so the reads do not follow ingest throughput, and the probes
//! are spread over the whole run. The pauses are kept out of the ingest
//! throughput.

use crate::calib;
use crate::common::*;
use crate::gen::{sql_read_mix, Read, Rng, UsBank};
use crate::reader::Reader;
use crate::stats::{median, Rate, Samples};
use crate::trace::{self, Trace};
use crate::vfs::CountingFs;
use crate::Args;
use logr::cluster::vfs::RealFs;
use logr::feature::FeatureClass;
use logr::{Engine, EngineSnapshot, SourceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up cycles timed: each opens a fresh store and ingests its first
/// [`SETUP_WINDOWS`] windows. An open alone takes about 0.3 ms of
/// file-system calls, and whole runs read 0.3 or 1.7 ms with the host's
/// disk; with one window the median of ten runs still moved by a third
/// between two sets of runs. Four windows of featurize and clustering
/// make it mostly the program's own work.
const SETUP_CYCLES: usize = 9;
const SETUP_WINDOWS: usize = 4;
/// Input stream of the set-up cycles (apart from the measured stream).
const STREAM_SETUP: u64 = 2;
/// Windows whose snapshot is checked against an in-memory replay.
pub const CHECKPOINT_WINDOWS: usize = 4;
/// Windows after which the store's bytes, the history's Error and a
/// copy of the store (for `resume_ms`) are taken: a fixed input size, so
/// they do not move with throughput.
pub const MEASURE_WINDOWS: usize = 64;
/// Window closes between two read probes.
const PROBE_EVERY: usize = 32;
/// Warm reads of one probe run for this long.
const PROBE_WARM: Duration = Duration::from_millis(30);
/// Fewest `resume_ms` samples a run must take.
const MIN_RESUMES: usize = 8;

/// Input stream ids (independent draws from one seed).
pub const STREAM_RECORDS: u64 = 1;

/// The store and history at a fixed input size.
pub struct FixedPoint {
    pub store_bytes: u64,
    pub raw_bytes: u64,
    pub snapshot: Arc<EngineSnapshot>,
    /// A copy of the store as it stood.
    pub copy: PathBuf,
}

impl FixedPoint {
    pub fn take(
        engine: &Engine,
        dir: &Path,
        raw_bytes: u64,
        copy: PathBuf,
    ) -> Result<FixedPoint, String> {
        copy_store(dir, &copy).map_err(|e| format!("copy of the store: {e}"))?;
        Ok(FixedPoint {
            store_bytes: dir_bytes(dir),
            raw_bytes,
            snapshot: engine.snapshot().map_err(|e| format!("{e:?}"))?,
            copy,
        })
    }

    /// Report `store_bytes_per_input_byte`, `summary_error` and
    /// `summary_verbosity` at this point, and check that the copy reopens
    /// with all of it.
    pub fn report(point: Option<&FixedPoint>, report: &mut Report) -> Result<(), String> {
        let Some(p) = point else {
            return Err(format!("the run closed fewer than {MEASURE_WINDOWS} windows"));
        };
        let summary = p.snapshot.summary().map_err(|e| format!("{e:?}"))?.ok_or("empty history")?;
        report.metric(
            "store_bytes_per_input_byte",
            p.store_bytes as f64 / p.raw_bytes as f64,
            "ratio",
        );
        report.metric("summary_error", summary.error(), "nats");
        report.metric("summary_verbosity", summary.total_verbosity() as f64, "features");
        let (windows, total) = (p.snapshot.windows_closed(), p.snapshot.total_queries());
        report.note(format!(
            "store bytes, summary and resume taken at {windows} windows ({} records)",
            windows as u64 * WINDOW
        ));
        reopen_checks(&p.copy, windows, total, &same_error(summary.error()), 1, false, report)?;
        Ok(())
    }
}

/// `resume_ms`: `Engine::open` of the fixed point's copy, timed one open
/// at a time across the measured phase, so that a burst of outside load
/// moves a few samples, not the figure. The first open folds the copied
/// delta log into a new base and is not a sample: the figure is a reopen
/// of a folded store.
pub struct Resumes {
    copy: PathBuf,
    opens: usize,
    ms: Vec<f64>,
}

impl Resumes {
    pub fn new(copy: PathBuf) -> Resumes {
        Resumes { copy, opens: 0, ms: Vec::new() }
    }

    /// Open the copy once, timed, and hand the engine back.
    pub fn open_timed(&mut self) -> Result<Engine, String> {
        let t = Instant::now();
        let engine = Engine::builder()
            .vfs(Arc::new(RealFs))
            .open(&self.copy)
            .map_err(|e| format!("reopen of the fixed-point copy: {e:?}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.opens += 1;
        if self.opens > 1 {
            self.ms.push(ms);
        }
        Ok(engine)
    }

    pub fn report(&self, report: &mut Report) {
        report.check(
            self.ms.len() >= MIN_RESUMES,
            format!(
                "{} timed reopens of the fixed-point copy (at least {MIN_RESUMES})",
                self.ms.len()
            ),
        );
        report.metric("resume_ms", median(&self.ms).unwrap_or(f64::NAN), "ms");
    }
}

pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    let bank = UsBank::new();
    report.note(format!("input: US-bank universe generated in {:.3} s", secs(t)));

    // Set-up: open a fresh durable store and ingest its first windows,
    // several times; report the median. The measured store is opened
    // fresh after them.
    let mut setup = Vec::new();
    let mut setup_rng = Rng::derive(args.seed, STREAM_SETUP);
    for i in 0..SETUP_CYCLES {
        let first = bank.stream(&mut setup_rng, SETUP_WINDOWS * WINDOW as usize);
        let dir = work.join(format!("setup-{i}"));
        let shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
        let t = Instant::now();
        let engine = open_engine(&dir, SourceConfig::Sql, shim, None)
            .map_err(|e| format!("set-up open: {e:?}"))?;
        for sql in &first {
            engine.ingest(sql).map_err(|e| format!("set-up ingest: {e:?}"))?;
        }
        setup.push(secs(t));
        drop(engine);
        remove_tree(&dir);
        calib::tick();
    }
    report.metric("setup_s", median(&setup).unwrap_or(f64::NAN), "s");
    let dir = work.join("store");
    let shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
    let engine = open_engine(&dir, SourceConfig::Sql, shim.clone(), None)
        .map_err(|e| format!("open: {e:?}"))?;

    // Measured phase. A traced run alternates untraced and traced slices;
    // the ratio of their rates is the tracing overhead.
    let mut rng = Rng::derive(args.seed, STREAM_RECORDS);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    // `windowed` sums the records of every closed window: after the final
    // flush it must equal `acked`.
    let (mut acked, mut raw_bytes, mut windowed) = (0u64, 0u64, 0u64);
    let mut by_slice = [0u64; 2];
    let (mut close_ms, mut open_ms, mut rate) =
        (Samples::default(), Samples::default(), Rate::default());
    let mut tap = WindowTap::new(args.trace);
    let (mut checkpoint, mut fixed, mut resumes) = (None, None, None);
    let mut mix: Vec<Read> = Vec::new();
    let mut reader = Reader::new(start);
    let (mut probing, mut probes) = (Duration::ZERO, 0usize);
    let vfs_start = shim.counts();
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let traced = args.trace && in_traced_slice(now.duration_since(start).as_secs_f64());
        trace::set_enabled(traced);
        rate.pause(now.duration_since(start).as_secs_f64(), calib::tick());
        let sql = bank.sample(&mut rng);
        let baseline = tap.baseline(&engine, (acked + 1).is_multiple_of(WINDOW));
        let t = Instant::now();
        let result = {
            let mut span = trace::span("engine.ingest", acked);
            let r = engine.ingest(sql);
            span.set_value(matches!(r, Ok(Some(_))) as u64);
            r
        };
        let dt_ms = t.elapsed().as_secs_f64() * 1e3;
        let at = start.elapsed().as_secs_f64();
        report.attempted += 1;
        let closed = match result {
            Ok(closed) => closed,
            Err(e) => {
                report.fail_op(&error_code(&e));
                continue;
            }
        };
        acked += 1;
        rate.add(at, 1.0);
        by_slice[traced as usize] += 1;
        raw_bytes += sql.len() as u64;
        tap.acked(sql, closed.as_ref(), baseline);
        let Some(w) = closed else {
            open_ms.push(at, dt_ms);
            continue;
        };
        windowed += w.queries;
        close_ms.push(at, dt_ms);
        let closes = close_ms.len();
        if closes == CHECKPOINT_WINDOWS {
            checkpoint = engine.snapshot().ok();
        }
        if closes == MEASURE_WINDOWS {
            let t = Instant::now();
            let point = FixedPoint::take(&engine, &dir, raw_bytes, work.join("fixed"))?;
            // The read mix is drawn once, from this history (fixed per
            // seed).
            let tables = hot_features(point.snapshot.history(), FeatureClass::From, 8);
            let atoms = hot_features(point.snapshot.history(), FeatureClass::Where, 8);
            mix = sql_read_mix(&tables, &atoms);
            fixed = Some(point);
            resumes = Some(Resumes::new(work.join("fixed")));
            rate.pause(at, t.elapsed().as_secs_f64());
        }
        if let Some(r) = resumes.as_mut().filter(|_| closes.is_multiple_of(PROBE_EVERY)) {
            let t = Instant::now();
            let copy = r.open_timed()?;
            reader.forget_snapshot();
            reader.read_next(&copy, &mix, acked);
            let until = Instant::now() + PROBE_WARM;
            while Instant::now() < until {
                reader.read_next(&copy, &mix, acked);
            }
            drop(copy);
            probes += 1;
            probing += t.elapsed();
            rate.pause(at, t.elapsed().as_secs_f64());
        }
    }
    let elapsed = secs(start);
    let peak_rss = peak_rss_mib();
    trace::set_enabled(false);
    let vfs_measured = shim.counts().since(&vfs_start);
    let ingest_s = elapsed - probing.as_secs_f64();
    report.metric("ingest_rps", rate.median(elapsed).unwrap_or(f64::NAN), "records/s");
    report.latency("close_ack_p50_ms", Some("close_ack_tail_ms"), "ms", &close_ms);
    report.note(format!(
        "measured: {acked} records, {} closes in {ingest_s:.3} s of ingest ({:.3} s of read probes)",
        close_ms.len(),
        probing.as_secs_f64()
    ));
    if args.trace {
        report.metric("trace.overhead_ratio", overhead_ratio(by_slice, elapsed), "ratio");
    }
    report.note(format!("read probes: {probes} on the {MEASURE_WINDOWS}-window copy"));
    reader.finish(report);
    report.estimates(&reader.estimate_pass_us, &reader.estimate_us);
    report.latency("advise_p50_ms", None, "ms", &reader.advise_ms);
    report.latency("fresh_read_p50_ms", None, "ms", &reader.fresh_ms);

    // Checks on the live engine, then durability. Flush closes the open
    // window, so every acked record is in a closed window. (Records, not
    // total_queries: an SQL record that rewrites into several conjunctive
    // branches counts once per branch there.)
    windowed += engine.flush().map_err(|e| format!("flush: {e:?}"))?.map_or(0, |w| w.queries);
    report.check(
        windowed == acked,
        format!("acked records {acked} == records in closed windows {windowed}"),
    );
    FixedPoint::report(fixed.as_ref(), report)?;
    resumes.as_ref().ok_or("the run took no fixed point")?.report(report);
    check_checkpoint(&bank, args.seed, STREAM_RECORDS, checkpoint.as_deref(), report)?;
    let snap = engine.snapshot().map_err(|e| format!("snapshot: {e:?}"))?;
    let error =
        snap.summary().map_err(|e| format!("summary: {e:?}"))?.map_or(f64::NAN, |s| s.error());
    let (windows, history_total) = (snap.windows_closed(), snap.history().total_queries());
    drop((snap, checkpoint, fixed));
    drop(engine);
    let reopened =
        reopen_checks(&dir, windows, history_total, &same_error(error), 1, args.trace, report)?;
    report.metric("peak_rss_mib", peak_rss, "MiB");

    if args.trace {
        let spans = trace::take();
        report.metric("trace.spans", spans.len() as f64, "count");
        let trace = Trace::new(spans);
        save_trace(&trace, args, report);
        let stages = replay_windows(SourceConfig::Sql, &tap.windows, report);
        let wire = wire_replay_sql(&bank, args.seed, &mix);
        layer_metrics(
            &LayerInputs {
                trace: &trace,
                storage: &trace,
                stages: &stages,
                closes: close_ms.len() as u64,
                vfs: vfs_measured,
                close_ack_ms: median(close_ms.values()).unwrap_or(f64::NAN),
                open_ack_ms: median(open_ms.values()).unwrap_or(f64::NAN),
                wire,
                read_rtt_us: reader.median_us(),
                read_bytes_at_resume: reopened.read_bytes,
            },
            report,
        );
    }
    Ok(())
}

/// The history summary after the first [`CHECKPOINT_WINDOWS`] windows of
/// a seeded stream must equal, bit for bit, an in-memory engine's over
/// the same records: summary_error repeats for a given seed.
pub fn check_checkpoint(
    bank: &UsBank,
    seed: u64,
    stream: u64,
    checkpoint: Option<&logr::EngineSnapshot>,
    report: &mut Report,
) -> Result<(), String> {
    let Some(cp) = checkpoint else {
        report.check(false, "the run closed too few windows for the determinism check");
        return Ok(());
    };
    let live = cp.summary().ok().flatten().map_or(f64::NAN, |s| s.error());
    let records = bank.stream(&mut Rng::derive(seed, stream), CHECKPOINT_WINDOWS * WINDOW as usize);
    let shadow = shadow_error(SourceConfig::Sql, &records).map_err(|e| format!("shadow: {e:?}"))?;
    report.check(
        live.to_bits() == shadow.to_bits(),
        format!("summary_error after {CHECKPOINT_WINDOWS} windows repeats for seed {seed}: {live} == {shadow}"),
    );
    Ok(())
}

/// This workload's traffic as the wire would carry it: ingest frames of
/// 64 records and the read mix, with the responses the server sends.
pub fn wire_replay_sql(bank: &UsBank, seed: u64, mix: &[crate::gen::Read]) -> (f64, f64) {
    let mut rng = Rng::derive(seed, STREAM_RECORDS);
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for i in 0..64u64 {
        let batch = bank.stream(&mut rng, 64);
        requests.push(ingest_frame("bench", i, "sql", &batch));
        responses.push(format!(
            "{{\"id\":{i},\"ok\":true,\"result\":{{\"ingested\":64,\"closed\":{},\"windows_closed\":{}}}}}",
            (i % 4 == 3) as u8,
            i / 4
        ));
    }
    for (i, read) in mix.iter().enumerate() {
        requests.push(read_frame("bench", 64 + i as u64, read));
        responses.push(format!(
            "{{\"id\":{},\"ok\":true,\"result\":{}}}",
            64 + i,
            1234.5 + i as f64
        ));
    }
    replay_wire(&requests, &responses)
}
