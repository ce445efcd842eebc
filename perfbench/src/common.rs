//! What the three workloads share: engine configuration, the report they
//! fill, the in-process read executor, the wire encoders, and the
//! per-layer replay of closed windows.

use crate::gen::Read;
use crate::trace::{self, Trace};
use crate::vfs::CountingFs;
use logr::analytics::{Advisor, DriftAdvisor, IndexAdvisor, Pred, QueryRecommender, ViewAdvisor};
use logr::cluster::vfs::{RealFs, Vfs};
use logr::cluster::PointSet;
use logr::core::{feature_drift, novelty_scores, LogR, StreamConfig, WindowSummary};
use logr::feature::{Feature, FeatureClass, QueryLog};
use logr::{Engine, EngineSnapshot, Error, SourceConfig};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Records per window.
pub const WINDOW: u64 = 256;
/// Clusters per summary (the paper's K).
pub const K: usize = 8;
/// Engine clustering seed (fixed: the workload seed only drives inputs).
pub const ENGINE_SEED: u64 = 42;

/// The stream configuration every workload's engines run.
pub fn stream_config(source: SourceConfig) -> StreamConfig {
    StreamConfig { window: WINDOW, k: K, seed: ENGINE_SEED, source, ..StreamConfig::default() }
}

/// Open (or resume) a durable engine at `dir` through `vfs`.
pub fn open_engine(
    dir: &Path,
    source: SourceConfig,
    vfs: Arc<CountingFs>,
    budget: Option<usize>,
) -> Result<Engine, Error> {
    let mut b = Engine::builder().stream_config(stream_config(source)).vfs(vfs);
    if let Some(bytes) = budget {
        b = b.resident_budget(bytes);
    }
    b.open(dir)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Total bytes of the files of the store at `dir` (stores are flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    let files = RealFs.list(dir).unwrap_or_default();
    files.iter().map(|f| RealFs.read(f).map_or(0, |b| b.len() as u64)).sum()
}

/// Copy a store's files to `to`, leaving out the live engine's lock file:
/// the copy is the store as it stood, reopenable on its own. Nothing is
/// fsynced: the copy is read back by this process only.
pub fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    RealFs.create_dir_all(to)?;
    for file in RealFs.list(from)? {
        let Some(name) = file.file_name() else { continue };
        if name != "engine.lock" {
            RealFs.write(&to.join(name), &RealFs.read(&file)?)?;
        }
    }
    Ok(())
}

/// Remove a scratch directory the benchmark created (a run's stores and
/// copies); best effort.
pub fn remove_tree(dir: &Path) {
    // lint:allow(vfs-bypass): deletes the benchmark's own scratch tree, which is not a store; the Vfs has no recursive delete
    let _ = std::fs::remove_dir_all(dir);
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = RealFs.read(Path::new("/proc/self/status")).unwrap_or_default();
    let status = String::from_utf8_lossy(&status);
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → (value, unit), in the order reported.
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Operations attempted / failed (frames, ingest calls, reads).
    pub attempted: u64,
    pub failed: u64,
    /// Failures by wire error code (server) or error variant.
    pub errors: BTreeMap<String, u64>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(name.to_string(), (value, unit.to_string()));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Record a check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.notes.push(format!("check ok: {what}"));
        } else {
            self.failures.push(what);
        }
    }

    /// Count one failed operation under `code`.
    pub fn fail_op(&mut self, code: &str) {
        self.failed += 1;
        *self.errors.entry(code.to_string()).or_default() += 1;
    }

    /// A latency distribution: its median (over per-second slices) and
    /// tail, with the tail's percentile and sample count noted.
    pub fn latency(
        &mut self,
        p50_name: &str,
        tail_name: Option<&str>,
        unit: &str,
        samples: &crate::stats::Samples,
    ) {
        let Some(s) = samples.summary() else {
            return self.failures.push(format!("no samples for {p50_name}"));
        };
        let mut sorted = samples.values().to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p| crate::stats::nearest_rank(&sorted, p);
        self.note(format!(
            "{p50_name}: pooled p50 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} max {:.4}",
            at(50.0),
            at(90.0),
            at(95.0),
            at(99.0),
            at(100.0)
        ));

        self.metric(p50_name, s.p50, unit);
        match tail_name {
            Some(tail) => {
                self.metric(tail, s.tail, unit);
                let beyond = s.count - (s.tail_pct / 100.0 * s.count as f64).ceil() as usize;
                self.note(format!(
                    "{tail}: p{} of {} samples ({beyond} beyond)",
                    s.tail_pct, s.count
                ));
            }
            None => self.note(format!("{p50_name}: {} samples", s.count)),
        }
    }
}

impl Report {
    /// `estimate_p50_us` as the median of per-pass mean estimate reads
    /// and `estimate_tail_us` over single reads. The mix's estimate reads
    /// differ in cost by predicate shape, and a median over single reads
    /// fell on whichever shape sat in the middle for the seed's mix.
    pub fn estimates(&mut self, passes: &crate::stats::Samples, single: &crate::stats::Samples) {
        self.latency("estimate_p50_us", None, "us", passes);
        let Some(s) = single.summary() else {
            return self.failures.push("no samples for estimate_tail_us".into());
        };
        self.metric("estimate_tail_us", s.tail, "us");
        self.note(format!("estimate_tail_us: p{} of {} single reads", s.tail_pct, s.count));
    }
}

/// The variant name of an engine error: the code failures are counted
/// under (the server's wire codes use the same names).
pub fn error_code(e: &Error) -> String {
    let text = format!("{e:?}");
    text.split(|c: char| !c.is_alphanumeric()).next().unwrap_or("Engine").to_string()
}

/// Write the run's spans as JSON lines under `.perfbench-traces/`.
pub fn save_trace(trace: &Trace, args: &crate::Args, report: &mut Report) {
    let dir = Path::new(".perfbench-traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match RealFs.create_dir_all(dir).and_then(|_| RealFs.write(&path, trace.to_jsonl().as_bytes()))
    {
        Ok(()) => report.note(format!("trace: spans written to {}", path.display())),
        Err(e) => report.note(format!("trace: could not write {}: {e}", path.display())),
    }
    for (name, count, total, own) in trace.layer_totals() {
        report.note(format!(
            "trace: {name:<28} spans={count:<7} total_ms={:<12.3} self_ms={:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
}

/// One answered read, reduced to what the range checks need.
#[derive(Debug, Clone, Copy)]
pub enum Answer {
    Estimate(f64),
    Share(f64),
    Ranked,
}

/// Run one read against a snapshot, inside an `analytics.<op>` span.
pub fn run_read(snap: &EngineSnapshot, read: &Read, req: u64) -> Result<Answer, Error> {
    let _span = trace::span(read.span_name(), req);
    let q = || -> Result<_, Error> {
        snap.query()?.ok_or(Error::Config { detail: "read before the first summary" })
    };
    Ok(match read {
        Read::Frequency(p) => Answer::Estimate(q()?.frequency(p)?),
        Read::Share(p) => Answer::Share(q()?.share(p)?),
        Read::Conditional(g, p) => Answer::Share(q()?.conditional(g, p)?),
        Read::TopK(class, k) => {
            q()?.top_k(*class, *k)?;
            Answer::Ranked
        }
        Read::Cooccurrence(class) => {
            q()?.cooccurrence(*class)?;
            Answer::Ranked
        }
        Read::Index(min) => {
            IndexAdvisor::new(*min).advise(snap)?;
            Answer::Ranked
        }
        Read::View(min) => {
            ViewAdvisor::new(*min).advise(snap)?;
            Answer::Ranked
        }
        Read::Recommend(partial, min) => {
            QueryRecommender::new(partial.clone(), *min).advise(snap)?;
            Answer::Ranked
        }
        Read::Drift(tol) => {
            DriftAdvisor::new(*tol).advise(snap)?;
            Answer::Ranked
        }
    })
}

/// The answers of the estimate reads of `mix` on one snapshot, in order.
pub fn estimate_answers(snap: &EngineSnapshot, mix: &[Read]) -> Result<Vec<f64>, Error> {
    let mut out = Vec::new();
    for read in mix.iter().filter(|r| r.is_estimate()) {
        if let Answer::Estimate(v) | Answer::Share(v) = run_read(snap, read, 0)? {
            out.push(v);
        }
    }
    Ok(out)
}

/// Range check of one answer against the summarized query count: shares
/// lie in [0, 1] and frequencies in [0, summarized]. Mixture sums are
/// floating point, so both ends allow a relative 1e-9.
pub fn answer_in_range(answer: Answer, summarized: u64) -> bool {
    let eps = 1e-9;
    match answer {
        Answer::Estimate(f) => {
            f.is_finite() && f >= -eps * summarized as f64 && f <= summarized as f64 * (1.0 + eps)
        }
        Answer::Share(s) => s.is_finite() && (-eps..=1.0 + eps).contains(&s),
        Answer::Ranked => true,
    }
}

/// The `k` most frequent features of `class` in `log`, by exact count
/// (used to pick predicates that resolve, before the measured phase).
pub fn hot_features(log: &QueryLog, class: FeatureClass, k: usize) -> Vec<Feature> {
    let counts = log.feature_counts();
    let mut ranked: Vec<(u64, Feature)> = log
        .codebook()
        .iter()
        .filter(|(_, f)| f.class == class)
        .map(|(id, f)| (counts.get(id.index()).copied().unwrap_or(0), f.clone()))
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.text.cmp(&b.1.text)));
    ranked.into_iter().take(k).map(|(_, f)| f).collect()
}

// ---- wire encoding -------------------------------------------------------

/// JSON string literal for `text`.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A predicate as the wire spells it.
pub fn pred_json(p: &Pred) -> String {
    match p {
        Pred::Feature(f) => {
            let key = match f.class {
                FeatureClass::From => "table",
                FeatureClass::Select => "column",
                FeatureClass::Where => "where_atom",
                FeatureClass::Template => "template",
                FeatureClass::Param => "param",
                _ => "unsupported",
            };
            format!("{{\"{key}\":{}}}", quote(&f.text))
        }
        Pred::And(items) => {
            format!("{{\"and\":[{}]}}", items.iter().map(pred_json).collect::<Vec<_>>().join(","))
        }
        Pred::Or(items) => {
            format!("{{\"or\":[{}]}}", items.iter().map(pred_json).collect::<Vec<_>>().join(","))
        }
        Pred::Not(inner) => format!("{{\"not\":{}}}", pred_json(inner)),
    }
}

fn class_json(class: FeatureClass) -> String {
    quote(logr_server::protocol::class_name(class))
}

/// The request frame for one read.
pub fn read_frame(tenant: &str, id: u64, read: &Read) -> String {
    let head = format!("{{\"id\":{id},\"tenant\":{},", quote(tenant));
    let body = match read {
        Read::Frequency(p) => format!("\"op\":\"frequency\",\"pred\":{}", pred_json(p)),
        Read::Share(p) => format!("\"op\":\"share\",\"pred\":{}", pred_json(p)),
        Read::Conditional(g, p) => {
            format!("\"op\":\"conditional\",\"given\":{},\"pred\":{}", pred_json(g), pred_json(p))
        }
        Read::TopK(class, k) => {
            format!("\"op\":\"top_k\",\"class\":{},\"k\":{k}", class_json(*class))
        }
        Read::Cooccurrence(class) => {
            format!("\"op\":\"cooccurrence\",\"class\":{}", class_json(*class))
        }
        Read::Index(m) => format!("\"op\":\"advise\",\"advisor\":\"index\",\"min_share\":{m}"),
        Read::View(m) => format!("\"op\":\"advise\",\"advisor\":\"view\",\"min_share\":{m}"),
        Read::Recommend(partial, m) => format!(
            "\"op\":\"advise\",\"advisor\":\"recommend\",\"partial\":{},\"min_conditional\":{m}",
            quote(partial)
        ),
        Read::Drift(t) => format!("\"op\":\"advise\",\"advisor\":\"drift\",\"tolerance\":{t}"),
    };
    format!("{head}{body}}}")
}

/// The request frame ingesting `records` (with an explicit source on
/// every frame, so a mismatch would be a typed error).
pub fn ingest_frame(tenant: &str, id: u64, source: &str, records: &[String]) -> String {
    let items: Vec<String> = records.iter().map(|r| quote(r)).collect();
    format!(
        "{{\"id\":{id},\"op\":\"ingest\",\"tenant\":{},\"source\":\"{source}\",\"records\":[{}]}}",
        quote(tenant),
        items.join(",")
    )
}

// ---- per-layer replay ----------------------------------------------------

/// One closed window as the writer saw it: the records that filled it,
/// the engine's summary of it, and the drift baseline before it closed.
pub struct ClosedWindow {
    pub records: Vec<String>,
    pub window: Arc<WindowSummary>,
    pub baseline: Arc<EngineSnapshot>,
}

/// Windows a traced run replays through the stage functions.
pub const REPLAY_WINDOWS: usize = 16;

/// Collects the first [`REPLAY_WINDOWS`] whole windows a writer closes,
/// for the traced run's replay.
pub struct WindowTap {
    on: bool,
    records: Vec<String>,
    pub windows: Vec<ClosedWindow>,
}

impl WindowTap {
    pub fn new(on: bool) -> WindowTap {
        WindowTap { on, records: Vec::new(), windows: Vec::new() }
    }

    fn full(&self) -> bool {
        !self.on || self.windows.len() >= REPLAY_WINDOWS
    }

    /// The pre-close snapshot (drift baseline), taken when the next
    /// ingest will close a window.
    pub fn baseline(&self, engine: &Engine, closing: bool) -> Option<Arc<EngineSnapshot>> {
        if self.full() || !closing {
            return None;
        }
        engine.snapshot().ok()
    }

    /// Note an acknowledged record and, if it closed a window, the window.
    pub fn acked(
        &mut self,
        record: &str,
        closed: Option<&Arc<WindowSummary>>,
        baseline: Option<Arc<EngineSnapshot>>,
    ) {
        if self.full() {
            return;
        }
        self.records.push(record.to_string());
        if let Some(w) = closed {
            let records = std::mem::take(&mut self.records);
            if let Some(baseline) = baseline.filter(|_| records.len() == WINDOW as usize) {
                self.windows.push(ClosedWindow { records, window: w.clone(), baseline });
            }
        }
    }
}

/// Length of the alternating slices of a traced run, in seconds. A
/// multiple of history-read's close period (0.2 s), so traced and
/// untraced slices see as many closes, and the fresh reads that follow
/// them.
pub const TRACE_SLICE_S: f64 = 0.4;

/// Traced runs record spans in odd slices only, so traced and untraced
/// work interleave over the same phase of the workload.
pub fn in_traced_slice(offset_s: f64) -> bool {
    (offset_s / TRACE_SLICE_S) as u64 % 2 == 1
}

/// Untraced over traced rate, from the operations completed in untraced
/// (`ops[0]`) and traced (`ops[1]`) slices of an `elapsed`-second phase.
pub fn overhead_ratio(ops: [u64; 2], elapsed: f64) -> f64 {
    let mut time = [0.0; 2];
    let mut at = 0.0;
    while at < elapsed {
        let len = TRACE_SLICE_S.min(elapsed - at);
        time[in_traced_slice(at + len / 2.0) as usize] += len;
        at += TRACE_SLICE_S;
    }
    (ops[0] as f64 / time[0]) / (ops[1] as f64 / time[1])
}

/// Stage times of one replayed window, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub featurize_us: f64,
    pub distances_us: f64,
    pub compress_us: f64,
    pub drift_us: f64,
    pub distinct_texts: usize,
}

impl StageTimes {
    pub fn total_us(&self) -> f64 {
        self.featurize_us + self.distances_us + self.compress_us + self.drift_us
    }
}

/// Replay each window's inputs through the stage functions the close
/// runs: featurize every distinct record once (the per-window parse
/// cache), window distances, window compression, drift and novelty
/// against the pre-close baseline. The replayed window summary must
/// equal the engine's, bit for bit. Template sources are stateful, so
/// the featurizer sees the windows in order from a fresh miner; pass
/// every window since the start of the stream for them.
pub fn replay_windows(
    source: SourceConfig,
    windows: &[ClosedWindow],
    report: &mut Report,
) -> Vec<StageTimes> {
    let config = stream_config(source);
    let compressor = LogR::new(config.compressor_config());
    let mut featurizer = source.featurizer();
    let mut out = Vec::with_capacity(windows.len());
    let mut identical = true;
    for cw in windows {
        let mut seen = HashSet::new();
        let t = Instant::now();
        for r in &cw.records {
            if seen.insert(r.as_str()) {
                std::hint::black_box(featurizer.featurize(r));
            }
        }
        let featurize_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let dist = PointSet::from_log(&cw.window.log).distances(config.metric);
        let distances_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let summary = compressor.compress_condensed(&cw.window.log, dist);
        let compress_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let baseline = cw.baseline.baseline();
        if baseline.total_queries() > 0 {
            std::hint::black_box(feature_drift(baseline, &cw.window.log));
            std::hint::black_box(novelty_scores(baseline, &cw.window.log, config.metric));
        }
        let drift_us = t.elapsed().as_secs_f64() * 1e6;
        identical &= summary.error().to_bits() == cw.window.summary.error().to_bits();
        out.push(StageTimes {
            featurize_us,
            distances_us,
            compress_us,
            drift_us,
            distinct_texts: seen.len(),
        });
    }
    report.check(
        identical,
        format!("{} replayed window summaries equal the engine's bit for bit", windows.len()),
    );
    out
}

/// Replay `parse_frame` over request frames and the JSON parser over
/// response lines; returns (µs per request frame, µs per response).
pub fn replay_wire(requests: &[String], responses: &[String]) -> (f64, f64) {
    let per = |n: usize, t: Instant| t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;
    let t = Instant::now();
    for f in requests {
        std::hint::black_box(logr_server::protocol::parse_frame(f));
    }
    let parse = per(requests.len(), t);
    let t = Instant::now();
    for r in responses {
        let _ = std::hint::black_box(logr_server::json::parse(r));
    }
    (parse, per(responses.len(), t))
}

/// The per-layer metrics every workload derives the same way from its
/// trace, replays and storage counts.
pub struct LayerInputs<'a> {
    /// Spans of the engine under this workload's traffic.
    pub trace: &'a Trace,
    /// Spans of the storage calls behind the acknowledged closes (the
    /// same trace unless a server made them).
    pub storage: &'a Trace,
    pub stages: &'a [StageTimes],
    /// Window closes acknowledged in the measured phase.
    pub closes: u64,
    /// Storage counts accumulated in the measured phase.
    pub vfs: crate::vfs::Counts,
    /// Median close-ack and non-closing ingest-ack latency (ms).
    pub close_ack_ms: f64,
    pub open_ack_ms: f64,
    /// (µs per request frame, µs per response) from [`replay_wire`].
    pub wire: (f64, f64),
    /// Median round trip of estimate, advise and fresh reads in µs, over
    /// the surface the workload reads through (loopback for the server,
    /// the in-process API for the engine workloads).
    pub read_rtt_us: (f64, f64, f64),
    pub read_bytes_at_resume: u64,
}

pub fn layer_metrics(inp: &LayerInputs, report: &mut Report) {
    use crate::stats::median;
    use crate::vfs::Op;
    let t = inp.trace;
    let med = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
    let stage = |f: fn(&StageTimes) -> f64| med(inp.stages.iter().map(f).collect());

    report.metric("source.featurize_us_per_window", stage(|s| s.featurize_us), "us");
    report.metric(
        "source.records_per_distinct",
        WINDOW as f64 / stage(|s| s.distinct_texts as f64),
        "ratio",
    );
    report.metric("cluster.window_distances_us", stage(|s| s.distances_us), "us");
    report.metric("core.window_compress_us", stage(|s| s.compress_us), "us");
    report.metric("core.drift_us", stage(|s| s.drift_us), "us");

    let closes: Vec<_> = t.named("engine.ingest").filter(|s| s.value == 1).collect();
    let opens: Vec<_> = t.named("engine.ingest").filter(|s| s.value == 0).collect();
    report.metric(
        "engine.close_ms",
        med(closes.iter().map(|s| s.ns() as f64 / 1e6).collect()),
        "ms",
    );
    // The close minus what the replay attributes to the stages and what
    // its own storage calls took.
    let stage_ms = stage(|s| s.total_us()) / 1e3;
    report.metric(
        "engine.close_residual_ms",
        med(closes.iter().map(|s| t.self_ns(s) as f64 / 1e6 - stage_ms).collect()),
        "ms",
    );
    report.metric(
        "engine.ingest_open_ns",
        med(opens.iter().map(|s| s.ns() as f64).collect()),
        "ns",
    );
    report.metric(
        "engine.snapshot_ns",
        med(t.named("engine.snapshot").map(|s| s.ns() as f64).collect()),
        "ns",
    );
    let summaries: Vec<_> = t.named("engine.summary").collect();
    report.metric(
        "engine.summary_ms",
        med(summaries.iter().map(|s| s.ns() as f64 / 1e6).collect()),
        "ms",
    );

    let per_close = |x: u64| x as f64 / inp.closes.max(1) as f64;
    report.metric("vfs.fsyncs_per_close", per_close(inp.vfs.get(Op::Fsync).calls), "count");
    report.metric("vfs.sync_dirs_per_close", per_close(inp.vfs.get(Op::SyncDir).calls), "count");
    report.metric("vfs.bytes_written_per_close", per_close(inp.vfs.bytes_written()), "B");
    // A delta-log fsync (the commit point of a close) is a vfs.fsync span
    // with value 1.
    let fsync_us = |delta_only: bool| {
        med(inp
            .storage
            .named("vfs.fsync")
            .filter(|s| !delta_only || s.value == 1)
            .map(|s| s.ns() as f64 / 1e3)
            .collect())
    };
    report.metric("vfs.fsync_us", fsync_us(false), "us");
    report.metric("vfs.write_us_per_close", per_close(inp.vfs.write_ns()) / 1e3, "us");
    let reads: Vec<Vec<_>> = summaries.iter().map(|s| t.descendants_named(s, "vfs.read")).collect();
    let n_sum = summaries.len().max(1) as f64;
    report.metric(
        "vfs.reads_per_summary",
        reads.iter().map(Vec::len).sum::<usize>() as f64 / n_sum,
        "count",
    );
    report.metric(
        "vfs.read_bytes_per_summary",
        reads.iter().flatten().map(|s| s.value).sum::<u64>() as f64 / n_sum,
        "B",
    );
    report.metric("vfs.read_bytes_at_resume", inp.read_bytes_at_resume as f64, "B");

    for (name, unit, scale) in [
        ("frequency", "ns", 1.0),
        ("share", "ns", 1.0),
        ("conditional", "ns", 1.0),
        ("or", "ns", 1.0),
        ("not", "ns", 1.0),
        ("top_k", "us", 1e3),
        ("cooccurrence", "us", 1e3),
        ("index", "us", 1e3),
        ("view", "us", 1e3),
        ("recommend", "us", 1e3),
        ("drift", "us", 1e3),
    ] {
        let span = format!("analytics.{name}");
        // Reads are warm: a fresh snapshot's summary is paid (and timed
        // as engine.summary) before its first read.
        let v: Vec<f64> = t.named(&span).map(|s| s.ns() as f64 / scale).collect();
        report.metric(&format!("analytics.{name}_{unit}"), med(v), unit);
    }

    report.metric("server.parse_frame_us", inp.wire.0, "us");
    report.metric("server.rtt_us.estimate", inp.read_rtt_us.0, "us");
    report.metric("server.rtt_us.advise", inp.read_rtt_us.1, "us");
    report.metric("server.rtt_us.fresh", inp.read_rtt_us.2, "us");
    report.metric("server.json_parse_us", inp.wire.1, "us");

    report.metric(
        "commit.fsyncs_per_close_ack",
        per_close(inp.vfs.get(Op::DeltaFsync).calls),
        "count",
    );
    report.metric("commit.fsync_us", fsync_us(true), "us");
    report.metric("commit.park_ms", inp.close_ack_ms - inp.open_ack_ms, "ms");
}

/// What a reopened store showed.
pub struct Reopened {
    /// `Engine::open` times, ms.
    pub times: Vec<f64>,
    /// Bytes the counted reopen read (0 when not counted).
    pub read_bytes: u64,
    pub error: f64,
    pub verbosity: f64,
}

/// Reopen the store at `dir` `cycles` times under plain `RealFs`, timing
/// each `open`, and check every time that it holds every acknowledged
/// window close (`windows`, covering `total` queries) and that `same`
/// accepts its snapshot (the live engine's summary, bit for bit). With
/// `count_reads`, one more reopen goes through a counting shim.
pub fn reopen_checks(
    dir: &Path,
    windows: usize,
    total: u64,
    same: &dyn Fn(&EngineSnapshot) -> bool,
    cycles: usize,
    count_reads: bool,
    report: &mut Report,
) -> Result<Reopened, String> {
    let mut out =
        Reopened { times: Vec::new(), read_bytes: 0, error: f64::NAN, verbosity: f64::NAN };
    let mut failure = None;
    for _ in 0..cycles {
        let t = Instant::now();
        let engine = Engine::builder()
            .vfs(Arc::new(RealFs))
            .open(dir)
            .map_err(|e| format!("reopen of {}: {e:?}", dir.display()))?;
        out.times.push(t.elapsed().as_secs_f64() * 1e3);
        let snap = engine.snapshot().map_err(|e| format!("{e:?}"))?;
        let summary = snap.summary().map_err(|e| format!("{e:?}"))?.ok_or("empty store")?;
        (out.error, out.verbosity) = (summary.error(), summary.total_verbosity() as f64);
        let (w, t) = (snap.windows_closed(), snap.total_queries());
        if w != windows || t != total || !same(&snap) {
            failure = Some(format!(
                " (reopened {w} windows, {t} queries, summary differs: {})",
                !same(&snap)
            ));
        }
    }
    let name = dir.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    report.check(
        failure.is_none(),
        format!(
            "{cycles} reopens of {name} hold all {windows} acknowledged closes, {total} queries and the live summary{}",
            failure.unwrap_or_default()
        ),
    );
    if count_reads {
        let shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
        if Engine::builder().vfs(shim.clone()).open(dir).is_ok() {
            out.read_bytes = shim.counts().get(crate::vfs::Op::Read).bytes;
        }
    }
    Ok(out)
}

/// A check that a snapshot's history summary has exactly this Error.
pub fn same_error(error: f64) -> impl Fn(&EngineSnapshot) -> bool {
    move |s| s.summary().ok().flatten().is_some_and(|m| m.error().to_bits() == error.to_bits())
}

/// Feed `records` to a fresh in-memory engine and return its history
/// summary's Error: the value a durable engine must reproduce for the
/// same seeded inputs.
pub fn shadow_error(source: SourceConfig, records: &[String]) -> Result<f64, Error> {
    let engine = Engine::builder().stream_config(stream_config(source)).in_memory()?;
    for r in records {
        engine.ingest_record(r)?;
    }
    Ok(engine.snapshot()?.summary()?.map_or(f64::NAN, |s| s.error()))
}
