//! `template-serve`: `logr-server` on loopback (2 workers, 2 ms group
//! commit, durable), two tenants with one closed-loop connection each,
//! template source over seeded service-log lines. 70% of frames ingest
//! 64-record batches; 30% are reads. The wire codec, group-commit
//! parking and fsync carry the cost; featurize is nearly free. The
//! measured phase alternates one-second slices: in even seconds both
//! connections send, in odd seconds they wait and a read probe runs
//! whose reads go through the server's frame codec in process (see
//! [`Probe`]).

use crate::calib;
use crate::common::*;
use crate::gen::{service_line, template_read_mix, Read, Rng};
use crate::reader::Reader;
use crate::stats::{median, Rate, Samples, SLICE_S};
use crate::trace::{self, Trace};
use crate::vfs::CountingFs;
use crate::Args;
use logr::analytics::{Advisor, DriftAdvisor, IndexAdvisor, QueryRecommender, ViewAdvisor};
use logr::cluster::vfs::RealFs;
use logr::feature::{Feature, FeatureClass};
use logr::SourceConfig;
use logr::{Engine, EngineSnapshot};
use logr_server::json::{self, Json};
use logr_server::protocol::{self, AdvisorSpec, Request, TenantOp};
use logr_server::{EngineProfile, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["alpha", "beta"];
const BATCH: usize = 64;
/// Percent of frames that ingest.
const INGEST_PCT: u64 = 70;
const SETUP_CYCLES: usize = 31;
/// Frames per connection kept for the wire replay.
const WIRE_SAMPLE: usize = 1000;
/// Passes over the read mix on the replay engine in the traced run.
const PROBE_PASSES: usize = 20;
/// Records per tenant at which its store is sized (a fixed input size,
/// so the ratio does not move with throughput).
const FIXED_RECORDS: u64 = 64 * WINDOW;
/// Passes over the read mix after the first read of each probe round.
const READ_PASSES: usize = 4;
const STREAM_RECORDS: u64 = 10;
const STREAM_PROBE: u64 = 15;
const STREAM_OPS: u64 = 20;

fn server_config(root: &Path, vfs: Arc<CountingFs>) -> ServerConfig {
    ServerConfig::new(root)
        .vfs(vfs)
        .profile(EngineProfile {
            window: WINDOW,
            clusters: K,
            seed: ENGINE_SEED,
            source: SourceConfig::template(),
        })
        .threads(2)
        .commit_interval(Duration::from_millis(2))
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader, line: String::new() })
    }

    /// Send one frame and return the raw response line.
    fn call(&mut self, frame: &str) -> Result<&str, String> {
        self.stream.write_all(format!("{frame}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// `Ok(result)` for an ok frame, `Err(code)` for an error frame.
fn outcome(line: &str) -> Result<Json, String> {
    let doc = json::parse(line).map_err(|_| "Unparseable".to_string())?;
    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(doc.get("result").cloned().unwrap_or(Json::Null))
    } else {
        Err(doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("Unknown")
            .to_string())
    }
}

/// What one connection measured.
#[derive(Default)]
struct Conn {
    /// Completion time of every measured frame (s since start).
    frames_done: Vec<f64>,
    /// Round trips (ms) of closing and non-closing ingest frames.
    close_ms: Samples,
    open_ms: Samples,
    estimate_us: Samples,
    advise_ms: Samples,
    fresh_ms: Samples,
    /// Records acknowledged in the measured phase.
    rate: Rate,
    acked: u64,
    raw_bytes: u64,
    attempted: u64,
    errors: Vec<String>,
    out_of_range: u64,
    /// (store bytes, raw record bytes) when the tenant had acked exactly
    /// [`FIXED_RECORDS`].
    fixed_point: Option<(u64, u64)>,
    /// The server's answers to the mix's estimate reads at that point.
    fixed_answers: Vec<f64>,
    sent: Vec<String>,
    received: Vec<String>,
}

fn records(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n).map(|_| service_line(rng)).collect()
}

/// Ingest one batch on `client`, folding the ack into `conn`.
fn ingest(
    client: &mut Client,
    conn: &mut Conn,
    tenant: &str,
    id: u64,
    batch: &[String],
) -> Result<bool, String> {
    let frame = ingest_frame(tenant, id, "template", batch);
    let line = client.call(&frame)?.to_string();
    if conn.sent.len() < WIRE_SAMPLE {
        conn.sent.push(frame);
        conn.received.push(line.clone());
    }
    conn.attempted += 1;
    match outcome(&line) {
        Ok(result) => {
            conn.acked += batch.len() as u64;
            conn.raw_bytes += batch.iter().map(|r| r.len() as u64).sum::<u64>();
            Ok(result.get("closed").and_then(Json::as_u64).unwrap_or(0) > 0)
        }
        Err(code) => {
            conn.errors.push(code);
            Ok(false)
        }
    }
}

/// The server's answers to the estimate reads of `mix`, in order.
fn probe(
    client: &mut Client,
    conn: &mut Conn,
    tenant: &str,
    mix: &[Read],
) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for read in mix.iter().filter(|r| r.is_estimate()) {
        conn.attempted += 1;
        let result = outcome(client.call(&read_frame(tenant, 0, read))?)?;
        out.push(result.as_f64().ok_or_else(|| format!("{tenant}: estimate answered {result:?}"))?);
    }
    Ok(out)
}

/// Range check of a read result: frequencies within [0, acked], shares
/// and conditionals within [0, 1], ranked lists present.
fn read_in_range(read: &Read, result: &Json, acked: u64) -> bool {
    let answer = match read {
        Read::Frequency(_) => result.as_f64().map(Answer::Estimate),
        Read::Share(_) | Read::Conditional(..) => result.as_f64().map(Answer::Share),
        _ => result.as_arr().map(|_| Answer::Ranked),
    };
    answer.is_some_and(|a| answer_in_range(a, acked))
}

/// One tenant's connection and its place in the run.
struct Tenant {
    index: usize,
    client: Client,
    conn: Conn,
    mix: Vec<Read>,
    /// The tenant's store directory (sized and copied at the fixed point).
    store: PathBuf,
    /// Where the copy goes.
    copy: PathBuf,
    /// Tenants whose fixed-point copy is complete.
    ready: Arc<AtomicUsize>,
}

/// One tenant's closed loop until `deadline`.
fn drive(
    t: Tenant,
    seed: u64,
    start: Instant,
    deadline: Instant,
) -> Result<(Conn, Client), String> {
    let Tenant { index, mut client, mut conn, mix, store, copy, ready } = t;
    let tenant = TENANTS[index];
    let mut rec_rng = Rng::derive(seed, STREAM_RECORDS + index as u64);
    // The warm-up already consumed this tenant's first window of records.
    let _ = records(&mut rec_rng, WINDOW as usize);
    let mut op_rng = Rng::derive(seed, STREAM_OPS + index as u64);
    let mut next_read = 0usize;
    let mut fresh = false;
    let mut id = 1_000u64;
    while Instant::now() < deadline {
        // Probe slices: wait for the next serve slice, out of the rate.
        let offset = start.elapsed().as_secs_f64();
        if in_probe_slice(offset) {
            let next =
                start + Duration::from_secs_f64(((offset / SLICE_S).floor() + 1.0) * SLICE_S);
            let wait = next.min(deadline).saturating_duration_since(Instant::now());
            conn.rate.pause(offset, wait.as_secs_f64());
            std::thread::sleep(wait);
            continue;
        }
        id += 1;
        let t = Instant::now();
        if op_rng.below(100) < INGEST_PCT {
            let batch = records(&mut rec_rng, BATCH);
            let t = Instant::now();
            let closed = ingest(&mut client, &mut conn, tenant, id, &batch)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let done = start.elapsed().as_secs_f64();
            conn.rate.add(done, BATCH as f64);
            if closed {
                conn.close_ms.push(done, ms);
                fresh = true;
            } else {
                conn.open_ms.push(done, ms);
            }
            conn.frames_done.push(done);
            if conn.acked == FIXED_RECORDS {
                // The ack means every close so far is durable and the
                // tenant's writer is idle: the store can be sized and
                // copied as it stands. The pause is kept out of the rate.
                let t = Instant::now();
                conn.fixed_point = Some((dir_bytes(&store), conn.raw_bytes));
                copy_store(&store, &copy).map_err(|e| format!("copy of {tenant}: {e}"))?;
                ready.fetch_add(1, Ordering::SeqCst);
                conn.fixed_answers = probe(&mut client, &mut conn, tenant, &mix)?;
                conn.rate.pause(done, t.elapsed().as_secs_f64());
            }
            continue;
        }
        let read = &mix[next_read % mix.len()];
        next_read += 1;
        let frame = read_frame(tenant, id, read);
        let line = client.call(&frame)?.to_string();
        let dt = t.elapsed().as_secs_f64();
        let done = start.elapsed().as_secs_f64();
        conn.frames_done.push(done);
        conn.attempted += 1;
        match outcome(&line) {
            Ok(result) => {
                if !read_in_range(read, &result, conn.acked) {
                    conn.out_of_range += 1;
                }
                if fresh {
                    conn.fresh_ms.push(done, dt * 1e3);
                    fresh = false;
                } else if read.is_estimate() {
                    conn.estimate_us.push(done, dt * 1e6);
                } else {
                    conn.advise_ms.push(done, dt * 1e3);
                }
            }
            Err(code) => conn.errors.push(code),
        }
        if conn.sent.len() < WIRE_SAMPLE {
            conn.sent.push(frame);
            conn.received.push(line);
        }
    }
    Ok((conn, client))
}

/// A read frame's answer as the server computes it off a snapshot, in
/// the server's result shapes (`logr-server`'s read path, which is not
/// public).
fn serve_read(snap: &EngineSnapshot, op: TenantOp) -> Result<Json, logr::Error> {
    let query =
        snap.query()?.ok_or(logr::Error::Config { detail: "read before the first summary" })?;
    Ok(match op {
        TenantOp::Frequency { pred } => json::n(query.frequency(&pred)?),
        TenantOp::Share { pred } => json::n(query.share(&pred)?),
        TenantOp::Conditional { given, pred } => json::n(query.conditional(&given, &pred)?),
        TenantOp::TopK { class, k } => Json::Arr(
            query
                .top_k(class, k)?
                .into_iter()
                .map(|r| {
                    json::obj(vec![
                        ("feature", protocol::feature_json(&r.feature)),
                        ("class", json::s(protocol::class_name(r.feature.class))),
                        ("estimated", json::n(r.estimated)),
                    ])
                })
                .collect(),
        ),
        TenantOp::Cooccurrence { class } => Json::Arr(
            query
                .cooccurrence(class)?
                .into_iter()
                .map(|c| {
                    json::obj(vec![
                        ("a", protocol::feature_json(&c.a)),
                        ("b", protocol::feature_json(&c.b)),
                        ("estimated", json::n(c.estimated)),
                    ])
                })
                .collect(),
        ),
        TenantOp::Advise { spec } => protocol::advice_json(&match spec {
            AdvisorSpec::Index { min_share } => IndexAdvisor::new(min_share).advise(snap)?,
            AdvisorSpec::View { min_share } => ViewAdvisor::new(min_share).advise(snap)?,
            AdvisorSpec::Recommend { partial, min_conditional } => {
                QueryRecommender::new(partial, min_conditional).advise(snap)?
            }
            AdvisorSpec::Drift { tolerance } => DriftAdvisor::new(tolerance).advise(snap)?,
        }),
        _ => return Err(logr::Error::Config { detail: "not a read" }),
    })
}

/// What the read probe measured.
#[derive(Default)]
struct Reads {
    /// Single estimate reads (µs), for the tail.
    estimate_us: Samples,
    /// Mean estimate read (µs) and mean ranked read (ms) of each pass
    /// over the mix.
    estimate_pass_us: Samples,
    advise_ms: Samples,
    fresh_ms: Samples,
    attempted: u64,
    out_of_range: u64,
    errors: Vec<String>,
}

impl Reads {
    /// One read, timed from its request frame to the decoded response:
    /// `protocol::parse_frame`, the snapshot, the read, `protocol::ok_frame`
    /// and the client's parse. Returns the seconds it took.
    fn read(&mut self, engine: &Engine, frame: &str, read: &Read) -> Option<f64> {
        self.attempted += 1;
        let t = Instant::now();
        let answered = (|| {
            let parsed = protocol::parse_frame(frame);
            let Ok(Request::Tenant { op, .. }) = parsed.request else {
                return Err("Protocol".to_string());
            };
            let snap = engine.snapshot().map_err(|e| error_code(&e))?;
            let result = serve_read(&snap, op).map_err(|e| error_code(&e))?;
            let summarized = snap.history().total_queries();
            outcome(&protocol::ok_frame(&parsed.id, result)).map(|r| (r, summarized))
        })();
        let dt = t.elapsed().as_secs_f64();
        match answered {
            Ok((result, summarized)) => {
                if !read_in_range(read, &result, summarized) {
                    self.out_of_range += 1;
                }
                Some(dt)
            }
            Err(code) => {
                self.errors.push(code);
                None
            }
        }
    }
}

/// The end-to-end read metrics and `resume_ms`, taken in the probe
/// slices of the measured phase (odd seconds, while both connections
/// wait) on a copy of tenant 0's store as it stood after
/// [`FIXED_RECORDS`]. Each round ingests one more window of the tenant's
/// service log, times the first read on the new snapshot and
/// [`READ_PASSES`] passes over the read mix, every read through the
/// server's frame codec (see [`Reads::read`]), then times one reopen of a
/// tenant's fixed-point copy (the tenants in turn). The reads of a mix
/// differ in cost, so an estimate or advise sample is the mean estimate
/// or ranked read of one pass. These operations take microseconds, and
/// on a shared 2-vCPU VM their speed moved by a quarter within seconds,
/// so they are taken in slices spread over the whole phase, not in one
/// stretch. Loopback round trips are left out: there an estimate's round
/// trip sat near 17 or near 40 µs for minutes at a time, so whole runs
/// landed in either mode; they are the per-layer `server.rtt_us.*`.
struct Probe {
    engine: Engine,
    copies: Vec<PathBuf>,
    frames: Vec<String>,
    mix: Vec<Read>,
    rng: Rng,
    reads: Reads,
    resume_ms: Samples,
    round: usize,
    start: Instant,
}

impl Probe {
    /// Open a copy of tenant 0's fixed-point copy (`copies[0]`) at `dir`.
    fn open(
        dir: &Path,
        copies: Vec<PathBuf>,
        seed: u64,
        mix: Vec<Read>,
        start: Instant,
    ) -> Result<Probe, String> {
        copy_store(&copies[0], dir).map_err(|e| format!("probe copy: {e}"))?;
        let shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
        let engine = open_engine(dir, SourceConfig::template(), shim, None)
            .map_err(|e| format!("probe: {e:?}"))?;
        Ok(Probe {
            engine,
            copies,
            frames: mix.iter().map(|r| read_frame(TENANTS[0], 0, r)).collect(),
            mix,
            rng: Rng::derive(seed, STREAM_PROBE),
            reads: Reads::default(),
            resume_ms: Samples::default(),
            round: 0,
            start,
        })
    }

    fn round(&mut self) -> Result<(), String> {
        let (engine, mix, reads) = (&self.engine, &self.mix, &mut self.reads);
        self.round += 1;
        for r in records(&mut self.rng, WINDOW as usize) {
            engine.ingest_record(&r).map_err(|e| format!("probe: {e:?}"))?;
        }
        let at = |start: Instant| start.elapsed().as_secs_f64();
        let first = self.round % mix.len();
        if let Some(dt) = reads.read(engine, &self.frames[first], &mix[first]) {
            reads.fresh_ms.push(at(self.start), dt * 1e3);
        }
        for _ in 0..READ_PASSES {
            // Seconds and count of the pass's estimate and ranked reads.
            let (mut estimate, mut ranked) = ((0.0, 0), (0.0, 0));
            for (frame, read) in self.frames.iter().zip(mix) {
                let Some(dt) = reads.read(engine, frame, read) else { continue };
                if read.is_estimate() {
                    reads.estimate_us.push(at(self.start), dt * 1e6);
                    estimate = (estimate.0 + dt, estimate.1 + 1);
                } else {
                    ranked = (ranked.0 + dt, ranked.1 + 1);
                }
            }
            if estimate.1 > 0 {
                reads.estimate_pass_us.push(at(self.start), estimate.0 * 1e6 / estimate.1 as f64);
            }
            if ranked.1 > 0 {
                reads.advise_ms.push(at(self.start), ranked.0 * 1e3 / ranked.1 as f64);
            }
        }
        // The first reopen of each copy folds its delta log into a new
        // base; the samples are reopens of a folded store.
        let copy = &self.copies[self.round % self.copies.len()];
        let t = Instant::now();
        let reopened = Engine::builder().vfs(Arc::new(RealFs)).open(copy);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(reopened.map_err(|e| format!("reopen: {e:?}"))?);
        if self.round > self.copies.len() {
            self.resume_ms.push(at(self.start), ms);
        }
        Ok(())
    }

    fn report(&self, report: &mut Report) {
        let reads = &self.reads;
        report.attempted += reads.attempted;
        for code in &reads.errors {
            report.fail_op(code);
        }
        report.check(
            reads.out_of_range == 0,
            format!(
                "{} of {} probe reads answered in range",
                reads.attempted - reads.out_of_range,
                reads.attempted
            ),
        );
        report.note(format!("read probe: {} rounds", self.round));
        report.estimates(&reads.estimate_pass_us, &reads.estimate_us);
        report.latency("advise_p50_ms", None, "ms", &reads.advise_ms);
        report.latency("fresh_read_p50_ms", None, "ms", &reads.fresh_ms);
        report.latency("resume_ms", None, "ms", &self.resume_ms);
    }
}

/// Whether `offset_s` into the measured phase falls in a probe slice: the
/// phase alternates one-second serve slices (even) and probe slices (odd).
fn in_probe_slice(offset_s: f64) -> bool {
    (offset_s / SLICE_S) as u64 % 2 == 1
}

fn stop(handle: ServerHandle) -> Result<(), String> {
    handle.shutdown();
    handle.join().map_err(|e| format!("server: {e:?}"))
}

pub fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    // Set-up: bind, spawn and answer a first frame, several times.
    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..SETUP_CYCLES {
        let root = work.join(format!("root-{i}"));
        let shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
        let t = Instant::now();
        let handle = Server::bind(server_config(&root, shim.clone()), "127.0.0.1:0")
            .map_err(|e| format!("bind: {e:?}"))?
            .spawn();
        {
            let mut c = Client::connect(handle.addr())?;
            outcome(c.call("{\"op\":\"ping\"}")?).map_err(|e| format!("ping: {e}"))?;
        }
        setup.push(secs(t));
        if let Some((old, _, old_root)) = live.replace((handle, shim, root)) {
            stop(old)?;
            remove_tree(&old_root);
        }
    }
    let (handle, shim, root) = live.expect("at least one set-up cycle");
    report.metric("setup_s", median(&setup).unwrap_or(f64::NAN), "s");
    let addr = handle.addr();

    // Warm-up (not measured): one window per tenant, so reads have a
    // summary, and the hot templates the read mix asks about.
    let mut clients = Vec::new();
    let mut mixes = Vec::new();
    for (i, tenant) in TENANTS.iter().enumerate() {
        let mut client = Client::connect(addr)?;
        let mut conn = Conn::default();
        let mut rng = Rng::derive(args.seed, STREAM_RECORDS + i as u64);
        let first = records(&mut rng, WINDOW as usize);
        for (j, batch) in first.chunks(BATCH).enumerate() {
            ingest(&mut client, &mut conn, tenant, j as u64, batch)?;
        }
        let top = format!(
            "{{\"id\":0,\"op\":\"top_k\",\"tenant\":\"{tenant}\",\"class\":\"template\",\"k\":8}}"
        );
        let result = outcome(client.call(&top)?).map_err(|e| format!("warm-up top_k: {e}"))?;
        let templates: Vec<Feature> = result
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| f.get("feature").and_then(|f| f.get("text")).and_then(Json::as_str))
            .map(Feature::template)
            .collect();
        if templates.is_empty() {
            return Err(format!("warm-up: tenant {tenant} has no template yet"));
        }
        mixes.push(template_read_mix(&templates));
        clients.push((client, conn));
    }

    // Measured phase: one closed-loop connection per tenant in the serve
    // slices, the read probe on this thread in the probe slices.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let vfs_start = shim.counts();
    let ready = Arc::new(AtomicUsize::new(0));
    let copies: Vec<PathBuf> = TENANTS.iter().map(|t| work.join(format!("fixed-{t}"))).collect();
    let workers: Vec<_> = clients
        .into_iter()
        .zip(mixes.clone())
        .enumerate()
        .map(|(index, ((client, conn), mix))| {
            let (seed, store) = (args.seed, root.join(TENANTS[index]));
            let (copy, ready) = (copies[index].clone(), ready.clone());
            let tenant = Tenant { index, client, conn, mix, store, copy, ready };
            std::thread::spawn(move || drive(tenant, seed, start, deadline))
        })
        .collect();
    let mut reads = None;
    let mut probe_error = None;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let offset = now.duration_since(start).as_secs_f64();
        trace::set_enabled(args.trace && in_traced_slice(offset));
        if in_probe_slice(offset) && ready.load(Ordering::SeqCst) == TENANTS.len() {
            if reads.is_none() {
                let dir = work.join("probe");
                match Probe::open(&dir, copies.clone(), args.seed, mixes[0].clone(), start) {
                    Ok(p) => reads = Some(p),
                    Err(e) => {
                        probe_error = Some(e);
                        break;
                    }
                }
            }
            // The probe's own work is not traced: the trace holds the
            // server's spans.
            trace::set_enabled(false);
            calib::tick();
            if let Some(Err(e)) = reads.as_mut().map(Probe::round) {
                probe_error = Some(e);
                break;
            }
            continue;
        }
        // Sleep to the next trace or probe slice boundary.
        let next = ((offset / TRACE_SLICE_S).floor() + 1.0) * TRACE_SLICE_S;
        let wake = (start + Duration::from_secs_f64(next)).min(deadline);
        std::thread::sleep(wake.saturating_duration_since(now));
    }
    trace::set_enabled(false);
    let mut conns = Vec::new();
    for w in workers {
        let (conn, client) = w.join().map_err(|_| "client thread panicked".to_string())??;
        conns.push((conn, client));
    }
    let elapsed = secs(start);
    trace::set_enabled(false);
    let vfs_measured = shim.counts().since(&vfs_start);
    let server_spans = trace::take();

    let measured: u64 =
        conns.iter().map(|(c, _)| c.acked).sum::<u64>() - TENANTS.len() as u64 * WINDOW;

    let peak_rss = peak_rss_mib();

    // Totals per tenant against the server's own stats, after a flush
    // frame closes the open window (stats, like every read, see the
    // snapshot published at the last close).
    let mut windows = Vec::new();
    let mut acked = Vec::new();
    let mut final_answers = Vec::new();
    for (i, (conn, client)) in conns.iter_mut().enumerate() {
        let flush = format!("{{\"id\":1,\"op\":\"flush\",\"tenant\":\"{}\"}}", TENANTS[i]);
        outcome(client.call(&flush)?).map_err(|e| format!("flush: {e}"))?;
        let stats = format!("{{\"id\":2,\"op\":\"stats\",\"tenant\":\"{}\"}}", TENANTS[i]);
        let result = outcome(client.call(&stats)?).map_err(|e| format!("stats: {e}"))?;
        let total = result.get("total_queries").and_then(Json::as_u64).unwrap_or(u64::MAX);
        report.check(
            total == conn.acked,
            format!("{}: acked records {} == total_queries {total}", TENANTS[i], conn.acked),
        );
        windows.push(result.get("windows_closed").and_then(Json::as_u64).unwrap_or(0) as usize);
        acked.push(conn.acked);
        final_answers.push(probe(client, conn, TENANTS[i], &mixes[i])?);
    }
    let flat = |f: fn(&Conn) -> &Samples| {
        let mut all = Samples::default();
        for (c, _) in &conns {
            all.extend(f(c));
        }
        all
    };
    let close_ms = flat(|c| &c.close_ms);
    let open_ms = flat(|c| &c.open_ms);
    let mut rate = Rate::default();
    for (c, _) in &conns {
        rate.merge(&c.rate);
    }
    report.metric("ingest_rps", rate.median(elapsed).unwrap_or(f64::NAN), "records/s");
    report.latency("close_ack_p50_ms", Some("close_ack_tail_ms"), "ms", &close_ms);
    // Read round trips beside the mixed traffic are a per-layer figure.
    let rtt_us = |f: fn(&Conn) -> &Samples, scale: f64| {
        median(flat(f).values()).map_or(f64::NAN, |v| v * scale)
    };
    let read_rtt_us = (
        rtt_us(|c| &c.estimate_us, 1.0),
        rtt_us(|c| &c.advise_ms, 1e3),
        rtt_us(|c| &c.fresh_ms, 1e3),
    );
    report.note(format!(
        "wire read round trips (us): estimate {:.1}, advise {:.1}, fresh {:.1}",
        read_rtt_us.0, read_rtt_us.1, read_rtt_us.2
    ));
    let frames: usize = conns.iter().map(|(c, _)| c.frames_done.len()).sum();
    report.note(format!(
        "measured: {frames} frames, {measured} records, {} closes in {elapsed:.3} s",
        close_ms.len()
    ));
    let (mut attempted, mut out_of_range) = (0, 0);
    for (conn, _) in &conns {
        attempted += conn.attempted;
        out_of_range += conn.out_of_range;
        for code in &conn.errors {
            report.fail_op(code);
        }
    }
    report.attempted += attempted;
    report.check(
        out_of_range == 0,
        format!("{} of {attempted} frames answered in range", attempted - out_of_range),
    );
    report.check(report.failed == 0, "every frame answered ok");
    if args.trace {
        let mut by_slice = [0u64; 2];
        for done in conns.iter().flat_map(|(c, _)| &c.frames_done) {
            by_slice[in_traced_slice(*done) as usize] += 1;
        }
        report.metric("trace.overhead_ratio", overhead_ratio(by_slice, elapsed), "ratio");
    }
    let (sent, received): (Vec<String>, Vec<String>) = conns
        .iter_mut()
        .flat_map(|(c, _)| {
            std::mem::take(&mut c.sent).into_iter().zip(std::mem::take(&mut c.received))
        })
        .unzip();
    let fixed_points: Vec<_> = conns.iter().map(|(c, _)| c.fixed_point).collect();
    let fixed_answers: Vec<Vec<f64>> =
        conns.iter_mut().map(|(c, _)| std::mem::take(&mut c.fixed_answers)).collect();
    drop(conns);
    stop(handle)?;

    // The server's summary after 64 windows repeats for the seed: its
    // answers equal an in-memory engine's over the same records. Then
    // every tenant store reopens under plain RealFs with every acked
    // record and answers exactly as the live server did.
    let fixed: Vec<(u64, u64)> = fixed_points.iter().flatten().copied().collect();
    if fixed.len() != TENANTS.len() {
        return Err(format!("a tenant acked fewer than {FIXED_RECORDS} records"));
    }
    let (bytes, raw): (Vec<u64>, Vec<u64>) = fixed.into_iter().unzip();
    report.metric(
        "store_bytes_per_input_byte",
        bytes.iter().sum::<u64>() as f64 / raw.iter().sum::<u64>() as f64,
        "ratio",
    );
    let (mut errors, mut verbosity, mut read_bytes) = (Vec::new(), Vec::new(), 0);
    for (i, tenant) in TENANTS.iter().enumerate() {
        let recs =
            records(&mut Rng::derive(args.seed, STREAM_RECORDS + i as u64), FIXED_RECORDS as usize);
        let shadow = logr::Engine::builder()
            .stream_config(stream_config(SourceConfig::template()))
            .in_memory()
            .map_err(|e| format!("shadow: {e:?}"))?;
        for r in &recs {
            shadow.ingest_record(r).map_err(|e| format!("shadow: {e:?}"))?;
        }
        let snap = shadow.snapshot().map_err(|e| format!("shadow: {e:?}"))?;
        let answers = estimate_answers(&snap, &mixes[i]).map_err(|e| format!("shadow: {e:?}"))?;
        report.check(
            answers == fixed_answers[i],
            format!(
                "{tenant}: {} estimates after {FIXED_RECORDS} records repeat in an in-memory replay",
                answers.len()
            ),
        );
        // The store as it stood at the fixed point (its reopens are
        // timed in the read probe).
        let at_fixed = |s: &logr::EngineSnapshot| {
            estimate_answers(s, &mixes[i]).is_ok_and(|a| a == fixed_answers[i])
        };
        let copy = work.join(format!("fixed-{tenant}"));
        let fixed_windows = (FIXED_RECORDS / WINDOW) as usize;
        // The summary is taken here too: the final stores' size follows
        // throughput, this one is the same for every run of a seed.
        let fixed =
            reopen_checks(&copy, fixed_windows, FIXED_RECORDS, &at_fixed, 1, false, report)?;
        errors.push(fixed.error);
        verbosity.push(fixed.verbosity);
        let live = &final_answers[i];
        let mix = &mixes[i];
        let same = |s: &logr::EngineSnapshot| estimate_answers(s, mix).is_ok_and(|a| &a == live);
        let reopened = reopen_checks(
            &root.join(tenant),
            windows[i],
            acked[i],
            &same,
            1,
            args.trace && i == 0,
            report,
        )?;
        read_bytes += reopened.read_bytes;
    }
    report.metric("summary_error", errors.iter().sum::<f64>() / errors.len() as f64, "nats");
    report.metric(
        "summary_verbosity",
        verbosity.iter().sum::<f64>() / verbosity.len() as f64,
        "features",
    );
    if let Some(e) = probe_error {
        return Err(e);
    }
    reads.as_ref().ok_or("the read probe never ran")?.report(report);
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.note(format!("acked records (warm-up included): {acked:?}"));

    if args.trace {
        // The engine layers under this workload's traffic: tenant 0's
        // first windows through a durable engine, traced, replayed.
        let replay_dir = work.join("replay");
        let replay_shim = Arc::new(CountingFs::new(Arc::new(RealFs)));
        let engine = open_engine(&replay_dir, SourceConfig::template(), replay_shim, None)
            .map_err(|e| format!("replay engine: {e:?}"))?;
        let recs =
            records(&mut Rng::derive(args.seed, STREAM_RECORDS), REPLAY_WINDOWS * WINDOW as usize);
        let mut tap = WindowTap::new(true);
        trace::set_enabled(true);
        for (i, r) in recs.iter().enumerate() {
            let baseline = tap.baseline(&engine, (i as u64 + 1).is_multiple_of(WINDOW));
            let mut span = trace::span("engine.ingest", i as u64);
            let closed = engine.ingest_record(r).map_err(|e| format!("replay: {e:?}"))?;
            span.set_value(closed.is_some() as u64);
            drop(span);
            tap.acked(r, closed.as_ref(), baseline);
        }
        let mut reader = Reader::new(Instant::now());
        let snap = engine.snapshot().map_err(|e| format!("{e:?}"))?;
        let templates = hot_features(snap.history(), FeatureClass::Template, 8);
        let mix = template_read_mix(&templates);
        for req in 0..(PROBE_PASSES * mix.len()) as u64 {
            reader.read_next(&engine, &mix, req);
        }
        trace::set_enabled(false);
        reader.finish(report);
        let replay_spans = trace::take();
        let all: Vec<_> = server_spans.iter().chain(&replay_spans).cloned().collect();
        report.metric("trace.spans", all.len() as f64, "count");
        save_trace(&Trace::new(all), args, report);
        let stages = replay_windows(SourceConfig::template(), &tap.windows, report);
        let replay_trace = Trace::new(replay_spans);
        let server_trace = Trace::new(server_spans);
        layer_metrics(
            &LayerInputs {
                trace: &replay_trace,
                storage: &server_trace,
                stages: &stages,
                closes: close_ms.len() as u64,
                vfs: vfs_measured,
                close_ack_ms: median(close_ms.values()).unwrap_or(f64::NAN),
                open_ack_ms: median(open_ms.values()).unwrap_or(f64::NAN),
                wire: replay_wire(&sent, &received),
                read_rtt_us,
                read_bytes_at_resume: read_bytes,
            },
            report,
        );
    }
    Ok(())
}
