//! The daemon: TCP accept loop, connection workers, per-tenant write
//! queues, and the group-commit committer.
//!
//! # Thread topology
//!
//! * **1 accept thread** — hands accepted sockets to the connection pool.
//! * **`threads` connection workers** (sized by [`ServerConfig::threads`],
//!   defaulting to the `LOGR_THREADS` environment variable) — parse
//!   frames, serve reads directly off lock-free [`logr::EngineSnapshot`]s,
//!   and enqueue writes.
//! * **`threads` writer workers** — drain per-tenant write queues
//!   (tenants are hashed onto workers, so one tenant's writes stay
//!   ordered) and run ingest/flush/checkpoint/compact against the
//!   tenant's engine.
//! * **1 committer thread** — every [`ServerConfig::commit_interval`] it
//!   flushes each tenant's deferred delta fsyncs once and only then
//!   releases the acks parked behind them (group commit).
//!
//! Reads never block the writers: they clone the engine's published
//! snapshot `Arc` and compute on it outside any engine lock.

use crate::json::{n, obj, s, Json};
use crate::protocol::{
    advice_json, class_name, drift_json, err_frame, feature_json, ok_frame, parse_frame, protocol,
    AdvisorSpec, Frame, Request, ServerError, TenantOp, MAX_FRAME_BYTES,
};
use crate::tenant::{EngineProfile, Tenant, TenantRegistry};
use logr::analytics::{
    Advisor, DriftAdvisor, IndexAdvisor, QueryRecommender, ViewAdvisor, WorkloadQuery,
};
use logr::cluster::vfs::{RealFs, Vfs};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a server thread sleeps between checks of the stop flag when
/// it would otherwise block indefinitely (socket reads, queue waits).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Upper bound a connection worker waits for a write ack before failing
/// the request (the committer releases acks every commit interval, so
/// hitting this means a writer died or the disk hung past retries).
const ACK_TIMEOUT: Duration = Duration::from_secs(60);

/// Server configuration. Construct with [`ServerConfig::new`], then
/// override fields builder-style.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory under which each tenant gets a subdirectory store.
    pub root: PathBuf,
    /// Storage layer tenant engines write through (wrapped per-tenant in
    /// a [`crate::commit::GroupCommitVfs`]). Defaults to [`RealFs`].
    pub vfs: Arc<dyn Vfs>,
    /// Engine parameters for every tenant store.
    pub profile: EngineProfile,
    /// Global resident-byte budget apportioned across tenants' spill
    /// stores. Defaults to `usize::MAX` (everything stays resident).
    pub global_budget: usize,
    /// Connection-worker and writer-worker pool size. Defaults to the
    /// `LOGR_THREADS` environment variable, else 2; clamped to ≥ 1.
    pub threads: usize,
    /// Group-commit interval: how long delta fsyncs may coalesce before
    /// the covering flush releases their acks.
    pub commit_interval: Duration,
}

impl ServerConfig {
    /// Defaults over `root` (see the field docs).
    pub fn new(root: impl Into<PathBuf>) -> ServerConfig {
        let threads = std::env::var("LOGR_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(2)
            .max(1);
        ServerConfig {
            root: root.into(),
            vfs: Arc::new(RealFs),
            profile: EngineProfile::default(),
            global_budget: usize::MAX,
            threads,
            commit_interval: Duration::from_millis(5),
        }
    }

    /// Overrides the storage layer (e.g. a `FaultFs` in tests).
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> ServerConfig {
        self.vfs = vfs;
        self
    }

    /// Overrides the per-tenant engine profile.
    pub fn profile(mut self, profile: EngineProfile) -> ServerConfig {
        self.profile = profile;
        self
    }

    /// Overrides the global resident-byte budget.
    pub fn global_budget(mut self, bytes: usize) -> ServerConfig {
        self.global_budget = bytes;
        self
    }

    /// Overrides the worker pool size (clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> ServerConfig {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the group-commit interval.
    pub fn commit_interval(mut self, interval: Duration) -> ServerConfig {
        self.commit_interval = interval;
        self
    }
}

/// One write operation queued for a tenant's writer worker.
enum WriteKind {
    Ingest(Vec<String>),
    Flush,
    Checkpoint,
    Compact,
}

struct WriteJob {
    tenant: Arc<Tenant>,
    kind: WriteKind,
    ack: mpsc::Sender<Result<Json, ServerError>>,
}

/// A condvar-fronted FIFO drained by one worker.
struct JobQueue<T> {
    jobs: Mutex<VecDeque<T>>,
    wake: Condvar,
}

impl<T> JobQueue<T> {
    fn new() -> JobQueue<T> {
        JobQueue { jobs: Mutex::new(VecDeque::new()), wake: Condvar::new() }
    }

    fn push(&self, job: T) {
        if let Ok(mut jobs) = self.jobs.lock() {
            jobs.push_back(job);
            self.wake.notify_one();
        }
    }

    /// Pops one job, waiting up to [`POLL_INTERVAL`]; `None` on timeout
    /// (so the worker can check the stop flag) or a poisoned lock.
    fn pop(&self) -> Option<T> {
        let mut guard = self.jobs.lock().ok()?;
        if let Some(job) = guard.pop_front() {
            return Some(job);
        }
        let (mut guard, _) = self.wake.wait_timeout(guard, POLL_INTERVAL).ok()?;
        guard.pop_front()
    }
}

struct ParkedAck {
    tenant: Arc<Tenant>,
    result: Json,
    ack: mpsc::Sender<Result<Json, ServerError>>,
}

struct Shared {
    registry: TenantRegistry,
    writers: Vec<JobQueue<WriteJob>>,
    connections: JobQueue<TcpStream>,
    parked: Mutex<Vec<ParkedAck>>,
    stop: AtomicBool,
    /// Set by [`Server::run`] once every connection worker has joined —
    /// only then may writers exit on an empty queue (no late enqueues).
    conns_done: AtomicBool,
    /// Set once every writer worker has joined — only then may the
    /// committer run its final tick and exit (no late parked acks).
    writers_done: AtomicBool,
    addr: SocketAddr,
    commit_interval: Duration,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop: it blocks in accept(), so connect to it.
        let _ = TcpStream::connect(self.addr);
    }

    fn writer_for(&self, tenant: &str) -> &JobQueue<WriteJob> {
        // FNV-1a keeps one tenant's writes on one worker (ordered) while
        // spreading tenants across the pool.
        let mut hash: u64 = 0xcbf29ce484222325;
        for b in tenant.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        let idx = (hash % self.writers.len() as u64) as usize;
        &self.writers[idx]
    }

    fn park(&self, parked: ParkedAck) {
        match self.parked.lock() {
            Ok(mut list) => list.push(parked),
            // Poisoned parking lot: fail the ack rather than hang the
            // client until the ack timeout.
            Err(_) => {
                let _ = parked.ack.send(Err(ServerError::Engine(logr::Error::Poisoned)));
            }
        }
    }

    /// One committer tick: flush every tenant with parked acks exactly
    /// once, then release (or fail) those acks.
    fn commit_tick(&self) {
        let parked: Vec<ParkedAck> = match self.parked.lock() {
            Ok(mut list) => std::mem::take(&mut *list),
            Err(_) => return,
        };
        if parked.is_empty() {
            return;
        }
        // One flush per distinct tenant this tick — this is the fsync
        // coalescing: every ack parked behind the same tenant shares one
        // covering fsync.
        let mut flushed: Vec<(String, Option<(std::io::ErrorKind, String)>)> = Vec::new();
        for entry in &parked {
            if flushed.iter().any(|(name, _)| name == &entry.tenant.name) {
                continue;
            }
            let outcome = match entry.tenant.commit.flush() {
                Ok(()) => None,
                Err(e) => {
                    entry.tenant.set_needs_rebase(true);
                    Some((e.kind(), e.to_string()))
                }
            };
            flushed.push((entry.tenant.name.clone(), outcome));
        }
        for entry in parked {
            let outcome = flushed
                .iter()
                .find(|(name, _)| name == &entry.tenant.name)
                .and_then(|(_, err)| err.clone());
            let response = match outcome {
                None => Ok(entry.result),
                Some((kind, msg)) => {
                    Err(ServerError::Engine(logr::Error::from(std::io::Error::new(kind, msg))))
                }
            };
            let _ = entry.ack.send(response);
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks; spawn it on a
/// thread (or via [`Server::spawn`]) and drive it over TCP.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(config: ServerConfig, addr: impl ToSocketAddrs) -> Result<Server, ServerError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServerError::Engine(logr::Error::from(e)))?;
        let addr = listener.local_addr().map_err(|e| ServerError::Engine(logr::Error::from(e)))?;
        Ok(Server { listener, config, addr })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the daemon until a `shutdown` frame arrives, then drains
    /// queues, flushes every tenant, and returns.
    pub fn run(self) -> Result<(), ServerError> {
        let threads = self.config.threads;
        let shared = Arc::new(Shared {
            registry: TenantRegistry::new(
                self.config.root.clone(),
                self.config.vfs.clone(),
                self.config.profile.clone(),
                self.config.global_budget,
            ),
            writers: (0..threads).map(|_| JobQueue::new()).collect(),
            connections: JobQueue::new(),
            parked: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            conns_done: AtomicBool::new(false),
            writers_done: AtomicBool::new(false),
            addr: self.addr,
            commit_interval: self.config.commit_interval,
        });

        let mut conn_workers = Vec::new();
        for _ in 0..threads {
            let shared = shared.clone();
            conn_workers.push(std::thread::spawn(move || connection_worker(&shared)));
        }
        let mut writer_workers = Vec::new();
        for w in 0..threads {
            let shared = shared.clone();
            writer_workers.push(std::thread::spawn(move || writer_worker(&shared, w)));
        }
        let committer = {
            let shared = shared.clone();
            std::thread::spawn(move || committer_loop(&shared))
        };

        // Accept loop: runs on this thread until request_stop() both sets
        // the flag and self-connects to unblock accept().
        for stream in self.listener.incoming() {
            if shared.stopping() {
                break;
            }
            if let Ok(stream) = stream {
                shared.connections.push(stream);
            }
        }

        // Orderly drain: connections finish (their in-flight acks are
        // released by the still-running committer), then writers drain
        // their queues, then the committer's final tick covers any last
        // parked acks.
        for handle in conn_workers {
            let _ = handle.join();
        }
        shared.conns_done.store(true, Ordering::Release);
        for handle in writer_workers {
            let _ = handle.join();
        }
        shared.writers_done.store(true, Ordering::Release);
        let _ = committer.join();
        for tenant in shared.registry.list()? {
            tenant.commit.flush().map_err(|e| ServerError::Engine(logr::Error::from(e)))?;
        }
        Ok(())
    }

    /// Runs the daemon on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, thread }
    }
}

/// Handle to a daemon running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<Result<(), ServerError>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon to stop (equivalent to a `shutdown` frame).
    pub fn shutdown(&self) {
        let mut line = String::from("{\"op\":\"shutdown\"}\n");
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = stream.write_all(line.as_bytes());
            line.clear();
            let _ = stream.read_to_string(&mut line);
        }
    }

    /// Waits for the daemon to finish its drain and return.
    pub fn join(self) -> Result<(), ServerError> {
        self.thread.join().unwrap_or(Err(ServerError::Engine(logr::Error::Poisoned)))
    }
}

fn connection_worker(shared: &Shared) {
    loop {
        match shared.connections.pop() {
            Some(stream) => serve_connection(shared, stream),
            None if shared.stopping() => return,
            None => {}
        }
    }
}

/// Reads newline-delimited frames off one socket until EOF, shutdown, or
/// an unrecoverable frame, answering each in order.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete line already buffered.
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]);
            let frame = parse_frame(line.trim_end_matches('\r'));
            let shutdown = matches!(frame.request, Ok(Request::Shutdown));
            let reply = answer(shared, frame);
            if stream.write_all(reply.as_bytes()).is_err() {
                return;
            }
            if shutdown {
                shared.request_stop();
                return;
            }
        }
        if pending.len() > MAX_FRAME_BYTES {
            let err =
                protocol(format!("unterminated frame exceeds the {MAX_FRAME_BYTES}-byte cap"));
            let _ = stream.write_all(err_frame(&Json::Null, &err).as_bytes());
            return;
        }
        if shared.stopping() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(read) => pending.extend_from_slice(&chunk[..read]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers one frame; every failure becomes a typed error frame, never a
/// dead connection or daemon.
fn answer(shared: &Shared, frame: Frame) -> String {
    let id = frame.id;
    let request = match frame.request {
        Ok(request) => request,
        Err(e) => return err_frame(&id, &e),
    };
    match handle(shared, request) {
        Ok(result) => ok_frame(&id, result),
        Err(e) => err_frame(&id, &e),
    }
}

fn handle(shared: &Shared, request: Request) -> Result<Json, ServerError> {
    match request {
        Request::Ping => Ok(s("pong")),
        Request::Shutdown => Ok(obj(vec![("stopping", Json::Bool(true))])),
        Request::GlobalStats => global_stats(shared),
        Request::Tenant { name, source, op } => {
            // Close must not lazily open a store just to close it.
            if matches!(op, TenantOp::Close) {
                shared.registry.close(&name)?;
                return Ok(obj(vec![("closed", Json::Bool(true))]));
            }
            let tenant = shared.registry.get_or_open(&name, source)?;
            match op {
                TenantOp::Ingest { statements } => {
                    dispatch_write(shared, tenant, WriteKind::Ingest(statements))
                }
                TenantOp::Flush => dispatch_write(shared, tenant, WriteKind::Flush),
                TenantOp::Checkpoint => dispatch_write(shared, tenant, WriteKind::Checkpoint),
                TenantOp::Compact => dispatch_write(shared, tenant, WriteKind::Compact),
                TenantOp::Close => Ok(Json::Null),
                TenantOp::Stats => {
                    let share = shared.registry.share_at(shared.registry.len()?);
                    tenant_stats(&tenant, share)
                }
                read_op => read(&tenant, read_op),
            }
        }
    }
}

/// Enqueues a write on the tenant's writer worker and waits for its ack
/// — which the committer releases only after the covering fsync.
fn dispatch_write(
    shared: &Shared,
    tenant: Arc<Tenant>,
    kind: WriteKind,
) -> Result<Json, ServerError> {
    let (tx, rx) = mpsc::channel();
    shared.writer_for(&tenant.name).push(WriteJob { tenant, kind, ack: tx });
    match rx.recv_timeout(ACK_TIMEOUT) {
        Ok(result) => result,
        Err(_) => Err(protocol("write ack timed out")),
    }
}

/// Serves a read off the tenant's published snapshot — no engine lock is
/// held while computing, so reads never block ingestion.
fn read(tenant: &Tenant, op: TenantOp) -> Result<Json, ServerError> {
    let snapshot = tenant.engine.snapshot()?;
    let query = WorkloadQuery::over(&*snapshot)?;
    // Analytics over an engine that has summarized nothing yet answer
    // `null` rather than failing — an empty tenant is not an error.
    let Some(query) = query else {
        return match op {
            TenantOp::Drift { .. } => Ok(Json::Null),
            TenantOp::Advise { .. } => Ok(Json::Arr(Vec::new())),
            _ => Ok(Json::Null),
        };
    };
    match op {
        TenantOp::Frequency { pred } => Ok(n(query.frequency(&pred)?)),
        TenantOp::Share { pred } => Ok(n(query.share(&pred)?)),
        TenantOp::Conditional { given, pred } => Ok(n(query.conditional(&given, &pred)?)),
        TenantOp::Cooccurrence { class } => Ok(Json::Arr(
            query
                .cooccurrence(class)?
                .into_iter()
                .map(|c| {
                    obj(vec![
                        ("a", feature_json(&c.a)),
                        ("b", feature_json(&c.b)),
                        ("estimated", n(c.estimated)),
                    ])
                })
                .collect(),
        )),
        TenantOp::TopK { class, k } => Ok(Json::Arr(
            query
                .top_k(class, k)?
                .into_iter()
                .map(|r| {
                    obj(vec![
                        ("feature", feature_json(&r.feature)),
                        ("class", s(class_name(r.feature.class))),
                        ("estimated", n(r.estimated)),
                    ])
                })
                .collect(),
        )),
        TenantOp::Advise { spec } => {
            let advice = match spec {
                AdvisorSpec::Index { min_share } => {
                    IndexAdvisor::new(min_share).advise(&*snapshot)?
                }
                AdvisorSpec::View { min_share } => {
                    ViewAdvisor::new(min_share).advise(&*snapshot)?
                }
                AdvisorSpec::Recommend { partial, min_conditional } => {
                    QueryRecommender::new(partial, min_conditional).advise(&*snapshot)?
                }
                AdvisorSpec::Drift { tolerance } => {
                    DriftAdvisor::new(tolerance).advise(&*snapshot)?
                }
            };
            Ok(advice_json(&advice))
        }
        TenantOp::Drift { tolerance } => match snapshot.drift() {
            None => Ok(Json::Null),
            Some(report) => Ok(drift_json(report, tolerance, Some(snapshot.baseline().codebook()))),
        },
        // Write ops and stats are routed before `read` is called.
        _ => Err(protocol("internal: non-read op in read path")),
    }
}

fn writer_worker(shared: &Shared, index: usize) {
    let queue = &shared.writers[index];
    loop {
        match queue.pop() {
            Some(job) => execute_write(shared, job),
            None if shared.conns_done.load(Ordering::Acquire) => return,
            None => {}
        }
    }
}

fn execute_write(shared: &Shared, job: WriteJob) {
    let WriteJob { tenant, kind, ack } = job;
    // fsync-failure hygiene: after a failed flush the delta log's durable
    // prefix is unknown, so rebase onto a fresh base manifest (full
    // synchronous checkpoint) before acknowledging anything else.
    if tenant.needs_rebase() {
        if let Err(e) = tenant.engine.checkpoint() {
            let _ = ack.send(Err(ServerError::Engine(e)));
            return;
        }
        tenant.set_needs_rebase(false);
    }
    match run_write(&tenant, kind) {
        Err(e) => {
            let _ = ack.send(Err(e));
        }
        Ok(result) => {
            if tenant.commit.pending_len() > 0 {
                // A window close appended to the delta log; the ack waits
                // for the committer's covering fsync.
                shared.park(ParkedAck { tenant, result, ack });
            } else {
                let _ = ack.send(Ok(result));
            }
        }
    }
}

fn run_write(tenant: &Tenant, kind: WriteKind) -> Result<Json, ServerError> {
    match kind {
        WriteKind::Ingest(records) => {
            let count = records.len();
            let mut closed = 0u64;
            // Source-agnostic: the tenant's configured featurizer decides
            // whether a record is SQL or a log line.
            for record in &records {
                if tenant.engine.ingest(record)?.is_some() {
                    closed += 1;
                }
            }
            Ok(obj(vec![
                ("ingested", n(count as f64)),
                ("closed", n(closed as f64)),
                ("windows_closed", n(tenant.engine.snapshot()?.windows_closed() as f64)),
            ]))
        }
        WriteKind::Flush => {
            let closed = tenant.engine.flush()?.is_some();
            Ok(obj(vec![("closed", Json::Bool(closed))]))
        }
        WriteKind::Checkpoint => {
            tenant.engine.checkpoint()?;
            Ok(obj(vec![("durable", Json::Bool(true))]))
        }
        WriteKind::Compact => {
            let merged = tenant.engine.compact()?;
            Ok(obj(vec![("merged", n(merged as f64))]))
        }
    }
}

fn committer_loop(shared: &Shared) {
    while !shared.writers_done.load(Ordering::Acquire) {
        std::thread::sleep(shared.commit_interval);
        shared.commit_tick();
    }
    // Final tick after the writers joined: nothing can park behind it.
    shared.commit_tick();
}

fn global_stats(shared: &Shared) -> Result<Json, ServerError> {
    let tenants = shared.registry.list()?;
    let share = shared.registry.share_at(tenants.len());
    let mut per_tenant = Vec::new();
    for tenant in &tenants {
        per_tenant.push((tenant.name.clone(), tenant_stats(tenant, share)?));
    }
    Ok(obj(vec![
        ("tenants", Json::Num(tenants.len() as f64)),
        ("global_budget", budget_json(shared.registry.global_budget())),
        ("per_tenant_budget", budget_json(share)),
        ("per_tenant", Json::Obj(per_tenant)),
    ]))
}

fn budget_json(bytes: usize) -> Json {
    // usize::MAX means "unbounded"; render as null instead of a lossy f64.
    if bytes == usize::MAX {
        Json::Null
    } else {
        n(bytes as f64)
    }
}

fn tenant_stats(tenant: &Tenant, budget: usize) -> Result<Json, ServerError> {
    Ok(obj(vec![
        ("windows_closed", n(tenant.engine.snapshot()?.windows_closed() as f64)),
        ("total_queries", n(tenant.engine.total_queries()? as f64)),
        ("spilled_shards", n(tenant.engine.spilled_shards()? as f64)),
        ("resident_shard_bytes", n(tenant.engine.resident_shard_bytes()? as f64)),
        ("budget", budget_json(budget)),
        ("needs_rebase", Json::Bool(tenant.needs_rebase())),
    ]))
}
