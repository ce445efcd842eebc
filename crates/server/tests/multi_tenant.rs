//! PR 9 acceptance: the multi-tenant daemon end to end over loopback.
//!
//! Every test binds a real [`Server`] on an ephemeral port over a
//! [`FaultFs`] and speaks the line-delimited JSON protocol through real
//! sockets:
//!
//! * one tenant's injected `ENOSPC` surfaces as a typed per-tenant wire
//!   error while the other tenant (and the daemon itself) keeps
//!   committing — and the broken tenant recovers after a close/reopen;
//! * group commit demonstrably coalesces delta fsyncs: strictly fewer
//!   `engine.delta` fsyncs than durability-bearing acks;
//! * a store grown through the daemon is bit-identical to one grown by
//!   a standalone [`Engine`] fed the same stream (modulo the
//!   process-global spill-file sequence numbers, which are normalized);
//! * the global resident budget is re-apportioned live as tenants come
//!   and go, evicting resident shards when a newcomer halves the share.

use logr::cluster::vfs::{FaultFs, IoOp, OpKind, Vfs};
use logr::Engine;
use logr_server::json::{self, Json};
use logr_server::{EngineProfile, Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const WINDOW: u64 = 8;

fn statement(tag: &str, i: u64) -> String {
    format!("SELECT c{} FROM {tag}_t{} WHERE a{} = ?", i % 13, i % 3, i % 7)
}

fn profile() -> EngineProfile {
    EngineProfile { window: WINDOW, clusters: 2, seed: 7, source: logr::SourceConfig::Sql }
}

fn serve(fs: Arc<FaultFs>, budget: usize, interval: Duration) -> ServerHandle {
    let config = ServerConfig::new("/srv")
        .vfs(fs)
        .profile(profile())
        .global_budget(budget)
        .threads(4)
        .commit_interval(interval);
    Server::bind(config, "127.0.0.1:0").expect("bind").spawn()
}

/// One protocol connection: send a frame line, read the response line.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn call(&mut self, frame: &str) -> Json {
        writeln!(self.stream, "{frame}").expect("send frame");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "response must be a full line: {line:?}");
        json::parse(line.trim_end()).expect("response is valid JSON")
    }

    /// `call` that must succeed; returns the `result` payload.
    fn ok(&mut self, frame: &str) -> Json {
        let resp = self.call(frame);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "not ok: {}",
            resp.to_text()
        );
        resp.get("result").cloned().expect("ok frame carries a result")
    }

    /// `call` that must fail; returns the wire error code.
    fn err(&mut self, frame: &str) -> String {
        let resp = self.call(frame);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "not an error: {}",
            resp.to_text()
        );
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("error frame carries a code")
            .to_owned()
    }

    /// Ingest one window-sized batch for `tenant` drawn from its stream
    /// at offset `round`.
    fn ingest_window(&mut self, tenant: &str, round: u64) -> Json {
        let stmts: Vec<String> =
            (0..WINDOW).map(|i| format!("\"{}\"", statement(tenant, round * WINDOW + i))).collect();
        self.ok(&format!(
            "{{\"id\":{round},\"op\":\"ingest\",\"tenant\":\"{tenant}\",\"statements\":[{}]}}",
            stmts.join(",")
        ))
    }
}

fn field_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key}: {}", doc.to_text()))
}

#[test]
fn protocol_smoke_and_typed_error_frames() {
    let fs = Arc::new(FaultFs::new());
    let handle = serve(fs, usize::MAX, Duration::from_millis(2));
    let mut c = Client::connect(handle.addr());

    // Liveness and id echo.
    let resp = c.call("{\"id\":42,\"op\":\"ping\"}");
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(42));
    assert_eq!(resp.get("result").and_then(Json::as_str), Some("pong"));

    // Malformed frames are typed protocol errors, never disconnects.
    assert_eq!(c.err("{not json"), "Protocol");
    assert_eq!(c.err("{\"op\":\"frobnicate\",\"tenant\":\"a\"}"), "Protocol");
    assert_eq!(c.err("{\"op\":\"ingest\"}"), "Protocol");
    assert_eq!(
        c.err("{\"op\":\"ingest\",\"tenant\":\"../escape\",\"sql\":\"SELECT 1\"}"),
        "Protocol"
    );
    assert_eq!(
        c.err("{\"op\":\"top_k\",\"tenant\":\"a\",\"class\":\"select\",\"k\":0}"),
        "Protocol"
    );

    // The read surface works over the wire after two closed windows.
    c.ingest_window("alpha", 0);
    c.ingest_window("alpha", 1);
    let freq =
        c.ok("{\"op\":\"frequency\",\"tenant\":\"alpha\",\"pred\":{\"table\":\"alpha_t0\"}}");
    assert!(freq.as_f64().expect("frequency is a number") > 0.0);
    let top = c.ok("{\"op\":\"top_k\",\"tenant\":\"alpha\",\"class\":\"from\",\"k\":3}");
    assert!(!top.as_arr().expect("top_k is an array").is_empty());
    let advice =
        c.ok("{\"op\":\"advise\",\"tenant\":\"alpha\",\"advisor\":\"index\",\"min_share\":0.01}");
    assert!(advice.as_arr().is_some());

    // Global stats see the tenant, counting the records still buffered
    // in its open window, not only those up to the last close.
    let partial: Vec<String> =
        (0..5).map(|i| format!("\"{}\"", statement("alpha", 2 * WINDOW + i))).collect();
    c.ok(&format!(
        "{{\"op\":\"ingest\",\"tenant\":\"alpha\",\"statements\":[{}]}}",
        partial.join(",")
    ));
    let stats = c.ok("{\"op\":\"stats\"}");
    assert_eq!(field_u64(&stats, "tenants"), 1);
    let alpha = stats.get("per_tenant").and_then(|t| t.get("alpha")).expect("alpha stats");
    assert_eq!(field_u64(alpha, "windows_closed"), 2);
    assert_eq!(field_u64(alpha, "total_queries"), 2 * WINDOW + 5);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn one_tenants_enospc_never_touches_the_other() {
    let fs = Arc::new(FaultFs::new());
    // Budget 0: every window close spills shard files — maximum IO
    // surface on the injected-fault path.
    let handle = serve(fs.clone(), 0, Duration::from_millis(2));

    // Open both tenants and land one durable window each.
    let mut a = Client::connect(handle.addr());
    let mut b = Client::connect(handle.addr());
    a.ingest_window("alpha", 0);
    b.ingest_window("beta", 0);

    // Alpha's next spill hits a full disk; beta's disk is fine.
    fs.inject(OpKind::Write, "alpha/shard-", std::io::ErrorKind::StorageFull, 1);

    // Drive both tenants from parallel threads: beta must keep
    // committing while alpha fails typed.
    let addr = handle.addr();
    let beta_thread = std::thread::spawn(move || {
        let mut b = Client::connect(addr);
        for round in 1..6 {
            b.ingest_window("beta", round);
        }
    });
    let code = a.err(&format!(
        "{{\"op\":\"ingest\",\"tenant\":\"alpha\",\"statements\":[{}]}}",
        (0..WINDOW)
            .map(|i| format!("\"{}\"", statement("alpha", WINDOW + i)))
            .collect::<Vec<_>>()
            .join(",")
    ));
    assert_eq!(code, "StorageExhausted", "ENOSPC must surface typed on the wire");
    beta_thread.join().expect("beta thread");

    // The daemon is alive, beta committed all its windows, and beta's
    // stats are untouched by alpha's failure.
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.call("{\"op\":\"ping\"}").get("result").and_then(Json::as_str), Some("pong"));
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"beta\"}");
    assert_eq!(field_u64(&stats, "windows_closed"), 6);
    assert_eq!(field_u64(&stats, "total_queries"), 6 * WINDOW);

    // Alpha recovers through close + reopen (the injection is spent):
    // the wedged in-memory summarizer is discarded and the store reopens
    // at its last durable state.
    let closed = c.ok("{\"op\":\"close\",\"tenant\":\"alpha\"}");
    assert_eq!(closed.get("closed").and_then(Json::as_bool), Some(true));
    c.ingest_window("alpha", 1);
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert!(field_u64(&stats, "windows_closed") >= 2);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn group_commit_coalesces_delta_fsyncs_across_acks() {
    let fs = Arc::new(FaultFs::new());
    // A long commit interval relative to ingest latency: many closes
    // park behind each committer tick, so their delta fsyncs coalesce.
    let handle = serve(fs.clone(), usize::MAX, Duration::from_millis(50));
    let addr = handle.addr();

    const CONNS: u64 = 4;
    const ROUNDS: u64 = 4;
    let workers: Vec<_> = (0..CONNS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..ROUNDS {
                    let result = c.ingest_window("gamma", w * ROUNDS + round);
                    // Window-sized batches: every ack covers a close.
                    assert_eq!(field_u64(&result, "closed"), 1);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("loadgen thread");
    }

    let acks = CONNS * ROUNDS;
    let delta_fsyncs = fs
        .trace()
        .iter()
        .filter(|op| matches!(op, IoOp::Fsync { path } if path.ends_with("engine.delta")))
        .count() as u64;
    assert!(delta_fsyncs > 0, "durable closes need at least one delta fsync");
    assert!(
        delta_fsyncs < acks,
        "group commit must coalesce: {delta_fsyncs} delta fsyncs for {acks} durability-bearing acks"
    );
    eprintln!(
        "group commit: {delta_fsyncs} delta fsyncs covered {acks} window-close acks \
         ({:.2} fsyncs/ack)",
        delta_fsyncs as f64 / acks as f64
    );

    // Durability held: the tenant saw every window.
    let mut c = Client::connect(addr);
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"gamma\"}");
    assert_eq!(field_u64(&stats, "windows_closed"), acks);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

/// Store files under `dir`, with the process-global spill-file sequence
/// numbers normalized away: every `shard-SSSSS-PID-XXXXXXXX.bin` name is
/// rewritten (in manifest order) to use a dense counter, both in the
/// manifest bytes (whose trailing 8-byte checksum is zeroed — it covers
/// the original names) and in the file keys. `engine.lock` is gone after
/// close; `engine.delta` is excluded (its header pins the original
/// base-manifest checksum).
fn normalized_store(fs: &FaultFs, dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let manifest_path = dir.join("engine.manifest");
    let mut manifest = fs.read(&manifest_path).expect("store has a manifest");

    // Collect distinct shard names by first occurrence in the manifest.
    let pid = std::process::id().to_string();
    let prefix = b"shard-";
    let name_len = "shard-00000-".len() + pid.len() + 1 + 8 + ".bin".len();
    let mut renames: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut i = 0;
    while i + name_len <= manifest.len() {
        if &manifest[i..i + prefix.len()] == prefix {
            let original = manifest[i..i + name_len].to_vec();
            if !renames.iter().any(|(from, _)| *from == original) {
                let mut normalized = original.clone();
                let seq_at = name_len - ".bin".len() - 8;
                normalized[seq_at..seq_at + 8]
                    .copy_from_slice(format!("{:08x}", renames.len()).as_bytes());
                renames.push((original, normalized));
            }
            i += name_len;
        } else {
            i += 1;
        }
    }
    for (from, to) in &renames {
        let mut j = 0;
        while j + from.len() <= manifest.len() {
            if &manifest[j..j + from.len()] == from.as_slice() {
                manifest[j..j + from.len()].copy_from_slice(to);
                j += from.len();
            } else {
                j += 1;
            }
        }
    }
    let end = manifest.len();
    manifest[end - 8..].fill(0);

    let mut out = BTreeMap::new();
    out.insert(PathBuf::from("engine.manifest"), manifest);
    for (path, bytes) in fs.files() {
        let Ok(rel) = path.strip_prefix(dir) else { continue };
        let name = rel.to_string_lossy().into_owned();
        if name == "engine.manifest" || name == "engine.delta" || name == "engine.lock" {
            continue;
        }
        let renamed = renames
            .iter()
            .find(|(from, _)| from.as_slice() == name.as_bytes())
            .map(|(_, to)| String::from_utf8(to.clone()).expect("ascii name"));
        out.insert(PathBuf::from(renamed.unwrap_or(name)), bytes);
    }
    out
}

#[test]
fn served_stores_are_bit_identical_to_standalone_engines() {
    // Two tenants grown concurrently through the daemon...
    let fs = Arc::new(FaultFs::new());
    let handle = serve(fs.clone(), 0, Duration::from_millis(2));
    let addr = handle.addr();
    let threads: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|tenant| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..4 {
                    c.ingest_window(tenant, round);
                }
                c.ok(&format!("{{\"op\":\"checkpoint\",\"tenant\":\"{tenant}\"}}"));
                c.ok(&format!("{{\"op\":\"close\",\"tenant\":\"{tenant}\"}}"));
            })
        })
        .collect();
    for t in threads {
        t.join().expect("tenant thread");
    }
    handle.shutdown();
    handle.join().expect("clean shutdown");

    // ...must be bit-identical to standalone engines fed the same
    // streams (same profile, same per-tenant budget share: 0).
    for tenant in ["alpha", "beta"] {
        let solo_fs = Arc::new(FaultFs::new());
        let dir = PathBuf::from("/srv").join(tenant);
        let engine = Engine::builder()
            .window(WINDOW)
            .clusters(2)
            .seed(7)
            .resident_budget(0)
            .vfs(solo_fs.clone() as Arc<dyn Vfs>)
            .open(&dir)
            .expect("standalone open");
        for i in 0..4 * WINDOW {
            engine.ingest(&statement(tenant, i)).expect("standalone ingest");
        }
        engine.checkpoint().expect("standalone checkpoint");
        drop(engine);

        let served = normalized_store(&fs, &dir);
        let solo = normalized_store(&solo_fs, &dir);
        assert!(served.len() > 1, "{tenant}: store must hold spilled shards");
        assert_eq!(
            served.keys().collect::<Vec<_>>(),
            solo.keys().collect::<Vec<_>>(),
            "{tenant}: file sets differ"
        );
        for (name, bytes) in &served {
            assert_eq!(Some(bytes), solo.get(name), "{tenant}: {} differs", name.display());
        }
    }
}

#[test]
fn template_tenants_mine_free_form_logs_over_the_wire() {
    let fs = Arc::new(FaultFs::new());
    let handle = serve(fs, usize::MAX, Duration::from_millis(2));
    let mut c = Client::connect(handle.addr());

    // Two windows of free-form service-log lines — not a byte of SQL —
    // through the source-neutral `records` field. The first frame's
    // "source":"template" selects the miner at store creation.
    for round in 0..2u64 {
        let lines: Vec<String> = (0..WINDOW)
            .map(|i| {
                let n = round * WINDOW + i;
                if n.is_multiple_of(2) {
                    format!("\"user u{n} logged in from 10.0.0.{n}\"")
                } else {
                    format!("\"disk scan finished in {n} ms\"")
                }
            })
            .collect();
        let result = c.ok(&format!(
            "{{\"op\":\"ingest\",\"tenant\":\"svc\",\"source\":\"template\",\"records\":[{}]}}",
            lines.join(",")
        ));
        assert_eq!(field_u64(&result, "closed"), 1);
    }

    // The analytics surface speaks template/param classes and preds.
    let top = c.ok("{\"op\":\"top_k\",\"tenant\":\"svc\",\"class\":\"template\",\"k\":4}");
    let top = top.as_arr().expect("top_k is an array");
    assert!(!top.is_empty(), "mined templates must rank");
    let texts: Vec<&str> = top
        .iter()
        .filter_map(|r| r.get("feature").and_then(|f| f.get("text")).and_then(Json::as_str))
        .collect();
    assert!(texts.iter().any(|t| t.contains("logged in")), "login template missing from {texts:?}");

    let ip_share = c
        .ok("{\"op\":\"share\",\"tenant\":\"svc\",\"pred\":{\"param\":\"ip\"}}")
        .as_f64()
        .expect("share is a number");
    assert!((ip_share - 0.5).abs() < 0.05, "half the lines carry an IP, got {ip_share}");

    // Negated predicates evaluate as mixture complements on the wire.
    let not_ip = c
        .ok("{\"op\":\"share\",\"tenant\":\"svc\",\"pred\":{\"not\":{\"param\":\"ip\"}}}")
        .as_f64()
        .expect("share is a number");
    assert!((not_ip - (1.0 - ip_share)).abs() < 1e-6, "¬ip must complement: {not_ip}");

    // An explicit source that disagrees with the one in force is a typed
    // protocol error, not a silent ignore.
    assert_eq!(c.err("{\"op\":\"flush\",\"tenant\":\"svc\",\"source\":\"sql\"}"), "Protocol");

    // Reopening the tenant replays the miner journal from the manifest:
    // a frame with no source gets the stored template source back.
    c.ok("{\"op\":\"close\",\"tenant\":\"svc\"}");
    let top2 = c.ok("{\"op\":\"top_k\",\"tenant\":\"svc\",\"class\":\"template\",\"k\":4}");
    let texts2: Vec<String> = top2
        .as_arr()
        .expect("top_k is an array")
        .iter()
        .filter_map(|r| r.get("feature").and_then(|f| f.get("text")).and_then(Json::as_str))
        .map(str::to_owned)
        .collect();
    assert_eq!(
        texts.iter().map(|t| t.to_owned()).collect::<Vec<_>>(),
        texts2,
        "reopened store must rank the same templates"
    );

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn global_budget_is_reapportioned_as_tenants_come_and_go() {
    // Measure the resident footprint of the workload unconstrained.
    let probe =
        Engine::builder().window(WINDOW).clusters(2).seed(7).in_memory().expect("probe engine");
    for i in 0..4 * WINDOW {
        probe.ingest(&statement("alpha", i)).expect("probe ingest");
    }
    let footprint = probe.resident_shard_bytes().expect("probe footprint");
    assert!(footprint > 0, "workload must produce resident shards");

    // Serve with exactly that global budget: a lone tenant fits.
    let fs = Arc::new(FaultFs::new());
    let handle = serve(fs, footprint, Duration::from_millis(2));
    let mut c = Client::connect(handle.addr());
    for round in 0..4 {
        c.ingest_window("alpha", round);
    }
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(field_u64(&stats, "budget"), footprint as u64);
    assert_eq!(field_u64(&stats, "spilled_shards"), 0, "lone tenant fits the global budget");
    assert_eq!(field_u64(&stats, "resident_shard_bytes"), footprint as u64);

    // A second tenant halves the share — the first tenant's engine is
    // re-budgeted live and evicts down to its new share.
    c.ok("{\"op\":\"stats\",\"tenant\":\"beta\"}");
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(field_u64(&stats, "budget"), (footprint / 2) as u64);
    assert!(field_u64(&stats, "spilled_shards") > 0, "halved share must evict");
    assert!(field_u64(&stats, "resident_shard_bytes") <= (footprint / 2) as u64);

    // The departing tenant hands its share back.
    c.ok("{\"op\":\"close\",\"tenant\":\"beta\"}");
    let stats = c.ok("{\"op\":\"stats\",\"tenant\":\"alpha\"}");
    assert_eq!(field_u64(&stats, "budget"), footprint as u64);

    let global = c.ok("{\"op\":\"stats\"}");
    assert_eq!(field_u64(&global, "tenants"), 1);
    assert_eq!(field_u64(&global, "global_budget"), footprint as u64);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}
