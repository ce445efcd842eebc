//! LogR's benchmark: one command, three seeded workloads, the end-to-end
//! metrics a user sees and, in a separate traced run, the per-layer
//! metrics that explain them.
//!
//! ```text
//! perfbench --workload <sql-ingest|template-serve|history-read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Every correctness and durability check runs on every run; a failed
//! check makes the command exit with code 1.

mod calib;
mod common;
mod gen;
mod history_read;
mod reader;
mod sql_ingest;
mod stats;
mod template_serve;
mod trace;
mod vfs;

use common::Report;
use logr::cluster::vfs::{RealFs, Vfs};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where runs keep their stores, under the current directory.
const WORK_ROOT: &str = ".perfbench-work";

const WORKLOADS: [&str; 3] = ["sql-ingest", "template-serve", "history-read"];

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 13] = [
    ("ingest_rps", "records/s"),
    ("close_ack_p50_ms", "ms"),
    ("close_ack_tail_ms", "ms"),
    ("estimate_p50_us", "us"),
    ("estimate_tail_us", "us"),
    ("advise_p50_ms", "ms"),
    ("fresh_read_p50_ms", "ms"),
    ("resume_ms", "ms"),
    ("summary_error", "nats"),
    ("summary_verbosity", "features"),
    ("store_bytes_per_input_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports, with their units.
const PER_LAYER: [(&str, &str); 39] = [
    ("source.featurize_us_per_window", "us"),
    ("source.records_per_distinct", "ratio"),
    ("cluster.window_distances_us", "us"),
    ("core.window_compress_us", "us"),
    ("core.drift_us", "us"),
    ("engine.close_ms", "ms"),
    ("engine.close_residual_ms", "ms"),
    ("engine.ingest_open_ns", "ns"),
    ("engine.snapshot_ns", "ns"),
    ("engine.summary_ms", "ms"),
    ("vfs.fsyncs_per_close", "count"),
    ("vfs.sync_dirs_per_close", "count"),
    ("vfs.bytes_written_per_close", "B"),
    ("vfs.fsync_us", "us"),
    ("vfs.write_us_per_close", "us"),
    ("vfs.reads_per_summary", "count"),
    ("vfs.read_bytes_per_summary", "B"),
    ("vfs.read_bytes_at_resume", "B"),
    ("analytics.frequency_ns", "ns"),
    ("analytics.share_ns", "ns"),
    ("analytics.conditional_ns", "ns"),
    ("analytics.or_ns", "ns"),
    ("analytics.not_ns", "ns"),
    ("analytics.top_k_us", "us"),
    ("analytics.cooccurrence_us", "us"),
    ("analytics.index_us", "us"),
    ("analytics.view_us", "us"),
    ("analytics.recommend_us", "us"),
    ("analytics.drift_us", "us"),
    ("server.parse_frame_us", "us"),
    ("server.json_parse_us", "us"),
    ("server.rtt_us.estimate", "us"),
    ("server.rtt_us.advise", "us"),
    ("server.rtt_us.fresh", "us"),
    ("commit.fsyncs_per_close_ack", "count"),
    ("commit.fsync_us", "us"),
    ("commit.park_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Whether an end-to-end metric of `workload` times CPU-bound work and
/// is therefore reported at the reference machine speed (see
/// [`calib`]). On template-serve the ingest figures and set-up wait on
/// loopback, fsync and the 2 ms commit timer, which the machine's speed
/// does not set; its read probe is CPU-bound. History-read's writer runs
/// at a fixed rate, so its `ingest_rps` is not a speed.
fn cpu_timed(workload: &str, name: &str) -> bool {
    match workload {
        "sql-ingest" => true,
        "history-read" => name != "ingest_rps",
        _ => matches!(
            name,
            "estimate_p50_us"
                | "estimate_tail_us"
                | "advise_p50_ms"
                | "fresh_read_p50_ms"
                | "resume_ms"
        ),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

/// A fresh working directory inside the current directory, for this
/// run's stores and trace file.
fn work_dir(args: &Args) -> std::io::Result<PathBuf> {
    let dir = Path::new(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    common::remove_tree(&dir);
    RealFs.create_dir_all(&dir)?;
    Ok(dir)
}

/// The source revision, when run from a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" git_rev={} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        env!("PERFBENCH_RUSTC"),
        git_rev(),
        env!("PERFBENCH_PROFILE"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The engine fans a close and a history summary out over
    // `LOGR_THREADS` workers (default: every core). Each workload already
    // keeps every core busy with its own threads or connections, so extra
    // workers only add runnable threads, and the figures then follow the
    // scheduler: on a 2-vCPU VM a one-writer close took 21 ms with two
    // workers and 18 ms with one, and its spread over seeds doubled. No
    // other thread is running yet.
    std::env::set_var("LOGR_THREADS", "1");
    println!("{}", provenance(&args));
    let work = match work_dir(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "sql-ingest" => sql_ingest::run(&args, &work, &mut report),
        "template-serve" => template_serve::run(&args, &work, &mut report),
        _ => history_read::run(&args, &work, &mut report),
    };
    if let Err(e) = outcome {
        report.failures.push(e);
    }
    common::remove_tree(&work);
    // Other runs may share the parent; it goes only once it is empty.
    if RealFs.list(Path::new(WORK_ROOT)).is_ok_and(|f| f.is_empty()) {
        common::remove_tree(Path::new(WORK_ROOT));
    }

    let (pass_ms, passes) = calib::median_pass();
    let factor = calib::REFERENCE_MS / pass_ms;
    println!(
        "calibration: median pass {pass_ms:.4} ms over {passes} passes, reference {} ms, factor {factor:.4}",
        calib::REFERENCE_MS
    );
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "ops: attempted={} failed={} failed_frac={} errors={:?}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.errors
    );
    // The result line carries exactly the metrics of this mode. CPU-bound
    // end-to-end timings are reported at the reference machine speed;
    // per-layer figures stay as measured.
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let scaled = !args.trace && cpu_timed(&args.workload, name);
        match report.metrics.get(name) {
            Some((raw, got)) if got == unit && raw.is_finite() => {
                let value = if scaled { calib::scale(*raw, unit, factor) } else { *raw };
                if !value.is_finite() {
                    report.failures.push(format!("{name}: no calibration pass to scale it by"));
                    continue;
                }
                println!("metric {name} = {value} {unit} (as measured: {raw})");
                metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
            }
            Some((value, got)) => report
                .failures
                .push(format!("{name} measured as {value} {got}, declared in {unit}")),
            None => report.failures.push(format!("{name} was not measured")),
        }
    }
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
