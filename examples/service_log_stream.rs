//! Free-form service logs through the pluggable-source seam: the
//! Drain-style [`logr::source::TemplateMiner`] turns raw log lines into
//! template + parameter-class features, and the whole analytics surface
//! (typed predicates, negations, drift advice with rendered report text)
//! runs over the mined features — not a byte of SQL anywhere on the path.
//!
//! The stream has two phases: steady service traffic (logins, scans, API
//! requests), then an incident burst of upstream timeouts. The drift
//! advisor must flag the burst, and its advice renders as the same
//! DBA-facing report text every advisor now emits.
//!
//! Run with: `cargo run --release --example service_log_stream`

use logr::analytics::{render_report, Advisor, DriftAdvisor, Pred};
use logr::feature::FeatureClass;
use logr::{Engine, Error, SourceConfig};

/// Deterministic synthetic service log: `n` steady-state lines drawn
/// round-robin from four rotating shapes.
fn steady_line(i: u64) -> String {
    match i % 4 {
        0 => format!("user u{} logged in from 10.0.{}.{}", i % 97, i % 16, i % 251),
        1 => format!("GET /api/v2/orders/{} took {} ms", 1000 + i % 500, 3 + i % 40),
        2 => format!("cache shard {} hit ratio 0.{}", i % 8, 80 + i % 19),
        _ => format!("scan of /var/data/seg-{}.db finished in {} ms", i % 12, 10 + i % 90),
    }
}

fn incident_line(i: u64) -> String {
    format!("upstream timeout contacting 192.168.4.{} after {} ms", i % 9, 5000 + i % 300)
}

fn main() -> Result<(), Error> {
    let engine = Engine::builder()
        .source(SourceConfig::template())
        .window(128)
        .baseline_windows(3)
        .clusters(3)
        .drift_tolerance(1e-3)
        .in_memory()?;

    // Phase 1: steady traffic builds the rolling baseline.
    for i in 0..6 * 128 {
        engine.ingest(&steady_line(i))?;
    }

    // Phase 2: the incident — timeouts flood in among normal lines.
    for i in 0..128 {
        if i % 2 == 0 {
            engine.ingest(&incident_line(i))?;
        } else {
            engine.ingest(&steady_line(6 * 128 + i))?;
        }
    }
    engine.flush()?;

    let snapshot = engine.snapshot()?;
    let query = snapshot.query()?.expect("non-empty workload");

    println!("mined templates by estimated frequency:");
    for ranked in query.top_k(FeatureClass::Template, 8)? {
        println!("  {:>7.1}  {}", ranked.estimated, ranked.feature.text);
    }
    println!("\nparameter-class mix:");
    for ranked in query.top_k(FeatureClass::Param, 8)? {
        println!("  {:>7.1}  <{}>", ranked.estimated, ranked.feature.text);
    }

    // Typed predicates compose over mined features exactly as over SQL
    // ones — including negation, estimated as a mixture complement.
    let timeout_template = "upstream timeout contacting <*> after <*> ms";
    let with_ip = query.share(&Pred::param("ip"))?;
    let timeouts = query.share(&Pred::template(timeout_template))?;
    let clean = query.share(&Pred::template(timeout_template).not())?;
    println!(
        "\nshare carrying an IP: {:.1}%   timeout lines: {:.1}%   ¬timeout: {:.1}%",
        100.0 * with_ip,
        100.0 * timeouts,
        100.0 * clean
    );
    assert!(
        (timeouts + clean - 1.0).abs() < 1e-6,
        "negation must complement: {timeouts} + {clean}"
    );

    // The drift advisor flags the incident window, and its advice renders
    // as the same DBA-facing report text every advisor emits.
    let advice = DriftAdvisor::new(1e-3).advise(&*snapshot)?;
    assert!(!advice.is_empty(), "the timeout burst must register as drift");
    println!("\ndrift report:\n{}", render_report(&advice));
    assert!(
        advice.iter().any(|a| a.subject.contains("timeout") || a.subject.contains("drift")),
        "advice must name the shifted workload"
    );

    println!(
        "\n{} records summarized into {} windows — zero SQL on the path",
        snapshot.total_queries(),
        snapshot.windows_closed()
    );
    Ok(())
}
