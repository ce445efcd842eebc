//! Ship the summary, drop the log: compress on the database host, analyze
//! anywhere.
//!
//! The paper's workloads are sensitive (the US bank log required
//! anonymization even for the paper); the artifact that leaves the
//! database host should be the `O(Total Verbosity)` summary, not the log.
//! This example streams a workload into an engine, recompresses the
//! snapshot at read time under a MaxError objective
//! ([`logr::EngineSnapshot::summary_with`] — the fidelity knob without
//! touching the stream configuration), serializes the summary to disk,
//! reloads it in a "different process", and answers tuning questions from
//! the file alone — then shows the size ratio.
//!
//! Run with: `cargo run --release --example portable_summary`

use logr::core::{CompressionObjective, PortableSummary};
use logr::feature::Feature;
use logr::workload::{generate_pocketdata, PocketDataConfig};
use logr::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- On the database host -----------------------------------------
    let synthetic = generate_pocketdata(&PocketDataConfig::default());
    let raw_bytes: usize =
        synthetic.statements.iter().map(|(sql, count)| sql.len() * *count as usize).sum();

    let engine = Engine::builder().window(1 << 21).in_memory()?;
    for (sql, count) in &synthetic.statements {
        engine.ingest_with(sql, *count, None)?;
    }
    engine.flush()?;
    let snapshot = engine.snapshot()?;

    let summary = snapshot
        .summary_with(CompressionObjective::MaxError { bound: 12.0, max_k: 24 })?
        .expect("non-empty workload");

    let portable = PortableSummary::from_summary(&summary, snapshot.history());
    let path = std::env::temp_dir().join("pocketdata.logr");
    portable.save(&path)?;
    let summary_bytes = std::fs::metadata(&path)?.len() as usize;

    println!(
        "raw log ≈ {:.1} MB ({} queries) → summary {:.1} KB on disk ({} marginals, {} clusters)",
        raw_bytes as f64 / 1e6,
        snapshot.history().total_queries(),
        summary_bytes as f64 / 1e3,
        portable.total_verbosity(),
        portable.components.len(),
    );
    println!(
        "compression ratio ≈ {:.0}× at {:.2} nats of Reproduction Error",
        raw_bytes as f64 / summary_bytes as f64,
        summary.error()
    );

    // --- Later, on the analyst's machine -------------------------------
    let loaded = PortableSummary::load(&path)?;
    println!("\nanswering tuning questions from {} alone:", path.display());
    for (question, features) in [
        ("queries touching messages", vec![Feature::from_table("messages")]),
        (
            "messages filtered by status AND sms_type",
            vec![
                Feature::from_table("messages"),
                Feature::where_atom("sms_type = ?"),
                Feature::where_atom("status = ?"),
            ],
        ),
        (
            "conversation lookups by id",
            vec![
                Feature::from_table("conversation_participants_view"),
                Feature::where_atom("conversation_id = ?"),
            ],
        ),
    ] {
        let est = loaded.estimate_count(&features);
        let truth = {
            // Only for the demo: the analyst would not have the log.
            let log = snapshot.history();
            let ids: Option<Vec<_>> = features.iter().map(|f| log.codebook().get(f)).collect();
            ids.map(|ids| log.support(&ids.into_iter().collect()) as f64)
        };
        match truth {
            Some(t) => println!("  {question:<44} est {est:>9.0}   (true {t:>9.0})"),
            None => println!("  {question:<44} est {est:>9.0}"),
        }
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
