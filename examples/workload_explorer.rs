//! Workload exploration: walk the Error/Verbosity trade-off curve on a
//! diverse bank-style workload and inspect the clusters a DBA would see
//! (the paper's abstract: "users can choose to obtain a high-fidelity,
//! albeit large summary, or a more compact summary with lower fidelity").
//!
//! Through the engine facade the whole curve costs **one** clustering:
//! [`logr::EngineSnapshot::multiresolution`] cuts a single dendrogram
//! over the history's condensed distance matrix at every requested K, so
//! the summaries are nested and no pairwise distance is recomputed.
//!
//! Run with: `cargo run --release --example workload_explorer`

use logr::core::interpret::{render_component, RenderConfig};
use logr::workload::{generate_usbank, UsBankConfig};
use logr::{Engine, Error};

fn main() -> Result<(), Error> {
    let synthetic = generate_usbank(&UsBankConfig::default());
    let engine = Engine::builder().window(1 << 21).clusters(8).in_memory()?;
    for (sql, count) in &synthetic.statements {
        engine.ingest_with(sql, *count, None)?;
    }
    engine.flush()?;
    let snapshot = engine.snapshot()?;
    println!(
        "US-bank-style workload: {} queries, {} distinct templates, {} features",
        snapshot.history().total_queries(),
        snapshot.history().distinct_count(),
        snapshot.history().num_features()
    );

    // The trade-off curve: each K is one summary the user could keep —
    // all cut from one dendrogram, so the sweep is nearly free.
    let ks = [1usize, 2, 4, 8, 12, 16, 24, 32];
    let summaries = snapshot.multiresolution(&ks)?;
    println!("\n{:>4} {:>14} {:>12} {:>14}", "K", "error (nats)", "verbosity", "bytes-ish");
    let mut chosen = None;
    for (summary, k) in summaries.into_iter().zip(ks) {
        // One pattern ≈ one (feature id, f64) pair.
        let approx_bytes = summary.total_verbosity() * 12;
        println!(
            "{k:>4} {:>14.4} {:>12} {:>14}",
            summary.error(),
            summary.total_verbosity(),
            approx_bytes
        );
        if summary.mixture.k() == 8 {
            chosen = Some(summary);
        }
    }

    // Inspect the K = 8 summary's two heaviest clusters.
    if let Some(summary) = chosen {
        let mixture = &summary.mixture;
        let mut order: Vec<usize> = (0..mixture.k()).collect();
        order.sort_by(|&a, &b| {
            mixture.components()[b].weight.total_cmp(&mixture.components()[a].weight)
        });
        let config = RenderConfig { min_marginal: 0.25, ..Default::default() };
        println!("\nheaviest clusters at K = 8:\n");
        for &i in order.iter().take(2) {
            println!("{}\n", render_component(mixture, i, snapshot.history().codebook(), &config));
        }
    }
    Ok(())
}
