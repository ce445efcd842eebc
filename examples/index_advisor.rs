//! Index selection from a compressed log (the paper's §2 lead
//! application), through the [`logr::Engine`] + [`logr::analytics`]
//! facade.
//!
//! Index advisors repeatedly ask "how often does predicate X appear in
//! the workload?" — e.g. a hash index on `status` pays off if
//! `status = ?` occurs in most queries. Asking the raw log is slow at
//! millions of queries; the engine answers from the summary
//! ([`logr::analytics::IndexAdvisor`]). This example streams a
//! PocketData-scale workload into an engine, compares summary estimates
//! against ground truth for every single-column predicate, then prints
//! the advisor's picks.
//!
//! Run with: `cargo run --release --example index_advisor`

use logr::analytics::{Advisor, IndexAdvisor, Pred};
use logr::feature::FeatureClass;
use logr::workload::{generate_pocketdata, PocketDataConfig};
use logr::{Engine, Error};

fn main() -> Result<(), Error> {
    let synthetic = generate_pocketdata(&PocketDataConfig::default());
    // Ground truth for the comparison below — a real deployment never
    // builds this.
    let (log, _) = synthetic.ingest();
    println!(
        "workload: {} queries, {} distinct, {} features",
        log.total_queries(),
        log.distinct_count(),
        log.num_features()
    );

    let engine = Engine::builder().window(4096).clusters(8).in_memory()?;
    for (sql, count) in &synthetic.statements {
        engine.ingest_with(sql, *count, None)?;
    }
    engine.flush()?;

    let snapshot = engine.snapshot()?;
    let summary = snapshot.summary()?.expect("non-empty workload");
    println!(
        "compressed to {} clusters (error {:.3} nats, verbosity {})\n",
        summary.mixture.k(),
        summary.error(),
        summary.total_verbosity()
    );

    // Candidate indexes: every WHERE-clause equality atom, estimate vs
    // ground truth — estimates through the typed query surface.
    let query = snapshot.query()?.expect("non-empty workload");
    let total = snapshot.history().total_queries() as f64;
    let mut candidates: Vec<(String, f64, f64)> = Vec::new(); // (atom, est, true)
    for (_, feature) in snapshot.history().codebook().iter() {
        if feature.class != FeatureClass::Where || !feature.text.contains("= ?") {
            continue;
        }
        let est = query.frequency(&Pred::feature(feature.clone()))?;
        let truth = log.support(&logr::feature::QueryVector::new(vec![log
            .codebook()
            .get(feature)
            .expect("same workload")])) as f64;
        candidates.push((feature.text.clone(), est, truth));
    }
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("top predicate frequencies (summary estimate vs ground truth):");
    println!("{:<40} {:>12} {:>12} {:>8}", "predicate", "estimated", "true", "rel.err");
    let mut max_rel_err = 0.0f64;
    for (atom, est, truth) in candidates.iter().take(12) {
        let rel = if *truth > 0.0 { (est - truth).abs() / truth } else { 0.0 };
        max_rel_err = max_rel_err.max(rel);
        println!("{atom:<40} {est:>12.0} {truth:>12.0} {:>7.1}%", rel * 100.0);
    }

    println!("\nadvisor picks (predicate share ≥ 20% of workload):");
    for pick in IndexAdvisor::new(0.20).advise(&*snapshot)? {
        if !pick.subject.contains("= ?") {
            continue;
        }
        let column = pick.subject.split_whitespace().next().unwrap_or(&pick.subject);
        println!(
            "  CREATE INDEX ON (…{column}…)   -- appears in {:.0}% of queries",
            100.0 * pick.estimated / total
        );
    }
    println!("\nworst relative error among the top candidates: {:.1}%", max_rel_err * 100.0);
    Ok(())
}
