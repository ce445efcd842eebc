//! PR 5 acceptance: the unified analytics read surface.
//!
//! * `WorkloadQuery::frequency` over single-feature (and purely
//!   conjunctive) predicates is **bit-identical** to the legacy
//!   `estimate_count_features` path, property-tested over random streams.
//! * Each shipped `Advisor` reproduces its example's former hand-rolled
//!   computation on the same seeded workload (parity tests): the old
//!   index-advisor loop, the view-advisor FROM-pair scan from
//!   `examples/view_advisor.rs`, and the conditional-marginal ranking
//!   from `examples/query_recommendation.rs`.
//! * `min_share` (and every advisor probability threshold) is validated:
//!   NaN or out-of-`[0,1]` is a typed `Error::Config`.

use logr::analytics::{
    AdviceKind, Advisor, DriftAdvisor, IndexAdvisor, Pred, QueryRecommender, SummaryView,
    ViewAdvisor, WorkloadQuery,
};
use logr::cluster::{cluster_log, ClusterMethod};
use logr::core::{CompressionObjective, LogR, LogRConfig, LogRSummary, NaiveMixtureEncoding};
use logr::feature::{Feature, FeatureClass, LogIngest, QueryVector};
use logr::workload::{generate_pocketdata, generate_usbank, PocketDataConfig, UsBankConfig};
use logr::{Engine, Error};
use proptest::prelude::*;

/// The recovery-suite statement pool: repeats, novel queries, garbage,
/// and multi-branch (OR) statements.
fn statement(i: u64) -> String {
    match i % 7 {
        0 => format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 13, i % 11, i % 3, i % 7),
        1 => format!("SELECT c{} FROM t{} WHERE a{} = ? AND b{} = ?", i % 17, i % 3, i % 7, i % 5),
        2 => format!("SELECT c{}, c{} FROM t{}", i % 13, i % 17, i % 4),
        3 => format!("SELECT c{} FROM t{} WHERE a{} > ?", i % 11, i % 4, i % 7),
        4 => format!("SELECT c{} FROM t{} WHERE x{} = ? OR y{} = ?", i % 5, i % 3, i % 5, i % 3),
        5 => "THIS IS NOT SQL @@@".to_string(),
        _ => format!("SELECT balance FROM accounts WHERE owner{} = ?", i % 6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: for every feature the workload knows,
    /// the typed predicate path estimates the same count as the legacy
    /// slice path, to the bit — single features and conjunctions alike.
    #[test]
    fn frequency_is_bit_identical_to_estimate_count_features(
        seeds in prop::collection::vec(0u64..60, 12..90),
        counts in prop::collection::vec(1u64..4, 12..90),
        window in 8u64..24,
    ) {
        let engine = Engine::builder().window(window).clusters(3).in_memory().unwrap();
        for (s, c) in seeds.iter().zip(counts.iter().cycle()) {
            engine.ingest_with(&statement(*s), *c, None).unwrap();
        }
        engine.flush().unwrap();
        let snap = engine.snapshot().unwrap();
        let Some(query) = snap.query().unwrap() else {
            // Nothing parsed — both surfaces must agree on "nothing".
            prop_assert!(snap.summary().unwrap().is_none());
            return Ok(());
        };
        let summary = snap.summary().unwrap().expect("a query surface implies a summary");
        let history = snap.history();

        let features: Vec<Feature> =
            snap.history().codebook().iter().map(|(_, f)| f.clone()).collect();
        for f in &features {
            let legacy = summary.estimate_count_features(history, std::slice::from_ref(f));
            let typed = query.frequency(&Pred::feature(f.clone())).unwrap();
            prop_assert_eq!(typed.to_bits(), legacy.to_bits(), "feature {}", f);
        }
        // Conjunctions resolve to the identical sorted pattern vector.
        for pair in features.windows(2) {
            let legacy = summary.estimate_count_features(history, pair);
            let typed = query.frequency(&Pred::all_of(pair.iter().cloned())).unwrap();
            prop_assert_eq!(typed.to_bits(), legacy.to_bits());
        }
        // An unknown feature is a typed error on the new surface and a
        // silent zero on the legacy one.
        let unknown = Feature::from_table("no_such_table_anywhere");
        let legacy = summary.estimate_count_features(history, std::slice::from_ref(&unknown));
        prop_assert_eq!(legacy, 0.0);
        prop_assert!(matches!(
            query.frequency(&Pred::feature(unknown)),
            Err(Error::UnknownFeature { .. })
        ));
    }
}

/// A small but diverse engine workload shared by the non-property tests.
fn demo_engine() -> Engine {
    let engine = Engine::builder().window(64).clusters(3).in_memory().unwrap();
    for i in 0..400u64 {
        engine.ingest(&statement(i)).unwrap();
    }
    engine.flush().unwrap();
    engine
}

#[test]
fn index_advisor_reproduces_the_legacy_advise_loop() {
    let engine = demo_engine();
    let snap = engine.snapshot().unwrap();
    let summary = snap.summary().unwrap().expect("non-empty");
    let total = snap.history().total_queries() as f64;

    // The pre-redesign EngineSnapshot::advise body, verbatim.
    let mut expected: Vec<(String, f64, f64)> = Vec::new();
    for (id, feature) in snap.history().codebook().iter() {
        if feature.class != FeatureClass::Where {
            continue;
        }
        let estimated = summary.estimate_count(&QueryVector::new(vec![id]));
        let share = estimated / total;
        if share >= 0.01 {
            expected.push((feature.text.clone(), estimated, share));
        }
    }
    expected.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let advice = IndexAdvisor::new(0.01).advise(&*snap).unwrap();
    assert_eq!(advice.len(), expected.len());
    assert!(!advice.is_empty(), "workload has WHERE predicates");
    for (a, (text, est, share)) in advice.iter().zip(&expected) {
        assert_eq!(&a.subject, text);
        assert_eq!(a.estimated.to_bits(), est.to_bits());
        assert_eq!(a.share.to_bits(), share.to_bits());
        assert_eq!(a.features, vec![Feature::where_atom(text.clone())]);
    }
}

#[test]
fn view_advisor_reproduces_the_example_computation() {
    // The former examples/view_advisor.rs pipeline on a (scaled) seeded
    // US-bank workload: kmeans mixture, FROM-pair scan, est ≥ 1 floor,
    // descending sort, ≥ 1% advisor cut.
    let (log, _) = generate_usbank(&UsBankConfig::small(42)).ingest();
    let clustering = cluster_log(&log, 16, ClusterMethod::KMeansEuclidean, 0);
    let mixture = NaiveMixtureEncoding::build(&log, &clustering);
    let total = log.total_queries() as f64;

    let tables: Vec<_> = log
        .codebook()
        .iter()
        .filter(|(_, f)| f.class == FeatureClass::From)
        .map(|(id, f)| (id, f.text.clone()))
        .collect();
    let mut expected: Vec<(String, f64)> = Vec::new();
    for (i, (ida, a)) in tables.iter().enumerate() {
        for (idb, b) in &tables[i + 1..] {
            let est = mixture.estimate_count(&QueryVector::new(vec![*ida, *idb]));
            if est < 1.0 {
                continue;
            }
            expected.push((format!("{a} ⋈ {b}"), est));
        }
    }
    expected.sort_by(|x, y| y.1.total_cmp(&x.1));

    // min_share 0: parity over the full candidate list (the example's
    // ≥ 1% advisor cut is just a retain on `share`).
    let summary = LogRSummary { clustering, mixture, refined: None };
    let view = SummaryView::new(summary, &log);
    let advice = ViewAdvisor::new(0.0).advise(&view).unwrap();

    assert_eq!(advice.len(), expected.len());
    assert!(!advice.is_empty(), "workload has co-occurring tables");
    for (a, (subject, est)) in advice.iter().zip(&expected) {
        assert_eq!(&a.subject, subject);
        assert_eq!(a.estimated.to_bits(), est.to_bits());
        assert_eq!(a.share.to_bits(), (est / total).to_bits());
        assert_eq!(a.features.len(), 2);
    }
}

#[test]
fn query_recommender_reproduces_the_example_computation() {
    // The former examples/query_recommendation.rs pipeline on the seeded
    // PocketData workload: featurize the fragment, conditional-marginal
    // rank every other feature, keep > 10%.
    let (log, _) = generate_pocketdata(&PocketDataConfig::small(7)).ingest();
    let summary =
        LogR::new(LogRConfig { objective: CompressionObjective::FixedK(8), ..Default::default() })
            .compress(&log);

    let partial_sql = "SELECT sms_type FROM messages WHERE status = ?";
    let mut probe = LogIngest::new();
    probe.ingest(partial_sql);
    let (probe_log, _) = probe.finish();
    let mut partial_ids = Vec::new();
    for (_, feature) in probe_log.codebook().iter() {
        if let Some(id) = log.codebook().get(feature) {
            partial_ids.push(id);
        }
    }
    let partial: QueryVector = partial_ids.into_iter().collect();
    let base = summary.estimate_count(&partial);
    assert!(base > 0.0, "fragment must be known to the seeded workload");

    let mut expected: Vec<(String, f64)> = Vec::new();
    for (id, feature) in log.codebook().iter() {
        if partial.contains(id) {
            continue;
        }
        let mut extended_ids: Vec<_> = partial.iter().collect();
        extended_ids.push(id);
        let conditional = summary.estimate_count(&QueryVector::new(extended_ids)) / base;
        if conditional > 0.10 {
            expected.push((feature.text.clone(), conditional));
        }
    }
    expected.sort_by(|a, b| b.1.total_cmp(&a.1));

    let view = SummaryView::new(summary, &log);
    let advice = QueryRecommender::new(partial_sql, 0.10).advise(&view).unwrap();

    assert_eq!(advice.len(), expected.len());
    assert!(!advice.is_empty(), "fragment has likely continuations");
    for (a, (text, conditional)) in advice.iter().zip(&expected) {
        assert_eq!(&a.subject, text);
        assert_eq!(a.share.to_bits(), conditional.to_bits());
        assert!((a.estimated - conditional * base).abs() < 1e-9);
    }
}

#[test]
fn advisor_thresholds_are_validated_as_probabilities() {
    let engine = demo_engine();
    let snap = engine.snapshot().unwrap();
    for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(IndexAdvisor::new(bad).advise(&*snap), Err(Error::Config { .. })));
        assert!(matches!(ViewAdvisor::new(bad).advise(&*snap), Err(Error::Config { .. })));
        assert!(matches!(
            QueryRecommender::new("SELECT balance FROM accounts", bad).advise(&*snap),
            Err(Error::Config { .. })
        ));
    }
    // The boundary values are legal.
    assert!(IndexAdvisor::new(0.0).advise(&*snap).is_ok());
    assert!(IndexAdvisor::new(1.0).advise(&*snap).is_ok());
}

#[test]
fn advisors_are_empty_not_erroring_before_any_close() {
    let engine = Engine::builder().window(1024).clusters(2).in_memory().unwrap();
    engine.ingest("SELECT a FROM t WHERE b = ?").unwrap();
    // No window closed yet: no summary, so every advisor yields nothing.
    let snap = engine.snapshot().unwrap();
    assert!(snap.query().unwrap().is_none());
    assert!(IndexAdvisor::new(0.0).advise(&*snap).unwrap().is_empty());
    assert!(ViewAdvisor::new(0.0).advise(&*snap).unwrap().is_empty());
    assert!(QueryRecommender::new("SELECT a FROM t", 0.0).advise(&*snap).unwrap().is_empty());
    assert!(snap.multiresolution(&[1, 2]).unwrap().is_empty());
    assert!(snap.summary_with(CompressionObjective::FixedK(2)).unwrap().is_none());
}

#[test]
fn unknown_fragment_recommender_is_empty() {
    let engine = demo_engine();
    let snap = engine.snapshot().unwrap();
    let advice =
        QueryRecommender::new("SELECT zz9 FROM plural_z WHERE q9 = ?", 0.0).advise(&*snap).unwrap();
    assert!(advice.is_empty());
}

#[test]
fn snapshot_summary_with_and_multiresolution_agree_with_the_memoized_cut() {
    let engine = demo_engine();
    let snap = engine.snapshot().unwrap();
    // The engine runs k = 3: the read-time FixedK(3) recompression and
    // the multiresolution cut at 3 must both reproduce the memoized
    // summary bit-for-bit (one dendrogram serves all three paths).
    let memoized = snap.summary().unwrap().expect("non-empty");
    let fixed = snap.summary_with(CompressionObjective::FixedK(3)).unwrap().expect("non-empty");
    assert_eq!(fixed.clustering, memoized.clustering);
    assert_eq!(fixed.error().to_bits(), memoized.error().to_bits());

    let sweep = snap.multiresolution(&[1, 3, 8]).unwrap();
    assert_eq!(sweep.len(), 3);
    assert_eq!(sweep[1].clustering, memoized.clustering);
    assert_eq!(sweep[1].error().to_bits(), memoized.error().to_bits());
    // Finer cuts never increase verbosity ordering-wise.
    assert!(sweep[0].total_verbosity() <= sweep[2].total_verbosity());
}

#[test]
fn workload_query_composes_over_live_snapshots() {
    let engine = demo_engine();
    let snap = engine.snapshot().unwrap();
    let query = snap.query().unwrap().expect("non-empty");
    // Inclusion–exclusion sanity on a live snapshot: |A ∪ B| = |A| + |B| − |A ∩ B|.
    let a = Pred::table("t0");
    let b = Pred::table("accounts");
    let union = query.frequency(&a.clone().or(b.clone())).unwrap();
    let lhs = query.frequency(&a.clone()).unwrap() + query.frequency(&b.clone()).unwrap()
        - query.frequency(&a.clone().and(b.clone())).unwrap();
    assert!((union - lhs).abs() < 1e-9);
    // Conditional agrees with its definition.
    let c = query.conditional(&a, &b).unwrap();
    let direct = query.frequency(&a.clone().and(b.clone())).unwrap() / query.frequency(&a).unwrap();
    assert!((c - direct).abs() < 1e-12);
    // top_k covers the workload's tables, descending.
    let tables = query.top_k(FeatureClass::From, 64).unwrap();
    assert!(!tables.is_empty());
    for w in tables.windows(2) {
        assert!(w[0].estimated >= w[1].estimated);
    }
}

#[test]
fn workload_query_over_a_batch_summary_matches_the_engine_path() {
    // One workload, two roads to a WorkloadQuery: the engine snapshot and
    // a hand-built batch summary over the same history log with the same
    // compressor configuration — estimates agree bit-for-bit.
    let engine = demo_engine();
    let snap = engine.snapshot().unwrap();
    let query = snap.query().unwrap().expect("non-empty");

    let batch = snap.summary().unwrap().expect("non-empty");
    let batch_query = WorkloadQuery::new(batch, snap.history());
    for (_, f) in snap.history().codebook().iter().take(16) {
        let a = query.frequency(&Pred::feature(f.clone())).unwrap();
        let b = batch_query.frequency(&Pred::feature(f.clone())).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn negated_predicates_complement_on_live_snapshots() {
    // PR 10 satellite: Pred::not estimates complements through the
    // mixture, in parity with 1 − frequency-share on the same snapshot.
    let engine = demo_engine();
    let snap = engine.snapshot().unwrap();
    let query = snap.query().unwrap().expect("non-empty");
    let top = query.summary().estimate_count(&QueryVector::empty());
    for (_, f) in snap.history().codebook().iter().take(24) {
        let p = Pred::feature(f.clone());
        let yes = query.frequency(&p).unwrap();
        let no = query.frequency(&p.clone().not()).unwrap();
        assert!((no - (top - yes)).abs() < 1e-6, "feature {f}: {no} vs {}", top - yes);
    }
    // ¬a ∧ ¬b via De Morgan agrees with 1 − share(a ∨ b).
    let a = Pred::table("t0");
    let b = Pred::table("accounts");
    let neither = query.frequency(&a.clone().or(b.clone()).not()).unwrap();
    let direct = top - query.frequency(&a.clone().or(b.clone())).unwrap();
    assert!((neither - direct).abs() < 1e-6);
}

#[test]
fn all_four_advisors_render_dba_facing_text() {
    // PR 10 satellite: every shipped advisor's picks render through the
    // shared interpret renderer — shade glyph, subject, percentage.
    let engine = demo_engine();
    let snap = engine.snapshot().unwrap();
    let drifty = Engine::builder().window(32).clusters(2).in_memory().unwrap();
    for _ in 0..32 {
        drifty.ingest("SELECT id FROM messages WHERE status = ?").unwrap();
    }
    for _ in 0..32 {
        drifty.ingest("SELECT total FROM invoices WHERE region = ?").unwrap();
    }
    let drifty_snap = drifty.snapshot().unwrap();
    let reports: Vec<(&str, Vec<logr::analytics::Advice>)> = vec![
        ("index", IndexAdvisor::new(0.0).advise(&*snap).unwrap()),
        ("view", ViewAdvisor::new(0.0).advise(&*snap).unwrap()),
        (
            "recommend",
            QueryRecommender::new("SELECT balance FROM accounts", 0.0).advise(&*snap).unwrap(),
        ),
        ("drift", DriftAdvisor::new(0.0).advise(&*drifty_snap).unwrap()),
    ];
    for (name, advice) in &reports {
        assert!(!advice.is_empty(), "{name} advisor produced no picks to render");
        let text = logr::analytics::render_report(advice);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), advice.len(), "{name}: one line per pick");
        for (line, pick) in lines.iter().zip(advice) {
            assert!(
                line.contains(&pick.subject),
                "{name}: line {line:?} must carry its subject {:?}",
                pick.subject
            );
            assert!(line.contains('%'), "{name}: line {line:?} must annotate a percentage");
            let glyph = line.chars().next().unwrap();
            assert!(
                ['█', '▓', '▒', '░'].contains(&glyph),
                "{name}: line {line:?} must lead with a shade glyph"
            );
        }
    }
    // Empty advice renders a sentinel, never silence.
    assert_eq!(logr::analytics::render_report(&[]), "(no advice)");
}

#[test]
fn drift_advisor_mirrors_engine_drift() {
    // PR 9 satellite: drift alarms flow through the Advisor trait with
    // the exact numbers the snapshot's drift report carries — same overall
    // divergence, one alarm per new feature, one alarm per baseline
    // feature whose per-feature divergence exceeds the tolerance.
    let engine = Engine::builder().window(32).clusters(2).in_memory().unwrap();
    for _ in 0..32 {
        engine.ingest("SELECT id, body FROM messages WHERE status = ?").unwrap();
    }
    for _ in 0..32 {
        engine.ingest("SELECT total FROM invoices WHERE region = ?").unwrap();
    }
    let snap = engine.snapshot().unwrap();
    let report = snap.drift().expect("second window reports drift");
    assert!(!report.new_features.is_empty(), "workload swap must surface new features");

    let advice = DriftAdvisor::new(0.0).advise(&*snap).unwrap();

    // Leading aggregate alarm carries the report's overall divergence.
    assert_eq!(advice[0].kind, AdviceKind::Drift);
    assert_eq!(advice[0].subject, "workload drift");
    assert!((advice[0].estimated - report.overall).abs() < 1e-12);
    // Every alarm in the family is typed Drift.
    assert!(advice.iter().all(|a| a.kind == AdviceKind::Drift));
    // One alarm per new feature, rendered exactly as the report renders it.
    for text in &report.new_features {
        assert!(advice.iter().any(|a| &a.subject == text), "missing new-feature alarm: {text}");
    }
    // One alarm per baseline feature above tolerance, js carried through,
    // subject resolved against the baseline codebook (never "feature #N").
    let over: Vec<_> = report.per_feature.iter().filter(|(_, js)| *js > 0.0).collect();
    for (id, js) in &over {
        let feature = snap.baseline().codebook().feature(*id).to_string();
        let alarm = advice
            .iter()
            .find(|a| a.subject == feature)
            .unwrap_or_else(|| panic!("missing per-feature alarm: {feature}"));
        assert!((alarm.estimated - js).abs() < 1e-12);
    }
    assert_eq!(advice.len(), 1 + report.new_features.len() + over.len());

    // A stable workload (identical windows) raises no alarms.
    let calm = Engine::builder().window(32).clusters(2).in_memory().unwrap();
    for _ in 0..64 {
        calm.ingest("SELECT id, body FROM messages WHERE status = ?").unwrap();
    }
    let calm_snap = calm.snapshot().unwrap();
    assert!(DriftAdvisor::new(1e-6).advise(&*calm_snap).unwrap().is_empty());

    // Thresholds are validated like every other advisor's.
    assert!(matches!(DriftAdvisor::new(f64::NAN).advise(&*snap), Err(Error::Config { .. })));
    assert!(matches!(DriftAdvisor::new(-0.5).advise(&*snap), Err(Error::Config { .. })));
}
