//! Integration: the relevance-feedback loop improves retrieval (the
//! paper's "continuous improvements of the overall performance" claim).

use hmmm_core::{
    build_hmmm, BuildConfig, FeedbackConfig, FeedbackLog, PositivePattern, RetrievalConfig,
    Retriever,
};
use hmmm_core::simulate::FeedbackSimulator;
use hmmm_media::{ArchiveConfig, EventKind, RenderConfig, SyntheticArchive};
use hmmm_query::{CompiledPattern, QueryTranslator};
use hmmm_storage::Catalog;
use hmmm_suite::{ingest_archive, AnnotationSource};

fn setup(seed: u64) -> Catalog {
    let archive = SyntheticArchive::generate(ArchiveConfig {
        videos: 5,
        shots_per_video: 60,
        event_rate: 0.2,
        double_event_rate: 0.15,
        render: RenderConfig::small(),
        seed,
    });
    ingest_archive(&archive, AnnotationSource::GroundTruth)
}

fn precision_at(
    catalog: &Catalog,
    model: &hmmm_core::Hmmm,
    pattern: &CompiledPattern,
    k: usize,
) -> f64 {
    let retriever = Retriever::new(model, catalog, RetrievalConfig::default()).unwrap();
    let (results, _) = retriever.retrieve(pattern, k).unwrap();
    if results.is_empty() {
        return 0.0;
    }
    let relevant = results
        .iter()
        .filter(|r| FeedbackSimulator::is_relevant(catalog, pattern, r))
        .count();
    relevant as f64 / results.len() as f64
}

#[test]
fn feedback_rounds_do_not_degrade_precision() {
    let catalog = setup(777);
    let mut model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let pattern = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
        .compile("free_kick -> goal")
        .unwrap();

    let before = precision_at(&catalog, &model, &pattern, 5);

    // Three feedback rounds: confirm whatever the oracle approves.
    let mut log = FeedbackLog::new();
    let cfg = FeedbackConfig::default();
    for round in 0..3 {
        let retriever = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();
        let (results, _) = retriever.retrieve(&pattern, 8).unwrap();
        for r in &results {
            if FeedbackSimulator::is_relevant(&catalog, &pattern, r) {
                log.record(PositivePattern {
                    query: round,
                    video: r.video,
                    shots: r.shots.clone(),
                    events: r.events.clone(),
                    access: 1.0,
                })
                .unwrap();
            }
        }
        log.apply(&mut model, &catalog, &cfg).unwrap();
        model.validate_against(&catalog).unwrap();
    }

    let after = precision_at(&catalog, &model, &pattern, 5);
    assert!(
        after >= before - 1e-9,
        "feedback degraded precision: {before} -> {after}"
    );
}

#[test]
fn model_invariants_survive_many_noisy_rounds() {
    let catalog = setup(778);
    let mut model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let queries = ["goal", "free_kick -> goal", "corner_kick", "foul"];

    let mut log = FeedbackLog::new();
    let cfg = FeedbackConfig::default();
    let mut oracle = hmmm_core::FeedbackSimulator::new(hmmm_core::OracleConfig {
        noise: 0.3,
        seed: 42,
    });

    for (round, q) in queries.iter().cycle().take(12).enumerate() {
        let pattern = translator.compile(q).unwrap();
        let retriever = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();
        let (results, _) = retriever.retrieve(&pattern, 6).unwrap();
        for r in &results {
            if oracle.judge(&catalog, &pattern, r) {
                log.record(PositivePattern {
                    query: round as u64,
                    video: r.video,
                    shots: r.shots.clone(),
                    events: r.events.clone(),
                    access: 1.0,
                })
                .unwrap();
            }
        }
        if log.should_update(&FeedbackConfig {
            update_threshold: 5,
            ..cfg
        }) {
            log.apply(&mut model, &catalog, &cfg).unwrap();
        }
    }

    // After any amount of noisy feedback, every stochastic invariant holds.
    model.validate_against(&catalog).unwrap();
    for local in model.locals() {
        for i in 0..local.len() {
            let s: f64 = local.a1().row(i).1.iter().sum();
            assert!((s - 1.0).abs() < 1e-8, "A1 row sum {s}");
        }
        let mass: f64 = local.pi1().as_slice().iter().sum();
        assert!((mass - 1.0).abs() < 1e-8);
    }
    for i in 0..model.video_count() {
        let s: f64 = model.a2().row(i).iter().sum();
        assert!((s - 1.0).abs() < 1e-8, "A2 row sum {s}");
    }
}
