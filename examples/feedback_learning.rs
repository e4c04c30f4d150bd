//! Relevance feedback in action: precision@k across feedback rounds
//! (the §4.2.1.1-2 / Eqs. 1–10 learning loop with a simulated user).
//!
//! ```sh
//! cargo run --release --example feedback_learning
//! ```

use hmmm_core::simulate::FeedbackSimulator;
use hmmm_core::{
    build_hmmm, BuildConfig, FeedbackConfig, FeedbackLog, OracleConfig, PositivePattern,
    RetrievalConfig, Retriever,
};
use hmmm_media::{ArchiveConfig, EventKind, RenderConfig, SyntheticArchive};
use hmmm_query::QueryTranslator;
use hmmm_suite::{ingest_archive, AnnotationSource};

const QUERY: &str = "free_kick -> goal";
const ROUNDS: usize = 8;
const TOP_K: usize = 8;

fn main() {
    let archive = SyntheticArchive::generate(ArchiveConfig {
        videos: 10,
        shots_per_video: 80,
        event_rate: 0.15,
        double_event_rate: 0.2,
        render: RenderConfig::small(),
        seed: 4242,
    });
    let catalog = ingest_archive(&archive, AnnotationSource::GroundTruth);
    // Start from the paper-literal cold model: uniform P12, uniform A2 —
    // everything the feedback loop is supposed to learn.
    let mut model = build_hmmm(&catalog, &BuildConfig::paper_literal()).expect("non-empty");

    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile(QUERY).expect("valid");

    let mut log = FeedbackLog::new();
    let fb_cfg = FeedbackConfig::default();
    let mut oracle = FeedbackSimulator::new(OracleConfig {
        noise: 0.05, // a slightly unreliable user
        seed: 7,
    });

    println!("query: {QUERY}\nround  precision@{TOP_K}  confirmed  A1-drift  P12-drift");
    for round in 0..ROUNDS {
        let retriever =
            Retriever::new(&model, &catalog, RetrievalConfig::default()).expect("consistent");
        let (results, _) = retriever.retrieve(&pattern, TOP_K).expect("valid");

        let mut confirmed = 0usize;
        let relevant = results
            .iter()
            .filter(|r| FeedbackSimulator::is_relevant(&catalog, &pattern, r))
            .count();
        for r in &results {
            if oracle.judge(&catalog, &pattern, r) {
                confirmed += 1;
                log.record(PositivePattern {
                    query: round as u64,
                    video: r.video,
                    shots: r.shots.clone(),
                    events: r.events.clone(),
                    access: 1.0,
                })
                .expect("validated by retriever");
            }
        }
        let precision = if results.is_empty() {
            0.0
        } else {
            relevant as f64 / results.len() as f64
        };

        let report = log
            .apply(&mut model, &catalog, &fb_cfg)
            .expect("consistent feedback");
        println!(
            "{round:>5}  {precision:>12.3}  {confirmed:>9}  {:>8.4}  {:>9.4}",
            report.a1_drift, report.p12_drift
        );
    }

    println!("\nthe learned P12 row for 'goal' (top-5 features):");
    let goal = EventKind::Goal.index();
    let mut weights: Vec<(usize, f64)> = (0..hmmm_features::FEATURE_COUNT)
        .map(|f| (f, model.p12().get(goal, f)))
        .collect();
    weights.sort_by(|a, b| hmmm_core::order::cmp_f64_desc(a.1, b.1));
    for (f, w) in weights.into_iter().take(5) {
        let name = hmmm_features::FeatureId::from_index(f).expect("valid").name();
        println!("  {name:<22} {w:.4}");
    }
}
