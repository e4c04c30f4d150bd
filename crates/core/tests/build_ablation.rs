//! Ablation-style integration tests for the build options DESIGN.md calls
//! out: content-seeded `A_2`, learned vs uniform `P_{1,2}`, and retrieval
//! determinism.

use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_features::{FeatureId, FeatureVector, FEATURE_COUNT};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use hmmm_storage::Catalog;

fn feat(g: f64, v: f64, s3: f64) -> FeatureVector {
    let mut f = FeatureVector::zeros();
    f[FeatureId::GrassRatio] = g;
    f[FeatureId::VolumeMean] = v;
    f[FeatureId::Sub3Mean] = s3;
    f
}

/// Two goal-heavy videos, one card-heavy video.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for i in 0..2 {
        c.add_video(
            format!("goals-{i}"),
            vec![
                (vec![EventKind::FreeKick], feat(0.7, 0.2, 0.8)),
                (vec![EventKind::Goal], feat(0.8, 0.9, 0.1)),
                (vec![EventKind::Goal], feat(0.78, 0.88, 0.12)),
            ],
        );
    }
    c.add_video(
        "cards",
        vec![
            (vec![EventKind::Foul], feat(0.4, 0.5, 0.9)),
            (vec![EventKind::YellowCard], feat(0.2, 0.3, 0.4)),
        ],
    );
    c
}

#[test]
fn content_seeded_a2_binds_similar_videos() {
    let c = catalog();
    let content = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let literal = build_hmmm(&c, &BuildConfig::paper_literal()).unwrap();

    // Content seeding: the two goal videos are more affine to each other
    // than to the cards video.
    assert!(
        content.a2().get(0, 1) > content.a2().get(0, 2),
        "content A2 should bind goal videos: {} vs {}",
        content.a2().get(0, 1),
        content.a2().get(0, 2)
    );
    // Paper-literal: uniform — no preference before training.
    assert!((literal.a2().get(0, 1) - literal.a2().get(0, 2)).abs() < 1e-12);
}

#[test]
fn learned_p12_differs_from_uniform_and_concentrates() {
    let c = catalog();
    let learned = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let uniform = build_hmmm(
        &c,
        &BuildConfig {
            learn_p12: false,
            ..BuildConfig::default()
        },
    )
    .unwrap();

    let goal = EventKind::Goal.index();
    let u = 1.0 / FEATURE_COUNT as f64;
    // Uniform config: every weight is 1/K.
    for col in 0..FEATURE_COUNT {
        assert!((uniform.p12().get(goal, col) - u).abs() < 1e-12);
    }
    // Learned config: mass concentrates on the features goal shots share
    // (entropy strictly below uniform's).
    let learned_entropy: f64 = (0..FEATURE_COUNT)
        .map(|col| {
            let p = learned.p12().get(goal, col);
            if p > 0.0 {
                -p * p.ln()
            } else {
                0.0
            }
        })
        .sum();
    assert!(
        learned_entropy < (FEATURE_COUNT as f64).ln() - 1e-6,
        "learned P12 row should concentrate (entropy {learned_entropy})"
    );
}

#[test]
fn retrieval_is_deterministic() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("free_kick -> goal").unwrap();
    let retriever = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
    let (a, _) = retriever.retrieve(&pattern, 10).unwrap();
    let (b, _) = retriever.retrieve(&pattern, 10).unwrap();
    assert_eq!(a, b);
    // And across identically built models.
    let model2 = build_hmmm(&c, &BuildConfig::default()).unwrap();
    assert_eq!(model, model2);
}

#[test]
fn unannotated_weight_extends_reachability() {
    let mut c = Catalog::new();
    // One annotated shot followed by unannotated ones.
    c.add_video(
        "m",
        vec![
            (vec![EventKind::Goal], feat(0.8, 0.9, 0.1)),
            (vec![], feat(0.5, 0.4, 0.2)),
            (vec![], feat(0.6, 0.5, 0.3)),
        ],
    );
    let literal = build_hmmm(&c, &BuildConfig::paper_literal()).unwrap();
    // Literal: no forward annotation mass → shot 0 is absorbing.
    assert_eq!(literal.a2().rows(), 1);
    assert_eq!(literal.locals()[0].a1().get(0, 1), 0.0);
    assert_eq!(literal.locals()[0].a1().get(0, 0), 1.0);

    let smoothed = build_hmmm(
        &c,
        &BuildConfig {
            unannotated_weight: 0.5,
            ..BuildConfig::default()
        },
    )
    .unwrap();
    assert!(
        smoothed.locals()[0].a1().get(0, 1) > 0.0,
        "smoothing must make unannotated shots reachable"
    );
}
