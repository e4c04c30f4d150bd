//! Dedicated tests for the ClassView-style inverted event index baseline
//! ([`EventIndexRetriever`]): index construction (postings counts,
//! ascending shot ids), the join against the paper's §4.2.1.1 worked
//! example, and the coarse video prefilter it shares with the two-stage
//! retrieval path (`hmmm_core::coarse`).

use hmmm_baselines::EventIndexRetriever;
use hmmm_core::{build_hmmm, BuildConfig};
use hmmm_features::{FeatureId, FeatureVector};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use hmmm_storage::{Catalog, ShotId};

fn feat(g: f64, v: f64) -> FeatureVector {
    let mut f = FeatureVector::zeros();
    f[FeatureId::GrassRatio] = g;
    f[FeatureId::VolumeMean] = v;
    f
}

fn translator() -> QueryTranslator {
    QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
}

/// The §4.2.1.1 worked example video: three shots annotated `{free_kick}`,
/// `{free_kick, goal}`, `{corner_kick}`, so `NE = [1, 2, 1]` and the
/// closed-form `A_1` is exactly `[[0, 2/3, 1/3], [0, 1/2, 1/2], [0, 0, 1]]`.
fn worked_example_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video(
        "s4211",
        vec![
            (vec![EventKind::FreeKick], feat(0.7, 0.2)),
            (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8, 0.9)),
            (vec![EventKind::CornerKick], feat(0.75, 0.3)),
        ],
    );
    c
}

#[test]
fn postings_count_equals_annotation_pairs() {
    let c = worked_example_catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let idx = EventIndexRetriever::new(&model, &c).unwrap();
    // Four (shot, event) annotation pairs: fk@0, fk@1, goal@1, ck@2.
    assert_eq!(idx.postings(), 4);
    assert_eq!(idx.event_postings(EventKind::FreeKick.index()).len(), 2);
    assert_eq!(idx.event_postings(EventKind::Goal.index()).len(), 1);
    assert_eq!(idx.event_postings(EventKind::CornerKick.index()).len(), 1);
    assert!(idx.event_postings(EventKind::Foul.index()).is_empty());
}

#[test]
fn postings_are_ascending_shot_ids() {
    // Two videos so the lists span video boundaries.
    let mut c = worked_example_catalog();
    c.add_video(
        "second",
        vec![
            (vec![EventKind::Goal], feat(0.79, 0.91)),
            (vec![EventKind::FreeKick], feat(0.72, 0.22)),
        ],
    );
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let idx = EventIndexRetriever::new(&model, &c).unwrap();
    for e in 0..EventKind::COUNT {
        let postings = idx.event_postings(e);
        assert!(
            postings.windows(2).all(|w| w[0].index() < w[1].index()),
            "event {e} postings not strictly ascending: {postings:?}"
        );
    }
    assert_eq!(
        idx.event_postings(EventKind::FreeKick.index()),
        &[ShotId(0), ShotId(1), ShotId(4)]
    );
    assert_eq!(
        idx.event_postings(EventKind::Goal.index()),
        &[ShotId(1), ShotId(3)]
    );
}

#[test]
fn join_reproduces_the_worked_example_weights() {
    let c = worked_example_catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    // Pin the §4.2.1.1 closed form the join's edge weights read.
    let a1 = model.locals()[0].a1();
    assert!((a1.get(0, 1) - 2.0 / 3.0).abs() < 1e-12);
    assert!((a1.get(0, 2) - 1.0 / 3.0).abs() < 1e-12);
    assert!((a1.get(1, 1) - 1.0 / 2.0).abs() < 1e-12);
    assert!((a1.get(1, 2) - 1.0 / 2.0).abs() < 1e-12);
    assert_eq!(a1.get(2, 2), 1.0);

    let idx = EventIndexRetriever::new(&model, &c).unwrap();
    let pattern = translator().compile("free_kick -> goal").unwrap();
    let (results, stats) = idx.retrieve(&pattern, 10).unwrap();
    // Only the (0 → 1) join exists: shot 1 also carries free_kick but has
    // no strictly-later goal.
    assert_eq!(results.len(), 1);
    let hit = &results[0];
    assert_eq!(hit.shots, vec![ShotId(0), ShotId(1)]);
    assert_eq!(stats.candidates_scored, 1);

    // Eqs. 12–13 edge weights through the worked-example A_1:
    // w_0 = Π_1(0)·sim(0, free_kick), w_1 = w_0 · A_1(0,1) · sim(1, goal).
    let (_, sim0) =
        hmmm_core::sim::best_alternative(&model, 0, &pattern.steps[0].alternatives).unwrap();
    let (_, sim1) =
        hmmm_core::sim::best_alternative(&model, 1, &pattern.steps[1].alternatives).unwrap();
    let w0 = model.locals()[0].pi1().get(0) * sim0;
    let w1 = w0 * a1.get(0, 1) * sim1;
    assert_eq!(hit.weights, vec![w0, w1]);
    assert_eq!(hit.score, w0 + w1);
}

#[test]
fn coarse_prefilter_skips_videos_missing_any_step() {
    // Video 0 has free_kick but no goal; video 1 has goal but no
    // free_kick: neither can host the full join, so the coarse postings
    // intersection empties the candidate set before any start is probed.
    let mut c = Catalog::new();
    c.add_video(
        "fk-only",
        vec![
            (vec![EventKind::FreeKick], feat(0.7, 0.2)),
            (vec![], feat(0.5, 0.5)),
        ],
    );
    c.add_video(
        "goal-only",
        vec![
            (vec![EventKind::Goal], feat(0.8, 0.9)),
            (vec![], feat(0.5, 0.5)),
        ],
    );
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let idx = EventIndexRetriever::new(&model, &c).unwrap();
    let pattern = translator().compile("free_kick -> goal").unwrap();
    let (results, stats) = idx.retrieve(&pattern, 10).unwrap();
    assert!(results.is_empty());
    assert_eq!(stats.coarse_candidates, 0);
    assert_eq!(stats.videos_visited, 0);
    assert_eq!(stats.videos_skipped, 2);
    // No start posting was probed, so no Eq.-14 work was charged.
    assert_eq!(stats.sim_evaluations, 0);
}

#[test]
fn coarse_prefilter_keeps_eligible_videos() {
    let mut c = worked_example_catalog();
    c.add_video(
        "goal-only",
        vec![
            (vec![EventKind::Goal], feat(0.8, 0.9)),
            (vec![], feat(0.5, 0.5)),
        ],
    );
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let idx = EventIndexRetriever::new(&model, &c).unwrap();
    let pattern = translator().compile("free_kick -> goal").unwrap();
    let (results, stats) = idx.retrieve(&pattern, 10).unwrap();
    // Only the worked-example video carries both steps.
    assert_eq!(stats.coarse_candidates, 1);
    assert_eq!(stats.videos_visited, 1);
    assert_eq!(stats.videos_skipped, 1);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].shots, vec![ShotId(0), ShotId(1)]);
}
