//! Cross-crate integration: the complete Figure-1 pipeline, from synthetic
//! pixels to ranked temporal patterns.

use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_core::simulate::FeedbackSimulator;
use hmmm_media::{ArchiveConfig, EventKind, RenderConfig, SyntheticArchive};
use hmmm_query::QueryTranslator;
use hmmm_suite::{ingest_archive, AnnotationSource};

fn archive(videos: usize, shots: usize, seed: u64) -> SyntheticArchive {
    SyntheticArchive::generate(ArchiveConfig {
        videos,
        shots_per_video: shots,
        event_rate: 0.15,
        double_event_rate: 0.15,
        render: RenderConfig::small(),
        seed,
    })
}

fn translator() -> QueryTranslator {
    QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
}

#[test]
fn end_to_end_retrieval_finds_true_patterns() {
    let archive = archive(4, 60, 9001);
    let catalog = ingest_archive(&archive, AnnotationSource::GroundTruth);
    let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let retriever = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();

    let pattern = translator().compile("goal").unwrap();
    let (results, stats) = retriever.retrieve(&pattern, 8).unwrap();
    assert!(!results.is_empty(), "no goals retrieved");
    assert!(stats.cache_lookups > 0, "no score was read");
    assert_eq!(stats.sim_evaluations, 0, "retrieval evaluated Eq. 14");

    // Every returned single-event candidate must be a true goal shot
    // (ground-truth annotations, so the oracle is exact).
    let relevant = results
        .iter()
        .filter(|r| FeedbackSimulator::is_relevant(&catalog, &pattern, r))
        .count();
    assert!(
        relevant * 2 >= results.len(),
        "precision {relevant}/{} below 50%",
        results.len()
    );
}

#[test]
fn two_step_pattern_respects_temporal_order() {
    let archive = archive(4, 80, 9002);
    let catalog = ingest_archive(&archive, AnnotationSource::GroundTruth);
    let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let retriever = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();

    let pattern = translator().compile("free_kick -> goal").unwrap();
    let (results, _) = retriever.retrieve(&pattern, 10).unwrap();
    for r in &results {
        let a = catalog.shot(r.shots[0]).unwrap();
        let b = catalog.shot(r.shots[1]).unwrap();
        assert_eq!(a.video, b.video, "patterns must stay within one video");
        assert!(
            a.index_in_video <= b.index_in_video,
            "temporal order violated"
        );
    }
}

#[test]
fn mined_annotations_still_support_retrieval() {
    let archive = archive(6, 60, 9003);
    let catalog = ingest_archive(
        &archive,
        AnnotationSource::Mined {
            train_fraction: 0.5,
        },
    );
    let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let retriever = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();
    let pattern = translator().compile("goal").unwrap();
    let (results, _) = retriever.retrieve(&pattern, 5).unwrap();
    assert!(
        !results.is_empty(),
        "retrieval over mined annotations found nothing"
    );
}

#[test]
fn persistence_round_trip_preserves_retrieval() {
    let archive = archive(3, 40, 9004);
    let catalog = ingest_archive(&archive, AnnotationSource::GroundTruth);

    let dir = hmmm_storage::TestDir::new("hmmm_integration");
    let path = dir.file("catalog.bin");
    hmmm_storage::save_binary(&catalog, &path).unwrap();
    let loaded = hmmm_storage::load_binary(&path).unwrap();
    assert_eq!(catalog, loaded);

    let model_a = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let model_b = build_hmmm(&loaded, &BuildConfig::default()).unwrap();
    assert_eq!(model_a, model_b);
}
