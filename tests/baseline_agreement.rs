//! Integration: on small archives, HMMM traversal agrees with ground-truth
//! search (the exhaustive scan), and the engines' relative costs are sane.

use hmmm_baselines::{EventIndexRetriever, ExhaustiveConfig, ExhaustiveRetriever, GreedyRetriever};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_media::{ArchiveConfig, EventKind, RenderConfig, SyntheticArchive};
use hmmm_query::QueryTranslator;
use hmmm_suite::{ingest_archive, AnnotationSource};

fn setup(seed: u64) -> hmmm_storage::Catalog {
    let archive = SyntheticArchive::generate(ArchiveConfig {
        videos: 4,
        shots_per_video: 40,
        event_rate: 0.2,
        double_event_rate: 0.1,
        render: RenderConfig::small(),
        seed,
    });
    ingest_archive(&archive, AnnotationSource::GroundTruth)
}

#[test]
fn hmmm_matches_exhaustive_top_result_on_small_archives() {
    let catalog = setup(31);
    let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));

    for q in ["goal", "free_kick -> goal", "foul"] {
        let pattern = translator.compile(q).unwrap();
        let hmmm = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();
        let (h, _) = hmmm.retrieve(&pattern, 5).unwrap();
        let ex =
            ExhaustiveRetriever::new(&model, &catalog, ExhaustiveConfig::default()).unwrap();
        let (e, _) = ex.retrieve(&pattern, 5).unwrap();
        if e.is_empty() {
            assert!(h.is_empty(), "{q}: HMMM found candidates exhaustive missed");
            continue;
        }
        assert!(!h.is_empty(), "{q}: HMMM found nothing");
        // The beam's best is within a factor of the global optimum (equal
        // when the beam contains the optimal path).
        assert!(
            h[0].score <= e[0].score + 1e-9,
            "{q}: HMMM {} beat exhaustive {}",
            h[0].score,
            e[0].score
        );
        assert!(
            h[0].score >= 0.5 * e[0].score,
            "{q}: HMMM best {} far below optimum {}",
            h[0].score,
            e[0].score
        );
    }
}

#[test]
fn hmmm_examines_fewer_transitions_than_exhaustive() {
    let catalog = setup(32);
    let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let pattern = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
        .compile("free_kick -> goal")
        .unwrap();

    let hmmm = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();
    let (_, hs) = hmmm.retrieve(&pattern, 5).unwrap();
    let ex = ExhaustiveRetriever::new(&model, &catalog, ExhaustiveConfig::default()).unwrap();
    let (_, es) = ex.retrieve(&pattern, 5).unwrap();

    // Both engines read their scores from the model's per-epoch Eq.-(14)
    // table, so neither evaluates Eq. 14 per query; the model's advantage
    // shows in what it reads and walks: the beam scores fewer shots and
    // examines far fewer lattice transitions than brute-force enumeration.
    assert_eq!(hs.sim_evaluations + es.sim_evaluations, 0);
    assert!(
        hs.cache_lookups < es.cache_lookups,
        "HMMM score reads {} !< exhaustive score reads {}",
        hs.cache_lookups,
        es.cache_lookups
    );
    assert!(
        hs.transitions_examined < es.transitions_examined,
        "HMMM transitions {} !< exhaustive transitions {}",
        hs.transitions_examined,
        es.transitions_examined
    );
}

#[test]
fn event_index_results_are_all_annotated() {
    let catalog = setup(33);
    let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let idx = EventIndexRetriever::new(&model, &catalog).unwrap();
    let pattern = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
        .compile("free_kick -> goal")
        .unwrap();
    let (results, _) = idx.retrieve(&pattern, 20).unwrap();
    for r in results {
        assert!(catalog
            .shot(r.shots[0])
            .unwrap()
            .events
            .contains(&EventKind::FreeKick));
        assert!(catalog
            .shot(r.shots[1])
            .unwrap()
            .events
            .contains(&EventKind::Goal));
    }
}

#[test]
fn greedy_runs_and_respects_order() {
    let catalog = setup(34);
    let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let g = GreedyRetriever::new(&model, &catalog).unwrap();
    let pattern = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
        .compile("free_kick -> goal")
        .unwrap();
    let (results, _) = g.retrieve(&pattern, 10).unwrap();
    for r in &results {
        let a = catalog.shot(r.shots[0]).unwrap().index_in_video;
        let b = catalog.shot(r.shots[1]).unwrap().index_in_video;
        assert!(a < b);
    }
}
