//! Quickstart: build a small synthetic video archive, model it with a
//! two-level HMMM, and run one temporal pattern query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_media::{ArchiveConfig, EventKind, RenderConfig, SyntheticArchive};
use hmmm_query::QueryTranslator;
use hmmm_suite::{ingest_archive, AnnotationSource};

fn main() {
    // 1. Generate a small synthetic soccer archive (8 videos × 50 shots).
    let archive = SyntheticArchive::generate(ArchiveConfig {
        videos: 8,
        shots_per_video: 50,
        event_rate: 0.12,
        double_event_rate: 0.15,
        render: RenderConfig::small(),
        seed: 42,
    });
    println!(
        "archive: {} videos, {} shots, {} ground-truth events",
        archive.video_count(),
        archive.total_shots(),
        archive.total_events()
    );

    // 2. Ingest: render every shot, extract the 20 Table-1 features, and
    //    assemble the video-database catalog.
    let catalog = ingest_archive(&archive, AnnotationSource::GroundTruth);
    println!(
        "catalog: {} shots ingested, {} annotated events",
        catalog.shot_count(),
        catalog.total_events()
    );

    // 3. Build the two-level HMMM (A1/B1/Π1 per video, A2/B2/Π2 across
    //    videos, P12 + B1' cross-level).
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("catalog is non-empty");
    let s = model.summary();
    println!(
        "model: d={} levels, M={} videos, N={} shots, K={} features, C={} events",
        s.depth, s.videos, s.shots, s.features, s.events
    );

    // 4. Compile a temporal pattern query and retrieve.
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let query_text = "free_kick -> goal";
    let pattern = translator.compile(query_text).expect("valid query");
    let retriever =
        Retriever::new(&model, &catalog, RetrievalConfig::default()).expect("model matches");
    let (results, stats) = retriever.retrieve(&pattern, 5).expect("valid pattern");

    println!("\nquery: {query_text}");
    println!(
        "work: {} videos visited, {} skipped by B2 check, {} score reads",
        stats.videos_visited, stats.videos_skipped, stats.cache_lookups
    );
    println!("top {} candidates:", results.len());
    for (rank, r) in results.iter().enumerate() {
        let shots: Vec<String> = r
            .shots
            .iter()
            .map(|&id| {
                let shot = catalog.shot(id).expect("valid id");
                let events: Vec<&str> = shot.events.iter().map(|e| e.name()).collect();
                format!("{id}[{}]", events.join("+"))
            })
            .collect();
        println!(
            "  #{rank}: video {} score {:.4}  {}",
            r.video.index(),
            r.score,
            shots.join(" -> ")
        );
    }
}
