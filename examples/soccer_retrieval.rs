//! The paper's showcase scenario (§5, Figures 4–5): a paper-scale soccer
//! archive and the "goal followed by a free kick" query, plus the §3
//! narrative four-step pattern.
//!
//! ```sh
//! cargo run --release --example soccer_retrieval
//! ```

use hmmm_core::simulate::FeedbackSimulator;
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_media::{ArchiveConfig, EventKind, SyntheticArchive};
use hmmm_query::{parse_pattern, Matn, QueryTranslator};
use hmmm_suite::{ingest_archive, AnnotationSource};
use std::time::Instant;

fn main() {
    // A mid-size slice of the paper's archive so the example runs in
    // seconds (exp_paper_scale in hmmm-bench runs the full 54 × 214).
    let archive = SyntheticArchive::generate(ArchiveConfig {
        videos: 16,
        shots_per_video: 100,
        ..ArchiveConfig::paper_scale()
    });
    println!(
        "archive: {} videos / {} shots / {} events",
        archive.video_count(),
        archive.total_shots(),
        archive.total_events()
    );

    let t0 = Instant::now();
    let catalog = ingest_archive(&archive, AnnotationSource::GroundTruth);
    println!("ingest (render + features): {:.1?}", t0.elapsed());

    let t1 = Instant::now();
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    println!("HMMM construction: {:.1?}", t1.elapsed());

    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let retriever =
        Retriever::new(&model, &catalog, RetrievalConfig::default()).expect("consistent");

    // --- The Figure-4/5 query: a goal shot followed by a free kick.
    run_query(&catalog, &retriever, &translator, "goal -> free_kick", 8);

    // --- The §3 narrative pattern: "a goal resulted from a free kick;
    // after that a corner kick; followed by a player change; finally
    // another goal".
    run_query(
        &catalog,
        &retriever,
        &translator,
        "free_kick -> goal -> corner_kick -> player_change -> goal",
        5,
    );

    // --- Show the MATN view of the narrative query (Figure 4 top).
    let pattern = parse_pattern("free_kick -> goal -> corner_kick -> player_change -> goal")
        .expect("valid");
    let matn = Matn::from_pattern(&pattern);
    println!("\nMATN of the narrative query:\n  {matn}");
}

fn run_query(
    catalog: &hmmm_storage::Catalog,
    retriever: &Retriever<'_>,
    translator: &QueryTranslator,
    text: &str,
    limit: usize,
) {
    let pattern = translator.compile(text).expect("valid query");
    let t = Instant::now();
    let (results, stats) = retriever.retrieve(&pattern, limit).expect("valid");
    let elapsed = t.elapsed();

    let relevant = results
        .iter()
        .filter(|r| FeedbackSimulator::is_relevant(catalog, &pattern, r))
        .count();
    println!(
        "\nquery: {text}\n  {} candidates in {elapsed:.1?} ({} score reads, {} videos visited, {} skipped), {}/{} ground-truth relevant",
        results.len(),
        stats.cache_lookups,
        stats.videos_visited,
        stats.videos_skipped,
        relevant,
        results.len(),
    );
    for (rank, r) in results.iter().enumerate() {
        let steps: Vec<String> = r
            .shots
            .iter()
            .zip(r.events.iter())
            .map(|(&id, &e)| {
                let name = EventKind::from_index(e).map(|k| k.name()).unwrap_or("?");
                let shot = catalog.shot(id).expect("valid");
                let truth: Vec<&str> = shot.events.iter().map(|k| k.name()).collect();
                format!("{id}:{name}(truth:{})", truth.join("+"))
            })
            .collect();
        println!(
            "  #{rank} v{} {:.4}  {}",
            r.video.index(),
            r.score,
            steps.join(" -> ")
        );
    }
}
