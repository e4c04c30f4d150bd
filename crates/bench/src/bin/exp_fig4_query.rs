//! E4 — the Figure-4/5 showcase query: "a goal shot followed by a free
//! kick", on the paper-scale archive. The paper displays 8 ranked patterns
//! (16 shots); this run reports the same artifact shape for our archive.

use hmmm_bench::{mean_reciprocal_rank, precision_at_k, standard_catalog, DataConfig, Table};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_media::EventKind;
use hmmm_query::{parse_pattern, Matn, QueryTranslator};
use std::time::Instant;

fn main() {
    println!("E4 / Figure 4 — temporal pattern query 'goal -> free_kick'\n");

    let (_, catalog) = standard_catalog(DataConfig::paper_scale());
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));

    // The MATN view (Figure 4 top).
    let ast = parse_pattern("goal -> free_kick").expect("valid");
    println!("MATN query model: {}\n", Matn::from_pattern(&ast));

    let pattern = translator.translate(&ast).expect("known events");
    let retriever =
        Retriever::new(&model, &catalog, RetrievalConfig::default()).expect("consistent");
    let t = Instant::now();
    let (results, stats) = retriever.retrieve(&pattern, 8).expect("valid");
    let elapsed = t.elapsed();

    let mut table = Table::new(&["rank", "video", "shots", "events (truth)", "score"]);
    for (rank, r) in results.iter().enumerate() {
        let shots: Vec<String> = r.shots.iter().map(|s| s.to_string()).collect();
        let truth: Vec<String> = r
            .shots
            .iter()
            .map(|&id| {
                let evs: Vec<&str> = catalog
                    .shot(id)
                    .expect("valid")
                    .events
                    .iter()
                    .map(|e| e.name())
                    .collect();
                evs.join("+")
            })
            .collect();
        table.row_owned(vec![
            rank.to_string(),
            format!("v{}", r.video.index()),
            shots.join("→"),
            truth.join(" → "),
            format!("{:.5}", r.score),
        ]);
    }
    println!("{table}");

    let distinct_shots: std::collections::HashSet<_> =
        results.iter().flat_map(|r| r.shots.iter().copied()).collect();
    let p = precision_at_k(&catalog, &pattern, &results, 8).unwrap_or(0.0);
    let mrr = mean_reciprocal_rank(&catalog, &pattern, &results);

    println!("paper:    8 patterns retrieved (16 shots displayed)");
    println!(
        "measured: {} patterns retrieved ({} distinct shots), precision@8 {:.2}, MRR {:.2}",
        results.len(),
        distinct_shots.len(),
        p,
        mrr
    );
    println!(
        "          retrieval in {elapsed:.2?}; {} sim evals; {}/{} videos visited ({} skipped by B2 check)",
        stats.total_sim_evaluations(),
        stats.videos_visited,
        catalog.video_count(),
        stats.videos_skipped
    );
}
