//! E3 — the paper's archive scale (§5 / Figure 5): 54 videos, ~11.5k
//! shots, ~500 annotated events. Builds the full model at that scale and
//! reports counts, timings, and memory proxies.

use hmmm_bench::{standard_catalog, DataConfig, Table};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use std::time::Instant;

fn main() {
    println!("E3 / §5 system scale — paper: 54 videos, 11,567 shots, 506 events\n");

    let t0 = Instant::now();
    let (archive, catalog) = standard_catalog(DataConfig::paper_scale());
    let ingest = t0.elapsed();

    let t1 = Instant::now();
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let build = t1.elapsed();

    // Memory proxy: dominant allocations.
    // A_1 is CSR: a u32 column and an f64 value per stored entry, plus a
    // u32 row offset per row.
    let a1_bytes: usize = model
        .locals()
        .iter()
        .map(|l| l.a1().nnz() * 12 + (l.len() + 1) * 4)
        .sum();
    let b1_bytes = model.shot_count() * hmmm_features::FEATURE_COUNT * 8;
    let a2_bytes = model.video_count() * model.video_count() * 8;

    let mut t = Table::new(&["quantity", "paper", "this run"]);
    t.row_owned(vec![
        "videos".into(),
        "54".into(),
        archive.video_count().to_string(),
    ]);
    t.row_owned(vec![
        "video shots".into(),
        "11,567".into(),
        catalog.shot_count().to_string(),
    ]);
    t.row_owned(vec![
        "annotated events".into(),
        "506".into(),
        catalog.total_events().to_string(),
    ]);
    t.row_owned(vec![
        "ingest (render+features)".into(),
        "n/a".into(),
        format!("{ingest:.2?}"),
    ]);
    t.row_owned(vec![
        "HMMM construction".into(),
        "n/a".into(),
        format!("{build:.2?}"),
    ]);
    t.row_owned(vec![
        "A1 storage".into(),
        "n/a".into(),
        format!("{:.1} MiB ({} local blocks)", a1_bytes as f64 / (1 << 20) as f64, model.video_count()),
    ]);
    t.row_owned(vec![
        "B1 storage".into(),
        "n/a".into(),
        format!("{:.1} MiB", b1_bytes as f64 / (1 << 20) as f64),
    ]);
    t.row_owned(vec![
        "A2 storage".into(),
        "n/a".into(),
        format!("{:.1} KiB", a2_bytes as f64 / 1024.0),
    ]);
    println!("{t}");

    // A retrieval pass at full scale, for the record: the default query
    // (exact, with the top-k prune).
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("goal -> free_kick").expect("valid");
    let retriever =
        Retriever::new(&model, &catalog, RetrievalConfig::default()).expect("consistent");
    let t2 = Instant::now();
    let (results, stats) = retriever.retrieve(&pattern, 8).expect("valid");
    let q = t2.elapsed();
    println!(
        "query 'goal -> free_kick' at paper scale: {} candidates in {q:.2?}",
        results.len()
    );
    println!(
        "work: {} videos visited, {} skipped by B2, {} score reads, {} transitions",
        stats.videos_visited, stats.videos_skipped, stats.cache_lookups, stats.transitions_examined
    );
    println!(
        "prune: {} bound-skipped videos, {} entries pruned",
        stats.videos_skipped_by_bound, stats.entries_pruned
    );
}
