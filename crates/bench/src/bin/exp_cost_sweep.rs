//! E5 — the computational-cost claim (Figures 2–3): HMMM's guided
//! traversal vs exhaustive scan vs event-index join vs greedy matching,
//! across database sizes and pattern lengths; plus the beam-width ablation.
//!
//! Eq.-14 work is reported in two parts. The model scores every shot
//! against every event with feature support once per epoch (the "table
//! cells" table); HMMM and the exhaustive scan then only read that table per
//! query ("score reads"), while the greedy and event-index baselines
//! evaluate Eq. 14 per shot ("sim evals").

use hmmm_baselines::{EventIndexRetriever, ExhaustiveConfig, ExhaustiveRetriever, GreedyRetriever};
use hmmm_bench::{standard_catalog, DataConfig, Table};
use hmmm_core::{build_hmmm, sim, BuildConfig, CategoryLevel, Hmmm, RetrievalConfig, Retriever};
use hmmm_media::EventKind;
use hmmm_query::{CompiledPattern, QueryTranslator};
use std::time::Instant;

const QUERIES: [&str; 4] = [
    "goal",
    "goal -> free_kick",
    "free_kick -> goal -> corner_kick",
    "foul -> free_kick -> goal -> player_change",
];

fn main() {
    println!("E5 / Figures 2–3 — retrieval cost: HMMM vs baselines\n");
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let base = RetrievalConfig::default();

    // --- Sweep 1: database size (shots), fixed 2-event query.
    println!("## cost vs database size (query: 'goal -> free_kick')\n");
    let mut t = Table::new(&[
        "shots",
        "engine",
        "latency",
        "score reads",
        "sim evals",
        "transitions",
        "candidates",
    ]);
    let mut epoch = Table::new(&["shots", "supported events", "table cells"]);
    for &videos in &[5usize, 10, 25, 50, 100] {
        let (_, catalog) = standard_catalog(DataConfig {
            videos,
            shots_per_video: 200,
            event_rate: 0.06,
            seed: 0xE5,
        });
        let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
        let pattern = translator.compile("goal -> free_kick").expect("valid");
        run_all(
            &mut t,
            &model,
            &catalog,
            &pattern,
            catalog.shot_count(),
            &base,
        );
        let supported = supported_events(&model);
        epoch.row_owned(vec![
            model.shot_count().to_string(),
            supported.to_string(),
            (model.shot_count() * supported).to_string(),
        ]);
    }
    println!("{t}");
    println!("\nper-epoch Eq.-14 work (the model's score table, filled at build, load and each feedback install):\n");
    println!("{epoch}");

    // --- Sweep 2: pattern length, fixed database.
    println!("\n## cost vs pattern length (20 videos × 200 shots)\n");
    let (_, catalog) = standard_catalog(DataConfig {
        videos: 20,
        shots_per_video: 200,
        event_rate: 0.08,
        seed: 0xE5 + 1,
    });
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let mut t = Table::new(&[
        "pattern C",
        "engine",
        "latency",
        "score reads",
        "sim evals",
        "transitions",
        "candidates",
    ]);
    for q in QUERIES {
        let pattern = translator.compile(q).expect("valid");
        run_all(&mut t, &model, &catalog, &pattern, pattern.len(), &base);
    }
    println!("{t}");

    // --- Ablation: beam width.
    println!("\n## beam-width ablation (query: 'free_kick -> goal -> corner_kick')\n");
    let pattern = translator
        .compile("free_kick -> goal -> corner_kick")
        .expect("valid");
    let mut t = Table::new(&["beam", "latency", "score reads", "top score"]);
    for beam in [1usize, 2, 3, 5, 8, 16] {
        let cfg = RetrievalConfig {
            beam_width: beam,
            ..base.clone()
        };
        let r = Retriever::new(&model, &catalog, cfg).expect("consistent");
        let t0 = Instant::now();
        let (results, stats) = r.retrieve(&pattern, 10).expect("valid");
        let dt = t0.elapsed();
        t.row_owned(vec![
            beam.to_string(),
            format!("{dt:.2?}"),
            stats.cache_lookups.to_string(),
            results
                .first()
                .map_or("—".into(), |r| format!("{:.5}", r.score)),
        ]);
    }
    println!("{t}");
    println!("expected shape: HMMM reads/latency grow mildly with DB size and C;");
    println!("exhaustive grows fastest; index join is cheap but blind to unannotated shots;");
    println!("beam=1 is the paper's greedy walk, wider beams trade work for score.");
}

fn run_all(
    t: &mut Table,
    model: &Hmmm,
    catalog: &hmmm_storage::Catalog,
    pattern: &CompiledPattern,
    key: usize,
    base: &RetrievalConfig,
) {
    // HMMM traversal.
    {
        let r = Retriever::new(model, catalog, base.clone()).expect("consistent");
        let t0 = Instant::now();
        let (results, stats) = r.retrieve(pattern, 10).expect("valid");
        push(t, key, "hmmm", t0.elapsed(), &stats, results.len());
    }
    // HMMM with the d=3 category pre-filter.
    {
        let cats = CategoryLevel::build(model, (model.video_count() / 4).max(2))
            .expect("videos exist");
        let r = Retriever::new(model, catalog, base.clone()).expect("consistent");
        let t0 = Instant::now();
        let eligible = cats.eligible_videos(&pattern.steps[0].alternatives);
        let (results, stats) = r
            .retrieve_within(pattern, 10, Some(&eligible))
            .expect("valid");
        push(t, key, "hmmm+categories", t0.elapsed(), &stats, results.len());
    }
    // Exhaustive.
    {
        let r = ExhaustiveRetriever::new(model, catalog, ExhaustiveConfig::default())
            .expect("consistent");
        let t0 = Instant::now();
        let (results, stats) = r.retrieve(pattern, 10).expect("valid");
        push(t, key, "exhaustive", t0.elapsed(), &stats, results.len());
    }
    // Event-index join.
    {
        let r = EventIndexRetriever::new(model, catalog).expect("consistent");
        let t0 = Instant::now();
        let (results, stats) = r.retrieve(pattern, 10).expect("valid");
        push(t, key, "event-index", t0.elapsed(), &stats, results.len());
    }
    // Greedy.
    {
        let r = GreedyRetriever::new(model, catalog).expect("consistent");
        let t0 = Instant::now();
        let (results, stats) = r.retrieve(pattern, 10).expect("valid");
        push(t, key, "greedy", t0.elapsed(), &stats, results.len());
    }
}

fn push(
    t: &mut Table,
    key: usize,
    engine: &str,
    dt: std::time::Duration,
    stats: &hmmm_core::RetrievalStats,
    found: usize,
) {
    t.row_owned(vec![
        key.to_string(),
        engine.to_string(),
        format!("{dt:.2?}"),
        stats.cache_lookups.to_string(),
        stats.sim_evaluations.to_string(),
        stats.transitions_examined.to_string(),
        found.to_string(),
    ]);
}

/// Events with feature support: the rows of the model's score table that
/// cost Eq.-14 work each epoch (the rest are zero by definition).
fn supported_events(model: &Hmmm) -> usize {
    (0..EventKind::COUNT)
        .filter(|&e| sim::self_similarity(model, e) > 0.0)
        .count()
}
