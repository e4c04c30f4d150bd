//! E13 — the coarse-to-fine frontier: candidate cut `C` vs recall@k and
//! query latency on the skewed catalog.
//!
//! Every retrieval starts with the coarse stage, which orders candidate
//! videos by their admissible coarse bounds; `candidate_cut: Some(C)`
//! traverses only the first `C`. Because the candidate order is total,
//! cuts are nested prefixes: recall@k against the exact top-k is
//! deterministically monotone non-decreasing in `C`, and this experiment
//! charts the recall-vs-latency frontier that buys. The `exact` row (no
//! cut) is the reference, and a cut as wide as the archive must reproduce
//! it (recall 1.00).
//!
//! All rows run the serving path: serial, content-driven, so the
//! query-scoped similarity cache is built.
//!
//! ```text
//! cargo run --release -p hmmm-bench --bin exp_coarse_sweep
//!     [-- --videos N --shots N --top K --repeats R --quick]
//! ```
//!
//! `--quick` shrinks the fixture and repeats for the CI smoke row.

use hmmm_bench::{skewed_catalog, DataConfig, Table};
use hmmm_core::{build_hmmm, BuildConfig, RankedPattern, RetrievalConfig, Retriever};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use std::time::Instant;

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Identity of a ranked pattern for recall accounting.
fn key(p: &RankedPattern) -> (usize, Vec<usize>) {
    (p.video.index(), p.shots.iter().map(|s| s.0).collect())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let videos: usize = arg("--videos")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 24 } else { 80 });
    let shots: usize = arg("--shots")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 60 } else { 250 });
    let top: usize = arg("--top").and_then(|v| v.parse().ok()).unwrap_or(10);
    let repeats: u32 = arg("--repeats")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { 5 });

    println!(
        "E13 — coarse candidate cut vs recall@{top} and latency \
         (skewed catalog{})\n",
        if quick { ", quick" } else { "" }
    );
    eprintln!("building {videos} videos × {shots} shots (half weak)…");
    let catalog = skewed_catalog(
        DataConfig {
            videos,
            shots_per_video: shots,
            event_rate: 0.08,
            seed: 0xC0A5,
        },
        0.005,
    );
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("goal -> goal").expect("valid");

    // The serving path: content-driven (sim cache built).
    let base = RetrievalConfig::content_only();

    // One measured row: best-of-N latency, the coarse candidate count, and
    // recall against `truth` (empty truth = trivially recall 1).
    let measure = |cut: Option<usize>, truth: &[(usize, Vec<usize>)]| {
        let cfg = RetrievalConfig {
            candidate_cut: cut,
            ..base.clone()
        };
        let r = Retriever::new(&model, &catalog, cfg).expect("consistent");
        let mut best_secs = f64::INFINITY;
        let mut results = Vec::new();
        let mut candidates = 0usize;
        for _ in 0..repeats {
            let start = Instant::now();
            let (res, stats) = r.retrieve(&pattern, top).expect("valid");
            best_secs = best_secs.min(start.elapsed().as_secs_f64());
            candidates = stats.coarse_candidates;
            results = res;
        }
        let recall = if truth.is_empty() {
            1.0
        } else {
            let hit = results.iter().filter(|p| truth.contains(&key(p))).count();
            hit as f64 / truth.len() as f64
        };
        (best_secs, recall, candidates, results)
    };

    // Reference: the exact top-k (no candidate cut).
    let (exact_secs, _, exact_cands, exact_results) = measure(None, &[]);
    let truth: Vec<_> = exact_results.iter().map(key).collect();
    println!(
        "exact reference: {:.2} ms best-of-{repeats}, {} of top-{top} filled, \
         {exact_cands} coarse candidates\n",
        exact_secs * 1e3,
        truth.len()
    );

    let mut t = Table::new(&["C", "recall@k", "candidates", "latency", "speedup vs exact"]);
    t.row_owned(vec![
        "∞ (exact)".into(),
        "1.00".into(),
        format!("{exact_cands}"),
        format!("{:.3} ms", exact_secs * 1e3),
        "1.00x".into(),
    ]);
    let mut prev_recall = 0.0f64;
    // Ascending cuts, ending with one as wide as the archive.
    let cuts = [4usize, 8, 16, 32].into_iter().filter(|&c| c < videos);
    for c in cuts.chain([videos]) {
        let (secs, recall, cands, _) = measure(Some(c), &truth);
        assert!(
            recall >= prev_recall,
            "recall must be monotone in C (dropped {prev_recall} -> {recall} at C={c})"
        );
        prev_recall = recall;
        t.row_owned(vec![
            format!("{c}"),
            format!("{recall:.2}"),
            format!("{cands}"),
            format!("{:.3} ms", secs * 1e3),
            format!("{:.2}x", exact_secs / secs),
        ]);
    }
    assert!(
        (prev_recall - 1.0).abs() < f64::EPSILON,
        "a cut as wide as the archive must reproduce the exact ranking"
    );
    println!("{t}");
    println!(
        "reading: recall@{top} is monotone in C (cuts are nested prefixes of \
         one totally-ordered candidate list); a cut as wide as the archive \
         reproduces the exact ranking, and small C trades bounded recall for \
         the steepest latency win."
    );
}
