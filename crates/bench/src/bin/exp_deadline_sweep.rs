//! E10 — the anytime-retrieval curve: deadline budget vs recall of the
//! exact top-k on the skewed catalog (PR-5).
//!
//! The deadline contract is *anytime, exact-so-far*: what a
//! deadline-bounded run returns is always a correctly-ordered prefix of
//! the work it completed, so the only quality axis is **recall** against
//! the unbounded exact top-k. This experiment sweeps the budget as
//! fractions of the measured unbounded latency — machine-independent by
//! construction — and reports, per budget, how much of the archive was
//! covered and how much of the true top-k survived.
//!
//! ```text
//! cargo run --release -p hmmm-bench --bin exp_deadline_sweep
//!     [-- --videos N --shots N --top K --repeats R]
//! ```

use hmmm_bench::{skewed_catalog, DataConfig, Table};
use hmmm_core::{
    build_hmmm, BuildConfig, DeadlineConfig, RankedPattern, RetrievalConfig, Retriever,
};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use std::time::{Duration, Instant};

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
    let videos: usize = arg("--videos").and_then(|v| v.parse().ok()).unwrap_or(60);
    let shots: usize = arg("--shots").and_then(|v| v.parse().ok()).unwrap_or(200);
    let top: usize = arg("--top").and_then(|v| v.parse().ok()).unwrap_or(10);
    let repeats: u32 = arg("--repeats").and_then(|v| v.parse().ok()).unwrap_or(5);

    println!("E10 — deadline budget vs exact-top-{top} recall (skewed catalog)\n");
    eprintln!("building {videos} videos × {shots} shots (half weak)…");
    let catalog = skewed_catalog(
        DataConfig {
            videos,
            shots_per_video: shots,
            event_rate: 0.08,
            seed: 0xDEAD,
        },
        0.005,
    );
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("goal -> goal").expect("valid");

    let base = RetrievalConfig::content_only();

    // Reference: the unbounded exact top-k, and its best-of-N latency.
    let reference = Retriever::new(&model, &catalog, base.clone()).expect("consistent");
    let mut full_secs = f64::INFINITY;
    let mut full_results = Vec::new();
    for _ in 0..repeats {
        let start = Instant::now();
        let (results, _) = reference.retrieve(&pattern, top).expect("valid");
        full_secs = full_secs.min(start.elapsed().as_secs_f64());
        full_results = results;
    }
    let truth: Vec<_> = full_results.iter().map(key).collect();
    println!(
        "unbounded run: {:.2} ms best-of-{repeats}, {} of top-{top} filled\n",
        full_secs * 1e3,
        truth.len()
    );

    let mut t = Table::new(&[
        "budget (% of full)",
        "budget",
        "recall@k",
        "visited",
        "unvisited",
        "expired runs",
    ]);
    for &fraction in &[0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1.0, 2.0, 10.0] {
        let budget = Duration::from_secs_f64((full_secs * fraction).max(1e-6));
        let cfg = base
            .clone()
            .with_deadline(DeadlineConfig::new(budget));
        let r = Retriever::new(&model, &catalog, cfg).expect("consistent");
        // Recall is timing-dependent by design — average it over repeats.
        let mut recall_sum = 0.0;
        let mut visited = 0usize;
        let mut unvisited = 0usize;
        let mut expired = 0u32;
        for _ in 0..repeats {
            let (results, stats) = r.retrieve(&pattern, top).expect("valid");
            let hit = results
                .iter()
                .filter(|p| truth.contains(&key(p)))
                .count();
            recall_sum += if truth.is_empty() {
                1.0
            } else {
                hit as f64 / truth.len() as f64
            };
            visited += stats.videos_visited;
            unvisited += stats.videos_unvisited;
            expired += u32::from(stats.deadline_expired);
        }
        let n = repeats as f64;
        t.row_owned(vec![
            format!("{:.0}%", fraction * 100.0),
            format!("{:.3} ms", budget.as_secs_f64() * 1e3),
            format!("{:.2}", recall_sum / n),
            format!("{:.1}", visited as f64 / n),
            format!("{:.1}", unvisited as f64 / n),
            format!("{expired}/{repeats}"),
        ]);
    }
    println!("{t}");
    println!(
        "reading: recall climbs monotonically-in-expectation with the budget; \
         at ≥100% of the unbounded latency the deadline never fires and the \
         ranking is the exact top-{top} (bit-identical to the reference)."
    );
}
