//! Property: exact top-k pruning is invisible in the rankings.
//!
//! The threshold prune may only change *cost* counters — for any archive,
//! pattern, beam width, result limit and regime, the ranked patterns must
//! be byte-identical to the unpruned §5 process, as the executable spec
//! (`common/spec.rs`) enumerates it. The unit test at the bottom pins the
//! admissibility of the bounds themselves on the paper's §4.2.1.1 worked
//! example.

mod common;
#[path = "common/spec.rs"]
mod spec;

use common::{catalog, pattern};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_features::{FeatureId, FeatureVector};
use hmmm_media::EventKind;
use hmmm_query::{CompiledPattern, CompiledStep};
use hmmm_storage::Catalog;
use proptest::prelude::*;
use spec::spec_retrieve;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pruned rankings equal the spec's across the whole config grid the
    /// engine exposes: annotation regime × beam width × top-k limit.
    #[test]
    fn pruning_is_ranking_exact(
        cat in catalog(),
        pat in pattern(),
        beam in 1usize..5,
        limit in 1usize..20,
        content_only in proptest::sample::select(vec![false, true]),
    ) {
        let model = build_hmmm(&cat, &BuildConfig { unannotated_weight: 0.2, ..BuildConfig::default() }).unwrap();
        let base = if content_only {
            RetrievalConfig::content_only()
        } else {
            RetrievalConfig::default()
        };
        let cfg = RetrievalConfig {
            beam_width: beam,
            ..base
        };
        let want = spec_retrieve(&model, &cat, &cfg, &pat, limit, None);
        let (results, stats) =
            Retriever::new(&model, &cat, cfg).unwrap().retrieve(&pat, limit).unwrap();
        prop_assert_eq!(format!("{results:?}"), format!("{want:?}"));
        // Every coarse candidate is either traversed or bound-skipped —
        // the prune never loses track of a video.
        prop_assert_eq!(
            stats.videos_visited + stats.videos_skipped_by_bound,
            stats.coarse_candidates
        );
    }

    /// The prune is fully deterministic in both regimes: two identical
    /// runs agree on every counter, threshold raises included.
    #[test]
    fn serial_pruning_is_deterministic(
        cat in catalog(),
        pat in pattern(),
        limit in 1usize..20,
        content_only in proptest::sample::select(vec![false, true]),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let base = if content_only {
            RetrievalConfig::content_only()
        } else {
            RetrievalConfig::default()
        };
        let cfg = base;
        let (a_results, a_stats) =
            Retriever::new(&model, &cat, cfg.clone()).unwrap().retrieve(&pat, limit).unwrap();
        let (b_results, b_stats) =
            Retriever::new(&model, &cat, cfg).unwrap().retrieve(&pat, limit).unwrap();
        prop_assert_eq!(a_results, b_results);
        prop_assert_eq!(a_stats, b_stats);
    }

    /// Attaching a recorder is a pure observation change: rankings and
    /// work counters with metrics on are byte-identical to metrics off,
    /// pruning counters included.
    #[test]
    fn metrics_are_ranking_neutral(cat in catalog(), pat in pattern(), beam in 1usize..5) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let quiet_cfg = RetrievalConfig { beam_width: beam, ..RetrievalConfig::content_only() };
        let recorder = hmmm_core::InMemoryRecorder::shared();
        let observed_cfg = quiet_cfg.clone().with_recorder(recorder.handle());
        let (q_results, q_stats) = Retriever::new(&model, &cat, quiet_cfg).unwrap().retrieve(&pat, 10).unwrap();
        let (o_results, o_stats) = Retriever::new(&model, &cat, observed_cfg).unwrap().retrieve(&pat, 10).unwrap();
        prop_assert_eq!(q_results, o_results);
        prop_assert_eq!(q_stats.clone(), o_stats);
        // And the recorder really saw the query.
        let report = recorder.report();
        prop_assert_eq!(report.counter(hmmm_core::metrics::CTR_QUERIES), 1);
        prop_assert_eq!(report.counter(hmmm_core::metrics::CTR_VIDEOS_VISITED), q_stats.videos_visited as u64);
    }
}

/// §4.2.1.1 worked example (three shots annotated [FreeKick],
/// [FreeKick+Goal], [CornerKick]): the video and per-entry upper bounds
/// dominate every Eq.-(15) score the traversal can actually produce, so
/// pruning against them can never discard a true top-k candidate.
#[test]
fn bounds_are_admissible_on_worked_example() {
    let feat = |g: f64, v: f64| {
        let mut f = FeatureVector::zeros();
        f[FeatureId::GrassRatio] = g;
        f[FeatureId::VolumeMean] = v;
        f
    };
    let mut c = Catalog::new();
    c.add_video(
        "m1",
        vec![
            (vec![EventKind::FreeKick], feat(0.3, 0.2)),
            (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8, 0.9)),
            (vec![EventKind::CornerKick], feat(0.5, 0.4)),
        ],
    );
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = CompiledPattern {
        steps: vec![
            CompiledStep {
                alternatives: vec![EventKind::FreeKick.index()],
                max_gap: None,
            },
            CompiledStep {
                alternatives: vec![EventKind::Goal.index(), EventKind::CornerKick.index()],
                max_gap: None,
            },
        ],
    };
    // The bounds exactly as the coarse stage derives them for the fine
    // stage: per-video step maxima and start summaries from the index.
    let vb = model.coarse().video_bounds(0, &model.locals()[0], &pat);

    // Enumerate everything the §5 process can produce (wide beam, every
    // per-video candidate, the spec's unpruned walk) and check domination
    // candidate by candidate.
    let cfg = RetrievalConfig {
        beam_width: 16,
        per_video_results: 16,
        ..RetrievalConfig::default()
    };
    let results = spec_retrieve(&model, &c, &cfg, &pat, 16, None);
    assert!(!results.is_empty(), "worked example must match free_kick -> goal");
    for r in &results {
        assert!(
            vb.video_ub() >= r.score,
            "video bound {} must dominate score {}",
            vb.video_ub(),
            r.score
        );
        // Every prefix of the walk must bound its own completion: the
        // entry bound at step j (score-so-far + w_j · row_max · chain_j)
        // dominates the final Eq.-(15) score. The row maximum charged is
        // the one the traversal would use — the prefix shot's own forward
        // `A_1` maximum.
        let mut prefix = 0.0;
        for (j, (&w, &shot)) in r.weights.iter().zip(r.shots.iter()).enumerate() {
            prefix += w;
            let row_max = model.locals()[0].a1_row_max()[shot.0];
            assert!(
                vb.entry_ub(prefix, w, j, row_max) >= r.score,
                "entry bound at step {j} ({}) must dominate final score {}",
                vb.entry_ub(prefix, w, j, row_max),
                r.score
            );
        }
    }
}
