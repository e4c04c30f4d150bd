//! Properties of the coarse stage, checked against the model's own
//! matrices rather than against the coarse index itself:
//!
//! * admissibility — with pruning off, in both regimes, every candidate the
//!   fine stage emits scores at most its video's coarse upper bound;
//! * zero-bound skips are exact — a video dropped for a zero bound has
//!   `Π_1(s) · sim(s, e) = 0` for every shot `s` and first-step
//!   alternative `e`, so no start entry could have been admitted;
//! * `retrieve_within` enumerates exactly the `B_2`-eligible videos of the
//!   subset (postings ∩ subset);
//! * recall@k against the full ranking is monotone non-decreasing in the
//!   candidate cut `C`, and serial runs are deterministic.

mod common;

use std::collections::BTreeSet;

use common::{catalog, pattern};
use hmmm_core::sim::calibrated_similarity;
use hmmm_core::{build_hmmm, BuildConfig, Hmmm, RetrievalConfig, RetrievalStats, Retriever};
use hmmm_query::CompiledPattern;
use hmmm_storage::VideoId;
use proptest::prelude::*;

/// The `B_2`-eligible videos for `pattern`, read straight from the
/// model's `B_2` rows (not from the coarse postings).
fn b2_eligible(model: &Hmmm, pattern: &CompiledPattern) -> BTreeSet<usize> {
    (0..model.video_count())
        .filter(|&v| pattern.steps[0].alternatives.iter().any(|&e| model.b2()[v][e] > 0))
        .collect()
}

fn regime(content_only: bool) -> RetrievalConfig {
    if content_only {
        RetrievalConfig::content_only()
    } else {
        RetrievalConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) With pruning off every candidate the fine stage emits is
    /// returned (wide limit, several per video), and each one scores at
    /// most its video's coarse upper bound — in both regimes, i.e. for
    /// both the cached and the direct scorer.
    #[test]
    fn emitted_scores_respect_coarse_bounds(
        cat in catalog(),
        pat in pattern(),
        beam in 1usize..5,
        content_only in proptest::sample::select(vec![false, true]),
    ) {
        let model = build_hmmm(&cat, &BuildConfig { unannotated_weight: 0.2, ..BuildConfig::default() }).unwrap();
        let cfg = RetrievalConfig {
            beam_width: beam,
            per_video_results: 8,
            prune: false,
            ..regime(content_only)
        };
        let (results, stats) = Retriever::new(&model, &cat, cfg).unwrap().retrieve(&pat, 10_000).unwrap();
        prop_assert_eq!(results.len(), stats.candidates_scored);
        for p in &results {
            let v = p.video.index();
            let ub = model.coarse().video_bounds(v, &model.locals()[v], &pat).video_ub();
            prop_assert!(
                p.score <= ub,
                "video {} scored {} above its coarse bound {}", v, p.score, ub
            );
        }
    }

    /// (b) Every `B_2`-eligible video the coarse stage drops for a zero
    /// bound has a zero Eq.-12 start weight on every shot for every
    /// first-step alternative, recomputed from `Π_1` and Eq. 14 directly.
    #[test]
    fn zero_bound_skips_admit_no_start(
        cat in catalog(),
        pat in pattern(),
        content_only in proptest::sample::select(vec![false, true]),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = regime(content_only);
        let mut stats = RetrievalStats::default();
        let candidates = model.coarse().candidates(&model, &pat, &cfg, None, &mut stats);
        let admitted: BTreeSet<usize> = candidates.iter().map(|(v, _)| v.index()).collect();
        let entered: BTreeSet<usize> = if cfg.require_first_event {
            b2_eligible(&model, &pat)
        } else {
            (0..model.video_count()).collect()
        };
        prop_assert!(admitted.is_subset(&entered));
        let skipped: Vec<usize> = entered.difference(&admitted).copied().collect();
        prop_assert_eq!(skipped.len(), stats.coarse_skipped_zero_ub);
        for v in skipped {
            let range = cat.video(VideoId(v)).unwrap().shot_range.clone();
            let base = range.start;
            for shot in range {
                for &e in &pat.steps[0].alternatives {
                    let w = model.locals()[v].pi1().get(shot - base) * calibrated_similarity(&model, shot, e);
                    prop_assert_eq!(w, 0.0, "video {} shot {} event {} admits a start", v, shot, e);
                }
            }
        }
    }

    /// (c) `retrieve_within` enumerates exactly the subset's
    /// `B_2`-eligible videos: each is a candidate or a zero-bound skip,
    /// the rest of the subset is charged to `videos_skipped`, and nothing
    /// outside the subset is traversed.
    #[test]
    fn subset_candidates_are_postings_intersect_subset(
        cat in catalog(),
        pat in pattern(),
        subset in proptest::collection::vec(0usize..10, 0..8),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = RetrievalConfig { prune: false, ..RetrievalConfig::default() };
        let subset: Vec<VideoId> = subset.into_iter().map(VideoId).collect();
        let valid: BTreeSet<usize> = subset
            .iter()
            .map(|v| v.index())
            .filter(|&v| v < model.video_count())
            .collect();
        let expected: BTreeSet<usize> =
            valid.intersection(&b2_eligible(&model, &pat)).copied().collect();

        let mut stats = RetrievalStats::default();
        let candidates = model.coarse().candidates(&model, &pat, &cfg, Some(&subset), &mut stats);
        let admitted: BTreeSet<usize> = candidates.iter().map(|(v, _)| v.index()).collect();
        prop_assert_eq!(admitted.len(), candidates.len(), "a candidate repeats");
        prop_assert!(admitted.is_subset(&expected));
        for &v in expected.difference(&admitted) {
            let ub = model.coarse().video_bounds(v, &model.locals()[v], &pat).video_ub();
            prop_assert_eq!(ub, 0.0, "eligible video {} dropped with bound {}", v, ub);
        }
        prop_assert_eq!(stats.videos_skipped, valid.len() - expected.len());

        let (results, r_stats) = Retriever::new(&model, &cat, cfg)
            .unwrap()
            .retrieve_within(&pat, 100, Some(&subset))
            .unwrap();
        prop_assert!(results.iter().all(|p| admitted.contains(&p.video.index())));
        prop_assert_eq!(r_stats.videos_visited, admitted.len());
        prop_assert_eq!(r_stats.videos_skipped, stats.videos_skipped);
    }

    /// Recall@k versus the full ranking is monotone non-decreasing in the
    /// candidate cut `C`: the coarse candidate order is total, so cuts are
    /// nested prefixes of one list.
    #[test]
    fn recall_is_monotone_in_candidate_cut(
        cat in catalog(),
        pat in pattern(),
        limit in 1usize..10,
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let full = Retriever::new(&model, &cat, RetrievalConfig::default())
            .unwrap()
            .retrieve(&pat, limit)
            .unwrap()
            .0;
        let mut prev_recall = 0.0f64;
        let mut prev_candidates = 0usize;
        for c in [1usize, 2, 4, 8, 64] {
            let cfg = RetrievalConfig {
                candidate_cut: Some(c),
                ..RetrievalConfig::default()
            };
            let (results, stats) = Retriever::new(&model, &cat, cfg)
                .unwrap()
                .retrieve(&pat, limit)
                .unwrap();
            prop_assert!(stats.coarse_candidates <= c);
            // Larger cuts admit supersets of candidates.
            prop_assert!(stats.coarse_candidates >= prev_candidates);
            prev_candidates = stats.coarse_candidates;
            let recall = if full.is_empty() {
                1.0
            } else {
                full.iter().filter(|p| results.contains(p)).count() as f64
                    / full.len() as f64
            };
            prop_assert!(
                recall >= prev_recall,
                "recall dropped from {} to {} at C={}",
                prev_recall,
                recall,
                c
            );
            prev_recall = recall;
        }
        // A cut wider than the archive is no cut at all: the ranking is
        // the exact one and recall@k is 1 by construction.
        prop_assert_eq!(prev_recall, 1.0);
    }

    /// The coarse stage is fully deterministic: two identical runs agree
    /// on rankings and on every counter.
    #[test]
    fn serial_coarse_is_deterministic(cat in catalog(), pat in pattern(), limit in 1usize..20) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = RetrievalConfig::default();
        let (a_results, a_stats) =
            Retriever::new(&model, &cat, cfg.clone()).unwrap().retrieve(&pat, limit).unwrap();
        let (b_results, b_stats) =
            Retriever::new(&model, &cat, cfg).unwrap().retrieve(&pat, limit).unwrap();
        prop_assert_eq!(a_results, b_results);
        prop_assert_eq!(a_stats, b_stats);
    }
}
