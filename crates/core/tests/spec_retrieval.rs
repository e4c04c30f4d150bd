//! The engine against the executable §5 spec (`common/spec.rs`):
//! [`Retriever::retrieve`] must return the spec's ranking byte for byte.
//!
//! Every other exactness test compared one engine configuration with
//! another, so a rule they all shared passed them all. The spec shares no
//! code with the engine's traversal and knows nothing of the top-k prune,
//! so these tests also hold the prune to the unpruned §5 process: on random
//! archives, on a skewed archive where the prune provably fires, and above
//! the limit where the engine stops keeping a threshold.

mod common;
#[path = "common/spec.rs"]
mod spec;

use common::{catalog, pattern};
use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
use hmmm_features::{FeatureVector, FEATURE_COUNT};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use hmmm_storage::{Catalog, VideoId};
use proptest::prelude::*;
use spec::spec_retrieve;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine's ranking equals the spec's, byte for byte (`Debug`
    /// prints every `f64` round-trip exact, signed zeros included), in both
    /// regimes, over whole archives and `retrieve_within` subsets that
    /// repeat ids and name missing videos.
    #[test]
    fn retrieve_equals_the_spec(
        (cat, pat) in (catalog(), pattern()),
        (content_only, beam_width, per_video_results) in (
            proptest::sample::select(vec![false, true]),
            1usize..5,
            1usize..4,
        ),
        (max_start_candidates, limit) in (proptest::sample::select(vec![1usize, 4, 16]), 1usize..21),
        subset in proptest::option::of(proptest::collection::vec(0usize..9, 0..6)),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let base = if content_only { RetrievalConfig::content_only() } else { RetrievalConfig::default() };
        let config = RetrievalConfig {
            beam_width,
            per_video_results,
            max_start_candidates,
            ..base
        };
        let subset: Option<Vec<VideoId>> = subset.map(|ids| ids.into_iter().map(VideoId).collect());
        let want = spec_retrieve(&model, &cat, &config, &pat, limit, subset.as_deref());
        let retriever = Retriever::new(&model, &cat, config).unwrap();
        let (got, _) = match &subset {
            Some(ids) => retriever.retrieve_within(&pat, limit, Some(ids)).unwrap(),
            None => retriever.retrieve(&pat, limit).unwrap(),
        };
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Above `limit` 65 536 the engine keeps no top-k threshold and
    /// traverses every candidate: it still ranks like the spec, and no
    /// threshold is ever raised.
    #[test]
    fn above_the_prune_cap_equals_the_spec(
        (cat, pat) in (catalog(), pattern()),
        (content_only, beam_width) in (proptest::sample::select(vec![false, true]), 1usize..5),
    ) {
        const LIMIT: usize = 70_000;
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let base = if content_only { RetrievalConfig::content_only() } else { RetrievalConfig::default() };
        let config = RetrievalConfig { beam_width, ..base };
        let want = spec_retrieve(&model, &cat, &config, &pat, LIMIT, None);
        let (got, stats) = Retriever::new(&model, &cat, config).unwrap().retrieve(&pat, LIMIT).unwrap();
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        prop_assert_eq!(stats.threshold_raises, 0);
        prop_assert_eq!(stats.videos_skipped_by_bound, 0);
        prop_assert_eq!(stats.entries_pruned, 0);
    }
}

/// A skewed archive, 48 videos × 60 shots, from a seeded LCG: uniform
/// `[0, 1)` features, and each shot annotated with one uniformly drawn
/// event at rate 0.08 on even videos and 0.005 on odd ones. Most videos
/// barely exhibit any queried event, which is what lets whole-video bounds
/// fall below the top-k threshold.
fn skewed_archive() -> Catalog {
    let mut state: u64 = 0xBE7C;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut catalog = Catalog::new();
    for v in 0..48 {
        let rate = if v % 2 == 0 { 0.08 } else { 0.005 };
        let shots = (0..60)
            .map(|_| {
                let events = if uniform() < rate {
                    let pick = (uniform() * EventKind::COUNT as f64) as usize;
                    vec![EventKind::ALL[pick.min(EventKind::COUNT - 1)]]
                } else {
                    Vec::new()
                };
                let features: Vec<f64> = (0..FEATURE_COUNT).map(|_| uniform()).collect();
                (
                    events,
                    FeatureVector::from_slice(&features).expect("exact length"),
                )
            })
            .collect();
        catalog.add_video(format!("v{v}"), shots);
    }
    catalog
}

/// On the skewed archive the prune fires, and the ranking it returns is
/// still the spec's, for three patterns in both regimes at top-1 and
/// top-10.
#[test]
fn skewed_archive_prunes_and_equals_the_spec() {
    let cat = skewed_archive();
    let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    for query in [
        "goal -> goal",
        "goal -> free_kick",
        "free_kick|corner_kick -> goal -> foul",
    ] {
        let pat = translator.compile(query).unwrap();
        for content_only in [true, false] {
            let config = if content_only {
                RetrievalConfig::content_only()
            } else {
                RetrievalConfig::default()
            };
            for limit in [1, 10] {
                let want = spec_retrieve(&model, &cat, &config, &pat, limit, None);
                let (got, stats) = Retriever::new(&model, &cat, config.clone())
                    .unwrap()
                    .retrieve(&pat, limit)
                    .unwrap();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{query:?}, content_only {content_only}, top {limit}"
                );
                if content_only && query == "goal -> goal" {
                    assert!(
                        stats.entries_pruned + stats.videos_skipped_by_bound as u64 > 0,
                        "the content-driven prune did nothing at top {limit}"
                    );
                }
            }
        }
    }
}
