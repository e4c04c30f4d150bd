//! Property: the blocked SoA similarity kernel is invisible.
//!
//! `sim::similarity_block` (and its calibrated variant) exist purely as a
//! memory-layout optimization — the feature-major `B_1` slab and the packed
//! per-event term lists must never change a single bit of any score the
//! scalar Eq.-14 reference produces, and the whole retrieval pipeline must
//! rank identically whichever scorer read them.

use hmmm_core::{build_hmmm, sim, BuildConfig, RetrievalConfig, Retriever};
use hmmm_features::{FeatureVector, FEATURE_COUNT};
use hmmm_media::EventKind;
use hmmm_query::{CompiledPattern, CompiledStep};
use hmmm_storage::Catalog;
use proptest::prelude::*;

fn feature_vector() -> impl Strategy<Value = FeatureVector> {
    proptest::collection::vec(0.0f64..1.0, FEATURE_COUNT)
        .prop_map(|v| FeatureVector::from_slice(&v).expect("exact length"))
}

fn events() -> impl Strategy<Value = Vec<EventKind>> {
    proptest::collection::vec(0usize..EventKind::COUNT, 0..3).prop_map(|idx| {
        let mut out: Vec<EventKind> = idx.into_iter().filter_map(EventKind::from_index).collect();
        out.dedup();
        out
    })
}

fn catalog() -> impl Strategy<Value = Catalog> {
    proptest::collection::vec(
        proptest::collection::vec((events(), feature_vector()), 1..10),
        2..8,
    )
    .prop_map(|videos| {
        let mut c = Catalog::new();
        for (i, shots) in videos.into_iter().enumerate() {
            c.add_video(format!("v{i}"), shots);
        }
        c
    })
}

fn pattern() -> impl Strategy<Value = CompiledPattern> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0usize..EventKind::COUNT, 1..3),
            proptest::option::of(0usize..6),
        ),
        1..4,
    )
    .prop_map(|steps| CompiledPattern {
        steps: steps
            .into_iter()
            .map(|(mut alternatives, max_gap)| {
                alternatives.dedup();
                CompiledStep {
                    alternatives,
                    max_gap,
                }
            })
            .collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every slot of every blocked evaluation — raw and calibrated, over
    /// every event and every sub-range the archive admits — is bitwise
    /// equal to the scalar reference.
    #[test]
    fn blocked_kernel_is_bitwise_invisible(
        cat in catalog(),
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let n = model.shot_count();
        let lo = ((n as f64) * lo_frac.min(hi_frac)) as usize;
        let hi = (((n as f64) * lo_frac.max(hi_frac)) as usize).max(lo);
        let mut scratch = Vec::new();
        for event in 0..EventKind::COUNT {
            let raw = sim::similarity_block(&model, lo..hi, event, &mut scratch).to_vec();
            for (i, &score) in raw.iter().enumerate() {
                prop_assert_eq!(
                    score.to_bits(),
                    sim::similarity(&model, lo + i, event).to_bits(),
                    "raw slot {} of event {} diverged", i, event
                );
            }
            let cal = sim::calibrated_block(&model, lo..hi, event, &mut scratch).to_vec();
            for (i, &score) in cal.iter().enumerate() {
                prop_assert_eq!(
                    score.to_bits(),
                    sim::calibrated_similarity(&model, lo + i, event).to_bits(),
                    "calibrated slot {} of event {} diverged", i, event
                );
            }
        }
    }

    /// The blocked kernel is invisible end-to-end: across the regime ×
    /// prune grid, rankings are byte-identical to the exhaustive run of the
    /// same regime — whether a video's scores came from the slot-major
    /// cache (`similarity_into` during `SimCache::build`, content-driven)
    /// or from per-block direct evaluation (annotation-first).
    #[test]
    fn kernel_grid_ranks_identically(
        cat in catalog(),
        pat in pattern(),
        content_only in proptest::sample::select(vec![false, true]),
        prune in proptest::sample::select(vec![false, true]),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let base = if content_only {
            RetrievalConfig::content_only()
        } else {
            RetrievalConfig::default()
        };
        let grid_cfg = RetrievalConfig {
            prune,
            ..base.clone()
        };
        let reference_cfg = RetrievalConfig {
            prune: false,
            ..base
        };
        let (a, _) = Retriever::new(&model, &cat, grid_cfg)
            .unwrap()
            .retrieve(&pat, 10)
            .unwrap();
        let (b, _) = Retriever::new(&model, &cat, reference_cfg)
            .unwrap()
            .retrieve(&pat, 10)
            .unwrap();
        prop_assert_eq!(a, b);
    }

    /// The regime picks the scorer, and the counters say which one ran:
    /// content-driven traversal charges the dense cache build and serves
    /// every hot-path lookup from the table; annotation-first traversal
    /// builds nothing and evaluates Eq. (14) directly.
    #[test]
    fn regime_picks_the_scorer(cat in catalog(), pat in pattern(), beam in 1usize..5) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cached_cfg = RetrievalConfig { beam_width: beam, prune: false, ..RetrievalConfig::content_only() };
        let direct_cfg = RetrievalConfig { beam_width: beam, prune: false, ..RetrievalConfig::default() };
        let (_, c_stats) = Retriever::new(&model, &cat, cached_cfg).unwrap().retrieve(&pat, 10).unwrap();
        let (_, d_stats) = Retriever::new(&model, &cat, direct_cfg).unwrap().retrieve(&pat, 10).unwrap();
        prop_assert_eq!(c_stats.sim_evaluations, 0);
        if c_stats.videos_visited > 0 {
            prop_assert!(c_stats.cache_lookups > 0);
        }
        // The build only pays for *supported* events (non-zero centroid),
        // so it can be free when the pattern names only events the archive
        // never exhibits.
        let supported = pat.steps.iter()
            .flat_map(|s| s.alternatives.iter().copied())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter(|&e| sim::self_similarity(&model, e) > 0.0)
            .count();
        prop_assert_eq!(c_stats.cache_build_evaluations, (supported * model.shot_count()) as u64);
        prop_assert_eq!(d_stats.cache_build_evaluations, 0);
        prop_assert_eq!(d_stats.cache_lookups, 0);
        if d_stats.videos_visited > 0 {
            prop_assert!(d_stats.sim_evaluations > 0);
        }
    }
}
