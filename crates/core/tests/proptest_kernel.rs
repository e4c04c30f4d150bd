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

    /// The blocked kernel is invisible end-to-end: across the threads ×
    /// regime × prune grid, rankings are byte-identical to the
    /// single-threaded exhaustive run of the same regime — whether a
    /// video's scores came from the slot-major cache (`similarity_into`
    /// during `SimCache::build`, content-driven) or from per-block direct
    /// evaluation (annotation-first).
    #[test]
    fn kernel_grid_ranks_identically(
        cat in catalog(),
        pat in pattern(),
        threads in 1usize..4,
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
            threads: Some(threads),
            prune,
            ..base.clone()
        };
        let reference_cfg = RetrievalConfig {
            threads: Some(1),
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
}
