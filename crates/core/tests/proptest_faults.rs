//! Properties of the degraded paths (PR-5):
//!
//! * an empty fault plan is byte-invisible in every regime × prune
//!   configuration, rankings and work counters alike;
//! * a panic-degraded ranking is exactly the full ranking restricted to
//!   the surviving videos (injected panics fire at video entry, so a
//!   faulted run *is* a retrieval over the survivor subset);
//! * the same plan + seed degrades the same way on every run — rankings
//!   and every work counter are deterministic.

use hmmm_core::{build_hmmm, BuildConfig, FaultPlan, RetrievalConfig, RetrievalStats, Retriever};
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

/// Seeded Bernoulli plan — the same generator space the CLI's
/// `--fault-plan` accepts. The rate grid includes both extremes so the
/// all-survive and all-fail corners are exercised every run.
fn plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..u64::MAX,
        proptest::sample::select(vec![0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
    )
        .prop_map(|(seed, panic_rate)| FaultPlan {
            seed,
            panic_rate,
            ..FaultPlan::default()
        })
}

/// Coin flip (the vendored stub has no `any::<bool>()`).
fn coin() -> impl Strategy<Value = bool> {
    proptest::sample::select(vec![false, true])
}

/// The regime picks the scorer: content-driven traversal reads the sim
/// cache, annotation-first traversal evaluates Eq. 14 directly.
fn base_config(content_only: bool, prune: bool) -> RetrievalConfig {
    let base = if content_only {
        RetrievalConfig::content_only()
    } else {
        RetrievalConfig::default()
    };
    RetrievalConfig { prune, ..base }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero faults: attaching an empty plan changes nothing, in any
    /// configuration — the rankings and the stats are byte-identical to a
    /// plain config.
    #[test]
    fn empty_plan_is_invisible(
        cat in catalog(),
        pat in pattern(),
        content_only in coin(),
        prune in coin(),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = base_config(content_only, prune);
        let plain = Retriever::new(&model, &cat, cfg.clone()).unwrap();
        let faulted = Retriever::new(&model, &cat, cfg.with_fault_plan(FaultPlan::default())).unwrap();
        let (a, a_stats) = plain.retrieve(&pat, 10).unwrap();
        let (b, b_stats) = faulted.retrieve(&pat, 10).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!(b_stats.degraded.is_none());
        prop_assert_eq!(b_stats.videos_failed, 0);
        prop_assert_eq!(a_stats, b_stats);
    }

    /// A panic-degraded ranking is the full ranking restricted to the
    /// surviving videos: both runs sort candidates by the same total
    /// order, so the survivors' entries of the full top-k must be a
    /// prefix of the degraded top-k.
    #[test]
    fn degraded_ranking_is_the_survivor_restriction(
        cat in catalog(),
        pat in pattern(),
        fp in plan(),
        content_only in coin(),
        prune in coin(),
        limit in 1usize..20,
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = base_config(content_only, prune);
        let full = Retriever::new(&model, &cat, cfg.clone()).unwrap();
        let faulted = Retriever::new(&model, &cat, cfg.clone().with_fault_plan(fp.clone())).unwrap();
        let (full_results, _) = full.retrieve(&pat, limit).unwrap();
        let (degraded_results, stats) = faulted.retrieve(&pat, limit).unwrap();
        let survives = |v: usize| !fp.panics_on(v);
        prop_assert!(degraded_results.iter().all(|p| survives(p.video.index())),
            "a poisoned video's pattern was ranked");
        let restricted: Vec<_> = full_results
            .into_iter()
            .filter(|p| survives(p.video.index()))
            .collect();
        prop_assert!(degraded_results.len() >= restricted.len());
        prop_assert_eq!(&degraded_results[..restricted.len()], &restricted[..]);
        // Without pruning every coarse candidate is entered, so the
        // failure count is exactly the poisoned share of the candidates
        // (with pruning a poisoned video can be bound-skipped before
        // entry; zero-bound videos never become candidates).
        if !prune {
            let mut coarse_stats = RetrievalStats::default();
            let poisoned = model
                .coarse()
                .candidates(&model, &pat, &cfg, None, &mut coarse_stats)
                .iter()
                .filter(|(v, _)| fp.panics_on(v.index()))
                .count();
            prop_assert_eq!(stats.videos_failed, poisoned);
        }
    }

    /// Same plan, same seed, same configuration → the same degraded
    /// outcome on every run, down to every work counter, with the prune
    /// on or off.
    #[test]
    fn degradation_is_deterministic(
        cat in catalog(),
        pat in pattern(),
        fp in plan(),
        content_only in coin(),
        prune in coin(),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = base_config(content_only, prune).with_fault_plan(fp);
        let r = Retriever::new(&model, &cat, cfg).unwrap();
        let (a, a_stats) = r.retrieve(&pat, 10).unwrap();
        let (b, b_stats) = r.retrieve(&pat, 10).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(a_stats, b_stats);
    }
}
