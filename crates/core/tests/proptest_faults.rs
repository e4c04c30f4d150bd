//! Properties of the degraded paths:
//!
//! * an empty fault plan is byte-invisible in both regimes, rankings and
//!   work counters alike;
//! * a panic-degraded ranking is exactly the spec's ranking over the
//!   surviving videos (injected panics fire at video entry, so a faulted
//!   run *is* a retrieval over the survivor subset);
//! * the same plan + seed degrades the same way on every run — rankings
//!   and every work counter are deterministic.

mod common;
#[path = "common/spec.rs"]
mod spec;

use common::{catalog, pattern};
use hmmm_core::{build_hmmm, BuildConfig, FaultPlan, RetrievalConfig, RetrievalStats, Retriever};
use hmmm_storage::VideoId;
use proptest::prelude::*;
use spec::spec_retrieve;

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

/// The two retrieval regimes: content-driven, or annotation-first.
fn base_config(content_only: bool) -> RetrievalConfig {
    if content_only {
        RetrievalConfig::content_only()
    } else {
        RetrievalConfig::default()
    }
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
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = base_config(content_only);
        let plain = Retriever::new(&model, &cat, cfg.clone()).unwrap();
        let faulted = Retriever::new(&model, &cat, cfg.with_fault_plan(FaultPlan::default())).unwrap();
        let (a, a_stats) = plain.retrieve(&pat, 10).unwrap();
        let (b, b_stats) = faulted.retrieve(&pat, 10).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!(b_stats.degraded.is_none());
        prop_assert_eq!(b_stats.videos_failed, 0);
        prop_assert_eq!(a_stats, b_stats);
    }

    /// A panic-degraded ranking is the spec's ranking over the surviving
    /// videos, exactly: the threshold only ever holds survivors' scores,
    /// so the prune cuts nothing the survivor-only retrieval would rank.
    #[test]
    fn degraded_ranking_is_the_survivor_restriction(
        cat in catalog(),
        pat in pattern(),
        fp in plan(),
        content_only in coin(),
        limit in 1usize..20,
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = base_config(content_only);
        let survivors: Vec<VideoId> = (0..cat.video_count())
            .filter(|&v| !fp.panics_on(v))
            .map(VideoId)
            .collect();
        let want = spec_retrieve(&model, &cat, &cfg, &pat, limit, Some(&survivors));
        let faulted = Retriever::new(&model, &cat, cfg.clone().with_fault_plan(fp.clone())).unwrap();
        let (degraded_results, stats) = faulted.retrieve(&pat, limit).unwrap();
        prop_assert_eq!(format!("{degraded_results:?}"), format!("{want:?}"));
        // The injected panic fires on video entry, before the whole-video
        // bound check, so every poisoned coarse candidate fails, bound-
        // skippable or not (zero-bound videos never become candidates).
        let mut coarse_stats = RetrievalStats::default();
        let poisoned = model
            .coarse()
            .candidates(&model, &pat, &cfg, None, &mut coarse_stats)
            .iter()
            .filter(|(v, _)| fp.panics_on(v.index()))
            .count();
        prop_assert_eq!(stats.videos_failed, poisoned);
    }

    /// Same plan, same seed, same configuration → the same degraded
    /// outcome on every run, down to every work counter.
    #[test]
    fn degradation_is_deterministic(
        cat in catalog(),
        pat in pattern(),
        fp in plan(),
        content_only in coin(),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cfg = base_config(content_only).with_fault_plan(fp);
        let r = Retriever::new(&model, &cat, cfg).unwrap();
        let (a, a_stats) = r.retrieve(&pat, 10).unwrap();
        let (b, b_stats) = r.retrieve(&pat, 10).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(a_stats, b_stats);
    }
}
