//! Property: parallel retrieval is byte-identical to serial retrieval.
//!
//! The parallel fan-out must be a pure scheduling change — same ranked
//! patterns, same order, same merged work counters — for any archive, any
//! pattern, and any worker count. Likewise the query-scoped similarity
//! cache must be a pure cost change: rankings with the cache on and off
//! are identical (only `sim_evaluations` accounting may differ).

use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
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

/// Random archive with enough videos (2–8) for the fan-out to chunk.
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

    /// threads=4 returns exactly the results and merged stats of threads=1.
    /// Pruning is off here because its *counters* are timing-dependent
    /// across workers (rankings are not — proptest_pruning.rs covers that);
    /// this property is about the PR-1 fan-out being a pure scheduling
    /// change, stats included.
    #[test]
    fn parallel_matches_serial(cat in catalog(), pat in pattern(), beam in 1usize..5, limit in 1usize..20) {
        let model = build_hmmm(&cat, &BuildConfig { unannotated_weight: 0.2, ..BuildConfig::default() }).unwrap();
        let serial_cfg = RetrievalConfig { beam_width: beam, threads: Some(1), prune: false, ..RetrievalConfig::default() };
        let parallel_cfg = RetrievalConfig { threads: Some(4), ..serial_cfg.clone() };
        let serial = Retriever::new(&model, &cat, serial_cfg).unwrap();
        let parallel = Retriever::new(&model, &cat, parallel_cfg).unwrap();
        let (s_results, s_stats) = serial.retrieve(&pat, limit).unwrap();
        let (p_results, p_stats) = parallel.retrieve(&pat, limit).unwrap();
        prop_assert_eq!(s_results, p_results);
        prop_assert_eq!(s_stats, p_stats);
    }

    /// Auto thread count (`None`) also matches serial, whatever the machine.
    #[test]
    fn auto_threads_match_serial(cat in catalog(), pat in pattern()) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let serial_cfg = RetrievalConfig { threads: Some(1), prune: false, ..RetrievalConfig::default() };
        let auto_cfg = RetrievalConfig { threads: None, prune: false, ..RetrievalConfig::default() };
        let (s_results, s_stats) = Retriever::new(&model, &cat, serial_cfg).unwrap().retrieve(&pat, 10).unwrap();
        let (a_results, a_stats) = Retriever::new(&model, &cat, auto_cfg).unwrap().retrieve(&pat, 10).unwrap();
        prop_assert_eq!(s_results, a_results);
        prop_assert_eq!(s_stats, a_stats);
    }

    /// The regime picks the scorer, and the counters say which one ran:
    /// content-driven traversal charges the dense cache build and serves
    /// every hot-path lookup from the table; annotation-first traversal
    /// builds nothing and evaluates Eq. (14) directly.
    #[test]
    fn regime_picks_the_scorer(cat in catalog(), pat in pattern(), beam in 1usize..5) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let cached_cfg = RetrievalConfig { beam_width: beam, threads: Some(1), prune: false, ..RetrievalConfig::content_only() };
        let direct_cfg = RetrievalConfig { beam_width: beam, threads: Some(1), prune: false, ..RetrievalConfig::default() };
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
            .filter(|&e| hmmm_core::sim::self_similarity(&model, e) > 0.0)
            .count();
        prop_assert_eq!(c_stats.cache_build_evaluations, (supported * model.shot_count()) as u64);
        prop_assert_eq!(d_stats.cache_build_evaluations, 0);
        prop_assert_eq!(d_stats.cache_lookups, 0);
        if d_stats.videos_visited > 0 {
            prop_assert!(d_stats.sim_evaluations > 0);
        }
    }

    /// Attaching a recorder is a pure observation change: rankings and
    /// work counters with metrics on are byte-identical to metrics off.
    /// Pruning is off so the stats comparison stays exact under parallel
    /// timing (pruning counters race the shared threshold across workers).
    #[test]
    fn metrics_are_ranking_neutral(cat in catalog(), pat in pattern(), beam in 1usize..5, threads in 1usize..5) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let quiet_cfg = RetrievalConfig { beam_width: beam, threads: Some(threads), prune: false, ..RetrievalConfig::content_only() };
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
