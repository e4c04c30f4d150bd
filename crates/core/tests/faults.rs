//! Deterministic fault-injection suite: drives every [`FaultPlan`] field
//! through retrieval and asserts the degraded contract:
//!
//! * panics are isolated per video — survivors complete and rank;
//! * an empty plan is byte-invisible (rankings and stats identical to a
//!   plain config);
//! * a zero deadline degrades before any video is admitted; a generous
//!   one changes nothing;
//! * injected latency plus a small deadline abandons the stalled beam and
//!   reports the unvisited remainder;
//! * injected transient I/O errors exercise the atomic writer's
//!   retry/backoff and are counted.

use hmmm_core::{
    build_hmmm, load_model_with, save_model_with, BuildConfig, DeadlineConfig, DegradedReason,
    FaultHandle, FaultPlan, InMemoryRecorder, RetrievalConfig, Retriever,
};
use hmmm_features::{FeatureId, FeatureVector};
use hmmm_media::EventKind;
use hmmm_query::{CompiledPattern, QueryTranslator};
use hmmm_storage::{Catalog, PersistOptions, TestDir};
use std::time::Duration;

fn feat(g: f64, v: f64) -> FeatureVector {
    let mut f = FeatureVector::zeros();
    f[FeatureId::GrassRatio] = g;
    f[FeatureId::VolumeMean] = v;
    f
}

/// Four near-identical goal videos: every one is eligible for the query,
/// so the visit bookkeeping below is exact (under `content_only` no
/// Step-2 filter removes any of them).
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for i in 0..4 {
        let d = i as f64 * 0.01;
        c.add_video(
            format!("v{i}"),
            vec![
                (vec![EventKind::FreeKick], feat(0.70 + d, 0.20)),
                (vec![], feat(0.50, 0.50 + d)),
                (vec![EventKind::Goal], feat(0.80, 0.90 - d)),
                (vec![EventKind::Goal], feat(0.75 + d, 0.95)),
            ],
        );
    }
    c
}

fn pattern() -> CompiledPattern {
    QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
        .compile("free_kick -> goal")
        .unwrap()
}

/// The configuration every plan runs through.
fn config() -> RetrievalConfig {
    RetrievalConfig {
        beam_width: 2,
        ..RetrievalConfig::content_only()
    }
}

#[test]
fn all_but_one_video_panicking_still_ranks_the_survivor() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = pattern();
    let survivor = 3usize;
    let plan = FaultPlan::panicking([0, 1, 2]);
    let cfg = config().with_fault_plan(plan);
    let r = Retriever::new(&model, &c, cfg).unwrap();
    let (results, stats) = r.retrieve(&pat, 10).unwrap();
    assert!(!results.is_empty(), "survivor produced no ranking");
    assert!(
        results.iter().all(|p| p.video.index() == survivor),
        "ranked pattern from a poisoned video"
    );
    // The survivor emits far fewer than `limit` candidates, so the
    // threshold never turns positive and no panicking video can
    // be bound-skipped before entry: all three must be recorded.
    assert_eq!(stats.videos_failed, 3);
    assert_eq!(stats.videos_skipped_by_bound, 0);
    assert_eq!(stats.panic_payloads.len(), 3);
    let mut sorted = stats.panic_payloads.clone();
    sorted.sort();
    assert_eq!(stats.panic_payloads, sorted, "payloads unsorted");
    for p in &stats.panic_payloads {
        assert!(
            p.contains("injected fault: panic on video"),
            "unexpected payload {p:?}"
        );
    }
    let degraded = stats.degraded.expect("degraded marker");
    assert_eq!(degraded.reason, DegradedReason::WorkerPanic);
    assert_eq!(degraded.videos_failed, 3);
    assert_eq!(degraded.videos_unvisited, 0);
    assert!(!stats.deadline_expired);
}

#[test]
fn every_video_panicking_returns_an_empty_ranking() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = pattern();
    let plan = FaultPlan {
        panic_rate: 1.0,
        ..FaultPlan::default()
    };
    let r = Retriever::new(&model, &c, config().with_fault_plan(plan)).unwrap();
    let (results, stats) = r.retrieve(&pat, 10).unwrap();
    assert!(results.is_empty());
    assert_eq!(stats.videos_failed, 4);
    assert_eq!(
        stats.degraded.expect("degraded").reason,
        DegradedReason::WorkerPanic,
    );
}

#[test]
fn empty_plan_is_byte_invisible() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = pattern();
    assert!(FaultPlan::default().is_empty());
    let cfg = config();
    let plain = Retriever::new(&model, &c, cfg.clone()).unwrap();
    let faulted = Retriever::new(&model, &c, cfg.with_fault_plan(FaultPlan::default())).unwrap();
    let (a, a_stats) = plain.retrieve(&pat, 10).unwrap();
    let (b, b_stats) = faulted.retrieve(&pat, 10).unwrap();
    assert_eq!(a, b, "empty plan changed the ranking");
    assert_eq!(a_stats, b_stats, "empty plan changed stats");
    assert!(b_stats.degraded.is_none());
}

#[test]
fn zero_deadline_degrades_before_any_video() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = pattern();
    let cfg = config().with_deadline(DeadlineConfig {
        budget: Duration::ZERO,
        check_interval: 1,
    });
    let r = Retriever::new(&model, &c, cfg).unwrap();
    let (results, stats) = r.retrieve(&pat, 10).unwrap();
    assert!(results.is_empty());
    assert!(stats.deadline_expired);
    assert_eq!(stats.videos_visited, 0);
    assert_eq!(stats.videos_unvisited, 4);
    let degraded = stats.degraded.expect("degraded marker");
    assert_eq!(degraded.reason, DegradedReason::DeadlineExpired);
    assert_eq!(degraded.videos_unvisited, 4);
}

#[test]
fn generous_deadline_is_a_no_op() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = pattern();
    let cfg = config();
    let plain = Retriever::new(&model, &c, cfg.clone()).unwrap();
    let bounded = Retriever::new(
        &model,
        &c,
        cfg.with_deadline(DeadlineConfig::new(Duration::from_secs(3600))),
    )
    .unwrap();
    let (a, a_stats) = plain.retrieve(&pat, 10).unwrap();
    let (b, b_stats) = bounded.retrieve(&pat, 10).unwrap();
    assert_eq!(a, b, "unexpired deadline changed the ranking");
    assert_eq!(a_stats, b_stats);
    assert!(!b_stats.deadline_expired);
    assert!(b_stats.degraded.is_none());
}

#[test]
fn pure_latency_injection_never_changes_the_ranking() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = pattern();
    let plan = FaultPlan {
        latency_step: Some(1),
        latency_ns: 200_000, // 0.2 ms per video — a stall, not a failure
        ..FaultPlan::default()
    };
    let cfg = config();
    let plain = Retriever::new(&model, &c, cfg.clone()).unwrap();
    let stalled = Retriever::new(&model, &c, cfg.with_fault_plan(plan)).unwrap();
    let (a, _) = plain.retrieve(&pat, 10).unwrap();
    let (b, b_stats) = stalled.retrieve(&pat, 10).unwrap();
    assert_eq!(a, b, "latency changed the ranking");
    assert!(b_stats.degraded.is_none());
}

#[test]
fn stalled_beam_is_abandoned_at_the_deadline() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = pattern();
    // Every traversed video stalls 200 ms before its second lattice step;
    // the budget is 20 ms. Whichever video is admitted first blows the
    // budget mid-beam — its beam is abandoned whole and nothing else is
    // admitted. The 10× margin keeps this stable on slow CI machines.
    let plan = FaultPlan {
        latency_step: Some(1),
        latency_ns: 200_000_000,
        ..FaultPlan::default()
    };
    let cfg = RetrievalConfig::content_only()
        .with_fault_plan(plan)
        .with_deadline(DeadlineConfig {
            budget: Duration::from_millis(20),
            check_interval: 1,
        });
    let r = Retriever::new(&model, &c, cfg).unwrap();
    let (results, stats) = r.retrieve(&pat, 10).unwrap();
    assert!(results.is_empty());
    assert!(stats.deadline_expired);
    assert!(stats.beams_abandoned >= 1, "stalled beam was not abandoned");
    assert_eq!(stats.videos_unvisited, 3);
    assert_eq!(
        stats.degraded.expect("degraded").reason,
        DegradedReason::DeadlineExpired
    );
}

#[test]
fn panic_and_deadline_combine_into_one_degraded_reason() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let pat = pattern();
    // Videos 0–2 panic instantly on entry; the survivor stalls 200 ms
    // against a 20 ms budget. The visit order over this near-uniform
    // catalog admits the panicking videos around the survivor, so by the
    // time the stalled beam blows the budget at least one panic has been
    // recorded — both degradation causes are present in one query.
    let plan = FaultPlan {
        panic_on_videos: vec![0, 1, 2],
        latency_step: Some(1),
        latency_ns: 200_000_000,
        ..FaultPlan::default()
    };
    let cfg = RetrievalConfig::content_only()
        .with_fault_plan(plan)
        .with_deadline(DeadlineConfig {
            budget: Duration::from_millis(20),
            check_interval: 1,
        });
    let r = Retriever::new(&model, &c, cfg).unwrap();
    let (_, stats) = r.retrieve(&pat, 10).unwrap();
    assert!(stats.deadline_expired);
    assert!(stats.videos_failed >= 1, "no panic recorded before expiry");
    assert_eq!(
        stats.degraded.expect("degraded").reason,
        DegradedReason::DeadlineAndPanic
    );
}

#[test]
fn cli_style_json_plan_round_trips_and_drives_the_engine() {
    // The terse form `hmmm query --fault-plan` accepts: absent fields
    // default, exactly like the CLI path parses it.
    let plan: FaultPlan = serde_json::from_str(r#"{"panic_on_videos": [0, 1, 2]}"#).unwrap();
    assert_eq!(plan, FaultPlan::panicking([0, 1, 2]));
    let full = serde_json::to_string(&plan).unwrap();
    let back: FaultPlan = serde_json::from_str(&full).unwrap();
    assert_eq!(back, plan);

    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let cfg = RetrievalConfig::content_only().with_fault_plan(plan);
    let r = Retriever::new(&model, &c, cfg).unwrap();
    let (results, stats) = r.retrieve(&pattern(), 10).unwrap();
    assert_eq!(stats.videos_failed, 3);
    assert!(results.iter().all(|p| p.video.index() == 3));
}

#[test]
fn injected_io_errors_exercise_the_atomic_writer_retry() {
    let c = catalog();
    let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
    let dir = TestDir::new("hmmm_faults_io");
    let path = dir.file("model.json");
    // Tickets 0 and 1 fail transiently: the first save attempt dies on
    // its first ops, the retry succeeds.
    let handle = FaultHandle::from_plan(FaultPlan {
        io_error_on_ops: vec![0, 1],
        ..FaultPlan::default()
    });
    let rec = InMemoryRecorder::shared();
    let opts = PersistOptions {
        recorder: rec.handle(),
        fault: Some(&handle),
        ..PersistOptions::default()
    };
    save_model_with(&model, &path, &opts).unwrap();
    let report = rec.report();
    assert!(
        report.counter(hmmm_core::metrics::CTR_ATOMIC_WRITE_RETRIES) >= 1,
        "transient injections were not counted as retries"
    );
    // The published artifact is intact despite the injected failures.
    let back = load_model_with(&path, &c, &PersistOptions::default()).unwrap();
    assert_eq!(back, model);
}
