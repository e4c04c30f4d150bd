//! Property: the serving layer is invisible to the ranking contract.
//!
//! A `QueryServer` adds queues, worker threads, per-worker scratch reuse,
//! and (under feedback) RCU snapshot installs between a query and the
//! retrieval engine — and none of it may change a single byte of any
//! ranking. Every response here is re-derived serially against the exact
//! snapshot generation that answered it and compared with `==`
//! (`RankedPattern` is `PartialEq` down to the `f64` scores and weights).

use hmmm_core::{
    build_hmmm, BuildConfig, FeedbackConfig, FeedbackLog, PositivePattern, RetrievalConfig,
    Retriever,
};
use hmmm_features::{FeatureVector, FEATURE_COUNT};
use hmmm_media::EventKind;
use hmmm_query::{CompiledPattern, CompiledStep};
use hmmm_serve::{ModelSnapshot, QueryRequest, QueryServer, ServeOutcome, ServerConfig};
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

/// Serial reference ranking for `pattern` on `snapshot`, using the same
/// base retrieval configuration the server's workers use.
fn serial_reference(
    server: &QueryServer,
    snapshot: &ModelSnapshot,
    pattern: &CompiledPattern,
    limit: usize,
) -> Vec<hmmm_core::RankedPattern> {
    let mut config = server.retrieval_config();
    config.deadline = None;
    let (results, _) = Retriever::new(&snapshot.model, &snapshot.catalog, config)
        .expect("consistent")
        .retrieve(pattern, limit)
        .expect("valid");
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N clients hammering one server concurrently — across worker counts
    /// and both retrieval regimes — receive exactly the rankings
    /// a serial `Retriever` produces on the same model. The queue, the
    /// worker pool, and the per-worker scratch reuse are byte-invisible.
    #[test]
    fn concurrent_rankings_match_serial(
        cat in catalog(),
        pats in proptest::collection::vec(pattern(), 1..4),
        workers in 1usize..4,
        clients in 1usize..4,
        content_only in proptest::sample::select(vec![false, true]),
    ) {
        let snapshot = ModelSnapshot::build(cat, &BuildConfig::default()).unwrap();
        let base = if content_only {
            RetrievalConfig::content_only()
        } else {
            RetrievalConfig::default()
        };
        let config = ServerConfig {
            workers,
            queue_capacity: 256,
            retrieval: base,
            retain_snapshot_history: true,
            ..ServerConfig::default()
        };
        let server = QueryServer::start(snapshot, config).unwrap();
        let outcomes: Vec<(usize, ServeOutcome)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let server = &server;
                    let pats = &pats;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for i in 0..pats.len() {
                            // Different clients walk the pattern list in
                            // different orders so requests interleave.
                            let idx = (i + c) % pats.len();
                            got.push((
                                idx,
                                server.query(QueryRequest::new(pats[idx].clone(), 10)),
                            ));
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client panicked"))
                .collect()
        });
        prop_assert_eq!(outcomes.len(), clients * pats.len());
        for (idx, outcome) in outcomes {
            let response = match outcome {
                ServeOutcome::Completed(r) => r,
                ServeOutcome::Rejected(reason) => {
                    return Err(TestCaseError::Fail(format!(
                        "request rejected under an uncontended queue: {reason}"
                    )));
                }
            };
            prop_assert_eq!(response.epoch, 0, "no installs ran");
            prop_assert!(response.stats.degraded.is_none(), "no deadline was set");
            let snapshot = server.snapshot_at(response.epoch).expect("history retained");
            let expected = serial_reference(&server, &snapshot, &pats[idx], 10);
            prop_assert_eq!(&expected, &response.results);
        }
        server.join();
    }

    /// Feedback installs racing live queries never tear a response: every
    /// response carries the epoch of one published generation, its ranking
    /// is byte-identical to a serial run on exactly that generation, and
    /// epochs only move forward. In-flight queries finish on the snapshot
    /// they started with; nothing blocks.
    #[test]
    fn installs_mid_flight_never_tear(
        cat in catalog(),
        pats in proptest::collection::vec(pattern(), 1..3),
        rounds in 1usize..4,
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        // Feedback material: confirm top results of a serial run so the
        // installed generations genuinely differ from epoch 0.
        let (seed_results, _) = Retriever::new(&model, &cat, RetrievalConfig::default())
            .unwrap()
            .retrieve(&pats[0], 4)
            .unwrap();
        let snapshot = ModelSnapshot::from_model(model, cat).unwrap();
        let server = QueryServer::start(
            snapshot,
            ServerConfig {
                workers: 2,
                queue_capacity: 256,
                retain_snapshot_history: true,
                ..ServerConfig::default()
            },
        )
        .unwrap();

        let outcomes: Vec<(usize, ServeOutcome)> = std::thread::scope(|scope| {
            let reader = {
                let server = &server;
                let pats = &pats;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    for round in 0..8 {
                        let idx = round % pats.len();
                        got.push((
                            idx,
                            server.query(QueryRequest::new(pats[idx].clone(), 10)),
                        ));
                    }
                    got
                })
            };
            // Writer: install `rounds` new generations while the reader
            // queries. Each round re-confirms the same positive patterns,
            // so every install is a real model change.
            let writer = {
                let server = &server;
                let seed_results = &seed_results;
                scope.spawn(move || {
                    let fb = FeedbackConfig::default();
                    for round in 0..rounds {
                        let mut log = FeedbackLog::new();
                        for r in seed_results {
                            log.record(PositivePattern {
                                query: round as u64,
                                video: r.video,
                                shots: r.shots.clone(),
                                events: r.events.clone(),
                                access: 1.0,
                            })
                            .expect("temporally ordered");
                        }
                        if log.pending() > 0 {
                            server
                                .apply_feedback(&mut log, &fb)
                                .expect("audited install");
                        }
                    }
                })
            };
            writer.join().expect("writer panicked");
            reader.join().expect("reader panicked")
        });

        let final_epoch = server.epoch();
        if !seed_results.is_empty() {
            prop_assert_eq!(final_epoch, rounds as u64, "every install published");
        }
        for (idx, outcome) in outcomes {
            let response = match outcome {
                ServeOutcome::Completed(r) => r,
                ServeOutcome::Rejected(reason) => {
                    return Err(TestCaseError::Fail(format!(
                        "request rejected during installs: {reason}"
                    )));
                }
            };
            prop_assert!(response.epoch <= final_epoch, "epoch from the future");
            let snapshot = server
                .snapshot_at(response.epoch)
                .expect("every answered epoch was published and retained");
            let expected = serial_reference(&server, &snapshot, &pats[idx], 10);
            prop_assert_eq!(&expected, &response.results);
        }
        server.join();
    }
}
