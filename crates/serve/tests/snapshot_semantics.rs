//! Deterministic semantics of the serving layer: admission states, QoS
//! rejections, audit-gated installs, drain-on-shutdown, requests answered
//! at the epoch installed before they were submitted, fail-closed
//! mismatched snapshots, and the serve metric counters.

use hmmm_core::{build_hmmm, metrics as m, BuildConfig, FaultPlan, InMemoryRecorder, RetrievalConfig};
use hmmm_features::FeatureVector;
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use hmmm_serve::{
    ModelSnapshot, QueryRequest, QueryServer, RejectReason, ServeOutcome, ServerConfig,
    SnapshotCell,
};
use hmmm_storage::Catalog;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// A small catalog with enough annotated events for every query to match.
fn fixture_catalog(videos: usize) -> Catalog {
    let mut catalog = Catalog::new();
    for v in 0..videos {
        let mut shots = Vec::new();
        for s in 0..6 {
            let events = match (v + s) % 3 {
                0 => vec![EventKind::FreeKick],
                1 => vec![EventKind::Goal],
                _ => vec![],
            };
            let mut fv = [0.1_f64; hmmm_features::FEATURE_COUNT];
            fv[0] = (v as f64 + 1.0) / (videos as f64 + 1.0);
            fv[1] = (s as f64 + 1.0) / 7.0;
            shots.push((events, FeatureVector::from_slice(&fv).unwrap()));
        }
        catalog.add_video(format!("v{v}"), shots);
    }
    catalog
}

fn fixture_pattern() -> hmmm_query::CompiledPattern {
    QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
        .compile("free_kick -> goal")
        .unwrap()
}

/// A server whose single worker stalls `latency` per video traversal (via
/// deterministic fault injection), so tests can reliably fill the queue.
fn stalled_server(
    catalog: Catalog,
    queue_capacity: usize,
    latency: Duration,
    recorder: hmmm_core::RecorderHandle,
) -> QueryServer {
    let snapshot = ModelSnapshot::build(catalog, &BuildConfig::default()).unwrap();
    // The step hook only fires from the second lattice step on, so the
    // two-step fixture pattern stalls exactly once per traversed video.
    let retrieval = RetrievalConfig::content_only().with_fault_plan(FaultPlan {
        latency_step: Some(1),
        latency_ns: latency.as_nanos() as u64,
        ..FaultPlan::default()
    });
    QueryServer::start(
        snapshot,
        ServerConfig {
            workers: 1,
            queue_capacity,
            retrieval,
            recorder,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn queue_full_rejects_with_reason() {
    let recorder = InMemoryRecorder::shared();
    let server = stalled_server(
        fixture_catalog(3),
        1,
        Duration::from_millis(40),
        recorder.handle(),
    );
    let pattern = fixture_pattern();

    // Occupy the worker, then wait until it has actually dequeued the job
    // (epoch reads are cheap; the queue drains within the stall window).
    let busy = server.submit(QueryRequest::new(pattern.clone(), 5));
    std::thread::sleep(Duration::from_millis(20));
    // One job fits the capacity-1 queue; the next must be rejected.
    let queued = server.submit(QueryRequest::new(pattern.clone(), 5));
    let overflow = server.query(QueryRequest::new(pattern.clone(), 5));
    match overflow {
        ServeOutcome::Rejected(reason) => {
            assert_eq!(reason, RejectReason::QueueFull);
            assert!(!reason.as_str().is_empty());
        }
        ServeOutcome::Completed(_) => panic!("overflow submission must be rejected"),
    }
    assert!(busy.wait().response().is_some());
    assert!(queued.wait().response().is_some());
    server.join();
    let report = recorder.report();
    assert_eq!(report.counter(m::CTR_SERVE_REJECTED_QUEUE_FULL), 1);
    assert_eq!(report.counter(m::CTR_SERVE_COMPLETED), 2);
    assert_eq!(report.counter(m::CTR_SERVE_SUBMITTED), 2, "rejects are not submissions");
}

#[test]
fn deadline_consumed_in_queue_rejects_before_service() {
    let recorder = InMemoryRecorder::shared();
    let server = stalled_server(
        fixture_catalog(3),
        8,
        Duration::from_millis(60),
        recorder.handle(),
    );
    let pattern = fixture_pattern();

    let busy = server.submit(QueryRequest::new(pattern.clone(), 5));
    // This request's whole budget elapses while the worker stalls on the
    // first job, so it must be shed at dequeue time, not run late.
    let mut doomed = QueryRequest::new(pattern.clone(), 5);
    doomed.deadline = Some(Duration::from_millis(1));
    let outcome = server.query(doomed);
    match outcome {
        ServeOutcome::Rejected(reason) => {
            assert_eq!(reason, RejectReason::DeadlineBeforeService)
        }
        ServeOutcome::Completed(_) => panic!("budget was consumed by queueing"),
    }
    assert!(busy.wait().response().is_some());
    server.join();
    assert_eq!(recorder.report().counter(m::CTR_SERVE_REJECTED_DEADLINE), 1);
}

#[test]
fn shutdown_rejects_new_work_but_drains_queued() {
    let recorder = InMemoryRecorder::shared();
    let server = stalled_server(
        fixture_catalog(3),
        8,
        Duration::from_millis(30),
        recorder.handle(),
    );
    let pattern = fixture_pattern();
    let before: Vec<_> = (0..3)
        .map(|_| server.submit(QueryRequest::new(pattern.clone(), 5)))
        .collect();
    server.close();
    match server.query(QueryRequest::new(pattern.clone(), 5)) {
        ServeOutcome::Rejected(reason) => assert_eq!(reason, RejectReason::Shutdown),
        ServeOutcome::Completed(_) => panic!("admission is closed"),
    }
    // Everything admitted before close still completes (drain semantics).
    for ticket in before {
        assert!(ticket.wait().response().is_some());
    }
    server.join();
    let report = recorder.report();
    assert_eq!(report.counter(m::CTR_SERVE_REJECTED_SHUTDOWN), 1);
    assert_eq!(report.counter(m::CTR_SERVE_COMPLETED), 3);
}

#[test]
fn audit_gate_refuses_mismatched_model_and_keeps_serving() {
    let recorder = InMemoryRecorder::shared();
    let catalog = fixture_catalog(4);
    let snapshot = ModelSnapshot::build(catalog, &BuildConfig::default()).unwrap();
    let server = QueryServer::start(
        snapshot,
        ServerConfig {
            recorder: recorder.handle(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // A model built from a *different* archive cannot audit against the
    // live catalog; the install must fail and change nothing.
    let foreign = build_hmmm(&fixture_catalog(2), &BuildConfig::default()).unwrap();
    assert!(server.install_model(foreign).is_err());
    assert_eq!(server.epoch(), 0, "failed install must not publish");
    let outcome = server.query(QueryRequest::new(fixture_pattern(), 5));
    assert!(outcome.response().is_some(), "live snapshot keeps serving");
    server.join();
    let report = recorder.report();
    assert_eq!(report.counter(m::CTR_SERVE_AUDIT_REJECTIONS), 1);
    // Only the initial publication counts as an install.
    assert_eq!(report.counter(m::CTR_SERVE_SNAPSHOT_INSTALLS), 1);
}

#[test]
fn requests_submitted_after_an_install_are_answered_at_its_epoch() {
    const N: usize = 12;
    let snapshot = ModelSnapshot::build(fixture_catalog(4), &BuildConfig::default()).unwrap();
    let server = QueryServer::start(
        snapshot,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let epoch_of = |outcome: ServeOutcome| outcome.response().expect("completed").epoch;
    let before: Vec<u64> = (0..N)
        .map(|_| epoch_of(server.query(QueryRequest::new(fixture_pattern(), 5))))
        .collect();
    let model = server.snapshot().model.clone();
    assert_eq!(server.install_model(model).unwrap(), 1);
    // Submitted together, so both workers dequeue from the same burst.
    let tickets: Vec<_> = (0..N)
        .map(|_| server.submit(QueryRequest::new(fixture_pattern(), 5)))
        .collect();
    let after: Vec<u64> = tickets.into_iter().map(|t| epoch_of(t.wait())).collect();
    server.join();

    // A worker refreshes its snapshot after each dequeue, so no request
    // submitted after the install returned runs on the old generation.
    assert_eq!(after, vec![1; N]);
    let epochs_served: BTreeSet<u64> = before.iter().chain(&after).copied().collect();
    assert_eq!(epochs_served.len(), 2);
}

#[test]
fn snapshot_paired_with_another_catalog_rejects_every_request() {
    let recorder = InMemoryRecorder::shared();
    let mut snapshot = ModelSnapshot::build(fixture_catalog(3), &BuildConfig::default()).unwrap();
    // Re-pair the audited model with an archive of another shape after the
    // build: rankings read against it would index the wrong shots.
    snapshot.catalog = Arc::new(fixture_catalog(4));
    let server = QueryServer::start(
        snapshot,
        ServerConfig {
            recorder: recorder.handle(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    for _ in 0..6 {
        match server.query(QueryRequest::new(fixture_pattern(), 5)) {
            ServeOutcome::Rejected(RejectReason::Invalid(msg)) => {
                assert!(msg.contains("3 local MMMs vs 4 videos"), "{msg}")
            }
            other => panic!("a mismatched snapshot must fail closed, got {other:?}"),
        }
    }
    server.join();
    assert_eq!(recorder.report().counter(m::CTR_SERVE_COMPLETED), 0);
}

#[test]
fn snapshot_cell_restamps_epochs_monotonically() {
    let catalog = fixture_catalog(3);
    let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    let cell = SnapshotCell::new(ModelSnapshot::from_model(model.clone(), catalog.clone()).unwrap());
    assert_eq!(cell.epoch(), 0);
    let mut cached = cell.load();
    assert!(!cell.refresh(&mut cached), "nothing published yet");
    for expected in 1..=3u64 {
        // Candidates always claim epoch 0; install re-stamps under the lock.
        let candidate = ModelSnapshot::from_model(model.clone(), catalog.clone()).unwrap();
        assert_eq!(cell.install(candidate).unwrap(), expected);
        assert_eq!(cell.epoch(), expected);
    }
    assert!(cell.refresh(&mut cached), "stale handle must refresh");
    assert_eq!(cached.epoch, 3);
}

#[test]
fn reject_reasons_all_have_nonempty_strings() {
    for reason in [
        RejectReason::QueueFull,
        RejectReason::DeadlineBeforeService,
        RejectReason::Shutdown,
        RejectReason::Invalid("boom".into()),
    ] {
        assert!(!reason.as_str().is_empty());
        assert!(!reason.to_string().is_empty());
    }
}

#[test]
fn zero_worker_and_zero_queue_configs_are_refused() {
    let catalog = fixture_catalog(2);
    for (workers, queue_capacity) in [(0usize, 8usize), (2, 0)] {
        let snapshot = ModelSnapshot::build(catalog.clone(), &BuildConfig::default()).unwrap();
        let config = ServerConfig {
            workers,
            queue_capacity,
            ..ServerConfig::default()
        };
        assert!(QueryServer::start(snapshot, config).is_err());
    }
}
