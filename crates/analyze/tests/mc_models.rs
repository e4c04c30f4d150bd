//! The protocol models' own gates, plus model-faithfulness tests
//! pinning each model to the real implementation it abstracts.
//!
//! The verification half asserts every standard scenario (extended set
//! included) explores clean — zero invariant violations over every
//! interleaving — under plain exhaustive search, under sleep-set
//! reduction (same verdict, never more schedules), and under the quick
//! CI budget (which today is still a full proof: nothing truncates).
//!
//! The faithfulness half is the epistemics of the whole exercise: a
//! checker of a divergent model proves nothing about the repo. Serial
//! and concurrent runs of the *real* `SnapshotCell`, `atomic_write`, and
//! `QueryServer` are asserted to satisfy the very invariants the models
//! check — epoch monotonicity and no stale install, loadable generations
//! with `.bak` rotation, exactly-once serviced-or-rejected.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hmmm_analyze::mc::engine::{explore, ExploreConfig, Protocol, Reduction};
use hmmm_analyze::mc::{admission, connection, crashwrite, snapshot};
use hmmm_core::BuildConfig;
use hmmm_features::FeatureVector;
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use hmmm_serve::{ModelSnapshot, QueryRequest, QueryServer, ServerConfig, SnapshotCell};
use hmmm_storage::{atomic_write, bak_path, AtomicWriteOptions, Catalog, TestDir};

/// The per-scenario budget CI's quick mode uses (kept in sync with
/// `interleave-check`'s `QUICK_STATE_BUDGET` by the assertion below:
/// if a scenario outgrows it, this test fails first, loudly).
const QUICK_STATE_BUDGET: usize = 100_000;

fn assert_suite_clean<P: Protocol>(suite: &str, scenarios: Vec<(String, P)>) {
    for (name, p) in scenarios {
        let none = explore(&p, &ExploreConfig::exhaustive())
            .unwrap_or_else(|cx| panic!("{suite}/{name} violated:\n{cx}"));
        assert!(none.finals > 0, "{suite}/{name}: no terminal state reached");
        assert!(!none.truncated);

        let sleep = explore(
            &p,
            &ExploreConfig {
                reduction: Reduction::SleepSet,
                max_states: None,
            },
        )
        .unwrap_or_else(|cx| panic!("{suite}/{name} violated under sleep sets:\n{cx}"));
        assert!(
            sleep.schedules <= none.schedules,
            "{suite}/{name}: reduction explored more representatives than \
             the full set ({} > {})",
            sleep.schedules,
            none.schedules
        );
        assert!(sleep.states <= none.states);

        let quick = explore(&p, &ExploreConfig::bounded(QUICK_STATE_BUDGET))
            .unwrap_or_else(|cx| panic!("{suite}/{name} violated under budget:\n{cx}"));
        assert!(
            !quick.truncated,
            "{suite}/{name}: outgrew the quick CI budget — raise \
             QUICK_STATE_BUDGET in interleave-check (and here) deliberately"
        );
        assert_eq!(quick.states, none.states);
        assert_eq!(quick.schedules, none.schedules);
    }
}

#[test]
fn snapshot_scenarios_verify_clean() {
    assert_suite_clean("snapshot", snapshot::standard_scenarios(true));
}

#[test]
fn admission_scenarios_verify_clean() {
    assert_suite_clean("admission", admission::standard_scenarios(true));
}

#[test]
fn crashwrite_scenarios_verify_clean() {
    assert_suite_clean("crashwrite", crashwrite::standard_scenarios(true));
}

#[test]
fn connection_scenarios_verify_clean() {
    assert_suite_clean("connection", connection::standard_scenarios(true));
}

fn tiny_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_video(
        "v0",
        vec![
            (vec![EventKind::FreeKick], FeatureVector::zeros()),
            (vec![EventKind::Goal], FeatureVector::zeros()),
        ],
    );
    catalog.add_video(
        "v1",
        vec![
            (vec![EventKind::CornerKick], FeatureVector::zeros()),
            (vec![EventKind::Goal], FeatureVector::zeros()),
        ],
    );
    catalog
}

/// The snapshot model's invariants, asserted on the real `SnapshotCell`
/// under a concurrent writer: the published epoch is monotone from a
/// reader's view, and a snapshot loaded *after* observing epoch `e` is
/// never older than `e` (no stale install visible — the Acquire/Release
/// pair the `DropRelease` mutation deletes).
#[test]
fn real_snapshot_cell_upholds_model_invariants() {
    let catalog = tiny_catalog();
    let base = ModelSnapshot::build(catalog.clone(), &BuildConfig::default())
        .expect("tiny catalog builds");
    let cell = Arc::new(SnapshotCell::new(base));
    let stop = Arc::new(AtomicBool::new(false));

    let installs = 6u64;
    let writer = {
        let cell = Arc::clone(&cell);
        let catalog = catalog.clone();
        std::thread::spawn(move || {
            for _ in 0..installs {
                let candidate = ModelSnapshot::build(catalog.clone(), &BuildConfig::default())
                    .expect("candidate builds");
                cell.install(candidate).expect("install passes audit");
            }
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0u64;
                let mut cached = cell.load();
                // ordering: Acquire pairs with the Release store below so
                // readers drain only after the writer's installs are
                // visible (the flag is a plain shutdown signal).
                while !stop.load(Ordering::Acquire) {
                    let observed = cell.epoch();
                    assert!(observed >= last, "epoch went backwards: {last} -> {observed}");
                    // The model's stale-install invariant: having observed
                    // epoch `observed`, the snapshot loaded next is at
                    // least that generation.
                    let snap = cell.load();
                    assert!(
                        snap.epoch >= observed,
                        "stale install visible: loaded epoch {observed} but \
                         snapshot generation {}",
                        snap.epoch
                    );
                    last = snap.epoch.max(observed);
                    // refresh() must replace the handle iff newer.
                    let before = cached.epoch;
                    let replaced = cell.refresh(&mut cached);
                    assert!(cached.epoch >= before);
                    assert_eq!(replaced, cached.epoch != before);
                }
            })
        })
        .collect();

    writer.join().expect("writer clean");
    // ordering: Release pairs with the readers' Acquire loop condition.
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().expect("reader clean");
    }
    assert_eq!(cell.epoch(), installs, "every install published exactly once");
    assert_eq!(cell.load().epoch, installs);
}

/// The crashwrite model's *final-state* invariant on the real helper:
/// sequential generations leave the destination holding the latest and
/// `.bak` the previous (the model's `cw_two_gens_sequential` terminal
/// state), and concurrent writers never leave the destination unloadable
/// (`cw_concurrent_writers` — here without crash injection; the crash
/// half lives in hmmm-storage's own crash_consistency suite) and never
/// fail each other (the model's invariant 4: last rename wins).
#[test]
fn real_atomic_write_matches_crashwrite_final_states() {
    let dir = TestDir::new("mc_models_atomic");
    let dest = dir.file("gen.dat");

    atomic_write(&dest, b"generation-2", &AtomicWriteOptions::default()).expect("gen 2");
    atomic_write(&dest, b"generation-3", &AtomicWriteOptions::default()).expect("gen 3");
    assert_eq!(std::fs::read(&dest).expect("dest loadable"), b"generation-3");
    assert_eq!(
        std::fs::read(bak_path(&dest)).expect("bak holds previous generation"),
        b"generation-2"
    );

    let dest2 = dir.file("contended.dat");
    atomic_write(&dest2, b"seed", &AtomicWriteOptions::default()).expect("seed");
    let handles: Vec<_> = (0..2)
        .map(|w| {
            let dest2 = dest2.clone();
            std::thread::spawn(move || {
                for i in 0..3 {
                    let payload = format!("writer-{w}-gen-{i}");
                    atomic_write(&dest2, payload.as_bytes(), &AtomicWriteOptions::default())
                        .expect("contended write");
                    // The model's per-step invariant: at every point SOME
                    // generation is loadable — the destination, or (in
                    // the narrow rotate window, where dest is briefly
                    // absent) the `.bak` fallback.
                    let now = std::fs::read(&dest2)
                        .or_else(|_| std::fs::read(bak_path(&dest2)))
                        .expect("neither dest nor .bak loadable mid-race");
                    assert!(
                        now == b"seed".to_vec()
                            || String::from_utf8_lossy(&now).starts_with("writer-"),
                        "torn generation: {now:?}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread clean");
    }
    let final_bytes = std::fs::read(&dest2).expect("dest loadable after race");
    assert!(String::from_utf8_lossy(&final_bytes).starts_with("writer-"));
}

/// The admission model's exactly-once invariant on the real server: with
/// a 1-slot queue and concurrent submitters, every request reaches
/// exactly one terminal outcome — completed with a response, or rejected
/// with a reason — and `close()` leaves nothing pending.
#[test]
fn real_query_server_is_exactly_once() {
    let snapshot = ModelSnapshot::build(tiny_catalog(), &BuildConfig::default())
        .expect("tiny catalog builds");
    let server = Arc::new(
        QueryServer::start(
            snapshot,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServerConfig::default()
            },
        )
        .expect("server starts"),
    );
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile("free_kick -> goal").expect("pattern compiles");

    let submitters: Vec<_> = (0..3)
        .map(|_| {
            let server = Arc::clone(&server);
            let pattern = pattern.clone();
            std::thread::spawn(move || {
                let mut completed = 0usize;
                let mut rejected = 0usize;
                for _ in 0..8 {
                    let outcome = server.query(QueryRequest::new(pattern.clone(), 3));
                    // Exactly one terminal outcome per request: a response
                    // or a reject reason, never neither, never both.
                    // (Ranking contents are the serve suite's concern;
                    // exactly-once only counts terminal outcomes.)
                    match outcome.response() {
                        Some(_) => completed += 1,
                        None => rejected += 1,
                    }
                }
                (completed, rejected)
            })
        })
        .collect();

    let mut completed = 0usize;
    let mut rejected = 0usize;
    for s in submitters {
        let (c, r) = s.join().expect("submitter clean");
        completed += c;
        rejected += r;
    }
    assert_eq!(completed + rejected, 24, "every request reached one outcome");
    assert!(completed > 0, "the 1-worker server must complete something");

    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("all submitters joined"));
    server.join();
}
