//! Mutation tests: five seeded protocol bugs — each a real bug class the
//! modeled implementations guard against — must every one be *caught* by
//! the checker, with a minimal counterexample whose replay
//! deterministically reproduces the same violation and whose every proper
//! prefix is clean (i.e. the schedule is tight, not just sufficient).
//!
//! | Mutation          | Model      | Seeded bug                               |
//! |-------------------|------------|------------------------------------------|
//! | `DropRelease`     | snapshot   | epoch published with `Relaxed`, not `Release` |
//! | `TornEpoch`       | snapshot   | epoch published as two half-word stores  |
//! | `LostCasRetry`    | topk       | failed threshold CAS gives up, no retry  |
//! | `SkipFsync`       | crashwrite | data rename without the preceding fsync  |
//! | `FailOnRotateRace`| crashwrite | rotate's `NotFound` after a rival's rotate returned as an error |
//! | `UnlockedDequeue` | admission  | queue slot read outside the lock, then removed blindly |
//! | `DoubleRespond`   | connection | torn response write retried on the same connection |

use hmmm_analyze::mc::engine::{explore, replay, Counterexample, ExploreConfig, Protocol};
use hmmm_analyze::mc::{admission, connection, crashwrite, snapshot, topk};

/// The shared contract every caught mutation must satisfy.
fn assert_caught<P: Protocol>(p: &P, what: &str) -> Counterexample {
    let cx = *explore(p, &ExploreConfig::exhaustive())
        .expect_err(&format!("{what}: the seeded bug must be caught"));
    assert!(!cx.schedule.is_empty(), "{what}: empty counterexample");
    assert_eq!(
        cx.trace.len(),
        cx.schedule.len(),
        "{what}: trace and schedule must align"
    );

    // Deterministic replay: same violation, same position.
    let (at, msg) = replay(p, &cx.schedule)
        .expect_err(&format!("{what}: counterexample must replay to a violation"));
    assert_eq!(msg, cx.message, "{what}: replay reproduces the message");
    assert!(
        at == cx.schedule.len() - 1 || at == cx.schedule.len(),
        "{what}: violation at the schedule's last step (step invariant) or \
         just past it (final invariant), got {at}/{}",
        cx.schedule.len()
    );

    // Minimality in the tight sense: cutting the last step yields a clean
    // (possibly non-terminal) run.
    let (prefix, _) = cx.schedule.split_at(cx.schedule.len() - 1);
    replay(p, prefix).unwrap_or_else(|(i, m)| {
        panic!("{what}: prefix must be clean, but step {i} violated: {m}")
    });
    cx
}

#[test]
fn drop_release_on_install_is_caught() {
    let mut p = snapshot::Snapshot::new(1, 1, 2, snapshot::ReaderPath::LockFree);
    p.mutation = Some(snapshot::Mutation::DropRelease);
    let cx = assert_caught(&p, "DropRelease");
    // The violation is precisely the RCU guarantee the Release ordering
    // carries: a reader saw the new epoch but stale slot contents.
    assert!(
        cx.message.contains("stale install visible"),
        "unexpected violation: {}",
        cx.message
    );

    // The unmutated protocol verifies clean — the catch is the mutation's.
    let clean = snapshot::Snapshot::new(1, 1, 2, snapshot::ReaderPath::LockFree);
    explore(&clean, &ExploreConfig::exhaustive()).expect("unmutated snapshot model is correct");
}

#[test]
fn torn_two_step_epoch_publish_is_caught() {
    // A 255 -> 256 epoch install crosses the low-byte boundary, so the
    // two-half-stores mutation exposes an intermediate value (0) that a
    // reader can observe as a backwards epoch.
    let mut p = snapshot::Snapshot::new(1, 0, 0, snapshot::ReaderPath::Locked);
    p.initial_epoch = 255;
    p.mutation = Some(snapshot::Mutation::TornEpoch);
    let cx = assert_caught(&p, "TornEpoch");
    assert!(
        cx.message.contains("BACKWARDS"),
        "unexpected violation: {}",
        cx.message
    );
}

#[test]
fn lost_cas_retry_is_caught() {
    let mut p = topk::TopK::new(1, [vec![0.9f64.to_bits()], vec![0.5f64.to_bits()]]);
    p.mutation = Some(topk::Mutation::LostCasRetry);
    let cx = assert_caught(&p, "LostCasRetry");
    // Giving up on a failed raise-CAS loses exactly the update whose
    // absence the exactness invariant measures.
    assert!(
        cx.message.contains("exact k-th best"),
        "unexpected violation: {}",
        cx.message
    );

    let clean = topk::TopK::new(1, [vec![0.9f64.to_bits()], vec![0.5f64.to_bits()]]);
    explore(&clean, &ExploreConfig::exhaustive()).expect("unmutated register is correct");
}

#[test]
fn missing_fsync_before_rename_is_caught() {
    // Two generations through the same destination: the second write
    // rotates the (unsynced, hence possibly-torn) first generation into
    // the .bak slot, and a crash in the publish window then has no
    // loadable generation anywhere — exactly the bug class fsync-before-
    // rename exists to kill.
    let mut p = crashwrite::CrashWrite::new(vec![vec![2, 3]]);
    p.mutation = Some(crashwrite::Mutation::SkipFsync);
    let cx = assert_caught(&p, "SkipFsync");
    assert!(
        cx.message.contains("no loadable generation"),
        "unexpected violation: {}",
        cx.message
    );

    let clean = crashwrite::CrashWrite::new(vec![vec![2, 3]]);
    explore(&clean, &ExploreConfig::exhaustive()).expect("unmutated writer is crash-safe");
}

#[test]
fn failing_on_a_lost_rotate_race_is_caught() {
    // Both writers pass the exists() check; writer A rotates dest away,
    // then writer B's rotate finds nothing. The pre-fix attempt() returned
    // that NotFound, so a perfectly good concurrent write failed.
    let mut p = crashwrite::CrashWrite::new(vec![vec![2], vec![3]]);
    p.mutation = Some(crashwrite::Mutation::FailOnRotateRace);
    let cx = assert_caught(&p, "FailOnRotateRace");
    assert!(
        cx.message.contains("lost the rotate race"),
        "unexpected violation: {}",
        cx.message
    );
    // Four steps to each writer's check (create, write, fsync, check),
    // then A's rotate and B's failing one: nothing shorter loses the race.
    assert_eq!(
        cx.schedule.len(),
        10,
        "minimal counterexample drifted: {:?}\n{}",
        cx.schedule,
        cx
    );

    let clean = crashwrite::CrashWrite::new(vec![vec![2], vec![3]]);
    explore(&clean, &ExploreConfig::exhaustive()).expect("unmutated writers never fail");
}

#[test]
fn queue_slot_reused_before_drain_is_caught() {
    // Two workers race the unlocked peek-then-remove: both observe the
    // same front job, both "complete" it — the exactly-once invariant
    // counts the double fulfillment.
    let mut p = admission::Admission::new(vec![false, false], 2, 2);
    p.mutation = Some(admission::Mutation::UnlockedDequeue);
    let cx = assert_caught(&p, "UnlockedDequeue");
    assert!(
        cx.message.contains("fulfilled 2 times"),
        "unexpected violation: {}",
        cx.message
    );

    let clean = admission::Admission::new(vec![false, false], 2, 2);
    explore(&clean, &ExploreConfig::exhaustive()).expect("unmutated lifecycle is exactly-once");
}

#[test]
fn double_respond_after_torn_write_is_caught() {
    // The fault injector arms a torn write; the mutated handler treats
    // the failed response write as retryable and re-serializes onto the
    // same connection. The answered-exactly-once invariant counts the
    // second write start — the peer already holds a prefix of the first
    // frame, so anything after it is wire garbage.
    let mut p = connection::Connection::new(1, false, true);
    p.mutation = Some(connection::Mutation::DoubleRespond);
    let cx = assert_caught(&p, "DoubleRespond");
    assert!(
        cx.message.contains("response write started 2 times"),
        "unexpected violation: {}",
        cx.message
    );
    // The minimal schedule is pinned: client sends the request (2 steps),
    // the injector arms the tear, the handler admits and starts the write
    // twice — 7 steps, nothing shorter reaches a second write start.
    assert_eq!(
        cx.schedule.len(),
        7,
        "minimal counterexample drifted: {:?}\n{}",
        cx.schedule,
        cx
    );

    let clean = connection::Connection::new(1, false, true);
    explore(&clean, &ExploreConfig::exhaustive())
        .expect("unmutated connection loop is answered-exactly-once-or-dropped");
}
