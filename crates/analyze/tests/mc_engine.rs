//! Engine contracts, proven on toy protocols small enough to reason about
//! by hand: exhaustive enumeration really is exhaustive (the path-count DP
//! matches the binomial closed form for two threads of local steps),
//! sleep-set reduction reaches the same verdict and the same states with
//! fewer schedules, counterexamples are *minimal* and replay deterministically,
//! nondeterministic successors each get their own branch, and the state
//! budget degrades to a reported truncation instead of a wrong verdict.

use hmmm_analyze::mc::engine::{
    explore, replay, Access, ExploreConfig, Protocol, Reduction,
};

/// Two threads, each incrementing a shared counter. `atomic` selects the
/// implementation: a single atomic fetch_add step per thread, or the
/// classic racy read-then-write pair (load into a local, then store
/// local + 1) whose lost update the checker must find.
struct Counter {
    atomic: bool,
}

/// (counter, per-thread pc, per-thread local). pc: 0 = before the
/// read/fetch_add, 1 = between read and write (racy only), 2 = done.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CounterState {
    counter: u64,
    pc: [u8; 2],
    local: [u64; 2],
}

impl Protocol for Counter {
    type State = CounterState;

    fn threads(&self) -> usize {
        2
    }

    fn initial(&self) -> CounterState {
        CounterState {
            counter: 0,
            pc: [0; 2],
            local: [0; 2],
        }
    }

    fn step(&self, s: &CounterState, tid: usize) -> Vec<CounterState> {
        let mut n = s.clone();
        match s.pc[tid] {
            0 if self.atomic => {
                n.counter += 1;
                n.pc[tid] = 2;
                vec![n]
            }
            0 => {
                n.local[tid] = s.counter;
                n.pc[tid] = 1;
                vec![n]
            }
            1 => {
                n.counter = s.local[tid] + 1;
                n.pc[tid] = 2;
                vec![n]
            }
            _ => vec![],
        }
    }

    fn access(&self, s: &CounterState, tid: usize) -> Option<Access> {
        match s.pc[tid] {
            0 if self.atomic => Some(Access::write(0)),
            0 => Some(Access::read(0)),
            1 => Some(Access::write(0)),
            _ => None,
        }
    }

    fn check_step(&self, b: &CounterState, a: &CounterState, _tid: usize) -> Result<(), String> {
        if a.counter < b.counter {
            return Err(format!("counter went backwards {} -> {}", b.counter, a.counter));
        }
        Ok(())
    }

    fn check_final(&self, s: &CounterState) -> Result<(), String> {
        if s.counter != 2 {
            return Err(format!("both increments done but counter = {}", s.counter));
        }
        Ok(())
    }

    fn describe_step(&self, s: &CounterState, tid: usize) -> String {
        match s.pc[tid] {
            0 if self.atomic => format!("thread {tid}: fetch_add(1)"),
            0 => format!("thread {tid}: load counter ({})", s.counter),
            1 => format!("thread {tid}: store {} + 1", s.local[tid]),
            _ => format!("thread {tid}: done"),
        }
    }
}

#[test]
fn atomic_counter_verifies_under_both_reductions() {
    let p = Counter { atomic: true };
    let none = explore(&p, &ExploreConfig::exhaustive()).expect("atomic counter is correct");
    // Two single-step threads: exactly the 2 orders, C(2,1) = 2.
    assert_eq!(none.schedules, 2);
    assert_eq!(none.finals, 1);
    assert!(!none.truncated);

    let sleep = explore(
        &p,
        &ExploreConfig {
            reduction: Reduction::SleepSet,
            max_states: None,
        },
    )
    .expect("same verdict under sleep sets");
    // Both fetch_adds hit the same object, so nothing commutes and no
    // schedule is pruned — the reduction must not *invent* independence.
    assert_eq!(sleep.schedules, 2);
    assert_eq!(sleep.states, none.states);
}

#[test]
fn racy_counter_yields_minimal_replayable_counterexample() {
    let p = Counter { atomic: false };
    let cx = *explore(&p, &ExploreConfig::exhaustive()).expect_err("lost update must be found");
    assert!(
        cx.message.contains("counter = 1"),
        "the lost update shows as a final count of 1: {}",
        cx.message
    );
    // The shortest violating schedule is all four steps (the violation is
    // a final-state one; BFS cannot do better than terminal length).
    assert_eq!(cx.schedule.len(), 4, "minimal schedule: {:?}", cx.schedule);
    assert_eq!(cx.trace.len(), 4);

    // Deterministic replay lands on the same violation at the same index.
    let (at, msg) = replay(&p, &cx.schedule).expect_err("replay reproduces");
    assert_eq!(at, cx.schedule.len());
    assert_eq!(msg, cx.message);

    // Every proper prefix is clean — the violation really is at the end.
    let (prefix, _) = cx.schedule.split_at(cx.schedule.len() - 1);
    replay(&p, prefix).expect("prefix of a minimal counterexample is clean");
}

#[test]
fn racy_counter_same_verdict_under_sleep_sets() {
    let p = Counter { atomic: false };
    let cfg = ExploreConfig {
        reduction: Reduction::SleepSet,
        max_states: None,
    };
    let cx = *explore(&p, &cfg).expect_err("reduction must not mask the race");
    assert!(cx.message.contains("counter = 1"));
}

/// One thread, one genuinely nondeterministic step with three successors
/// (a coin with three faces) followed by a deterministic step. Checks the
/// choice index in schedules and the per-branch accounting.
struct Coin;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CoinState {
    face: Option<u8>,
    stamped: bool,
}

impl Protocol for Coin {
    type State = CoinState;

    fn threads(&self) -> usize {
        1
    }

    fn initial(&self) -> CoinState {
        CoinState {
            face: None,
            stamped: false,
        }
    }

    fn step(&self, s: &CoinState, _tid: usize) -> Vec<CoinState> {
        match (s.face, s.stamped) {
            (None, _) => (0..3)
                .map(|f| CoinState {
                    face: Some(f),
                    stamped: false,
                })
                .collect(),
            (Some(f), false) => vec![CoinState {
                face: Some(f),
                stamped: true,
            }],
            _ => vec![],
        }
    }

    fn access(&self, _s: &CoinState, _tid: usize) -> Option<Access> {
        None
    }

    fn check_step(&self, _b: &CoinState, _a: &CoinState, _tid: usize) -> Result<(), String> {
        Ok(())
    }

    fn check_final(&self, s: &CoinState) -> Result<(), String> {
        // Face 2 is "illegal" — exercised by the counterexample test.
        if s.face == Some(2) {
            return Err("coin landed on the forbidden face 2".to_string());
        }
        Ok(())
    }
}

#[test]
fn nondeterministic_successors_each_get_a_branch() {
    let cx = *explore(&Coin, &ExploreConfig::exhaustive()).expect_err("face 2 is reachable");
    // The minimal schedule must pick successor index 2 at the first step.
    assert_eq!(cx.schedule[0], (0, 2));
    // Replay of the *other* branches is clean and terminal.
    let states = replay(&Coin, &[(0, 0), (0, 0)]).expect("face 0 branch is legal");
    assert_eq!(states.last().unwrap().face, Some(0));
}

#[test]
fn replay_rejects_inapplicable_schedules() {
    let p = Counter { atomic: true };
    // Thread 0 finishes in one step; a second step by it is inapplicable.
    let (at, msg) = replay(&p, &[(0, 0), (0, 0)]).expect_err("thread 0 is done");
    assert_eq!(at, 1);
    assert!(msg.contains("not applicable"), "{msg}");
    // Successor index out of range is rejected the same way.
    let (at, msg) = replay(&p, &[(0, 5)]).expect_err("only one successor");
    assert_eq!(at, 0);
    assert!(msg.contains("not applicable"), "{msg}");
}

#[test]
fn state_budget_truncates_with_explicit_flag() {
    let p = Counter { atomic: false };
    // A 2-state budget cannot cover the racy counter's graph; instead of
    // a wrong verdict the report must carry the truncation flag. (The
    // violation may legitimately go unfound within the budget.)
    match explore(&p, &ExploreConfig::bounded(2)) {
        Ok(r) => assert!(r.truncated, "budget exhausted must be reported"),
        Err(cx) => assert!(!cx.message.is_empty(), "a found violation is also fine"),
    }
}

/// Independence actually prunes: two threads touching *different* objects
/// commute, so sleep sets explore half the schedules of the exhaustive
/// run while visiting the same states.
struct Disjoint;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct DisjointState {
    cells: [u64; 2],
    done: [bool; 2],
}

impl Protocol for Disjoint {
    type State = DisjointState;

    fn threads(&self) -> usize {
        2
    }

    fn initial(&self) -> DisjointState {
        DisjointState {
            cells: [0; 2],
            done: [false; 2],
        }
    }

    fn step(&self, s: &DisjointState, tid: usize) -> Vec<DisjointState> {
        if s.done[tid] {
            return vec![];
        }
        let mut n = s.clone();
        n.cells[tid] = 7;
        n.done[tid] = true;
        vec![n]
    }

    fn access(&self, _s: &DisjointState, tid: usize) -> Option<Access> {
        Some(Access::write(tid))
    }

    fn check_step(&self, _b: &DisjointState, _a: &DisjointState, _tid: usize) -> Result<(), String> {
        Ok(())
    }

    fn check_final(&self, s: &DisjointState) -> Result<(), String> {
        if s.cells != [7, 7] {
            return Err(format!("writes lost: {:?}", s.cells));
        }
        Ok(())
    }
}

#[test]
fn sleep_sets_prune_commuting_schedules_only() {
    let none = explore(&Disjoint, &ExploreConfig::exhaustive()).unwrap();
    assert_eq!(none.schedules, 2);
    let sleep = explore(
        &Disjoint,
        &ExploreConfig {
            reduction: Reduction::SleepSet,
            max_states: None,
        },
    )
    .unwrap();
    // The two orders commute; one representative suffices.
    assert_eq!(sleep.schedules, 1);
    // Every reachable state is still entered (the pruned order's interior
    // state is visited before its sleeping successor is cut), so the
    // invariant coverage is identical.
    assert_eq!(sleep.states, none.states);
}

/// Two threads of `lens[0]` and `lens[1]` purely local steps. Nothing is
/// shared, so every interleaving is a distinct complete schedule and the
/// exhaustive count has a closed form: `C(m + n, m)` for lengths `m` and
/// `n`. The state graph is the `(m + 1) × (n + 1)` grid of program-counter
/// pairs, which memoization collapses while the path-count DP still has to
/// sum every path through it.
struct LocalSteps {
    lens: [u8; 2],
}

impl Protocol for LocalSteps {
    /// Each thread's program counter (steps taken so far).
    type State = [u8; 2];

    fn threads(&self) -> usize {
        2
    }

    fn initial(&self) -> [u8; 2] {
        [0; 2]
    }

    fn step(&self, s: &[u8; 2], tid: usize) -> Vec<[u8; 2]> {
        if s[tid] == self.lens[tid] {
            return vec![];
        }
        let mut n = *s;
        n[tid] += 1;
        vec![n]
    }

    fn access(&self, _s: &[u8; 2], _tid: usize) -> Option<Access> {
        None
    }

    fn check_step(&self, _b: &[u8; 2], _a: &[u8; 2], _tid: usize) -> Result<(), String> {
        Ok(())
    }

    fn check_final(&self, s: &[u8; 2]) -> Result<(), String> {
        if *s != self.lens {
            return Err(format!("terminal state {s:?} before both threads finished"));
        }
        Ok(())
    }
}

/// `C(n, k)` by the multiplicative formula (exact at every step).
fn binomial(n: u128, k: u128) -> u128 {
    (1..=k).fold(1, |acc, i| acc * (n - k + i) / i)
}

#[test]
fn local_step_schedules_match_the_binomial_closed_form() {
    for (m, n, pinned) in [
        (3u8, 5u8, 56u128),
        (12, 12, 2_704_156),
        (1, 1, 2),
        (0, 4, 1),
    ] {
        assert_eq!(
            binomial(u128::from(m) + u128::from(n), u128::from(m)),
            pinned
        );
        let r = explore(&LocalSteps { lens: [m, n] }, &ExploreConfig::exhaustive()).unwrap();
        assert_eq!(r.schedules, pinned, "C({}, {m})", m + n);
        let (m, n) = (usize::from(m), usize::from(n));
        // The grid of program-counter pairs, each entered once; one edge
        // per enabled thread per state; one terminal state.
        assert_eq!(r.states, (m + 1) * (n + 1));
        assert_eq!(r.transitions, m * (n + 1) + n * (m + 1));
        assert_eq!(r.memo_hits, r.transitions + 1 - r.states);
        assert_eq!(r.finals, 1);
        assert!(!r.truncated);
    }
}

#[test]
fn sleep_sets_keep_one_representative_of_local_steps() {
    // Local steps commute with everything, so all C(m + n, m) orders are
    // one equivalence class: the reduction explores a single complete
    // schedule, yet still enters every state of the grid.
    for (m, n) in [(3u8, 5u8), (12, 12)] {
        let p = LocalSteps { lens: [m, n] };
        let none = explore(&p, &ExploreConfig::exhaustive()).unwrap();
        let sleep = explore(
            &p,
            &ExploreConfig {
                reduction: Reduction::SleepSet,
                max_states: None,
            },
        )
        .unwrap();
        assert_eq!(sleep.schedules, 1, "lengths ({m}, {n})");
        assert_eq!(sleep.states, none.states);
        assert_eq!(sleep.finals, 1);
    }
}
