//! The model-checking engine: a [`Protocol`] trait plus a memoized
//! depth-first explorer with optional sleep-set partial-order reduction
//! and deterministic minimal-counterexample replay.
//!
//! A protocol is a finite-state concurrent system: `N` threads, each a
//! per-thread step state machine, sharing memory whose every access is one
//! explicit step. The engine drives scheduling — at every global state it
//! tries every thread's next step (and, for steps with genuine
//! nondeterminism such as weak-memory stale reads or crash points, every
//! successor of that step) — and checks the protocol's invariants on every
//! transition and every terminal state. States are memoized, so the search
//! visits every reachable configuration once while still counting the
//! distinct complete schedules the state graph represents (monotone shared
//! state ⇒ the graph is a DAG ⇒ memoized DFS terminates and the path-count
//! DP is exact).
//!
//! # Exploration modes
//!
//! * [`Reduction::None`] — plain exhaustive exploration. Schedule counts
//!   are exact (`schedules` = number of distinct complete interleavings);
//!   `tests/mc_engine.rs` pins them against the binomial closed form.
//! * [`Reduction::SleepSet`] — sleep-set partial-order reduction
//!   (Godefroid): after exploring thread `t` at a state, sibling branches
//!   carry `t` in their sleep set for as long as `t`'s pending step is
//!   *independent* of the steps taken (two steps are independent when
//!   [`Protocol::access`] shows they touch different shared objects, or
//!   the same object read-only). Every reachable state is still visited —
//!   independent steps commute, so a pruned interleaving's states all
//!   appear on the explored representative — but redundant orderings are
//!   skipped, and `schedules` counts explored representatives only.
//!
//! # Counterexamples
//!
//! When an invariant fails the engine does not report the (arbitrary) DFS
//! path that found it: it re-searches breadth-first and returns the
//! *shortest* violating schedule, as explicit `(thread, successor-choice)`
//! pairs, together with a rendered state trace. [`replay`] re-executes a
//! schedule step by step — the mutation tests use it to prove every
//! counterexample is deterministic and lands on the same violation.

use std::collections::BTreeMap;

/// One shared-memory access, as reported by [`Protocol::access`] for
/// independence-based reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Opaque shared-object id (protocol-chosen; e.g. "the admission
    /// mutex+queue" = 0, "job 3's response slot" = 4).
    pub object: usize,
    /// Whether the step may write the object. Two reads of the same
    /// object are independent; anything else on the same object is not.
    pub write: bool,
}

impl Access {
    /// A read access of `object`.
    pub fn read(object: usize) -> Self {
        Access {
            object,
            write: false,
        }
    }

    /// A write (or read-modify-write) access of `object`.
    pub fn write(object: usize) -> Self {
        Access {
            object,
            write: true,
        }
    }
}

/// A model-checkable concurrent protocol. See the module docs for the
/// contract; `docs/ANALYSIS.md` walks through modeling a new one.
///
/// Requirements the engine relies on:
///
/// * **One shared access per step.** Each [`Protocol::step`] may touch at
///   most one shared object (atomic load/CAS, one mutex-guarded region,
///   one filesystem op). Splitting finer than the real implementation's
///   atomicity is sound (more interleavings); merging coarser hides races.
/// * **Finite and acyclic-by-progress.** Some monotone component of the
///   state (queue drained, offers consumed, installs completed) must grow
///   on every cycle through a thread's program counter, so the reachable
///   graph is a finite DAG and the exploration terminates.
/// * **Determinism per successor.** `step` returns *all* successors of the
///   one step; replaying choice `i` must always yield the same state.
pub trait Protocol {
    /// Global state: shared memory plus every thread's program counter.
    /// `Ord` is required for memoization; keep the representation
    /// canonical (no incidental fields that differ between equivalent
    /// states, or the state count inflates).
    type State: Clone + Ord + std::fmt::Debug;

    /// Number of threads (fixed for the protocol instance).
    fn threads(&self) -> usize;

    /// The initial global state.
    fn initial(&self) -> Self::State;

    /// All successor states of one atomic step by `tid` at `state`.
    /// Empty means the thread is disabled here (finished, or blocked on a
    /// mutex/condvar). Multiple successors model genuine nondeterminism —
    /// a weak-memory read that may return a stale value, a crash that may
    /// durably keep any prefix of pending writes — and each is scheduled
    /// as its own branch.
    fn step(&self, state: &Self::State, tid: usize) -> Vec<Self::State>;

    /// The shared object `tid`'s next step would touch at `state`
    /// (`None` = purely thread-local). Only consulted under
    /// [`Reduction::SleepSet`]; a conservative `Some(Access::write(0))`
    /// for everything disables reduction without affecting soundness.
    fn access(&self, state: &Self::State, tid: usize) -> Option<Access>;

    /// Invariant checked on every explored transition.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    fn check_step(
        &self,
        before: &Self::State,
        after: &Self::State,
        tid: usize,
    ) -> Result<(), String>;

    /// Invariant checked at every terminal state (no thread enabled).
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    fn check_final(&self, state: &Self::State) -> Result<(), String>;

    /// One-line description of `tid`'s pending step at `state`, used in
    /// counterexample traces.
    fn describe_step(&self, state: &Self::State, tid: usize) -> String {
        let _ = state;
        format!("thread {tid} steps")
    }
}

/// Exploration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Exhaustive: every interleaving's state graph edge is walked and
    /// `schedules` is the exact count of complete interleavings.
    #[default]
    None,
    /// Sleep-set partial-order reduction: redundant orderings of
    /// independent steps are pruned. Every reachable state is still
    /// visited and every invariant still checked; `schedules` counts the
    /// explored representatives only.
    SleepSet,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreConfig {
    /// Reduction strategy (default exhaustive).
    pub reduction: Reduction,
    /// State budget for the quick CI mode: once this many distinct states
    /// have been memoized, unexplored frontiers are cut and the report is
    /// marked [`McReport::truncated`] (a "no violation found within
    /// budget" verdict, not a proof). `None` = exhaustive.
    pub max_states: Option<usize>,
}

impl ExploreConfig {
    /// Exhaustive exploration (no reduction, no budget).
    pub fn exhaustive() -> Self {
        ExploreConfig::default()
    }

    /// Bounded exploration for the quick PR gate.
    pub fn bounded(max_states: usize) -> Self {
        ExploreConfig {
            reduction: Reduction::None,
            max_states: Some(max_states),
        }
    }
}

/// What one exploration did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McReport {
    /// Distinct reachable states memoized.
    pub states: usize,
    /// Transitions walked (state × enabled-thread × successor edges).
    pub transitions: usize,
    /// Memo hits — edges that landed on an already-explored state. The
    /// gap between `transitions` and `states` is the sharing the
    /// memoization exploits; CI prints both so state-space growth stays
    /// visible across PRs.
    pub memo_hits: usize,
    /// Terminal states reached (each passed [`Protocol::check_final`]).
    pub finals: usize,
    /// Complete schedules covered: exact under [`Reduction::None`],
    /// explored representatives under [`Reduction::SleepSet`].
    pub schedules: u128,
    /// `true` when the state budget cut the exploration short.
    pub truncated: bool,
}

/// A minimal violating schedule, deterministic and replayable.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated invariant, as the protocol reported it.
    pub message: String,
    /// Scheduler choices from the initial state: `(thread, successor
    /// index)` per step. The last step is the violating one (for
    /// final-state violations, the schedule reaches the terminal state).
    pub schedule: Vec<(usize, usize)>,
    /// Human-readable step descriptions along the schedule.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.message)?;
        writeln!(f, "minimal schedule ({} steps):", self.schedule.len())?;
        for (i, line) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:>3}. {line}")?;
        }
        Ok(())
    }
}

/// Sleep sets are thread bitmasks; protocols are small (≤ 64 threads).
type SleepMask = u64;

struct Engine<'p, P: Protocol> {
    protocol: &'p P,
    config: ExploreConfig,
    /// Memo: (state, sleep mask) → schedules below. The mask is always 0
    /// under [`Reduction::None`], collapsing to plain state memoization.
    memo: BTreeMap<(P::State, SleepMask), u128>,
    /// Distinct states seen (the budgeted quantity; sleep-set variants of
    /// one state count once).
    seen: std::collections::BTreeSet<P::State>,
    transitions: usize,
    memo_hits: usize,
    finals: usize,
    truncated: bool,
    violation: Option<String>,
}

impl<'p, P: Protocol> Engine<'p, P> {
    fn independent(a: Option<Access>, b: Option<Access>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => a.object != b.object || (!a.write && !b.write),
            _ => true, // a local step is independent of everything
        }
    }

    fn dfs(&mut self, state: &P::State, sleep: SleepMask) -> u128 {
        if self.violation.is_some() {
            return 0;
        }
        if let Some(&n) = self.memo.get(&(state.clone(), sleep)) {
            self.memo_hits += 1;
            return n;
        }
        if let Some(budget) = self.config.max_states {
            if self.seen.len() >= budget && !self.seen.contains(state) {
                self.truncated = true;
                return 0;
            }
        }
        self.seen.insert(state.clone());

        let n_threads = self.protocol.threads();
        let mut schedules = 0u128;
        let mut any_enabled = false;
        let mut explored: Vec<usize> = Vec::new();
        for tid in 0..n_threads {
            let succs = self.protocol.step(state, tid);
            if succs.is_empty() {
                continue;
            }
            any_enabled = true;
            if sleep & (1 << tid) != 0 {
                continue; // asleep: this ordering is covered elsewhere
            }
            let my_access = self.protocol.access(state, tid);
            for succ in succs {
                self.transitions += 1;
                if let Err(msg) = self.protocol.check_step(state, &succ, tid) {
                    self.violation = Some(msg);
                    return 0;
                }
                // Successor sleep set: previously-explored siblings (and
                // inherited sleepers) stay asleep only while their pending
                // step is independent of the one we just took.
                let child_sleep = match self.config.reduction {
                    Reduction::None => 0,
                    Reduction::SleepSet => {
                        let mut mask = 0u64;
                        for &other in &explored {
                            if Self::independent(
                                self.protocol.access(state, other),
                                my_access,
                            ) {
                                mask |= 1 << other;
                            }
                        }
                        for other in 0..n_threads {
                            if sleep & (1 << other) != 0
                                && Self::independent(
                                    self.protocol.access(state, other),
                                    my_access,
                                )
                            {
                                mask |= 1 << other;
                            }
                        }
                        mask
                    }
                };
                schedules = schedules.saturating_add(self.dfs(&succ, child_sleep));
                if self.violation.is_some() {
                    return 0;
                }
            }
            explored.push(tid);
        }
        if !any_enabled {
            if let Err(msg) = self.protocol.check_final(state) {
                self.violation = Some(msg);
                return 0;
            }
            self.finals += 1;
            schedules = 1;
        }
        self.memo.insert((state.clone(), sleep), schedules);
        schedules
    }
}

/// Explores `protocol` under `config`.
///
/// # Errors
///
/// The first invariant violation, upgraded to a *minimal* counterexample:
/// the engine re-searches breadth-first for the shortest violating
/// schedule and returns it with a rendered trace.
pub fn explore<P: Protocol>(
    protocol: &P,
    config: &ExploreConfig,
) -> Result<McReport, Box<Counterexample>> {
    assert!(
        protocol.threads() <= 64,
        "sleep masks hold at most 64 threads"
    );
    let mut engine = Engine {
        protocol,
        config: *config,
        memo: BTreeMap::new(),
        seen: std::collections::BTreeSet::new(),
        transitions: 0,
        memo_hits: 0,
        finals: 0,
        truncated: false,
        violation: None,
    };
    let initial = protocol.initial();
    let schedules = engine.dfs(&initial, 0);
    if engine.violation.is_some() {
        return Err(Box::new(minimal_counterexample(protocol).unwrap_or_else(
            || Counterexample {
                message: engine.violation.clone().unwrap_or_default(),
                schedule: Vec::new(),
                trace: vec!["(BFS re-search found no violation — \
                             nondeterministic protocol?)"
                    .into()],
            },
        )));
    }
    Ok(McReport {
        states: engine.seen.len(),
        transitions: engine.transitions,
        memo_hits: engine.memo_hits,
        finals: engine.finals,
        schedules,
        truncated: engine.truncated,
    })
}

/// Breadth-first search for the *shortest* violating schedule. Returns
/// `None` when no reachable transition or terminal state violates (used
/// by `explore` only after the DFS already found a violation, so `Some`
/// is the expected outcome).
pub fn minimal_counterexample<P: Protocol>(protocol: &P) -> Option<Counterexample> {
    // Predecessor map: state → (parent, tid, choice). BFS order makes the
    // first recorded path to any state a shortest one.
    let initial = protocol.initial();
    let mut parent: BTreeMap<P::State, (P::State, usize, usize)> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    let mut visited = std::collections::BTreeSet::new();
    visited.insert(initial.clone());
    queue.push_back(initial.clone());

    let rebuild = |parent: &BTreeMap<P::State, (P::State, usize, usize)>,
                   mut state: P::State,
                   tail: Option<(P::State, usize, usize)>|
     -> Counterexample {
        let mut steps: Vec<(P::State, usize, usize)> = Vec::new();
        if let Some((before, tid, choice)) = tail {
            state = before.clone();
            steps.push((before, tid, choice));
        }
        while let Some((prev, tid, choice)) = parent.get(&state) {
            steps.push((prev.clone(), *tid, *choice));
            state = prev.clone();
        }
        steps.reverse();
        let schedule: Vec<(usize, usize)> =
            steps.iter().map(|(_, tid, choice)| (*tid, *choice)).collect();
        let trace: Vec<String> = steps
            .iter()
            .map(|(at, tid, choice)| {
                let desc = protocol.describe_step(at, *tid);
                if *choice == 0 {
                    desc
                } else {
                    format!("{desc} [outcome {choice}]")
                }
            })
            .collect();
        Counterexample {
            message: String::new(),
            schedule,
            trace,
        }
    };

    while let Some(state) = queue.pop_front() {
        let mut any_enabled = false;
        for tid in 0..protocol.threads() {
            let succs = protocol.step(&state, tid);
            if !succs.is_empty() {
                any_enabled = true;
            }
            for (choice, succ) in succs.into_iter().enumerate() {
                if let Err(msg) = protocol.check_step(&state, &succ, tid) {
                    let mut cx =
                        rebuild(&parent, succ, Some((state.clone(), tid, choice)));
                    cx.message = msg;
                    return Some(cx);
                }
                if visited.insert(succ.clone()) {
                    parent.insert(succ.clone(), (state.clone(), tid, choice));
                    queue.push_back(succ);
                }
            }
        }
        if !any_enabled {
            if let Err(msg) = protocol.check_final(&state) {
                let mut cx = rebuild(&parent, state, None);
                cx.message = msg;
                return Some(cx);
            }
        }
    }
    None
}

/// Replays `schedule` from the initial state, re-checking every invariant.
/// Returns the visited states (initial first) on a clean run.
///
/// # Errors
///
/// `(step index, message)` — either the schedule is inapplicable (thread
/// disabled, successor index out of range) or an invariant fired at that
/// step. A [`Counterexample::schedule`] must replay to an `Err` at its
/// last index with the same message; the mutation tests assert exactly
/// that.
pub fn replay<P: Protocol>(
    protocol: &P,
    schedule: &[(usize, usize)],
) -> Result<Vec<P::State>, (usize, String)> {
    let mut states = vec![protocol.initial()];
    for (i, &(tid, choice)) in schedule.iter().enumerate() {
        let current = states.last().expect("states nonempty").clone();
        let succs = protocol.step(&current, tid);
        let Some(next) = succs.get(choice) else {
            return Err((
                i,
                format!(
                    "schedule step {i} not applicable: thread {tid} has {} \
                     successors, wanted index {choice}",
                    succs.len()
                ),
            ));
        };
        protocol
            .check_step(&current, next, tid)
            .map_err(|msg| (i, msg))?;
        states.push(next.clone());
    }
    // A schedule that ends on a terminal state re-checks the final
    // invariant too (final-state counterexamples violate here).
    let last = states.last().expect("states nonempty");
    let terminal = (0..protocol.threads()).all(|tid| protocol.step(last, tid).is_empty());
    if terminal {
        protocol
            .check_final(last)
            .map_err(|msg| (schedule.len(), msg))?;
    }
    Ok(states)
}
