//! The `SharedTopK` CAS protocol as an [`engine`](super::engine) model.
//!
//! `crates/core/src/topk.rs` keeps the k-th-best-score prune threshold in
//! a lock-free register: `offer()` scans the slot array for its minimum,
//! CASes the new score over it, rescans, and CAS-raises the cached
//! threshold. Its safety arguments — the threshold **never decreases**
//! and **no successful offer is lost** — are statements about *all*
//! interleavings. The state machine here performs one shared access per
//! step (each slot load of the min-scan, the slot CAS, the threshold
//! load, the threshold CAS). `crates/analyze/tests/interleave.rs` pins
//! every [`standard_scenarios`] entry's state, transition, final and
//! schedule counts, so any change to the step structure shows up there.
//!
//! Invariants:
//!
//! 1. **Monotonicity** — the threshold never decreases.
//! 2. **Admissibility** — the threshold never exceeds the k-th best score
//!    among offers that have *started*.
//! 3. **Slot provenance** — non-zero slot values are always a
//!    sub-multiset of the started offers.
//! 4. **Lost-update freedom** — final slots are exactly the top-k
//!    multiset and the final threshold is the exact k-th best.

use super::engine::{Access, Protocol};

/// Shared memory of the modelled register: slot bit patterns plus the
/// cached threshold, exactly as in `SharedTopK`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Shared {
    /// Score bit patterns (`f64::to_bits`), zero = empty.
    pub slots: Vec<u64>,
    /// Cached k-th-best threshold bits.
    pub threshold: u64,
}

/// Program counter inside one `offer(bits)` call. Each variant performs
/// exactly one shared access when stepped (except `Idle`, the scheduling
/// point between offers).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pc {
    /// Between offers: the next step begins `offers[offer]` (no shared
    /// access) or, with the queue drained, the thread is done.
    Idle,
    /// About to load `slots[i]` in the min-scan. `after_cas` marks the
    /// post-CAS rescan whose minimum feeds the final raise.
    Scan {
        /// Slot index about to be loaded.
        i: usize,
        /// Index of the minimum seen so far.
        min_idx: usize,
        /// Minimum value seen so far.
        min: u64,
        /// Whether this is the post-CAS rescan.
        after_cas: bool,
    },
    /// About to `compare_exchange(slots[idx], expected → bits)`.
    SlotCas {
        /// Target slot.
        idx: usize,
        /// Expected (previously loaded) value.
        expected: u64,
    },
    /// About to load the threshold inside `raise_threshold(candidate)`.
    RaiseLoad {
        /// Value to publish.
        candidate: u64,
    },
    /// About to `compare_exchange_weak(threshold, observed → candidate)`.
    RaiseCas {
        /// Value to publish.
        candidate: u64,
        /// Threshold value loaded before the CAS.
        observed: u64,
    },
}

/// One modelled thread: its offer-queue position and program counter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Thread {
    /// Index of the next (or in-flight) offer in this thread's queue.
    pub offer: usize,
    /// Where inside `offer()` the thread is.
    pub pc: Pc,
}

/// Global state: the register plus both threads.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct State {
    /// The shared register.
    pub shared: Shared,
    /// Both threads' program counters.
    pub threads: [Thread; 2],
}

/// Seeded defects for the mutation-testing suite (`None` = faithful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// A failed threshold CAS gives up instead of retrying — the
    /// lost-update bug the `compare_exchange_weak` while-loop exists to
    /// prevent. Caught by invariant 4 (final threshold below the exact
    /// k-th best).
    LostCasRetry,
}

/// The `SharedTopK` protocol instance: capacity, per-thread offer queues
/// (bit domain), and an optional seeded mutation.
#[derive(Debug, Clone)]
pub struct TopK {
    /// Register capacity `k`.
    pub k: usize,
    /// Per-thread offer queues as score bits.
    pub offers: [Vec<u64>; 2],
    /// Seeded defect, `None` for the faithful model.
    pub mutation: Option<Mutation>,
}

impl TopK {
    /// A faithful model of `SharedTopK::offer` for the given scenario.
    pub fn new(k: usize, offers: [Vec<u64>; 2]) -> Self {
        TopK {
            k,
            offers,
            mutation: None,
        }
    }

    /// A faithful model over `f64` offer queues (the scenario-table form).
    ///
    /// # Errors
    ///
    /// A message naming the first offer that is not finite and
    /// non-negative — the only scores `SharedTopK` is ever offered.
    pub fn from_scores(k: usize, offers: [&[f64]; 2]) -> Result<Self, String> {
        if let Some(bad) = offers.iter().flat_map(|q| q.iter()).find(|s| !s.is_finite() || **s < 0.0)
        {
            return Err(format!("offers must be finite and non-negative, got {bad}"));
        }
        Ok(TopK::new(
            k,
            offers.map(|q| q.iter().map(|s| s.to_bits()).collect()),
        ))
    }

    /// Multiset of all offer bits whose `offer()` call has started.
    fn started(&self, threads: &[Thread; 2]) -> Vec<u64> {
        let mut v = Vec::new();
        for (t, th) in threads.iter().enumerate() {
            let upto = match th.pc {
                Pc::Idle => th.offer,
                _ => th.offer + 1,
            };
            v.extend_from_slice(&self.offers[t][..upto.min(self.offers[t].len())]);
        }
        v
    }
}

/// The scenario suite `interleave-check` runs for this model — capacities,
/// duplicates, partial fills, displacement races and zero-score fast paths
/// — always explored exhaustively.
pub fn standard_scenarios() -> Vec<(String, TopK)> {
    let sc = |name: &str, k: usize, a: &[f64], b: &[f64]| {
        let model = TopK::from_scores(k, [a, b]).expect("scenario scores are valid");
        (name.to_string(), model)
    };
    vec![
        sc("k1_distinct", 1, &[0.9], &[0.5]),
        sc("k1_duplicate", 1, &[0.5], &[0.5]),
        sc("k1_two_each", 1, &[0.3, 0.9], &[0.7, 0.1]),
        sc("k2_basic_race", 2, &[0.5, 0.9], &[0.7]),
        sc("k2_duplicates", 2, &[0.5, 0.5], &[0.5]),
        sc("k2_descending", 2, &[0.9, 0.1], &[0.4, 0.7]),
        sc("k2_with_zero", 2, &[0.0, 0.8], &[0.6, 0.0]),
        sc("k3_partial_fill", 3, &[0.5], &[0.7]),
        sc("k3_overflow", 3, &[0.2, 0.9], &[0.4, 0.6]),
        sc("k0_ignores_all", 0, &[0.5], &[0.9]),
    ]
}

/// The k-th largest value of `values` (counting multiplicity), `0` when
/// fewer than `k` values exist. Mirrors the register's zero-padding.
pub fn kth_best(mut values: Vec<u64>, k: usize) -> u64 {
    values.sort_unstable_by(|a, b| b.cmp(a));
    values.get(k.wrapping_sub(1)).copied().unwrap_or(0)
}

impl Protocol for TopK {
    type State = State;

    fn threads(&self) -> usize {
        2
    }

    fn initial(&self) -> State {
        State {
            shared: Shared {
                slots: vec![0; self.k],
                threshold: if self.k == 0 {
                    f64::INFINITY.to_bits()
                } else {
                    0
                },
            },
            threads: [
                Thread {
                    offer: 0,
                    pc: Pc::Idle,
                },
                Thread {
                    offer: 0,
                    pc: Pc::Idle,
                },
            ],
        }
    }

    fn step(&self, state: &State, tid: usize) -> Vec<State> {
        let mut next = state.clone();
        let th = &mut next.threads[tid];
        let queue = &self.offers[tid];
        let bits = queue.get(th.offer).copied().unwrap_or(0);
        match th.pc.clone() {
            Pc::Idle => {
                if th.offer >= queue.len() {
                    return Vec::new(); // thread finished
                }
                // Begin the offer: the zero/empty fast path completes
                // immediately (no shared access either way).
                if self.k == 0 || bits == 0 {
                    th.offer += 1;
                } else {
                    th.pc = Pc::Scan {
                        i: 0,
                        min_idx: 0,
                        min: u64::MAX,
                        after_cas: false,
                    };
                }
            }
            Pc::Scan {
                i,
                mut min_idx,
                mut min,
                after_cas,
            } => {
                let v = next.shared.slots[i];
                if v < min {
                    min_idx = i;
                    min = v;
                }
                th.pc = if i + 1 < self.k {
                    Pc::Scan {
                        i: i + 1,
                        min_idx,
                        min,
                        after_cas,
                    }
                } else if after_cas || bits <= min {
                    // Post-CAS rescan publishes the new minimum; a
                    // non-improving offer publishes the observed minimum.
                    Pc::RaiseLoad { candidate: min }
                } else {
                    Pc::SlotCas {
                        idx: min_idx,
                        expected: min,
                    }
                };
            }
            Pc::SlotCas { idx, expected } => {
                if next.shared.slots[idx] == expected {
                    next.shared.slots[idx] = bits;
                    th.pc = Pc::Scan {
                        i: 0,
                        min_idx: 0,
                        min: u64::MAX,
                        after_cas: true,
                    };
                } else {
                    // Lost the race — full retry, exactly like the loop
                    // in `offer()`.
                    th.pc = Pc::Scan {
                        i: 0,
                        min_idx: 0,
                        min: u64::MAX,
                        after_cas: false,
                    };
                }
            }
            Pc::RaiseLoad { candidate } => {
                let observed = next.shared.threshold;
                if candidate > observed {
                    th.pc = Pc::RaiseCas {
                        candidate,
                        observed,
                    };
                } else {
                    th.offer += 1;
                    th.pc = Pc::Idle;
                }
            }
            Pc::RaiseCas {
                candidate,
                observed,
            } => {
                if next.shared.threshold == observed {
                    next.shared.threshold = candidate;
                    th.offer += 1;
                    th.pc = Pc::Idle;
                } else if self.mutation == Some(Mutation::LostCasRetry) {
                    // MUTATION: give up on CAS failure — drops the raise
                    // entirely, so a concurrent raise to a *lower* value
                    // wins and the final threshold undershoots.
                    th.offer += 1;
                    th.pc = Pc::Idle;
                } else {
                    // `compare_exchange_weak` failure hands back the value
                    // it saw; the while-loop retries only if still below.
                    let seen = next.shared.threshold;
                    if candidate > seen {
                        th.pc = Pc::RaiseCas {
                            candidate,
                            observed: seen,
                        };
                    } else {
                        th.offer += 1;
                        th.pc = Pc::Idle;
                    }
                }
            }
        }
        vec![next]
    }

    fn access(&self, state: &State, tid: usize) -> Option<Access> {
        // Object ids: slot `i` = `i`, threshold = `k`. All register
        // operations are SeqCst in the real code, so plain object-level
        // independence is the right notion here.
        let th = &state.threads[tid];
        match th.pc {
            Pc::Idle => None,
            Pc::Scan { i, .. } => Some(Access::read(i)),
            Pc::SlotCas { idx, .. } => Some(Access::write(idx)),
            Pc::RaiseLoad { .. } => Some(Access::read(self.k)),
            Pc::RaiseCas { .. } => Some(Access::write(self.k)),
        }
    }

    fn check_step(&self, before: &State, after: &State, tid: usize) -> Result<(), String> {
        // 1. Threshold monotonicity.
        if after.shared.threshold < before.shared.threshold {
            return Err(format!(
                "threshold DECREASED {} -> {} on a step of thread {tid} \
                 (before: {before:?})",
                f64::from_bits(before.shared.threshold),
                f64::from_bits(after.shared.threshold),
            ));
        }
        let started = self.started(&after.threads);
        // 2. Admissibility: threshold ≤ k-th best started offer.
        let bound = kth_best(started.clone(), self.k);
        if self.k > 0 && after.shared.threshold > bound {
            return Err(format!(
                "threshold {} exceeds k-th best started offer {} \
                 (inadmissible; state: {after:?})",
                f64::from_bits(after.shared.threshold),
                f64::from_bits(bound),
            ));
        }
        // 3. Slot provenance: non-zero slots ⊆ started offers (multiset).
        let mut pool = started;
        for &s in &after.shared.slots {
            if s == 0 {
                continue;
            }
            match pool.iter().position(|&p| p == s) {
                Some(at) => {
                    pool.swap_remove(at);
                }
                None => {
                    return Err(format!(
                        "slot holds {} which is not an available started \
                         offer (duplicated or invented; state: {after:?})",
                        f64::from_bits(s),
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_final(&self, state: &State) -> Result<(), String> {
        let all: Vec<u64> = self.offers.iter().flatten().copied().collect();
        if self.k == 0 {
            if state.shared.threshold != f64::INFINITY.to_bits() {
                return Err("k = 0 register lost its infinite threshold".into());
            }
            return Ok(());
        }
        let expect_threshold = kth_best(all.clone(), self.k);
        if state.shared.threshold != expect_threshold {
            return Err(format!(
                "final threshold {} != exact k-th best {} (lost update? \
                 state: {state:?})",
                f64::from_bits(state.shared.threshold),
                f64::from_bits(expect_threshold),
            ));
        }
        let mut got = state.shared.slots.clone();
        got.sort_unstable_by(|a, b| b.cmp(a));
        let mut want: Vec<u64> = all;
        want.sort_unstable_by(|a, b| b.cmp(a));
        want.resize(self.k, 0);
        want.truncate(self.k);
        if got != want {
            return Err(format!(
                "final slots are not the top-k multiset: got {:?}, want {:?}",
                got.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>(),
                want.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>(),
            ));
        }
        Ok(())
    }

    fn describe_step(&self, state: &State, tid: usize) -> String {
        let th = &state.threads[tid];
        let bits = self.offers[tid].get(th.offer).copied().unwrap_or(0);
        match &th.pc {
            Pc::Idle => format!(
                "t{tid}: begin offer({})",
                f64::from_bits(bits)
            ),
            Pc::Scan { i, after_cas, .. } => format!(
                "t{tid}: load slots[{i}]{}",
                if *after_cas { " (rescan)" } else { "" }
            ),
            Pc::SlotCas { idx, expected } => format!(
                "t{tid}: CAS slots[{idx}] {} -> {}",
                f64::from_bits(*expected),
                f64::from_bits(bits)
            ),
            Pc::RaiseLoad { candidate } => format!(
                "t{tid}: load threshold (candidate {})",
                f64::from_bits(*candidate)
            ),
            Pc::RaiseCas {
                candidate,
                observed,
            } => format!(
                "t{tid}: CAS threshold {} -> {}",
                f64::from_bits(*observed),
                f64::from_bits(*candidate)
            ),
        }
    }
}
