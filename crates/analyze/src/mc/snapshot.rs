//! Step-faithful model of `hmmm_serve::snapshot::SnapshotCell` — the
//! RCU-style model register behind the query servers.
//!
//! The real cell pairs an `AtomicU64` epoch with a mutex-guarded
//! `Arc<ModelSnapshot>` slot. `install()` (under the mutex) reads the
//! live snapshot's epoch, restamps the candidate to `epoch + 1`, swaps
//! the slot, then publishes the new epoch with a `Release` store;
//! `refresh()` loads the epoch with `Acquire` and skips the mutex
//! entirely when it matches the cached snapshot's stamp. The model
//! performs one shared access per step (mutex acquire, slot read, slot
//! write, epoch store, mutex release) and models the Acquire/Release
//! edge with [`hb`](super::hb) views, so the *ordering* choices — not
//! just the mutual exclusion — are what is verified.
//!
//! Reader paths: [`ReaderPath::Locked`] mirrors today's `load()` slow
//! path exactly (slot reads under the mutex). [`ReaderPath::LockFree`]
//! checks the contract the epoch orderings are chosen for — a reader
//! that trusts the `Acquire` load alone and reads the slot without the
//! mutex, i.e. the lock-free fast path the `// ordering:` comments in
//! `snapshot.rs` promise is sound, and the one an `ArcSwap`-style cell
//! that takes the mutex out of `load()` would rely on. Both must verify
//! clean on the faithful model; only the lock-free path can expose a dropped
//! `Release`, which is exactly what the [`Mutation::DropRelease`]
//! mutation test demonstrates.
//!
//! Invariants:
//!
//! 1. **Epoch monotonicity** — the published epoch word never moves
//!    backwards (catches torn multi-step publishes).
//! 2. **No stale-vs-loaded-epoch reads** — after loading epoch `E`, a
//!    reader never observes a snapshot generation `< E`.
//! 3. **Per-reader monotonicity** — a reader's cached generation never
//!    decreases across refreshes.
//! 4. **Install integrity** — each install advances the slot generation
//!    by exactly one (writers are serialized by the mutex).
//! 5. **Final convergence** — after all installs, epoch == slot
//!    generation == initial + number of installs.
//!
//! Staleness modeling bound: [`super::hb::PlainCell`] offers readers the
//! latest value or the immediately preceding one. That is *exact* here —
//! slot writes are mutex-serialized and each install release-publishes
//! before the next begins, so a reader's view always covers at least the
//! version one install back (coherence forbids anything older).

use super::engine::{Access, Protocol};
use super::hb::{AtomicWord, PlainCell, View};

/// How modelled readers reach the slot. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderPath {
    /// Mirror of the shipped `load()`: slot reads under the mutex.
    Locked,
    /// The Acquire-trusting fast path: slot read with no mutex, ordered
    /// only by the epoch load.
    LockFree,
}

/// Seeded defects for the mutation-testing suite (`None` = faithful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The epoch publish uses `Relaxed` instead of `Release`: the store
    /// carries no happens-before message, so a lock-free reader that
    /// observes the new epoch may still read the *old* snapshot —
    /// invariant 2 fires. (Locked readers mask this bug; run it with
    /// [`ReaderPath::LockFree`].)
    DropRelease,
    /// The epoch is published in two single-byte steps (low half then
    /// high half) instead of one atomic store. Crossing a byte boundary
    /// (e.g. 255 → 256) makes the intermediate value go *backwards*,
    /// so invariant 1 fires on the very first half-store.
    TornEpoch,
}

/// Program counter of one modelled thread. `W*` variants belong to
/// writers (one `install()` each), `R*` to readers (a bounded number of
/// `refresh()` polls).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pc {
    /// Writer: acquire the slot mutex (enabled only when free).
    WLock,
    /// Writer: read the live snapshot's generation under the mutex.
    WReadSlot,
    /// Writer: restamp + swap the slot to `epoch_read + 1`.
    WWriteSlot {
        /// Generation read from the slot.
        epoch_read: u64,
    },
    /// Writer: publish the new epoch (`Release` store; mutations vary).
    WStoreEpoch {
        /// The new epoch value.
        new: u64,
    },
    /// Writer (TornEpoch only): second half of the two-step publish.
    WStoreEpochHigh {
        /// The new epoch value.
        new: u64,
    },
    /// Writer: release the mutex.
    WUnlock,
    /// Reader: `refresh()` entry — `Acquire`-load the epoch; equal to
    /// the cached generation = fast-path skip, else reload the slot.
    RLoadEpoch,
    /// Reader (Locked): acquire the mutex before the slot read.
    RLock {
        /// Epoch value the triggering load observed.
        loaded: u64,
    },
    /// Reader (Locked): read the slot generation under the mutex.
    RReadSlot {
        /// Epoch value the triggering load observed.
        loaded: u64,
    },
    /// Reader (Locked): release the mutex, completing the poll.
    RUnlock,
    /// Reader (LockFree): read the slot with no mutex — ordered only by
    /// the epoch `Acquire`. May observe a stale value if the publish
    /// dropped its `Release`.
    RReadSlotLf {
        /// Epoch value the triggering load observed.
        loaded: u64,
    },
    /// Thread finished.
    Done,
}

/// One modelled thread: program counter, happens-before view, cached
/// snapshot generation (readers) and completed poll count.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ThreadState {
    /// Where the thread is.
    pub pc: Pc,
    /// The thread's happens-before view over plain cells.
    pub view: View,
    /// Latest snapshot generation this thread holds (readers).
    pub cached: u64,
    /// Completed `refresh()` polls (readers).
    pub polls_done: u8,
}

/// Global state: the cell's two words, the mutex, and every thread.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct State {
    /// The `AtomicU64` epoch with its release message.
    pub epoch: AtomicWord,
    /// The mutex-guarded snapshot slot (value = generation stamp).
    pub slot: PlainCell,
    /// Mutex holder (`None` = free).
    pub lock: Option<usize>,
    /// View released by the last unlock; joined on acquire (the
    /// happens-before edge a real mutex provides).
    pub lock_msg: View,
    /// All threads, writers first.
    pub threads: Vec<ThreadState>,
}

/// The `SnapshotCell` protocol instance.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Writer threads (one `install()` each, serialized by the mutex).
    pub writers: usize,
    /// Reader threads.
    pub readers: usize,
    /// `refresh()` polls per reader.
    pub polls: u8,
    /// Which slot-read path readers take.
    pub reader_path: ReaderPath,
    /// Epoch (and slot generation) before the first install. The torn
    /// mutation uses 255 so the two-step publish crosses a byte boundary.
    pub initial_epoch: u64,
    /// Seeded defect, `None` for the faithful model.
    pub mutation: Option<Mutation>,
}

/// The one plain cell in this model (the snapshot slot).
const SLOT_CELL: usize = 0;
const CELLS: usize = 1;

/// Shared-object ids for [`Protocol::access`].
const OBJ_LOCK: usize = 0;
const OBJ_EPOCH: usize = 1;
const OBJ_SLOT: usize = 2;

impl Snapshot {
    /// A faithful model with `writers` installers and `readers` pollers.
    pub fn new(writers: usize, readers: usize, polls: u8, reader_path: ReaderPath) -> Self {
        Snapshot {
            writers,
            readers,
            polls,
            reader_path,
            initial_epoch: 0,
            mutation: None,
        }
    }

    fn is_writer(&self, tid: usize) -> bool {
        tid < self.writers
    }

    /// Completes one reader poll: bumps the counter and parks the pc.
    fn finish_poll(&self, th: &mut ThreadState) {
        th.polls_done += 1;
        th.pc = if th.polls_done >= self.polls {
            Pc::Done
        } else {
            Pc::RLoadEpoch
        };
    }
}

impl Protocol for Snapshot {
    type State = State;

    fn threads(&self) -> usize {
        self.writers + self.readers
    }

    fn initial(&self) -> State {
        let make = |pc: Pc| ThreadState {
            pc,
            view: View::new(CELLS),
            cached: self.initial_epoch,
            polls_done: 0,
        };
        let mut threads = Vec::new();
        for _ in 0..self.writers {
            threads.push(make(Pc::WLock));
        }
        for _ in 0..self.readers {
            threads.push(make(if self.polls == 0 {
                Pc::Done
            } else {
                Pc::RLoadEpoch
            }));
        }
        State {
            epoch: AtomicWord::new(self.initial_epoch, CELLS),
            slot: PlainCell::new(self.initial_epoch),
            lock: None,
            lock_msg: View::new(CELLS),
            threads,
        }
    }

    fn step(&self, state: &State, tid: usize) -> Vec<State> {
        let mut next = state.clone();
        let pc = next.threads[tid].pc.clone();
        match pc {
            Pc::Done => Vec::new(),
            Pc::WLock | Pc::RLock { .. } => {
                if next.lock.is_some() {
                    return Vec::new(); // blocked on the mutex
                }
                next.lock = Some(tid);
                let msg = next.lock_msg.clone();
                let th = &mut next.threads[tid];
                th.view.join(&msg);
                th.pc = match pc {
                    Pc::WLock => Pc::WReadSlot,
                    Pc::RLock { loaded } => Pc::RReadSlot { loaded },
                    _ => unreachable!(),
                };
                vec![next]
            }
            Pc::WReadSlot => {
                // Under the mutex the view covers the latest slot write,
                // so the read is single-valued.
                let vals = next.slot.read(SLOT_CELL, &next.threads[tid].view);
                debug_assert_eq!(vals.len(), 1, "locked read must be coherent");
                let (val, ver) = vals[0];
                let th = &mut next.threads[tid];
                th.view.bump(SLOT_CELL, ver);
                th.pc = Pc::WWriteSlot { epoch_read: val };
                vec![next]
            }
            Pc::WWriteSlot { epoch_read } => {
                let new = epoch_read + 1;
                let mut view = next.threads[tid].view.clone();
                next.slot.write(new, SLOT_CELL, &mut view);
                let th = &mut next.threads[tid];
                th.view = view;
                th.pc = Pc::WStoreEpoch { new };
                vec![next]
            }
            Pc::WStoreEpoch { new } => {
                match self.mutation {
                    Some(Mutation::TornEpoch) => {
                        // MUTATION: publish the low byte first. Crossing
                        // a byte boundary exposes an intermediate value
                        // below the old epoch.
                        let old = next.epoch.value;
                        next.epoch.store_relaxed((old & !0xff) | (new & 0xff));
                        next.threads[tid].pc = Pc::WStoreEpochHigh { new };
                    }
                    Some(Mutation::DropRelease) => {
                        // MUTATION: value lands but no happens-before
                        // message rides along.
                        next.epoch.store_relaxed(new);
                        next.threads[tid].pc = Pc::WUnlock;
                    }
                    _ => {
                        let view = next.threads[tid].view.clone();
                        next.epoch.store_release(new, &view);
                        next.threads[tid].pc = Pc::WUnlock;
                    }
                }
                vec![next]
            }
            Pc::WStoreEpochHigh { new } => {
                let view = next.threads[tid].view.clone();
                next.epoch.store_release(new, &view);
                next.threads[tid].pc = Pc::WUnlock;
                vec![next]
            }
            Pc::WUnlock | Pc::RUnlock => {
                next.lock_msg = next.threads[tid].view.clone();
                next.lock = None;
                if matches!(pc, Pc::WUnlock) {
                    next.threads[tid].pc = Pc::Done;
                } else {
                    let th = &mut next.threads[tid];
                    self.finish_poll(th);
                }
                vec![next]
            }
            Pc::RLoadEpoch => {
                let mut view = next.threads[tid].view.clone();
                let v = next.epoch.load_acquire(&mut view);
                let th = &mut next.threads[tid];
                th.view = view;
                if v == th.cached {
                    // Fast path: epoch unchanged, keep the cached
                    // snapshot (this skip is what the Acquire justifies).
                    self.finish_poll(th);
                } else {
                    th.pc = match self.reader_path {
                        ReaderPath::Locked => Pc::RLock { loaded: v },
                        ReaderPath::LockFree => Pc::RReadSlotLf { loaded: v },
                    };
                }
                vec![next]
            }
            Pc::RReadSlot { .. } => {
                let vals = next.slot.read(SLOT_CELL, &next.threads[tid].view);
                debug_assert_eq!(vals.len(), 1, "locked read must be coherent");
                let (val, ver) = vals[0];
                let th = &mut next.threads[tid];
                th.view.bump(SLOT_CELL, ver);
                th.cached = val;
                th.pc = Pc::RUnlock;
                vec![next]
            }
            Pc::RReadSlotLf { .. } => {
                // No mutex: the read is ordered only by whatever the
                // epoch Acquire brought over. Every value the view
                // admits becomes its own successor branch; the coherence
                // bump pins later reads to at least the observed version.
                let vals = next.slot.read(SLOT_CELL, &next.threads[tid].view);
                vals.into_iter()
                    .map(|(g, ver)| {
                        let mut branch = next.clone();
                        let th = &mut branch.threads[tid];
                        th.view.bump(SLOT_CELL, ver);
                        th.cached = g;
                        self.finish_poll(th);
                        branch
                    })
                    .collect()
            }
        }
    }

    fn access(&self, state: &State, tid: usize) -> Option<Access> {
        match state.threads[tid].pc {
            Pc::Done => None,
            Pc::WLock | Pc::RLock { .. } | Pc::WUnlock | Pc::RUnlock => {
                Some(Access::write(OBJ_LOCK))
            }
            Pc::WReadSlot | Pc::RReadSlot { .. } | Pc::RReadSlotLf { .. } => {
                Some(Access::read(OBJ_SLOT))
            }
            Pc::WWriteSlot { .. } => Some(Access::write(OBJ_SLOT)),
            Pc::WStoreEpoch { .. } | Pc::WStoreEpochHigh { .. } => {
                Some(Access::write(OBJ_EPOCH))
            }
            Pc::RLoadEpoch => Some(Access::read(OBJ_EPOCH)),
        }
    }

    fn check_step(&self, before: &State, after: &State, tid: usize) -> Result<(), String> {
        // 1. Epoch word monotonicity (catches torn publishes).
        if after.epoch.value < before.epoch.value {
            return Err(format!(
                "epoch went BACKWARDS {} -> {} on a step of thread {tid} \
                 (torn publish?)",
                before.epoch.value, after.epoch.value
            ));
        }
        // 4. Install integrity: the slot only ever advances by one.
        if after.slot.value != before.slot.value
            && after.slot.value != before.slot.value + 1
        {
            return Err(format!(
                "slot generation jumped {} -> {} (installs not serialized?)",
                before.slot.value, after.slot.value
            ));
        }
        let tb = &before.threads[tid];
        let ta = &after.threads[tid];
        // 3. Per-reader monotonicity.
        if ta.cached < tb.cached {
            return Err(format!(
                "reader {tid} snapshot went backwards: generation {} -> {}",
                tb.cached, ta.cached
            ));
        }
        // 2. No stale-vs-loaded-epoch observation: completing a slot
        // reload must yield a generation at least as new as the epoch
        // value that triggered it.
        if let Pc::RReadSlot { loaded } | Pc::RReadSlotLf { loaded } = tb.pc {
            if ta.cached < loaded {
                return Err(format!(
                    "reader {tid} loaded epoch {loaded} but then observed \
                     snapshot generation {} — stale install visible \
                     (missing Release/Acquire edge?)",
                    ta.cached
                ));
            }
        }
        Ok(())
    }

    fn check_final(&self, state: &State) -> Result<(), String> {
        if state.lock.is_some() {
            return Err(format!("mutex still held by {:?} at quiescence", state.lock));
        }
        let expect = self.initial_epoch + self.writers as u64;
        if state.epoch.value != expect {
            return Err(format!(
                "final epoch {} != initial + installs = {expect}",
                state.epoch.value
            ));
        }
        if state.slot.value != expect {
            return Err(format!(
                "final slot generation {} != initial + installs = {expect}",
                state.slot.value
            ));
        }
        for (tid, th) in state.threads.iter().enumerate() {
            if th.pc != Pc::Done {
                return Err(format!("thread {tid} stuck at {:?}", th.pc));
            }
            if !self.is_writer(tid) && th.polls_done != self.polls {
                return Err(format!(
                    "reader {tid} completed {}/{} polls",
                    th.polls_done, self.polls
                ));
            }
        }
        Ok(())
    }

    fn describe_step(&self, state: &State, tid: usize) -> String {
        let role = if self.is_writer(tid) { "writer" } else { "reader" };
        match &state.threads[tid].pc {
            Pc::WLock | Pc::RLock { .. } => format!("{role} {tid}: lock slot mutex"),
            Pc::WReadSlot => format!("{role} {tid}: read slot epoch under lock"),
            Pc::WWriteSlot { epoch_read } => {
                format!("{role} {tid}: swap slot to generation {}", epoch_read + 1)
            }
            Pc::WStoreEpoch { new } => format!("{role} {tid}: publish epoch {new}"),
            Pc::WStoreEpochHigh { new } => {
                format!("{role} {tid}: publish epoch {new} (high half)")
            }
            Pc::WUnlock | Pc::RUnlock => format!("{role} {tid}: unlock slot mutex"),
            Pc::RLoadEpoch => format!("{role} {tid}: acquire-load epoch"),
            Pc::RReadSlot { loaded } | Pc::RReadSlotLf { loaded } => {
                format!("{role} {tid}: read slot (loaded epoch {loaded})")
            }
            Pc::Done => format!("{role} {tid}: done"),
        }
    }
}

/// The scenario suite `interleave-check` runs for this model. Every
/// entry must verify clean; `extended` adds the larger configurations
/// reserved for `--exhaustive`.
pub fn standard_scenarios(extended: bool) -> Vec<(String, Snapshot)> {
    let mut v = vec![
        (
            "snap_locked_1w1r".to_string(),
            Snapshot::new(1, 1, 2, ReaderPath::Locked),
        ),
        (
            "snap_lockfree_1w1r".to_string(),
            Snapshot::new(1, 1, 2, ReaderPath::LockFree),
        ),
        (
            "snap_lockfree_2w1r".to_string(),
            Snapshot::new(2, 1, 2, ReaderPath::LockFree),
        ),
    ];
    if extended {
        v.push((
            "snap_locked_2w2r".to_string(),
            Snapshot::new(2, 2, 2, ReaderPath::Locked),
        ));
        v.push((
            "snap_lockfree_2w2r".to_string(),
            Snapshot::new(2, 2, 3, ReaderPath::LockFree),
        ));
    }
    v
}
