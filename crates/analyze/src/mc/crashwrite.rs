//! Crash-state enumerator for `hmmm_storage::atomic::atomic_write` — an
//! exhaustive proof that the tempfile → fsync → rotate → rename sequence
//! always leaves a loadable generation behind, subsuming the kill−9
//! smoke test.
//!
//! The real `attempt()` does: create `<dest>.tmp.<id>` → write bytes →
//! `fsync(tmp)` → if `dest` exists, `rename(dest, dest.bak)` (skipped if a
//! rival writer rotated `dest` away since the check) → `rename(tmp, dest)`
//! → best-effort `fsync(parent dir)`. The model walks that
//! sequence one filesystem operation per step, for one or more writers
//! (each with its own unique tmp, as `next_tmp_id()` guarantees), and a
//! dedicated *crash agent* thread that may fire power loss at every
//! interleaving point.
//!
//! # Crash semantics (the power-loss model)
//!
//! * **Data** (file contents) is durable only after its `fsync`; at a
//!   crash, any not-yet-synced content resolves to [`Content::Torn`].
//!   This is deliberately pessimistic — a real crash may preserve
//!   unsynced pages — and pessimism is *sound* here: the invariant is
//!   existential ("some loadable generation survives"), and turning a
//!   Torn file back into a Valid one can only help it. Anything proven
//!   loadable under all-unsynced-lost therefore holds on real hardware.
//! * **Metadata** (the renames) is modeled journaled: pending renames
//!   reach disk in order, so a crash durably keeps an arbitrary
//!   *prefix* of the not-yet-flushed rename sequence — the crash agent
//!   branches on every prefix length. The directory fsync flushes all
//!   pending metadata. (On a non-journaled filesystem renames could
//!   reorder; the repo targets ext4/xfs-style ordered metadata, as
//!   `storage/atomic.rs` documents.)
//!
//! # Invariants
//!
//! 1. **Live loadability** — at every non-crashed state, `dest` or
//!    `dest.bak` holds a valid generation (a concurrent `load()` always
//!    has something to read).
//! 2. **Crash loadability** — for every schedule and every crash prefix,
//!    the durable state keeps `dest` or `dest.bak` valid (never both
//!    torn/absent).
//! 3. **Completion** — with no crash, every writer's last generation is
//!    durably (fsynced) in `dest` and no rename is left unflushed.
//! 4. **No writer fails** — concurrent writers to one destination are a
//!    race the *last publish rename wins*; losing it is not an error. A
//!    writer whose rotate finds `dest` already rotated away by a rival
//!    skips the rotate and publishes.
//!
//! The [`Mutation::SkipFsync`] variant deletes the tmp-fsync step; a
//! *second* write then rotates a still-unsynced `dest` into `dest.bak`,
//! and a crash before its publish flushes leaves both files torn —
//! invariant 2 fires, which is exactly why `attempt()` fsyncs before
//! renaming. The [`Mutation::FailOnRotateRace`] variant restores the
//! original `attempt()`, which returned the rotate's `NotFound`; two
//! concurrent writers then trip invariant 4.

use super::engine::{Access, Protocol};
use std::collections::BTreeSet;

/// One file's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Content {
    /// No such file.
    Absent,
    /// A complete generation image.
    Valid {
        /// Generation number the bytes encode.
        gen: u64,
        /// Whether the data has been fsynced (unsynced data resolves to
        /// [`Content::Torn`] at a crash).
        synced: bool,
    },
    /// Unreadable garbage (partial write that lost its cache at crash).
    Torn,
}

impl Content {
    /// Whether a loader could read a generation from this file *now*
    /// (live view: unsynced data is still in the page cache).
    pub fn loadable_live(self) -> bool {
        matches!(self, Content::Valid { .. })
    }
}

/// The three path roles of one `atomic_write` destination.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fs {
    /// The destination path.
    pub dest: Content,
    /// The rotated backup (`<dest>.bak`).
    pub bak: Content,
    /// Each writer's private tempfile.
    pub tmps: Vec<Content>,
}

/// A metadata operation (rename) that has happened but may not yet have
/// reached the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetaOp {
    /// `rename(dest, dest.bak)`.
    Rotate,
    /// `rename(tmps[writer], dest)`.
    Publish {
        /// Which writer's tmp moves in.
        writer: usize,
    },
}

/// Program counter of one modelled writer (mirrors `attempt()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pc {
    /// `File::create(tmp)` — an empty (torn) file appears.
    CreateTmp,
    /// `write_all` — content lands, unsynced.
    WriteTmp,
    /// `sync_all(tmp)` — content becomes durable.
    FsyncTmp,
    /// `path.exists()` check that gates the rotate.
    CheckDest,
    /// `rename(dest, dest.bak)`; a no-op if `dest` vanished since the
    /// check (a rival rotated it in the TOCTOU window `attempt()` has).
    Rotate,
    /// `rename(tmp, dest)`.
    Publish,
    /// Best-effort parent-directory fsync: flushes all pending renames.
    DirFsync,
    /// All generations written.
    Done,
    /// `attempt()` returned an error (lost a rotate race); terminal, and
    /// reachable only under [`Mutation::FailOnRotateRace`].
    Failed,
}

/// One modelled writer: program counter plus position in its generation
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WriterState {
    /// Where in `attempt()` the writer is.
    pub pc: Pc,
    /// Index into the writer's generation list.
    pub gen_idx: usize,
}

/// Global state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct State {
    /// Filesystem as the journal last flushed it (plus data sync flags).
    pub base: Fs,
    /// Renames performed but not yet journal-flushed, oldest first.
    pub pending: Vec<MetaOp>,
    /// All writers.
    pub writers: Vec<WriterState>,
    /// Power was lost; `base` is the (resolved) durable state, terminal.
    pub crashed: bool,
}

/// Seeded defects for the mutation-testing suite (`None` = faithful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Skip the tmp fsync before renaming — the classic
    /// rename-before-sync bug. One write survives on the backup, but a
    /// second write rotates the still-unsynced `dest` into `dest.bak`
    /// and a crash leaves *nothing* loadable.
    SkipFsync,
    /// Return the rotate's `NotFound` instead of skipping to the publish
    /// when a rival rotated `dest` away after the existence check.
    FailOnRotateRace,
}

/// The crash-write protocol instance.
#[derive(Debug, Clone)]
pub struct CrashWrite {
    /// Per-writer generation lists (each written sequentially).
    pub gens: Vec<Vec<u64>>,
    /// Generation durably in `dest` before any writer runs.
    pub initial_gen: u64,
    /// Seeded defect, `None` for the faithful model.
    pub mutation: Option<Mutation>,
}

impl CrashWrite {
    /// A faithful model over `gens` (one inner list per writer thread).
    pub fn new(gens: Vec<Vec<u64>>) -> Self {
        CrashWrite {
            gens,
            initial_gen: 1,
            mutation: None,
        }
    }

    fn n_writers(&self) -> usize {
        self.gens.len()
    }

    /// The crash agent's thread id.
    fn crash_tid(&self) -> usize {
        self.n_writers()
    }

    /// Applies a rename sequence to a filesystem image.
    fn apply(fs: &Fs, ops: &[MetaOp]) -> Fs {
        let mut out = fs.clone();
        for op in ops {
            match *op {
                MetaOp::Rotate => {
                    out.bak = out.dest;
                    out.dest = Content::Absent;
                }
                MetaOp::Publish { writer } => {
                    out.dest = out.tmps[writer];
                    out.tmps[writer] = Content::Absent;
                }
            }
        }
        out
    }

    /// The filesystem as running processes see it (all renames visible).
    fn live(state: &State) -> Fs {
        Self::apply(&state.base, &state.pending)
    }

    /// Post-crash resolution: unsynced data did not survive.
    fn resolve(mut fs: Fs) -> Fs {
        let settle = |c: &mut Content| {
            if let Content::Valid { synced: false, .. } = c {
                *c = Content::Torn;
            }
        };
        settle(&mut fs.dest);
        settle(&mut fs.bak);
        for t in &mut fs.tmps {
            settle(t);
        }
        fs
    }

    fn all_writers_terminal(&self, state: &State) -> bool {
        state
            .writers
            .iter()
            .all(|w| matches!(w.pc, Pc::Done | Pc::Failed))
    }
}

impl Protocol for CrashWrite {
    type State = State;

    fn threads(&self) -> usize {
        self.n_writers() + 1 // + the crash agent
    }

    fn initial(&self) -> State {
        State {
            base: Fs {
                dest: Content::Valid {
                    gen: self.initial_gen,
                    synced: true,
                },
                bak: Content::Absent,
                tmps: vec![Content::Absent; self.n_writers()],
            },
            pending: Vec::new(),
            writers: vec![
                WriterState {
                    pc: Pc::CreateTmp,
                    gen_idx: 0,
                };
                self.n_writers()
            ],
            crashed: false,
        }
    }

    fn step(&self, state: &State, tid: usize) -> Vec<State> {
        if state.crashed {
            return Vec::new(); // power is off: everything is terminal
        }
        if tid == self.crash_tid() {
            // The crash agent: one power-loss branch per durable prefix
            // of the pending rename sequence. Disabled once all writers
            // are quiescent (the durable state no longer changes).
            if self.all_writers_terminal(state) {
                return Vec::new();
            }
            let mut outcomes = BTreeSet::new();
            for k in 0..=state.pending.len() {
                let durable =
                    Self::resolve(Self::apply(&state.base, &state.pending[..k]));
                outcomes.insert(durable);
            }
            return outcomes
                .into_iter()
                .map(|fs| State {
                    base: fs,
                    pending: Vec::new(),
                    writers: state.writers.clone(),
                    crashed: true,
                })
                .collect();
        }

        let mut next = state.clone();
        let w = next.writers[tid];
        let gen = self.gens[tid].get(w.gen_idx).copied().unwrap_or(0);
        match w.pc {
            Pc::Done | Pc::Failed => return Vec::new(),
            Pc::CreateTmp => {
                next.base.tmps[tid] = Content::Torn; // empty file: unreadable
                next.writers[tid].pc = Pc::WriteTmp;
            }
            Pc::WriteTmp => {
                next.base.tmps[tid] = Content::Valid { gen, synced: false };
                next.writers[tid].pc = if self.mutation == Some(Mutation::SkipFsync) {
                    // MUTATION: straight to the renames with the data
                    // still only in the page cache.
                    Pc::CheckDest
                } else {
                    Pc::FsyncTmp
                };
            }
            Pc::FsyncTmp => {
                if let Content::Valid { synced, .. } = &mut next.base.tmps[tid] {
                    *synced = true;
                }
                next.writers[tid].pc = Pc::CheckDest;
            }
            Pc::CheckDest => {
                // attempt() rotates only when dest exists *at check
                // time*; the rotate itself may still race (below).
                next.writers[tid].pc = if Self::live(&next).dest == Content::Absent {
                    Pc::Publish
                } else {
                    Pc::Rotate
                };
            }
            Pc::Rotate => {
                if Self::live(&next).dest == Content::Absent {
                    // A concurrent writer rotated dest away between our
                    // exists() check and this rename: ENOENT. attempt()
                    // treats it as a lost race and publishes anyway.
                    next.writers[tid].pc = if self.mutation == Some(Mutation::FailOnRotateRace) {
                        Pc::Failed // MUTATION: surface the ENOENT
                    } else {
                        Pc::Publish
                    };
                } else {
                    next.pending.push(MetaOp::Rotate);
                    next.writers[tid].pc = Pc::Publish;
                }
            }
            Pc::Publish => {
                next.pending.push(MetaOp::Publish { writer: tid });
                next.writers[tid].pc = Pc::DirFsync;
            }
            Pc::DirFsync => {
                // The directory fsync flushes every pending rename (the
                // journal is shared), not just this writer's.
                next.base = Self::apply(&next.base, &next.pending);
                next.pending.clear();
                let w = &mut next.writers[tid];
                if w.gen_idx + 1 < self.gens[tid].len() {
                    w.gen_idx += 1;
                    w.pc = Pc::CreateTmp;
                } else {
                    w.pc = Pc::Done;
                }
            }
        }
        vec![next]
    }

    fn access(&self, _state: &State, _tid: usize) -> Option<Access> {
        // Every step touches the one shared filesystem; no independence
        // to exploit (the model is small enough to explore exhaustively).
        Some(Access::write(0))
    }

    fn check_step(&self, _before: &State, after: &State, tid: usize) -> Result<(), String> {
        // 4. No writer fails: losing a race to a rival is not an error.
        if after.writers.get(tid).is_some_and(|w| w.pc == Pc::Failed) {
            return Err(format!(
                "writer {tid} failed: lost the rotate race to a concurrent writer"
            ));
        }
        let fs = if after.crashed {
            after.base.clone() // already resolved durable state
        } else {
            Self::live(after)
        };
        // 1 & 2. A loadable generation must exist, live or post-crash.
        if !fs.dest.loadable_live() && !fs.bak.loadable_live() {
            let kind = if after.crashed { "crash" } else { "live" };
            return Err(format!(
                "no loadable generation in the {kind} state after a step of \
                 thread {tid}: dest={:?} bak={:?} (both torn/absent)",
                fs.dest, fs.bak
            ));
        }
        Ok(())
    }

    fn check_final(&self, state: &State) -> Result<(), String> {
        if state.crashed {
            // Crash loadability was already checked on the crash step;
            // re-assert for completeness.
            if !state.base.dest.loadable_live() && !state.base.bak.loadable_live() {
                return Err("crashed with no loadable generation".into());
            }
            return Ok(());
        }
        // 3. Clean completion: renames flushed, dest durable.
        if !state.pending.is_empty() {
            return Err(format!(
                "terminal state with unflushed renames: {:?}",
                state.pending
            ));
        }
        match state.base.dest {
            Content::Valid { synced: true, .. } => Ok(()),
            other => Err(format!(
                "final dest is {other:?}, not a durably synced generation"
            )),
        }
    }

    fn describe_step(&self, state: &State, tid: usize) -> String {
        if tid == self.crash_tid() {
            return format!(
                "CRASH (power loss; {} pending rename(s) may partially persist)",
                state.pending.len()
            );
        }
        let w = state.writers[tid];
        let gen = self.gens[tid].get(w.gen_idx).copied().unwrap_or(0);
        match w.pc {
            Pc::CreateTmp => format!("writer {tid}: create tmp (gen {gen})"),
            Pc::WriteTmp => format!("writer {tid}: write tmp bytes (gen {gen})"),
            Pc::FsyncTmp => format!("writer {tid}: fsync tmp (gen {gen})"),
            Pc::CheckDest => format!("writer {tid}: check dest exists"),
            Pc::Rotate => format!("writer {tid}: rename dest -> bak"),
            Pc::Publish => format!("writer {tid}: rename tmp -> dest (gen {gen})"),
            Pc::DirFsync => format!("writer {tid}: fsync parent dir"),
            Pc::Done => format!("writer {tid}: done"),
            Pc::Failed => format!("writer {tid}: failed (lost rotate race)"),
        }
    }
}

/// The scenario suite `interleave-check` runs for this model. Every
/// entry must verify clean; `extended` adds the larger configurations
/// reserved for `--exhaustive`.
pub fn standard_scenarios(extended: bool) -> Vec<(String, CrashWrite)> {
    let mut v = vec![
        ("cw_single_writer".to_string(), CrashWrite::new(vec![vec![2]])),
        (
            "cw_two_gens_sequential".to_string(),
            CrashWrite::new(vec![vec![2, 3]]),
        ),
        (
            "cw_concurrent_writers".to_string(),
            CrashWrite::new(vec![vec![2], vec![3]]),
        ),
    ];
    if extended {
        v.push((
            "cw_concurrent_two_gens".to_string(),
            CrashWrite::new(vec![vec![2, 3], vec![4]]),
        ));
    }
    v
}
