//! Immutable model snapshots and the RCU-style cell that publishes them.
//!
//! The serving layer's structural invariant is that **queries never see a
//! model mid-update**. A [`ModelSnapshot`] bundles everything one query
//! needs — the λ model (with its derived caches, among them the calibrated
//! Eq.-14 score of every shot against every event, so a query only reads
//! scores), the catalog, and a monotonically increasing epoch — behind an
//! `Arc`, and is *never mutated after construction*. Feedback learning
//! (Eqs. 1–10) builds a **new** snapshot off to the side, proves it sane
//! with [`hmmm_core::Hmmm::deep_audit`], and only then swaps the published
//! pointer in a [`SnapshotCell`]:
//!
//! ```text
//! build (clone + Eqs. 1–10) → audit (Definition-1 gate) → install (pointer
//! swap) → drain (old snapshot freed when its last in-flight query drops
//! the Arc)
//! ```
//!
//! Readers on the hot path never block: a worker keeps a cached
//! `Arc<ModelSnapshot>` and re-reads the published pointer only when the
//! epoch counter (one atomic load) says it moved. Writers serialize on a
//! `Mutex`, consistent with the workspace's vendored-deps policy (no
//! external `arc-swap`); the mutex is never on a query's execution path.

use hmmm_core::{AuditSummary, CoreError, FeedbackConfig, FeedbackLog, Hmmm, UpdateReport};
use hmmm_storage::Catalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One immutable, audited generation of the model: everything a query
/// executes against, frozen at a single epoch.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// The λ model (Definition 1), with derived caches fresh: the
    /// per-epoch Eq.-14 score table ([`Hmmm::sim_row`]) and the coarse
    /// index are built, so a query does no Eq.-14 work.
    pub model: Hmmm,
    /// The catalog the model was built from. Shared across generations —
    /// feedback learning (Eqs. 1–10) changes the model, never the catalog.
    pub catalog: Arc<Catalog>,
    /// Monotonic generation counter: the initial snapshot is epoch 0 and
    /// every install increments by one. Responses echo the epoch so a
    /// ranking can always be traced to the exact model that produced it.
    pub epoch: u64,
    /// Receipt of the pre-publication `deep_audit` pass.
    pub audit: AuditSummary,
}

impl ModelSnapshot {
    /// Builds the epoch-0 snapshot from a catalog: §4.2 model construction
    /// ([`hmmm_core::build_hmmm`], Definition 1) followed by the
    /// λ-invariant `deep_audit` gate — an unauditable model is refused
    /// here exactly as it would be at install time.
    ///
    /// # Errors
    ///
    /// [`CoreError`] from construction or from the audit.
    pub fn build(catalog: Catalog, config: &hmmm_core::BuildConfig) -> Result<Self, CoreError> {
        let model = hmmm_core::build_hmmm(&catalog, config)?;
        let audit = model.deep_audit(&catalog)?;
        Ok(ModelSnapshot {
            model,
            catalog: Arc::new(catalog),
            epoch: 0,
            audit,
        })
    }

    /// Wraps an already-built model as an epoch-0 snapshot after auditing
    /// it against `catalog` (Definition-1 well-formedness gate).
    ///
    /// # Errors
    ///
    /// [`CoreError`] if the audit rejects the model.
    pub fn from_model(model: Hmmm, catalog: Catalog) -> Result<Self, CoreError> {
        let audit = model.deep_audit(&catalog)?;
        Ok(ModelSnapshot {
            model,
            catalog: Arc::new(catalog),
            epoch: 0,
            audit,
        })
    }

    /// The relearning step of the snapshot lifecycle: clones this
    /// generation's model, applies the accumulated positive feedback
    /// through the paper's offline updates — `A_1` affinity accumulation
    /// and renormalization (Eqs. 1–2), `Π_1` re-estimation (Eq. 4),
    /// `A_2`/`Π_2` co-access updates (Eqs. 5–6), and the `P_{1,2}`/`B_1'`
    /// re-learning (Eqs. 8–10 and Eq. 11) — then audits the candidate.
    /// `self` is untouched: in-flight queries on this snapshot are
    /// unaffected, which is the whole point of RCU-style installs.
    ///
    /// The returned candidate carries `epoch = self.epoch + 1`;
    /// [`SnapshotCell::install`] re-stamps the epoch under its writer lock,
    /// so racing writers still publish a strictly increasing sequence.
    ///
    /// # Errors
    ///
    /// [`CoreError`] from the feedback update itself or from the
    /// post-update `deep_audit` (a candidate that fails the audit is
    /// dropped; the live snapshot keeps serving).
    pub fn apply_feedback(
        &self,
        log: &mut FeedbackLog,
        config: &FeedbackConfig,
    ) -> Result<(ModelSnapshot, UpdateReport), CoreError> {
        let mut model = self.model.clone();
        let report = log.apply(&mut model, &self.catalog, config)?;
        let audit = model.deep_audit(&self.catalog)?;
        Ok((
            ModelSnapshot {
                model,
                catalog: Arc::clone(&self.catalog),
                epoch: self.epoch + 1,
                audit,
            },
            report,
        ))
    }
}

/// The RCU publication point: one atomic epoch counter in front of a
/// mutex-guarded `Arc` slot.
///
/// * **Readers** ([`SnapshotCell::load`], [`SnapshotCell::refresh`]) are
///   wait-free in the steady state: `refresh` is a single atomic epoch
///   load when nothing changed, and even a cold `load` only clones an
///   `Arc` inside a critical section that contains no other work — no
///   reader ever waits on model construction, feedback math, or auditing.
/// * **Writers** ([`SnapshotCell::install`]) serialize on the slot mutex,
///   run the `deep_audit` gate *outside* the critical section, and swap
///   the pointer only on a clean audit. A failed install leaves the
///   published snapshot untouched. The server's feedback path audits its
///   candidate while building it, so it skips straight to the swap.
/// * **Drain** is implicit in `Arc`: a superseded snapshot stays alive
///   until the last in-flight query drops its clone, so installs never
///   tear or block running queries.
pub struct SnapshotCell {
    /// Published epoch, readable without the lock.
    epoch: AtomicU64,
    /// The published snapshot. The mutex orders writers; readers take it
    /// only to clone the `Arc` (a reference-count increment).
    slot: Mutex<Arc<ModelSnapshot>>,
}

impl SnapshotCell {
    /// Publishes `snapshot` as the initial generation.
    pub fn new(snapshot: ModelSnapshot) -> Self {
        SnapshotCell {
            epoch: AtomicU64::new(snapshot.epoch),
            slot: Mutex::new(Arc::new(snapshot)),
        }
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in `install` — a
        // reader that observes epoch N is guaranteed to observe the slot
        // contents published with it (the slot mutex it takes next is
        // itself a stronger synchronization point; the Acquire here only
        // makes the *fast-path skip* in `refresh` sound).
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the published snapshot handle (an `Arc` bump, not a model
    /// copy).
    pub fn load(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.slot.lock().expect("snapshot slot poisoned"))
    }

    /// Refreshes a worker's cached handle only if a newer generation was
    /// published; returns `true` when `cached` was replaced. The
    /// steady-state cost is one atomic load. The server's workers call it
    /// once per dequeued request, before executing it.
    pub fn refresh(&self, cached: &mut Arc<ModelSnapshot>) -> bool {
        if self.epoch() == cached.epoch {
            return false;
        }
        *cached = self.load();
        true
    }

    /// Audits and publishes a candidate snapshot (the "audit → RCU
    /// install" steps of the lifecycle). The candidate's epoch is
    /// re-stamped to `published + 1` under the writer lock, so concurrent
    /// writers — however they interleave — publish a strictly increasing
    /// epoch sequence. Returns the epoch the candidate was published at.
    ///
    /// The audit runs *before* the critical section (it reads only the
    /// candidate), so readers are never exposed to an unaudited model and
    /// writers hold the lock only for the pointer swap.
    ///
    /// # Errors
    ///
    /// [`CoreError`] if `deep_audit` rejects the candidate — the
    /// previously published snapshot keeps serving, untouched.
    pub fn install(&self, mut candidate: ModelSnapshot) -> Result<u64, CoreError> {
        candidate.audit = candidate.model.deep_audit(&candidate.catalog)?;
        Ok(self.publish(candidate))
    }

    /// The pointer-swap half of [`SnapshotCell::install`], with no audit:
    /// re-stamps the candidate to `published + 1` under the writer lock
    /// and publishes it. Only for candidates this crate audited itself and
    /// never let out of its hands (the feedback path, whose
    /// [`ModelSnapshot::apply_feedback`] already ran `deep_audit`).
    pub(crate) fn publish(&self, mut candidate: ModelSnapshot) -> u64 {
        let mut slot = self.slot.lock().expect("snapshot slot poisoned");
        let epoch = slot.epoch + 1;
        candidate.epoch = epoch;
        *slot = Arc::new(candidate);
        // ordering: Release pairs with the Acquire in `epoch()` — the new
        // epoch value must become visible no earlier than the slot swap
        // above (both happen inside the mutex, but `epoch()` readers skip
        // the mutex, so the pair carries the happens-before edge for them).
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}
