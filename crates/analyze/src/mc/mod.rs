//! A reusable protocol model checker.
//!
//! The subsystem has two halves:
//!
//! * the engine — [`engine::Protocol`] (per-thread step state machines
//!   over shared state, invariant callbacks), [`engine::explore`]
//!   (memoized DFS with optional sleep-set partial-order reduction and a
//!   state budget for the quick CI mode), and [`engine::replay`] /
//!   [`engine::minimal_counterexample`] (deterministic shortest-schedule
//!   failure reports);
//! * happens-before modeling — [`hb`]'s views, release-message atomic
//!   words and versioned plain cells, for protocols whose correctness
//!   depends on Acquire/Release edges rather than mutual exclusion alone.
//!
//! Four step-faithful models are checked by `interleave-check`:
//!
//! | model | mirrors | proves |
//! |---|---|---|
//! | [`snapshot`] | `hmmm_serve::snapshot::SnapshotCell` | epoch monotone, writers serialized, no torn/stale installs |
//! | [`admission`] | `hmmm_serve::server::QueryServer` | exactly-once serviced-or-rejected, shed-before-work, close() drains |
//! | [`crashwrite`] | `hmmm_storage::atomic::atomic_write` | a loadable generation survives every crash prefix; no concurrent writer fails |
//! | [`connection`] | `hmmm_serve::net` per-connection loop | answered-exactly-once-or-dropped, drain leaves no half-written frame |
//!
//! Each model also ships deliberately broken variants (a dropped
//! `Release`, a torn two-step epoch publish, a skipped fsync, a lost
//! rotate race reported as an error, a queue slot reused before drain, a
//! response rewritten after a torn write); the mutation tests assert the engine catches every one
//! with a minimal, replayable counterexample. `docs/ANALYSIS.md`
//! documents the trait contract and walks through modeling a new
//! protocol.

pub mod admission;
pub mod connection;
pub mod crashwrite;
pub mod engine;
pub mod hb;
pub mod snapshot;
