//! # hmmm-core
//!
//! The Hierarchical Markov Model Mediator — the primary contribution of
//! Zhao, Chen & Shyu, *Video Database Modeling and Temporal Pattern
//! Retrieval using Hierarchical Markov Model Mediator* (ICDE 2006).
//!
//! An HMMM (Definition 1) is the 8-tuple `λ = (d, S, F, A, B, Π, P, L)`:
//! `d` hierarchy levels of states `S_n` with feature sets `F_n`, per-level
//! affinity matrices `A_n`, feature matrices `B_n` and initial-state
//! distributions `Π_n`, plus cross-level feature-importance matrices
//! `P_{n,n+1}` and link conditions `L_{n,n+1}`.
//!
//! The paper deploys a **two-level** instance over a soccer archive (§4.2):
//! one *local* MMM per video over its shots (temporal affinity `A_1`,
//! Table-1 features `B_1`, `Π_1`), and one *integrated* MMM over the videos
//! (`A_2`, event counts `B_2`, `Π_2`), glued by the feature-importance
//! matrix `P_{1,2}`, the per-event centroids `B_1'`, and the shot→video
//! links `L_{1,2}`. This crate implements that instance end to end:
//!
//! * [`model`] — the [`model::Hmmm`] container and its invariants, with
//!   the derived caches it rebuilds once per epoch: among them the
//!   calibrated Eq.-14 score of every shot against every event
//!   ([`model::Hmmm::sim_row`]), which retrieval reads instead of
//!   evaluating Eq. 14.
//! * [`construct`] — §4.2 construction, including the closed-form `A_1`
//!   initialization whose worked example (2/3, 1/3, 1/2, 1/2, 1) is a unit
//!   test, `P_{1,2}` uniform init (Eq. 7) and dispersion learning
//!   (Eqs. 8–10), and `B_1'` centroids (Eq. 11).
//! * [`sim`] — the Eq.-14 shot/event similarity: the scalar reference
//!   and the blocked kernel that fills the model's score table.
//! * [`retrieve`] — the §5 nine-step retrieval: per-video lattice beam
//!   traversal (Figure 3) with edge weights (Eqs. 12–13), pattern scores
//!   (Eq. 15), candidate videos visited one at a time on the calling
//!   thread (Step 7), and cost accounting.
//! * [`bounds`] / [`topk`] — the exact top-k pruning machinery: admissible
//!   Eq.-13 completion bounds and the running k-th-best-score register the
//!   traversal prunes against.
//! * [`coarse`] — the ingest-time coarse index (inverted `B_2` event →
//!   video postings + precomputed per-video bound summaries): the first
//!   stage of every retrieval, which picks the candidate videos and their
//!   prune bounds.
//! * [`feedback`] — positive-pattern logging and the offline learning
//!   updates (Eqs. 1–2, 4, 5–6, 8–10).
//! * [`simulate`] — a ground-truth relevance oracle standing in for the
//!   paper's human feedback (see DESIGN.md substitutions).
//! * [`audit`] — the λ-invariant deep auditor: numeric Definition-1
//!   well-formedness checks (row-stochastic `A_n`, unit-mass `Π_n`/`P_{1,2}`,
//!   the `L_{1,2}` partition, `B_2` against the catalog, `B_1'` sanity)
//!   behind [`model::Hmmm::deep_audit`], model loading and the `hmmm check`
//!   CLI subcommand.
//! * [`order`] — the blessed total-order float comparators every ranking
//!   sort goes through (re-exported from `hmmm_matrix::order`).
//! * [`metrics`] — the canonical metric/span names this crate records
//!   through [`hmmm_obs`] (attach a recorder via
//!   [`retrieve::RetrievalConfig::recorder`] to observe the hot path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bounds;
pub mod cluster;
pub mod coarse;
pub mod construct;
pub mod error;
pub mod fault;
pub mod feedback;
pub mod io;
pub mod metrics;
pub mod model;
pub mod order;
pub mod retrieve;
pub mod sim;
pub mod simulate;
pub mod topk;

pub use hmmm_obs as obs;
pub use hmmm_obs::{InMemoryRecorder, MetricsReport, RecorderHandle};

pub use audit::AuditSummary;
pub use bounds::VideoBounds;
pub use coarse::CoarseIndex;
pub use order::{cmp_f64, cmp_f64_desc};
pub use cluster::CategoryLevel;
pub use construct::{build_hmmm, build_hmmm_observed, BuildConfig};
pub use error::CoreError;
pub use fault::{FaultHandle, FaultPlan, FaultyStream, NetFaultStats};
pub use feedback::{FeedbackConfig, FeedbackLog, PositivePattern, UpdateReport};
pub use io::{load_model, load_model_with, save_model, save_model_with};
pub use model::{Hmmm, LocalMmm, ModelSummary};
pub use retrieve::{
    DeadlineConfig, Degraded, DegradedReason, QueryScratch, RankedPattern,
    RetrievalConfig, RetrievalStats, Retriever,
};
pub use sim::similarity;
pub use simulate::{FeedbackSimulator, OracleConfig};
