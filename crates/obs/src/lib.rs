//! # hmmm-obs
//!
//! The retrieval observability layer: metrics, hierarchical span timers,
//! and structured reports for every stage of the HMMM pipeline — model
//! construction, the §5 stochastic traversal, the query-scoped similarity
//! cache, feedback learning, and catalog persistence.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when off.** Instrumented code holds a
//!    [`RecorderHandle`]; the default handle is a no-op whose every
//!    operation is an inlined `Option` check — no clock reads, no locks,
//!    no allocation. Hot loops additionally batch their counts locally and
//!    flush once per query, so even an *enabled* recorder never sits on a
//!    per-transition path.
//! 2. **Correct under worker threads.** Every [`Recorder`] is `Send +
//!    Sync`; the in-memory implementation serializes updates behind one
//!    [`std::sync::Mutex`] whose critical sections are a few arithmetic
//!    ops. Counters are commutative sums, so totals are independent of
//!    worker count and scheduling (the serving layer's workers share one
//!    recorder).
//! 3. **Offline and zero-dependency.** Only `std` plus the workspace's
//!    vendored `serde`/`serde_json` for the report encoding. No clocks
//!    other than [`std::time::Instant`], no global state, no network.
//!
//! ## The pieces
//!
//! * [`Recorder`] — the pluggable sink trait (counters, gauges,
//!   fixed-bucket latency histograms, spans).
//! * [`RecorderHandle`] — the cheap clonable handle instrumented code
//!   carries; [`RecorderHandle::noop`] (default) or any `Arc<dyn
//!   Recorder>`.
//! * [`NoopRecorder`] — discards everything (useful as an explicit sink).
//! * [`InMemoryRecorder`] — accumulates everything; snapshot it into a
//!   [`MetricsReport`].
//! * [`MetricsReport`] — the serde-serializable report: counters, gauges,
//!   histogram summaries, per-stage aggregates, raw spans, and derived
//!   ratios. This is what `hmmm query --metrics-json` writes and what
//!   `bench_report` builds `BENCH_retrieval.json` from.
//!
//! ## Example
//!
//! ```
//! use hmmm_obs::{InMemoryRecorder, RecorderHandle};
//!
//! let recorder = InMemoryRecorder::shared();
//! let handle = RecorderHandle::from_arc(recorder.clone());
//!
//! {
//!     let _span = handle.span("work/phase_one");
//!     handle.counter("work.items", 3);
//! } // span records its wall time on drop
//!
//! let report = recorder.report();
//! assert_eq!(report.counter("work.items"), 3);
//! assert_eq!(report.stage("work/phase_one").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;
pub mod recorder;
pub mod report;

pub use memory::{Histogram, InMemoryRecorder};
pub use recorder::{NoopRecorder, Recorder, RecorderHandle, SpanGuard};
pub use report::{HistogramSummary, MetricsReport, SpanEntry, StageSummary};
