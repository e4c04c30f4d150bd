//! # hmmm-bench
//!
//! Experiment harness for the HMMM reproduction: the `exp_*` binaries
//! regenerate every table/figure-level artifact of the paper (see the
//! experiment index in DESIGN.md and the results in EXPERIMENTS.md),
//! `bench_report` writes `BENCH_retrieval.json`, and `bench_e2e` is the
//! end-to-end benchmark.
//!
//! The library part holds what every experiment shares: dataset
//! construction, retrieval-quality metrics, and a tiny text-table printer
//! so the binaries emit the same row/series shapes the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod metrics;
pub mod table;

pub use data::{skewed_catalog, standard_catalog, DataConfig};
pub use metrics::{mean_reciprocal_rank, precision_at_k, QualityReport};
pub use table::Table;
