//! # hmmm-analyze
//!
//! Repo-specific static analysis for the HMMM retrieval suite. After
//! PRs 1–3 the suite's correctness rests on conventions no compiler
//! checks: byte-identical rankings need one blessed total order for float
//! compares and no hash-order iteration on ranking paths; the exact top-k
//! pruning needs admissible bounds over row-stochastic `A_n`/`Π_n`
//! (Definition 1, Eqs. 12–15); the metrics registry only prevents
//! emit/read drift if every site uses it; crash-safe persistence only
//! holds if every durable byte goes through the atomic
//! write-fsync-rename helper. This crate turns those
//! conventions into machine-checked rules, with zero external
//! dependencies so it runs in the same offline vendored-stub build as the
//! rest of the workspace:
//!
//! * [`lexer`] — a hand-rolled code/comment/string-channel scanner (no
//!   `syn`), exactly enough lexing for line-oriented lints.
//! * [`lints`] — the rules (`raw-float-cmp`, `hash-iteration`,
//!   `atomic-ordering-comment`, `metric-literal`, `equation-doc`,
//!   `naked-persist-write`, `no-alloc-in-traversal`) and their
//!   allow-markers.
//! * [`walk`] — deterministic workspace file discovery.
//! * [`mc`] — the protocol model checker (a miniature loom, since loom
//!   cannot be vendored): a `Protocol` trait, a memoized DFS explorer
//!   with sleep-set reduction and minimal-counterexample replay, and
//!   step-faithful models of every hand-rolled concurrent protocol in
//!   the repo — the `SnapshotCell` RCU install, the admission queue +
//!   worker-pool lifecycle, a crash-state enumeration of the atomic
//!   writer, and the TCP front-end's per-connection loop.
//!
//! Binaries: `hmmm-lint` (workspace lint pass; violations exit non-zero)
//! and `interleave-check` (all four model suites). Both run in CI's
//! `analyze` job and speak `--format json`; `cargo test -p hmmm-analyze`
//! additionally proves every lint fires on seeded violations, that every
//! seeded protocol mutation is caught with a replayable counterexample,
//! and that the models stay faithful to the real implementations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lints;
pub mod mc;
pub mod walk;

use std::path::Path;

/// Scans one file from disk and lints it. `rel` is the repo-relative path.
///
/// # Errors
///
/// The I/O error message if the file cannot be read.
pub fn lint_path(path: &Path, rel: &str) -> Result<Vec<lints::Violation>, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(lints::lint_file(rel, &lexer::scan(&source)))
}

/// Lints every first-party Rust source under `root`. Returns all
/// violations plus the number of files scanned.
///
/// # Errors
///
/// The first unreadable file's error.
pub fn lint_workspace(root: &Path) -> Result<(Vec<lints::Violation>, usize), String> {
    let files = walk::rust_sources(root);
    let mut violations = Vec::new();
    for (path, rel) in &files {
        violations.extend(lint_path(path, rel)?);
    }
    Ok((violations, files.len()))
}
