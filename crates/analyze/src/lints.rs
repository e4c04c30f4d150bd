//! The repo-specific lint rules.
//!
//! Each lint encodes a convention the retrieval suite's correctness
//! arguments lean on (see the crate docs for the mapping to PRs 1–3).
//! Rules are lexical: they run over the [`crate::lexer`] code/comment
//! channels, so patterns inside strings or comments never fire.
//!
//! Suppression: a comment `hmmm-lint: allow(<lint-name>)` on the same line
//! or the line above suppresses that lint for that line; a comment
//! `hmmm-lint: allow-file(<lint-name>)` anywhere suppresses it for the
//! whole file. Both must state a reason to survive review — the marker is
//! grep-able precisely so exemptions stay visible.

use crate::lexer::ScannedFile;

/// Raw `f64` comparison outside the blessed total-order helper.
pub const LINT_RAW_FLOAT_CMP: &str = "raw-float-cmp";
/// `HashMap`/`HashSet` in ranking/emission paths (iteration order races).
pub const LINT_HASH_ITERATION: &str = "hash-iteration";
/// Atomic access without an `// ordering:` rationale comment.
pub const LINT_ATOMIC_ORDERING: &str = "atomic-ordering-comment";
/// Metric/span name passed as a string literal instead of a registry const.
pub const LINT_METRIC_LITERAL: &str = "metric-literal";
/// Registered paper-equation fn lacking an equation-anchored rustdoc.
pub const LINT_EQUATION_DOC: &str = "equation-doc";
/// Direct file write in a persistence path outside the atomic helper.
pub const LINT_NAKED_PERSIST_WRITE: &str = "naked-persist-write";
/// Heap-allocating construct inside a declared per-video traversal region.
pub const LINT_NO_ALLOC_TRAVERSAL: &str = "no-alloc-in-traversal";
/// `Ordering::Relaxed` on an atomic not in the pure-counter allowlist.
pub const LINT_RELAXED_ORDERING: &str = "relaxed-ordering-justification";

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired (one of the `LINT_*` constants).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Files allowed to touch the raw float-compare primitives: the blessed
/// helper itself.
const BLESSED_FLOAT_CMP_FILES: &[&str] = &["crates/matrix/src/order.rs"];

/// Path prefixes whose code is a ranking or emission path: hash-order
/// iteration there can change observable output between runs.
const HASH_FORBIDDEN_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/obs/src/",
    "crates/baselines/src/",
    "crates/serve/src/",
];

/// Path prefixes where metric/span names must come from the registry
/// (`crates/core/src/metrics.rs`).
const METRIC_SCOPE_PREFIXES: &[&str] = &[
    "crates/core/",
    "crates/obs/src/",
    "crates/bench/",
    "crates/serve/",
    "src/",
    "tests/",
    "examples/",
];

/// Recorder-call heads whose first argument is a metric/span name.
const METRIC_CALL_HEADS: &[&str] = &[
    ".span(",
    ".span_labeled(",
    ".counter(",
    ".gauge(",
    ".observe_ns(",
    ".histogram(",
];

/// Path prefixes (or exact files) that persist durable artifacts: every
/// byte written there must go through the crash-safe
/// `hmmm_storage::atomic_write` helper so a crash can never leave a torn
/// generation on disk.
const PERSIST_SCOPE_PREFIXES: &[&str] = &["crates/storage/src/", "crates/core/src/io.rs"];

/// The one file allowed to open/write files directly: the atomic helper
/// itself (tempfile + fsync + rename lives here by definition).
const BLESSED_PERSIST_FILES: &[&str] = &["crates/storage/src/atomic.rs"];

/// Write-path heads that bypass the atomic helper. `fs::write` and
/// `File::create` truncate in place — a crash mid-call tears the
/// artifact; `OpenOptions::new` is the general escape hatch to the same.
const NAKED_WRITE_HEADS: &[&str] = &["fs::write", "File::create", "OpenOptions::new"];

/// Variants of `std::sync::atomic::Ordering`. Lexically disjoint from
/// `std::cmp::Ordering`'s `Less`/`Equal`/`Greater`, so matching on the
/// variant name alone cannot misfire on comparison code.
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::SeqCst",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::Relaxed",
    "Ordering::AcqRel",
];

/// How many preceding lines may carry the `ordering:` rationale for an
/// atomic access (multi-line `compare_exchange` calls push the variant a
/// few lines below the comment).
const ORDERING_COMMENT_WINDOW: usize = 8;

/// Every first-party file that performs atomic operations. The
/// atomic-ordering-comment lint applies *everywhere* (any file using an
/// `Ordering::` variant must justify it), but this registry adds the
/// reverse direction: a registered file in which no atomic ordering
/// appears any more means atomics moved and the registry — and with it
/// the reviewer's map of where the weak-memory reasoning lives — went
/// stale. Same two-way idiom as [`EQUATION_FNS`].
pub const ATOMIC_FILES: &[&str] = &[
    "crates/core/src/fault.rs",
    "crates/serve/src/net.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/snapshot.rs",
    "crates/serve/src/workload.rs",
    "crates/storage/src/atomic.rs",
];

/// Atomics allowed to use `Ordering::Relaxed`, by file. Relaxed is legal
/// exactly when the atomic is a pure counter or id/ticket source: the
/// value itself is the entire payload and no other memory is published
/// through it. Everything else (flags, epochs, pointers, anything a
/// reader dereferences or orders against) must use Acquire/Release or
/// stronger — the `mc::snapshot` model's `DropRelease` mutation shows
/// concretely what a reader can observe when an install is relaxed.
///
/// Two-way, like [`EQUATION_FNS`]: a Relaxed access on an atomic not
/// named here fires [`LINT_RELAXED_ORDERING`]; a name registered here
/// that no longer has any Relaxed access in its file means the registry
/// is stale and fires on line 1.
pub const RELAXED_ALLOWLIST: &[(&str, &[&str])] = &[
    // io_ops: fault-injection op ticket; net_conns doubles as the
    // network plane's connection-ticket source and its wrap tally; the
    // plan lookups key on the drawn values alone. net_torn /
    // net_corrupted / net_stalled / net_closed: monotonic injection
    // tallies read only for after-the-fact reporting (NetFaultStats).
    (
        "crates/core/src/fault.rs",
        &["io_ops", "net_conns", "net_torn", "net_corrupted", "net_stalled", "net_closed"],
    ),
    // next_id: request span/debug label.
    ("crates/serve/src/server.rs", &["next_id"]),
    // installs: feedback-install count, read only after thread join;
    // next_query_session: session-grouping label.
    (
        "crates/serve/src/workload.rs",
        &["installs", "next_query_session"],
    ),
    // NEXT: temp-file uniqueness ticket.
    ("crates/storage/src/atomic.rs", &["NEXT"]),
];

/// Registry of public fns that implement numbered paper equations and must
/// say so in their rustdoc. Matching is `pub fn <name>(`, so sibling names
/// sharing a prefix do not collide.
pub const EQUATION_FNS: &[(&str, &[&str])] = &[
    (
        "crates/core/src/sim.rs",
        &[
            "similarity",
            "self_similarity",
            "calibrated_similarity",
            "best_alternative",
        ],
    ),
    (
        "crates/core/src/construct.rs",
        &[
            "a1_initial_from_counts",
            "build_hmmm",
            "build_hmmm_observed",
            "event_centroids",
            "learn_p12",
        ],
    ),
    ("crates/core/src/bounds.rs", &["video_ub", "entry_ub"]),
    ("crates/core/src/feedback.rs", &["apply", "apply_observed"]),
    ("crates/core/src/model.rs", &["sim_row"]),
    (
        "crates/core/src/audit.rs",
        &["audit_numeric", "audit_links"],
    ),
    (
        "crates/core/src/coarse.rs",
        &[
            "build",
            "postings",
            "sim_max",
            "video_bounds",
            "candidates",
        ],
    ),
    (
        "crates/serve/src/snapshot.rs",
        &["build", "apply_feedback"],
    ),
];

/// Anchor substrings accepted as an equation reference in rustdoc.
const EQUATION_ANCHORS: &[&str] = &["Eq.", "Eqs.", "§", "Definition", "Figure", "Table", "Step"];

/// Files that must declare (and keep clean) a `traversal-hot-path` region:
/// the per-video beam walk recycles its buffers through a worker-owned
/// scratch, and a stray allocation there silently reintroduces the
/// per-video malloc traffic the scratch exists to remove.
const TRAVERSAL_REGION_FILES: &[&str] = &["crates/core/src/retrieve.rs"];

/// Comment markers delimiting a traversal hot-path region.
const TRAVERSAL_BEGIN: &str = "hmmm-lint: begin(traversal-hot-path)";
/// Closing marker; every `begin` needs one.
const TRAVERSAL_END: &str = "hmmm-lint: end(traversal-hot-path)";

/// Allocation constructs forbidden inside a traversal region. Lexical, like
/// everything else here: growing an *existing* scratch buffer (`push`,
/// `reserve`, `extend`) is the design and stays legal; what must not appear
/// is a construct that mints a fresh heap object per video or per beam node.
const TRAVERSAL_ALLOC_HEADS: &[&str] = &[
    "Vec::new",
    "with_capacity",
    "vec!",
    ".collect(",
    ".to_vec(",
    "Box::new",
    "String::new",
    "format!",
    ".to_string(",
];

fn has_allow(scan: &ScannedFile, line: usize, lint: &str) -> bool {
    let marker = format!("hmmm-lint: allow({lint})");
    let file_marker = format!("hmmm-lint: allow-file({lint})");
    if scan.comments.iter().any(|c| c.contains(&file_marker)) {
        return true;
    }
    let same = scan.comments.get(line).is_some_and(|c| c.contains(&marker));
    let above = line > 0
        && scan
            .comments
            .get(line - 1)
            .is_some_and(|c| c.contains(&marker));
    same || above
}

/// `true` if `needle` occurs in `hay` delimited by non-identifier chars.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Marks lines belonging to `#[cfg(test)] mod … { … }` regions. Unit-test
/// modules are exempt from the metric-literal lint: they exercise recorder
/// *mechanics* with ad-hoc names by design, while integration tests under
/// `tests/` assert on real pipeline metrics and stay in scope.
fn cfg_test_lines(scan: &ScannedFile) -> Vec<bool> {
    let n = scan.code.len();
    let mut in_test = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if scan.code[i].trim().starts_with("#[cfg(test)]") {
            // Find the `mod … {` opener within the next few lines, then
            // mark lines until its braces balance out.
            let mut j = i + 1;
            while j < n && j <= i + 3 && !scan.code[j].contains("mod ") {
                j += 1;
            }
            if j < n && j <= i + 3 && scan.code[j].contains("mod ") {
                let mut depth = 0i64;
                let mut opened = false;
                let mut k = j;
                while k < n {
                    in_test[k] = true;
                    for c in scan.code[k].chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    if opened && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    in_test
}

/// Runs every applicable lint over one scanned file. `rel` is the
/// repo-relative path with `/` separators.
pub fn lint_file(rel: &str, scan: &ScannedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    lint_raw_float_cmp(rel, scan, &mut out);
    lint_hash_iteration(rel, scan, &mut out);
    lint_atomic_ordering(rel, scan, &mut out);
    lint_relaxed_ordering(rel, scan, &mut out);
    lint_metric_literal(rel, scan, &mut out);
    lint_equation_doc(rel, scan, &mut out);
    lint_naked_persist_write(rel, scan, &mut out);
    lint_no_alloc_in_traversal(rel, scan, &mut out);
    out
}

fn lint_raw_float_cmp(rel: &str, scan: &ScannedFile, out: &mut Vec<Violation>) {
    if BLESSED_FLOAT_CMP_FILES.contains(&rel) {
        return;
    }
    for (idx, line) in scan.code.iter().enumerate() {
        for needle in ["partial_cmp", "total_cmp"] {
            if contains_word(line, needle) && !has_allow(scan, idx, LINT_RAW_FLOAT_CMP) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    lint: LINT_RAW_FLOAT_CMP,
                    message: format!(
                        "raw `{needle}` outside the blessed helper — use \
                         hmmm_matrix::order::cmp_f64 / cmp_f64_desc so every \
                         ranking agrees on one total order"
                    ),
                });
            }
        }
    }
}

fn lint_hash_iteration(rel: &str, scan: &ScannedFile, out: &mut Vec<Violation>) {
    if !HASH_FORBIDDEN_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for (idx, line) in scan.code.iter().enumerate() {
        for needle in ["HashMap", "HashSet"] {
            if contains_word(line, needle) && !has_allow(scan, idx, LINT_HASH_ITERATION) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    lint: LINT_HASH_ITERATION,
                    message: format!(
                        "`{needle}` in a ranking/emission path — iteration \
                         order is nondeterministic; use BTreeMap/BTreeSet or \
                         index-keyed Vecs (byte-identical output contract)"
                    ),
                });
            }
        }
    }
}

fn lint_atomic_ordering(rel: &str, scan: &ScannedFile, out: &mut Vec<Violation>) {
    let mut saw_ordering = false;
    for (idx, line) in scan.code.iter().enumerate() {
        if !ATOMIC_ORDERINGS.iter().any(|o| line.contains(o)) {
            continue;
        }
        saw_ordering = true;
        let lo = idx.saturating_sub(ORDERING_COMMENT_WINDOW);
        let justified = (lo..=idx).any(|j| {
            scan.comments
                .get(j)
                .is_some_and(|c| c.contains("ordering:"))
        });
        if !justified && !has_allow(scan, idx, LINT_ATOMIC_ORDERING) {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                lint: LINT_ATOMIC_ORDERING,
                message: "atomic access without an `// ordering:` rationale \
                          comment within the preceding lines — state why this \
                          memory ordering is sufficient"
                    .to_string(),
            });
        }
    }
    if ATOMIC_FILES.contains(&rel) && !saw_ordering {
        out.push(Violation {
            file: rel.to_string(),
            line: 1,
            lint: LINT_ATOMIC_ORDERING,
            message: "file is registered in ATOMIC_FILES but no atomic \
                      `Ordering::` variant appears — the atomics moved; \
                      update the registry in hmmm-analyze"
                .to_string(),
        });
    }
}

fn lint_relaxed_ordering(rel: &str, scan: &ScannedFile, out: &mut Vec<Violation>) {
    let allowed: &[&str] = RELAXED_ALLOWLIST
        .iter()
        .find(|(f, _)| rel == *f)
        .map_or(&[], |(_, names)| names);
    let mut seen = vec![false; allowed.len()];
    for (idx, line) in scan.code.iter().enumerate() {
        if !line.contains("Ordering::Relaxed") {
            continue;
        }
        let mut hit = false;
        for (name, flag) in allowed.iter().zip(seen.iter_mut()) {
            if contains_word(line, name) {
                *flag = true;
                hit = true;
            }
        }
        if !hit && !has_allow(scan, idx, LINT_RELAXED_ORDERING) {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                lint: LINT_RELAXED_ORDERING,
                message: "`Ordering::Relaxed` on an atomic not in the \
                          RELAXED_ALLOWLIST — relaxed is reserved for pure \
                          counters/tickets whose value is the whole payload; \
                          anything that publishes memory needs \
                          Acquire/Release (see mc::snapshot's DropRelease \
                          counterexample), or register the atomic with a \
                          rationale"
                    .to_string(),
            });
        }
    }
    for (name, flag) in allowed.iter().zip(seen.iter()) {
        if !flag {
            out.push(Violation {
                file: rel.to_string(),
                line: 1,
                lint: LINT_RELAXED_ORDERING,
                message: format!(
                    "atomic `{name}` is registered in RELAXED_ALLOWLIST but \
                     has no `Ordering::Relaxed` access in this file — the \
                     allowlist went stale; update it in hmmm-analyze"
                ),
            });
        }
    }
}

fn lint_metric_literal(rel: &str, scan: &ScannedFile, out: &mut Vec<Violation>) {
    if !METRIC_SCOPE_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    // The registry itself defines the literals.
    if rel == "crates/core/src/metrics.rs" {
        return;
    }
    let in_test = cfg_test_lines(scan);
    for (idx, line) in scan.code.iter().enumerate() {
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for head in METRIC_CALL_HEADS {
            let mut search = 0usize;
            while let Some(pos) = line[search..].find(head) {
                let after = search + pos + head.len();
                let rest = line[after..].trim_start();
                if rest.starts_with('"') && !has_allow(scan, idx, LINT_METRIC_LITERAL) {
                    out.push(Violation {
                        file: rel.to_string(),
                        line: idx + 1,
                        lint: LINT_METRIC_LITERAL,
                        message: format!(
                            "string literal passed to `{}` — metric/span \
                             names must be constants from \
                             crates/core/src/metrics.rs (drift between emit \
                             and read sites is silent)",
                            head.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
                search = after;
            }
        }
    }
}

fn lint_naked_persist_write(rel: &str, scan: &ScannedFile, out: &mut Vec<Violation>) {
    if !PERSIST_SCOPE_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    if BLESSED_PERSIST_FILES.contains(&rel) {
        return;
    }
    // Unit-test modules stay exempt: tests *corrupt* artifacts on purpose
    // (torn JSON, truncated containers) and direct writes are the point.
    let in_test = cfg_test_lines(scan);
    for (idx, line) in scan.code.iter().enumerate() {
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for needle in NAKED_WRITE_HEADS {
            if line.contains(needle) && !has_allow(scan, idx, LINT_NAKED_PERSIST_WRITE) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    lint: LINT_NAKED_PERSIST_WRITE,
                    message: format!(
                        "`{needle}` in a persistence path — durable artifacts \
                         must publish through hmmm_storage::atomic_write \
                         (tempfile + fsync + rename) or a crash can leave a \
                         torn generation"
                    ),
                });
            }
        }
    }
}

fn lint_no_alloc_in_traversal(rel: &str, scan: &ScannedFile, out: &mut Vec<Violation>) {
    let registered = TRAVERSAL_REGION_FILES.contains(&rel);
    let mut in_region = false;
    let mut saw_region = false;
    let mut open_line = 0usize;
    for idx in 0..scan.code.len() {
        let comment = scan.comments.get(idx).map(String::as_str).unwrap_or("");
        if comment.contains(TRAVERSAL_BEGIN) {
            saw_region = true;
            in_region = true;
            open_line = idx;
            continue;
        }
        if comment.contains(TRAVERSAL_END) {
            in_region = false;
            continue;
        }
        if !in_region {
            continue;
        }
        let line = &scan.code[idx];
        for needle in TRAVERSAL_ALLOC_HEADS {
            if line.contains(needle) && !has_allow(scan, idx, LINT_NO_ALLOC_TRAVERSAL) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    lint: LINT_NO_ALLOC_TRAVERSAL,
                    message: format!(
                        "`{needle}` inside the traversal-hot-path region — the \
                         per-video walk must reuse the worker's \
                         TraversalScratch buffers, not mint fresh heap \
                         objects (push/reserve/extend on scratch is fine)"
                    ),
                });
            }
        }
    }
    if in_region {
        out.push(Violation {
            file: rel.to_string(),
            line: open_line + 1,
            lint: LINT_NO_ALLOC_TRAVERSAL,
            message: "traversal-hot-path region opened but never closed — \
                      add the matching `hmmm-lint: end(traversal-hot-path)` \
                      marker"
                .to_string(),
        });
    }
    if registered && !saw_region {
        out.push(Violation {
            file: rel.to_string(),
            line: 1,
            lint: LINT_NO_ALLOC_TRAVERSAL,
            message: "file is registered in TRAVERSAL_REGION_FILES but \
                      declares no `hmmm-lint: begin(traversal-hot-path)` \
                      region — the hot path lost its no-alloc guard"
                .to_string(),
        });
    }
}

fn lint_equation_doc(rel: &str, scan: &ScannedFile, out: &mut Vec<Violation>) {
    let Some((_, fns)) = EQUATION_FNS.iter().find(|(f, _)| rel == *f) else {
        return;
    };
    for fname in *fns {
        let sig = format!("pub fn {fname}(");
        let sig_generic = format!("pub fn {fname}<");
        let found = scan
            .code
            .iter()
            .position(|l| l.contains(&sig) || l.contains(&sig_generic));
        let Some(line) = found else {
            out.push(Violation {
                file: rel.to_string(),
                line: 1,
                lint: LINT_EQUATION_DOC,
                message: format!(
                    "registered equation fn `{fname}` not found — update the \
                     EQUATION_FNS registry in hmmm-analyze"
                ),
            });
            continue;
        };
        // Collect the contiguous rustdoc/attribute block above the signature.
        let mut doc = String::new();
        let mut j = line;
        while j > 0 {
            j -= 1;
            let raw = scan.raw[j].trim();
            if raw.starts_with("///") || raw.starts_with("#[") || raw.starts_with("//") {
                doc.push_str(raw);
                doc.push('\n');
            } else {
                break;
            }
        }
        let anchored = EQUATION_ANCHORS.iter().any(|a| doc.contains(a));
        if !anchored && !has_allow(scan, line, LINT_EQUATION_DOC) {
            out.push(Violation {
                file: rel.to_string(),
                line: line + 1,
                lint: LINT_EQUATION_DOC,
                message: format!(
                    "`{fname}` implements a paper equation but its rustdoc \
                     names no anchor (Eq./§/Definition/Figure/Table/Step)"
                ),
            });
        }
    }
}
