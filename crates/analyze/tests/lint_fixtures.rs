//! Seeded-violation fixtures: every lint must fire on a minimal bad input
//! and stay quiet on the corresponding good input. The fixtures are inline
//! strings, which doubles as a regression test of the lexer's masking —
//! when `hmmm-lint` scans *this* file, the embedded patterns are string
//! payloads and must not fire.

use hmmm_analyze::lexer::scan;
use hmmm_analyze::lints::{
    lint_file, LINT_ATOMIC_ORDERING, LINT_EQUATION_DOC, LINT_HASH_ITERATION, LINT_METRIC_LITERAL,
    LINT_NAKED_PERSIST_WRITE, LINT_NO_ALLOC_TRAVERSAL, LINT_RAW_FLOAT_CMP,
    LINT_RELAXED_ORDERING, RELAXED_ALLOWLIST,
};

/// A fixture body for `rel` that touches every atomic registered for it,
/// so the stale-allowlist check stays quiet and the fixtures keep passing
/// when a counter is added to the registry.
fn all_registered_relaxed(rel: &str) -> String {
    let names = RELAXED_ALLOWLIST
        .iter()
        .find(|(f, _)| *f == rel)
        .map(|(_, names)| *names)
        .expect("fixture file must be in RELAXED_ALLOWLIST");
    let mut body = String::new();
    for n in names {
        body.push_str(&format!(
            "    // ordering: Relaxed — ticket\n    {n}.fetch_add(1, Ordering::Relaxed);\n"
        ));
    }
    body
}

fn fired(rel: &str, src: &str, lint: &str) -> usize {
    lint_file(rel, &scan(src))
        .iter()
        .filter(|v| v.lint == lint)
        .count()
}

#[test]
fn raw_float_cmp_fires_on_partial_cmp() {
    let bad = "fn f(xs: &mut Vec<f64>) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    assert_eq!(fired("crates/core/src/retrieve.rs", bad, LINT_RAW_FLOAT_CMP), 1);
}

#[test]
fn raw_float_cmp_fires_on_total_cmp() {
    // total_cmp would silently reorder -0.0/NaN ties vs the recorded
    // rankings, so it is just as forbidden as partial_cmp.
    let bad = "fn f(xs: &mut Vec<f64>) {\n    xs.sort_by(f64::total_cmp);\n}\n";
    assert_eq!(fired("crates/core/src/cluster.rs", bad, LINT_RAW_FLOAT_CMP), 1);
}

#[test]
fn raw_float_cmp_blessed_file_is_exempt() {
    let helper = "pub fn cmp_f64(a: f64, b: f64) -> Ordering {\n    a.partial_cmp(&b).unwrap_or(Ordering::Equal)\n}\n";
    assert_eq!(fired("crates/matrix/src/order.rs", helper, LINT_RAW_FLOAT_CMP), 0);
    // …but only that exact path is blessed.
    assert_eq!(fired("crates/core/src/order.rs", helper, LINT_RAW_FLOAT_CMP), 1);
}

#[test]
fn raw_float_cmp_respects_allow_marker() {
    let allowed = "// hmmm-lint: allow(raw-float-cmp) — fixture\nlet o = a.partial_cmp(&b);\n";
    assert_eq!(fired("crates/core/src/sim.rs", allowed, LINT_RAW_FLOAT_CMP), 0);
}

#[test]
fn raw_float_cmp_ignores_strings_and_comments() {
    let quiet = "// partial_cmp is mentioned here\nlet s = \"partial_cmp\";\n";
    assert_eq!(fired("crates/core/src/sim.rs", quiet, LINT_RAW_FLOAT_CMP), 0);
}

#[test]
fn hash_iteration_fires_in_ranking_paths_only() {
    let bad = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, f64> = HashMap::new(); }\n";
    // Two mentions on the use/decl lines each count.
    assert!(fired("crates/core/src/retrieve.rs", bad, LINT_HASH_ITERATION) >= 2);
    assert!(fired("crates/obs/src/memory.rs", bad, LINT_HASH_ITERATION) >= 2);
    // Out of scope: the query translator's name index is allowed.
    assert_eq!(fired("crates/query/src/translate.rs", bad, LINT_HASH_ITERATION), 0);
}

#[test]
fn hash_iteration_does_not_fire_on_btree() {
    let good = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, f64> = BTreeMap::new(); }\n";
    assert_eq!(fired("crates/core/src/retrieve.rs", good, LINT_HASH_ITERATION), 0);
}

#[test]
fn atomic_ordering_fires_without_rationale() {
    let bad = "fn f(x: &AtomicU64) -> u64 {\n    x.load(Ordering::SeqCst)\n}\n";
    assert_eq!(fired("crates/serve/src/snapshot.rs", bad, LINT_ATOMIC_ORDERING), 1);
}

#[test]
fn atomic_ordering_satisfied_by_comment() {
    let good = "fn f(x: &AtomicU64) -> u64 {\n    // ordering: SeqCst — fixture rationale\n    x.load(Ordering::SeqCst)\n}\n";
    assert_eq!(fired("crates/serve/src/snapshot.rs", good, LINT_ATOMIC_ORDERING), 0);
}

#[test]
fn atomic_ordering_not_confused_by_cmp_ordering() {
    // std::cmp::Ordering variants are lexically disjoint from the atomic
    // ones; ranking code must not need rationale comments.
    let good = "fn f(a: u32, b: u32) -> Ordering {\n    a.cmp(&b).then(Ordering::Equal)\n}\n";
    assert_eq!(fired("crates/core/src/retrieve.rs", good, LINT_ATOMIC_ORDERING), 0);
}

#[test]
fn relaxed_ordering_fires_on_unregistered_atomic() {
    // A Relaxed access with a rationale comment still fires the allowlist
    // lint: the comment satisfies atomic-ordering-comment, but Relaxed on
    // an atomic nobody registered as a pure counter is its own finding.
    let bad = "fn f(flag: &AtomicU64) {\n    // ordering: Relaxed — (wrongly) claimed harmless\n    flag.store(1, Ordering::Relaxed);\n}\n";
    assert_eq!(fired("crates/core/src/somefile.rs", bad, LINT_RELAXED_ORDERING), 1);
    // Even in a file WITH registered atomics, an unregistered one fires.
    let mixed = format!(
        "fn f() {{\n{}    // ordering: Relaxed — oops\n    flag.store(1, Ordering::Relaxed);\n}}\n",
        all_registered_relaxed("crates/core/src/fault.rs")
    );
    assert_eq!(fired("crates/core/src/fault.rs", &mixed, LINT_RELAXED_ORDERING), 1);
}

#[test]
fn relaxed_ordering_quiet_on_allowlisted_counter() {
    let good = format!(
        "fn f() {{\n{}}}\n",
        all_registered_relaxed("crates/core/src/fault.rs")
    );
    assert_eq!(fired("crates/core/src/fault.rs", &good, LINT_RELAXED_ORDERING), 0);
}

#[test]
fn relaxed_ordering_acquire_release_out_of_scope() {
    // Non-Relaxed orderings are the atomic-ordering-comment lint's
    // business, not this one's.
    let good = "fn f(e: &AtomicU64) -> u64 {\n    // ordering: Acquire pairs with install's Release\n    e.load(Ordering::Acquire)\n}\n";
    assert_eq!(fired("crates/serve/src/snapshot.rs", good, LINT_RELAXED_ORDERING), 0);
}

#[test]
fn relaxed_ordering_flags_stale_allowlist_entry() {
    // fault.rs registers `io_ops`; a fault.rs with no Relaxed access on
    // it any more means the allowlist went stale and must fire on line 1.
    let empty = "fn f() {}\n";
    let violations = lint_file("crates/core/src/fault.rs", &scan(empty));
    assert!(violations
        .iter()
        .any(|v| v.lint == LINT_RELAXED_ORDERING && v.line == 1 && v.message.contains("stale")));
}

#[test]
fn relaxed_ordering_respects_allow_marker() {
    let allowed = "// hmmm-lint: allow(relaxed-ordering-justification) — fixture\nx.store(1, Ordering::Relaxed);\n";
    assert_eq!(fired("crates/core/src/somefile.rs", allowed, LINT_RELAXED_ORDERING), 0);
}

#[test]
fn atomic_ordering_flags_stale_atomic_files_entry() {
    // snapshot.rs is registered in ATOMIC_FILES; a snapshot.rs with no
    // atomic orderings left means the registry lost track of where the
    // weak-memory reasoning lives.
    let empty = "fn f() {}\n";
    let violations = lint_file("crates/serve/src/snapshot.rs", &scan(empty));
    assert!(violations
        .iter()
        .any(|v| v.lint == LINT_ATOMIC_ORDERING && v.line == 1 && v.message.contains("ATOMIC_FILES")));
    // Unregistered files carry no such obligation.
    assert_eq!(fired("crates/core/src/sim.rs", empty, LINT_ATOMIC_ORDERING), 0);
}

#[test]
fn metric_literal_fires_on_inline_name() {
    let bad = "fn f(h: &RecorderHandle) {\n    h.counter(\"retrieve.queries\", 1);\n}\n";
    assert_eq!(fired("crates/core/src/retrieve.rs", bad, LINT_METRIC_LITERAL), 1);
}

#[test]
fn metric_literal_quiet_on_registry_constant() {
    let good = "fn f(h: &RecorderHandle) {\n    h.counter(metrics::CTR_QUERIES, 1);\n}\n";
    assert_eq!(fired("crates/core/src/retrieve.rs", good, LINT_METRIC_LITERAL), 0);
}

#[test]
fn metric_literal_skips_cfg_test_modules() {
    let unit_test = "fn emit() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { h.counter(\"ad.hoc\", 1); }\n}\n";
    assert_eq!(fired("crates/obs/src/recorder.rs", unit_test, LINT_METRIC_LITERAL), 0);
    // Outside the test module the same call fires.
    let src_code = "fn emit(h: &H) { h.counter(\"ad.hoc\", 1); }\n";
    assert_eq!(fired("crates/obs/src/recorder.rs", src_code, LINT_METRIC_LITERAL), 1);
}

#[test]
fn metric_literal_registry_file_is_exempt() {
    let defs = "pub fn derived(r: &R) -> u64 { r.counter(\"anything\") }\n";
    assert_eq!(fired("crates/core/src/metrics.rs", defs, LINT_METRIC_LITERAL), 0);
}

#[test]
fn metric_literal_file_marker_suppresses() {
    let marked = "// hmmm-lint: allow-file(metric-literal) — fixture\nfn f(h: &H) { h.gauge(\"x\", 1.0); }\n";
    assert_eq!(fired("crates/core/tests/some_test.rs", marked, LINT_METRIC_LITERAL), 0);
}

#[test]
fn naked_persist_write_fires_in_persistence_paths() {
    let bad = "fn save(p: &Path, b: &[u8]) {\n    fs::write(p, b).unwrap();\n}\n";
    assert_eq!(
        fired("crates/storage/src/persist.rs", bad, LINT_NAKED_PERSIST_WRITE),
        1
    );
    assert_eq!(fired("crates/core/src/io.rs", bad, LINT_NAKED_PERSIST_WRITE), 1);
    let create = "fn save(p: &Path) {\n    let f = File::create(p).unwrap();\n}\n";
    assert_eq!(
        fired("crates/storage/src/catalog.rs", create, LINT_NAKED_PERSIST_WRITE),
        1
    );
    let opts = "fn save(p: &Path) {\n    let f = OpenOptions::new().write(true).open(p);\n}\n";
    assert_eq!(
        fired("crates/storage/src/persist.rs", opts, LINT_NAKED_PERSIST_WRITE),
        1
    );
}

#[test]
fn naked_persist_write_blessed_helper_is_exempt() {
    let helper = "pub fn atomic_write(p: &Path, b: &[u8]) {\n    let f = File::create(tmp).unwrap();\n}\n";
    assert_eq!(
        fired("crates/storage/src/atomic.rs", helper, LINT_NAKED_PERSIST_WRITE),
        0
    );
}

#[test]
fn naked_persist_write_out_of_scope_paths_are_quiet() {
    // Non-persistence crates write scratch files freely (bench reports,
    // CLI output, …) — that is not this lint's concern.
    let bench = "fn dump(p: &Path, b: &[u8]) {\n    fs::write(p, b).unwrap();\n}\n";
    assert_eq!(
        fired("crates/bench/src/bin/bench_report.rs", bench, LINT_NAKED_PERSIST_WRITE),
        0
    );
    assert_eq!(fired("src/bin/hmmm.rs", bench, LINT_NAKED_PERSIST_WRITE), 0);
}

#[test]
fn naked_persist_write_skips_cfg_test_modules() {
    // Tests corrupt artifacts on purpose (torn JSON, truncated
    // containers); direct writes there are the point of the test.
    let unit_test = "fn save() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { fs::write(&p, b\"garbage\").unwrap(); }\n}\n";
    assert_eq!(
        fired("crates/storage/src/persist.rs", unit_test, LINT_NAKED_PERSIST_WRITE),
        0
    );
}

#[test]
fn naked_persist_write_respects_allow_marker() {
    let allowed = "// hmmm-lint: allow(naked-persist-write) — fixture\nfs::write(p, b).unwrap();\n";
    assert_eq!(
        fired("crates/core/src/io.rs", allowed, LINT_NAKED_PERSIST_WRITE),
        0
    );
}

#[test]
fn equation_doc_fires_on_missing_anchor() {
    let bad = "/// Computes the similarity.\npub fn similarity(a: f64) -> f64 { a }\n";
    // The registry expects several fns in sim.rs; `similarity` present but
    // unanchored fires once, the absent registered names fire as stale
    // registry entries.
    let violations = lint_file("crates/core/src/sim.rs", &scan(bad));
    assert!(violations
        .iter()
        .any(|v| v.lint == LINT_EQUATION_DOC && v.message.contains("no anchor")));
}

#[test]
fn equation_doc_quiet_with_anchor() {
    let good = "/// The Eq. 14 similarity.\npub fn similarity(a: f64) -> f64 { a }\n";
    let violations = lint_file("crates/core/src/sim.rs", &scan(good));
    assert!(!violations
        .iter()
        .any(|v| v.lint == LINT_EQUATION_DOC && v.message.contains("similarity` implements")));
}

#[test]
fn equation_doc_flags_stale_registry() {
    let empty = "// nothing here\n";
    let violations = lint_file("crates/core/src/audit.rs", &scan(empty));
    assert!(violations
        .iter()
        .any(|v| v.lint == LINT_EQUATION_DOC && v.message.contains("not found")));
}

#[test]
fn unregistered_files_not_checked_for_equation_docs() {
    let bad = "/// Undocumented equation impl.\npub fn mystery(a: f64) -> f64 { a }\n";
    assert_eq!(fired("crates/media/src/lib.rs", bad, LINT_EQUATION_DOC), 0);
}

/// A minimal traversal region wrapper for the no-alloc fixtures. The
/// markers live in comments, so the lexer routes them to the comment
/// channel like the real ones in retrieve.rs.
fn traversal_region(body: &str) -> String {
    format!(
        "fn traverse(scratch: &mut S) {{\n// hmmm-lint: begin(traversal-hot-path)\n{body}// hmmm-lint: end(traversal-hot-path)\n}}\n"
    )
}

#[test]
fn no_alloc_in_traversal_fires_on_fresh_heap_objects() {
    let vec_new = traversal_region("    let beam: Vec<u32> = Vec::new();\n");
    assert_eq!(
        fired("crates/core/src/retrieve.rs", &vec_new, LINT_NO_ALLOC_TRAVERSAL),
        1
    );
    let cap = traversal_region("    let arena = Vec::with_capacity(64);\n");
    assert_eq!(
        fired("crates/core/src/retrieve.rs", &cap, LINT_NO_ALLOC_TRAVERSAL),
        1
    );
    let collected = traversal_region("    let xs: Vec<u32> = beam.iter().copied().collect();\n");
    assert_eq!(
        fired("crates/core/src/retrieve.rs", &collected, LINT_NO_ALLOC_TRAVERSAL),
        1
    );
}

#[test]
fn no_alloc_in_traversal_quiet_on_scratch_reuse() {
    // push / reserve / clear on the worker's scratch is the design.
    let good = traversal_region(
        "    scratch.pending.clear();\n    scratch.arena.reserve(64);\n    scratch.pending.push(node);\n",
    );
    assert_eq!(
        fired("crates/core/src/retrieve.rs", &good, LINT_NO_ALLOC_TRAVERSAL),
        0
    );
}

#[test]
fn no_alloc_in_traversal_quiet_outside_regions() {
    // The same constructs outside a declared region (and in files not
    // registered for one) are none of this lint's business.
    let free = "fn finals() {\n    let xs: Vec<u32> = beam.iter().copied().collect();\n}\n";
    assert_eq!(
        fired("crates/core/src/sim.rs", free, LINT_NO_ALLOC_TRAVERSAL),
        0
    );
}

#[test]
fn no_alloc_in_traversal_respects_allow_marker() {
    let allowed = traversal_region(
        "    // hmmm-lint: allow(no-alloc-in-traversal) empty result, no heap\n    return Vec::new();\n",
    );
    assert_eq!(
        fired("crates/core/src/retrieve.rs", &allowed, LINT_NO_ALLOC_TRAVERSAL),
        0
    );
}

#[test]
fn no_alloc_in_traversal_flags_unclosed_region() {
    let unclosed = "fn traverse() {\n// hmmm-lint: begin(traversal-hot-path)\n    walk();\n}\n";
    let violations = lint_file("crates/core/src/retrieve.rs", &scan(unclosed));
    assert!(violations
        .iter()
        .any(|v| v.lint == LINT_NO_ALLOC_TRAVERSAL && v.message.contains("never closed")));
}

#[test]
fn no_alloc_in_traversal_flags_registered_file_without_region() {
    // retrieve.rs is registered: losing the region markers entirely must
    // fail loudly instead of silently dropping the guard.
    let missing = "fn traverse() {\n    walk();\n}\n";
    let violations = lint_file("crates/core/src/retrieve.rs", &scan(missing));
    assert!(violations
        .iter()
        .any(|v| v.lint == LINT_NO_ALLOC_TRAVERSAL && v.message.contains("declares no")));
    // Unregistered files carry no such obligation.
    assert_eq!(
        fired("crates/core/src/sim.rs", missing, LINT_NO_ALLOC_TRAVERSAL),
        0
    );
}
