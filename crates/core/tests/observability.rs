//! Integration: the observability layer under real retrieval.
//!
//! Three contracts:
//!
//! 1. the in-memory recorder merges counters/histograms correctly when many
//!    threads record into one sink concurrently (serving workers do);
//! 2. an instrumented retrieval reports exactly the work the returned
//!    `RetrievalStats` claim — the flush path loses nothing;
//! 3. the default (noop) configuration leaves a live recorder untouched.

// hmmm-lint: allow-file(metric-literal) — contract 1 exercises recorder
// *mechanics* with deliberately ad-hoc names; everything that touches the
// retrieval pipeline below goes through `hmmm_core::metrics` constants.

use hmmm_core::metrics as m;
use hmmm_core::{build_hmmm, BuildConfig, InMemoryRecorder, RetrievalConfig, Retriever};
use hmmm_features::{FeatureVector, FEATURE_COUNT};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use hmmm_storage::Catalog;

/// Deterministic multi-video archive with enough annotated shots for a
/// two-step query to traverse every video.
fn catalog(videos: usize, shots: usize) -> Catalog {
    let mut c = Catalog::new();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for v in 0..videos {
        let mut rows = Vec::with_capacity(shots);
        for s in 0..shots {
            let mut f = [0.0; FEATURE_COUNT];
            for x in f.iter_mut() {
                *x = next();
            }
            let events = match s % 5 {
                0 => vec![EventKind::FreeKick],
                1 => vec![EventKind::Goal],
                3 => vec![EventKind::CornerKick],
                _ => vec![],
            };
            rows.push((events, FeatureVector::from_slice(&f).unwrap()));
        }
        c.add_video(format!("v{v}"), rows);
    }
    c
}

fn pattern() -> hmmm_query::CompiledPattern {
    QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
        .compile("free_kick -> goal")
        .unwrap()
}

#[test]
fn in_memory_recorder_merges_across_threads() {
    let recorder = InMemoryRecorder::shared();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 500;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let handle = recorder.handle();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    handle.counter("test.counter", 1);
                    handle.observe_ns("test.hist", t * PER_THREAD + i + 1);
                }
                handle.gauge("test.gauge", t as f64);
            });
        }
    });

    let report = recorder.report();
    assert_eq!(report.counter("test.counter"), THREADS * PER_THREAD);
    let hist = &report.histograms["test.hist"];
    assert_eq!(hist.count, THREADS * PER_THREAD);
    // Σ 1..=4000 — no observation lost or double-counted in the merge.
    let n = THREADS * PER_THREAD;
    assert_eq!(hist.sum_ns, n * (n + 1) / 2);
    assert_eq!(hist.min_ns, 1);
    assert_eq!(hist.max_ns, n);
    // Gauge keeps *a* thread's value (last write wins, all are valid).
    assert!(report.gauges["test.gauge"] < THREADS as f64);
}

#[test]
fn retrieval_counters_match_returned_stats() {
    let cat = catalog(6, 40);
    let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
    let recorder = InMemoryRecorder::shared();
    let config = RetrievalConfig::default().with_recorder(recorder.handle());
    let retriever = Retriever::new(&model, &cat, config).unwrap();
    let (results, stats) = retriever.retrieve(&pattern(), 10).unwrap();

    let report = recorder.report();
    // Every counter the flush emits equals the stats the caller got:
    // nothing is lost or double-flushed.
    assert_eq!(report.counter(m::CTR_QUERIES), 1);
    assert_eq!(report.counter(m::CTR_VIDEOS_VISITED), stats.videos_visited as u64);
    assert_eq!(report.counter(m::CTR_VIDEOS_SKIPPED), stats.videos_skipped as u64);
    assert_eq!(report.counter(m::CTR_TRANSITIONS), stats.transitions_examined);
    assert_eq!(report.counter(m::CTR_CANDIDATES), stats.candidates_scored as u64);
    assert_eq!(report.counter(m::CTR_RESULTS), results.len() as u64);
    assert_eq!(report.counter(m::CTR_SCORE_READS), stats.cache_lookups);
    assert!(stats.cache_lookups > 0);

    // Scores are table reads: no query evaluates Eq. 14 or builds a table,
    // so the per-query build span is never opened.
    assert_eq!(stats.sim_evaluations, 0);
    assert_eq!(stats.cache_build_evaluations, 0);
    assert!(report.stage(m::SPAN_SIM_CACHE_BUILD).is_none());

    // One root span, one latency observation, and a per-video span for
    // every traversed video.
    let hist = &report.histograms[m::HIST_RETRIEVE_LATENCY];
    assert_eq!(hist.count, 1);
    assert_eq!(report.stage(m::SPAN_RETRIEVE).unwrap().count, 1);
    assert_eq!(
        report.stage(m::SPAN_VIDEO).unwrap().count,
        stats.videos_visited as u64
    );
}

#[test]
fn repeated_queries_accumulate_in_one_report() {
    let cat = catalog(4, 30);
    let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
    let recorder = InMemoryRecorder::shared();
    let config = RetrievalConfig::default().with_recorder(recorder.handle());
    let retriever = Retriever::new(&model, &cat, config).unwrap();

    retriever.retrieve(&pattern(), 5).unwrap();
    retriever.retrieve(&pattern(), 5).unwrap();
    retriever.retrieve(&pattern(), 5).unwrap();

    let report = recorder.report();
    assert_eq!(report.counter(m::CTR_QUERIES), 3);
    assert_eq!(report.histograms[m::HIST_RETRIEVE_LATENCY].count, 3);
    assert_eq!(report.stage(m::SPAN_RETRIEVE).unwrap().count, 3);
}

#[test]
fn default_config_records_nothing_into_live_recorder() {
    let cat = catalog(3, 20);
    let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
    // A live recorder exists, but the config never had it attached: the
    // noop default must keep the sink empty.
    let recorder = InMemoryRecorder::shared();
    let retriever = Retriever::new(&model, &cat, RetrievalConfig::default()).unwrap();
    let (results, _) = retriever.retrieve(&pattern(), 5).unwrap();
    assert!(!results.is_empty());

    let report = recorder.report();
    assert!(report.counters.is_empty());
    assert!(report.histograms.is_empty());
    assert!(report.stages.is_empty());
}

#[test]
fn derived_ratios_appear_only_with_data() {
    let cat = catalog(4, 30);
    let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
    let recorder = InMemoryRecorder::shared();
    let config = RetrievalConfig::default().with_recorder(recorder.handle());
    let retriever = Retriever::new(&model, &cat, config).unwrap();
    retriever.retrieve(&pattern(), 5).unwrap();

    let mut report = recorder.report();
    m::derive_retrieval_metrics(&mut report);
    let visited = report.derived["videos_visited_ratio"];
    assert!((0.0..=1.0).contains(&visited));

    // An empty report derives nothing (no zero-denominator entries).
    let mut empty = InMemoryRecorder::new().report();
    m::derive_retrieval_metrics(&mut empty);
    assert!(empty.derived.is_empty());
}
