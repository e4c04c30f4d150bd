//! Emits `BENCH_retrieval.json` — the machine-readable retrieval perf
//! snapshot tracked from change to change: shots/sec of the default
//! (exact, pruned) query, the prune's work counters, and the coarse
//! candidate cut's latency.
//!
//! Timings come from the same observability layer a live `hmmm query
//! --metrics-json` run uses: each measured configuration attaches an
//! [`InMemoryRecorder`], and the best-of-N wall clock is the minimum of the
//! `retrieve.latency_ns` histogram — so the bench snapshot and production
//! metrics can never disagree about what was measured.
//!
//! ```text
//! cargo run --release -p hmmm-bench --bin bench_report [-- --videos N --shots N --out FILE]
//! ```
//!
//! `--check` additionally runs the prune smoke for CI: the content-driven
//! run on the skewed fixture must actually prune (nonzero `entries_pruned +
//! videos_skipped_by_bound`) — a silent no-op prune is a regression. Exits
//! nonzero on failure. That the pruned rankings are exact is the
//! executable-spec tests' property (`cargo test -p hmmm-core --test
//! spec_retrieval`).

use hmmm_bench::{skewed_catalog, DataConfig};
use hmmm_core::metrics as m;
use hmmm_core::{
    build_hmmm, BuildConfig, InMemoryRecorder, MetricsReport, RetrievalConfig, Retriever,
};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use serde::Serialize;

/// The measured query.
#[derive(Debug, Serialize)]
struct Sample {
    /// Best-of-N wall clock, seconds (min of the latency histogram).
    seconds: f64,
    /// Archive shots scanned per second at that wall clock.
    shots_per_sec: f64,
    /// Calibrated Eq.-14 scores read from the model's table, total across
    /// repeats.
    score_reads: u64,
    /// Per-stage wall time across all repeats, nanoseconds, keyed by span
    /// path (`retrieve/coarse`, `retrieve/traverse`, …).
    stage_total_ns: Vec<(String, u64)>,
    /// Videos skipped whole by the admissible bound, total across repeats.
    videos_skipped_by_bound: u64,
    /// Beam entries / candidates cut by the threshold, total across repeats.
    entries_pruned: u64,
    /// k-th-best threshold raises, total across repeats.
    threshold_raises: u64,
    /// Panic-isolated videos across repeats — must be 0 in a healthy
    /// bench (no fault plan attached); nonzero flags a real traversal bug.
    videos_failed: u64,
    /// Queries whose deadline expired across repeats — likewise 0 here.
    deadline_expired: u64,
}

/// One bound-refresh micro-measurement, so the snapshot records what the
/// CSR `A_1` row-max refresh costs on this host.
#[derive(Debug, Serialize)]
struct KernelSample {
    /// What ran: `row_max_csr`.
    variant: &'static str,
    /// Best-of-N wall clock, seconds.
    seconds: f64,
    /// Matrix rows per second.
    units_per_sec: f64,
}

/// One serial measurement of the coarse stage at a candidate cut: how many
/// videos reach the fine stage, what the stage costs, and what the cut buys.
#[derive(Debug, Serialize)]
struct CoarseSample {
    /// `RetrievalConfig::candidate_cut` (`None` = exact, no cut).
    candidate_cut: Option<usize>,
    /// Candidate videos the coarse stage admitted, per query.
    candidates_per_query: u64,
    /// Wall time inside the coarse stage (`retrieve/coarse` span), total
    /// nanoseconds across the repeats.
    coarse_stage_ns: u64,
    /// Summary-table reads spent deriving coarse bounds, per query.
    bound_lookups_per_query: u64,
    /// Best-of-N wall clock, seconds.
    seconds: f64,
    /// Speedup vs the exact (uncut) row.
    speedup_vs_exact: f64,
}

/// The whole report.
#[derive(Debug, Serialize)]
struct Report {
    videos: usize,
    shots: usize,
    query: &'static str,
    /// Retrieval mode: content-driven ("similarity-bound") traversal.
    regime: &'static str,
    /// Cores the host reported.
    host_cpus: usize,
    repeats: u32,
    /// The default query: exact, with the top-k prune.
    sample: Sample,
    /// The CSR row-max refresh micro-bench.
    kernel: Vec<KernelSample>,
    /// Serial coarse-stage measurements: exact, then a 16-video cut.
    coarse: Vec<CoarseSample>,
}

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Best-of-N wall clock in seconds, read from the latency histogram.
fn best_seconds(report: &MetricsReport) -> f64 {
    report
        .histograms
        .get(m::HIST_RETRIEVE_LATENCY)
        .map(|h| h.min_ns as f64 / 1e9)
        .unwrap_or(f64::INFINITY)
}

fn main() {
    let videos: usize = arg("--videos").and_then(|v| v.parse().ok()).unwrap_or(80);
    let shots: usize = arg("--shots").and_then(|v| v.parse().ok()).unwrap_or(250);
    let out = arg("--out").unwrap_or_else(|| "BENCH_retrieval.json".into());
    // Content-driven traversal ("or similar to e_j", §5 Step 3) is the
    // similarity-bound regime: every video is traversed and every reachable
    // shot is scored by the model, so score reads dominate (annotation-first
    // queries read only annotated shots, see DESIGN.md §4). The query is a
    // goal followed by its replay.
    const QUERY: &str = "goal -> goal";
    const REPEATS: u32 = 5;

    // Skewed archive (half the videos rich in events, half nearly bare):
    // the realistic shape for top-k retrieval, and the one where the
    // whole-video bound skip has something to skip — on a uniform archive
    // every video's upper bound clears the threshold by construction.
    eprintln!("building {videos} videos × {shots} shots (half weak)…");
    let catalog = skewed_catalog(
        DataConfig {
            videos,
            shots_per_video: shots,
            event_rate: 0.08,
            seed: 0xBE7C,
        },
        0.005,
    );
    let model = build_hmmm(&catalog, &BuildConfig::default()).expect("non-empty");
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile(QUERY).expect("valid");
    let total_shots = catalog.shot_count();

    let time = |cfg: RetrievalConfig| -> MetricsReport {
        let recorder = InMemoryRecorder::shared();
        let cfg = cfg.with_recorder(recorder.handle());
        let r = Retriever::new(&model, &catalog, cfg).expect("consistent");
        for _ in 0..REPEATS {
            let (results, _) = r.retrieve(&pattern, 10).expect("valid");
            std::hint::black_box(results);
        }
        let mut report = recorder.report();
        hmmm_core::metrics::derive_retrieval_metrics(&mut report);
        report
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let sample = |metrics: &MetricsReport| {
        let secs = best_seconds(metrics);
        Sample {
            seconds: secs,
            shots_per_sec: total_shots as f64 / secs,
            score_reads: metrics.counter(m::CTR_SCORE_READS),
            stage_total_ns: metrics
                .stages
                .iter()
                .map(|s| (s.path.clone(), s.total_ns))
                .collect(),
            videos_skipped_by_bound: metrics.counter(m::CTR_VIDEOS_SKIPPED_BY_BOUND),
            entries_pruned: metrics.counter(m::CTR_ENTRIES_PRUNED),
            threshold_raises: metrics.counter(m::CTR_THRESHOLD_RAISES),
            videos_failed: metrics.counter(m::CTR_VIDEOS_FAILED),
            deadline_expired: metrics.counter(m::CTR_DEADLINE_EXPIRED),
        }
    };

    if std::env::args().any(|a| a == "--check") {
        check_prune_fires(&model, &catalog, &pattern);
    }

    let exact_metrics = time(RetrievalConfig::content_only());
    let exact_secs = best_seconds(&exact_metrics);

    // Coarse-stage rows: the exact run above, and the same query
    // with the fine stage cut to the 16 highest-bound candidates.
    let coarse_row = |cut: Option<usize>, metrics: &MetricsReport| {
        let secs = best_seconds(metrics);
        CoarseSample {
            candidate_cut: cut,
            candidates_per_query: metrics.counter(m::CTR_COARSE_CANDIDATES) / u64::from(REPEATS),
            coarse_stage_ns: metrics
                .stages
                .iter()
                .find(|s| s.path == m::SPAN_COARSE)
                .map(|s| s.total_ns)
                .unwrap_or(0),
            bound_lookups_per_query: metrics.counter(m::CTR_COARSE_LOOKUPS) / u64::from(REPEATS),
            seconds: secs,
            speedup_vs_exact: exact_secs / secs,
        }
    };
    let cut_metrics = time(RetrievalConfig {
        candidate_cut: Some(16),
        ..RetrievalConfig::content_only()
    });
    let coarse = vec![
        coarse_row(None, &exact_metrics),
        coarse_row(Some(16), &cut_metrics),
    ];

    let kernel = kernel_microbench(&model);
    let report = Report {
        videos,
        shots: total_shots,
        query: QUERY,
        regime: "content_only",
        host_cpus,
        repeats: REPEATS,
        sample: sample(&exact_metrics),
        kernel,
        coarse,
    };

    let s = &report.sample;
    println!(
        "query: {:>8.2} ms, {:>12.0} shots/s, {} bound-skips, {} pruned",
        s.seconds * 1e3,
        s.shots_per_sec,
        s.videos_skipped_by_bound,
        s.entries_pruned,
    );
    for k in &report.kernel {
        println!(
            "kernel {:<20}: {:>8.3} ms, {:>14.0} units/s",
            k.variant,
            k.seconds * 1e3,
            k.units_per_sec
        );
    }
    for s in &report.coarse {
        let cut = s.candidate_cut.map_or("exact".to_string(), |c| format!("cut {c}"));
        println!(
            "coarse {cut:<6}: {:>8.2} ms, {:>5} candidates/query, stage {:>8} ns, \
             {:>6} lookups/query, {:.2}x vs exact",
            s.seconds * 1e3,
            s.candidates_per_query,
            s.coarse_stage_ns,
            s.bound_lookups_per_query,
            s.speedup_vs_exact,
        );
    }
    println!("host cpus: {host_cpus}");

    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out, json + "\n").expect("write report");
    println!("wrote {out}");
}

/// Times the forward row-max refresh over every video's CSR `A_1`,
/// best-of-3.
fn kernel_microbench(model: &hmmm_core::Hmmm) -> Vec<KernelSample> {
    const ROUNDS: usize = 3;
    let rows: usize = model.locals().iter().map(|l| l.len()).sum();
    let mut maxima = vec![0.0f64; model.locals().iter().map(|l| l.len()).max().unwrap_or(0)];
    let mut csr_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = std::time::Instant::now();
        let mut acc = 0.0;
        for local in model.locals() {
            let out = &mut maxima[..local.len()];
            local.a1().row_maxima_into(out);
            acc += out.iter().sum::<f64>();
        }
        std::hint::black_box(acc);
        csr_secs = csr_secs.min(start.elapsed().as_secs_f64());
    }
    vec![KernelSample {
        variant: "row_max_csr",
        seconds: csr_secs,
        units_per_sec: rows as f64 / csr_secs,
    }]
}

/// CI smoke for the top-k prune: on this skewed fixture the content-driven
/// run must show nonzero pruning work. Exits the process with code 1
/// otherwise.
fn check_prune_fires(
    model: &hmmm_core::Hmmm,
    catalog: &hmmm_storage::Catalog,
    pattern: &hmmm_query::CompiledPattern,
) {
    eprintln!("checking that the content-driven prune fires…");
    let (_, stats) = Retriever::new(model, catalog, RetrievalConfig::content_only())
        .expect("consistent")
        .retrieve(pattern, 10)
        .expect("valid");
    // The skewed fixture is adversarial by construction: far more
    // candidates than k and half the videos nearly bare of events, so a
    // healthy prune must fire somewhere.
    if stats.entries_pruned + stats.videos_skipped_by_bound as u64 == 0 {
        eprintln!("FAIL: the pruned run pruned nothing (prune is a no-op?)");
        std::process::exit(1);
    }
    eprintln!(
        "prune check passed: {} entries, {} video skips, {} raises",
        stats.entries_pruned, stats.videos_skipped_by_bound, stats.threshold_raises
    );
}
