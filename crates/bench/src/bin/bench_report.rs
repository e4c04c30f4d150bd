//! Emits `BENCH_retrieval.json` — the machine-readable retrieval perf
//! snapshot tracked across PRs: shots/sec with the exact top-k prune off
//! and on, the prune's win, and the coarse candidate cut's latency.
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
//! `--check` additionally runs the exactness smoke for CI: pruned rankings
//! must match unpruned rankings in both regimes, and the pruned
//! content-driven run on the skewed fixture must actually prune
//! (nonzero `entries_pruned + videos_skipped_by_bound`) — a silent no-op
//! prune is as much a regression as a wrong one. Exits nonzero on failure.

use hmmm_bench::{skewed_catalog, DataConfig};
use hmmm_core::metrics as m;
use hmmm_core::{
    build_hmmm, BuildConfig, InMemoryRecorder, MetricsReport, RetrievalConfig, Retriever,
};
use hmmm_media::EventKind;
use hmmm_query::QueryTranslator;
use serde::Serialize;

/// One measured configuration.
#[derive(Debug, Serialize)]
struct Sample {
    /// Exact top-k threshold pruning on (`RetrievalConfig::prune`).
    prune: bool,
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

/// One similarity-kernel / bound-refresh micro-measurement, so the snapshot
/// records what the SoA similarity kernel buys over the scalar reference
/// and what the CSR `A_1` row-max refresh costs on this host.
#[derive(Debug, Serialize)]
struct KernelSample {
    /// What ran: `similarity_scalar`, `similarity_blocked`, `row_max_csr`.
    variant: &'static str,
    /// Best-of-N wall clock, seconds.
    seconds: f64,
    /// Shot-evaluations (similarity) or matrix rows (row-max) per second.
    units_per_sec: f64,
}

/// One concurrency level of the serving sweep: the full workload
/// generator (Zipf mix, closed loop) against an in-process
/// [`hmmm_serve::QueryServer`], so the snapshot tracks end-to-end serving
/// throughput and tail latency alongside single-query wall clock.
#[derive(Debug, Serialize)]
struct ServeSample {
    /// Concurrent closed-loop clients.
    clients: usize,
    /// Completed queries per wall-clock second.
    qps: f64,
    /// Median end-to-end latency (submit → outcome), milliseconds.
    p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    p99_ms: f64,
    /// Requests that produced a ranking.
    completed: usize,
    /// Requests rejected at admission (queue full under this load).
    rejected: usize,
    /// Completed-but-degraded responses (none here: no deadline is set).
    degraded: usize,
}

/// One concurrency level of the network sweep: the same workload shape as
/// [`ServeSample`], but through the TCP front-end over a real loopback
/// socket — so the snapshot separates the wire's cost (framing, JSON,
/// syscalls, connection handling) from the in-process serving numbers.
#[derive(Debug, Serialize)]
struct NetSample {
    /// Concurrent closed-loop clients (one connection each).
    clients: usize,
    /// Completed queries per wall-clock second.
    qps: f64,
    /// Median end-to-end latency (including the wire), milliseconds.
    p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    p99_ms: f64,
    /// Requests that produced a ranking.
    completed: usize,
    /// Requests refused with a terminal status.
    rejected: usize,
    /// Wire attempts beyond the first (0 on a clean loopback run).
    retries: u64,
    /// Requests whose outcome arrived on a retry attempt.
    retry_successes: u64,
    /// Requests that exhausted every attempt — must be 0 on a healthy
    /// bench (no fault plan attached).
    give_ups: u64,
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

/// Crash-safe persistence counters from one save+load round trip of the
/// bench catalog, so `BENCH_retrieval.json` tracks the storage path's
/// health alongside retrieval.
#[derive(Debug, Serialize)]
struct PersistenceSample {
    /// Atomic-writer transient-error retries (0 on a healthy filesystem).
    atomic_write_retries: u64,
    /// `.bak`-generation load fallbacks (nonzero means the freshly written
    /// primary was unreadable — a red flag, not a perf number).
    bak_fallbacks: u64,
    /// Wall clock of the save+load round trip, seconds.
    seconds: f64,
}

/// The whole report.
#[derive(Debug, Serialize)]
struct Report {
    videos: usize,
    shots: usize,
    query: &'static str,
    /// Retrieval mode: content-driven ("similarity-bound") traversal.
    regime: &'static str,
    /// Cores the host reported (the serve and net sweeps share them
    /// among 4 server workers and the clients).
    host_cpus: usize,
    repeats: u32,
    samples: Vec<Sample>,
    /// Speedup from the exact top-k prune alone (unpruned / pruned
    /// seconds).
    prune_speedup_serial: f64,
    /// Crash-safe persistence round trip of the bench catalog.
    persistence: PersistenceSample,
    /// Blocked-vs-scalar similarity and CSR-vs-dense row-max micro-benches.
    kernel: Vec<KernelSample>,
    /// QueryServer throughput/tail-latency sweep across client counts.
    serve: Vec<ServeSample>,
    /// The same sweep through the TCP front-end over loopback.
    net: Vec<NetSample>,
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

    let sample = |prune: bool, metrics: &MetricsReport| {
        let secs = best_seconds(metrics);
        Sample {
            prune,
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
        check_pruning_exactness(&model, &catalog, &pattern);
    }

    // The pruned run (the default) and the unpruned one anchor the prune
    // speedup.
    let pruned_metrics = time(RetrievalConfig::content_only());
    let pruned_secs = best_seconds(&pruned_metrics);
    let unpruned_metrics = time(RetrievalConfig {
        prune: false,
        ..RetrievalConfig::content_only()
    });
    let unpruned_secs = best_seconds(&unpruned_metrics);
    let samples = vec![
        sample(false, &unpruned_metrics),
        sample(true, &pruned_metrics),
    ];

    // One observed save+load round trip through the crash-safe path: the
    // retry/fallback counters belong in the snapshot so a flaky disk or a
    // storage regression shows up next to the retrieval numbers.
    let persistence = {
        let rec = InMemoryRecorder::shared();
        let opts = hmmm_storage::PersistOptions {
            recorder: rec.handle(),
            ..hmmm_storage::PersistOptions::default()
        };
        let dir = hmmm_storage::TestDir::new("hmmm_bench_persist");
        let path = dir.file("catalog.bin");
        let start = std::time::Instant::now();
        hmmm_storage::save_binary_with(&catalog, &path, &opts).expect("save catalog");
        let back = hmmm_storage::load_binary_with(&path, &opts).expect("load catalog");
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(back, catalog, "persistence round trip changed the catalog");
        let metrics = rec.report();
        PersistenceSample {
            atomic_write_retries: metrics.counter(m::CTR_ATOMIC_WRITE_RETRIES),
            bak_fallbacks: metrics.counter(m::CTR_BAK_FALLBACKS),
            seconds,
        }
    };

    // Coarse-stage rows: the exact pruned run above, and the same query
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
            speedup_vs_exact: pruned_secs / secs,
        }
    };
    let cut_metrics = time(RetrievalConfig {
        candidate_cut: Some(16),
        ..RetrievalConfig::content_only()
    });
    let coarse = vec![
        coarse_row(None, &pruned_metrics),
        coarse_row(Some(16), &cut_metrics),
    ];

    let kernel = kernel_microbench(&model);
    let serve = serve_sweep(&model, &catalog);
    let net = net_sweep(&model, &catalog);
    let report = Report {
        videos,
        shots: total_shots,
        query: QUERY,
        regime: "content_only",
        host_cpus,
        repeats: REPEATS,
        prune_speedup_serial: unpruned_secs / pruned_secs,
        persistence,
        kernel,
        serve,
        net,
        samples,
        coarse,
    };

    for s in &report.samples {
        println!(
            "prune {:<3}: {:>8.2} ms, {:>12.0} shots/s, {} bound-skips, {} pruned",
            if s.prune { "on" } else { "off" },
            s.seconds * 1e3,
            s.shots_per_sec,
            s.videos_skipped_by_bound,
            s.entries_pruned,
        );
    }
    for k in &report.kernel {
        println!(
            "kernel {:<20}: {:>8.3} ms, {:>14.0} units/s",
            k.variant,
            k.seconds * 1e3,
            k.units_per_sec
        );
    }
    for s in &report.serve {
        println!(
            "serve {:>2} clients: {:>8.1} qps, p50 {:>7.3} ms, p95 {:>7.3} ms, \
             p99 {:>7.3} ms ({} completed, {} rejected)",
            s.clients, s.qps, s.p50_ms, s.p95_ms, s.p99_ms, s.completed, s.rejected,
        );
    }
    for s in &report.net {
        println!(
            "net   {:>2} clients: {:>8.1} qps, p50 {:>7.3} ms, p95 {:>7.3} ms, \
             p99 {:>7.3} ms ({} completed, {} rejected, {} retries, {} give-ups)",
            s.clients, s.qps, s.p50_ms, s.p95_ms, s.p99_ms, s.completed, s.rejected, s.retries,
            s.give_ups,
        );
    }
    println!("top-k prune alone: {:.2}x", report.prune_speedup_serial);
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
    println!(
        "persistence round trip: {:.2} ms, {} retries, {} bak fallbacks",
        report.persistence.seconds * 1e3,
        report.persistence.atomic_write_retries,
        report.persistence.bak_fallbacks,
    );
    println!("host cpus: {host_cpus}");

    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out, json + "\n").expect("write report");
    println!("wrote {out}");
}

/// Serving throughput sweep: the same model behind an in-process
/// `QueryServer` (4 workers, bounded queue), loaded by 1/2/4/8 closed-loop
/// clients running the seeded Zipf workload with zero think time and no
/// feedback — pure read throughput, so QPS and the latency tail are
/// attributable to the serving layer and host parallelism alone.
fn serve_sweep(model: &hmmm_core::Hmmm, catalog: &hmmm_storage::Catalog) -> Vec<ServeSample> {
    use hmmm_serve::{ModelSnapshot, QueryServer, ServerConfig, WorkloadConfig};
    const REQUESTS_PER_CLIENT: usize = 24;
    let mut out = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        eprintln!("serving sweep: {clients} clients…");
        let snapshot = ModelSnapshot::from_model(model.clone(), catalog.clone())
            .expect("bench model audits clean");
        let server = QueryServer::start(
            snapshot,
            ServerConfig {
                workers: 4,
                queue_capacity: 128,
                ..ServerConfig::default()
            },
        )
        .expect("valid server config");
        let report = hmmm_serve::run_workload(
            &server,
            &WorkloadConfig {
                clients,
                requests_per_client: REQUESTS_PER_CLIENT,
                mean_interarrival: std::time::Duration::ZERO,
                feedback_probability: 0.0,
                seed: 0xBE7C,
                ..WorkloadConfig::default()
            },
        )
        .expect("workload runs");
        server.join();
        let rejected: usize = report.rejections.values().sum();
        out.push(ServeSample {
            clients,
            qps: report.qps,
            p50_ms: report.p50_ms,
            p95_ms: report.p95_ms,
            p99_ms: report.p99_ms,
            completed: report.completed,
            rejected,
            degraded: report.degraded,
        });
    }
    out
}

/// The serving sweep again, but through the TCP front-end on a loopback
/// socket: same model, same Zipf workload, real framing + JSON + syscalls
/// in the path. Retries and give-ups must stay 0 — no fault plan is
/// attached, so any nonzero value flags a front-end bug, not load.
fn net_sweep(model: &hmmm_core::Hmmm, catalog: &hmmm_storage::Catalog) -> Vec<NetSample> {
    use hmmm_serve::{
        ModelSnapshot, NetConfig, NetServer, NetWorkloadConfig, QueryServer, ServerConfig,
    };
    const REQUESTS_PER_CLIENT: usize = 24;
    let mut out = Vec::new();
    for clients in [1usize, 4] {
        eprintln!("network sweep: {clients} clients…");
        let snapshot = ModelSnapshot::from_model(model.clone(), catalog.clone())
            .expect("bench model audits clean");
        let server = QueryServer::start(
            snapshot,
            ServerConfig {
                workers: 4,
                queue_capacity: 128,
                ..ServerConfig::default()
            },
        )
        .expect("valid server config");
        let net = NetServer::start(
            std::sync::Arc::new(server),
            "127.0.0.1:0",
            NetConfig::default(),
        )
        .expect("front-end binds loopback");
        let report = hmmm_serve::run_net_workload(
            net.local_addr(),
            &NetWorkloadConfig {
                clients,
                requests_per_client: REQUESTS_PER_CLIENT,
                mean_interarrival: std::time::Duration::ZERO,
                seed: 0xBE7C,
                ..NetWorkloadConfig::default()
            },
        )
        .expect("network workload runs");
        net.shutdown();
        let rejected: usize = report.rejections.values().sum();
        out.push(NetSample {
            clients,
            qps: report.qps,
            p50_ms: report.p50_ms,
            p95_ms: report.p95_ms,
            p99_ms: report.p99_ms,
            completed: report.completed,
            rejected,
            retries: report.retries,
            retry_successes: report.retry_successes,
            give_ups: report.give_ups,
        });
    }
    out
}

/// Times the Eq.-14 similarity of every event against every archive shot
/// through the scalar reference and the blocked SoA kernel (bitwise
/// cross-checked, so a layout bug can never ship inside a perf snapshot),
/// and the forward row-max refresh over every video's CSR `A_1` —
/// best-of-3.
fn kernel_microbench(model: &hmmm_core::Hmmm) -> Vec<KernelSample> {
    use hmmm_core::sim;
    const ROUNDS: usize = 3;
    let shots = model.shot_count();
    let events = hmmm_media::EventKind::COUNT;
    let evals = (shots * events) as f64;

    let best = |f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let start = std::time::Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };

    let mut scalar_sink = 0.0f64;
    let scalar_secs = best(&mut || {
        let mut acc = 0.0;
        for e in 0..events {
            // Per-event partial, folded in shot order — the exact
            // accumulation sequence of the blocked run's row sum, so the
            // two sinks can be compared bitwise below.
            let mut part = 0.0;
            for s in 0..shots {
                part += sim::similarity(model, s, e);
            }
            acc += part;
        }
        scalar_sink = std::hint::black_box(acc);
    });

    let mut block = Vec::new();
    let mut blocked_sink = 0.0f64;
    let blocked_secs = best(&mut || {
        let mut acc = 0.0;
        for e in 0..events {
            let row = sim::similarity_block(model, 0..shots, e, &mut block);
            acc += row.iter().sum::<f64>();
        }
        blocked_sink = std::hint::black_box(acc);
    });
    assert_eq!(
        scalar_sink.to_bits(),
        blocked_sink.to_bits(),
        "blocked kernel diverged from the scalar reference"
    );

    let rows: usize = model.locals().iter().map(|l| l.len()).sum();
    let mut maxima = vec![0.0f64; model.locals().iter().map(|l| l.len()).max().unwrap_or(0)];
    let csr_secs = best(&mut || {
        let mut acc = 0.0;
        for local in model.locals() {
            let out = &mut maxima[..local.len()];
            local.a1().row_maxima_into(out);
            acc += out.iter().sum::<f64>();
        }
        std::hint::black_box(acc);
    });

    vec![
        KernelSample {
            variant: "similarity_scalar",
            seconds: scalar_secs,
            units_per_sec: evals / scalar_secs,
        },
        KernelSample {
            variant: "similarity_blocked",
            seconds: blocked_secs,
            units_per_sec: evals / blocked_secs,
        },
        KernelSample {
            variant: "row_max_csr",
            seconds: csr_secs,
            units_per_sec: rows as f64 / csr_secs,
        },
    ]
}

/// CI smoke for the exact top-k prune: pruned rankings must equal unpruned
/// rankings on this fixture in both regimes, and the content-driven pruned
/// run must show nonzero pruning work. Aborts the process with exit code 1
/// on any violation.
fn check_pruning_exactness(
    model: &hmmm_core::Hmmm,
    catalog: &hmmm_storage::Catalog,
    pattern: &hmmm_query::CompiledPattern,
) {
    eprintln!("checking pruned vs unpruned rankings…");
    let mut failures = 0usize;
    for content_only in [true, false] {
        let base = if content_only {
            RetrievalConfig::content_only()
        } else {
            RetrievalConfig::default()
        };
        let pruned_cfg = RetrievalConfig {
            prune: true,
            ..base
        };
        let unpruned_cfg = RetrievalConfig {
            prune: false,
            ..pruned_cfg.clone()
        };
        let (pruned, p_stats) = Retriever::new(model, catalog, pruned_cfg)
            .expect("consistent")
            .retrieve(pattern, 10)
            .expect("valid");
        let (unpruned, _) = Retriever::new(model, catalog, unpruned_cfg)
            .expect("consistent")
            .retrieve(pattern, 10)
            .expect("valid");
        if pruned != unpruned {
            eprintln!("FAIL: pruned ranking differs (content_only={content_only})");
            failures += 1;
        }
        // The skewed fixture is adversarial by construction: far more
        // candidates than k and half the videos nearly bare of events,
        // so a healthy prune must fire somewhere.
        if content_only {
            let work = p_stats.entries_pruned + p_stats.videos_skipped_by_bound as u64;
            if work == 0 {
                eprintln!("FAIL: pruned run pruned nothing (prune is a no-op?)");
                failures += 1;
            } else {
                eprintln!(
                    "  prune work: {} entries, {} video skips, {} raises",
                    p_stats.entries_pruned,
                    p_stats.videos_skipped_by_bound,
                    p_stats.threshold_raises
                );
            }
        }
    }
    if failures > 0 {
        eprintln!("pruning exactness check FAILED ({failures} violations)");
        std::process::exit(1);
    }
    eprintln!("pruning exactness check passed");
}
