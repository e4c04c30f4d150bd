//! `feedback_mixed`: writes beside reads. Two closed-loop query clients
//! run for the window; every `install_every`, client 0 calls
//! `QueryServer::apply_feedback` inline with the next of a seeded list of
//! 20-pattern feedback batches drawn from epoch-0 serial rankings.
//!
//! Eqs. 1–10 relearning, `deep_audit` and the RCU install share the cores
//! with the queries, so work moved from the read path into install shows
//! up here as slower writes or a worse read tail.
//!
//! The check keeps no snapshot history (one model per epoch would not fit
//! in memory): it rebuilds epoch k by replaying batches 1..k on the
//! epoch-0 model and compares every read served at k against it.

use crate::fixture::{self, Mix, References, Scale, Served, LIMIT};
use crate::report::Outcome;
use crate::spans;
use crate::stats;
use hmmm_core::{FeedbackConfig, FeedbackLog, PositivePattern, RetrievalConfig, Retriever};
use hmmm_serve::{QueryRequest, QueryServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Confirmed patterns per feedback batch (the default update threshold).
const BATCH: usize = 20;

/// One `apply_feedback` call in the window.
struct Install {
    /// Offset of the call from the window start, and its duration.
    at: Duration,
    took: Duration,
    /// The epoch it published, or why it failed.
    epoch: Result<u64, String>,
}

/// The batches: `count` lists of `BATCH` positive patterns, each a result
/// of a multi-step mix pattern ranked serially on the epoch-0 model.
fn batches(
    model: &hmmm_core::Hmmm,
    catalog: &hmmm_storage::Catalog,
    mix: &Mix,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<Vec<PositivePattern>>, String> {
    let mut config = RetrievalConfig::content_only();
    config.threads = Some(1);
    let retriever = Retriever::new(model, catalog, config).map_err(|e| e.to_string())?;
    let mut pool = Vec::new();
    for i in (0..mix.len()).filter(|&i| mix.pattern(i).len() > 1) {
        let (results, _) = retriever
            .retrieve(mix.pattern(i), LIMIT)
            .map_err(|e| e.to_string())?;
        pool.extend(results);
    }
    if pool.is_empty() {
        return Err("no multi-step ranking to draw feedback from".into());
    }
    Ok((0..count)
        .map(|b| {
            (0..BATCH)
                .map(|j| {
                    let r = &pool[(rng.next_u64() % pool.len() as u64) as usize];
                    PositivePattern {
                        query: (b * BATCH + j) as u64,
                        video: r.video,
                        shots: r.shots.clone(),
                        events: r.events.clone(),
                        access: 1.0,
                    }
                })
                .collect()
        })
        .collect())
}

/// One closed-loop client; client 0 also writes.
fn run_client(
    server: &QueryServer,
    mix: &Mix,
    seed: u64,
    started: Instant,
    until: Instant,
    writes: Option<(&[Vec<PositivePattern>], Duration)>,
) -> (Vec<Served>, Vec<Install>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reads = Vec::new();
    let mut installs = Vec::new();
    let mut log = FeedbackLog::new();
    let config = FeedbackConfig::default();
    while Instant::now() < until {
        if let Some((batches, every)) = writes {
            let due = started + every * (installs.len() as u32 + 1);
            if installs.len() < batches.len() && Instant::now() >= due {
                for p in &batches[installs.len()] {
                    log.record(p.clone())
                        .expect("batch patterns are well-formed");
                }
                let at = Instant::now();
                let epoch = server
                    .apply_feedback(&mut log, &config)
                    .map(|(epoch, _)| epoch)
                    .map_err(|e| e.to_string());
                installs.push(Install {
                    at: at - started,
                    took: at.elapsed(),
                    epoch,
                });
                continue;
            }
        }
        let pattern = mix.sample(&mut rng);
        let sent = Instant::now();
        let outcome = server.query(QueryRequest::new(mix.pattern(pattern).clone(), LIMIT));
        reads.push(Served::from_outcome(
            pattern,
            sent - started,
            sent.elapsed(),
            outcome,
        ));
    }
    (reads, installs)
}

/// Runs the workload for one seed.
pub fn run(scale: &Scale, seed: u64, trace: bool) -> Result<Outcome, String> {
    let mix = Mix::soccer()?;
    let catalog = fixture::query_catalog(scale.videos, scale.shots, seed);
    let (recorder, handle) = fixture::recorder(trace);
    let (server, setup_s) = fixture::serve_setup(&catalog, &handle, &mix)?;
    if let Some(r) = &recorder {
        r.reset();
    }
    let epoch0 = server.snapshot();
    let count = (scale.seconds / scale.install_every.as_secs_f64()).ceil() as usize + 1;
    let mut rng = StdRng::seed_from_u64(fixture::sub_seed(seed, 3));
    let batches = batches(&epoch0.model, &epoch0.catalog, &mix, count, &mut rng)?;

    let started = Instant::now();
    let until = started + Duration::from_secs_f64(scale.seconds);
    let (mut served, installs) = std::thread::scope(|s| {
        let (server, mix, batches) = (&server, &mix, &batches);
        let writer = s.spawn(move || {
            let writes = Some((batches.as_slice(), scale.install_every));
            run_client(
                server,
                mix,
                fixture::sub_seed(seed, 10),
                started,
                until,
                writes,
            )
        });
        let (reads, _) = run_client(
            server,
            mix,
            fixture::sub_seed(seed, 11),
            started,
            until,
            None,
        );
        let (mut writer_reads, installs) = writer.join().expect("writer client panicked");
        writer_reads.extend(reads);
        (writer_reads, installs)
    });
    let report = recorder.as_ref().map(|r| r.report());
    let retrieval = server.retrieval_config();
    server.join();
    served.sort_by_key(|s| s.sent);

    let mut outcome = Outcome::default();
    outcome.metrics.set("setup_s", setup_s);
    fixture::count_failures(&served, &mut outcome);
    fixture::latency_metrics(&served, until - started, &mut outcome)?;
    outcome.attempted += installs.len() as u64;
    outcome.failed += installs.iter().filter(|i| i.epoch.is_err()).count() as u64;

    // Exactness: replay the batches epoch by epoch.
    let mut refs = References::new(&epoch0.catalog, &mix, retrieval);
    let mut model = epoch0.model.clone();
    refs.check(&model, 0, &served, &mut outcome)?;
    let mut log = FeedbackLog::new();
    let (mut clone_ms, mut relearn_ms, mut audit_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut checked_epochs = 0u64;
    for (k, install) in installs.iter().enumerate() {
        let epoch = k as u64 + 1;
        match &install.epoch {
            Ok(e) if *e == epoch => {}
            other => {
                outcome
                    .problems
                    .push(format!("install {epoch} published {other:?}"));
                break;
            }
        }
        for p in &batches[k] {
            log.record(p.clone()).map_err(|e| e.to_string())?;
        }
        if trace {
            let t = Instant::now();
            let copy = model.clone();
            clone_ms.push(stats::ms(t.elapsed().as_nanos() as u64));
            drop(copy);
        }
        let t = Instant::now();
        log.apply(&mut model, &epoch0.catalog, &FeedbackConfig::default())
            .map_err(|e| format!("replaying batch {epoch}: {e}"))?;
        relearn_ms.push(stats::ms(t.elapsed().as_nanos() as u64));
        if trace {
            let t = Instant::now();
            model
                .deep_audit(&epoch0.catalog)
                .map_err(|e| e.to_string())?;
            audit_ms.push(stats::ms(t.elapsed().as_nanos() as u64));
        }
        refs.check(&model, epoch, &served, &mut outcome)?;
        checked_epochs = epoch;
    }
    let unchecked = served.iter().filter(|s| s.epoch > checked_epochs).count();
    if unchecked > 0 {
        outcome.problem(format!(
            "{unchecked} reads came from epochs the replay never reached"
        ));
    }

    if let Some(report) = report {
        fixture::server_layers(&served, &mut outcome);
        fixture::compile_layer(&mix, &mut outcome);
        refs.engine_counts(&served, &mut outcome);
        spans::engine_spans(&report).record(&mut outcome);
        let during: Vec<f64> = served
            .iter()
            .filter(|r| {
                let end = r.sent + Duration::from_nanos(r.e2e_ns);
                installs
                    .iter()
                    .any(|i| r.sent < i.at + i.took && i.at < end)
            })
            .map(|r| stats::ms(r.e2e_ns))
            .collect();
        outcome
            .samples
            .insert("feedback.reads_during_install", during.len());
        let m = &mut outcome.metrics;
        if let Some((pct, tail)) = stats::tail(&stats::sorted(during)) {
            m.set("feedback.read_tail_ms_during_install", tail);
            outcome
                .notes
                .insert("feedback.read_tail_percentile".into(), pct);
        }
        m.set(
            "feedback.write_ms_p50",
            stats::median(
                installs
                    .iter()
                    .map(|i| i.took.as_secs_f64() * 1e3)
                    .collect(),
            ),
        );
        m.set("feedback.installs", installs.len() as f64);
        m.set("feedback.clone_ms_p50", stats::median(clone_ms));
        m.set("feedback.relearn_ms_p50", stats::median(relearn_ms));
        m.set("feedback.audit_ms_p50", stats::median(audit_ms));
    }
    Ok(outcome)
}
