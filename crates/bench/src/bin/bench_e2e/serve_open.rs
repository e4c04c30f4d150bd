//! `serve_open`: an open-loop Poisson schedule of the Zipf soccer mix
//! through `QueryServer::submit`.
//!
//! Independent users arrive on a schedule whether or not the server keeps
//! up, so only an arrival schedule builds a queue; the admission queue and
//! the per-request engine path (validate + retrieve) do almost all the
//! work. One pacer thread submits on schedule and never blocks; one
//! collector thread waits on the tickets in submission order. A request is
//! timed from its scheduled send.
//!
//! Untraced, the whole window runs at the reference rate. Traced, the
//! server's spans split the reference step into the latency ledger, and a
//! rate ladder follows it, stopping at the first step that misses the SLO.

use crate::fixture::{self, Fate, Mix, References, Scale, Served, LIMIT};
use crate::report::Outcome;
use crate::spans;
use crate::stats::{self, Ledger, Slo, Step};
use hmmm_serve::{QueryRequest, QueryServer, ResponseTicket};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The ladder's service-level objective. The limits sit far from every
/// step's measured value (see README.md), so the highest passing rate does
/// not flip between neighbouring steps from run to run.
pub const SLO: Slo = Slo {
    p99_ms: 50.0,
    failed_frac: 0.01,
    lag_p99_ms: 10.0,
};

/// Ladder rates after the reference step, as multiples of it. ×4 steps
/// keep every step out of the band around capacity (≈ 700–900/s for the
/// 100 × 100 fixture on two workers), where a p99 swings from run to run.
const LADDER: [f64; 3] = [4.0, 16.0, 64.0];

/// Head start between building the schedule and its first send.
const LEAD: Duration = Duration::from_millis(5);

/// One step of the schedule as the pacer and the collector saw it.
struct StepRun {
    served: Vec<Served>,
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// Schedule origin to the last observed answer.
    wall: Duration,
}

impl StepRun {
    /// Latencies with every failed request counted as missing any limit.
    fn latencies(&self) -> Vec<f64> {
        stats::sorted(
            self.served
                .iter()
                .map(|s| match s.fate {
                    Fate::Exact => stats::ms(s.e2e_ns),
                    _ => f64::INFINITY,
                })
                .collect(),
        )
    }

    fn step(&self, rate: f64) -> Step {
        let failed = self.served.iter().filter(|s| s.fate != Fate::Exact).count();
        let last_tenth = self.served.len() - self.served.len() / 10;
        Step {
            rate,
            p99_ms: stats::p99(&self.latencies()).ok(),
            failed_frac: failed as f64 / self.served.len().max(1) as f64,
            lag_p99_ms: stats::percentile(&stats::sorted(self.lag_ms.clone()), 99.0).unwrap_or(0.0),
            tail_median_ms: stats::median(
                self.served[last_tenth..]
                    .iter()
                    .map(|s| stats::ms(s.e2e_ns))
                    .collect(),
            ),
        }
    }
}

/// Sends `rate × seconds` requests on a seeded Poisson schedule and
/// collects every answer.
fn run_step(server: &QueryServer, mix: &Mix, rng: &mut StdRng, rate: f64, seconds: f64) -> StepRun {
    let arrivals: Vec<(Duration, usize)> = stats::poisson_schedule(rng, rate, seconds)
        .into_iter()
        .map(|at| (at, mix.sample(rng)))
        .collect();
    let n = arrivals.len();
    let (tx, rx) = mpsc::channel::<(usize, Duration, Duration, ResponseTicket)>();
    let origin = Instant::now() + LEAD;
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut served = Vec::with_capacity(n);
            let mut lag_ms = Vec::with_capacity(n);
            for (pattern, scheduled, sent, ticket) in rx {
                let outcome = ticket.wait();
                let done = Instant::now().saturating_duration_since(origin);
                let (lag, e2e) = stats::open_loop_timing(scheduled, sent, done);
                lag_ms.push(stats::ms(lag.as_nanos() as u64));
                served.push(Served::from_outcome(pattern, scheduled, e2e, outcome));
            }
            let wall = Instant::now().saturating_duration_since(origin);
            (served, lag_ms, wall)
        });
        let pacer = s.spawn(move || {
            let mut submit_us = Vec::with_capacity(n);
            for (at, pattern) in arrivals {
                let request = QueryRequest::new(mix.pattern(pattern).clone(), LIMIT);
                let due = origin + at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent_at = Instant::now();
                let ticket = server.submit(request);
                submit_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
                let sent = sent_at.saturating_duration_since(origin);
                tx.send((pattern, at, sent, ticket))
                    .expect("collector outlives the pacer");
            }
            submit_us
        });
        let submit_us = pacer.join().expect("pacer panicked");
        let (served, lag_ms, wall) = collector.join().expect("collector panicked");
        StepRun {
            served,
            lag_ms,
            submit_us,
            wall,
        }
    })
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
    let mut rng = StdRng::seed_from_u64(fixture::sub_seed(seed, 1));
    let reference = run_step(&server, &mix, &mut rng, scale.serve_rate, scale.seconds);
    let report = recorder.as_ref().map(|r| r.report());

    let mut outcome = Outcome::default();
    outcome.metrics.set("setup_s", setup_s);
    fixture::count_failures(&reference.served, &mut outcome);
    fixture::latency_metrics(
        &reference.served,
        Duration::from_secs_f64(scale.seconds),
        &mut outcome,
    )?;
    // Open loop: the offered rate is fixed, so throughput is what the
    // server completed from the first send to its last answer.
    let completed = reference
        .served
        .iter()
        .filter(|s| s.fate == Fate::Exact)
        .count();
    outcome
        .metrics
        .set("ops_per_s", completed as f64 / reference.wall.as_secs_f64());

    let live = server.snapshot();
    let mut refs = References::new(&live.catalog, &mix, server.retrieval_config());
    refs.check(&live.model, 0, &reference.served, &mut outcome)?;

    if let Some(report) = report {
        fixture::server_layers(&reference.served, &mut outcome);
        fixture::compile_layer(&mix, &mut outcome);
        refs.engine_counts(&reference.served, &mut outcome);
        let engine = spans::engine_spans(&report);
        engine.record(&mut outcome);
        ledger(&reference, &engine, &mut outcome);
        let m = &mut outcome.metrics;
        m.set(
            "serve.submit_us_p50",
            stats::median(reference.submit_us.clone()),
        );
        let lag = stats::sorted(reference.lag_ms.clone());
        m.set(
            "gen.lag_p99_ms",
            stats::percentile(&lag, 99.0).unwrap_or(0.0),
        );
        let queue_full = reference
            .served
            .iter()
            .filter(|s| s.fate == Fate::QueueFull)
            .count();
        m.set("serve.queue_full_rejections", queue_full as f64);
        if let Some(r) = &recorder {
            r.reset();
        }
        ladder(&server, &mix, &mut rng, scale, &reference, &mut outcome);
    }
    drop(live);
    server.join();
    Ok(outcome)
}

/// lag + queue + validate + retrieve + residual = end-to-end p50 on the
/// reference step.
fn ledger(reference: &StepRun, engine: &spans::EngineSpans, outcome: &mut Outcome) {
    let exact: Vec<&Served> = reference
        .served
        .iter()
        .filter(|s| s.fate == Fate::Exact)
        .collect();
    let (Some(validate_p50), Some(retrieve_p50)) = (engine.validate_p50(), engine.retrieve_p50())
    else {
        return;
    };
    let ledger = Ledger {
        e2e_p50: stats::median(exact.iter().map(|s| stats::ms(s.e2e_ns)).collect()),
        lag_p50: stats::median(reference.lag_ms.clone()),
        queue_p50: stats::median(exact.iter().map(|s| stats::ms(s.queue_ns)).collect()),
        validate_p50,
        retrieve_p50,
    };
    outcome
        .metrics
        .set("serve.unattributed_frac", ledger.unattributed_frac());
    for (key, value) in [
        ("ledger.e2e_p50_ms", ledger.e2e_p50),
        ("ledger.lag_p50_ms", ledger.lag_p50),
        ("ledger.queue_p50_ms", ledger.queue_p50),
        ("ledger.validate_p50_ms", ledger.validate_p50),
        ("ledger.retrieve_p50_ms", ledger.retrieve_p50),
        ("ledger.residual_ms", ledger.residual()),
    ] {
        outcome.notes.insert(key.to_string(), value);
    }
}

/// The rate ladder after the reference step. Each step runs long enough
/// for a supported p99; the ladder stops at the first step missing the SLO.
fn ladder(
    server: &QueryServer,
    mix: &Mix,
    rng: &mut StdRng,
    scale: &Scale,
    reference: &StepRun,
    outcome: &mut Outcome,
) {
    let mut steps = vec![reference.step(scale.serve_rate)];
    for factor in LADDER {
        if !SLO.passes(steps.last().expect("reference step")) {
            break;
        }
        let rate = scale.serve_rate * factor;
        let seconds = (scale.seconds / 5.0).max(1000.0 / rate);
        steps.push(run_step(server, mix, rng, rate, seconds).step(rate));
    }
    for s in &steps {
        let key = |what: &str| format!("ladder.{}.{what}", s.rate);
        if let Some(p99) = s.p99_ms.filter(|p| p.is_finite()) {
            outcome.notes.insert(key("p99_ms"), p99);
        }
        outcome.notes.insert(key("failed_frac"), s.failed_frac);
        outcome.notes.insert(key("lag_p99_ms"), s.lag_p99_ms);
        outcome
            .notes
            .insert(key("tail_median_ms"), s.tail_median_ms);
    }
    outcome
        .metrics
        .set("serve.max_qps_at_slo", SLO.max_rate(&steps));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(fate: Fate, e2e_ms: u64) -> Served {
        Served::failed(0, Duration::ZERO, Duration::from_millis(e2e_ms), fate)
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        let mut all: Vec<Served> = (0..1000).map(|_| served(Fate::Exact, 5)).collect();
        let run = |served: Vec<Served>| StepRun {
            served,
            lag_ms: vec![0.1; 1000],
            submit_us: Vec::new(),
            wall: Duration::from_secs(1),
        };
        let ok = run(all.clone()).step(100.0);
        assert_eq!(ok.p99_ms, Some(5.0));
        assert!(SLO.passes(&ok));
        // 2% rejected: the rejections push the p99 past any limit and the
        // failure share past the SLO's.
        for s in all.iter_mut().take(20) {
            s.fate = Fate::QueueFull;
        }
        let shed = run(all).step(100.0);
        assert_eq!(shed.p99_ms, Some(f64::INFINITY));
        assert!(!SLO.passes(&shed));
    }
}
