//! What the query workloads share: run sizes, the seeded skewed catalog,
//! timed server set-up, the Zipf soccer mix, and the serial exactness
//! reference every served ranking is compared against.

use crate::report::Outcome;
use crate::stats;
use hmmm_bench::{standard_catalog, DataConfig};
use hmmm_core::{BuildConfig, Hmmm, RankedPattern, RetrievalConfig, RetrievalStats, Retriever};
use hmmm_core::{InMemoryRecorder, RecorderHandle};
use hmmm_media::RenderConfig;
use hmmm_query::CompiledPattern;
use hmmm_serve::{
    ModelSnapshot, PatternPool, QueryRequest, QueryServer, RejectReason, ServeOutcome, ServerConfig,
};
use hmmm_storage::Catalog;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-k of every query.
pub const LIMIT: usize = 10;
/// Event rate of the skewed catalog's weak half (as `bench_report`).
const WEAK_RATE: f64 = 0.005;

/// Run sizes: the full benchmark, or `--quick` for a smoke run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Query fixture: videos × shots per video.
    pub videos: usize,
    /// Shots per video of the query fixture.
    pub shots: usize,
    /// serve_open's reference rate, requests per second.
    pub serve_rate: f64,
    /// feedback_mixed's install period.
    pub install_every: Duration,
    /// ingest: videos of the annotator's training archive.
    pub train_videos: usize,
    /// ingest: shots per video of the training archive and the stream.
    pub ingest_shots: usize,
    /// ingest: the render profile of both archives.
    pub ingest_render: RenderConfig,
    /// ingest: leading stream videos the cut and mining F1 scores cover.
    pub f1_videos: usize,
}

impl Scale {
    /// The full run (100 × 100 query fixture, `seconds` defaulting to 20)
    /// or the quick smoke run (12 × 60 fixture, 2 s).
    pub fn new(quick: bool, seconds: Option<f64>) -> Self {
        if quick {
            Scale {
                seconds: seconds.unwrap_or(2.0),
                videos: 12,
                shots: 60,
                serve_rate: 600.0,
                install_every: Duration::from_millis(200),
                train_videos: 2,
                ingest_shots: 20,
                ingest_render: RenderConfig::small(),
                f1_videos: 2,
            }
        } else {
            Scale {
                seconds: seconds.unwrap_or(20.0),
                videos: 100,
                shots: 100,
                serve_rate: 300.0,
                install_every: Duration::from_millis(500),
                train_videos: 4,
                ingest_shots: 60,
                ingest_render: RenderConfig::default(),
                f1_videos: 8,
            }
        }
    }
}

/// An independent seed per use (SplitMix64 over seed and stream).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `hmmm_bench::skewed_catalog` (the `bench_report` fixture), with its two
/// halves rendered on two threads: the same catalog in half the time.
pub fn query_catalog(videos: usize, shots: usize, seed: u64) -> Catalog {
    let config = DataConfig {
        videos,
        shots_per_video: shots,
        event_rate: 0.08,
        seed,
    };
    let weak_videos = videos / 2;
    let (strong, weak) = std::thread::scope(|s| {
        let strong = s.spawn(|| {
            standard_catalog(DataConfig {
                videos: videos - weak_videos,
                ..config
            })
            .1
        });
        let weak = standard_catalog(DataConfig {
            videos: weak_videos,
            event_rate: WEAK_RATE,
            seed: seed ^ 0x5EED_CAFE,
            ..config
        })
        .1;
        (strong.join().expect("fixture thread panicked"), weak)
    });
    let mut merged = Catalog::new();
    for i in 0..videos.div_ceil(2) {
        for (tag, part) in [("strong", &strong), ("weak", &weak)] {
            if let Some(video) = part.videos().get(i) {
                let shots = part
                    .shots_of_video(video.id)
                    .iter()
                    .map(|s| (s.events.clone(), s.features))
                    .collect();
                merged.add_video(format!("{tag}{i}"), shots);
            }
        }
    }
    merged
}

/// The Zipf(1.0) soccer mix of the serving crate's load generator.
pub struct Mix {
    pool: PatternPool,
    cdf: Vec<f64>,
}

impl Mix {
    /// The built-in soccer patterns, ranked by popularity.
    pub fn soccer() -> Result<Self, String> {
        let pool = PatternPool::soccer(1.0).map_err(|e| e.to_string())?;
        let mut total = 0.0;
        let cdf = (1..=pool.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Ok(Mix { pool, cdf })
    }

    /// Number of distinct patterns.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Draws a pattern index by its Zipf weight.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u = rng.next_f64() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.len() - 1)
    }

    /// Query text of pattern `i`.
    pub fn text(&self, i: usize) -> &str {
        self.pool.get(i).0
    }

    /// Compiled pattern `i`.
    pub fn pattern(&self, i: usize) -> &CompiledPattern {
        self.pool.get(i).1
    }
}

/// The measured server: 2 workers, a 128-deep queue, default retrieval.
pub fn server_config(recorder: RecorderHandle) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 128,
        recorder,
        ..ServerConfig::default()
    }
}

/// The server half of set-up: λ construction and the snapshot audit
/// (`ModelSnapshot::build`), then the worker pool.
pub fn start_server(catalog: Catalog, recorder: RecorderHandle) -> Result<QueryServer, String> {
    let snapshot =
        ModelSnapshot::build(catalog, &BuildConfig::default()).map_err(|e| e.to_string())?;
    QueryServer::start(snapshot, server_config(recorder)).map_err(|e| e.to_string())
}

/// Set-up ends when the first query is answered.
pub fn first_query(server: &QueryServer, mix: &Mix) -> Result<(), String> {
    match server.query(QueryRequest::new(mix.pattern(0).clone(), LIMIT)) {
        ServeOutcome::Completed(_) => Ok(()),
        ServeOutcome::Rejected(reason) => Err(format!("first query rejected: {reason}")),
    }
}

/// In-process set-up, `SETUP_REPS` times: the server and its median
/// set-up seconds.
pub fn serve_setup(
    catalog: &Catalog,
    recorder: &RecorderHandle,
    mix: &Mix,
) -> Result<(QueryServer, f64), String> {
    repeated_setup(
        SETUP_REPS,
        || catalog.clone(),
        |c| {
            let server = start_server(c, recorder.clone())?;
            first_query(&server, mix)?;
            Ok(server)
        },
    )
}

/// Set-ups timed per query-workload run (the median is reported).
pub const SETUP_REPS: usize = 9;

/// Runs a set-up `reps` times, each on a fresh input made outside the
/// clock, and returns the last instance with the median set-up seconds.
pub fn repeated_setup<I, T>(
    reps: usize,
    mut input: impl FnMut() -> I,
    mut build: impl FnMut(I) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let input = input();
        let started = Instant::now();
        let built = build(input)?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one set-up ran"), stats::median(times)))
}

/// The recorder a traced run attaches through `ServerConfig.recorder`.
pub fn recorder(trace: bool) -> (Option<Arc<InMemoryRecorder>>, RecorderHandle) {
    if trace {
        let r = InMemoryRecorder::shared();
        let handle = r.handle();
        (Some(r), handle)
    } else {
        (None, RecorderHandle::noop())
    }
}

/// How one query request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// An exact ranking.
    Exact,
    /// A degraded ranking (deadline or worker panic).
    Degraded,
    /// Refused because the admission queue was full.
    QueueFull,
    /// Refused for another reason.
    Rejected,
    /// The wire client gave up.
    GaveUp,
}

/// One served query as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// Index into the [`Mix`].
    pub pattern: usize,
    /// When it was (scheduled to be) sent, from the window's start.
    pub sent: Duration,
    /// Latency from the (scheduled) send to the observed answer.
    pub e2e_ns: u64,
    /// Admission-queue wait the server reported.
    pub queue_ns: u64,
    /// Execution time the server reported.
    pub service_ns: u64,
    /// Model generation that answered.
    pub epoch: u64,
    /// The ranking.
    pub results: Vec<RankedPattern>,
    /// How it ended.
    pub fate: Fate,
}

impl Served {
    /// A request that produced no ranking.
    pub fn failed(pattern: usize, sent: Duration, e2e: Duration, fate: Fate) -> Self {
        Served {
            pattern,
            sent,
            e2e_ns: e2e.as_nanos() as u64,
            queue_ns: 0,
            service_ns: 0,
            epoch: 0,
            results: Vec::new(),
            fate,
        }
    }

    /// From an in-process server outcome.
    pub fn from_outcome(
        pattern: usize,
        sent: Duration,
        e2e: Duration,
        outcome: ServeOutcome,
    ) -> Self {
        match outcome {
            ServeOutcome::Completed(r) => Served {
                pattern,
                sent,
                e2e_ns: e2e.as_nanos() as u64,
                queue_ns: r.queue_ns,
                service_ns: r.service_ns,
                epoch: r.epoch,
                fate: if r.stats.degraded.is_some() {
                    Fate::Degraded
                } else {
                    Fate::Exact
                },
                results: r.results,
            },
            ServeOutcome::Rejected(RejectReason::QueueFull) => {
                Served::failed(pattern, sent, e2e, Fate::QueueFull)
            }
            ServeOutcome::Rejected(_) => Served::failed(pattern, sent, e2e, Fate::Rejected),
        }
    }
}

/// A serial re-derivation: the ranking's bytes and the engine's counters.
pub struct Reference {
    bytes: Vec<u8>,
    /// Work counters of the serial run.
    pub stats: RetrievalStats,
    /// Distinct videos among the ranked results.
    pub ranked_videos: usize,
}

fn ranking_bytes(results: &[RankedPattern]) -> Vec<u8> {
    serde_json::to_vec(&results).expect("rankings serialize")
}

/// Serial re-derivations cached per (pattern, epoch).
pub struct References<'a> {
    catalog: &'a Catalog,
    mix: &'a Mix,
    config: RetrievalConfig,
    cache: BTreeMap<(usize, u64), Reference>,
}

impl<'a> References<'a> {
    /// References under the server's retrieval config, run serially and
    /// without a deadline.
    pub fn new(catalog: &'a Catalog, mix: &'a Mix, live: RetrievalConfig) -> Self {
        let mut config = live;
        config.threads = Some(1);
        config.deadline = None;
        config.recorder = RecorderHandle::noop();
        References {
            catalog,
            mix,
            config,
            cache: BTreeMap::new(),
        }
    }

    /// The reference of `pattern` at `epoch`, derived on `model` (which
    /// must be that epoch's model) the first time it is asked for.
    pub fn get(&mut self, model: &Hmmm, pattern: usize, epoch: u64) -> Result<&Reference, String> {
        if !self.cache.contains_key(&(pattern, epoch)) {
            let retriever = Retriever::new(model, self.catalog, self.config.clone())
                .map_err(|e| e.to_string())?;
            let (results, stats) = retriever
                .retrieve(self.mix.pattern(pattern), LIMIT)
                .map_err(|e| e.to_string())?;
            let mut videos: Vec<_> = results.iter().map(|r| r.video).collect();
            videos.sort_unstable();
            videos.dedup();
            let reference = Reference {
                bytes: ranking_bytes(&results),
                stats,
                ranked_videos: videos.len(),
            };
            self.cache.insert((pattern, epoch), reference);
        }
        Ok(&self.cache[&(pattern, epoch)])
    }

    /// Checks every exact answer served at `epoch` against its serial
    /// re-derivation on `model`; a mismatch is a correctness problem.
    pub fn check(
        &mut self,
        model: &Hmmm,
        epoch: u64,
        served: &[Served],
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        for s in served
            .iter()
            .filter(|s| s.fate == Fate::Exact && s.epoch == epoch)
        {
            if self.get(model, s.pattern, epoch)?.bytes != ranking_bytes(&s.results) {
                outcome.problem(format!(
                    "ranking of {:?} at epoch {epoch} differs from its serial re-derivation",
                    self.mix.text(s.pattern)
                ));
            }
        }
        Ok(())
    }

    /// Per-query engine counters averaged over the exact answers, and the
    /// cache-hit and useful-visit ratios (traced runs).
    pub fn engine_counts(&self, served: &[Served], outcome: &mut Outcome) {
        let refs: Vec<&Reference> = served
            .iter()
            .filter(|s| s.fate == Fate::Exact)
            .filter_map(|s| self.cache.get(&(s.pattern, s.epoch)))
            .collect();
        if refs.is_empty() {
            return;
        }
        let n = refs.len() as f64;
        let mean =
            |f: &dyn Fn(&RetrievalStats) -> f64| refs.iter().map(|r| f(&r.stats)).sum::<f64>() / n;
        let visited = mean(&|s| s.videos_visited as f64);
        let lookups = mean(&|s| s.cache_lookups as f64);
        let direct = mean(&|s| s.sim_evaluations as f64);
        let ranked = refs.iter().map(|r| r.ranked_videos as f64).sum::<f64>() / n;
        let m = &mut outcome.metrics;
        m.set("engine.videos_visited", visited);
        m.set("engine.cache_lookups", lookups);
        m.set(
            "engine.cache_build_evals",
            mean(&|s| s.cache_build_evaluations as f64),
        );
        m.set(
            "engine.transitions_examined",
            mean(&|s| s.transitions_examined as f64),
        );
        m.set("engine.entries_pruned", mean(&|s| s.entries_pruned as f64));
        m.set(
            "engine.videos_skipped_by_bound",
            mean(&|s| s.videos_skipped_by_bound as f64),
        );
        m.set(
            "engine.bound_evaluations",
            mean(&|s| s.bound_evaluations as f64),
        );
        m.set(
            "engine.coarse_candidates",
            mean(&|s| s.coarse_candidates as f64),
        );
        if lookups + direct > 0.0 {
            m.set("engine.cache_hit_ratio", lookups / (lookups + direct));
        }
        if visited > 0.0 {
            m.set("engine.useful_visit_ratio", ranked / visited);
        }
    }
}

/// Counts the requests that did not end in an exact ranking as failures.
pub fn count_failures(served: &[Served], outcome: &mut Outcome) {
    outcome.attempted += served.len() as u64;
    outcome.failed += served.iter().filter(|s| s.fate != Fate::Exact).count() as u64;
}

/// The query workloads' end-to-end metrics over a `window` of requests:
/// latency p50/p99 and exact answers per second, as sub-window medians
/// (see [`stats::windowed`]); a request without an exact answer misses
/// every latency limit.
pub fn latency_metrics(
    served: &[Served],
    window: Duration,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let ops: Vec<(Duration, f64)> = served
        .iter()
        .map(|s| match s.fate {
            Fate::Exact => (s.sent, stats::ms(s.e2e_ns)),
            _ => (s.sent, f64::INFINITY),
        })
        .collect();
    outcome.samples.insert("latency", ops.len());
    let (p50, p99, ops_per_s) = stats::windowed(&ops, window)?;
    let m = &mut outcome.metrics;
    m.set("p50_ms", p50);
    m.set("p99_ms", p99);
    m.set("ops_per_s", ops_per_s);
    Ok(())
}

/// The server-reported queue and service distributions (traced runs).
pub fn server_layers(served: &[Served], outcome: &mut Outcome) {
    let answered: Vec<&Served> = served.iter().filter(|s| s.fate == Fate::Exact).collect();
    let queue = stats::sorted(answered.iter().map(|s| stats::ms(s.queue_ns)).collect());
    let service = stats::sorted(answered.iter().map(|s| stats::ms(s.service_ns)).collect());
    let e2e = stats::sorted(served.iter().map(|s| stats::ms(s.e2e_ns)).collect());
    let m = &mut outcome.metrics;
    for (name, sample, pct) in [
        ("serve.queue_wait_ms_p50", &queue, 50.0),
        ("serve.queue_wait_ms_p99", &queue, 99.0),
        ("serve.service_ms_p50", &service, 50.0),
        ("serve.service_ms_p99", &service, 99.0),
        ("trace.e2e_p50_ms", &e2e, 50.0),
    ] {
        if let Some(v) = stats::percentile(sample, pct) {
            m.set(name, v);
        }
    }
}

/// `QueryTranslator::compile` timed on every mix pattern (traced runs).
pub fn compile_layer(mix: &Mix, outcome: &mut Outcome) {
    use hmmm_media::EventKind;
    use hmmm_query::QueryTranslator;
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let mut us = Vec::new();
    for _ in 0..20 {
        for i in 0..mix.len() {
            let started = Instant::now();
            let compiled = translator.compile(mix.text(i));
            us.push(started.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(compiled.ok());
        }
    }
    outcome
        .metrics
        .set("query.compile_us_p50", stats::median(us));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_fixture_equals_skewed_catalog() {
        let ours = query_catalog(5, 8, 11);
        let theirs = hmmm_bench::skewed_catalog(
            DataConfig {
                videos: 5,
                shots_per_video: 8,
                event_rate: 0.08,
                seed: 11,
            },
            WEAK_RATE,
        );
        assert_eq!(ours, theirs);
    }

    #[test]
    fn mix_sampling_is_seeded_and_zipf_skewed() {
        let mix = Mix::soccer().unwrap();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2000).map(|_| mix.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        let mut counts = vec![0usize; mix.len()];
        for &i in &a {
            counts[i] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[mix.len() - 1]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(5, 9), sub_seed(5, 9));
    }
}
