//! Seeded open-workload generator for the [`QueryServer`]: a Zipf query
//! mix over soccer temporal patterns, Poisson arrivals per client, and a
//! configurable probability that a completed query feeds its top result
//! back into the Eqs. 1–10 relearning loop (triggering audit-gated
//! snapshot installs while the load runs).
//!
//! Everything is deterministic from [`WorkloadConfig::seed`]: each client
//! thread derives its own `StdRng`, so the *sequence* of queries,
//! think-times, and feedback decisions per client is reproducible even
//! though thread interleaving (and thus queue contention, rejections, and
//! the epoch each request lands on) is not. The `--check` mode below is
//! how the exactness contract survives that nondeterminism: every
//! completed response is re-derived serially against the *exact snapshot
//! generation that answered it* and compared byte-for-byte.

use crate::client::{NetClient, NetError, NetOutcome, RetryPolicy};
use crate::net::status_name;
use crate::server::{QueryRequest, QueryServer, RejectReason, ServeOutcome};
use crate::snapshot::ModelSnapshot;
use hmmm_core::{
    DegradedReason, FaultHandle, FeedbackConfig, FeedbackLog, PositivePattern, RankedPattern,
    RetrievalConfig, Retriever,
};
use hmmm_media::EventKind;
use hmmm_obs::RecorderHandle;
use hmmm_query::{CompiledPattern, QueryTranslator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The query mix: compiled patterns in Zipf rank order (rank 1 = most
/// popular) with a precomputed CDF for O(pool) sampling.
#[derive(Debug, Clone)]
pub struct PatternPool {
    patterns: Vec<(String, CompiledPattern)>,
    cdf: Vec<f64>,
}

impl PatternPool {
    /// The built-in soccer mix: every single-event query plus the
    /// multi-step temporal patterns the paper's examples revolve around
    /// ("corner kick followed by a goal", §5), ranked so short popular
    /// queries dominate under Zipf.
    ///
    /// # Errors
    ///
    /// [`hmmm_core::CoreError`] only if the built-in query strings fail to
    /// compile (a bug, not an input condition).
    pub fn soccer(exponent: f64) -> Result<Self, hmmm_core::CoreError> {
        let texts: Vec<String> = [
            "corner_kick -> goal",
            "free_kick -> goal",
            "foul -> yellow_card",
            "foul -> free_kick -> goal",
            "corner_kick -> goal_kick",
            "foul -> red_card",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain(EventKind::ALL.iter().map(|k| k.name().to_string()))
        .collect();
        Self::from_texts(&texts, exponent)
    }

    /// Compiles `texts` (already in popularity rank order) into a pool
    /// with Zipf weights `rank^-exponent`. `exponent = 0` is a uniform
    /// mix.
    ///
    /// # Errors
    ///
    /// [`hmmm_core::CoreError`] when a query fails to compile or the pool
    /// is empty.
    pub fn from_texts(texts: &[String], exponent: f64) -> Result<Self, hmmm_core::CoreError> {
        if texts.is_empty() {
            return Err(hmmm_core::CoreError::BadQuery(
                "empty workload pattern pool".into(),
            ));
        }
        let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
        let mut patterns = Vec::with_capacity(texts.len());
        let mut cdf = Vec::with_capacity(texts.len());
        let mut total = 0.0_f64;
        for (rank, text) in texts.iter().enumerate() {
            let compiled = translator
                .compile(text)
                .map_err(|e| hmmm_core::CoreError::BadQuery(e.to_string()))?;
            total += ((rank + 1) as f64).powf(-exponent);
            patterns.push((text.clone(), compiled));
            cdf.push(total);
        }
        Ok(PatternPool { patterns, cdf })
    }

    /// Number of distinct queries in the mix.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when the pool has no queries (never for the built-ins).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Draws a pattern index by the Zipf weights.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("non-empty pool");
        let u = rng.next_f64() * total;
        // Linear scan: the pool is a dozen entries, and this avoids any
        // float-comparator machinery on a non-hot path.
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.len() - 1)
    }

    /// The query text and compiled pattern at `index`.
    pub fn get(&self, index: usize) -> (&str, &CompiledPattern) {
        let (text, compiled) = &self.patterns[index];
        (text, compiled)
    }
}

/// Knobs for one load run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Concurrent closed-loop clients (each is its own Poisson source, so
    /// the aggregate arrival process is Poisson too).
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Zipf exponent for the query mix (`0` = uniform; `~1` = classic
    /// popularity skew).
    pub zipf_exponent: f64,
    /// Mean think time between a client's requests; the actual gap is
    /// exponentially distributed (Poisson arrivals). Zero = closed loop
    /// at full speed.
    pub mean_interarrival: Duration,
    /// Probability that a completed, non-empty response is fed back as a
    /// confirmed positive pattern (the paper's access-pattern
    /// accumulation); reaching [`FeedbackConfig::update_threshold`]
    /// pending patterns triggers an Eqs. 1–10 relearn + snapshot install
    /// *while the load is running*.
    pub feedback_probability: f64,
    /// Learning hyper-parameters for those installs.
    pub feedback: FeedbackConfig,
    /// Per-request deadline attached to every submission (`None` defers
    /// to the server's default).
    pub deadline: Option<Duration>,
    /// Top-k limit per query.
    pub limit: usize,
    /// Master seed; client `i` derives `seed ⊕ splitmix(i)`.
    pub seed: u64,
    /// Re-derive every completed response serially against the snapshot
    /// generation that answered it and compare byte-for-byte (requires
    /// the server to retain snapshot history). Degraded responses are
    /// checked as prefixes-of-no-lie: only exact (non-degraded) responses
    /// are compared.
    pub check: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            clients: 4,
            requests_per_client: 64,
            zipf_exponent: 1.0,
            mean_interarrival: Duration::from_micros(200),
            feedback_probability: 0.05,
            feedback: FeedbackConfig::default(),
            deadline: None,
            limit: 10,
            seed: 0x5eed_f00d,
            check: false,
        }
    }
}

/// Aggregate result of one load run ([`run_workload`]), as `hmmm loadgen`
/// prints it.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Client count the run used.
    pub clients: usize,
    /// Requests submitted (including rejected ones).
    pub submitted: usize,
    /// Requests that produced a ranking.
    pub completed: usize,
    /// Completed-but-degraded responses (deadline fired mid-query).
    pub degraded: usize,
    /// Requests rejected at admission, keyed by canonical
    /// [`RejectReason::as_str`] string. Every rejection has a reason —
    /// the counts here sum to `submitted - completed`.
    pub rejections: BTreeMap<String, usize>,
    /// Audit-gated snapshot installs triggered by feedback during the run.
    pub feedback_installs: usize,
    /// Highest epoch observed in any response.
    pub max_epoch: u64,
    /// Wall-clock duration of the whole run, nanoseconds.
    pub wall_ns: u64,
    /// Completed queries per second of wall-clock.
    pub qps: f64,
    /// Median end-to-end latency (submit → outcome), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// `--check` mismatches: completed exact responses whose ranking was
    /// not byte-identical to a serial re-derivation on the same snapshot
    /// epoch. Always 0 on a healthy build.
    pub check_mismatches: usize,
    /// Exact responses actually re-derived in `--check` mode.
    pub checked: usize,
}

impl LoadReport {
    /// `true` when every submission reached a reasoned terminal state and
    /// (in `--check` mode) every checked ranking matched its serial
    /// re-derivation.
    pub fn healthy(&self) -> bool {
        let rejected: usize = self.rejections.values().sum();
        self.completed + rejected == self.submitted && self.check_mismatches == 0
    }
}

/// Per-client tally merged into the final [`LoadReport`].
#[derive(Default)]
struct ClientTally {
    submitted: usize,
    completed: usize,
    degraded: usize,
    rejections: BTreeMap<String, usize>,
    latencies_ns: Vec<u64>,
    max_epoch: u64,
    check_mismatches: usize,
    checked: usize,
}

impl ClientTally {
    fn merge(&mut self, other: ClientTally) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.degraded += other.degraded;
        for (reason, n) in other.rejections {
            *self.rejections.entry(reason).or_insert(0) += n;
        }
        self.latencies_ns.extend(other.latencies_ns);
        self.max_epoch = self.max_epoch.max(other.max_epoch);
        self.check_mismatches += other.check_mismatches;
        self.checked += other.checked;
    }
}

/// Nearest-rank percentile over raw latencies, in milliseconds.
fn percentile_ms(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1e6
}

/// Exponential think-time sample with the configured mean.
fn exponential(rng: &mut StdRng, mean: Duration) -> Duration {
    if mean.is_zero() {
        return Duration::ZERO;
    }
    let u = rng.next_f64();
    // Inverse-CDF; 1-u is in (0, 1] so the log is finite.
    Duration::from_secs_f64(mean.as_secs_f64() * -(1.0 - u).ln())
}

/// Seed expansion for per-client RNGs (SplitMix64 step, same shape the
/// vendored `rand` uses internally).
fn client_seed(master: u64, client: usize) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(client as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives the configured workload against a running server and tallies
/// the outcome. Blocks until every client finishes.
///
/// Feedback rounds, when they fire, go through
/// [`QueryServer::apply_feedback`] from the client threads themselves —
/// installs race the in-flight queries by design, which is exactly the
/// interleaving `--check` mode then audits for exactness.
///
/// # Errors
///
/// [`hmmm_core::CoreError`] if the built-in pattern pool fails to compile,
/// or if `check` is requested against a server that did not retain
/// snapshot history.
pub fn run_workload(
    server: &QueryServer,
    config: &WorkloadConfig,
) -> Result<LoadReport, hmmm_core::CoreError> {
    let pool = PatternPool::soccer(config.zipf_exponent)?;
    if config.check && server.snapshot_at(server.epoch()).is_none() {
        return Err(hmmm_core::CoreError::Inconsistent(
            "workload --check requires ServerConfig.retain_snapshot_history".into(),
        ));
    }
    let feedback_log = Mutex::new(FeedbackLog::new());
    let installs = AtomicU64::new(0);
    let next_query_session = AtomicU64::new(0);
    let started = Instant::now();

    let mut total = ClientTally::default();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|c| {
                let pool = &pool;
                let feedback_log = &feedback_log;
                let installs = &installs;
                let next_query_session = &next_query_session;
                scope.spawn(move || {
                    run_client(
                        server,
                        config,
                        pool,
                        client_seed(config.seed, c),
                        feedback_log,
                        installs,
                        next_query_session,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload client panicked"))
            .collect()
    });
    for tally in tallies {
        total.merge(tally);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;

    total.latencies_ns.sort_unstable();
    let qps = if wall_ns == 0 {
        0.0
    } else {
        total.completed as f64 / (wall_ns as f64 / 1e9)
    };
    // ordering: Relaxed — the counter is read after every client thread
    // was joined, so all increments already happened-before this load.
    // `installs` is a pure counter, registered in RELAXED_ALLOWLIST.
    let feedback_installs = installs.load(Ordering::Relaxed) as usize;
    Ok(LoadReport {
        clients: config.clients,
        submitted: total.submitted,
        completed: total.completed,
        degraded: total.degraded,
        rejections: total.rejections,
        feedback_installs,
        max_epoch: total.max_epoch,
        wall_ns,
        qps,
        p50_ms: percentile_ms(&total.latencies_ns, 50.0),
        p95_ms: percentile_ms(&total.latencies_ns, 95.0),
        p99_ms: percentile_ms(&total.latencies_ns, 99.0),
        check_mismatches: total.check_mismatches,
        checked: total.checked,
    })
}

/// One client's closed loop: think → sample → submit → wait → (maybe)
/// feed back → (in `--check`) re-derive and compare.
fn run_client(
    server: &QueryServer,
    config: &WorkloadConfig,
    pool: &PatternPool,
    seed: u64,
    feedback_log: &Mutex<FeedbackLog>,
    installs: &AtomicU64,
    next_query_session: &AtomicU64,
) -> ClientTally {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally = ClientTally::default();
    for _ in 0..config.requests_per_client {
        let think = exponential(&mut rng, config.mean_interarrival);
        if !think.is_zero() {
            std::thread::sleep(think);
        }
        let (_, compiled) = pool.get(pool.sample(&mut rng));
        let mut request = QueryRequest::new(compiled.clone(), config.limit);
        request.deadline = config.deadline;
        let submitted_at = Instant::now();
        let outcome = server.query(request);
        tally.latencies_ns.push(submitted_at.elapsed().as_nanos() as u64);
        tally.submitted += 1;
        match outcome {
            ServeOutcome::Completed(response) => {
                tally.completed += 1;
                tally.max_epoch = tally.max_epoch.max(response.epoch);
                if response.stats.degraded.is_some() {
                    tally.degraded += 1;
                }
                if config.check && check_eligible(&response) {
                    tally.checked += 1;
                    if !check_response(server, config, compiled, &response) {
                        tally.check_mismatches += 1;
                    }
                }
                let feed = config.feedback_probability > 0.0
                    && !response.results.is_empty()
                    && rng.gen_bool(config.feedback_probability);
                if feed {
                    maybe_feed_back(
                        server,
                        config,
                        &response.results[0],
                        feedback_log,
                        installs,
                        next_query_session,
                    );
                }
            }
            ServeOutcome::Rejected(reason) => {
                record_rejection(&mut tally, &reason);
            }
        }
    }
    tally
}

fn record_rejection(tally: &mut ClientTally, reason: &RejectReason) {
    let key = reason.as_str().to_string();
    assert!(!key.is_empty(), "rejection without a reason");
    *tally.rejections.entry(key).or_insert(0) += 1;
}

/// The serial re-derivation's fault handle: the live config's plan with
/// its timing-only components (latency stalls) stripped.
///
/// The check must re-derive under the *same* candidate cut and fault plan
/// the server ran with — a panic plan deterministically restricts the
/// ranking to the surviving videos, so dropping it would diff every
/// affected response. Latency is the one component that must NOT leak in:
/// it changes timing, never results, so keeping it could only stall the
/// rerun (or, combined with a deadline, spuriously flip its `degraded`
/// flag) without changing what a correct ranking looks like.
fn check_fault_handle(live: &FaultHandle) -> FaultHandle {
    match live.plan() {
        None => FaultHandle::noop(),
        Some(plan) => {
            let mut stripped = plan.clone();
            stripped.latency_step = None;
            stripped.latency_ns = 0;
            if stripped.is_empty() {
                FaultHandle::noop()
            } else {
                FaultHandle::from_plan(stripped)
            }
        }
    }
}

/// The reference configuration for `--check`: no deadline, same candidate
/// cut, latency-stripped fault plan (see [`check_fault_handle`]).
fn check_retrieval_config(live: RetrievalConfig) -> RetrievalConfig {
    let mut serial = live;
    serial.deadline = None;
    serial.fault = check_fault_handle(&serial.fault);
    serial
}

/// Whether a completed response is deterministic enough to re-derive: an
/// exact response always is; a degraded one only when the sole cause was
/// worker panics (deterministic per video under a seeded plan). Any
/// deadline involvement makes the restriction timing-dependent, so those
/// are checked as prefixes-of-no-lie only (skipped).
fn check_eligible(response: &crate::server::QueryResponse) -> bool {
    match &response.stats.degraded {
        None => true,
        Some(d) => d.reason == DegradedReason::WorkerPanic,
    }
}

/// Serially re-derives `response` on the snapshot generation that
/// produced it; `true` when the rankings are byte-identical.
fn check_response(
    server: &QueryServer,
    config: &WorkloadConfig,
    pattern: &CompiledPattern,
    response: &crate::server::QueryResponse,
) -> bool {
    let Some(snapshot) = server.snapshot_at(response.epoch) else {
        return false; // history gap: count as a mismatch, it is one
    };
    let serial = check_retrieval_config(server.retrieval_config());
    let Ok(retriever) = Retriever::new(&snapshot.model, &snapshot.catalog, serial) else {
        return false;
    };
    match retriever.retrieve(pattern, config.limit) {
        Ok((expected, _)) => expected == response.results,
        Err(_) => false,
    }
}

/// Records the top result as a confirmed positive pattern and, once the
/// threshold is pending, runs the full Eqs. 1–10 relearn + audit-gated
/// install through the server.
fn maybe_feed_back(
    server: &QueryServer,
    config: &WorkloadConfig,
    top: &hmmm_core::RankedPattern,
    feedback_log: &Mutex<FeedbackLog>,
    installs: &AtomicU64,
    next_query_session: &AtomicU64,
) {
    let mut log = feedback_log.lock().expect("feedback log poisoned");
    // ordering: Relaxed — the session id is a label grouping co-confirmed
    // videos; no memory is published through it. Registered in
    // RELAXED_ALLOWLIST (hmmm-analyze) as an id/ticket source.
    let query = next_query_session.fetch_add(1, Ordering::Relaxed);
    let recorded = log.record(PositivePattern {
        query,
        video: top.video,
        shots: top.shots.clone(),
        events: top.events.clone(),
        access: 1.0,
    });
    if recorded.is_err() {
        return; // a degenerate single-shot pattern the log refuses; skip
    }
    if log.should_update(&config.feedback)
        && server.apply_feedback(&mut log, &config.feedback).is_ok()
    {
        // ordering: Relaxed — install count is reported after join; pure
        // counter, registered in RELAXED_ALLOWLIST (hmmm-analyze).
        installs.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------- network

/// The serial reference for network `--check`: the generation the remote
/// server is serving (epoch 0 — the wire carries no feedback, so a remote
/// server's epoch only moves through its own REPL) plus a retrieval
/// configuration matching the server's `--candidates` cut and fault plan.
#[derive(Clone)]
pub struct NetCheck {
    /// The epoch-0 model generation, built locally from the same catalog.
    pub snapshot: Arc<ModelSnapshot>,
    /// The server's base retrieval configuration (candidate cut, fault
    /// plan); normalized through the same latency-stripping path as the
    /// in-process check.
    pub retrieval: RetrievalConfig,
}

/// Knobs for one load run against a remote [`crate::NetServer`].
#[derive(Clone)]
pub struct NetWorkloadConfig {
    /// Concurrent clients, each with its own connection and retry state.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Zipf exponent for the query mix.
    pub zipf_exponent: f64,
    /// Mean think time between a client's requests (exponential).
    pub mean_interarrival: Duration,
    /// Per-request deadline carried on the wire (network time + queue
    /// wait + execution all draw from it).
    pub deadline: Option<Duration>,
    /// Top-k limit per query.
    pub limit: usize,
    /// Master seed (drives per-client RNGs and backoff jitter).
    pub seed: u64,
    /// Retry/backoff policy for every client.
    pub policy: RetryPolicy,
    /// Client-side network fault plane, shared by all clients so the
    /// plan's connection tickets are drawn globally.
    pub fault: FaultHandle,
    /// Observability sink for the client-side `net.*` counters.
    pub recorder: RecorderHandle,
    /// When set, every eligible response is re-derived locally and
    /// compared byte-for-byte.
    pub check: Option<NetCheck>,
}

impl Default for NetWorkloadConfig {
    fn default() -> Self {
        NetWorkloadConfig {
            clients: 4,
            requests_per_client: 64,
            zipf_exponent: 1.0,
            mean_interarrival: Duration::from_micros(200),
            deadline: None,
            limit: 10,
            seed: 0x5eed_f00d,
            policy: RetryPolicy::default(),
            fault: FaultHandle::noop(),
            recorder: RecorderHandle::noop(),
            check: None,
        }
    }
}

/// Aggregate result of one network load run ([`run_net_workload`]).
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Client count the run used.
    pub clients: usize,
    /// Logical requests issued (each may span several wire attempts).
    pub submitted: usize,
    /// Requests that produced a ranking.
    pub completed: usize,
    /// Completed-but-degraded responses.
    pub degraded: usize,
    /// Requests refused with a terminal status, keyed by
    /// [`status_name`]. Rejections + completions account for every
    /// request that did not give up.
    pub rejections: BTreeMap<String, usize>,
    /// Wire attempts beyond the first, across all requests.
    pub retries: u64,
    /// Requests whose outcome arrived on a retry attempt.
    pub retry_successes: u64,
    /// Requests that exhausted every attempt without an outcome.
    pub give_ups: u64,
    /// Replies that broke after their first byte (never auto-retried;
    /// each is followed by one fresh re-issued request).
    pub mid_response_errors: u64,
    /// Fresh requests issued after a mid-response failure (queries are
    /// idempotent reads, so the harness may safely re-ask).
    pub reissues: u64,
    /// Highest epoch observed in any response.
    pub max_epoch: u64,
    /// Wall-clock duration of the whole run, nanoseconds.
    pub wall_ns: u64,
    /// Completed queries per second of wall-clock.
    pub qps: f64,
    /// Median end-to-end latency (including retries), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Checked responses whose ranking was not byte-identical to the
    /// local serial re-derivation. Always 0 on a healthy build.
    pub check_mismatches: usize,
    /// Responses actually re-derived in check mode.
    pub checked: usize,
}

impl NetLoadReport {
    /// `true` when every request reached a terminal outcome (response or
    /// reasoned rejection — possibly after retries), nothing gave up, and
    /// every checked ranking matched its local re-derivation.
    pub fn healthy(&self) -> bool {
        let rejected: usize = self.rejections.values().sum();
        self.completed + rejected == self.submitted
            && self.give_ups == 0
            && self.check_mismatches == 0
    }
}

/// Per-client network tally merged into the final report.
#[derive(Default)]
struct NetTally {
    submitted: usize,
    completed: usize,
    degraded: usize,
    rejections: BTreeMap<String, usize>,
    latencies_ns: Vec<u64>,
    max_epoch: u64,
    retries: u64,
    retry_successes: u64,
    give_ups: u64,
    mid_response_errors: u64,
    reissues: u64,
    check_mismatches: usize,
    checked: usize,
}

impl NetTally {
    fn merge(&mut self, other: NetTally) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.degraded += other.degraded;
        for (reason, n) in other.rejections {
            *self.rejections.entry(reason).or_insert(0) += n;
        }
        self.latencies_ns.extend(other.latencies_ns);
        self.max_epoch = self.max_epoch.max(other.max_epoch);
        self.retries += other.retries;
        self.retry_successes += other.retry_successes;
        self.give_ups += other.give_ups;
        self.mid_response_errors += other.mid_response_errors;
        self.reissues += other.reissues;
        self.check_mismatches += other.check_mismatches;
        self.checked += other.checked;
    }
}

/// Cached local re-derivations for network check mode, one entry per
/// pattern-pool index (the reference is a pure function of pattern +
/// limit on the fixed epoch-0 snapshot, so clients share it).
struct NetCheckCache {
    check: NetCheck,
    limit: usize,
    reference: Mutex<BTreeMap<usize, Option<Vec<RankedPattern>>>>,
}

impl NetCheckCache {
    /// `true` when `results` matches the serial local re-derivation of
    /// pattern `index` byte-for-byte.
    fn matches(&self, index: usize, pattern: &CompiledPattern, results: &[RankedPattern]) -> bool {
        let mut cache = self.reference.lock().expect("net check cache poisoned");
        let expected = cache.entry(index).or_insert_with(|| {
            let serial = check_retrieval_config(self.check.retrieval.clone());
            let snapshot = &self.check.snapshot;
            Retriever::new(&snapshot.model, &snapshot.catalog, serial)
                .and_then(|r| r.retrieve(pattern, self.limit))
                .ok()
                .map(|(ranking, _)| ranking)
        });
        match expected {
            Some(expected) => expected.as_slice() == results,
            None => false, // the reference itself failed: count as mismatch
        }
    }
}

/// Drives the configured workload against a remote server over real
/// sockets and tallies the outcome. Blocks until every client finishes.
///
/// Mid-response failures (a reply torn after its first byte) are *not*
/// retried by the client — see [`crate::client`] — but queries are
/// idempotent reads, so the harness re-issues each one once as a fresh
/// request and counts it under `reissues`.
///
/// # Errors
///
/// [`hmmm_core::CoreError`] if the built-in pattern pool fails to
/// compile.
pub fn run_net_workload(
    addr: SocketAddr,
    config: &NetWorkloadConfig,
) -> Result<NetLoadReport, hmmm_core::CoreError> {
    let pool = PatternPool::soccer(config.zipf_exponent)?;
    let check_cache = config.check.clone().map(|check| NetCheckCache {
        check,
        limit: config.limit,
        reference: Mutex::new(BTreeMap::new()),
    });
    let started = Instant::now();

    let mut total = NetTally::default();
    let tallies: Vec<NetTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|c| {
                let pool = &pool;
                let check_cache = check_cache.as_ref();
                scope.spawn(move || run_net_client(addr, config, pool, c, check_cache))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("net workload client panicked"))
            .collect()
    });
    for tally in tallies {
        total.merge(tally);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;

    total.latencies_ns.sort_unstable();
    let qps = if wall_ns == 0 {
        0.0
    } else {
        total.completed as f64 / (wall_ns as f64 / 1e9)
    };
    Ok(NetLoadReport {
        clients: config.clients,
        submitted: total.submitted,
        completed: total.completed,
        degraded: total.degraded,
        rejections: total.rejections,
        retries: total.retries,
        retry_successes: total.retry_successes,
        give_ups: total.give_ups,
        mid_response_errors: total.mid_response_errors,
        reissues: total.reissues,
        max_epoch: total.max_epoch,
        wall_ns,
        qps,
        p50_ms: percentile_ms(&total.latencies_ns, 50.0),
        p95_ms: percentile_ms(&total.latencies_ns, 95.0),
        p99_ms: percentile_ms(&total.latencies_ns, 99.0),
        check_mismatches: total.check_mismatches,
        checked: total.checked,
    })
}

/// One network client's closed loop.
fn run_net_client(
    addr: SocketAddr,
    config: &NetWorkloadConfig,
    pool: &PatternPool,
    client_idx: usize,
    check_cache: Option<&NetCheckCache>,
) -> NetTally {
    let mut policy = config.policy.clone();
    // Distinct jitter stream per client, derived from the master seed.
    policy.seed = client_seed(config.seed ^ 0x6e65_745f_6a69_7474, client_idx);
    let mut client = NetClient::connect(
        addr,
        policy,
        config.fault.clone(),
        config.recorder.clone(),
    );
    let mut rng = StdRng::seed_from_u64(client_seed(config.seed, client_idx));
    let mut tally = NetTally::default();
    for _ in 0..config.requests_per_client {
        let think = exponential(&mut rng, config.mean_interarrival);
        if !think.is_zero() {
            std::thread::sleep(think);
        }
        let index = pool.sample(&mut rng);
        let (text, compiled) = pool.get(index);
        let submitted_at = Instant::now();
        let mut result = client.query(text, config.limit, config.deadline);
        if let Err(NetError::MidResponse(_)) = result {
            // The client refuses to auto-retry past a response byte; the
            // harness knows queries are idempotent reads and re-asks once.
            tally.mid_response_errors += 1;
            tally.reissues += 1;
            result = client.query(text, config.limit, config.deadline);
        }
        tally.latencies_ns.push(submitted_at.elapsed().as_nanos() as u64);
        tally.submitted += 1;
        match result {
            Ok(NetOutcome::Response(response)) => {
                tally.completed += 1;
                tally.max_epoch = tally.max_epoch.max(response.epoch);
                if response.degraded.is_some() {
                    tally.degraded += 1;
                }
                if let Some(cache) = check_cache {
                    // The local reference is the epoch-0 generation; a
                    // response is checkable when it came from that epoch
                    // and is deterministic (exact, or degraded by panics
                    // alone — the same eligibility as the in-process
                    // check).
                    let deterministic = match &response.degraded {
                        None => true,
                        Some(reason) => reason.as_str() == DegradedReason::WorkerPanic.as_str(),
                    };
                    if response.epoch == 0 && deterministic {
                        tally.checked += 1;
                        if !cache.matches(index, compiled, &response.results) {
                            tally.check_mismatches += 1;
                        }
                    }
                }
            }
            Ok(NetOutcome::Rejected(status)) => {
                let key = status_name(status.code).to_string();
                assert!(!key.is_empty(), "rejection without a reason");
                *tally.rejections.entry(key).or_insert(0) += 1;
            }
            Err(_) => {
                // Exhausted (or a reissue that failed again): the request
                // reached no outcome. healthy() demands this stays zero.
                tally.give_ups += 1;
            }
        }
    }
    let counters = client.counters();
    tally.retries = counters.retries;
    tally.retry_successes = counters.retry_successes;
    tally
}
