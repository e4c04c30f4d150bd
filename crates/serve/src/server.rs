//! The in-process [`QueryServer`]: N concurrent queries over one shared
//! immutable [`ModelSnapshot`].
//!
//! Request lifecycle (the worked trace in `docs/SERVING.md` follows one
//! request through these states):
//!
//! ```text
//! submit ──▶ Queued ──▶ Executing ──▶ Completed(response)
//!    │          │
//!    │          └─(deadline consumed by queueing)─▶ Rejected(DeadlineBeforeService)
//!    ├─(queue at capacity)──────────────────────▶ Rejected(QueueFull)
//!    └─(admission closed)───────────────────────▶ Rejected(Shutdown)
//! ```
//!
//! Admission control is **reject-not-block**: a full bounded queue turns a
//! latency collapse into an explicit, reasoned rejection the caller can
//! retry or shed. Deadlines are the QoS primitive promoted from PR 5's
//! anytime retrieval: time spent queued draws from the same per-request
//! budget as execution, so under load a request either runs with its
//! *remaining* budget (degrading exactly as `RetrievalConfig::deadline`
//! always has — exact-so-far, never wrong) or is rejected before any work
//! is wasted on it.
//!
//! Workers are plain threads in a pool. Each owns a cached
//! `Arc<ModelSnapshot>` (checked by one atomic epoch load per request —
//! see [`SnapshotCell`]), the [`hmmm_core::Validated`] proof for it, and a
//! reusable [`hmmm_core::QueryScratch`]. A worker validates a snapshot once,
//! on the first job it executes there, and builds every later request's
//! `Retriever` from that proof; the per-query steady state neither
//! re-validates the model nor allocates beams and scoring rows.
//! Queries execute with `threads = 1`: under concurrent traffic the
//! parallelism that used to fan one query across cores is spent across
//! queries instead, which is the right trade once the queue is non-empty.

use crate::snapshot::{ModelSnapshot, SnapshotCell};
use hmmm_core::metrics as m;
use hmmm_core::{
    CoreError, FeedbackConfig, FeedbackLog, Hmmm, QueryScratch, RankedPattern, RetrievalConfig,
    RetrievalStats, Retriever, UpdateReport, Validated,
};
use hmmm_obs::RecorderHandle;
use hmmm_query::CompiledPattern;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries (`≥ 1`).
    pub workers: usize,
    /// Bounded admission-queue capacity: submissions beyond it are
    /// rejected with [`RejectReason::QueueFull`] instead of queueing
    /// unboundedly (reject-not-block).
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own
    /// ([`QueryRequest::deadline`]). `None` = unbounded. The budget covers
    /// queue wait *plus* execution.
    pub default_deadline: Option<Duration>,
    /// Base per-query retrieval configuration. `threads` is forced to 1 by
    /// the server (concurrency lives across queries); `deadline` is
    /// overwritten per request from the admission budget; the `recorder`
    /// is replaced by [`ServerConfig::recorder`].
    pub retrieval: RetrievalConfig,
    /// Observability sink for the whole server: per-request span trees
    /// (`serve/request` → `serve/request/execute` → the engine's own
    /// `retrieve` spans), queue-depth gauges, and the admission counters —
    /// see the `serve.*` names in [`hmmm_core::metrics`].
    pub recorder: RecorderHandle,
    /// Keep an `Arc` to every installed snapshot so tests and the load
    /// generator's `--check` mode can re-derive any response against the
    /// exact model generation that produced it
    /// ([`QueryServer::snapshot_at`]). Off by default: a long-lived server
    /// must not grow memory per feedback install.
    pub retain_snapshot_history: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            retrieval: RetrievalConfig::content_only(),
            recorder: RecorderHandle::noop(),
            retain_snapshot_history: false,
        }
    }
}

/// One query submitted to the server.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The compiled temporal pattern (Eqs. 12–15 drive its scoring).
    pub pattern: CompiledPattern,
    /// Top-`limit` candidates to return (Step 9).
    pub limit: usize,
    /// Per-request deadline override; `None` falls back to
    /// [`ServerConfig::default_deadline`]. Queue wait draws from this
    /// budget.
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A request with no per-request deadline.
    pub fn new(pattern: CompiledPattern, limit: usize) -> Self {
        QueryRequest {
            pattern,
            limit,
            deadline: None,
        }
    }
}

/// A completed query's answer.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The ranked candidates (byte-identical to a serial
    /// [`Retriever::retrieve`] against the same snapshot, unless
    /// `stats.degraded` says a deadline fired).
    pub results: Vec<RankedPattern>,
    /// The engine's work counters and degradation summary.
    pub stats: RetrievalStats,
    /// Epoch of the [`ModelSnapshot`] this ranking was computed on.
    pub epoch: u64,
    /// Time spent in the admission queue, nanoseconds.
    pub queue_ns: u64,
    /// Time spent executing the retrieval, nanoseconds.
    pub service_ns: u64,
}

/// Why a request was refused without producing a ranking. Every rejection
/// carries a reason — [`RejectReason::as_str`] is the canonical string, so
/// "rejected without reason" is unrepresentable (the `serve-smoke` CI job
/// asserts exactly that).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue was at capacity.
    QueueFull,
    /// The request's whole deadline budget was consumed while it sat in
    /// the queue — running it could only return a degraded-to-empty
    /// ranking late, so it is shed before any retrieval work.
    DeadlineBeforeService,
    /// The server had stopped admitting (shutdown in progress).
    Shutdown,
    /// The engine refused the request (bad pattern, model/catalog
    /// mismatch); carries the engine error rendered to a string.
    Invalid(String),
}

impl RejectReason {
    /// Canonical reason string (stable across surfaces; see also
    /// [`hmmm_core::DegradedReason::as_str`] for the degraded-completion
    /// counterpart).
    pub fn as_str(&self) -> &str {
        match self {
            RejectReason::QueueFull => "queue full",
            RejectReason::DeadlineBeforeService => "deadline exhausted in queue",
            RejectReason::Shutdown => "server shutting down",
            RejectReason::Invalid(_) => "invalid request",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Invalid(detail) => write!(f, "invalid request: {detail}"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// Terminal state of one submitted request.
// One ServeOutcome lives per in-flight request (inside its one-shot
// ResponseSlot), never in bulk collections, so the variant size gap
// costs a few hundred stack bytes per request; boxing the response
// would instead charge every completion a heap allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ServeOutcome {
    /// The request ran; the ranking (possibly degraded, never wrong) is
    /// inside.
    Completed(QueryResponse),
    /// The request never ran; the reason says why.
    Rejected(RejectReason),
}

impl ServeOutcome {
    /// The response, if the request completed.
    pub fn response(&self) -> Option<&QueryResponse> {
        match self {
            ServeOutcome::Completed(r) => Some(r),
            ServeOutcome::Rejected(_) => None,
        }
    }
}

/// One-shot response slot a submitter blocks on (hand-rolled oneshot
/// channel: `Mutex<Option<…>> + Condvar`).
struct ResponseSlot {
    outcome: Mutex<Option<ServeOutcome>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(ResponseSlot {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, outcome: ServeOutcome) {
        let mut slot = self.outcome.lock().expect("response slot poisoned");
        debug_assert!(slot.is_none(), "response slot fulfilled twice");
        *slot = Some(outcome);
        self.ready.notify_all();
    }
}

/// The submitter's handle to an in-flight request.
#[derive(Debug)]
pub struct ResponseTicket {
    slot: Arc<ResponseSlot>,
}

impl std::fmt::Debug for ResponseSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseSlot").finish_non_exhaustive()
    }
}

impl ResponseTicket {
    /// Blocks until the request reaches a terminal state.
    pub fn wait(self) -> ServeOutcome {
        let mut slot = self.slot.outcome.lock().expect("response slot poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .slot
                .ready
                .wait(slot)
                .expect("response slot poisoned");
        }
    }

    /// Immediately-fulfilled ticket (admission-time rejections).
    fn rejected(reason: RejectReason) -> Self {
        let slot = ResponseSlot::new();
        slot.fulfill(ServeOutcome::Rejected(reason));
        ResponseTicket { slot }
    }
}

/// One queued unit of work.
struct Job {
    request: QueryRequest,
    submitted: Instant,
    id: u64,
    slot: Arc<ResponseSlot>,
}

/// Queue state behind the admission mutex.
struct QueueState {
    jobs: VecDeque<Job>,
    /// `false` once shutdown began: admission rejects, workers drain.
    open: bool,
}

/// Everything the workers share.
struct ServerShared {
    cell: SnapshotCell,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    config: ServerConfig,
    obs: RecorderHandle,
    next_id: AtomicU64,
    /// Installed generations, oldest first (only when
    /// [`ServerConfig::retain_snapshot_history`]).
    history: Mutex<Vec<Arc<ModelSnapshot>>>,
}

/// The long-lived in-process query server (see the module docs for the
/// request lifecycle and `docs/SERVING.md` for the full architecture).
///
/// # Examples
///
/// ```
/// use hmmm_core::BuildConfig;
/// use hmmm_features::FeatureVector;
/// use hmmm_media::EventKind;
/// use hmmm_query::QueryTranslator;
/// use hmmm_serve::{ModelSnapshot, QueryRequest, QueryServer, ServerConfig};
/// use hmmm_storage::Catalog;
///
/// let mut catalog = Catalog::new();
/// catalog.add_video("v0", vec![
///     (vec![EventKind::FreeKick], FeatureVector::zeros()),
///     (vec![EventKind::Goal], FeatureVector::zeros()),
/// ]);
/// let snapshot = ModelSnapshot::build(catalog, &BuildConfig::default()).unwrap();
/// let server = QueryServer::start(snapshot, ServerConfig::default()).unwrap();
///
/// let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
/// let pattern = translator.compile("free_kick -> goal").unwrap();
/// let outcome = server.query(QueryRequest::new(pattern, 5));
/// let response = outcome.response().expect("completed");
/// assert_eq!(response.epoch, 0);
/// server.join();
/// ```
pub struct QueryServer {
    shared: Arc<ServerShared>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryServer {
    /// Publishes `snapshot` and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] for a zero-worker or zero-capacity
    /// configuration.
    pub fn start(snapshot: ModelSnapshot, config: ServerConfig) -> Result<Self, CoreError> {
        if config.workers == 0 {
            return Err(CoreError::Inconsistent(
                "ServerConfig.workers must be ≥ 1".into(),
            ));
        }
        if config.queue_capacity == 0 {
            return Err(CoreError::Inconsistent(
                "ServerConfig.queue_capacity must be ≥ 1".into(),
            ));
        }
        let obs = config.recorder.clone();
        let workers_n = config.workers;
        let retain = config.retain_snapshot_history;
        let cell = SnapshotCell::new(snapshot);
        let initial = retain.then(|| cell.load());
        let shared = Arc::new(ServerShared {
            cell,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            config,
            obs: obs.clone(),
            next_id: AtomicU64::new(0),
            history: Mutex::new(initial.into_iter().collect()),
        });
        obs.counter(m::CTR_SERVE_SNAPSHOT_INSTALLS, 1);
        obs.gauge(m::GAUGE_SERVE_WORKERS, workers_n as f64);
        let workers = (0..workers_n)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hmmm-serve-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Ok(QueryServer { shared, workers })
    }

    /// Submits a request; returns immediately with a ticket. Admission
    /// rejections (queue full, shutdown) resolve the ticket instantly —
    /// `submit` itself never blocks on query execution.
    pub fn submit(&self, request: QueryRequest) -> ResponseTicket {
        let obs = &self.shared.obs;
        let mut queue = self.shared.queue.lock().expect("admission queue poisoned");
        if !queue.open {
            drop(queue);
            obs.counter(m::CTR_SERVE_REJECTED_SHUTDOWN, 1);
            return ResponseTicket::rejected(RejectReason::Shutdown);
        }
        if queue.jobs.len() >= self.shared.config.queue_capacity {
            drop(queue);
            obs.counter(m::CTR_SERVE_REJECTED_QUEUE_FULL, 1);
            return ResponseTicket::rejected(RejectReason::QueueFull);
        }
        let slot = ResponseSlot::new();
        // ordering: Relaxed — the id is a label for spans/debugging, no
        // other memory is published through it. Registered in
        // RELAXED_ALLOWLIST (hmmm-analyze) as an id/ticket source.
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        queue.jobs.push_back(Job {
            request,
            submitted: Instant::now(),
            id,
            slot: Arc::clone(&slot),
        });
        let depth = queue.jobs.len();
        drop(queue);
        obs.counter(m::CTR_SERVE_SUBMITTED, 1);
        obs.gauge(m::GAUGE_SERVE_QUEUE_DEPTH, depth as f64);
        self.shared.not_empty.notify_one();
        ResponseTicket { slot }
    }

    /// Submit-and-wait convenience: one round trip through the queue and
    /// a worker.
    pub fn query(&self, request: QueryRequest) -> ServeOutcome {
        self.submit(request).wait()
    }

    /// The currently published snapshot (an `Arc` bump).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.shared.cell.load()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// A clone of the base per-query retrieval configuration (as the
    /// workers use it — before the per-request deadline/thread overrides).
    pub fn retrieval_config(&self) -> RetrievalConfig {
        self.shared.config.retrieval.clone()
    }

    /// A retained historical generation by epoch (requires
    /// [`ServerConfig::retain_snapshot_history`]; `None` otherwise or for
    /// an unknown epoch).
    pub fn snapshot_at(&self, epoch: u64) -> Option<Arc<ModelSnapshot>> {
        self.shared
            .history
            .lock()
            .expect("snapshot history poisoned")
            .iter()
            .find(|s| s.epoch == epoch)
            .cloned()
    }

    /// Audits and installs a candidate snapshot RCU-style (see
    /// [`SnapshotCell::install`]): in-flight queries finish on the
    /// generation they started with; subsequent dequeues see the new one.
    /// Returns the published epoch.
    ///
    /// # Errors
    ///
    /// [`CoreError`] when the pre-install `deep_audit` rejects the
    /// candidate — the live snapshot keeps serving and the rejection is
    /// counted (`serve.snapshot_audit_rejections`).
    pub fn install(&self, candidate: ModelSnapshot) -> Result<u64, CoreError> {
        match self.shared.cell.install(candidate) {
            Ok(epoch) => Ok(self.installed(epoch)),
            Err(e) => {
                self.shared.obs.counter(m::CTR_SERVE_AUDIT_REJECTIONS, 1);
                Err(e)
            }
        }
    }

    /// Bookkeeping after a publish: the install counter and, when
    /// retained, the history entry. Returns `epoch`.
    fn installed(&self, epoch: u64) -> u64 {
        self.shared.obs.counter(m::CTR_SERVE_SNAPSHOT_INSTALLS, 1);
        if self.shared.config.retain_snapshot_history {
            let current = self.shared.cell.load();
            self.shared
                .history
                .lock()
                .expect("snapshot history poisoned")
                .push(current);
        }
        epoch
    }

    /// Wraps a bare model into a candidate snapshot against the live
    /// catalog and installs it (audit-gated). Returns the published epoch.
    ///
    /// # Errors
    ///
    /// Same as [`QueryServer::install`].
    pub fn install_model(&self, model: Hmmm) -> Result<u64, CoreError> {
        let current = self.shared.cell.load();
        let candidate = ModelSnapshot {
            audit: current.audit,
            catalog: Arc::clone(&current.catalog),
            epoch: current.epoch + 1,
            model,
        };
        self.install(candidate)
    }

    /// The full feedback round against the live generation: clone the
    /// model off to the side, apply the Eqs. 1–10 offline updates from
    /// `log`, audit the candidate, and publish it. Readers never block;
    /// a failed audit leaves the live snapshot serving.
    ///
    /// The candidate is audited once, inside
    /// [`ModelSnapshot::apply_feedback`], and never leaves this function,
    /// so it is published without the second audit [`QueryServer::install`]
    /// would run.
    ///
    /// # Errors
    ///
    /// Same as [`ModelSnapshot::apply_feedback`].
    pub fn apply_feedback(
        &self,
        log: &mut FeedbackLog,
        config: &FeedbackConfig,
    ) -> Result<(u64, UpdateReport), CoreError> {
        let current = self.shared.cell.load();
        let (candidate, report) = match current.apply_feedback(log, config) {
            Ok(built) => built,
            Err(e) => {
                self.shared.obs.counter(m::CTR_SERVE_AUDIT_REJECTIONS, 1);
                return Err(e);
            }
        };
        let epoch = self.installed(self.shared.cell.publish(candidate));
        Ok((epoch, report))
    }

    /// Closes admission: subsequent submits are rejected with
    /// [`RejectReason::Shutdown`]; already-queued requests still drain
    /// through the workers. Idempotent.
    pub fn close(&self) {
        let mut queue = self.shared.queue.lock().expect("admission queue poisoned");
        queue.open = false;
        drop(queue);
        self.shared.not_empty.notify_all();
    }

    /// Closes admission, drains the queue, and joins every worker. Every
    /// ticket issued before `join` resolves (completed or rejected) before
    /// this returns.
    pub fn join(mut self) {
        self.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("serve worker panicked");
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.close();
        for worker in self.workers.drain(..) {
            // A worker that panicked already poisoned nothing the server
            // owns (jobs resolve their own slots); surface it.
            worker.join().expect("serve worker panicked");
        }
    }
}

/// A worker's validation of its current snapshot: `None` until the first
/// job on that snapshot executes, then the proof or the rendered error.
type EpochProof<'s> = Option<Result<Validated<'s>, String>>;

/// One worker: dequeue → epoch check (one atomic load; on a new epoch,
/// forget the old proof and refresh the snapshot) → admission deadline
/// check → validate if this is the epoch's first executed job → execute
/// with the remaining budget → fulfill.
fn worker_loop(shared: &ServerShared) {
    let mut snapshot = shared.cell.load();
    let mut scratch = QueryScratch::new();
    let mut pending = dequeue(shared);
    while pending.is_some() {
        shared.cell.refresh(&mut snapshot);
        let mut proof: EpochProof<'_> = None;
        while let Some(job) = pending.take() {
            if shared.cell.epoch() != snapshot.epoch {
                pending = Some(job); // carried over to the new generation
                break;
            }
            serve_one(shared, &snapshot, &mut proof, &mut scratch, job);
            pending = dequeue(shared);
        }
    }
}

/// Blocks for the next job; `None` once admission is closed and drained.
fn dequeue(shared: &ServerShared) -> Option<Job> {
    let mut queue = shared.queue.lock().expect("admission queue poisoned");
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            let depth = queue.jobs.len();
            drop(queue);
            shared.obs.gauge(m::GAUGE_SERVE_QUEUE_DEPTH, depth as f64);
            return Some(job);
        }
        if !queue.open {
            return None;
        }
        queue = shared
            .not_empty
            .wait(queue)
            .expect("admission queue poisoned");
    }
}

/// Executes one dequeued job against the worker's snapshot, validating the
/// snapshot first if no earlier job on it has.
fn serve_one<'s>(
    shared: &ServerShared,
    snapshot: &'s ModelSnapshot,
    proof: &mut EpochProof<'s>,
    scratch: &mut QueryScratch,
    job: Job,
) {
    let obs = &shared.obs;
    let _request_span = obs.span_labeled(m::SPAN_SERVE_REQUEST, job.id);
    let queue_ns = job.submitted.elapsed().as_nanos() as u64;
    obs.observe_ns(m::HIST_SERVE_QUEUE_WAIT, queue_ns);

    // Admission deadline (QoS): queue wait already drew from the budget.
    // Shed the request if nothing is left; otherwise the remainder becomes
    // the engine's anytime-retrieval budget (PR 5 semantics: exact-so-far,
    // degraded, never wrong).
    let budget = job.request.deadline.or(shared.config.default_deadline);
    let remaining = match budget {
        Some(budget) => match budget.checked_sub(Duration::from_nanos(queue_ns)) {
            Some(rest) if !rest.is_zero() => Some(rest),
            _ => {
                obs.counter(m::CTR_SERVE_REJECTED_DEADLINE, 1);
                job.slot
                    .fulfill(ServeOutcome::Rejected(RejectReason::DeadlineBeforeService));
                return;
            }
        },
        None => None,
    };

    let mut config = shared.config.retrieval.clone();
    config.threads = Some(1); // concurrency lives across queries
    config.recorder = obs.clone();
    config.deadline = remaining.map(hmmm_core::DeadlineConfig::new);

    let execute_span = obs.span_labeled(m::SPAN_SERVE_EXECUTE, job.id);
    let execute_started = Instant::now();
    let proof = proof.get_or_insert_with(|| {
        obs.counter(m::CTR_SERVE_SNAPSHOT_VALIDATIONS, 1);
        snapshot
            .model
            .validate_against(&snapshot.catalog)
            .map_err(|e| e.to_string())
    });
    let executed = match proof {
        Ok(proof) => Retriever::from_validated(*proof, config)
            .retrieve_with_scratch(&job.request.pattern, job.request.limit, scratch)
            .map_err(|e| e.to_string()),
        Err(e) => Err(e.clone()),
    };
    let service_ns = execute_started.elapsed().as_nanos() as u64;
    drop(execute_span);

    match executed {
        Ok((results, stats)) => {
            obs.counter(m::CTR_SERVE_COMPLETED, 1);
            if stats.degraded.is_some() {
                obs.counter(m::CTR_SERVE_DEGRADED, 1);
            }
            obs.observe_ns(m::HIST_SERVE_LATENCY, job.submitted.elapsed().as_nanos() as u64);
            job.slot.fulfill(ServeOutcome::Completed(QueryResponse {
                results,
                stats,
                epoch: snapshot.epoch,
                queue_ns,
                service_ns,
            }));
        }
        Err(e) => {
            job.slot
                .fulfill(ServeOutcome::Rejected(RejectReason::Invalid(e)));
        }
    }
}
