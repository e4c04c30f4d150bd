//! Canonical metric and span names emitted by this crate's
//! instrumentation.
//!
//! Everything the retrieval engine records through a
//! [`hmmm_obs::RecorderHandle`] uses a constant from this module, so the
//! CLI's `--metrics-json` report, `bench_report`'s `BENCH_retrieval.json`,
//! and the tests all key off one registry and cannot drift apart.
//!
//! Naming scheme: span paths are `/`-separated hierarchies
//! (`retrieve/traverse/video`); counter/gauge/histogram names are
//! dot-separated `subsystem.quantity` (`sim.score_reads`).

// --- §5 retrieval (Steps 1–9, Eqs. 12–15) ---------------------------------

/// Root span of one [`crate::Retriever::retrieve_within`] call.
pub const SPAN_RETRIEVE: &str = "retrieve";
/// Per-query Eq.-(14) table build. No longer opened — the model fills its
/// score table once per epoch ([`crate::Hmmm::sim_row`]) and queries only
/// read it — but kept so report readers that chart it still resolve the
/// name.
pub const SPAN_SIM_CACHE_BUILD: &str = "retrieve/sim_cache_build";
/// Step 2/7 video ordering. No longer emitted — the coarse stage
/// ([`SPAN_COARSE`]) enumerates and orders candidates — but kept so report
/// readers that chart it still resolve the name.
pub const SPAN_VIDEO_ORDER: &str = "retrieve/video_order";
/// Coarse candidate stage (postings union + per-video bound lookups from
/// the ingest-time [`crate::CoarseIndex`]).
pub const SPAN_COARSE: &str = "retrieve/coarse";
/// The per-video loop over the coarse candidates (Steps 3–7).
pub const SPAN_TRAVERSE: &str = "retrieve/traverse";
/// One video's Figure-3 lattice traversal (label = video index).
pub const SPAN_VIDEO: &str = "retrieve/traverse/video";
/// Step 8–9 final ranking (total-order sort + truncate).
pub const SPAN_RANK: &str = "retrieve/rank";

/// End-to-end latency of each retrieve call (histogram, ns).
pub const HIST_RETRIEVE_LATENCY: &str = "retrieve.latency_ns";

/// Retrieve calls served.
pub const CTR_QUERIES: &str = "retrieve.queries";
/// Videos whose lattices were traversed (`RetrievalStats::videos_visited`).
pub const CTR_VIDEOS_VISITED: &str = "retrieve.videos_visited";
/// Videos pruned by the Step-2 `B_2` check (`videos_skipped`).
pub const CTR_VIDEOS_SKIPPED: &str = "retrieve.videos_skipped";
/// `A_1` lattice transitions examined (`transitions_examined`).
pub const CTR_TRANSITIONS: &str = "retrieve.transitions_examined";
/// Candidate sequences scored before the final cut (`candidates_scored`).
pub const CTR_CANDIDATES: &str = "retrieve.candidates_scored";
/// Ranked patterns actually returned (after Step 9's `limit`).
pub const CTR_RESULTS: &str = "retrieve.results_returned";

// --- Exact top-k pruning ---------------------------------------------------

/// Videos skipped whole because their admissible upper bound fell below the
/// top-k threshold (`RetrievalStats::videos_skipped_by_bound`).
pub const CTR_VIDEOS_SKIPPED_BY_BOUND: &str = "retrieve.videos_skipped_by_bound";
/// Beam entries and selected candidates dropped by the threshold cut
/// (`RetrievalStats::entries_pruned`).
pub const CTR_ENTRIES_PRUNED: &str = "retrieve.entries_pruned";
/// Times an emitted candidate raised the k-th-best threshold
/// (`RetrievalStats::threshold_raises`).
pub const CTR_THRESHOLD_RAISES: &str = "retrieve.threshold_raises";
/// Final value of the k-th-best threshold after the last pruned
/// retrieve (0.0 until `limit` positive-score candidates were found).
pub const GAUGE_PRUNE_THRESHOLD: &str = "retrieve.prune_threshold";

// --- Degraded paths (deadline, panic isolation, crash-safe persistence) ---

/// Videos whose traversal panicked and was isolated
/// (`RetrievalStats::videos_failed`).
pub const CTR_VIDEOS_FAILED: &str = "retrieve.videos_failed";
/// Eligible videos never admitted because the deadline expired
/// (`RetrievalStats::videos_unvisited`).
pub const CTR_VIDEOS_UNVISITED: &str = "retrieve.videos_unvisited";
/// In-flight beams abandoned whole at deadline expiry
/// (`RetrievalStats::beams_abandoned`).
pub const CTR_BEAMS_ABANDONED: &str = "retrieve.beams_abandoned";
/// Queries whose deadline budget elapsed (one per degraded query).
pub const CTR_DEADLINE_EXPIRED: &str = "retrieve.deadline_expired";
/// Candidate videos the coarse stage admitted to the fine stage
/// (`RetrievalStats::coarse_candidates`).
pub const CTR_COARSE_CANDIDATES: &str = "coarse.candidates";
/// Candidates dropped by the `candidate_cut` top-`C` cut
/// (`RetrievalStats::coarse_cut`).
pub const CTR_COARSE_CUT: &str = "coarse.candidates_cut";
/// Candidates skipped exactly on a zero coarse upper bound
/// (`RetrievalStats::coarse_skipped_zero_ub`).
pub const CTR_COARSE_ZERO_UB: &str = "coarse.zero_ub_skips";
/// Precomputed-summary table reads spent deriving coarse bounds
/// (`RetrievalStats::coarse_bound_lookups`).
pub const CTR_COARSE_LOOKUPS: &str = "coarse.bound_lookups";
pub use hmmm_storage::{CTR_ATOMIC_WRITE_RETRIES, CTR_BAK_FALLBACKS};

// --- Eq.-(14) similarity ---------------------------------------------------

/// Calibrated Eq.-(14) scores read from the model's per-epoch table
/// ([`crate::Hmmm::sim_row`]) — `RetrievalStats::cache_lookups`.
pub const CTR_SCORE_READS: &str = "sim.score_reads";

// --- QueryServer (crates/serve) --------------------------------------------
//
// The in-process serving layer records through the same registry as the
// engine it wraps, so a served query's span tree nests `retrieve` under
// `serve/request/execute` and the load generator's report keys match the
// live server's.

/// One admitted request, queue wait through response delivery.
pub const SPAN_SERVE_REQUEST: &str = "serve/request";
/// The retrieval execution inside one request (label = request id).
pub const SPAN_SERVE_EXECUTE: &str = "serve/request/execute";
/// End-to-end served latency per completed request (queue + execute), ns.
pub const HIST_SERVE_LATENCY: &str = "serve.latency_ns";
/// Time a request sat in the admission queue before a worker picked it
/// up, ns.
pub const HIST_SERVE_QUEUE_WAIT: &str = "serve.queue_wait_ns";
/// Requests accepted into the admission queue.
pub const CTR_SERVE_SUBMITTED: &str = "serve.requests_submitted";
/// Requests that completed with a ranking (exact or degraded).
pub const CTR_SERVE_COMPLETED: &str = "serve.requests_completed";
/// Completed requests whose ranking was degraded (deadline/panic — see
/// [`crate::retrieve::DegradedReason`]).
pub const CTR_SERVE_DEGRADED: &str = "serve.requests_degraded";
/// Requests rejected at admission: the bounded queue was full.
pub const CTR_SERVE_REJECTED_QUEUE_FULL: &str = "serve.rejected_queue_full";
/// Requests rejected at dequeue: the whole deadline budget was consumed
/// by queueing before any retrieval work could start.
pub const CTR_SERVE_REJECTED_DEADLINE: &str = "serve.rejected_deadline";
/// Requests rejected because the server had stopped admitting.
pub const CTR_SERVE_REJECTED_SHUTDOWN: &str = "serve.rejected_shutdown";
/// Model snapshots installed (RCU pointer swaps), including the initial one.
pub const CTR_SERVE_SNAPSHOT_INSTALLS: &str = "serve.snapshot_installs";
/// Candidate snapshots refused by the pre-install `deep_audit` gate.
pub const CTR_SERVE_AUDIT_REJECTIONS: &str = "serve.snapshot_audit_rejections";
/// `validate_against` runs on the serving path: one per (worker, epoch)
/// pair that executed a job, not one per request.
pub const CTR_SERVE_SNAPSHOT_VALIDATIONS: &str = "serve.snapshot_validations";
/// Admission-queue depth after the most recent submit/dequeue.
pub const GAUGE_SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Worker threads the server was started with.
pub const GAUGE_SERVE_WORKERS: &str = "serve.workers";

// --- TCP front-end (crates/serve net + client) ------------------------------
//
// The network layer records through the same registry: server-side
// connection QoS counters (`net.accepted` …), fault-injection tallies
// surfaced from the core `FaultPlan` network plane, and the built-in
// client's retry/backoff accounting — so loadgen's network report rows and
// `bench_report`'s net sweep key off one vocabulary.

/// One served connection, accept through close (label = connection id).
pub const SPAN_NET_CONN: &str = "net/conn";
/// Connections accepted by the TCP front-end.
pub const CTR_NET_ACCEPTED: &str = "net.accepted";
/// Connections refused at accept because the per-server cap was reached.
pub const CTR_NET_REJECTED_CONN_LIMIT: &str = "net.rejected_conn_limit";
/// Connections shed because a started frame did not complete within the
/// per-connection read deadline (slow-loris defense).
pub const CTR_NET_SHED_SLOW_CLIENT: &str = "net.shed_slow_client";
/// Request frames fully parsed off the wire.
pub const CTR_NET_REQUESTS: &str = "net.requests";
/// Response frames fully written back (success or degraded).
pub const CTR_NET_RESPONSES: &str = "net.responses";
/// Frames refused before admission: bad version byte, over-cap length,
/// unparseable payload.
pub const CTR_NET_BAD_FRAMES: &str = "net.bad_frames";
/// Response/status writes that failed (peer gone, torn stream).
pub const CTR_NET_WRITE_FAILURES: &str = "net.write_failures";
/// `Draining` statuses sent to idle connections during graceful shutdown.
pub const CTR_NET_DRAINING_NOTICES: &str = "net.draining_notices";
/// Writes torn by the injected network fault plane
/// ([`crate::NetFaultStats::torn_writes`]).
pub const CTR_NET_TORN_FRAMES_INJECTED: &str = "net.torn_frames_injected";
/// Client-side: attempts beyond the first, across all requests.
pub const CTR_NET_RETRIES: &str = "net.retries";
/// Client-side: requests that succeeded on a retry attempt (> 0).
pub const CTR_NET_RETRY_SUCCESSES: &str = "net.retry_successes";
/// Client-side: requests that exhausted every attempt without a terminal
/// response.
pub const CTR_NET_GIVE_UPS: &str = "net.give_ups";
/// Client-side backoff sleeps between attempts, ns (histogram).
pub const HIST_NET_BACKOFF: &str = "net.backoff_ns";
/// Open connections after the most recent accept/close.
pub const GAUGE_NET_OPEN_CONNS: &str = "net.open_connections";

// --- §4.2 model construction ----------------------------------------------

/// Root span of one [`crate::build_hmmm`] call.
pub const SPAN_CONSTRUCT: &str = "construct";
/// Eq.-(3) normalization of all shot features into `B_1`.
pub const SPAN_CONSTRUCT_B1: &str = "construct/normalize_b1";
/// Per-video local MMMs: closed-form `A_1` (§4.2.1.1) + uniform `Π_1`.
pub const SPAN_CONSTRUCT_LOCALS: &str = "construct/locals";
/// Level-2 matrices: `B_2`, `A_2`, `Π_2`.
pub const SPAN_CONSTRUCT_LEVEL2: &str = "construct/level2";
/// Cross-level glue: `B_1'` centroids (Eq. 11) + `P_{1,2}` (Eqs. 7–10).
pub const SPAN_CONSTRUCT_CROSS: &str = "construct/cross_level";
/// Videos in the constructed model.
pub const CTR_CONSTRUCT_VIDEOS: &str = "construct.videos";
/// Shots in the constructed model.
pub const CTR_CONSTRUCT_SHOTS: &str = "construct.shots";

// --- Feedback learning (Eqs. 1–11) ----------------------------------------

/// Root span of one offline [`crate::FeedbackLog::apply`] update.
pub const SPAN_FEEDBACK: &str = "feedback/apply";
/// Per-video `A_1` (Eqs. 1–2) and `Π_1` (Eq. 4) updates.
pub const SPAN_FEEDBACK_LOCAL: &str = "feedback/apply/a1_pi1";
/// `A_2` (Eq. 5) and `Π_2` (Eq. 6) co-access updates.
pub const SPAN_FEEDBACK_LEVEL2: &str = "feedback/apply/a2_pi2";
/// `P_{1,2}`/`B_1'` re-learning (Eqs. 8–11).
pub const SPAN_FEEDBACK_CROSS: &str = "feedback/apply/p12";
/// Positive patterns consumed by offline updates.
pub const CTR_FEEDBACK_PATTERNS: &str = "feedback.patterns_applied";
/// Videos whose `A_1` changed in offline updates.
pub const CTR_FEEDBACK_VIDEOS: &str = "feedback.videos_updated";

/// Adds the standard retrieval-derived quantities to a report:
///
/// * `videos_visited_ratio` — traversed over eligible-plus-pruned videos
///   (how much work the Step-2 `B_2` check saved);
/// * `bound_skip_ratio` — bound-skipped over bound-skipped-plus-traversed
///   videos (how much traversal the exact top-k threshold cut saved).
pub fn derive_retrieval_metrics(report: &mut hmmm_obs::MetricsReport) {
    report.derive_ratio(
        "videos_visited_ratio",
        &[CTR_VIDEOS_VISITED],
        &[CTR_VIDEOS_SKIPPED],
    );
    report.derive_ratio(
        "bound_skip_ratio",
        &[CTR_VIDEOS_SKIPPED_BY_BOUND],
        &[CTR_VIDEOS_VISITED],
    );
}

/// Adds the standard serving-derived quantities to a report:
///
/// * `serve_rejection_ratio` — rejected requests (queue-full + queued-out
///   deadline + shutdown) over all admission decisions;
/// * `serve_degraded_ratio` — degraded completions over all completions.
pub fn derive_serve_metrics(report: &mut hmmm_obs::MetricsReport) {
    report.derive_ratio(
        "serve_rejection_ratio",
        &[
            CTR_SERVE_REJECTED_QUEUE_FULL,
            CTR_SERVE_REJECTED_DEADLINE,
            CTR_SERVE_REJECTED_SHUTDOWN,
        ],
        &[CTR_SERVE_COMPLETED],
    );
    report.derive_ratio(
        "serve_degraded_ratio",
        &[CTR_SERVE_DEGRADED],
        &[CTR_SERVE_COMPLETED],
    );
}

/// Adds the standard network-derived quantities to a report:
///
/// * `net_shed_ratio` — connections shed or refused over connections
///   accepted (QoS pressure at the front door);
/// * `net_retry_ratio` — client retries over responses delivered (how hard
///   the fault plane made the client work).
pub fn derive_net_metrics(report: &mut hmmm_obs::MetricsReport) {
    report.derive_ratio(
        "net_shed_ratio",
        &[CTR_NET_SHED_SLOW_CLIENT, CTR_NET_REJECTED_CONN_LIMIT],
        &[CTR_NET_ACCEPTED],
    );
    report.derive_ratio("net_retry_ratio", &[CTR_NET_RETRIES], &[CTR_NET_RESPONSES]);
}
