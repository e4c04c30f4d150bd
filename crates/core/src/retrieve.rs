//! The §5 temporal pattern retrieval process (Steps 1–9, Figures 2–3).
//!
//! Retrieval walks the hierarchy exactly as the paper's flowchart does:
//!
//! 1. order candidate videos by `Π_2` and `A_2` affinity, skipping videos
//!    whose `B_2` row lacks the pattern's first event (Step 2);
//! 2. inside each video, traverse the shot lattice (Figure 3): candidates
//!    for step `j+1` are *forward* shots reachable through `A_1`, scored by
//!    `w_{j+1} = w_j · A_1(s_j, s_{j+1}) · sim(s_{j+1}, e_{j+1})`
//!    (Eqs. 12–13);
//! 3. the per-video best path(s) become candidate patterns scored
//!    `SS = Σ_j w_j` (Eq. 15);
//! 4. all candidates are ranked and the top `limit` returned (Steps 8–9).
//!
//! The paper traverses greedily ("always tries to traverse the right
//! path"); [`RetrievalConfig::beam_width`] generalizes that to a beam
//! (`1` = paper-greedy) — the beam-width ablation is one of the benches.
//!
//! # Exact top-k pruning
//!
//! With [`RetrievalConfig::prune`] on (the default), retrieval runs a
//! Fagin-style threshold cut: a lock-free [`SharedTopK`] register tracks the
//! running k-th best Eq.-15 score across *all* traversal workers, and
//! admissible completion bounds ([`crate::bounds`]) skip work that provably
//! cannot reach the returned top-`limit` prefix. The rankings are
//! **byte-identical** to `prune: false` (proptest-enforced); only the work
//! counters change.
//!
//! Which prune sites are exact is subtler than classic branch-and-bound,
//! because every lattice step ends in a *width* trim: dropping one hopeless
//! entry (bound below threshold) can change which entries the trim backfills,
//! and a backfilled entry's descendants may legitimately out-score the
//! threshold — producing candidates the unpruned search never generated.
//! Individual mid-beam drops are therefore **unsafe**, and pruning is
//! restricted to the three sites where no backfill can happen:
//!
//! 1. **Whole-video skip** — `UB(video) < threshold` before `traverse_video`
//!    (every candidate the video could emit is below the settled k-th
//!    score), counted in [`RetrievalStats::videos_skipped_by_bound`];
//! 2. **Whole-beam abandon** — after a trim, *every* surviving entry has
//!    `score + w_j · rem_j < threshold`: no candidate from this video can
//!    reach the prefix, so the traversal stops (there is nothing left for a
//!    trim to backfill), counted in [`RetrievalStats::entries_pruned`];
//! 3. **Emission filter** — fully-selected per-video candidates scoring
//!    below the threshold are dropped instead of offered to the global rank
//!    (anything their removal pulls up scores even lower).
//!
//! Dropped candidates are strictly below the threshold, the threshold never
//! exceeds the settled k-th best score (see [`crate::topk`]), and ties at
//! the k-th score are never dropped (strict `<`) — so the top-`limit`
//! prefix, including its deterministic tie-breaks, is unchanged. In
//! parallel runs the *counters* are timing-dependent (workers race the
//! threshold); the rankings are not.
//!
//! Bound tightness depends on the similarity source: with the query cache
//! up, each video gets *per-video* step maxima and an exact whole-video
//! bound folded from per-shot start weights and forward `A_1` row maxima,
//! read straight from the table (free — the table is already built);
//! without it, one archive-wide scan per unique event feeds a single looser
//! [`QueryBounds`] shared by all videos. Both are admissible, so rankings
//! never depend on the cache — but the *pruning decisions* (and counters)
//! do. Entry bounds charge the entry's own shot's forward row maximum
//! ([`crate::LocalMmm::a1_row_max`]) for the next hop rather than the
//! whole-matrix maximum, which a trailing self-loop row would pin near 1.

use crate::bounds::{QueryBounds, VideoBounds};
use crate::error::CoreError;
use crate::fault::FaultHandle;
use crate::metrics as m;
use crate::model::{Hmmm, Validated};
use crate::sim::{best_alternative, max_calibrated_similarity};
use crate::simcache::SimCache;
use crate::topk::SharedTopK;
use hmmm_media::EventKind;
use hmmm_obs::RecorderHandle;
use hmmm_query::CompiledPattern;
use hmmm_storage::{Catalog, ShotId, VideoId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Retrieval tuning knobs.
///
/// Plain data apart from [`RetrievalConfig::recorder`], which is an
/// `Arc`-backed observability handle: cloning a config shares the sink,
/// serializing one drops it (a deserialized config records nothing until
/// a recorder is attached again).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrievalConfig {
    /// Paths kept per lattice step (`1` = the paper's greedy traversal).
    pub beam_width: usize,
    /// Cap on first-step candidates when no shot is annotated with the
    /// first event (fallback to feature similarity, Step 3's "or similar").
    pub max_start_candidates: usize,
    /// Candidate sequences emitted per video (Step 7 advances `k` once per
    /// video in the paper, i.e. `1`).
    pub per_video_results: usize,
    /// Skip videos whose `B_2` row lacks every alternative of the first
    /// step (the paper's Step 2 `B_2` check).
    pub require_first_event: bool,
    /// Step 3 candidate policy. `true`: prefer shots *annotated as* `e_j`,
    /// falling back to feature similarity only when a video has none
    /// (exact-annotation reading of §5 Step 3). `false`: rank every
    /// reachable shot purely by the model (`Π_1`/`A_1` × Eq.-14 sim) — the
    /// "or similar to event e_j" reading, where the learned `P_{1,2}` and
    /// `B_1'` decide everything (used by the feedback experiments).
    pub annotated_first: bool,
    /// Worker threads for the per-video traversal fan-out. `None` uses
    /// [`std::thread::available_parallelism`], `Some(1)` runs serially on
    /// the calling thread. The ranking is byte-identical at every setting:
    /// videos are traversed independently and merged under a total order.
    pub threads: Option<usize>,
    /// Allow a query-scoped [`SimCache`] (`true`, the default): when the
    /// traversal is similarity-bound (`annotated_first == false`), Eq. (14)
    /// is evaluated once per (shot, query-event) in a dense up-front pass
    /// instead of repeatedly on the hot path. Annotation-bound traversal
    /// never builds the cache — it scores too few shots for the build to
    /// pay. `false` forces direct evaluation everywhere (the
    /// cached-vs-uncached cost benches).
    pub use_sim_cache: bool,
    /// Exact top-k pruning (`true`, the default): share the running k-th
    /// best Eq.-15 score across workers and skip videos/beams whose
    /// admissible upper bound falls strictly below it. Rankings are
    /// byte-identical at either setting; only the work counters differ
    /// (and, in parallel runs, the pruning counters are timing-dependent).
    /// `false` forces the exhaustive traversal — the pruning on/off sweep
    /// and the exactness proptests use it as ground truth. Pruning
    /// auto-disables for `limit > 65 536`: the threshold register scales
    /// with `limit`, and a cut that deep could never pay for itself.
    pub prune: bool,
    /// Deadline budget for anytime retrieval (`None` = unbounded, the
    /// default). When set, workers stop admitting new videos once the
    /// budget elapses (checked at video granularity and every
    /// [`DeadlineConfig::check_interval`] beam expansions inside a
    /// traversal), the current beam is abandoned whole, and the engine
    /// returns the best-so-far ranking with
    /// [`RetrievalStats::degraded`] set. Whenever the deadline never
    /// fires, results are bit-identical to an unbounded run — the clock
    /// only ever *removes* whole videos/beams, it never reorders
    /// surviving candidates.
    pub deadline: Option<DeadlineConfig>,
    /// Observability sink for every retrieval this config drives: spans
    /// (per-stage and per-video timings), counters, and the cache/thread
    /// gauges — see [`crate::metrics`] for the emitted names. The default
    /// [`RecorderHandle::noop`] is near-zero-cost; attach an
    /// [`hmmm_obs::InMemoryRecorder`] to collect a
    /// [`hmmm_obs::MetricsReport`]. Skipped by serde (a deserialized
    /// config is a noop until a recorder is attached).
    pub recorder: RecorderHandle,
    /// Deterministic fault-injection hook (see [`crate::fault`]). The
    /// default [`FaultHandle::noop`] injects nothing at near-zero cost;
    /// attach a [`crate::fault::FaultPlan`] to drive the degraded paths in
    /// tests and the fault-matrix CI job. Skipped by serde, like the
    /// recorder (a runtime hook, not data).
    pub fault: FaultHandle,
    /// Two-stage coarse-to-fine retrieval mode ([`CoarseMode::Off`] by
    /// default, which reproduces single-stage behavior — counters
    /// included — exactly). `Exact` and `Approx` run the ingest-time
    /// [`crate::coarse::CoarseIndex`] stage first: candidate videos come
    /// from the inverted `B_2` postings (no per-video `B_2` row scan) and
    /// carry admissible per-video upper bounds derived from table lookups
    /// (no archive-wide Eq.-14 bound scan on the cold path — the
    /// [`RetrievalStats::bound_evaluations`] counter drops to zero).
    pub coarse: CoarseMode,
    /// Candidate-set cut for [`CoarseMode::Approx`]: only the
    /// `coarse_candidates` videos with the highest coarse upper bounds
    /// enter the fine stage (the recall@k-vs-latency knob `C` of the E13
    /// sweep). Ignored by `Off` and `Exact`.
    pub coarse_candidates: usize,
}

/// Which coarse stage [`Retriever::retrieve`] runs before the exact
/// per-video lattice traversal (see [`crate::coarse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoarseMode {
    /// Single-stage retrieval (the default): candidate videos come from
    /// the per-video `B_2` row scan and bounds from the similarity source
    /// in use. Byte-identical to pre-coarse behavior, counters included.
    Off,
    /// Bound-admissible coarse stage: candidates from the inverted `B_2`
    /// postings, ordered by their admissible coarse upper bound
    /// (descending), with zero-bound videos skipped. The ranking is
    /// provably **byte-identical** to `Off` (proptest-pinned): every
    /// skipped video is either `B_2`-ineligible, admissibly bounded below
    /// the shared top-k threshold, or structurally unable to admit a
    /// start entry (`w > 0` is required), and visit order only affects
    /// counters — the final sort is a total order.
    Exact,
    /// `Exact` plus a top-`C` candidate cut
    /// ([`RetrievalConfig::coarse_candidates`]): only the `C` candidates
    /// with the highest coarse bounds are traversed. Recall@k is
    /// deterministically monotone in `C` (the candidate order is total,
    /// so cuts are nested prefixes) and measured against latency by the
    /// E13 `exp_coarse_sweep`.
    Approx,
}

impl CoarseMode {
    /// Canonical CLI/config spelling (`off` / `exact` / `approx`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CoarseMode::Off => "off",
            CoarseMode::Exact => "exact",
            CoarseMode::Approx => "approx",
        }
    }

    /// Parses the canonical spelling (the `--coarse` CLI flag).
    pub fn parse(s: &str) -> Option<CoarseMode> {
        match s {
            "off" => Some(CoarseMode::Off),
            "exact" => Some(CoarseMode::Exact),
            "approx" => Some(CoarseMode::Approx),
            _ => None,
        }
    }
}

/// Wall-clock budget for one retrieve call (anytime retrieval).
///
/// The budget spans the *whole* call — cache build, bound derivation, and
/// traversal all draw from it. `check_interval` bounds how often a
/// traversal reads the clock: once per `check_interval` beam-entry
/// expansions (plus once per admitted video), so the overhead of deadline
/// support is one integer increment per expansion, not a syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineConfig {
    /// The wall-clock budget, measured from the start of the retrieve
    /// call.
    pub budget: Duration,
    /// Beam expansions between clock reads inside a traversal (`≥ 1`).
    pub check_interval: u32,
}

impl DeadlineConfig {
    /// A budget with the default check interval (64 expansions).
    pub fn new(budget: Duration) -> Self {
        DeadlineConfig {
            budget,
            check_interval: 64,
        }
    }
}

// Hand-written (de)serialization: the vendored serde stub has no Duration
// support, so the budget travels as nanoseconds.
impl Serialize for DeadlineConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "budget_ns".into(),
                u64::try_from(self.budget.as_nanos())
                    .unwrap_or(u64::MAX)
                    .to_value(),
            ),
            ("check_interval".into(), self.check_interval.to_value()),
        ])
    }
}

impl Deserialize for DeadlineConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v.as_object().ok_or_else(|| {
            serde::DeError::new(format!("DeadlineConfig: expected object, found {}", v.kind()))
        })?;
        let budget_ns: u64 = serde::__field(obj, "budget_ns", "DeadlineConfig")?;
        let check_interval: u32 = serde::__field(obj, "check_interval", "DeadlineConfig")?;
        if check_interval == 0 {
            return Err(serde::DeError::new(
                "DeadlineConfig.check_interval: must be ≥ 1".to_string(),
            ));
        }
        Ok(DeadlineConfig {
            budget: Duration::from_nanos(budget_ns),
            check_interval,
        })
    }
}

/// The per-worker deadline clock: a cheap tick counter in front of the
/// actual `Instant::now()` read. Once expired, stays expired (the budget
/// never un-elapses), so every check after the first hit is branch-only.
struct DeadlineClock {
    expires_at: Instant,
    check_interval: u32,
    ticks: u32,
    expired: bool,
}

impl DeadlineClock {
    fn new(config: DeadlineConfig, started: Instant) -> Self {
        DeadlineClock {
            expires_at: started + config.budget,
            check_interval: config.check_interval.max(1),
            ticks: 0,
            expired: false,
        }
    }

    /// One beam-expansion tick; reads the clock every `check_interval`
    /// ticks. Returns `true` once the budget has elapsed.
    #[inline]
    fn tick(&mut self) -> bool {
        if self.expired {
            return true;
        }
        self.ticks += 1;
        if self.ticks >= self.check_interval {
            self.ticks = 0;
            return self.check_now();
        }
        false
    }

    /// Unconditional clock read (video-granularity checkpoints).
    fn check_now(&mut self) -> bool {
        if !self.expired && Instant::now() >= self.expires_at {
            self.expired = true;
        }
        self.expired
    }
}

// Hand-written (de)serialization because the recorder handle is a runtime
// sink, not data: serializing omits it, deserializing defaults it to noop
// (and tolerates its absence, so configs persisted before the field existed
// still load).
impl Serialize for RetrievalConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("beam_width".into(), self.beam_width.to_value()),
            (
                "max_start_candidates".into(),
                self.max_start_candidates.to_value(),
            ),
            ("per_video_results".into(), self.per_video_results.to_value()),
            (
                "require_first_event".into(),
                self.require_first_event.to_value(),
            ),
            ("annotated_first".into(), self.annotated_first.to_value()),
            ("threads".into(), self.threads.to_value()),
            ("use_sim_cache".into(), self.use_sim_cache.to_value()),
            ("prune".into(), self.prune.to_value()),
            ("deadline".into(), self.deadline.to_value()),
            ("coarse".into(), self.coarse.to_value()),
            ("coarse_candidates".into(), self.coarse_candidates.to_value()),
        ])
    }
}

impl Deserialize for RetrievalConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v.as_object().ok_or_else(|| {
            serde::DeError::new(format!("RetrievalConfig: expected object, found {}", v.kind()))
        })?;
        Ok(RetrievalConfig {
            beam_width: serde::__field(obj, "beam_width", "RetrievalConfig")?,
            max_start_candidates: serde::__field(obj, "max_start_candidates", "RetrievalConfig")?,
            per_video_results: serde::__field(obj, "per_video_results", "RetrievalConfig")?,
            require_first_event: serde::__field(obj, "require_first_event", "RetrievalConfig")?,
            annotated_first: serde::__field(obj, "annotated_first", "RetrievalConfig")?,
            threads: serde::__field(obj, "threads", "RetrievalConfig")?,
            use_sim_cache: serde::__field(obj, "use_sim_cache", "RetrievalConfig")?,
            // Tolerant: configs persisted before the pruning PR lack the
            // field and should keep loading (defaulting to pruning on,
            // which is ranking-neutral).
            prune: match obj.iter().find(|(k, _)| k == "prune") {
                Some((_, v)) => bool::from_value(v)?,
                None => true,
            },
            // Tolerant like `prune`: configs persisted before the deadline
            // PR lack the field and should keep loading as unbounded.
            deadline: match obj.iter().find(|(k, _)| k == "deadline") {
                Some((_, v)) => Option::from_value(v)?,
                None => None,
            },
            // Tolerant like `prune`: configs persisted before the coarse
            // PR lack both fields and should keep loading single-stage.
            coarse: match obj.iter().find(|(k, _)| k == "coarse") {
                Some((_, v)) => CoarseMode::from_value(v)?,
                None => CoarseMode::Off,
            },
            coarse_candidates: match obj.iter().find(|(k, _)| k == "coarse_candidates") {
                Some((_, v)) => usize::from_value(v)?,
                None => 16,
            },
            recorder: RecorderHandle::noop(),
            fault: FaultHandle::noop(),
        })
    }
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig {
            beam_width: 3,
            max_start_candidates: 16,
            per_video_results: 1,
            require_first_event: true,
            annotated_first: true,
            threads: None,
            use_sim_cache: true,
            prune: true,
            deadline: None,
            recorder: RecorderHandle::noop(),
            fault: FaultHandle::noop(),
            coarse: CoarseMode::Off,
            coarse_candidates: 16,
        }
    }
}

impl RetrievalConfig {
    /// Pure content-driven traversal: candidates come from the stochastic
    /// model alone, annotations only seed construction.
    pub fn content_only() -> Self {
        RetrievalConfig {
            annotated_first: false,
            require_first_event: false,
            ..RetrievalConfig::default()
        }
    }

    /// The paper's literal greedy traversal.
    pub fn paper_greedy() -> Self {
        RetrievalConfig {
            beam_width: 1,
            ..RetrievalConfig::default()
        }
    }

    /// Attaches an observability sink (builder-style).
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Sets a deadline budget (builder-style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: DeadlineConfig) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a fault-injection plan (builder-style).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault = FaultHandle::from_plan(plan);
        self
    }

    /// Selects a coarse-to-fine retrieval mode (builder-style). See
    /// [`CoarseMode`] for the exactness contract of each mode.
    #[must_use]
    pub fn with_coarse(mut self, mode: CoarseMode) -> Self {
        self.coarse = mode;
        self
    }
}

/// One retrieved candidate pattern (`Q_k` in §5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedPattern {
    /// The video the sequence lives in.
    pub video: VideoId,
    /// Matched shots, one per query step, in temporal order.
    pub shots: Vec<ShotId>,
    /// The event alternative matched at each step (dense event indices).
    pub events: Vec<usize>,
    /// Eq.-(15) similarity score `SS(R, Q_k)`.
    pub score: f64,
    /// The per-step edge weights `w_j` (their sum is `score`).
    pub weights: Vec<f64>,
}

/// Work counters for the cost experiments (E5).
///
/// A mergeable value type: every traversal worker accumulates its own
/// `RetrievalStats` and the results are combined with [`RetrievalStats::merge`]
/// at join time. All counters are commutative sums, so the merged totals are
/// independent of worker count and scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrievalStats {
    /// Videos whose lattices were traversed.
    pub videos_visited: usize,
    /// Videos skipped by the `B_2` first-event check.
    pub videos_skipped: usize,
    /// Hot-path Eq.-(14) evaluations — scoring lookups answered by
    /// evaluating the similarity directly because no cache was built
    /// (cache disabled, or the annotation-bound regime gate skipped it).
    pub sim_evaluations: u64,
    /// Eq.-(14) evaluations spent building the query-scoped [`SimCache`]
    /// (zero when no cache was built). Kept separate from
    /// [`RetrievalStats::sim_evaluations`] so cache *bypasses* (direct
    /// hot-path work) and cache *build* work are never conflated;
    /// [`RetrievalStats::total_sim_evaluations`] sums both.
    pub cache_build_evaluations: u64,
    /// Hot-path scoring lookups served from the cache. The table is dense
    /// over the query's events, so every cached lookup is a hit; the
    /// cache hit ratio is `cache_lookups / (cache_lookups +
    /// sim_evaluations)`.
    pub cache_lookups: u64,
    /// Lattice transitions examined (`A_1` lookups).
    pub transitions_examined: u64,
    /// Candidate sequences scored (`k − 1` in Step 8).
    pub candidates_scored: usize,
    /// Videos skipped whole because their admissible upper bound fell below
    /// the shared top-k threshold — before any traversal work was spent.
    /// Timing-dependent in parallel runs (see the module docs); zero with
    /// [`RetrievalConfig::prune`] off.
    pub videos_skipped_by_bound: usize,
    /// Beam entries and selected candidates dropped by the threshold cut
    /// (whole-beam abandons plus emission filtering). Timing-dependent in
    /// parallel runs; zero with pruning off.
    pub entries_pruned: u64,
    /// Times an emitted candidate raised the shared k-th-best threshold.
    /// Timing-dependent in parallel runs; zero with pruning off.
    pub threshold_raises: u64,
    /// Eq.-(14) evaluations spent deriving the per-event bound maxima when
    /// no [`SimCache`] was available (the cache derives them for free from
    /// its column maxima). Kept apart from
    /// [`RetrievalStats::sim_evaluations`] so hot-path scoring and bound
    /// derivation are never conflated.
    pub bound_evaluations: u64,
    /// Videos whose traversal panicked (caught per video; the query keeps
    /// running on the survivors). Payloads in
    /// [`RetrievalStats::panic_payloads`].
    pub videos_failed: usize,
    /// Eligible videos never admitted because the deadline expired first.
    pub videos_unvisited: usize,
    /// In-flight beams abandoned whole at deadline expiry (partial paths
    /// cannot be emitted, so a mid-traversal expiry discards the video's
    /// beam rather than returning unfinished candidates).
    pub beams_abandoned: u64,
    /// Whether the [`RetrievalConfig::deadline`] budget elapsed during
    /// this query.
    pub deadline_expired: bool,
    /// Panic payloads of failed videos, rendered to strings and sorted
    /// (so parallel runs report deterministically regardless of which
    /// worker hit which failure first).
    pub panic_payloads: Vec<String>,
    /// `Some` when this query returned less than a full ranking —
    /// deadline expiry, worker panics, or both. `None` means the ranking
    /// is the complete (exact) answer.
    pub degraded: Option<Degraded>,
    /// Candidate videos the coarse stage admitted to the fine stage
    /// (zero with [`CoarseMode::Off`], where candidates come from the
    /// per-video `B_2` row scan instead).
    pub coarse_candidates: usize,
    /// Candidates dropped by the [`CoarseMode::Approx`] top-`C` cut
    /// (always zero in `Off`/`Exact`).
    pub coarse_cut: usize,
    /// Candidates skipped because their coarse upper bound was exactly
    /// zero — a zero bound proves no start entry can be admitted (`w > 0`
    /// is required), so the skip is exact even with pruning off.
    pub coarse_skipped_zero_ub: usize,
    /// Precomputed-summary table reads the coarse stage spent deriving
    /// per-video bounds — the quantity that replaces the archive-wide
    /// Eq.-14 scan charged to [`RetrievalStats::bound_evaluations`].
    pub coarse_bound_lookups: u64,
}

/// Degradation summary attached to a partial ranking (see
/// [`RetrievalStats::degraded`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Degraded {
    /// Eligible videos never admitted (deadline).
    pub videos_unvisited: usize,
    /// Videos whose traversal panicked.
    pub videos_failed: usize,
    /// What degraded the query.
    pub reason: DegradedReason,
}

/// Why a ranking is partial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradedReason {
    /// The [`RetrievalConfig::deadline`] budget elapsed.
    DeadlineExpired,
    /// One or more per-video traversals panicked.
    WorkerPanic,
    /// Both: the deadline expired *and* traversals panicked.
    DeadlineAndPanic,
}

impl DegradedReason {
    /// The canonical human-readable reason string. Every consumer that
    /// renders a degradation reason — the CLI's `DEGRADED` banner, the
    /// `hmmm-serve` response summaries, test assertions — goes through
    /// this one mapping so the strings can never drift between surfaces.
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradedReason::DeadlineExpired => "deadline expired",
            DegradedReason::WorkerPanic => "worker panic",
            DegradedReason::DeadlineAndPanic => "deadline expired + worker panic",
        }
    }
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl RetrievalStats {
    /// Folds another worker's counters into this one (commutative).
    pub fn merge(&mut self, other: RetrievalStats) {
        self.videos_visited += other.videos_visited;
        self.videos_skipped += other.videos_skipped;
        self.sim_evaluations += other.sim_evaluations;
        self.cache_build_evaluations += other.cache_build_evaluations;
        self.cache_lookups += other.cache_lookups;
        self.transitions_examined += other.transitions_examined;
        self.candidates_scored += other.candidates_scored;
        self.videos_skipped_by_bound += other.videos_skipped_by_bound;
        self.entries_pruned += other.entries_pruned;
        self.threshold_raises += other.threshold_raises;
        self.bound_evaluations += other.bound_evaluations;
        self.videos_failed += other.videos_failed;
        self.videos_unvisited += other.videos_unvisited;
        self.beams_abandoned += other.beams_abandoned;
        self.deadline_expired |= other.deadline_expired;
        self.coarse_candidates += other.coarse_candidates;
        self.coarse_cut += other.coarse_cut;
        self.coarse_skipped_zero_ub += other.coarse_skipped_zero_ub;
        self.coarse_bound_lookups += other.coarse_bound_lookups;
        self.panic_payloads.extend(other.panic_payloads);
        // `degraded` is assembled centrally at the end of the retrieve
        // call (after the sorted-payload pass), never merged piecewise.
    }

    /// Total Eq.-(14) evaluations this query paid for, wherever they were
    /// spent: direct hot-path scoring plus the dense cache build. This is
    /// the cost-model quantity the E5 experiments track.
    pub fn total_sim_evaluations(&self) -> u64 {
        self.sim_evaluations + self.cache_build_evaluations
    }

    /// Cache hit ratio over hot-path scoring lookups, `None` when no
    /// lookups happened.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let total = self.cache_lookups + self.sim_evaluations;
        (total > 0).then(|| self.cache_lookups as f64 / total as f64)
    }
}

/// How traversal scores a shot against a step's event alternatives: through
/// the query-scoped [`SimCache`] (an array read) or by evaluating Eq. (14)
/// directly. Both use the same earliest-alternative tie-break, so rankings
/// are identical either way — only the cost differs.
enum Scorer<'q> {
    Cached(&'q SimCache),
    Direct(&'q Hmmm),
}

impl Scorer<'_> {
    fn best_alternative(&self, shot: usize, events: &[usize]) -> Option<(usize, f64)> {
        match self {
            Scorer::Cached(cache) => cache.best_alternative(shot, events),
            Scorer::Direct(model) => best_alternative(model, shot, events),
        }
    }

    /// Charges one hot-path scoring lookup to the right counter: a cache
    /// read counts as a hit ([`RetrievalStats::cache_lookups`]), a direct
    /// call as an Eq.-(14) evaluation
    /// ([`RetrievalStats::sim_evaluations`]). The dense build is charged
    /// separately, once, in `retrieve_within`.
    fn charge(&self, stats: &mut RetrievalStats) {
        match self {
            Scorer::Cached(_) => stats.cache_lookups += 1,
            Scorer::Direct(_) => stats.sim_evaluations += 1,
        }
    }

    /// [`Scorer::charge`] for a whole block of shots at once — same totals,
    /// one branch instead of one per shot.
    fn charge_block(&self, stats: &mut RetrievalStats, n: u64) {
        match self {
            Scorer::Cached(_) => stats.cache_lookups += n,
            Scorer::Direct(_) => stats.sim_evaluations += n,
        }
    }

    /// Blocked [`Scorer::best_alternative`]: fills `best_score[i]` /
    /// `best_event[i]` with the winning `(score, event)` of shot
    /// `shots.start + i` over `events`. Event-outer sweeps over contiguous
    /// score rows (the cache's slot-major rows, or the blocked Eq.-14 kernel
    /// through `block` for the direct scorer) replace the per-shot dispatch.
    ///
    /// Tie-break parity with the scalar path: the first event claims every
    /// shot unconditionally; later events take over only on a strictly
    /// greater score — exactly the earliest-alternative rule. An event with
    /// no cached row scores `0.0` everywhere, so past the first event it can
    /// never win strictly and is skipped whole.
    fn best_alternative_block(
        &self,
        shots: std::ops::Range<usize>,
        events: &[usize],
        block: &mut Vec<f64>,
        best_score: &mut Vec<f64>,
        best_event: &mut Vec<u32>,
    ) {
        debug_assert!(!events.is_empty(), "alternatives checked non-empty");
        let n = shots.len();
        best_score.clear();
        best_score.resize(n, 0.0);
        best_event.clear();
        best_event.resize(n, 0);
        for (k, &e) in events.iter().enumerate() {
            let row: Option<&[f64]> = match self {
                Scorer::Cached(cache) => cache.calibrated_range(shots.clone(), e),
                Scorer::Direct(model) => {
                    Some(crate::sim::calibrated_block(model, shots.clone(), e, block))
                }
            };
            match row {
                Some(row) if k == 0 => {
                    best_score.copy_from_slice(row);
                    best_event.fill(e as u32);
                }
                Some(row) => {
                    for ((bs, be), &s) in
                        best_score.iter_mut().zip(best_event.iter_mut()).zip(row)
                    {
                        if s > *bs {
                            *bs = s;
                            *be = e as u32;
                        }
                    }
                }
                None if k == 0 => {
                    // Scores stay the pre-zeroed 0.0, matching the scalar
                    // path's zero score for out-of-query events.
                    best_event.fill(e as u32);
                }
                None => {}
            }
        }
    }
}

/// Reusable per-worker traversal buffers: the beam arena, the beam/pending
/// node lists, the start-candidate list, and the blocked-scoring scratch
/// rows. One instance lives per [`Retriever::run_video_set`] call (one per
/// worker on the parallel path) and is recycled across that worker's videos,
/// so the per-video traversal allocates nothing once the buffers have grown
/// to the worker's largest video — the hmmm-lint `no-alloc-in-traversal`
/// rule keeps it that way.
///
/// Contents are garbage between videos by design: every user clears before
/// use ([`Retriever::traverse_video`] clears defensively at entry, which
/// also makes a panic-torn scratch harmless — see the unwind-safety audit in
/// `run_video_set`).
#[derive(Default)]
struct TraversalScratch {
    /// Settled lattice nodes (trim survivors only), reset per video.
    arena: Vec<BeamNode>,
    /// Arena indices of the current step's surviving beam.
    beam: Vec<u32>,
    /// Children of the current expansion, pre-trim.
    pending: Vec<BeamNode>,
    /// Start candidates `(local shot, event, sim)` of step 0.
    starts: Vec<(usize, usize, f64)>,
    /// Blocked Eq.-14 kernel output row (direct scorer only).
    block: Vec<f64>,
    /// Per-shot winning score of the blocked start scan.
    best_score: Vec<f64>,
    /// Per-shot winning event of the blocked start scan.
    best_event: Vec<u32>,
}

/// A reusable traversal arena for callers that serve many queries from one
/// thread — the in-process `QueryServer` worker pool (`hmmm-serve`) above
/// all. Wraps the per-worker `TraversalScratch` (beam arenas, blocked
/// Eq.-14 scoring rows, start-candidate buffers) so the buffers grow to the
/// largest video once and are then recycled across *queries*, not just
/// across one query's videos. Pass it to
/// [`Retriever::retrieve_with_scratch`]; contents between calls are
/// garbage by design (every traversal clears before use), so a scratch can
/// be reused freely after errors or degraded runs.
///
/// Only the serial path (effective `threads <= 1`) draws from an external
/// scratch: a parallel fan-out gives each scoped worker its own arenas,
/// which cannot outlive the call.
#[derive(Default)]
pub struct QueryScratch {
    inner: TraversalScratch,
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// Where the admissible per-step similarity maxima come from (see the
/// module docs on bound tightness).
enum PruneBounds {
    /// Query cache up: per-video maxima and the exact start-weight bound
    /// are read from the table as each candidate video is reached.
    PerVideo,
    /// No cache: one archive-wide [`QueryBounds`] shared by every video
    /// (paid for with [`RetrievalStats::bound_evaluations`] up front).
    Archive(QueryBounds),
    /// Coarse stage up, no cache: per-video bounds were already derived
    /// from the ingest-time [`crate::coarse::CoarseIndex`] summaries
    /// (table lookups, no archive scan — `bound_evaluations` stays zero),
    /// indexed by video index (`None` = not admitted by the coarse stage).
    Coarse(Vec<Option<VideoBounds>>),
}

/// Output of the coarse stage: the candidate videos in coarse-bound order
/// (the fine stage's visit order) plus their admissible per-video bounds,
/// indexed by video index for the pruned traversal to look up.
struct CoarseStage {
    order: Vec<VideoId>,
    bounds: Vec<Option<VideoBounds>>,
}

/// Pruning auto-disables above this `limit`: the [`SharedTopK`] register
/// scales with `limit`, and a threshold that deep could never pay.
const PRUNE_LIMIT_CAP: usize = 65_536;

/// Sentinel parent index for first-step lattice nodes.
const NO_PARENT: u32 = u32::MAX;

/// One lattice node in the arena-backed beam.
///
/// The seed's `BeamEntry` cloned three `Vec`s (path, events, weights) per
/// child expansion — O(path-len) heap traffic on the hottest loop. A node
/// instead records only its own step (shot, event, edge weight `w_j`,
/// running Eq.-15 sum) plus a parent *index* into the per-video arena; full
/// paths are materialized by walking parent chains, and only for the
/// handful of entries that survive to emission. Trim survivors are the only
/// nodes ever pushed into the arena, so its length is bounded by
/// `beam_width × steps`, not by the expansion fan-out.
#[derive(Debug, Clone, Copy)]
struct BeamNode {
    /// Arena index of the previous step's node (`NO_PARENT` at step 0).
    parent: u32,
    /// Local shot index of this step.
    local: u32,
    /// Matched event alternative at this step.
    event: u32,
    /// This step's edge weight `w_j` (Eqs. 12–13).
    weight: f64,
    /// Running sum `Σ w_i` up to this step (the eventual Eq.-15 score).
    score: f64,
}

/// Root-first lexicographic order of two equal-depth parent chains — equal
/// to `Vec::cmp` on the materialized paths, without materializing them.
/// Shared parents short-circuit at the index compare, so the common case
/// (siblings) costs one integer compare per shared prefix step at most.
fn cmp_chain(arena: &[BeamNode], a: u32, b: u32) -> Ordering {
    if a == b {
        return Ordering::Equal; // same node, or both NO_PARENT roots
    }
    // Depths are equal by construction (same lattice step), so neither
    // side can run out of chain before the other.
    let (na, nb) = (&arena[a as usize], &arena[b as usize]);
    match cmp_chain(arena, na.parent, nb.parent) {
        Ordering::Equal => na.local.cmp(&nb.local),
        other => other,
    }
}

/// Path order of two pending children (own shot breaks parent-chain ties).
fn cmp_paths(arena: &[BeamNode], a: &BeamNode, b: &BeamNode) -> Ordering {
    match cmp_chain(arena, a.parent, b.parent) {
        Ordering::Equal => a.local.cmp(&b.local),
        other => other,
    }
}

/// The retrieval engine: an [`Hmmm`] plus its catalog.
pub struct Retriever<'a> {
    model: &'a Hmmm,
    catalog: &'a Catalog,
    config: RetrievalConfig,
}

impl<'a> Retriever<'a> {
    /// Validates model/catalog consistency ([`Hmmm::validate_against`]),
    /// then builds the retriever from the proof
    /// ([`Retriever::from_validated`]). This pays for the full check on
    /// every call; code that answers many queries against one model
    /// should validate once and keep the proof, as the server's workers do.
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] if the model was not built from (an
    /// equal-shape) catalog, or a derived cache is stale.
    pub fn new(
        model: &'a Hmmm,
        catalog: &'a Catalog,
        config: RetrievalConfig,
    ) -> Result<Self, CoreError> {
        let proof = model.validate_against(catalog)?;
        Ok(Self::from_validated(proof, config))
    }

    /// Builds a retriever from a [`Validated`] proof, with no further
    /// checking. The proof borrows the model and catalog, so they cannot
    /// have changed since [`Hmmm::validate_against`] checked them; this
    /// costs a config move, nothing more.
    pub fn from_validated(proof: Validated<'a>, config: RetrievalConfig) -> Self {
        Retriever {
            model: proof.model(),
            catalog: proof.catalog(),
            config,
        }
    }

    /// Runs the nine-step retrieval for `pattern`, returning the top
    /// `limit` candidates (Step 9) and the work counters.
    ///
    /// # Examples
    ///
    /// Querying `free_kick -> goal` over the §4.2.1.1 three-shot video: the
    /// Eqs.-12/13 lattice walk must find the `shot 0 → shot 1` path (the
    /// free kick that leads to the annotated goal), scored by Eq. 15:
    ///
    /// ```
    /// use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
    /// use hmmm_features::{FeatureId, FeatureVector};
    /// use hmmm_media::EventKind;
    /// use hmmm_query::QueryTranslator;
    /// use hmmm_storage::Catalog;
    ///
    /// # fn feat(grass: f64, volume: f64) -> FeatureVector {
    /// #     let mut f = FeatureVector::zeros();
    /// #     f[FeatureId::GrassRatio] = grass;
    /// #     f[FeatureId::VolumeMean] = volume;
    /// #     f
    /// # }
    /// let mut catalog = Catalog::new();
    /// catalog.add_video("v1", vec![
    ///     (vec![EventKind::FreeKick], feat(0.3, 0.2)),
    ///     (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8, 0.9)),
    ///     (vec![EventKind::CornerKick], feat(0.5, 0.4)),
    /// ]);
    /// let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    ///
    /// let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    /// let pattern = translator.compile("free_kick -> goal").unwrap();
    ///
    /// let retriever = Retriever::new(&model, &catalog, RetrievalConfig::default()).unwrap();
    /// let (results, stats) = retriever.retrieve(&pattern, 5).unwrap();
    ///
    /// assert!(!results.is_empty());
    /// let best = &results[0];
    /// assert_eq!(best.shots.len(), 2);                     // one shot per step
    /// assert!(best.score > 0.0);                           // SS = Σ w_j (Eq. 15)
    /// assert!(stats.total_sim_evaluations() > 0);          // Eq.-14 work was counted
    /// ```
    ///
    /// # Errors
    ///
    /// [`CoreError::BadQuery`] for an empty pattern or out-of-range event
    /// indices.
    pub fn retrieve(
        &self,
        pattern: &CompiledPattern,
        limit: usize,
    ) -> Result<(Vec<RankedPattern>, RetrievalStats), CoreError> {
        self.retrieve_within(pattern, limit, None)
    }

    /// Like [`Retriever::retrieve`], but restricted to a subset of videos —
    /// the hook for level-3 category pre-filtering
    /// ([`crate::cluster::CategoryLevel::eligible_videos`]). `None` searches
    /// the whole archive.
    ///
    /// # Errors
    ///
    /// Same as [`Retriever::retrieve`].
    pub fn retrieve_within(
        &self,
        pattern: &CompiledPattern,
        limit: usize,
        videos: Option<&[VideoId]>,
    ) -> Result<(Vec<RankedPattern>, RetrievalStats), CoreError> {
        self.retrieve_scratched(pattern, limit, videos, None)
    }

    /// [`Retriever::retrieve`] drawing its traversal buffers from a
    /// caller-owned [`QueryScratch`] instead of allocating fresh arenas:
    /// the long-lived-server hot path, where one worker thread answers a
    /// stream of queries serially (`threads = 1`) and the beam/scoring
    /// buffers should be paid for once, not once per query. Rankings and
    /// stats are byte-identical to [`Retriever::retrieve`].
    ///
    /// # Errors
    ///
    /// Same as [`Retriever::retrieve`].
    pub fn retrieve_with_scratch(
        &self,
        pattern: &CompiledPattern,
        limit: usize,
        scratch: &mut QueryScratch,
    ) -> Result<(Vec<RankedPattern>, RetrievalStats), CoreError> {
        self.retrieve_scratched(pattern, limit, None, Some(&mut scratch.inner))
    }

    /// The shared body of every retrieve entry point; `scratch` is the
    /// optional caller-owned arena (serial path only — parallel workers
    /// own per-thread arenas scoped to the call).
    fn retrieve_scratched(
        &self,
        pattern: &CompiledPattern,
        limit: usize,
        videos: Option<&[VideoId]>,
        scratch: Option<&mut TraversalScratch>,
    ) -> Result<(Vec<RankedPattern>, RetrievalStats), CoreError> {
        if pattern.is_empty() {
            return Err(CoreError::BadQuery("empty pattern".into()));
        }
        for step in &pattern.steps {
            if step.alternatives.is_empty() {
                return Err(CoreError::BadQuery("step with no alternatives".into()));
            }
            if let Some(&bad) = step
                .alternatives
                .iter()
                .find(|&&e| e >= EventKind::COUNT)
            {
                return Err(CoreError::BadQuery(format!(
                    "event index {bad} out of range"
                )));
            }
        }

        let obs = &self.config.recorder;
        let root_span = obs.span(m::SPAN_RETRIEVE);
        let mut stats = RetrievalStats::default();
        let requested_threads = self.requested_threads();

        // Anytime-retrieval budget: the clock starts here, so the cache
        // build and bound derivation below draw from the same budget as
        // the traversal. (No clock read at all when no deadline is set.)
        let deadline = self.config.deadline.map(|d| (d, Instant::now()));

        // Tentpole layer 1: one dense shots × query-events scoring pass,
        // shared read-only by every traversal worker. The build itself
        // shards the shot dimension across the same worker budget.
        //
        // The build pays for itself only when traversal is similarity-bound:
        // content-driven candidate selection scores every reachable shot
        // through Eq. (14), so the dense pass trades ~1 evaluation per cell
        // for many 2-pass direct calls. Annotation-first traversal is
        // annotation-bound — it scores so few shots that the build would
        // dominate the whole query — so the cache is skipped there.
        let similarity_bound = !self.config.annotated_first;
        let cache = (self.config.use_sim_cache && similarity_bound).then(|| {
            let _build_span = obs.span(m::SPAN_SIM_CACHE_BUILD);
            SimCache::build_with_threads(self.model, pattern, requested_threads)
        });
        let scorer = match &cache {
            Some(c) => {
                stats.cache_build_evaluations += c.build_evaluations();
                Scorer::Cached(c)
            }
            None => Scorer::Direct(self.model),
        };

        // Coarse stage (this PR's tentpole, `CoarseMode::Exact`/`Approx`):
        // candidate videos from the ingest-time inverted `B_2` postings,
        // each carrying an admissible upper bound derived from the
        // precomputed summaries — table lookups, not shot scans. Runs
        // before the prune context so the bounds can replace the
        // archive-wide scan on the cold (cache-off) path.
        let coarse_stage = (self.config.coarse != CoarseMode::Off).then(|| {
            let _coarse_span = obs.span(m::SPAN_COARSE);
            self.coarse_stage(pattern, videos, &mut stats)
        });

        // Tentpole layer 3: the exact top-k threshold cut. One shared
        // register holds the running k-th best score; admissible completion
        // bounds feed the three exact prune sites (see the module docs).
        // With the cache up the bounds are derived per video at traversal
        // time (tighter, free table reads); with the coarse stage up they
        // were already derived from the index summaries above; otherwise
        // one archive scan per unique event builds a shared set here,
        // charged to `bound_evaluations`.
        let prune_ctx = (self.config.prune && limit <= PRUNE_LIMIT_CAP).then(|| {
            let bounds = match (&scorer, &coarse_stage) {
                (Scorer::Cached(_), _) => PruneBounds::PerVideo,
                (Scorer::Direct(_), Some(stage)) => PruneBounds::Coarse(stage.bounds.clone()),
                (Scorer::Direct(model), None) => {
                    let mut memo: [Option<f64>; EventKind::COUNT] = [None; EventKind::COUNT];
                    let mut step_max = Vec::with_capacity(pattern.steps.len());
                    for step in &pattern.steps {
                        let mut best = 0.0f64;
                        for &e in &step.alternatives {
                            let me = match memo[e] {
                                Some(v) => v,
                                None => {
                                    stats.bound_evaluations += model.shot_count() as u64;
                                    let v = max_calibrated_similarity(model, e);
                                    memo[e] = Some(v);
                                    v
                                }
                            };
                            best = best.max(me);
                        }
                        step_max.push(best);
                    }
                    PruneBounds::Archive(QueryBounds::new(step_max))
                }
            };
            (SharedTopK::new(limit), bounds)
        });

        let order = match coarse_stage {
            // Coarse on: candidates already enumerated (postings union) and
            // ordered (bound desc). Visit order only affects counters — the
            // final ranking is re-sorted under a total order below.
            Some(stage) => stage.order,
            None => {
                let _order_span = obs.span(m::SPAN_VIDEO_ORDER);
                self.video_order(pattern, videos, &mut stats)
            }
        };
        let threads = requested_threads.min(order.len().max(1));

        // Tentpole layer 2: fan the per-video traversals across a scoped
        // worker pool. Each video's traversal depends only on (model,
        // catalog, pattern, config, video), each worker owns its results
        // and stats, and the merge below is a commutative fold + total-order
        // sort — so the ranking is byte-identical to the serial path.
        //
        // Observability stays off the per-transition hot path: workers batch
        // counts in their local `RetrievalStats` and everything is flushed to
        // the recorder once, below. Only the per-worker/per-video spans (and
        // the busy-time sum feeding the utilization gauge) touch the clock,
        // and only when a recorder is attached.
        let mut candidates: Vec<RankedPattern> = Vec::new();
        let traverse_span = obs.span(m::SPAN_TRAVERSE);
        let mut workers_busy_ns: u64 = 0;
        if threads <= 1 {
            // Serial path: draw from the caller's reusable arena when one
            // was provided (the serving hot path), else a call-local one.
            let mut local_scratch;
            let scratch = match scratch {
                Some(s) => s,
                None => {
                    local_scratch = TraversalScratch::default();
                    &mut local_scratch
                }
            };
            candidates = self.run_video_set(
                &order, pattern, &scorer, &prune_ctx, deadline, scratch, &mut stats,
            );
        } else {
            let chunk = order.len().div_ceil(threads);
            crossbeam::thread::scope(|s| {
                let scorer = &scorer;
                let prune_ctx = &prune_ctx;
                let handles: Vec<_> = order
                    .chunks(chunk)
                    .enumerate()
                    .map(|(w, videos)| {
                        s.spawn(move || {
                            let worker_span =
                                self.config.recorder.span_labeled(m::SPAN_WORKER, w as u64);
                            let mut local = RetrievalStats::default();
                            // One scratch per scoped worker: recycled
                            // across this worker's videos, dropped at join
                            // (a caller-owned arena cannot be shared
                            // across workers).
                            let mut scratch = TraversalScratch::default();
                            let found = self.run_video_set(
                                videos, pattern, scorer, prune_ctx, deadline, &mut scratch,
                                &mut local,
                            );
                            let busy_ns = worker_span.elapsed_ns();
                            (found, local, busy_ns)
                        })
                    })
                    .collect();
                for handle in handles {
                    // Worker-level panics can no longer originate in a
                    // traversal (those are caught per video inside
                    // `run_video_set`); anything reaching here is a bug in
                    // the harness itself and should propagate.
                    let (found, local, busy_ns) =
                        handle.join().expect("retrieval worker panicked");
                    candidates.extend(found);
                    stats.merge(local);
                    workers_busy_ns += busy_ns;
                }
            });
        }
        let traverse_wall_ns = traverse_span.elapsed_ns();
        drop(traverse_span);

        stats.candidates_scored = candidates.len();
        {
            let _rank_span = obs.span(m::SPAN_RANK);
            candidates.sort_by(rank_order);
            candidates.truncate(limit);
        }

        // Degradation summary: payloads sorted so parallel runs report
        // deterministically, then one canonical `Degraded` for callers to
        // branch on (None = the ranking is the complete exact answer).
        stats.panic_payloads.sort();
        stats.degraded = match (stats.deadline_expired, stats.videos_failed > 0) {
            (false, false) => None,
            (true, false) => Some(Degraded {
                videos_unvisited: stats.videos_unvisited,
                videos_failed: 0,
                reason: DegradedReason::DeadlineExpired,
            }),
            (false, true) => Some(Degraded {
                videos_unvisited: 0,
                videos_failed: stats.videos_failed,
                reason: DegradedReason::WorkerPanic,
            }),
            (true, true) => Some(Degraded {
                videos_unvisited: stats.videos_unvisited,
                videos_failed: stats.videos_failed,
                reason: DegradedReason::DeadlineAndPanic,
            }),
        };

        if obs.is_enabled() {
            self.flush_metrics(
                &stats,
                candidates.len(),
                cache.is_some(),
                similarity_bound,
                threads,
                traverse_wall_ns,
                workers_busy_ns,
                prune_ctx.as_ref().map(|(register, _)| register.threshold()),
            );
            obs.observe_ns(m::HIST_RETRIEVE_LATENCY, root_span.elapsed_ns());
        }
        Ok((candidates, stats))
    }

    /// One worker's share of the fan-out: the per-video loop with its
    /// deadline checkpoints, the panic-isolation boundary, and the
    /// post-traversal threshold offers. Shared verbatim by the serial path
    /// and every parallel worker, so serial and parallel runs degrade (and
    /// stay byte-identical when nothing fires) the same way.
    #[allow(clippy::too_many_arguments)]
    fn run_video_set(
        &self,
        videos: &[VideoId],
        pattern: &CompiledPattern,
        scorer: &Scorer<'_>,
        prune_ctx: &Option<(SharedTopK, PruneBounds)>,
        deadline: Option<(DeadlineConfig, Instant)>,
        // One scratch per worker, recycled across its videos (and, through
        // [`QueryScratch`], across a serving worker's queries): beam arenas
        // and blocked-scoring rows grow to the largest video once and are
        // then reused, so the traversal hot path stops allocating.
        scratch: &mut TraversalScratch,
        stats: &mut RetrievalStats,
    ) -> Vec<RankedPattern> {
        let mut clock = deadline.map(|(config, started)| DeadlineClock::new(config, started));
        let mut results = Vec::new();
        for (i, &video) in videos.iter().enumerate() {
            // Deadline checkpoint (video granularity): once the budget has
            // elapsed, stop admitting new videos — everything not yet
            // admitted in this worker's share is reported unvisited.
            if let Some(c) = clock.as_mut() {
                if c.check_now() {
                    stats.deadline_expired = true;
                    stats.videos_unvisited += videos.len() - i;
                    break;
                }
            }

            // Panic isolation: one video's traversal cannot take down the
            // query. `AssertUnwindSafe` audit of what crosses the boundary:
            //
            // * `self` (model + catalog + config) — shared immutably; the
            //   traversal never mutates them, so no broken invariant can be
            //   observed after an unwind.
            // * `scorer` — read-only table/model reads.
            // * `prune_ctx`'s `SharedTopK` — lock-free; every update is a
            //   single CAS that installs a complete value, so a panicking
            //   thread can never leave it mid-update. Threshold offers for
            //   this video happen *below, after* the boundary: a panic
            //   mid-traversal therefore cannot have raised the threshold
            //   with a score whose candidate was then lost — every raise
            //   corresponds to a candidate that safely escaped, keeping the
            //   bound admissible for all surviving videos (acceptance
            //   criterion: the degraded ranking is exact over survivors).
            // * `clock` (`&mut`) — plain scalar fields; a partial tick is
            //   at worst a deferred clock read, never an inconsistency.
            // * `scratch` (`&mut`) — the reusable traversal buffers. An
            //   unwind can leave them holding a half-built beam, but their
            //   contents are garbage *between videos by design*: every
            //   consumer clears them at traversal entry, so the next video
            //   observes no state from the failed one.
            // * `attempt` stats — created inside the closure and discarded
            //   on unwind, so a failed video contributes no torn counters.
            // * the recorder — its sinks are `Sync` and poison-safe at this
            //   boundary: the per-video span guard dropped during unwind
            //   records through a short, panic-free critical section.
            let clock_ref = clock.as_mut();
            let scratch_ref = &mut *scratch;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.config.fault.on_video_enter(video.index());
                let mut attempt = RetrievalStats::default();
                let found = self.traverse_video_bounded(
                    video, pattern, scorer, prune_ctx, clock_ref, scratch_ref, &mut attempt,
                );
                (found, attempt)
            }));
            match outcome {
                Ok((found, attempt)) => {
                    stats.merge(attempt);
                    // Exact prune site 3, offer half (the emission filter
                    // runs inside `traverse_video`): every emitted score is
                    // offered so later videos prune against the best
                    // results found anywhere. Sits after the catch_unwind
                    // boundary — see the audit above.
                    if let Some((register, _)) = prune_ctx {
                        for c in &found {
                            if register.offer(c.score) {
                                stats.threshold_raises += 1;
                            }
                        }
                    }
                    results.extend(found);
                }
                Err(payload) => {
                    stats.videos_failed += 1;
                    stats
                        .panic_payloads
                        .push(panic_message(video, payload.as_ref()));
                }
            }
        }
        results
    }

    /// Flushes one query's batched counters and gauges to the recorder.
    /// Called once per retrieve, and only when a recorder is attached — the
    /// hot loops never touch the handle directly.
    #[allow(clippy::too_many_arguments)]
    fn flush_metrics(
        &self,
        stats: &RetrievalStats,
        results_returned: usize,
        cache_built: bool,
        similarity_bound: bool,
        threads: usize,
        traverse_wall_ns: u64,
        workers_busy_ns: u64,
        prune_threshold: Option<f64>,
    ) {
        let obs = &self.config.recorder;
        obs.counter(m::CTR_QUERIES, 1);
        obs.counter(m::CTR_VIDEOS_VISITED, stats.videos_visited as u64);
        obs.counter(m::CTR_VIDEOS_SKIPPED, stats.videos_skipped as u64);
        obs.counter(m::CTR_TRANSITIONS, stats.transitions_examined);
        obs.counter(m::CTR_CANDIDATES, stats.candidates_scored as u64);
        obs.counter(m::CTR_RESULTS, results_returned as u64);
        obs.counter(m::CTR_SIM_DIRECT_EVALS, stats.sim_evaluations);
        obs.counter(m::CTR_CACHE_BUILD_EVALS, stats.cache_build_evaluations);
        obs.counter(m::CTR_CACHE_LOOKUPS, stats.cache_lookups);
        obs.counter(
            m::CTR_VIDEOS_SKIPPED_BY_BOUND,
            stats.videos_skipped_by_bound as u64,
        );
        obs.counter(m::CTR_ENTRIES_PRUNED, stats.entries_pruned);
        obs.counter(m::CTR_THRESHOLD_RAISES, stats.threshold_raises);
        obs.counter(m::CTR_BOUND_EVALS, stats.bound_evaluations);
        obs.counter(m::CTR_VIDEOS_FAILED, stats.videos_failed as u64);
        obs.counter(m::CTR_VIDEOS_UNVISITED, stats.videos_unvisited as u64);
        obs.counter(m::CTR_BEAMS_ABANDONED, stats.beams_abandoned);
        if self.config.coarse != CoarseMode::Off {
            obs.counter(m::CTR_COARSE_CANDIDATES, stats.coarse_candidates as u64);
            obs.counter(m::CTR_COARSE_CUT, stats.coarse_cut as u64);
            obs.counter(m::CTR_COARSE_ZERO_UB, stats.coarse_skipped_zero_ub as u64);
            obs.counter(m::CTR_COARSE_LOOKUPS, stats.coarse_bound_lookups);
        }
        if stats.deadline_expired {
            obs.counter(m::CTR_DEADLINE_EXPIRED, 1);
        }
        if let Some(threshold) = prune_threshold {
            obs.gauge(m::GAUGE_PRUNE_THRESHOLD, threshold);
        }
        if cache_built {
            obs.counter(m::CTR_CACHE_BUILDS, 1);
        } else if similarity_bound {
            obs.counter(m::CTR_CACHE_BYPASSED_QUERIES, 1);
        } else {
            obs.counter(m::CTR_CACHE_REGIME_SKIPPED_QUERIES, 1);
        }
        obs.gauge(m::GAUGE_THREADS, threads as f64);
        let utilization = if threads <= 1 {
            1.0
        } else if traverse_wall_ns == 0 {
            0.0
        } else {
            workers_busy_ns as f64 / (traverse_wall_ns as f64 * threads as f64)
        };
        obs.gauge(m::GAUGE_THREAD_UTILIZATION, utilization);
    }

    /// The configured worker budget (`None` = all available cores).
    fn requested_threads(&self) -> usize {
        match self.config.threads {
            Some(t) => t.max(1),
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Step 2 / Step 7: eligible videos in `Π_2` affinity order.
    ///
    /// The seed implementation realised "Π_2 then A_2 affinity" as a greedy
    /// chain — start at the `Π_2`-preferred video, then repeatedly hop to
    /// the unvisited video with the highest `A_2` affinity from the current
    /// one — which is O(V²) and was the dominant cost on large archives.
    /// Since every eligible video is traversed and the final ranking is
    /// re-sorted under a total order, visit order only affects scheduling,
    /// not results; a direct sort by (`Π_2` desc, index asc) preserves the
    /// paper's "most-affine first" intent at O(V log V).
    fn video_order(
        &self,
        pattern: &CompiledPattern,
        subset: Option<&[VideoId]>,
        stats: &mut RetrievalStats,
    ) -> Vec<VideoId> {
        let first_alts = &pattern.steps[0].alternatives;
        let candidates: Vec<usize> = match subset {
            Some(videos) => videos
                .iter()
                .map(|v| v.index())
                .filter(|&v| v < self.model.video_count())
                .collect(),
            None => (0..self.model.video_count()).collect(),
        };
        let eligible: Vec<usize> = candidates
            .into_iter()
            .filter(|&v| {
                if !self.config.require_first_event {
                    return true;
                }
                let has = first_alts.iter().any(|&e| self.model.b2[v][e] > 0);
                if !has {
                    stats.videos_skipped += 1;
                }
                has
            })
            .collect();

        let mut order = eligible;
        order.sort_by(|&a, &b| {
            crate::order::cmp_f64_desc(self.model.pi2.get(a), self.model.pi2.get(b))
                .then_with(|| a.cmp(&b))
        });
        order.into_iter().map(VideoId).collect()
    }

    /// The coarse stage ([`CoarseMode::Exact`]/[`CoarseMode::Approx`]):
    /// Step-2 candidate enumeration from the inverted `B_2` postings and
    /// admissible per-video bounds from the ingest-time summaries — table
    /// lookups only, no `B_2` row scan, no archive-wide Eq.-14 scan.
    ///
    /// Exactness bookkeeping vs the single-stage path:
    ///
    /// * Candidate set: the postings union over the first step's
    ///   alternatives is *definitionally* the set passing the `B_2`
    ///   first-event check, so `videos_skipped` is charged the identical
    ///   count. An explicit `subset` keeps the per-video row check (the
    ///   postings index the whole archive, not arbitrary subsets).
    /// * Zero-bound skip: a coarse upper bound of exactly zero proves
    ///   `Π_1(s) · sim(s, e) = 0` for every shot and first-step
    ///   alternative, and start admission requires `w > 0` — the video
    ///   cannot emit a candidate, so skipping it is exact even with
    ///   pruning off.
    /// * Order (bound desc, index asc — a total order) only affects
    ///   scheduling and timing-dependent counters, never the ranking.
    fn coarse_stage(
        &self,
        pattern: &CompiledPattern,
        subset: Option<&[VideoId]>,
        stats: &mut RetrievalStats,
    ) -> CoarseStage {
        let coarse = &self.model.coarse;
        let video_count = self.model.video_count();
        let first_alts = &pattern.steps[0].alternatives;
        let candidates: Vec<usize> = match subset {
            Some(videos) => videos
                .iter()
                .map(|v| v.index())
                .filter(|&v| v < video_count)
                .filter(|&v| {
                    if !self.config.require_first_event {
                        return true;
                    }
                    let has = first_alts.iter().any(|&e| self.model.b2[v][e] > 0);
                    if !has {
                        stats.videos_skipped += 1;
                    }
                    has
                })
                .collect(),
            None if self.config.require_first_event => {
                let mut union: Vec<usize> = first_alts
                    .iter()
                    .flat_map(|&e| coarse.postings(e).iter().map(|&v| v as usize))
                    .collect();
                union.sort_unstable();
                union.dedup();
                stats.videos_skipped += video_count - union.len();
                union
            }
            None => (0..video_count).collect(),
        };

        let lookups = crate::coarse::CoarseIndex::bound_lookups(pattern);
        let mut scored: Vec<(usize, VideoBounds)> = Vec::with_capacity(candidates.len());
        for v in candidates {
            let local = &self.model.locals[v];
            stats.coarse_bound_lookups += lookups;
            let vb = coarse.video_bounds(v, local, pattern);
            if vb.video_ub() <= 0.0 {
                stats.coarse_skipped_zero_ub += 1;
                continue;
            }
            scored.push((v, vb));
        }
        scored.sort_by(|a, b| {
            crate::order::cmp_f64_desc(a.1.video_ub(), b.1.video_ub())
                .then_with(|| a.0.cmp(&b.0))
        });
        // Approx cut: the order above is total, so cuts at increasing `C`
        // are nested prefixes — recall@k is deterministically monotone in
        // `C` (the E13 frontier).
        if self.config.coarse == CoarseMode::Approx && scored.len() > self.config.coarse_candidates
        {
            stats.coarse_cut = scored.len() - self.config.coarse_candidates;
            scored.truncate(self.config.coarse_candidates);
        }
        stats.coarse_candidates = scored.len();
        let mut bounds: Vec<Option<VideoBounds>> = vec![None; video_count];
        let order = scored
            .into_iter()
            .map(|(v, vb)| {
                bounds[v] = Some(vb);
                VideoId(v)
            })
            .collect();
        CoarseStage { order, bounds }
    }

    /// [`Retriever::traverse_video`] behind the whole-video bound check
    /// (exact prune site 1): a video whose admissible upper bound falls
    /// strictly below the shared threshold cannot contribute to the
    /// top-`limit` prefix and is skipped before any traversal work.
    #[allow(clippy::too_many_arguments)]
    fn traverse_video_bounded(
        &self,
        video: VideoId,
        pattern: &CompiledPattern,
        scorer: &Scorer<'_>,
        prune_ctx: &Option<(SharedTopK, PruneBounds)>,
        clock: Option<&mut DeadlineClock>,
        scratch: &mut TraversalScratch,
        stats: &mut RetrievalStats,
    ) -> Vec<RankedPattern> {
        match prune_ctx {
            Some((register, bounds)) => {
                let local = &self.model.locals[video.index()];
                let video_bounds = match (bounds, scorer) {
                    (PruneBounds::Archive(query_bounds), _) => query_bounds.for_video(local),
                    // Coarse stage already derived this video's admissible
                    // bound from the index summaries; `None` means the
                    // stage never admitted it (can only happen if the
                    // visit order and the bound table disagree — skip).
                    (PruneBounds::Coarse(table), _) => {
                        match table.get(video.index()).and_then(Clone::clone) {
                            Some(vb) => vb,
                            None => return Vec::new(),
                        }
                    }
                    (PruneBounds::PerVideo, Scorer::Cached(cache)) => {
                        match self.per_video_bounds(video, pattern, cache, scratch) {
                            Some(vb) => vb,
                            None => return Vec::new(), // empty/unknown video
                        }
                    }
                    // PerVideo is only constructed alongside a cached
                    // scorer; fall back to an unpruned traversal rather
                    // than panic if that invariant ever breaks.
                    (PruneBounds::PerVideo, Scorer::Direct(_)) => {
                        return self
                            .traverse_video(video, pattern, scorer, None, clock, scratch, stats)
                    }
                };
                if video_bounds.video_ub() < register.threshold() {
                    stats.videos_skipped_by_bound += 1;
                    return Vec::new();
                }
                self.traverse_video(
                    video,
                    pattern,
                    scorer,
                    Some((register, &video_bounds)),
                    clock,
                    scratch,
                    stats,
                )
            }
            None => self.traverse_video(video, pattern, scorer, None, clock, scratch, stats),
        }
    }

    /// Per-video admissible bounds read from the query cache: step maxima
    /// over *this video's* shot range, plus the exact whole-video bound
    /// fold `max_s Π_1(s) · sim(s, step 0) · (1 + a1_row_max[s] · chain_0)`
    /// — all pure table reads, all far tighter than the archive-wide
    /// fallback on videos that barely exhibit the queried events (which is
    /// exactly where the skip pays).
    /// `None` for empty or unknown videos (nothing to traverse anyway).
    fn per_video_bounds(
        &self,
        video: VideoId,
        pattern: &CompiledPattern,
        cache: &SimCache,
        scratch: &mut TraversalScratch,
    ) -> Option<VideoBounds> {
        let record = self.catalog.video(video)?;
        let range = record.shot_range.clone();
        if range.is_empty() {
            return None;
        }
        let local = &self.model.locals[video.index()];
        let mut memo: [Option<f64>; EventKind::COUNT] = [None; EventKind::COUNT];
        let step_max: Vec<f64> = pattern
            .steps
            .iter()
            .map(|step| {
                step.alternatives
                    .iter()
                    .map(|&e| match memo.get(e).copied().flatten() {
                        Some(v) => v,
                        None => {
                            let v = cache.max_calibrated_in(range.clone(), e);
                            if let Some(slot) = memo.get_mut(e) {
                                *slot = Some(v);
                            }
                            v
                        }
                    })
                    .fold(0.0, f64::max)
            })
            .collect();
        let vb = QueryBounds::new(step_max).for_video(local);
        let chain0 = vb.chain0();
        let first_alts = &pattern.steps[0].alternatives;
        // Event-outer best-sim sweep over the cache's contiguous slot-major
        // rows, reusing the worker's scratch row. Per shot this folds the
        // same scores with the same `f64::max` in the same event order as
        // the old shot-outer loop (rows absent from the cache are all-zero
        // and fold to a no-op), so the resulting bound is bit-identical.
        let best = &mut scratch.best_score;
        best.clear();
        best.resize(range.len(), 0.0);
        for &e in first_alts {
            if let Some(row) = cache.calibrated_range(range.clone(), e) {
                for (b, &v) in best.iter_mut().zip(row.iter()) {
                    *b = b.max(v);
                }
            }
        }
        let raw_ub = best
            .iter()
            .enumerate()
            .map(|(s, &sim)| local.pi1.get(s) * sim * (1.0 + local.a1_row_max[s] * chain0))
            .fold(0.0, f64::max);
        Some(vb.with_video_ub(raw_ub))
    }

    /// Steps 3–6 for one video: beam traversal of the Figure-3 lattice,
    /// arena-backed (buffers recycled across videos via the worker's
    /// [`TraversalScratch`]), with the exact-safe threshold cuts (sites 2
    /// and 3 of the module docs) when `prune` carries the shared register.
    #[allow(clippy::too_many_arguments)]
    fn traverse_video(
        &self,
        video: VideoId,
        pattern: &CompiledPattern,
        scorer: &Scorer<'_>,
        prune: Option<(&SharedTopK, &VideoBounds)>,
        mut clock: Option<&mut DeadlineClock>,
        scratch: &mut TraversalScratch,
        stats: &mut RetrievalStats,
    ) -> Vec<RankedPattern> {
        let record = match self.catalog.video(video) {
            Some(r) => r,
            None => return Vec::new(),
        };
        let base = record.shot_range.start;
        let n = record.shot_count();
        if n == 0 {
            return Vec::new();
        }
        let _video_span = self
            .config
            .recorder
            .span_labeled(m::SPAN_VIDEO, video.index() as u64);
        stats.videos_visited += 1;
        let local = &self.model.locals[video.index()];
        let shots = self.catalog.shots_of_video(video);
        let steps_total = pattern.steps.len();

        // Trim survivors are the only nodes the arena ever holds, so it
        // tops out at beam_width × steps — paths, events and weights are
        // materialized from parent chains only for emitted candidates.
        // All buffers are the worker's recycled scratch; clearing at entry
        // (rather than trusting the previous video) also wipes anything a
        // panic-interrupted predecessor left behind.
        let TraversalScratch {
            arena,
            beam,
            pending,
            starts,
            block,
            best_score,
            best_event,
        } = scratch;
        arena.clear();
        arena.reserve(self.config.beam_width.max(1) * steps_total);
        beam.clear();
        pending.clear();
        starts.clear();

        // hmmm-lint: begin(traversal-hot-path)
        // Step 4 at j = 1: w_1 = Π_1(s_1) · sim(s_1, e_1)  (Eq. 12). Each
        // start candidate carries its (event, sim) from the selection scan —
        // the seed re-evaluated Eq. 14 on every fallback survivor and
        // double-charged the stats for it.
        let first_alts = &pattern.steps[0].alternatives;
        if self.config.annotated_first {
            for (s, shot) in shots.iter().enumerate() {
                if shot
                    .events
                    .iter()
                    .any(|&e| first_alts.contains(&e.index()))
                {
                    scorer.charge(stats);
                    let (event, sim) = scorer
                        .best_alternative(base + s, first_alts)
                        .expect("alternatives checked non-empty");
                    starts.push((s, event, sim));
                }
            }
        }
        if starts.is_empty() {
            // "…or similar to event e_j": fall back to the most similar
            // shots by features — scored for the whole video in one blocked
            // event-outer sweep instead of n per-shot dispatches. Same
            // scores, same earliest-alternative tie-break, same charge
            // totals as the scalar scan (see `best_alternative_block`).
            scorer.charge_block(stats, n as u64);
            scorer.best_alternative_block(
                record.shot_range.clone(),
                first_alts,
                block,
                best_score,
                best_event,
            );
            for (s, (&sim, &event)) in best_score.iter().zip(best_event.iter()).enumerate() {
                starts.push((s, event as usize, sim));
            }
            // Same width-cut trick as `trim_beam`: the comparator is a
            // strict total order (shot ids are unique), so selecting the
            // top `keep` in O(n) and sorting only that prefix yields the
            // byte-identical candidate list the seed's full sort produced.
            let cmp = |a: &(usize, usize, f64), b: &(usize, usize, f64)| {
                crate::order::cmp_f64_desc(a.2, b.2).then_with(|| a.0.cmp(&b.0))
            };
            let keep = self.config.max_start_candidates;
            if starts.len() > keep {
                if keep == 0 {
                    starts.clear();
                } else {
                    starts.select_nth_unstable_by(keep - 1, cmp);
                    starts.truncate(keep);
                }
            }
            starts.sort_by(cmp);
        }
        for &(s, event, sim) in starts.iter() {
            let w = local.pi1.get(s) * sim;
            if w > 0.0 {
                pending.push(BeamNode {
                    parent: NO_PARENT,
                    local: s as u32,
                    event: event as u32,
                    weight: w,
                    score: w,
                });
            }
        }
        trim_beam(pending, self.config.beam_width, arena);
        settle(pending, arena, beam);
        if beam.is_empty() {
            // hmmm-lint: allow(no-alloc-in-traversal) empty result, no heap
            return Vec::new();
        }
        if beam_is_hopeless(arena, beam, prune, 0, &local.a1_row_max, stats) {
            // hmmm-lint: allow(no-alloc-in-traversal) empty result, no heap
            return Vec::new();
        }

        // Steps 3–5 for j = 2..C: expand through A_1 (Eq. 13). Step 3 is
        // annotated-first: the traversal prefers shots *annotated as* e_j;
        // only when the video has none does it fall back to "or similar to
        // event e_j" over all reachable shots.
        for (j, step) in pattern.steps.iter().enumerate().skip(1) {
            self.config.fault.before_step(j);
            let step_has_annotation = self.config.annotated_first
                && (0..n).any(|s| {
                    shots[s]
                        .events
                        .iter()
                        .any(|&e| step.alternatives.contains(&e.index()))
                });
            pending.clear();
            for &idx in beam.iter() {
                // Deadline checkpoint (beam granularity, one clock read per
                // `check_interval` ticks): partial paths cannot be emitted,
                // so expiry abandons this video's beam whole — all-or-
                // nothing, like prune site 2, never a reordering.
                if let Some(c) = clock.as_deref_mut() {
                    if c.tick() {
                        stats.deadline_expired = true;
                        stats.beams_abandoned += 1;
                        // hmmm-lint: allow(no-alloc-in-traversal) empty result
                        return Vec::new();
                    }
                }
                let entry = arena[idx as usize];
                let from = entry.local as usize;
                // The admission tail shared by the sparse and dense walks:
                // annotation filter, same-shot rule, Eq.-13 edge weight,
                // child push. `a` is already known strictly positive here,
                // so both walks admit exactly the same transitions in the
                // same ascending-`to` order — identical beams either way.
                let admit =
                    |to: usize, a: f64, pending: &mut Vec<BeamNode>, stats: &mut RetrievalStats| {
                        let shot = &shots[to];
                        if step_has_annotation
                            && !shot
                                .events
                                .iter()
                                .any(|&e| step.alternatives.contains(&e.index()))
                        {
                            return;
                        }
                        if to == from
                            && !same_shot_revisit_ok(&shot.events, entry.event as usize, step)
                        {
                            return;
                        }
                        scorer.charge(stats);
                        let Some((event, sim)) =
                            scorer.best_alternative(base + to, &step.alternatives)
                        else {
                            return;
                        };
                        let w = entry.weight * a * sim;
                        if w <= 0.0 {
                            return;
                        }
                        pending.push(BeamNode {
                            parent: idx,
                            local: to as u32,
                            event: event as u32,
                            weight: w,
                            score: entry.score + w,
                        });
                    };
                match &local.a1_sparse {
                    // CSR walk: only the non-zero forward entries of row
                    // `from`, in ascending column order (so the `max_gap`
                    // early-break stays valid). The dense walk's `a <= 0`
                    // rejects are exactly the entries the CSR omits, so
                    // `transitions_examined` now counts real candidate
                    // edges rather than structural zeros.
                    Some(csr) => {
                        let (cols, vals) = csr.row(from);
                        for (&to, &a) in cols.iter().zip(vals.iter()) {
                            let to = to as usize;
                            if let Some(gap) = step.max_gap {
                                if to - from > gap {
                                    break;
                                }
                            }
                            stats.transitions_examined += 1;
                            admit(to, a, pending, stats);
                        }
                    }
                    // Dense fallback (forward density above the CSR
                    // threshold): scan the row as before.
                    None => {
                        for to in from..n {
                            if let Some(gap) = step.max_gap {
                                if to - from > gap {
                                    break;
                                }
                            }
                            stats.transitions_examined += 1;
                            let a = local.a1.get(from, to);
                            if a > 0.0 {
                                admit(to, a, pending, stats);
                            }
                        }
                    }
                }
            }
            trim_beam(pending, self.config.beam_width, arena);
            settle(pending, arena, beam);
            if beam.is_empty() {
                // hmmm-lint: allow(no-alloc-in-traversal) empty result
                return Vec::new();
            }
            if beam_is_hopeless(arena, beam, prune, j, &local.a1_row_max, stats) {
                // hmmm-lint: allow(no-alloc-in-traversal) empty result
                return Vec::new();
            }
        }
        // hmmm-lint: end(traversal-hot-path)

        // Step 6: the per-video candidates with Eq.-15 scores, materialized
        // from the arena. The path tie-break makes the cut at
        // `per_video_results` deterministic (and guarantees equal paths are
        // adjacent for the dedup).
        let mut finals: Vec<Candidate> = beam
            .iter()
            .map(|&idx| materialize(arena, idx))
            .collect();
        finals.sort_by(|a, b| {
            crate::order::cmp_f64_desc(a.score, b.score).then_with(|| a.path.cmp(&b.path))
        });
        finals.dedup_by(|a, b| a.path == b.path);
        finals.truncate(self.config.per_video_results);

        // Exact prune site 3, filter half: dropping a selected candidate
        // scoring strictly below the threshold cannot change the global
        // prefix (anything its removal pulls up ranks — and scores — below
        // it). The matching threshold *offers* live in `run_video_set`,
        // outside the panic-isolation boundary, so a traversal that
        // panics after this point can never have raised the shared
        // threshold with a score that then fails to escape.
        if let Some((register, _)) = prune {
            let threshold = register.threshold();
            let before = finals.len();
            finals.retain(|c| c.score >= threshold);
            stats.entries_pruned += (before - finals.len()) as u64;
        }

        finals
            .into_iter()
            .map(|c| RankedPattern {
                video,
                shots: c.path.iter().map(|&s| ShotId(base + s)).collect(),
                events: c.events,
                score: c.score,
                weights: c.weights,
            })
            .collect()
    }
}

/// A fully materialized per-video candidate (paths walked out of the arena).
struct Candidate {
    path: Vec<usize>,
    events: Vec<usize>,
    weights: Vec<f64>,
    score: f64,
}

/// Walks `idx`'s parent chain into root-first path/events/weights vectors.
fn materialize(arena: &[BeamNode], idx: u32) -> Candidate {
    let score = arena[idx as usize].score;
    let mut path = Vec::new();
    let mut events = Vec::new();
    let mut weights = Vec::new();
    let mut cursor = idx;
    loop {
        let node = &arena[cursor as usize];
        path.push(node.local as usize);
        events.push(node.event as usize);
        weights.push(node.weight);
        if node.parent == NO_PARENT {
            break;
        }
        cursor = node.parent;
    }
    path.reverse();
    events.reverse();
    weights.reverse();
    Candidate {
        path,
        events,
        weights,
        score,
    }
}

/// Appends the trimmed survivors to the arena and points `beam` at them.
fn settle(pending: &mut Vec<BeamNode>, arena: &mut Vec<BeamNode>, beam: &mut Vec<u32>) {
    beam.clear();
    for node in pending.drain(..) {
        beam.push(arena.len() as u32);
        arena.push(node);
    }
}

/// Exact prune site 2: `true` iff pruning is on, the threshold has settled
/// above zero, and *every* surviving beam entry's admissible completion
/// bound sits strictly below it — the all-or-nothing abandon. (Dropping a
/// strict subset would be inexact: the width trims downstream would
/// backfill entries the unpruned search cuts, and their descendants can
/// out-score the threshold. See the module docs.)
fn beam_is_hopeless(
    arena: &[BeamNode],
    beam: &[u32],
    prune: Option<(&SharedTopK, &VideoBounds)>,
    step: usize,
    row_max: &[f64],
    stats: &mut RetrievalStats,
) -> bool {
    let Some((register, video_bounds)) = prune else {
        return false;
    };
    let threshold = register.threshold();
    if threshold <= 0.0 {
        return false;
    }
    let hopeless = beam.iter().all(|&idx| {
        let node = &arena[idx as usize];
        let ub = video_bounds.entry_ub(node.score, node.weight, step, row_max[node.local as usize]);
        ub < threshold
    });
    if hopeless {
        stats.entries_pruned += beam.len() as u64;
    }
    hopeless
}

/// Same-shot continuation is allowed only when the shot carries *distinct*
/// annotation slots for the previous and current step (the paper's
/// `T_{s_m} ≤ T_{s_n}` with the double-annotation shots of §4.2.1.1).
fn same_shot_revisit_ok(
    events: &[EventKind],
    prev_event: usize,
    step: &hmmm_query::CompiledStep,
) -> bool {
    step.alternatives.iter().any(|&alt| {
        events.iter().any(|e| e.index() == alt)
            && (alt != prev_event || events.iter().filter(|e| e.index() == alt).count() >= 2)
    })
}

/// Renders a caught panic payload into a stable, greppable string for
/// [`RetrievalStats::panic_payloads`]. `panic!` with a message produces a
/// `String` (formatted) or `&'static str` (literal) payload; anything else
/// is reported opaquely rather than dropped.
fn panic_message(video: VideoId, payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("<non-string panic payload>");
    format!("video {}: {msg}", video.index())
}

/// Total order on final candidates: score desc, then video asc, then shot
/// sequence asc. Strictness matters — with a partial order, equal-scored
/// candidates from different videos would rank by arrival order, which the
/// parallel merge does not preserve.
fn rank_order(a: &RankedPattern, b: &RankedPattern) -> Ordering {
    crate::order::cmp_f64_desc(a.score, b.score)
        .then_with(|| a.video.cmp(&b.video))
        .then_with(|| a.shots.cmp(&b.shots))
}

/// Width cut over pending children: keep the top `width` by
/// (weight desc, path asc), sorted, deduplicated by path.
///
/// The seed sorted the whole fan-out (O(n log n)) before truncating; the cut
/// is now `select_nth_unstable_by` (O(n) average) plus a sort of the
/// surviving prefix only. The comparator is the same total order, so the
/// surviving set and its order are byte-identical. Paths are unique by
/// construction — children are distinct `(parent, to)` pairs of parents with
/// distinct paths — so the path dedup never fires; if it ever would (the
/// prefix shows adjacent equal paths), the full-sort + dedup semantics of
/// the seed are restored verbatim rather than guessed at.
fn trim_beam(pending: &mut Vec<BeamNode>, width: usize, arena: &[BeamNode]) {
    let width = width.max(1);
    let cmp = |a: &BeamNode, b: &BeamNode| {
        crate::order::cmp_f64_desc(a.weight, b.weight).then_with(|| cmp_paths(arena, a, b))
    };
    if pending.len() > width {
        pending.select_nth_unstable_by(width - 1, cmp);
        pending[..width].sort_by(cmp);
        let prefix_has_dup = pending[..width]
            .windows(2)
            .any(|pair| cmp_paths(arena, &pair[0], &pair[1]) == Ordering::Equal);
        if prefix_has_dup {
            pending.sort_by(cmp);
            pending.dedup_by(|a, b| cmp_paths(arena, a, b) == Ordering::Equal);
        }
        pending.truncate(width);
    } else {
        pending.sort_by(cmp);
        pending.dedup_by(|a, b| cmp_paths(arena, a, b) == Ordering::Equal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use hmmm_features::{FeatureId, FeatureVector};
    use hmmm_query::QueryTranslator;

    fn feat(g: f64, v: f64, s3: f64) -> FeatureVector {
        let mut f = FeatureVector::zeros();
        f[FeatureId::GrassRatio] = g;
        f[FeatureId::VolumeMean] = v;
        f[FeatureId::Sub3Mean] = s3;
        f
    }

    /// Two videos; video 0 contains the free_kick → goal pattern, video 1
    /// only has a lone goal.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_video(
            "with-pattern",
            vec![
                (vec![], feat(0.5, 0.2, 0.1)),
                (vec![EventKind::FreeKick], feat(0.7, 0.25, 0.8)),
                (vec![], feat(0.5, 0.2, 0.1)),
                (vec![EventKind::Goal], feat(0.8, 0.9, 0.2)),
                (vec![EventKind::CornerKick], feat(0.75, 0.3, 0.7)),
            ],
        );
        c.add_video(
            "goal-only",
            vec![
                (vec![EventKind::Goal], feat(0.78, 0.88, 0.15)),
                (vec![], feat(0.5, 0.2, 0.1)),
            ],
        );
        c
    }

    fn translator() -> QueryTranslator {
        QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
    }

    #[test]
    fn finds_the_scripted_pattern() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let (results, stats) = r.retrieve(&pattern, 10).unwrap();
        assert!(!results.is_empty());
        let top = &results[0];
        assert_eq!(top.video, VideoId(0));
        assert_eq!(top.shots, vec![ShotId(1), ShotId(3)]);
        assert!(top.score > 0.0);
        assert!(stats.videos_visited >= 1);
    }

    #[test]
    fn b2_check_skips_videos_without_first_event() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let pattern = translator().compile("corner_kick -> goal").unwrap();
        let (_, stats) = r.retrieve(&pattern, 10).unwrap();
        // Video 1 has no corner kick → skipped by the B2 check.
        assert_eq!(stats.videos_skipped, 1);
        assert_eq!(stats.videos_visited, 1);
    }

    #[test]
    fn single_event_query_ranks_annotated_shot_first() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let pattern = translator().compile("goal").unwrap();
        let (results, _) = r.retrieve(&pattern, 10).unwrap();
        assert!(!results.is_empty());
        let shot = c.shot(results[0].shots[0]).unwrap();
        assert!(shot.events.contains(&EventKind::Goal));
    }

    #[test]
    fn gap_constraint_prunes_distant_matches() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let bounded = translator().compile("free_kick ->[1] goal").unwrap();
        let (results, _) = r.retrieve(&bounded, 10).unwrap();
        // free_kick at local 1, goal at local 3: gap 2 > 1 → no match in
        // video 0 via annotations (similar-shot fallback may still score
        // something but never the (1,3) pair).
        assert!(results
            .iter()
            .all(|p| p.shots != vec![ShotId(1), ShotId(3)]));
    }

    #[test]
    fn empty_and_bad_queries_rejected() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let empty = CompiledPattern { steps: vec![] };
        assert!(matches!(
            r.retrieve(&empty, 5),
            Err(CoreError::BadQuery(_))
        ));
        let bad = CompiledPattern {
            steps: vec![hmmm_query::CompiledStep {
                alternatives: vec![99],
                max_gap: None,
            }],
        };
        assert!(matches!(r.retrieve(&bad, 5), Err(CoreError::BadQuery(_))));
    }

    #[test]
    fn results_are_sorted_by_score() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let pattern = translator().compile("goal").unwrap();
        let (results, _) = r.retrieve(&pattern, 10).unwrap();
        for pair in results.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn limit_truncates() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let pattern = translator().compile("goal").unwrap();
        let (results, _) = r.retrieve(&pattern, 1).unwrap();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn greedy_is_subset_of_beam_quality() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let greedy = Retriever::new(&model, &c, RetrievalConfig::paper_greedy()).unwrap();
        let beam = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let (g, _) = greedy.retrieve(&pattern, 10).unwrap();
        let (b, _) = beam.retrieve(&pattern, 10).unwrap();
        // Beam search never returns a worse best-candidate than greedy.
        if let (Some(gt), Some(bt)) = (g.first(), b.first()) {
            assert!(bt.score >= gt.score - 1e-12);
        }
    }

    #[test]
    fn alternatives_match_either_event() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let pattern = translator()
            .compile("free_kick|corner_kick -> goal")
            .unwrap();
        let (results, _) = r.retrieve(&pattern, 10).unwrap();
        assert!(!results.is_empty());
        let top = &results[0];
        let first_shot = c.shot(top.shots[0]).unwrap();
        assert!(
            first_shot.events.contains(&EventKind::FreeKick)
                || first_shot.events.contains(&EventKind::CornerKick)
        );
    }

    /// All retrieval config knobs that interact with the coarse stage, for
    /// the exactness tests below.
    fn coarse_grid_configs() -> Vec<RetrievalConfig> {
        let mut configs = Vec::new();
        for &annotated_first in &[true, false] {
            for &use_sim_cache in &[true, false] {
                for &prune in &[true, false] {
                    for &threads in &[1usize, 4] {
                        configs.push(RetrievalConfig {
                            annotated_first,
                            require_first_event: annotated_first,
                            use_sim_cache,
                            prune,
                            threads: Some(threads),
                            ..RetrievalConfig::default()
                        });
                    }
                }
            }
        }
        configs
    }

    #[test]
    fn coarse_exact_ranking_matches_coarse_off() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        for query in ["free_kick -> goal", "goal", "free_kick|corner_kick -> goal"] {
            let pattern = translator().compile(query).unwrap();
            for base in coarse_grid_configs() {
                let off = Retriever::new(&model, &c, base.clone()).unwrap();
                let exact = Retriever::new(
                    &model,
                    &c,
                    base.clone().with_coarse(CoarseMode::Exact),
                )
                .unwrap();
                let (r_off, _) = off.retrieve(&pattern, 10).unwrap();
                let (r_exact, s_exact) = exact.retrieve(&pattern, 10).unwrap();
                assert_eq!(r_off, r_exact, "query {query:?} config {base:?}");
                assert!(s_exact.coarse_candidates > 0);
                assert_eq!(s_exact.coarse_cut, 0);
            }
        }
    }

    #[test]
    fn coarse_skip_counter_matches_b2_filter() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("corner_kick -> goal").unwrap();
        let off = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let exact = Retriever::new(
            &model,
            &c,
            RetrievalConfig::default().with_coarse(CoarseMode::Exact),
        )
        .unwrap();
        let (_, s_off) = off.retrieve(&pattern, 10).unwrap();
        let (_, s_exact) = exact.retrieve(&pattern, 10).unwrap();
        // The postings union is definitionally the B2-eligible set, so the
        // skip counter is identical to the single-stage row scan's.
        assert_eq!(s_off.videos_skipped, s_exact.videos_skipped);
        assert_eq!(s_exact.videos_skipped, 1);
        assert_eq!(s_exact.coarse_candidates, 1);
    }

    #[test]
    fn coarse_replaces_archive_bound_scan_on_cold_path() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        // Cold path: content-driven (cache-eligible) but cache disabled, so
        // single-stage pruning must pay the archive-wide bound scan...
        let cold = RetrievalConfig {
            use_sim_cache: false,
            ..RetrievalConfig::content_only()
        };
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let off = Retriever::new(&model, &c, cold.clone()).unwrap();
        let (_, s_off) = off.retrieve(&pattern, 10).unwrap();
        assert!(s_off.bound_evaluations > 0);
        // ...while the coarse stage answers every bound from the index.
        let exact =
            Retriever::new(&model, &c, cold.with_coarse(CoarseMode::Exact)).unwrap();
        let (_, s_exact) = exact.retrieve(&pattern, 10).unwrap();
        assert_eq!(s_exact.bound_evaluations, 0);
        assert!(s_exact.coarse_bound_lookups > 0);
    }

    #[test]
    fn approx_cut_truncates_candidates_and_recall_is_monotone() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("goal").unwrap();
        let full = Retriever::new(&model, &c, RetrievalConfig::default())
            .unwrap()
            .retrieve(&pattern, 10)
            .unwrap()
            .0;
        let mut prev_recall = 0.0f64;
        for candidates in [1usize, 2, 4] {
            let cfg = RetrievalConfig {
                coarse: CoarseMode::Approx,
                coarse_candidates: candidates,
                ..RetrievalConfig::default()
            };
            let r = Retriever::new(&model, &c, cfg).unwrap();
            let (results, stats) = r.retrieve(&pattern, 10).unwrap();
            assert!(stats.coarse_candidates <= candidates);
            let hit = full
                .iter()
                .filter(|p| results.contains(p))
                .count();
            let recall = hit as f64 / full.len() as f64;
            assert!(recall >= prev_recall, "recall dropped at C={candidates}");
            prev_recall = recall;
        }
        // Both videos admit `goal`, so C=2 already recovers everything.
        assert_eq!(prev_recall, 1.0);
    }

    #[test]
    fn coarse_respects_explicit_video_subset() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("goal").unwrap();
        let cfg = RetrievalConfig::default().with_coarse(CoarseMode::Exact);
        let r = Retriever::new(&model, &c, cfg).unwrap();
        let (results, _) = r
            .retrieve_within(&pattern, 10, Some(&[VideoId(1)]))
            .unwrap();
        assert!(results.iter().all(|p| p.video == VideoId(1)));
    }

    #[test]
    fn coarse_config_serde_round_trips_and_tolerates_absence() {
        let cfg = RetrievalConfig {
            coarse: CoarseMode::Approx,
            coarse_candidates: 7,
            ..RetrievalConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: RetrievalConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.coarse, CoarseMode::Approx);
        assert_eq!(back.coarse_candidates, 7);
        // Configs persisted before the coarse PR load single-stage.
        let legacy = serde_json::to_string(&RetrievalConfig::default()).unwrap();
        let stripped = legacy
            .replace(",\"coarse\":\"Off\"", "")
            .replace(",\"coarse_candidates\":16", "");
        assert!(stripped.len() < legacy.len(), "field strip failed: {legacy}");
        let back: RetrievalConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.coarse, CoarseMode::Off);
        assert_eq!(back.coarse_candidates, 16);
    }
}
