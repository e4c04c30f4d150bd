//! The §5 temporal pattern retrieval process (Steps 1–9, Figures 2–3).
//!
//! Retrieval walks the hierarchy exactly as the paper's flowchart does:
//!
//! 1. the coarse stage ([`crate::coarse::CoarseIndex::candidates`])
//!    enumerates candidate videos from the inverted `B_2` postings,
//!    skipping videos that lack the pattern's first event (Step 2), and
//!    gives each an admissible upper bound read from ingest-time summaries;
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
//! Retrieval evaluates no Eq. 14. `sim(s, e)` reads only model sources, so
//! the model scores every shot against every event once per epoch, and
//! every score the traversal needs, in either regime, is a read of that
//! table ([`Hmmm::sim_row`]), counted in [`RetrievalStats::cache_lookups`].
//!
//! # Exact top-k pruning
//!
//! Retrieval runs a Fagin-style threshold cut: a [`TopKThreshold`] register
//! tracks the running k-th best Eq.-15 score over the videos traversed so
//! far, and admissible completion bounds ([`crate::bounds`]) skip work that
//! provably cannot reach the returned top-`limit` prefix. The rankings are
//! **byte-identical** to the unpruned §5 process, which the executable spec
//! in `crates/core/tests/common/spec.rs` spells out and the retrieval tests
//! hold the engine to; only the work counters show the cut. Above `limit`
//! 65 536 the register would cost more than it saves, and the engine
//! traverses every candidate.
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
//! Dropped candidates are strictly below the threshold, the threshold is
//! the exact k-th best score emitted so far (see [`crate::topk`]), and ties
//! at the k-th score are never dropped (strict `<`) — so the top-`limit`
//! prefix, including its deterministic tie-breaks, is unchanged. Candidate
//! videos are visited one at a time on the calling thread (the paper's
//! Step 7 advances `k` once per video), so the work counters are
//! deterministic too.
//!
//! Every bound comes from one place: the coarse stage derives each
//! candidate's [`VideoBounds`] (per-video step maxima and a whole-video
//! bound) from the ingest-time summaries by table lookup, before the fine
//! stage starts, and hands the table to the fine stage by move. No regime
//! pays for bounds, and both prune against the same numbers. Candidates
//! arrive in bound-descending order, so the videos most likely to raise the
//! threshold are traversed first. Entry bounds charge the entry's own
//! shot's forward row maximum ([`crate::LocalMmm::a1_row_max`]) for the
//! next hop rather than the whole-matrix maximum, which a trailing
//! self-loop row would pin near 1.

use crate::bounds::VideoBounds;
use crate::error::CoreError;
use crate::fault::FaultHandle;
use crate::metrics as m;
use crate::model::Hmmm;
use crate::topk::TopKThreshold;
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
/// Plain data apart from [`RetrievalConfig::recorder`] and
/// [`RetrievalConfig::fault`], which are `Arc`-backed runtime hooks:
/// cloning a config shares them.
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
    /// Ignored: retrieval always runs on the calling thread, visiting the
    /// candidate videos one at a time. Nothing in the engine reads this
    /// field; it remains only so configurations that still set it keep
    /// compiling.
    pub threads: Option<usize>,
    /// Deadline budget for anytime retrieval (`None` = unbounded, the
    /// default). When set, retrieval stops admitting new videos once the
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
    /// (per-stage and per-video timings), counters, and the prune-threshold
    /// gauge — see [`crate::metrics`] for the emitted names. The default
    /// [`RecorderHandle::noop`] is near-zero-cost; attach an
    /// [`hmmm_obs::InMemoryRecorder`] to collect a
    /// [`hmmm_obs::MetricsReport`].
    pub recorder: RecorderHandle,
    /// Deterministic fault-injection hook (see [`crate::fault`]). The
    /// default [`FaultHandle::noop`] injects nothing at near-zero cost;
    /// attach a [`crate::fault::FaultPlan`] to drive the degraded paths in
    /// tests and the fault-matrix CI job.
    pub fault: FaultHandle,
    /// Candidate-set cut of the coarse stage. `None` (the default) is
    /// exact: every candidate with a nonzero coarse bound enters the fine
    /// stage, and the ranking is the full answer. `Some(C)` traverses only
    /// the `C` candidates with the highest coarse upper bounds — the
    /// recall@k-vs-latency knob of the E13 sweep. Candidates are ordered
    /// totally, so cuts at increasing `C` are nested prefixes and recall@k
    /// is monotone in `C`.
    pub candidate_cut: Option<usize>,
}

/// Wall-clock budget for one retrieve call (anytime retrieval).
///
/// The budget spans the *whole* call — the coarse stage's bound derivation
/// and the traversal both draw from it. `check_interval` bounds how often a
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

/// The deadline clock: a cheap tick counter in front of the
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

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig {
            beam_width: 3,
            max_start_candidates: 16,
            per_video_results: 1,
            require_first_event: true,
            annotated_first: true,
            threads: None,
            deadline: None,
            recorder: RecorderHandle::noop(),
            fault: FaultHandle::noop(),
            candidate_cut: None,
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
/// A mergeable value type: each video's traversal accumulates its own
/// `RetrievalStats`, which [`RetrievalStats::merge`] folds into the query's
/// totals once the video finished without panicking. All counters are
/// commutative sums.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrievalStats {
    /// Videos whose lattices were traversed.
    pub videos_visited: usize,
    /// Videos skipped by the `B_2` first-event check.
    pub videos_skipped: usize,
    /// Eq.-(14) evaluations a query performed. Always zero for
    /// [`Retriever`], which reads every score from the model's table; the
    /// greedy and event-index baselines evaluate Eq. 14 per shot and count
    /// it here.
    pub sim_evaluations: u64,
    /// Always zero: no query builds a score table. The model fills its
    /// table once per epoch (`shots × supported events` cells). Kept so
    /// reports that chart the quantity keep their shape.
    pub cache_build_evaluations: u64,
    /// Calibrated Eq.-14 scores read from the model's per-epoch table
    /// ([`Hmmm::sim_row`]): one per shot scored against a step's
    /// alternatives, in both regimes.
    pub cache_lookups: u64,
    /// Lattice transitions examined (`A_1` lookups).
    pub transitions_examined: u64,
    /// Candidate sequences scored (`k − 1` in Step 8).
    pub candidates_scored: usize,
    /// Videos skipped whole because their admissible upper bound fell below
    /// the top-k threshold — before any traversal work was spent.
    pub videos_skipped_by_bound: usize,
    /// Beam entries and selected candidates dropped by the threshold cut
    /// (whole-beam abandons plus emission filtering).
    pub entries_pruned: u64,
    /// Times an emitted candidate raised the k-th-best threshold. Zero
    /// above `limit` 65 536, where the engine keeps no threshold.
    pub threshold_raises: u64,
    /// Eq.-(14) evaluations spent deriving prune bounds. Always zero: the
    /// coarse stage reads every bound from the ingest-time summaries
    /// ([`RetrievalStats::coarse_bound_lookups`] counts those reads). Kept
    /// so reports that chart the quantity keep their shape.
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
    /// Panic payloads of failed videos, rendered to strings and sorted.
    pub panic_payloads: Vec<String>,
    /// `Some` when this query returned less than a full ranking —
    /// deadline expiry, video traversal panics, or both. `None` means the
    /// ranking is the complete (exact) answer.
    pub degraded: Option<Degraded>,
    /// Candidate videos the coarse stage admitted to the fine stage.
    pub coarse_candidates: usize,
    /// Candidates dropped by the [`RetrievalConfig::candidate_cut`]
    /// (always zero when the cut is `None`).
    pub coarse_cut: usize,
    /// Candidates skipped because their coarse upper bound was exactly
    /// zero — a zero bound proves no start entry can be admitted (`w > 0`
    /// is required), so the skip is exact whatever the threshold.
    pub coarse_skipped_zero_ub: usize,
    /// Precomputed-summary table reads the coarse stage spent deriving
    /// per-video bounds.
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
    /// Folds another set of counters (one video's traversal) into this one
    /// (commutative).
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
}

/// The best `(event, score)` among `events` for the global `shot`, read
/// from the model's score table: the first alternative claims the shot and a
/// later one takes over only on a strictly greater score, the tie-break of
/// [`crate::sim::best_alternative`].
fn best_alternative(model: &Hmmm, shot: usize, events: &[usize]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &e in events {
        let s = model.sim_row(e)[shot];
        match best {
            Some((_, bs)) if s <= bs => {}
            _ => best = Some((e, s)),
        }
    }
    best
}

/// [`best_alternative`] for every shot of a contiguous range at once:
/// fills `best_score[i]` / `best_event[i]` for shot `shots.start + i` with
/// one event-outer sweep over the table's rows, under the same tie-break.
fn best_alternative_block(
    model: &Hmmm,
    shots: std::ops::Range<usize>,
    events: &[usize],
    best_score: &mut Vec<f64>,
    best_event: &mut Vec<u32>,
) {
    let (&first, rest) = events
        .split_first()
        .expect("alternatives checked non-empty");
    best_score.clear();
    best_score.extend_from_slice(&model.sim_row(first)[shots.clone()]);
    best_event.clear();
    best_event.resize(shots.len(), first as u32);
    for &e in rest {
        let row = &model.sim_row(e)[shots.clone()];
        for ((bs, be), &s) in best_score.iter_mut().zip(best_event.iter_mut()).zip(row) {
            if s > *bs {
                *bs = s;
                *be = e as u32;
            }
        }
    }
}

/// Reusable traversal buffers: the beam arena, the beam/pending node lists,
/// the start-candidate list, and the blocked start-scan rows. One
/// instance serves a whole query (the caller's [`QueryScratch`], or a
/// call-local one) and is recycled across its videos, so the per-video
/// traversal allocates nothing once the buffers have grown to the largest
/// video — the hmmm-lint `no-alloc-in-traversal` rule keeps it that way.
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
    /// Per-shot winning score of the blocked start scan.
    best_score: Vec<f64>,
    /// Per-shot winning event of the blocked start scan.
    best_event: Vec<u32>,
}

/// A reusable traversal arena for callers that serve many queries from one
/// thread — the in-process `QueryServer` worker pool (`hmmm-serve`) above
/// all. Wraps the `TraversalScratch` (beam arenas, start-candidate
/// buffers, blocked start-scan rows) so the buffers grow to the
/// largest video once and are then recycled across *queries*, not just
/// across one query's videos. Pass it to
/// [`Retriever::retrieve_with_scratch`]; contents between calls are
/// garbage by design (every traversal clears before use), so a scratch can
/// be reused freely after errors or degraded runs.
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

/// Pruning auto-disables above this `limit`: the [`TopKThreshold`] register
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
    /// Checks that the model was built from `catalog` or one of equal
    /// shape ([`Hmmm::validate_against`], a shape comparison) and builds
    /// the retriever. The retriever borrows both, so neither can change
    /// while it lives.
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] if the model was not built from (an
    /// equal-shape) catalog.
    pub fn new(
        model: &'a Hmmm,
        catalog: &'a Catalog,
        config: RetrievalConfig,
    ) -> Result<Self, CoreError> {
        model.validate_against(catalog)?;
        Ok(Retriever {
            model,
            catalog,
            config,
        })
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
    /// assert!(stats.cache_lookups > 0);                    // scores read from the table
    /// assert_eq!(stats.sim_evaluations, 0);                // no Eq.-14 evaluation
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
    /// stream of queries and the beam/scoring buffers should be paid for
    /// once, not once per query. Rankings and stats are byte-identical to
    /// [`Retriever::retrieve`].
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
    /// optional caller-owned arena (`None` = a call-local one).
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

        // Anytime-retrieval budget: the clock starts here, so the coarse
        // stage below draws from the same budget as the traversal. (No
        // clock read at all when no deadline is set.)
        let deadline = self.config.deadline.map(|d| (d, Instant::now()));

        // Coarse stage: candidate videos from the ingest-time inverted
        // `B_2` postings, each with its admissible bounds from the
        // precomputed summaries, in bound-descending visit order. Visit
        // order only affects counters — the final ranking is re-sorted
        // under a total order below.
        let candidates = {
            let _coarse_span = obs.span(m::SPAN_COARSE);
            self.model
                .coarse()
                .candidates(self.model, pattern, &self.config, videos, &mut stats)
        };

        // The exact top-k threshold cut: one register holds the running
        // k-th best score, which the candidates' bounds are checked against
        // at the three exact prune sites (see the module docs).
        let mut register = (limit <= PRUNE_LIMIT_CAP).then(|| TopKThreshold::new(limit));

        // Steps 3–7, one candidate video at a time on the calling thread.
        // Observability stays off the per-transition hot path: the loop
        // batches counts in `stats` and everything is flushed to the
        // recorder once, below. Only the per-video spans touch the clock,
        // and only when a recorder is attached.
        let traverse_span = obs.span(m::SPAN_TRAVERSE);
        let mut local_scratch = TraversalScratch::default();
        let scratch = scratch.unwrap_or(&mut local_scratch);
        let mut results = self.run_video_set(
            &candidates,
            pattern,
            register.as_mut(),
            deadline,
            scratch,
            &mut stats,
        );
        drop(traverse_span);

        stats.candidates_scored = results.len();
        {
            let _rank_span = obs.span(m::SPAN_RANK);
            results.sort_by(rank_order);
            results.truncate(limit);
        }

        // Degradation summary: payloads sorted, then one canonical
        // `Degraded` for callers to branch on (None = the ranking is the
        // complete exact answer).
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
                results.len(),
                register.as_ref().map(TopKThreshold::threshold),
            );
            obs.observe_ns(m::HIST_RETRIEVE_LATENCY, root_span.elapsed_ns());
        }
        Ok((results, stats))
    }

    /// The per-video loop over the coarse candidates: deadline
    /// checkpoints, the panic-isolation boundary, the whole-video bound
    /// check, and the post-traversal threshold offers.
    fn run_video_set(
        &self,
        videos: &[(VideoId, VideoBounds)],
        pattern: &CompiledPattern,
        mut register: Option<&mut TopKThreshold>,
        deadline: Option<(DeadlineConfig, Instant)>,
        // Recycled across the videos (and, through [`QueryScratch`], across
        // a serving worker's queries): beam arenas and blocked-scoring rows
        // grow to the largest video once and are then reused, so the
        // traversal hot path stops allocating.
        scratch: &mut TraversalScratch,
        stats: &mut RetrievalStats,
    ) -> Vec<RankedPattern> {
        let mut clock = deadline.map(|(config, started)| DeadlineClock::new(config, started));
        let mut results = Vec::new();
        for (i, &(video, ref bounds)) in videos.iter().enumerate() {
            // Deadline checkpoint (video granularity): once the budget has
            // elapsed, stop admitting new videos — every candidate not yet
            // admitted is reported unvisited.
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
            // * `bounds` — this candidate's read-only coarse bounds.
            // * `threshold` — a copy of the register's value at video
            //   entry; the register itself stays outside the boundary.
            //   Threshold offers for this video happen *below, after* the
            //   boundary: a panic mid-traversal therefore cannot have
            //   raised the threshold with a score whose candidate was then
            //   lost — every raise corresponds to a candidate that safely
            //   escaped, keeping the bound admissible for all surviving
            //   videos (the degraded ranking is exact over survivors).
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
            let threshold = register.as_deref().map(TopKThreshold::threshold);
            let clock_ref = clock.as_mut();
            let scratch_ref = &mut *scratch;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.config.fault.on_video_enter(video.index());
                let mut attempt = RetrievalStats::default();
                let found = match threshold {
                    // Exact prune site 1: a video whose admissible upper
                    // bound falls strictly below the threshold cannot
                    // contribute to the top-`limit` prefix and is skipped
                    // before any traversal work.
                    Some(t) if bounds.video_ub() < t => {
                        attempt.videos_skipped_by_bound += 1;
                        Vec::new()
                    }
                    _ => self.traverse_video(
                        video,
                        pattern,
                        threshold.map(|t| (t, bounds)),
                        clock_ref,
                        scratch_ref,
                        &mut attempt,
                    ),
                };
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
                    if let Some(register) = register.as_deref_mut() {
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
    fn flush_metrics(
        &self,
        stats: &RetrievalStats,
        results_returned: usize,
        prune_threshold: Option<f64>,
    ) {
        let obs = &self.config.recorder;
        obs.counter(m::CTR_QUERIES, 1);
        obs.counter(m::CTR_VIDEOS_VISITED, stats.videos_visited as u64);
        obs.counter(m::CTR_VIDEOS_SKIPPED, stats.videos_skipped as u64);
        obs.counter(m::CTR_TRANSITIONS, stats.transitions_examined);
        obs.counter(m::CTR_CANDIDATES, stats.candidates_scored as u64);
        obs.counter(m::CTR_RESULTS, results_returned as u64);
        obs.counter(m::CTR_SCORE_READS, stats.cache_lookups);
        obs.counter(
            m::CTR_VIDEOS_SKIPPED_BY_BOUND,
            stats.videos_skipped_by_bound as u64,
        );
        obs.counter(m::CTR_ENTRIES_PRUNED, stats.entries_pruned);
        obs.counter(m::CTR_THRESHOLD_RAISES, stats.threshold_raises);
        obs.counter(m::CTR_VIDEOS_FAILED, stats.videos_failed as u64);
        obs.counter(m::CTR_VIDEOS_UNVISITED, stats.videos_unvisited as u64);
        obs.counter(m::CTR_BEAMS_ABANDONED, stats.beams_abandoned);
        obs.counter(m::CTR_COARSE_CANDIDATES, stats.coarse_candidates as u64);
        obs.counter(m::CTR_COARSE_CUT, stats.coarse_cut as u64);
        obs.counter(m::CTR_COARSE_ZERO_UB, stats.coarse_skipped_zero_ub as u64);
        obs.counter(m::CTR_COARSE_LOOKUPS, stats.coarse_bound_lookups);
        if stats.deadline_expired {
            obs.counter(m::CTR_DEADLINE_EXPIRED, 1);
        }
        if let Some(threshold) = prune_threshold {
            obs.gauge(m::GAUGE_PRUNE_THRESHOLD, threshold);
        }
    }

    /// Steps 3–6 for one video: beam traversal of the Figure-3 lattice,
    /// arena-backed (buffers recycled across videos via the query's
    /// [`TraversalScratch`]), with the exact-safe threshold cuts (sites 2
    /// and 3 of the module docs) when `prune` carries the threshold, which
    /// stays fixed for the whole video.
    fn traverse_video(
        &self,
        video: VideoId,
        pattern: &CompiledPattern,
        prune: Option<(f64, &VideoBounds)>,
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
        let local = &self.model.locals()[video.index()];
        let shots = self.catalog.shots_of_video(video);
        let steps_total = pattern.steps.len();

        // Trim survivors are the only nodes the arena ever holds, so it
        // tops out at beam_width × steps — paths, events and weights are
        // materialized from parent chains only for emitted candidates.
        // All buffers are the query's recycled scratch; clearing at entry
        // (rather than trusting the previous video) also wipes anything a
        // panic-interrupted predecessor left behind.
        let TraversalScratch {
            arena,
            beam,
            pending,
            starts,
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
                    stats.cache_lookups += 1;
                    let (event, sim) = best_alternative(self.model, base + s, first_alts)
                        .expect("alternatives checked non-empty");
                    starts.push((s, event, sim));
                }
            }
        }
        if starts.is_empty() {
            // "…or similar to event e_j": fall back to the most similar
            // shots by features — scored for the whole video in one
            // event-outer sweep over the table rows. Same scores, same
            // earliest-alternative tie-break, same read count as the
            // per-shot scan (see `best_alternative_block`).
            stats.cache_lookups += n as u64;
            best_alternative_block(
                self.model,
                record.shot_range.clone(),
                first_alts,
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
            let w = local.pi1().get(s) * sim;
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
        if beam_is_hopeless(arena, beam, prune, 0, local.a1_row_max(), stats) {
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
                // Only the non-zero forward entries of row `from`, in
                // ascending column order (so the `max_gap` early-break stays
                // valid): `transitions_examined` counts real candidate
                // edges, never structural zeros.
                let (cols, vals) = local.a1().row(from);
                for (&to, &a) in cols.iter().zip(vals.iter()) {
                    let to = to as usize;
                    if let Some(gap) = step.max_gap {
                        if to - from > gap {
                            break;
                        }
                    }
                    stats.transitions_examined += 1;
                    let shot = &shots[to];
                    if step_has_annotation
                        && !shot
                            .events
                            .iter()
                            .any(|&e| step.alternatives.contains(&e.index()))
                    {
                        continue;
                    }
                    if to == from && !same_shot_revisit_ok(&shot.events, entry.event as usize, step)
                    {
                        continue;
                    }
                    stats.cache_lookups += 1;
                    let Some((event, sim)) =
                        best_alternative(self.model, base + to, &step.alternatives)
                    else {
                        continue;
                    };
                    let w = entry.weight * a * sim;
                    if w <= 0.0 {
                        continue;
                    }
                    pending.push(BeamNode {
                        parent: idx,
                        local: to as u32,
                        event: event as u32,
                        weight: w,
                        score: entry.score + w,
                    });
                }
            }
            trim_beam(pending, self.config.beam_width, arena);
            settle(pending, arena, beam);
            if beam.is_empty() {
                // hmmm-lint: allow(no-alloc-in-traversal) empty result
                return Vec::new();
            }
            if beam_is_hopeless(arena, beam, prune, j, local.a1_row_max(), stats) {
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
        // panics after this point can never have raised the threshold
        // with a score that then fails to escape.
        if let Some((threshold, _)) = prune {
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

/// Exact prune site 2: `true` iff the engine keeps a threshold, it has
/// settled above zero, and *every* surviving beam entry's admissible
/// completion bound sits strictly below it — the all-or-nothing abandon.
/// (Dropping a strict subset would be inexact: the width trims downstream
/// would backfill entries the unpruned search cuts, and their descendants
/// can out-score the threshold. See the module docs.)
fn beam_is_hopeless(
    arena: &[BeamNode],
    beam: &[u32],
    prune: Option<(f64, &VideoBounds)>,
    step: usize,
    row_max: &[f64],
    stats: &mut RetrievalStats,
) -> bool {
    let Some((threshold, video_bounds)) = prune else {
        return false;
    };
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
/// candidates from different videos would rank by arrival order, which is
/// the coarse stage's visit order rather than a property of the candidates.
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

    #[test]
    fn coarse_skip_counter_matches_b2_filter() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("corner_kick -> goal").unwrap();
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let (_, stats) = r.retrieve(&pattern, 10).unwrap();
        // Only video 0 has a corner kick in its B2 row.
        assert_eq!(stats.videos_skipped, 1);
        assert_eq!(stats.coarse_candidates, 1);
    }

    #[test]
    fn bounds_come_from_the_index_in_both_regimes() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        for cfg in [RetrievalConfig::default(), RetrievalConfig::content_only()] {
            let r = Retriever::new(&model, &c, cfg).unwrap();
            let (_, stats) = r.retrieve(&pattern, 10).unwrap();
            assert_eq!(stats.bound_evaluations, 0);
            assert!(stats.coarse_bound_lookups > 0);
        }
    }

    #[test]
    fn candidate_cut_truncates_candidates_and_recall_is_monotone() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("goal").unwrap();
        let full = Retriever::new(&model, &c, RetrievalConfig::default())
            .unwrap()
            .retrieve(&pattern, 10)
            .unwrap()
            .0;
        let mut prev_recall = 0.0f64;
        for cut in [1usize, 2, 4] {
            let cfg = RetrievalConfig {
                candidate_cut: Some(cut),
                ..RetrievalConfig::default()
            };
            let r = Retriever::new(&model, &c, cfg).unwrap();
            let (results, stats) = r.retrieve(&pattern, 10).unwrap();
            assert!(stats.coarse_candidates <= cut);
            let hit = full.iter().filter(|p| results.contains(p)).count();
            let recall = hit as f64 / full.len() as f64;
            assert!(recall >= prev_recall, "recall dropped at C={cut}");
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
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let (results, stats) = r
            .retrieve_within(&pattern, 10, Some(&[VideoId(1), VideoId(1)]))
            .unwrap();
        assert!(results.iter().all(|p| p.video == VideoId(1)));
        // A repeated subset entry is one candidate, traversed once.
        assert_eq!(stats.coarse_candidates, 1);
    }
}
