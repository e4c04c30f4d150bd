//! Brute-force content scan.

use hmmm_core::{
    CoreError, DeadlineConfig, Degraded, DegradedReason, Hmmm, QueryBounds, RankedPattern,
    RetrievalStats, TopKThreshold,
};
use hmmm_media::EventKind;
use hmmm_query::CompiledPattern;
use hmmm_storage::{Catalog, ShotId};
use std::time::Instant;

/// Limits for the exhaustive scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveConfig {
    /// Hard cap on scored combinations per video (the scan aborts the
    /// video's enumeration beyond it — brute force must stay finite).
    pub max_combinations_per_video: u64,
    /// Branch-and-bound against the running k-th best score (default
    /// `false`: the baseline's point is the unpruned cost curve).
    ///
    /// Unlike the beam traversal, the DFS has no width trims, so the
    /// classic frame-level cut is exact here: dropping one enumeration
    /// frame whose admissible completion bound is below the current k-th
    /// best cannot change which combinations the other frames reach.
    /// Rankings are identical either way; only the work counters move.
    pub prune: bool,
    /// Optional wall-clock budget, checked at video granularity: once it
    /// elapses the scan stops admitting videos and returns the
    /// best-so-far ranking marked [`Degraded`] — the same anytime
    /// contract as [`hmmm_core::RetrievalConfig::deadline`], minus the
    /// mid-traversal beam checks the DFS has no beams for. Keeping the
    /// baseline deadline-aware keeps head-to-head latency sweeps honest:
    /// both engines answer within the same budget and report how much of
    /// the archive they covered.
    pub deadline: Option<DeadlineConfig>,
}

impl Default for ExhaustiveConfig {
    fn default() -> Self {
        ExhaustiveConfig {
            max_combinations_per_video: 5_000_000,
            prune: false,
            deadline: None,
        }
    }
}

/// One depth-first enumeration frame:
/// (depth, running weight, running score, path, events, weights).
type SearchFrame = (usize, f64, f64, Vec<usize>, Vec<usize>, Vec<f64>);

/// The brute-force retriever: enumerates every temporally ordered shot
/// combination (subject to gap bounds) in every video and scores it with
/// the same Eq. 12–15 weights as the HMMM traversal — the "no model, just
/// search" upper bound on work.
pub struct ExhaustiveRetriever<'a> {
    model: &'a Hmmm,
    catalog: &'a Catalog,
    config: ExhaustiveConfig,
}

impl<'a> ExhaustiveRetriever<'a> {
    /// Creates the retriever (model/catalog must match).
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] on shape mismatch.
    pub fn new(
        model: &'a Hmmm,
        catalog: &'a Catalog,
        config: ExhaustiveConfig,
    ) -> Result<Self, CoreError> {
        model.validate_against(catalog)?;
        Ok(ExhaustiveRetriever {
            model,
            catalog,
            config,
        })
    }

    /// Scores all combinations; returns the top `limit` and work counters.
    ///
    /// With [`ExhaustiveConfig::prune`] the rankings are still exact as
    /// long as the per-video combination budget does not bind (pruning
    /// saves emissions, so a budget-capped pruned run can reach deeper
    /// than the capped unpruned run would).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadQuery`] for empty patterns and out-of-range event
    /// indices.
    pub fn retrieve(
        &self,
        pattern: &CompiledPattern,
        limit: usize,
    ) -> Result<(Vec<RankedPattern>, RetrievalStats), CoreError> {
        if pattern.is_empty() {
            return Err(CoreError::BadQuery("empty pattern".into()));
        }
        if let Some(&bad) = pattern
            .steps
            .iter()
            .flat_map(|step| &step.alternatives)
            .find(|&&e| e >= EventKind::COUNT)
        {
            return Err(CoreError::BadQuery(format!(
                "event index {bad} out of range"
            )));
        }
        let mut stats = RetrievalStats::default();
        let mut results: Vec<RankedPattern> = Vec::new();

        // Running k-th-best register for the optional branch-and-bound cut
        // (same primitive the beam traversal prunes against).
        let mut register = self.config.prune.then(|| TopKThreshold::new(limit));

        // Deadline is read once per video — the coarsest anytime
        // granularity, matching how this scan admits work.
        let expires_at = self.config.deadline.map(|d| Instant::now() + d.budget);

        let videos = self.catalog.videos();
        for (vi, video) in videos.iter().enumerate() {
            if let Some(at) = expires_at {
                if Instant::now() >= at {
                    stats.deadline_expired = true;
                    stats.videos_unvisited += videos.len() - vi;
                    break;
                }
            }
            let base = video.shot_range.start;
            let n = video.shot_count();
            let local = &self.model.locals()[video.id.index()];

            // The same per-epoch score table the HMMM retriever reads: every
            // (step, shot) score is an array read, no Eq.-14 evaluation.
            stats.cache_lookups += (pattern.steps.len() * n) as u64;
            let step_sims: Vec<Vec<(usize, f64)>> = pattern
                .steps
                .iter()
                .map(|step| {
                    (0..n)
                        .map(|s| best_alternative(self.model, base + s, &step.alternatives))
                        .collect()
                })
                .collect();

            // Per-video completion bounds from this video's own step maxima
            // (tighter than the archive-wide maxima the beam traversal uses,
            // since `step_sims` is already dense here).
            let bounds = register.as_ref().map(|_| {
                let step_max: Vec<f64> = step_sims
                    .iter()
                    .map(|col| col.iter().map(|&(_, s)| s).fold(0.0, f64::max))
                    .collect();
                let vb = QueryBounds::new(step_max).for_video(local);
                // Refine the whole-video bound with the exact per-shot
                // start fold — `step_sims` is dense, so this is free.
                let chain0 = vb.chain0();
                let raw_ub = step_sims[0]
                    .iter()
                    .enumerate()
                    .map(|(s, &(_, sim))| {
                        local.pi1().get(s) * sim * (1.0 + local.a1_row_max()[s] * chain0)
                    })
                    .fold(0.0, f64::max);
                vb.with_video_ub(raw_ub)
            });
            if let (Some(reg), Some(vb)) = (register.as_ref(), bounds.as_ref()) {
                if vb.video_ub() < reg.threshold() {
                    stats.videos_skipped_by_bound += 1;
                    continue;
                }
            }
            stats.videos_visited += 1;

            // Depth-first enumeration of ordered combinations.
            let mut budget = self.config.max_combinations_per_video;
            let mut stack: Vec<SearchFrame> = Vec::new();
            for (s, &(event, sim)) in step_sims[0].iter().enumerate() {
                let w = local.pi1().get(s) * sim;
                if w <= 0.0 {
                    continue;
                }
                stack.push((1, w, w, vec![s], vec![event], vec![w]));
            }
            while let Some((depth, w, score, path, events, weights)) = stack.pop() {
                if budget == 0 {
                    break;
                }
                // Frame cut: the best completion of this frame cannot reach
                // the current k-th best, and the DFS has no trims for the
                // drop to perturb — skip it and everything below it.
                if let (Some(reg), Some(vb)) = (register.as_ref(), bounds.as_ref()) {
                    let from = *path.last().expect("path non-empty");
                    let row_max = local.a1_row_max()[from];
                    if vb.entry_ub(score, w, depth - 1, row_max) < reg.threshold() {
                        stats.entries_pruned += 1;
                        continue;
                    }
                }
                if depth == pattern.steps.len() {
                    budget -= 1;
                    stats.candidates_scored += 1;
                    if let Some(reg) = register.as_mut() {
                        if reg.offer(score) {
                            stats.threshold_raises += 1;
                        }
                    }
                    results.push(RankedPattern {
                        video: video.id,
                        shots: path.iter().map(|&s| ShotId(base + s)).collect(),
                        events,
                        score,
                        weights,
                    });
                    keep_top(&mut results, limit.max(1) * 4);
                    continue;
                }
                let step = &pattern.steps[depth];
                let from = *path.last().expect("path non-empty");
                for (to, &(event, sim)) in step_sims[depth].iter().enumerate().take(n).skip(from) {
                    if let Some(gap) = step.max_gap {
                        if to - from > gap {
                            break;
                        }
                    }
                    if to == from {
                        continue; // combinations use distinct shots
                    }
                    stats.transitions_examined += 1;
                    let a = local.a1().get(from, to);
                    let w2 = w * a * sim;
                    if w2 <= 0.0 {
                        continue;
                    }
                    let mut p2 = path.clone();
                    p2.push(to);
                    let mut e2 = events.clone();
                    e2.push(event);
                    let mut ws2 = weights.clone();
                    ws2.push(w2);
                    stack.push((depth + 1, w2, score + w2, p2, e2, ws2));
                }
            }
        }

        results.sort_by(total_rank);
        results.truncate(limit);
        if stats.deadline_expired {
            stats.degraded = Some(Degraded {
                videos_unvisited: stats.videos_unvisited,
                videos_failed: 0,
                reason: DegradedReason::DeadlineExpired,
            });
        }
        Ok((results, stats))
    }
}

/// The best `(event, score)` among `events` for the global `shot`, read from
/// the model's table: ties keep the earliest alternative, as in
/// [`hmmm_core::sim::best_alternative`]; no alternatives score `(0, 0.0)`.
fn best_alternative(model: &Hmmm, shot: usize, events: &[usize]) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for &e in events {
        let s = model.sim_row(e)[shot];
        match best {
            Some((_, bs)) if s <= bs => {}
            _ => best = Some((e, s)),
        }
    }
    best.unwrap_or((0, 0.0))
}

/// Total order matching the HMMM retriever's ranking: score desc, then
/// video asc, then shot sequence asc — equal scores rank deterministically.
fn total_rank(a: &RankedPattern, b: &RankedPattern) -> std::cmp::Ordering {
    hmmm_core::order::cmp_f64_desc(a.score, b.score)
        .then_with(|| a.video.cmp(&b.video))
        .then_with(|| a.shots.cmp(&b.shots))
}

/// Bounded insertion: keep the vector from growing without losing the top.
fn keep_top(results: &mut Vec<RankedPattern>, cap: usize) {
    if results.len() > cap * 2 {
        results.sort_by(total_rank);
        results.truncate(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
    use hmmm_features::{FeatureId, FeatureVector};
    use hmmm_media::EventKind;
    use hmmm_query::QueryTranslator;

    fn feat(g: f64, v: f64) -> FeatureVector {
        let mut f = FeatureVector::zeros();
        f[FeatureId::GrassRatio] = g;
        f[FeatureId::VolumeMean] = v;
        f
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_video(
            "m1",
            vec![
                (vec![EventKind::FreeKick], feat(0.7, 0.2)),
                (vec![], feat(0.5, 0.5)),
                (vec![EventKind::Goal], feat(0.8, 0.9)),
                (vec![EventKind::Goal], feat(0.75, 0.95)),
            ],
        );
        c
    }

    fn translator() -> QueryTranslator {
        QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
    }

    #[test]
    fn exhaustive_finds_global_optimum() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let ex = ExhaustiveRetriever::new(&model, &c, ExhaustiveConfig::default()).unwrap();
        let (results, stats) = ex.retrieve(&pattern, 10).unwrap();
        assert!(!results.is_empty());
        assert!(stats.candidates_scored >= 2); // (0,2) and (0,3) at least
        // HMMM traversal's best can never beat the exhaustive best.
        let r = Retriever::new(&model, &c, RetrievalConfig::default()).unwrap();
        let (hmmm_results, _) = r.retrieve(&pattern, 10).unwrap();
        assert!(results[0].score >= hmmm_results[0].score - 1e-12);
    }

    #[test]
    fn exhaustive_respects_gap_bound() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("free_kick ->[1] goal").unwrap();
        let ex = ExhaustiveRetriever::new(&model, &c, ExhaustiveConfig::default()).unwrap();
        let (results, _) = ex.retrieve(&pattern, 10).unwrap();
        for r in &results {
            let a = c.shot(r.shots[0]).unwrap().index_in_video;
            let b = c.shot(r.shots[1]).unwrap().index_in_video;
            assert!(b - a <= 1);
        }
    }

    #[test]
    fn combination_budget_is_respected() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("goal").unwrap();
        let tight = ExhaustiveConfig {
            max_combinations_per_video: 1,
            ..ExhaustiveConfig::default()
        };
        let ex = ExhaustiveRetriever::new(&model, &c, tight).unwrap();
        let (_, stats) = ex.retrieve(&pattern, 10).unwrap();
        assert!(stats.candidates_scored <= 1);
    }

    #[test]
    fn branch_and_bound_is_ranking_exact() {
        let mut c = catalog();
        // A second, weaker video gives the bound something to skip once the
        // first video has filled the register.
        c.add_video(
            "m2",
            vec![
                (vec![EventKind::FreeKick], feat(0.2, 0.1)),
                (vec![EventKind::Goal], feat(0.3, 0.2)),
            ],
        );
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let plain = ExhaustiveRetriever::new(&model, &c, ExhaustiveConfig::default()).unwrap();
        let pruned_cfg = ExhaustiveConfig {
            prune: true,
            ..ExhaustiveConfig::default()
        };
        let pruned = ExhaustiveRetriever::new(&model, &c, pruned_cfg).unwrap();
        for limit in [1, 2, 5, 10] {
            let (a, a_stats) = plain.retrieve(&pattern, limit).unwrap();
            let (b, b_stats) = pruned.retrieve(&pattern, limit).unwrap();
            assert_eq!(a, b, "limit {limit}");
            assert_eq!(a_stats.entries_pruned, 0);
            assert!(b_stats.transitions_examined <= a_stats.transitions_examined);
        }
    }

    #[test]
    fn zero_deadline_degrades_before_any_video() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let cfg = ExhaustiveConfig {
            deadline: Some(hmmm_core::DeadlineConfig::new(std::time::Duration::ZERO)),
            ..ExhaustiveConfig::default()
        };
        let ex = ExhaustiveRetriever::new(&model, &c, cfg).unwrap();
        let (results, stats) = ex.retrieve(&pattern, 10).unwrap();
        assert!(results.is_empty());
        assert!(stats.deadline_expired);
        assert_eq!(stats.videos_unvisited, c.video_count());
        assert_eq!(stats.videos_visited, 0);
        let degraded = stats.degraded.expect("degraded marker");
        assert_eq!(degraded.reason, hmmm_core::DegradedReason::DeadlineExpired);
        assert_eq!(degraded.videos_unvisited, c.video_count());
    }

    #[test]
    fn generous_deadline_is_a_no_op() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let plain = ExhaustiveRetriever::new(&model, &c, ExhaustiveConfig::default()).unwrap();
        let cfg = ExhaustiveConfig {
            deadline: Some(hmmm_core::DeadlineConfig::new(std::time::Duration::from_secs(
                3600,
            ))),
            ..ExhaustiveConfig::default()
        };
        let bounded = ExhaustiveRetriever::new(&model, &c, cfg).unwrap();
        let (a, a_stats) = plain.retrieve(&pattern, 10).unwrap();
        let (b, b_stats) = bounded.retrieve(&pattern, 10).unwrap();
        assert_eq!(a, b);
        assert_eq!(a_stats, b_stats);
        assert!(b_stats.degraded.is_none());
    }

    #[test]
    fn empty_pattern_rejected() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let ex = ExhaustiveRetriever::new(&model, &c, ExhaustiveConfig::default()).unwrap();
        assert!(ex
            .retrieve(&CompiledPattern { steps: vec![] }, 5)
            .is_err());
    }
}
