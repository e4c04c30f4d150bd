//! The ingest-time coarse index: the first stage of every retrieval.
//!
//! The paper's level-2 structure (Definition 1: `B_2` event counts and the
//! `Π_2` prior over videos) already answers the Step-2 eligibility question
//! — "which videos exhibit this event at all?" — without touching a single
//! shot. [`CoarseIndex`] materializes that answer at build time as an
//! inverted event → video index ([`CoarseIndex::postings`]) and pairs it
//! with **precomputed per-video bound summaries**: for every
//! `(video, event)` cell, the largest calibrated Eq.-14 similarity any of
//! the video's shots attains, and the largest Eq.-12 start weight
//! (`Π_1(s) · sim(s, e)`, with and without the shot's forward `A_1` row
//! maximum folded in). A query then derives an *admissible* per-video upper
//! bound on any Eq.-15 score the video can produce from
//! `O(steps × alternatives)` table lookups ([`CoarseIndex::video_bounds`])
//! — no Eq.-14 work, no archive scan.
//!
//! This module owns "which videos, under what bound":
//! [`CoarseIndex::candidates`] enumerates the Step-2 candidates, derives
//! each one's bounds, and orders them for the fine stage
//! ([`crate::Retriever`]), which prunes against exactly those bounds.
//!
//! The index is a **derived cache** of the model, like the packed event
//! terms and the calibrated Eq.-14 score table it is folded from: private
//! to the model, never persisted, and rebuilt from the sources by every
//! writer (construction, each feedback round, deserialization), so it
//! always folds the matrices it sits beside.
//!
//! # Why the bounds are admissible
//!
//! For a fixed video `v` and event `e`:
//!
//! * every Eq.-13 edge into a shot matching `e` multiplies by at most
//!   `sim_max(v, e)` (the max is over *all* of `v`'s shots);
//! * every Eq.-12 start weight `Π_1(s) · sim(s, e)` is at most
//!   `start_max(v, e)`;
//! * a start entry's first hop multiplies by its own shot's forward row
//!   maximum, so `Π_1(s) · sim(s, e) · a1_row_max[s] ≤ start_joint(v, e)`.
//!
//! The whole-video bound folds these as `max_e [start_max(v, e) +
//! chain_0 · start_joint(v, e)]` over the first step's alternatives, where
//! `chain_0` is the [`QueryBounds`] completion chain built from the
//! *per-video* step maxima. Per start shot, the true quantity is
//! `w_0(s) · (1 + row_max(s) · chain_0)`; bounding the sum by the sum of
//! per-term maxima (`max_s a + max_s b ≥ max_s (a + b)`) keeps it
//! admissible. A joint per-shot fold would be tighter, but it needs every
//! shot's similarity at query time — a scan per candidate. The separable
//! form costs two table reads per first-step alternative, so both regimes
//! get their bounds for free. The per-step maxima are exact either way:
//! `sim_max` is the per-video maximum itself.
//!
//! # Why zero-bound skips are exact
//!
//! A whole-video bound of exactly zero forces `start_max(v, e) = 0` for
//! every first-step alternative `e`, i.e. `Π_1(s) · sim(s, e) = 0` for
//! every shot. A start entry needs a strictly positive Eq.-12 weight, so
//! such a video can never emit a candidate: [`CoarseIndex::candidates`]
//! drops it even when pruning is off.

use crate::bounds::{QueryBounds, VideoBounds};
use crate::model::{Hmmm, LocalMmm};
use crate::retrieve::{RetrievalConfig, RetrievalStats};
use hmmm_media::EventKind;
use hmmm_query::CompiledPattern;
use hmmm_storage::VideoId;

/// The ingest-time candidate index + per-video bound summaries (see the
/// module docs). Flat `f64` tables are indexed `[video × EventKind::COUNT
/// + event]`; postings lists hold ascending video indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoarseIndex {
    /// Inverted `B_2` signature: `postings[e]` lists (ascending) every
    /// video whose `B_2[v][e] > 0` — the videos that pass the paper's
    /// Step-2 first-event check for `e`.
    postings: Vec<Vec<u32>>,
    /// `sim_max[v·C + e]` — largest calibrated Eq.-14 similarity any shot
    /// of video `v` attains against event `e` (the per-video per-step
    /// similarity ceiling `sm_j` of [`QueryBounds`]).
    sim_max: Vec<f64>,
    /// `start_max[v·C + e] = max_s Π_1(s) · sim(s, e)` — the largest
    /// Eq.-12 start weight video `v` can admit for event `e`.
    start_max: Vec<f64>,
    /// `start_joint[v·C + e] = max_s Π_1(s) · sim(s, e) · a1_row_max[s]` —
    /// the start weight with the shot's own forward `A_1` row maximum
    /// (first Eq.-13 hop) folded in.
    start_joint: Vec<f64>,
}

impl CoarseIndex {
    /// Builds the index from a model: the model's calibrated Eq.-14 score
    /// table ([`Hmmm::sim_row`]) folded per video into the
    /// `sim_max`/`start_max`/`start_joint` summaries (Eqs. 12–14 maxima),
    /// plus the inverted `B_2` postings (Step 2's eligibility signature).
    ///
    /// The summaries are bitwise maxima of the very scores the traversal
    /// reads, because they are folded from the same table.
    pub fn build(model: &Hmmm) -> Self {
        let videos = model.video_count();
        let cells = videos * EventKind::COUNT;
        let mut index = CoarseIndex {
            postings: vec![Vec::new(); EventKind::COUNT],
            sim_max: vec![0.0; cells],
            start_max: vec![0.0; cells],
            start_joint: vec![0.0; cells],
        };
        for e in 0..EventKind::COUNT {
            let scores = model.sim_row(e);
            // L_{1,2} is dense and implicit: each video's shots are the
            // next `local.len()` global ids, in order.
            let mut offset = 0usize;
            for (v, local) in model.locals().iter().enumerate() {
                let cell = v * EventKind::COUNT + e;
                let mut sim_max = 0.0f64;
                let mut start_max = 0.0f64;
                let mut start_joint = 0.0f64;
                for (s, &sim) in scores[offset..offset + local.len()].iter().enumerate() {
                    sim_max = sim_max.max(sim);
                    let w = local.pi1().get(s) * sim;
                    start_max = start_max.max(w);
                    start_joint = start_joint.max(w * local.a1_row_max()[s]);
                }
                index.sim_max[cell] = sim_max;
                index.start_max[cell] = start_max;
                index.start_joint[cell] = start_joint;
                offset += local.len();
            }
            index.postings[e] = (0..videos)
                .filter(|&v| model.b2()[v][e] > 0)
                .map(|v| v as u32)
                .collect();
        }
        index
    }

    /// `B_2`-eligible videos for `event` (ascending indices) — the
    /// inverted form of the paper's Step-2 first-event check, so candidate
    /// enumeration reads one postings list instead of scanning every
    /// video's `B_2` row.
    pub fn postings(&self, event: usize) -> &[u32] {
        &self.postings[event]
    }

    /// Largest calibrated Eq.-14 similarity any shot of `video` attains
    /// against `event` — the per-step similarity ceiling `sm_j` of the
    /// video's Eq.-13 completion chain.
    pub fn sim_max(&self, video: usize, event: usize) -> f64 {
        self.sim_max[video * EventKind::COUNT + event]
    }

    /// Admissible per-video bounds for one query, from table lookups only
    /// (see the module docs for the admissibility argument): per-step
    /// similarity maxima feed the [`QueryBounds`] completion chain
    /// (Eq. 13's per-hop ceiling), and the whole-video bound folds the
    /// Eq.-12 start summaries `max_e [start_max + chain_0 · start_joint]`
    /// over the first step's alternatives. Costs
    /// `Σ_j |alternatives_j| + 2 · |alternatives_0|` table reads — see
    /// [`CoarseIndex::bound_lookups`].
    pub fn video_bounds(
        &self,
        video: usize,
        local: &LocalMmm,
        pattern: &CompiledPattern,
    ) -> VideoBounds {
        let step_max: Vec<f64> = pattern
            .steps
            .iter()
            .map(|step| {
                step.alternatives
                    .iter()
                    .map(|&e| self.sim_max(video, e))
                    .fold(0.0, f64::max)
            })
            .collect();
        let vb = QueryBounds::new(step_max).for_video(local);
        let chain0 = vb.chain0();
        let base = video * EventKind::COUNT;
        let raw_ub = pattern.steps[0]
            .alternatives
            .iter()
            .map(|&e| self.start_max[base + e] + chain0 * self.start_joint[base + e])
            .fold(0.0, f64::max);
        vb.with_video_ub(raw_ub)
    }

    /// Table reads one [`CoarseIndex::video_bounds`] call performs for
    /// `pattern` (the Step-2-to-fine admission cost the coarse counters
    /// report): one `sim_max` read per step alternative plus the two start
    /// summaries per first-step alternative.
    pub fn bound_lookups(pattern: &CompiledPattern) -> u64 {
        let step_reads: usize = pattern.steps.iter().map(|s| s.alternatives.len()).sum();
        (step_reads + 2 * pattern.steps[0].alternatives.len()) as u64
    }

    /// The coarse stage of every retrieval: the Step-2 candidate videos,
    /// each with its admissible [`VideoBounds`], in fine-stage visit order.
    ///
    /// * Enumeration: every video (or every valid, distinct video of
    ///   `subset`), kept only if some first-step alternative's postings
    ///   list it when [`RetrievalConfig::require_first_event`] is on — the
    ///   paper's `B_2` check, read from the inverted index. Rejects are
    ///   charged to `videos_skipped`.
    /// * Bounds: [`CoarseIndex::video_bounds`]; a video whose bound is
    ///   exactly zero is dropped (`coarse_skipped_zero_ub`), which is exact
    ///   (see the module docs).
    /// * Order: bound desc, index asc — a total order, so visit order only
    ///   affects timing-dependent counters, never the ranking, and cuts at
    ///   increasing [`RetrievalConfig::candidate_cut`] are nested prefixes.
    pub fn candidates(
        &self,
        model: &Hmmm,
        pattern: &CompiledPattern,
        config: &RetrievalConfig,
        subset: Option<&[VideoId]>,
        stats: &mut RetrievalStats,
    ) -> Vec<(VideoId, VideoBounds)> {
        let video_count = model.video_count();
        let mut videos: Vec<usize> = match subset {
            Some(subset) => {
                let mut videos: Vec<usize> = subset
                    .iter()
                    .map(|v| v.index())
                    .filter(|&v| v < video_count)
                    .collect();
                videos.sort_unstable();
                videos.dedup();
                videos
            }
            None => (0..video_count).collect(),
        };
        if config.require_first_event {
            let mut eligible = vec![false; video_count];
            for &e in &pattern.steps[0].alternatives {
                for &v in self.postings(e) {
                    eligible[v as usize] = true;
                }
            }
            let before = videos.len();
            videos.retain(|&v| eligible[v]);
            stats.videos_skipped += before - videos.len();
        }

        let lookups = Self::bound_lookups(pattern);
        let mut candidates: Vec<(VideoId, VideoBounds)> = Vec::with_capacity(videos.len());
        for v in videos {
            stats.coarse_bound_lookups += lookups;
            let bounds = self.video_bounds(v, &model.locals()[v], pattern);
            if bounds.video_ub() <= 0.0 {
                stats.coarse_skipped_zero_ub += 1;
            } else {
                candidates.push((VideoId(v), bounds));
            }
        }
        candidates.sort_by(|a, b| {
            crate::order::cmp_f64_desc(a.1.video_ub(), b.1.video_ub()).then_with(|| a.0.cmp(&b.0))
        });
        if let Some(cut) = config.candidate_cut {
            if candidates.len() > cut {
                stats.coarse_cut = candidates.len() - cut;
                candidates.truncate(cut);
            }
        }
        stats.coarse_candidates = candidates.len();
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use crate::sim::calibrated_similarity;
    use hmmm_features::{FeatureId, FeatureVector};
    use hmmm_query::QueryTranslator;
    use hmmm_storage::Catalog;

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
                (vec![EventKind::FreeKick], feat(0.3, 0.2)),
                (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8, 0.9)),
                (vec![EventKind::CornerKick], feat(0.5, 0.4)),
            ],
        );
        c.add_video(
            "m2",
            vec![
                (vec![EventKind::Goal], feat(0.9, 0.8)),
                (vec![], feat(0.1, 0.2)),
            ],
        );
        c
    }

    fn translator() -> QueryTranslator {
        QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
    }

    #[test]
    fn postings_mirror_b2_ascending() {
        let c = catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let goal = EventKind::Goal.index();
        let fk = EventKind::FreeKick.index();
        let ck = EventKind::CornerKick.index();
        assert_eq!(m.coarse().postings(goal), &[0, 1]);
        assert_eq!(m.coarse().postings(fk), &[0]);
        assert_eq!(m.coarse().postings(ck), &[0]);
        assert_eq!(
            m.coarse().postings(EventKind::RedCard.index()),
            &[] as &[u32]
        );
        for e in 0..EventKind::COUNT {
            for pair in m.coarse().postings(e).windows(2) {
                assert!(pair[0] < pair[1], "postings not ascending");
            }
        }
    }

    #[test]
    fn summaries_match_scalar_folds() {
        let c = catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let mut offset = 0usize;
        for (v, local) in m.locals().iter().enumerate() {
            for e in 0..EventKind::COUNT {
                let mut sim_max = 0.0f64;
                let mut start_max = 0.0f64;
                let mut start_joint = 0.0f64;
                for s in 0..local.len() {
                    let sim = calibrated_similarity(&m, offset + s, e);
                    sim_max = sim_max.max(sim);
                    let w = local.pi1().get(s) * sim;
                    start_max = start_max.max(w);
                    start_joint = start_joint.max(w * local.a1_row_max()[s]);
                }
                assert_eq!(m.coarse().sim_max(v, e).to_bits(), sim_max.to_bits());
                assert_eq!(
                    m.coarse().start_max[v * EventKind::COUNT + e].to_bits(),
                    start_max.to_bits()
                );
                assert_eq!(
                    m.coarse().start_joint[v * EventKind::COUNT + e].to_bits(),
                    start_joint.to_bits()
                );
            }
            offset += local.len();
        }
    }

    #[test]
    fn video_bounds_dominate_retrieved_scores() {
        let c = catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let r = crate::Retriever::new(&m, &c, crate::RetrievalConfig::content_only()).unwrap();
        let (results, _) = r.retrieve(&pattern, 10).unwrap();
        assert!(!results.is_empty());
        for p in &results {
            let v = p.video.index();
            let vb = m.coarse().video_bounds(v, &m.locals()[v], &pattern);
            assert!(
                vb.video_ub() >= p.score,
                "coarse bound {} below retrieved score {} for video {v}",
                vb.video_ub(),
                p.score
            );
        }
    }

    #[test]
    fn bound_lookups_counts_table_reads() {
        let pattern = translator().compile("free_kick|corner_kick -> goal").unwrap();
        // 2 + 1 step reads, plus 2 × 2 start reads on the first step.
        assert_eq!(CoarseIndex::bound_lookups(&pattern), 7);
    }
}
