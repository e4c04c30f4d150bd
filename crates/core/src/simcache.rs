//! Query-scoped similarity cache.
//!
//! `retrieve_within` evaluates Eq. (14) for the same (shot, event) pair many
//! times: every beam entry expanding into shot `s` at step `j` re-scores
//! `sim(s, e_j)`, and `calibrated_similarity` re-derives the event's
//! self-similarity denominator on every call. Both are pure functions of the
//! model and the query, so a single dense pass up front — one
//! `shots × query-events` table plus one memoized self-similarity per event —
//! turns every score lookup on the hot path into an array read.
//!
//! The cache is *query-scoped*: it is built once per `retrieve_within` call
//! from the union of event alternatives across the pattern's steps, and
//! read by the traversal of every candidate video.

use crate::model::Hmmm;
use hmmm_media::EventKind;
use hmmm_query::CompiledPattern;

/// Dense per-query table of calibrated Eq.-(14) scores.
#[derive(Debug, Clone)]
pub struct SimCache {
    /// Unique event indices appearing in the pattern (slot → event).
    event_slots: Vec<usize>,
    /// Inverse map (event → slot), `None` for events outside the query.
    slot_of_event: [Option<usize>; EventKind::COUNT],
    /// Calibrated scores, **slot-major**: `scores[slot * shot_count + shot]`
    /// — each event's scores for the whole archive sit in one contiguous
    /// row, so the blocked Eq.-14 kernel fills a row per sweep, per-video
    /// range reads ([`SimCache::calibrated_range`]) are unit-stride.
    scores: Vec<f64>,
    /// Number of shots per row (the archive size at build time).
    shot_count: usize,
    /// Memoized `self_similarity` per event (the Eq.-(14) denominator).
    self_sims: [f64; EventKind::COUNT],
    /// Eq.-(14) evaluations spent building the table (for [`super::RetrievalStats`]).
    evaluations: u64,
}

impl SimCache {
    /// Scores every shot against every event mentioned in `pattern`.
    ///
    /// # Examples
    ///
    /// On the §4.2.1.1 three-shot video, every cached score is bit-identical
    /// to the direct calibrated Eq.-(14) evaluation, and the build cost is
    /// `shots × supported query events`:
    ///
    /// ```
    /// use hmmm_core::sim::calibrated_similarity;
    /// use hmmm_core::{build_hmmm, BuildConfig, SimCache};
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
    /// let cache = SimCache::build(&model, &pattern);
    ///
    /// for shot in 0..model.shot_count() {
    ///     for event in [EventKind::FreeKick.index(), EventKind::Goal.index()] {
    ///         assert_eq!(
    ///             cache.calibrated(shot, event),
    ///             calibrated_similarity(&model, shot, event),
    ///         );
    ///     }
    /// }
    /// // 3 shots × 2 supported query events.
    /// assert_eq!(cache.build_evaluations(), 6);
    /// ```
    pub fn build(model: &Hmmm, pattern: &CompiledPattern) -> Self {
        let shot_count = model.shot_count();
        let mut slot_of_event = [None; EventKind::COUNT];
        let mut event_slots = Vec::new();
        for step in &pattern.steps {
            for &e in &step.alternatives {
                if e < EventKind::COUNT && slot_of_event[e].is_none() {
                    slot_of_event[e] = Some(event_slots.len());
                    event_slots.push(e);
                }
            }
        }

        // Satellite memo: the denominators were folded once when the model
        // built its caches (bitwise equal to `sim::self_similarity`, pinned
        // by `sim::tests::memoized_denominator_matches_reference_bitwise`),
        // so the cache just copies them.
        let mut self_sims = [0.0; EventKind::COUNT];
        for &e in &event_slots {
            self_sims[e] = model.event_terms()[e].self_sim;
        }

        // Each slot's row holds the calibrated scores of that slot's event
        // against every shot, filled by the blocked SoA kernel. The kernel
        // accumulates each cell with the exact operation sequence of the
        // scalar `similarity`, and `cell / denom` is the same single
        // division `calibrated_similarity` performs, so cached scores are
        // bit-identical to direct ones (the ranking-neutrality property
        // depends on that). Events with no feature support keep their
        // pre-zeroed cells, matching `calibrated_similarity`'s definition,
        // at zero cost.
        let mut scores = vec![0.0; event_slots.len() * shot_count];
        let mut evaluations = 0u64;
        if shot_count > 0 {
            for (&event, row) in event_slots.iter().zip(scores.chunks_mut(shot_count)) {
                let denom = self_sims[event];
                if denom <= 0.0 {
                    continue;
                }
                crate::sim::similarity_into(model, 0..shot_count, event, row);
                for cell in row.iter_mut() {
                    *cell /= denom;
                }
                evaluations += shot_count as u64;
            }
        }

        SimCache {
            event_slots,
            slot_of_event,
            scores,
            shot_count,
            self_sims,
            evaluations,
        }
    }

    /// The cached calibrated Eq.-14 scores of every shot in `shots` (a
    /// global shot-id range) against `event`, as one contiguous slice —
    /// slot `i` is `calibrated(shots.start + i, event)`. `None` for events
    /// outside the query (whose scores are all `0.0` by definition);
    /// callers treat that as a zero row. This is the slot-major layout's
    /// payoff: per-video start scoring becomes a unit-stride sweep.
    pub fn calibrated_range(&self, shots: std::ops::Range<usize>, event: usize) -> Option<&[f64]> {
        let slot = self.slot_of_event.get(event).copied().flatten()?;
        let base = slot * self.shot_count;
        Some(&self.scores[base + shots.start..base + shots.end])
    }

    /// Eq.-(14) evaluations the build performed (`shots × supported events`).
    pub fn build_evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Number of distinct events the cache covers.
    pub fn event_count(&self) -> usize {
        self.event_slots.len()
    }

    /// Memoized [`crate::sim::self_similarity`] (the Eq.-14 calibration
    /// denominator) — exact, not re-derived per call.
    pub fn self_similarity(&self, event: usize) -> f64 {
        self.self_sims[event]
    }

    /// Cached [`crate::sim::calibrated_similarity`] (Eq. 14, rescaled by
    /// the event's self-similarity). Events outside the query
    /// pattern score `0.0` (they cannot occur on the traversal hot path).
    pub fn calibrated(&self, shot: usize, event: usize) -> f64 {
        match self.slot_of_event.get(event).copied().flatten() {
            Some(slot) => self.scores[slot * self.shot_count + shot],
            None => 0.0,
        }
    }

    /// Cached [`crate::sim::best_alternative`]: best `(event, score)` among
    /// `events` for `shot` by calibrated Eq.-14 score. Ties keep the
    /// earliest alternative, matching the
    /// direct implementation's deterministic tie-break.
    pub fn best_alternative(&self, shot: usize, events: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for &e in events {
            let s = self.calibrated(shot, e);
            match best {
                Some((_, bs)) if s <= bs => {}
                _ => best = Some((e, s)),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use crate::sim::{best_alternative, calibrated_similarity};
    use hmmm_features::{FeatureId, FeatureVector};
    use hmmm_query::QueryTranslator;
    use hmmm_storage::Catalog;

    fn feat(g: f64, v: f64) -> FeatureVector {
        let mut f = FeatureVector::zeros();
        f[FeatureId::GrassRatio] = g;
        f[FeatureId::VolumeMean] = v;
        f
    }

    fn model() -> Hmmm {
        let mut c = Catalog::new();
        c.add_video(
            "a",
            vec![
                (vec![EventKind::Goal], feat(0.8, 0.9)),
                (vec![EventKind::FreeKick], feat(0.3, 0.1)),
                (vec![], feat(0.5, 0.5)),
            ],
        );
        c.add_video(
            "b",
            vec![
                (vec![EventKind::CornerKick], feat(0.7, 0.3)),
                (vec![EventKind::Goal], feat(0.82, 0.88)),
            ],
        );
        build_hmmm(&c, &BuildConfig::default()).unwrap()
    }

    fn pattern() -> CompiledPattern {
        QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
            .compile("free_kick|corner_kick -> goal")
            .unwrap()
    }

    #[test]
    fn matches_direct_similarity_exactly() {
        let m = model();
        let p = pattern();
        let cache = SimCache::build(&m, &p);
        for shot in 0..m.shot_count() {
            for step in &p.steps {
                for &e in &step.alternatives {
                    let direct = calibrated_similarity(&m, shot, e);
                    let cached = cache.calibrated(shot, e);
                    assert!(
                        (direct - cached).abs() <= 1e-12,
                        "shot {shot} event {e}: direct {direct} cached {cached}"
                    );
                }
            }
        }
    }

    #[test]
    fn best_alternative_agrees_with_direct() {
        let m = model();
        let p = pattern();
        let cache = SimCache::build(&m, &p);
        for shot in 0..m.shot_count() {
            for step in &p.steps {
                let direct = best_alternative(&m, shot, &step.alternatives).unwrap();
                let cached = cache.best_alternative(shot, &step.alternatives).unwrap();
                assert_eq!(direct.0, cached.0, "event choice diverged at shot {shot}");
                assert!((direct.1 - cached.1).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn self_similarity_is_memoized_exactly(){
        let m = model();
        let cache = SimCache::build(&m, &pattern());
        for e in [
            EventKind::Goal.index(),
            EventKind::FreeKick.index(),
            EventKind::CornerKick.index(),
        ] {
            assert_eq!(cache.self_similarity(e), crate::sim::self_similarity(&m, e));
        }
    }

    #[test]
    fn covers_only_query_events() {
        let m = model();
        let cache = SimCache::build(&m, &pattern());
        assert_eq!(cache.event_count(), 3);
        // An event outside the pattern reads as zero rather than panicking.
        assert_eq!(cache.calibrated(0, EventKind::RedCard.index()), 0.0);
    }

    #[test]
    fn calibrated_range_is_contiguous_and_exact() {
        let m = model();
        let cache = SimCache::build(&m, &pattern());
        let goal = EventKind::Goal.index();
        // Video "b" owns shots 3..5.
        let row = cache.calibrated_range(3..5, goal).unwrap();
        assert_eq!(row.len(), 2);
        for (i, &s) in row.iter().enumerate() {
            assert_eq!(s.to_bits(), cache.calibrated(3 + i, goal).to_bits());
        }
        // Events outside the query have no row (callers read zeros).
        assert!(cache
            .calibrated_range(0..5, EventKind::RedCard.index())
            .is_none());
    }

    #[test]
    fn build_evaluation_count_is_dense() {
        let m = model();
        let p = pattern();
        let cache = SimCache::build(&m, &p);
        // Every (shot, event) pair is evaluated exactly once — except rows
        // for events with no feature support, which are zero by definition
        // and skipped without touching Eq. (14).
        let supported: Vec<usize> = p
            .steps
            .iter()
            .flat_map(|s| s.alternatives.iter().copied())
            .filter(|&e| crate::sim::self_similarity(&m, e) > 0.0)
            .collect();
        assert!(!supported.is_empty());
        assert_eq!(
            cache.build_evaluations(),
            (m.shot_count() * supported.len()) as u64
        );
    }
}
