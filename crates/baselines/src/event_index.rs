//! ClassView-style inverted event index.

use hmmm_core::sim::best_alternative;
use hmmm_core::{CoreError, Hmmm, RankedPattern, RetrievalStats};
use hmmm_media::EventKind;
use hmmm_query::CompiledPattern;
use hmmm_storage::{Catalog, ShotId, VideoId};

/// An inverted index `event → sorted shot ids`, joined in temporal order —
/// the hash-table-per-concept design of ClassView (ref \[10\] of the paper).
///
/// Exact over *annotated* shots: it retrieves precisely the sequences whose
/// every step is annotated, and ranks them with the same Eq. 12–15 scoring
/// for comparability. What it cannot do is the "or similar to" fallback —
/// unannotated-but-similar shots are invisible to it.
pub struct EventIndexRetriever<'a> {
    model: &'a Hmmm,
    catalog: &'a Catalog,
    /// `index[event]` = global shot ids annotated with the event, ascending.
    index: Vec<Vec<ShotId>>,
}

/// One index-join frame:
/// (depth, from-shot, running weight, running score, path, events, weights).
type JoinFrame = (usize, usize, f64, f64, Vec<usize>, Vec<usize>, Vec<f64>);

impl<'a> EventIndexRetriever<'a> {
    /// Builds the index (one pass over the catalog).
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] on model/catalog shape mismatch.
    pub fn new(model: &'a Hmmm, catalog: &'a Catalog) -> Result<Self, CoreError> {
        model.validate_against(catalog)?;
        let mut index = vec![Vec::new(); EventKind::COUNT];
        for shot in catalog.shots() {
            for &e in &shot.events {
                index[e.index()].push(shot.id);
            }
        }
        Ok(EventIndexRetriever {
            model,
            catalog,
            index,
        })
    }

    /// Number of postings in the index.
    pub fn postings(&self) -> usize {
        self.index.iter().map(Vec::len).sum()
    }

    /// The posting list for one dense event index: every shot annotated
    /// with the event, ascending (catalog order).
    pub fn event_postings(&self, event: usize) -> &[ShotId] {
        &self.index[event]
    }

    /// Joins the pattern against the index; returns the top `limit`
    /// candidates and work counters.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadQuery`] for empty patterns or bad event indices.
    pub fn retrieve(
        &self,
        pattern: &CompiledPattern,
        limit: usize,
    ) -> Result<(Vec<RankedPattern>, RetrievalStats), CoreError> {
        if pattern.is_empty() {
            return Err(CoreError::BadQuery("empty pattern".into()));
        }
        for step in &pattern.steps {
            if step.alternatives.iter().any(|&e| e >= EventKind::COUNT) {
                return Err(CoreError::BadQuery("event index out of range".into()));
            }
        }
        let mut stats = RetrievalStats::default();

        // Coarse video prefilter from the model's shared ingest-time index
        // (see `hmmm_core::coarse`): every step of an annotated join is an
        // annotated shot of its video, so the video carries `B_2[v][e] > 0`
        // for some alternative of *every* step — i.e. it lies in the
        // intersection over steps of the inverted-postings unions. Exact
        // for the annotated join; videos outside the intersection cannot
        // host a match, so their start postings are never even probed.
        let coarse = self.model.coarse();
        let mut eligible: Option<Vec<u32>> = None;
        for step in &pattern.steps {
            let mut union: Vec<u32> = step
                .alternatives
                .iter()
                .flat_map(|&e| coarse.postings(e).iter().copied())
                .collect();
            union.sort_unstable();
            union.dedup();
            eligible = Some(match eligible {
                None => union,
                Some(prev) => prev
                    .into_iter()
                    .filter(|v| union.binary_search(v).is_ok())
                    .collect(),
            });
        }
        let eligible = eligible.unwrap_or_default();
        stats.coarse_candidates = eligible.len();
        stats.videos_skipped = self.catalog.video_count() - eligible.len();

        // Candidate postings per step (merged alternatives, sorted).
        let step_postings: Vec<Vec<ShotId>> = pattern
            .steps
            .iter()
            .map(|step| {
                let mut merged: Vec<ShotId> = step
                    .alternatives
                    .iter()
                    .flat_map(|&e| self.index[e].iter().copied())
                    .collect();
                merged.sort_unstable();
                merged.dedup();
                merged
            })
            .collect();

        // Join: depth-first over postings, same-video + temporal + gap.
        let mut results: Vec<RankedPattern> = Vec::new();
        for &start in &step_postings[0] {
            let video = self.catalog.video_of_shot(start).expect("indexed shot");
            if eligible.binary_search(&(video.index() as u32)).is_err() {
                continue;
            }
            self.join(
                pattern,
                &step_postings,
                video,
                start,
                &mut results,
                &mut stats,
            );
        }
        stats.videos_visited = eligible.len();

        results.sort_by(|a, b| hmmm_core::order::cmp_f64_desc(a.score, b.score));
        results.truncate(limit);
        Ok((results, stats))
    }

    fn join(
        &self,
        pattern: &CompiledPattern,
        postings: &[Vec<ShotId>],
        video: VideoId,
        start: ShotId,
        results: &mut Vec<RankedPattern>,
        stats: &mut RetrievalStats,
    ) {
        let record = self.catalog.video(video).expect("valid video");
        let base = record.shot_range.start;
        let local = &self.model.locals()[video.index()];

        stats.sim_evaluations += 1;
        let Some((event, sim)) =
            best_alternative(self.model, start.index(), &pattern.steps[0].alternatives)
        else {
            return;
        };
        let s0 = start.index() - base;
        let w0 = local.pi1().get(s0) * sim;

        let mut stack: Vec<JoinFrame> =
            vec![(1, s0, w0, w0, vec![s0], vec![event], vec![w0])];
        while let Some((depth, from, w, score, path, events, weights)) = stack.pop() {
            if depth == pattern.steps.len() {
                stats.candidates_scored += 1;
                results.push(RankedPattern {
                    video,
                    shots: path.iter().map(|&s| ShotId(base + s)).collect(),
                    events,
                    score,
                    weights,
                });
                continue;
            }
            let step = &pattern.steps[depth];
            for &next in &postings[depth] {
                // Same video, strictly forward.
                if next.index() < base + from + 1 || next.index() >= record.shot_range.end {
                    continue;
                }
                let to = next.index() - base;
                if let Some(gap) = step.max_gap {
                    if to - from > gap {
                        continue;
                    }
                }
                stats.transitions_examined += 1;
                stats.sim_evaluations += 1;
                let Some((event, sim)) =
                    best_alternative(self.model, next.index(), &step.alternatives)
                else {
                    continue;
                };
                let a = local.a1().get(from, to);
                let w2 = w * a * sim;
                let mut p2 = path.clone();
                p2.push(to);
                let mut e2 = events.clone();
                e2.push(event);
                let mut ws2 = weights.clone();
                ws2.push(w2);
                stack.push((depth + 1, to, w2, score + w2, p2, e2, ws2));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmmm_core::{build_hmmm, BuildConfig};
    use hmmm_features::{FeatureId, FeatureVector};
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
            ],
        );
        c.add_video(
            "m2",
            vec![
                (vec![EventKind::FreeKick], feat(0.72, 0.22)),
                (vec![EventKind::Goal], feat(0.79, 0.91)),
                (vec![EventKind::Goal], feat(0.81, 0.88)),
            ],
        );
        c
    }

    fn translator() -> QueryTranslator {
        QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()))
    }

    #[test]
    fn index_counts_postings() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let idx = EventIndexRetriever::new(&model, &c).unwrap();
        assert_eq!(idx.postings(), 5);
    }

    #[test]
    fn join_finds_all_annotated_sequences() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let idx = EventIndexRetriever::new(&model, &c).unwrap();
        let pattern = translator().compile("free_kick -> goal").unwrap();
        let (results, stats) = idx.retrieve(&pattern, 10).unwrap();
        // (0,2) in video 0; (3,4) and (3,5) in video 1.
        assert_eq!(stats.candidates_scored, 3);
        assert_eq!(results.len(), 3);
        for r in &results {
            let first = c.shot(r.shots[0]).unwrap();
            let second = c.shot(r.shots[1]).unwrap();
            assert!(first.events.contains(&EventKind::FreeKick));
            assert!(second.events.contains(&EventKind::Goal));
        }
    }

    #[test]
    fn gap_bound_filters_joins() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let idx = EventIndexRetriever::new(&model, &c).unwrap();
        let pattern = translator().compile("free_kick ->[1] goal").unwrap();
        let (results, _) = idx.retrieve(&pattern, 10).unwrap();
        // Video 0's pair has gap 2 → only video 1's (3,4) survives... and
        // (3,5) has gap 2, also out.
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].shots, vec![ShotId(3), ShotId(4)]);
    }

    #[test]
    fn unannotated_similar_shots_are_invisible() {
        // A catalog where nothing is annotated "corner_kick": the index
        // returns nothing even though features might be close.
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let idx = EventIndexRetriever::new(&model, &c).unwrap();
        let pattern = translator().compile("corner_kick").unwrap();
        let (results, _) = idx.retrieve(&pattern, 10).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn empty_pattern_rejected() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let idx = EventIndexRetriever::new(&model, &c).unwrap();
        assert!(idx.retrieve(&CompiledPattern { steps: vec![] }, 5).is_err());
    }
}
