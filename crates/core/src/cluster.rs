//! Video category clustering — a third HMMM level.
//!
//! Definition 1 allows any depth `d`; the paper deploys `d = 2` but
//! motivates the integrated MMM with "the system is able to learn the
//! semantic concepts and then **cluster the videos into different
//! categories**" (§4.2.2). This module realizes that: k-medoids clustering
//! of videos by their `B_2` event profiles produces a category level —
//! states `S_3` (categories), features `F_3` = the same event concepts,
//! `B_3` aggregated event counts, `Π_3`, and links `L_{2,3}` — turning the
//! deployment into a `d = 3` HMMM. Retrieval can pre-filter whole
//! categories by the query's first event before descending.
//!
//! Clustering is deterministic (farthest-first seeding from the densest
//! video), so model builds stay reproducible.

use crate::model::Hmmm;
use hmmm_matrix::{ProbVector, StochasticMatrix};
use hmmm_media::EventKind;
use hmmm_storage::VideoId;
use serde::{Deserialize, Serialize};

/// The category (level-3) extension of a two-level HMMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryLevel {
    /// `L_{2,3}`: category index of each video.
    pub assignments: Vec<usize>,
    /// Medoid video of each category.
    pub medoids: Vec<usize>,
    /// `B_3`: aggregated event counts per category.
    pub b3: Vec<[usize; EventKind::COUNT]>,
    /// `A_3`: category affinity (event-profile cosine, row-normalized).
    pub a3: StochasticMatrix,
    /// `Π_3`: initial category distribution (proportional to video count).
    pub pi3: ProbVector,
}

impl CategoryLevel {
    /// Clusters a model's videos into at most `k` categories.
    ///
    /// Returns `None` when the model has no videos or `k == 0`. Fewer than
    /// `k` categories result when videos are fewer than `k`.
    pub fn build(model: &Hmmm, k: usize) -> Option<Self> {
        let m = model.video_count();
        if m == 0 || k == 0 {
            return None;
        }
        let k = k.min(m);
        let (assignments, medoids) = k_medoids(model.b2(), k);

        let mut b3 = vec![[0usize; EventKind::COUNT]; medoids.len()];
        let mut sizes = vec![0.0f64; medoids.len()];
        for (video, &cat) in assignments.iter().enumerate() {
            sizes[cat] += 1.0;
            for (e, cell) in b3[cat].iter_mut().enumerate() {
                *cell += model.b2()[video][e];
            }
        }

        let n_cat = medoids.len();
        let mut a3 = hmmm_matrix::Matrix::zeros(n_cat, n_cat);
        for i in 0..n_cat {
            for j in 0..n_cat {
                a3[(i, j)] = cosine(&b3[i], &b3[j]);
            }
        }
        let a3 = StochasticMatrix::normalize(a3, hmmm_matrix::dense::ZeroRowPolicy::Uniform)
            .ok()?;
        let pi3 = ProbVector::from_counts(&sizes).ok()?;

        Some(CategoryLevel {
            assignments,
            medoids,
            b3,
            a3,
            pi3,
        })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.medoids.len()
    }

    /// `true` when no categories exist (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.medoids.is_empty()
    }

    /// Category of a video.
    pub fn category_of(&self, video: VideoId) -> Option<usize> {
        self.assignments.get(video.index()).copied()
    }

    /// Videos of a category.
    pub fn videos_of(&self, category: usize) -> Vec<VideoId> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == category)
            .map(|(v, _)| VideoId(v))
            .collect()
    }

    /// Categories whose aggregated `B_3` contains the event — the level-3
    /// analogue of the Step-2 `B_2` check.
    pub fn categories_with_event(&self, event: usize) -> Vec<usize> {
        self.b3
            .iter()
            .enumerate()
            .filter(|(_, row)| event < EventKind::COUNT && row[event] > 0)
            .map(|(c, _)| c)
            .collect()
    }

    /// Videos eligible for a query whose first step accepts `alternatives`:
    /// the union of videos in categories containing any alternative. A
    /// cheap pre-filter that skips whole categories before the per-video
    /// `B_2` check.
    pub fn eligible_videos(&self, alternatives: &[usize]) -> Vec<VideoId> {
        let mut cats: Vec<usize> = alternatives
            .iter()
            .flat_map(|&e| self.categories_with_event(e))
            .collect();
        cats.sort_unstable();
        cats.dedup();
        cats.into_iter()
            .flat_map(|c| self.videos_of(c))
            .collect()
    }
}

/// Deterministic k-medoids over event-count rows with cosine distance.
/// Returns `(assignments, medoid video indices)`.
fn k_medoids(b2: &[[usize; EventKind::COUNT]], k: usize) -> (Vec<usize>, Vec<usize>) {
    let m = b2.len();
    // Farthest-first seeding from the event-densest video.
    let first = (0..m)
        .max_by_key(|&v| b2[v].iter().sum::<usize>())
        .expect("m > 0");
    let mut medoids = vec![first];
    while medoids.len() < k {
        let next = (0..m)
            .filter(|v| !medoids.contains(v))
            .max_by(|&a, &b| {
                let da = medoids.iter().map(|&med| dist(&b2[a], &b2[med])).fold(f64::INFINITY, f64::min);
                let db = medoids.iter().map(|&med| dist(&b2[b], &b2[med])).fold(f64::INFINITY, f64::min);
                crate::order::cmp_f64(da, db)
            });
        match next {
            Some(v) => medoids.push(v),
            None => break,
        }
    }

    // Lloyd-style refinement with medoid recomputation (few iterations
    // suffice at these sizes).
    let mut assignments = vec![0usize; m];
    for _ in 0..8 {
        // Assign.
        for v in 0..m {
            assignments[v] = medoids
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    crate::order::cmp_f64(dist(&b2[v], &b2[a]), dist(&b2[v], &b2[b]))
                })
                .map(|(c, _)| c)
                .expect("k >= 1");
        }
        // Recompute medoids: the member minimizing total distance.
        let mut changed = false;
        for (c, medoid) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..m).filter(|&v| assignments[v] == c).collect();
            if members.is_empty() {
                continue;
            }
            let best = *members
                .iter()
                .min_by(|&&a, &&b| {
                    let da: f64 = members.iter().map(|&x| dist(&b2[a], &b2[x])).sum();
                    let db: f64 = members.iter().map(|&x| dist(&b2[b], &b2[x])).sum();
                    crate::order::cmp_f64(da, db)
                })
                .expect("members non-empty");
            if best != *medoid {
                *medoid = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (assignments, medoids)
}

fn cosine(a: &[usize; EventKind::COUNT], b: &[usize; EventKind::COUNT]) -> f64 {
    let dot: f64 = a.iter().zip(b.iter()).map(|(&x, &y)| (x * y) as f64).sum();
    let na: f64 = a.iter().map(|&x| (x * x) as f64).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|&x| (x * x) as f64).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Cosine distance.
fn dist(a: &[usize; EventKind::COUNT], b: &[usize; EventKind::COUNT]) -> f64 {
    1.0 - cosine(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use hmmm_features::{FeatureId, FeatureVector};
    use hmmm_storage::Catalog;

    /// Two clear video populations: goal-heavy and card-heavy.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let feat = |x: f64| {
            let mut v = FeatureVector::zeros();
            v[FeatureId::GrassRatio] = x;
            v
        };
        for i in 0..3 {
            c.add_video(
                format!("goals-{i}"),
                vec![
                    (vec![EventKind::Goal], feat(0.5)),
                    (vec![EventKind::Goal, EventKind::FreeKick], feat(0.6)),
                ],
            );
        }
        for i in 0..3 {
            c.add_video(
                format!("cards-{i}"),
                vec![
                    (vec![EventKind::YellowCard], feat(0.2)),
                    (vec![EventKind::RedCard, EventKind::Foul], feat(0.3)),
                ],
            );
        }
        c
    }

    #[test]
    fn clusters_separate_populations() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let cats = CategoryLevel::build(&model, 2).unwrap();
        assert_eq!(cats.len(), 2);
        // Videos 0–2 together, 3–5 together.
        let c0 = cats.category_of(VideoId(0)).unwrap();
        assert_eq!(cats.category_of(VideoId(1)), Some(c0));
        assert_eq!(cats.category_of(VideoId(2)), Some(c0));
        let c3 = cats.category_of(VideoId(3)).unwrap();
        assert_ne!(c0, c3);
        assert_eq!(cats.category_of(VideoId(5)), Some(c3));
    }

    #[test]
    fn b3_aggregates_member_counts() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let cats = CategoryLevel::build(&model, 2).unwrap();
        let goal_cat = cats.category_of(VideoId(0)).unwrap();
        assert_eq!(cats.b3[goal_cat][EventKind::Goal.index()], 6);
        assert_eq!(cats.b3[goal_cat][EventKind::RedCard.index()], 0);
    }

    #[test]
    fn category_event_filter() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let cats = CategoryLevel::build(&model, 2).unwrap();
        let goal_cats = cats.categories_with_event(EventKind::Goal.index());
        assert_eq!(goal_cats.len(), 1);
        let eligible = cats.eligible_videos(&[EventKind::Goal.index()]);
        assert_eq!(eligible.len(), 3);
        assert!(eligible.iter().all(|v| v.index() < 3));
        // Out-of-range event index → empty, no panic.
        assert!(cats.categories_with_event(99).is_empty());
    }

    #[test]
    fn pi3_mass_and_a3_rows() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let cats = CategoryLevel::build(&model, 2).unwrap();
        let mass: f64 = cats.pi3.as_slice().iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
        for i in 0..cats.len() {
            let s: f64 = cats.a3.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        assert!(CategoryLevel::build(&model, 0).is_none());
        // k larger than videos: clamps.
        let cats = CategoryLevel::build(&model, 100).unwrap();
        assert!(cats.len() <= model.video_count());
        // Every video assigned.
        assert_eq!(cats.assignments.len(), model.video_count());
    }

    #[test]
    fn clustering_is_deterministic() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let a = CategoryLevel::build(&model, 2).unwrap();
        let b = CategoryLevel::build(&model, 2).unwrap();
        assert_eq!(a, b);
    }
}
