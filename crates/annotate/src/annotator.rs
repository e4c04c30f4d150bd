//! One-vs-rest event annotation.

use crate::prune::prune_reduced_error;
use crate::tree::{DecisionTree, TreeConfig};
use hmmm_features::FeatureVector;
use hmmm_media::EventKind;
use serde::{Deserialize, Serialize};

/// Annotator hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnotatorConfig {
    /// Per-event tree training configuration.
    pub tree: TreeConfig,
    /// Fraction of the training set held out for pruning (0 disables).
    pub holdout_fraction: f64,
    /// Decision threshold on the per-event probability.
    pub decision_threshold: f64,
    /// Cap on the positive-class weight multiplier.
    pub max_positive_weight: f64,
}

impl Default for AnnotatorConfig {
    fn default() -> Self {
        AnnotatorConfig {
            tree: TreeConfig::default(),
            holdout_fraction: 0.25,
            decision_threshold: 0.5,
            max_positive_weight: 100.0,
        }
    }
}

/// A trained multi-label event annotator: one binary decision tree per
/// [`EventKind`], so a shot can legitimately carry several events (the
/// paper's "free kick" + "goal" example).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventAnnotator {
    trees: Vec<Option<DecisionTree>>, // indexed by EventKind::index()
    config: AnnotatorConfig,
}

impl EventAnnotator {
    /// Trains on `(features, events)` pairs — the events are the
    /// ground-truth (or human) annotations of each shot.
    ///
    /// Events with no positive examples get no tree and are never predicted.
    /// Returns `None` for an empty training set.
    pub fn train(
        samples: &[(FeatureVector, Vec<EventKind>)],
        config: AnnotatorConfig,
    ) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        // Deterministic holdout split: every 1/fraction-th sample.
        let holdout_every = if config.holdout_fraction > 0.0 {
            (1.0 / config.holdout_fraction).round() as usize
        } else {
            usize::MAX
        };

        let trees = EventKind::ALL
            .iter()
            .map(|&kind| {
                let mut train: Vec<(FeatureVector, bool)> = Vec::new();
                let mut holdout: Vec<(FeatureVector, bool)> = Vec::new();
                let mut positives = 0usize;
                for (i, (v, events)) in samples.iter().enumerate() {
                    let y = events.contains(&kind);
                    if y {
                        positives += 1;
                    }
                    if holdout_every != usize::MAX && i % holdout_every == holdout_every - 1 {
                        holdout.push((*v, y));
                    } else {
                        train.push((*v, y));
                    }
                }
                if positives == 0 || train.is_empty() {
                    return None;
                }
                let train_pos = train.iter().filter(|(_, y)| *y).count();
                if train_pos == 0 {
                    return None;
                }
                let weight = ((train.len() - train_pos) as f64 / train_pos as f64)
                    .clamp(1.0, config.max_positive_weight);
                let mut tree = DecisionTree::train(&train, weight, config.tree)?;
                prune_reduced_error(&mut tree, &holdout);
                Some(tree)
            })
            .collect();

        Some(EventAnnotator { trees, config })
    }

    /// Events predicted for a shot's feature vector.
    pub fn annotate(&self, v: &FeatureVector) -> Vec<EventKind> {
        EventKind::ALL
            .iter()
            .filter(|&&kind| {
                self.trees[kind.index()]
                    .as_ref()
                    .is_some_and(|t| t.predict(v, self.config.decision_threshold))
            })
            .copied()
            .collect()
    }

    /// Per-event probability (0.0 when no tree was trainable for the kind).
    pub fn probability(&self, kind: EventKind, v: &FeatureVector) -> f64 {
        self.trees[kind.index()]
            .as_ref()
            .map_or(0.0, |t| t.predict_proba(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmmm_features::FeatureId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A toy world where events have crisp feature signatures.
    fn toy_samples(seed: u64, n: usize) -> Vec<(FeatureVector, Vec<EventKind>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut v = FeatureVector::zeros();
                v[FeatureId::GrassRatio] = rng.gen_range(0.0..1.0);
                v[FeatureId::VolumeMean] = rng.gen_range(0.0..0.3);
                v[FeatureId::Sub3Mean] = rng.gen_range(0.0..0.2);
                let mut events = Vec::new();
                let roll: f64 = rng.gen();
                if roll < 0.1 {
                    v[FeatureId::VolumeMean] = rng.gen_range(0.6..1.0);
                    events.push(EventKind::Goal);
                } else if roll < 0.2 {
                    v[FeatureId::Sub3Mean] = rng.gen_range(0.6..1.0);
                    events.push(EventKind::Foul);
                }
                (v, events)
            })
            .collect()
    }

    #[test]
    fn empty_training_rejected() {
        assert!(EventAnnotator::train(&[], AnnotatorConfig::default()).is_none());
    }

    #[test]
    fn learns_crisp_event_signatures() {
        let samples = toy_samples(1, 800);
        let annot = EventAnnotator::train(&samples, AnnotatorConfig::default()).unwrap();

        let mut goal_probe = FeatureVector::zeros();
        goal_probe[FeatureId::VolumeMean] = 0.8;
        assert!(annot.annotate(&goal_probe).contains(&EventKind::Goal));

        let mut foul_probe = FeatureVector::zeros();
        foul_probe[FeatureId::Sub3Mean] = 0.8;
        assert!(annot.annotate(&foul_probe).contains(&EventKind::Foul));

        let quiet = FeatureVector::zeros();
        assert!(annot.annotate(&quiet).is_empty());
    }

    #[test]
    fn unseen_events_are_never_predicted() {
        let samples = toy_samples(2, 300);
        let annot = EventAnnotator::train(&samples, AnnotatorConfig::default()).unwrap();
        assert!(annot.trees[EventKind::Goal.index()].is_some());
        assert!(annot.trees[EventKind::RedCard.index()].is_none());
        let mut v = FeatureVector::zeros();
        v[FeatureId::VolumeMean] = 0.9;
        assert!(!annot.annotate(&v).contains(&EventKind::RedCard));
        assert_eq!(annot.probability(EventKind::RedCard, &v), 0.0);
    }

    #[test]
    fn multi_label_shots_supported() {
        // Shots with both a loud cheer AND a whistle carry both events.
        let mut samples = toy_samples(3, 600);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..60 {
            let mut v = FeatureVector::zeros();
            v[FeatureId::VolumeMean] = rng.gen_range(0.6..1.0);
            v[FeatureId::Sub3Mean] = rng.gen_range(0.6..1.0);
            samples.push((v, vec![EventKind::Goal, EventKind::Foul]));
        }
        let annot = EventAnnotator::train(&samples, AnnotatorConfig::default()).unwrap();
        let mut probe = FeatureVector::zeros();
        probe[FeatureId::VolumeMean] = 0.8;
        probe[FeatureId::Sub3Mean] = 0.8;
        let events = annot.annotate(&probe);
        assert!(events.contains(&EventKind::Goal) && events.contains(&EventKind::Foul));
    }

    #[test]
    fn serde_round_trip() {
        let samples = toy_samples(4, 200);
        let annot = EventAnnotator::train(&samples, AnnotatorConfig::default()).unwrap();
        let json = serde_json::to_string(&annot).unwrap();
        let back: EventAnnotator = serde_json::from_str(&json).unwrap();
        assert_eq!(annot, back);
    }
}
