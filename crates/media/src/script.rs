//! Event scripts — ground-truth shot/event sequences for a synthetic video.
//!
//! A script is the "reality" a synthetic video renders: a sequence of shots,
//! each with a camera setup, a duration, and zero or more semantic events.
//! Scripts are produced by a small domain Markov chain that mimics soccer
//! causality (free kicks lead to goals, fouls draw cards, goals are followed
//! by substitutions and goal kicks), so archives contain genuine temporal
//! patterns for the retrieval engine to find — and the script doubles as
//! ground truth when scoring retrieval accuracy.

use crate::camera::CameraSetup;
use crate::event::EventKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One scripted shot: the atomic unit of the level-1 MMM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptedShot {
    /// Camera configuration for the whole shot (a shot *is* one camera
    /// operation, per the paper's §4.2.1 definition).
    pub camera: CameraSetup,
    /// Events annotated on this shot (0, 1 or 2 — the paper's worked example
    /// has a shot annotated "Free Kick" + "Goal").
    pub events: Vec<EventKind>,
    /// Number of frames this shot spans.
    pub frames: usize,
}

impl ScriptedShot {
    /// `true` if the shot carries at least one event annotation.
    pub fn is_annotated(&self) -> bool {
        !self.events.is_empty()
    }
}

/// Configuration for script generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptConfig {
    /// Number of shots to generate.
    pub shots: usize,
    /// Probability that a shot carries an event (paper's archive:
    /// 506 events / 11,567 shots ≈ 0.044).
    pub event_rate: f64,
    /// Probability that an event shot carries a *second* event
    /// (e.g. "free kick" + "goal" on the same shot).
    pub double_event_rate: f64,
    /// Inclusive range of frames per shot.
    pub min_frames: usize,
    /// See [`ScriptConfig::min_frames`].
    pub max_frames: usize,
    /// RNG seed — same seed, same script.
    pub seed: u64,
}

impl Default for ScriptConfig {
    fn default() -> Self {
        ScriptConfig {
            shots: 200,
            event_rate: 0.044,
            double_event_rate: 0.15,
            min_frames: 8,
            max_frames: 16,
            seed: 0x5eed,
        }
    }
}

/// A complete per-video script.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventScript {
    shots: Vec<ScriptedShot>,
}

impl EventScript {
    /// Wraps an explicit shot list (used by tests and hand-built fixtures).
    pub fn from_shots(shots: Vec<ScriptedShot>) -> Self {
        EventScript { shots }
    }

    /// Generates a script from the domain Markov chain.
    pub fn generate(config: &ScriptConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut shots = Vec::with_capacity(config.shots);
        let mut last_event: Option<EventKind> = None;

        for _ in 0..config.shots {
            let frames = if config.max_frames > config.min_frames {
                rng.gen_range(config.min_frames..=config.max_frames)
            } else {
                config.min_frames
            };

            let mut events = Vec::new();
            if rng.gen_bool(config.event_rate.clamp(0.0, 1.0)) {
                let first = sample_event(&mut rng, last_event);
                events.push(first);
                if rng.gen_bool(config.double_event_rate.clamp(0.0, 1.0)) {
                    if let Some(second) = companion_event(&mut rng, first) {
                        events.push(second);
                    }
                }
                last_event = Some(*events.last().expect("just pushed"));
            } else if rng.gen_bool(0.3) {
                // Long stretches of plain play gradually wash out causality.
                last_event = None;
            }

            let camera = camera_for(&mut rng, events.last().copied());
            shots.push(ScriptedShot {
                camera,
                events,
                frames,
            });
        }
        EventScript { shots }
    }

    /// The scripted shots, in temporal order.
    #[inline]
    pub fn shots(&self) -> &[ScriptedShot] {
        &self.shots
    }

    /// Number of shots.
    #[inline]
    pub fn len(&self) -> usize {
        self.shots.len()
    }

    /// `true` if the script has no shots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.shots.is_empty()
    }

    /// Total number of event annotations across all shots.
    pub fn event_count(&self) -> usize {
        self.shots.iter().map(|s| s.events.len()).sum()
    }

    /// Number of shots carrying at least one annotation.
    pub fn annotated_shot_count(&self) -> usize {
        self.shots.iter().filter(|s| s.is_annotated()).count()
    }

    /// Ground-truth occurrences of a temporal pattern: ordered shot-index
    /// sequences `i_1 ≤ i_2 ≤ … ≤ i_C` where shot `i_j` carries event
    /// `pattern[j]`, consecutive steps are at most `max_gap` shots apart,
    /// and equal indices are allowed only for multi-event shots (the
    /// paper's `T_{e_j} ≤ T_{e_{j+1}}`).
    ///
    /// Matches are enumerated left-to-right without reusing a shot for two
    /// *identical* consecutive events.
    pub fn pattern_occurrences(&self, pattern: &[EventKind], max_gap: usize) -> Vec<Vec<usize>> {
        if pattern.is_empty() {
            return Vec::new();
        }
        let mut results = Vec::new();
        let mut partial: Vec<usize> = Vec::with_capacity(pattern.len());
        self.search_pattern(pattern, max_gap, 0, &mut partial, &mut results);
        results
    }

    fn search_pattern(
        &self,
        pattern: &[EventKind],
        max_gap: usize,
        step: usize,
        partial: &mut Vec<usize>,
        results: &mut Vec<Vec<usize>>,
    ) {
        if step == pattern.len() {
            results.push(partial.clone());
            return;
        }
        let (start, end) = if step == 0 {
            (0, self.shots.len())
        } else {
            let prev = partial[step - 1];
            (prev, (prev + max_gap + 1).min(self.shots.len()))
        };
        for i in start..end {
            // Same-shot reuse is allowed only when the shot carries both
            // events (distinct annotation slots).
            if step > 0 && i == partial[step - 1] {
                let prev_event = pattern[step - 1];
                let this_event = pattern[step];
                let shot = &self.shots[i];
                let has_both = shot.events.iter().filter(|&&e| e == prev_event).count()
                    + shot.events.iter().filter(|&&e| e == this_event).count()
                    >= 2
                    && shot.events.contains(&this_event);
                if !(has_both && prev_event != this_event) {
                    continue;
                }
            } else if !self.shots[i].events.contains(&pattern[step]) {
                continue;
            }
            partial.push(i);
            self.search_pattern(pattern, max_gap, step + 1, partial, results);
            partial.pop();
        }
    }
}

/// Samples the next event from the domain Markov chain.
fn sample_event(rng: &mut StdRng, last: Option<EventKind>) -> EventKind {
    use EventKind::*;
    // (event, weight) — conditioned on the previous event.
    let table: &[(EventKind, f64)] = match last {
        Some(FreeKick) => &[
            (Goal, 3.0),
            (CornerKick, 1.5),
            (GoalKick, 1.5),
            (Foul, 1.0),
            (FreeKick, 0.5),
        ],
        Some(CornerKick) => &[
            (Goal, 2.5),
            (GoalKick, 2.0),
            (CornerKick, 1.0),
            (Foul, 1.0),
        ],
        Some(Foul) => &[
            (FreeKick, 3.5),
            (YellowCard, 2.0),
            (RedCard, 0.4),
            (Foul, 0.6),
        ],
        Some(Goal) => &[
            (PlayerChange, 2.5),
            (GoalKick, 2.0),
            (Foul, 1.0),
            (CornerKick, 0.8),
        ],
        Some(YellowCard) => &[(FreeKick, 3.0), (Foul, 1.0), (PlayerChange, 1.0)],
        Some(RedCard) => &[(FreeKick, 2.5), (PlayerChange, 2.0)],
        Some(GoalKick) => &[(Foul, 1.5), (CornerKick, 1.2), (FreeKick, 1.2), (Goal, 0.6)],
        Some(PlayerChange) => &[(Foul, 1.5), (CornerKick, 1.0), (FreeKick, 1.0), (Goal, 0.8)],
        None => &[
            (Foul, 2.5),
            (FreeKick, 2.0),
            (CornerKick, 1.8),
            (GoalKick, 1.6),
            (Goal, 1.0),
            (PlayerChange, 0.8),
            (YellowCard, 0.7),
            (RedCard, 0.1),
        ],
    };
    weighted_choice(rng, table)
}

/// Possible second event on the same shot (e.g. the kick that scores).
fn companion_event(rng: &mut StdRng, first: EventKind) -> Option<EventKind> {
    use EventKind::*;
    let table: &[(EventKind, f64)] = match first {
        FreeKick => &[(Goal, 3.0), (Foul, 0.5)],
        CornerKick => &[(Goal, 2.0)],
        Foul => &[(YellowCard, 2.0), (RedCard, 0.3), (FreeKick, 1.0)],
        Goal => &[(PlayerChange, 1.0)],
        _ => return None,
    };
    Some(weighted_choice(rng, table))
}

/// Camera selection given the shot's (last) event.
fn camera_for(rng: &mut StdRng, event: Option<EventKind>) -> CameraSetup {
    use CameraSetup::*;
    use EventKind::*;
    let table: &[(CameraSetup, f64)] = match event {
        Some(Goal) => &[(Wide, 2.0), (Crowd, 1.5), (Medium, 1.0)],
        Some(CornerKick) | Some(GoalKick) | Some(FreeKick) => {
            &[(Wide, 3.0), (Medium, 1.5), (Closeup, 0.3)]
        }
        Some(Foul) => &[(Medium, 2.0), (Closeup, 1.5), (Wide, 1.0)],
        Some(YellowCard) | Some(RedCard) => &[(Closeup, 3.0), (Medium, 1.0)],
        Some(PlayerChange) => &[(Medium, 2.0), (Closeup, 1.5), (Crowd, 0.5)],
        None => &[(Wide, 3.0), (Medium, 2.0), (Closeup, 0.6), (Crowd, 0.4)],
    };
    weighted_choice(rng, table)
}

fn weighted_choice<T: Copy>(rng: &mut StdRng, table: &[(T, f64)]) -> T {
    let total: f64 = table.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.gen_range(0.0..total);
    for &(item, w) in table {
        if pick < w {
            return item;
        }
        pick -= w;
    }
    table.last().expect("weighted tables are non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shot(events: Vec<EventKind>) -> ScriptedShot {
        ScriptedShot {
            camera: CameraSetup::Wide,
            events,
            frames: 10,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ScriptConfig::default();
        let a = EventScript::generate(&cfg);
        let b = EventScript::generate(&cfg);
        assert_eq!(a, b);
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        assert_ne!(a, EventScript::generate(&cfg2));
    }

    #[test]
    fn event_rate_is_respected() {
        let cfg = ScriptConfig {
            shots: 5000,
            event_rate: 0.05,
            ..ScriptConfig::default()
        };
        let script = EventScript::generate(&cfg);
        assert_eq!(script.len(), 5000);
        let rate = script.annotated_shot_count() as f64 / script.len() as f64;
        assert!((0.03..0.07).contains(&rate), "rate {rate} out of range");
    }

    #[test]
    fn frames_within_bounds() {
        let cfg = ScriptConfig {
            shots: 500,
            min_frames: 6,
            max_frames: 9,
            ..ScriptConfig::default()
        };
        let script = EventScript::generate(&cfg);
        assert!(script
            .shots()
            .iter()
            .all(|s| (6..=9).contains(&s.frames)));
    }

    #[test]
    fn event_count_covers_annotated_shots() {
        let cfg = ScriptConfig {
            shots: 2000,
            event_rate: 0.2,
            ..ScriptConfig::default()
        };
        let script = EventScript::generate(&cfg);
        assert!(script.event_count() >= script.annotated_shot_count());
    }

    #[test]
    fn free_kick_goal_causality_present() {
        // With a high event rate the domain chain must show its structure:
        // goals follow free kicks disproportionately.
        let cfg = ScriptConfig {
            shots: 20_000,
            event_rate: 0.5,
            double_event_rate: 0.0,
            seed: 42,
            ..ScriptConfig::default()
        };
        let script = EventScript::generate(&cfg);
        let occurrences = script.pattern_occurrences(&[EventKind::FreeKick, EventKind::Goal], 3);
        assert!(
            occurrences.len() > 20,
            "expected many free_kick→goal patterns, got {}",
            occurrences.len()
        );
    }

    #[test]
    fn pattern_occurrences_simple() {
        let script = EventScript::from_shots(vec![
            shot(vec![EventKind::FreeKick]),
            shot(vec![]),
            shot(vec![EventKind::Goal]),
            shot(vec![EventKind::Goal]),
        ]);
        let hits = script.pattern_occurrences(&[EventKind::FreeKick, EventKind::Goal], 3);
        assert_eq!(hits, vec![vec![0, 2], vec![0, 3]]);
        // Gap limit prunes the distant goal.
        let hits = script.pattern_occurrences(&[EventKind::FreeKick, EventKind::Goal], 2);
        assert_eq!(hits, vec![vec![0, 2]]);
    }

    #[test]
    fn pattern_occurrences_same_shot_double_event() {
        // A shot annotated free_kick+goal matches the 2-step pattern at a
        // single index, per the paper's T_{e1} ≤ T_{e2}.
        let script = EventScript::from_shots(vec![shot(vec![
            EventKind::FreeKick,
            EventKind::Goal,
        ])]);
        let hits = script.pattern_occurrences(&[EventKind::FreeKick, EventKind::Goal], 2);
        assert_eq!(hits, vec![vec![0, 0]]);
        // But an identical repeated event cannot reuse the same annotation.
        let script = EventScript::from_shots(vec![shot(vec![EventKind::Goal])]);
        let hits = script.pattern_occurrences(&[EventKind::Goal, EventKind::Goal], 2);
        assert!(hits.is_empty());
    }

    #[test]
    fn empty_pattern_matches_nothing() {
        let script = EventScript::from_shots(vec![shot(vec![EventKind::Goal])]);
        assert!(script.pattern_occurrences(&[], 5).is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let cfg = ScriptConfig {
            shots: 50,
            ..ScriptConfig::default()
        };
        let script = EventScript::generate(&cfg);
        let json = serde_json::to_string(&script).unwrap();
        let back: EventScript = serde_json::from_str(&json).unwrap();
        assert_eq!(script, back);
    }
}
