//! Feedback logging and offline learning (§4.2.1.1-2, Eqs. 1–10).
//!
//! The paper's training system "records all the user access patterns and
//! access frequencies during a training period … once the number of newly
//! achieved feedbacks reaches a certain threshold, the update of the `A_1`
//! matrix can be triggered automatically. All the computations should be
//! done offline." [`FeedbackLog`] is that recorder; [`FeedbackLog::apply`]
//! is the offline update:
//!
//! * `A_1` — Eq. (1) affinity accumulation (`aff_1(m,n) = A_1(m,n) ·
//!   Σ_k use·use·access`, forward pairs only) + Eq. (2) row normalization;
//! * `Π_1` — Eq. (4) initial-state re-estimation from pattern starts;
//! * `A_2`, `Π_2` — Eqs. (5)–(6) from video co-access within a query;
//! * `P_{1,2}` — Eqs. (8)–(10) re-learned from the event membership grown
//!   by confirmed patterns; `B_1'` — Eq. (11) likewise.
//!
//! One deliberate deviation, documented in DESIGN.md: a literal Eq. (1)
//! *zeroes* every transition no feedback pattern has touched, which after
//! one sparse round disconnects most of the lattice. A retention term
//! `λ · A_1` is mixed into the counts before normalizing (λ =
//! [`FeedbackConfig::retention`]; `0.0` recovers the literal behaviour).

use crate::construct;
use crate::error::CoreError;
use crate::metrics;
use crate::model::{Hmmm, LocalMmm};
use hmmm_features::FeatureVector;
use hmmm_obs::RecorderHandle;
use hmmm_matrix::dense::ZeroRowPolicy;
use hmmm_matrix::{Matrix, ProbVector, StochasticMatrix};
use hmmm_media::EventKind;
use hmmm_storage::{Catalog, ShotId, VideoId};
use serde::{Deserialize, Serialize};

/// One positive (user-confirmed) pattern — the unit of feedback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PositivePattern {
    /// Query session this judgment belongs to (videos confirmed in the
    /// same session co-accumulate in `A_2`).
    pub query: u64,
    /// The video the pattern lives in.
    pub video: VideoId,
    /// The confirmed shots, in temporal order (global ids).
    pub shots: Vec<ShotId>,
    /// The event matched at each step (dense indices; same length as
    /// `shots`). Grows the per-event membership used by Eqs. (8)–(11).
    pub events: Vec<usize>,
    /// Access frequency `access(k)` (how often the user retrieved it).
    pub access: f64,
}

/// Learning hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedbackConfig {
    /// Feedback count that triggers an automatic offline update.
    pub update_threshold: u64,
    /// Prior-retention mixing weight `λ` for `A_1`/`A_2`/`Π` updates.
    pub retention: f64,
    /// Dispersion floor for the Eq.-(8) re-learning of `P_{1,2}`.
    pub std_floor: f64,
    /// Re-learn `P_{1,2}`/`B_1'` from the grown event membership.
    pub relearn_p12: bool,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            update_threshold: 20,
            retention: 0.1,
            std_floor: 1e-3,
            relearn_p12: true,
        }
    }
}

/// What an offline update changed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateReport {
    /// Patterns consumed by this update.
    pub patterns_applied: usize,
    /// Videos whose `A_1` changed.
    pub videos_updated: usize,
    /// Frobenius distance between old and new `P_{1,2}`.
    pub p12_drift: f64,
    /// Mean Frobenius distance of updated `A_1` blocks.
    pub a1_drift: f64,
}

/// The feedback recorder.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FeedbackLog {
    patterns: Vec<PositivePattern>,
    /// Extra (shot, event) assignments confirmed across *all* feedback ever
    /// applied — event membership only grows (the paper keeps all access
    /// patterns from the training period).
    confirmed_members: Vec<(ShotId, usize)>,
}

impl FeedbackLog {
    /// An empty log.
    pub fn new() -> Self {
        FeedbackLog::default()
    }

    /// Records a positive pattern.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadQuery`] when shots/events lengths differ or the shot
    /// list is not temporally ordered.
    pub fn record(&mut self, pattern: PositivePattern) -> Result<(), CoreError> {
        if pattern.shots.len() != pattern.events.len() {
            return Err(CoreError::BadQuery(
                "pattern shots/events length mismatch".into(),
            ));
        }
        if pattern.shots.windows(2).any(|w| w[1] < w[0]) {
            return Err(CoreError::BadQuery(
                "pattern shots must be in temporal order".into(),
            ));
        }
        if !(pattern.access.is_finite() && pattern.access >= 0.0) {
            return Err(CoreError::BadQuery("invalid access frequency".into()));
        }
        self.patterns.push(pattern);
        Ok(())
    }

    /// Number of patterns waiting to be applied.
    pub fn pending(&self) -> usize {
        self.patterns.len()
    }

    /// `true` once the configured threshold is reached (the paper's
    /// automatic update trigger).
    pub fn should_update(&self, config: &FeedbackConfig) -> bool {
        self.patterns.len() as u64 >= config.update_threshold
    }

    /// Applies all pending feedback to the model (the offline update),
    /// clearing the pending queue.
    ///
    /// # Examples
    ///
    /// Confirming the `shot 0 → shot 1` free-kick→goal pattern on the
    /// §4.2.1.1 three-shot video strengthens that `A_1` transition above its
    /// closed-form initial value of 2/3 (Eq. 1 accumulation + Eq. 2
    /// normalization):
    ///
    /// ```
    /// use hmmm_core::{build_hmmm, BuildConfig, FeedbackConfig, FeedbackLog, PositivePattern};
    /// use hmmm_features::{FeatureId, FeatureVector};
    /// use hmmm_media::EventKind;
    /// use hmmm_storage::{Catalog, ShotId, VideoId};
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
    /// let mut model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    /// assert!((model.locals()[0].a1().get(0, 1) - 2.0 / 3.0).abs() < 1e-12);
    ///
    /// let mut log = FeedbackLog::new();
    /// log.record(PositivePattern {
    ///     query: 0,
    ///     video: VideoId(0),
    ///     shots: vec![ShotId(0), ShotId(1)],
    ///     events: vec![EventKind::FreeKick.index(), EventKind::Goal.index()],
    ///     access: 1.0,
    /// }).unwrap();
    ///
    /// let report = log.apply(&mut model, &catalog, &FeedbackConfig::default()).unwrap();
    /// assert_eq!(report.patterns_applied, 1);
    /// assert!(model.locals()[0].a1().get(0, 1) > 2.0 / 3.0);
    /// ```
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] for out-of-range ids,
    /// [`CoreError::Matrix`] on degenerate matrix states.
    pub fn apply(
        &mut self,
        model: &mut Hmmm,
        catalog: &Catalog,
        config: &FeedbackConfig,
    ) -> Result<UpdateReport, CoreError> {
        self.apply_observed(model, catalog, config, &RecorderHandle::noop())
    }

    /// [`FeedbackLog::apply`] (Eqs. 1–2, 4, 5–6, 8–10) with per-stage
    /// observability: spans around
    /// the `A_1`/`Π_1`, `A_2`/`Π_2` and `P_{1,2}` updates plus the
    /// `feedback.*` counters — see [`crate::metrics`]. With a noop handle
    /// this is exactly `apply`.
    ///
    /// # Errors
    ///
    /// Same as [`FeedbackLog::apply`].
    pub fn apply_observed(
        &mut self,
        model: &mut Hmmm,
        catalog: &Catalog,
        config: &FeedbackConfig,
        obs: &RecorderHandle,
    ) -> Result<UpdateReport, CoreError> {
        let _root = obs.span(metrics::SPAN_FEEDBACK);
        let patterns = std::mem::take(&mut self.patterns);
        if patterns.is_empty() {
            return Ok(UpdateReport {
                patterns_applied: 0,
                videos_updated: 0,
                p12_drift: 0.0,
                a1_drift: 0.0,
            });
        }
        for p in &patterns {
            let Some(video) = catalog.video(p.video) else {
                return Err(CoreError::Inconsistent(format!(
                    "feedback references unknown {}",
                    p.video
                )));
            };
            if p
                .shots
                .iter()
                .any(|s| !video.shot_range.contains(&s.index()))
            {
                return Err(CoreError::Inconsistent(format!(
                    "feedback shot outside {}",
                    p.video
                )));
            }
        }

        // --- A_1 / Π_1 per video (Eqs. 1, 2, 4).
        let local_span = obs.span(metrics::SPAN_FEEDBACK_LOCAL);
        let mut updated_locals = Vec::new();
        let mut a1_drift_total = 0.0;
        for (v, local) in model.locals().iter().enumerate() {
            let video_patterns: Vec<&PositivePattern> =
                patterns.iter().filter(|p| p.video.index() == v).collect();
            if video_patterns.is_empty() {
                continue;
            }
            // The pattern-validation loop above only proves that every
            // *referenced* video exists; a catalog with fewer videos than
            // the model has locals (stale snapshot passed alongside a newer
            // model) would still reach this lookup. Error out instead of
            // panicking the feedback path.
            let Some(record) = catalog.video(VideoId(v)) else {
                return Err(CoreError::Inconsistent(format!(
                    "feedback update: model video {v} missing from catalog \
                     of {} videos (stale catalog?)",
                    catalog.video_count()
                )));
            };
            let base = record.shot_range.start;
            let n = local.len();

            // Eq. (1): counts weighted by the *current* A_1 entries, plus
            // the retention prior. Both terms scale stored entries only: an
            // absent A_1(m, n) is zero and gains nothing, so the counts
            // live on A_1's own support, in its row-major order.
            let old = local.a1();
            let mut counts: Vec<f64> = old.values().iter().map(|&a| a * config.retention).collect();
            for p in &video_patterns {
                let locals: Vec<usize> = p.shots.iter().map(|s| s.index() - base).collect();
                for (i, &m) in locals.iter().enumerate() {
                    for &nn in &locals[i..] {
                        if let Some(k) = old.position(m, nn) {
                            counts[k] += old.values()[k] * p.access;
                        }
                    }
                }
            }
            // Eq. (2): row normalization; a row left without mass becomes
            // a self-loop.
            let a1 = old.renormalized(counts)?;
            a1_drift_total += a1.frobenius_distance(old)?;

            // Eq. (4): initial-state usage — pattern starting shots.
            let mut usage = vec![0.0; n];
            for p in &video_patterns {
                if let Some(first) = p.shots.first() {
                    usage[first.index() - base] += p.access;
                }
            }
            let mut blended: Vec<f64> = local
                .pi1()
                .as_slice()
                .iter()
                .map(|&x| x * config.retention.max(f64::MIN_POSITIVE))
                .collect();
            let total_usage: f64 = usage.iter().sum();
            if total_usage > 0.0 {
                for (b, u) in blended.iter_mut().zip(usage.iter()) {
                    *b += u / total_usage;
                }
            }
            let pi1 = ProbVector::from_counts(&blended)?;
            updated_locals.push((v, LocalMmm::new(a1, pi1)));
        }
        let videos_updated = updated_locals.len();

        drop(local_span);

        // --- A_2 / Π_2 (Eqs. 5, 6): co-access of videos within a query.
        let level2_span = obs.span(metrics::SPAN_FEEDBACK_LEVEL2);
        let m = model.video_count();
        let mut a2_counts = model.a2().as_matrix().clone();
        a2_counts.scale(config.retention);
        let mut queries: Vec<u64> = patterns.iter().map(|p| p.query).collect();
        queries.sort_unstable();
        queries.dedup();
        let mut video_usage = vec![0.0; m];
        for q in queries {
            let mut videos: Vec<(usize, f64)> = patterns
                .iter()
                .filter(|p| p.query == q)
                .map(|p| (p.video.index(), p.access))
                .collect();
            videos.sort_by_key(|&(v, _)| v);
            videos.dedup_by_key(|&mut (v, _)| v);
            for &(a, acc_a) in &videos {
                video_usage[a] += acc_a;
                for &(b, acc_b) in &videos {
                    a2_counts[(a, b)] += acc_a.min(acc_b);
                }
            }
        }
        let a2 = StochasticMatrix::normalize(a2_counts, ZeroRowPolicy::Uniform)?;
        let mut pi2_counts: Vec<f64> = model
            .pi2()
            .as_slice()
            .iter()
            .map(|&x| x * config.retention.max(f64::MIN_POSITIVE))
            .collect();
        let usage_total: f64 = video_usage.iter().sum();
        if usage_total > 0.0 {
            for (c, u) in pi2_counts.iter_mut().zip(video_usage.iter()) {
                *c += u / usage_total;
            }
        }
        let pi2 = ProbVector::from_counts(&pi2_counts)?;
        drop(level2_span);

        // --- P_{1,2} / B_1' (Eqs. 8–11) over the grown membership.
        let cross_span = obs.span(metrics::SPAN_FEEDBACK_CROSS);
        for p in &patterns {
            for (&shot, &event) in p.shots.iter().zip(p.events.iter()) {
                if event < EventKind::COUNT {
                    self.confirmed_members.push((shot, event));
                }
            }
        }
        let (cross, p12_drift) = if config.relearn_p12 {
            let (p12, b1_prime) = relearn_cross_level(
                catalog,
                model.b1(),
                &self.confirmed_members,
                config.std_floor,
            )?;
            let drift = p12
                .as_matrix()
                .frobenius_distance(model.p12().as_matrix())?;
            (Some((p12, b1_prime)), drift)
        } else {
            (None, 0.0)
        };
        drop(cross_span);

        // Install everything at once; the model rebuilds the caches that
        // fold what moved (event terms, coarse index) before returning.
        model.install_feedback(updated_locals, a2, pi2, cross);

        if obs.is_enabled() {
            obs.counter(metrics::CTR_FEEDBACK_PATTERNS, patterns.len() as u64);
            obs.counter(metrics::CTR_FEEDBACK_VIDEOS, videos_updated as u64);
        }

        Ok(UpdateReport {
            patterns_applied: patterns.len(),
            videos_updated,
            p12_drift,
            a1_drift: if videos_updated > 0 {
                a1_drift_total / videos_updated as f64
            } else {
                0.0
            },
        })
    }
}

/// Recomputes `P_{1,2}` (Eqs. 8–10) and `B_1'` (Eq. 11) over catalog
/// annotations plus feedback-confirmed members.
fn relearn_cross_level(
    catalog: &Catalog,
    b1: &[FeatureVector],
    extra: &[(ShotId, usize)],
    std_floor: f64,
) -> Result<(StochasticMatrix, Vec<FeatureVector>), CoreError> {
    let mut members: Vec<Vec<FeatureVector>> = vec![Vec::new(); EventKind::COUNT];
    for (e, kind) in EventKind::ALL.iter().enumerate() {
        for id in catalog.shots_with_event(*kind) {
            members[e].push(b1[id.index()]);
        }
    }
    for &(shot, event) in extra {
        if shot.index() < b1.len() && event < EventKind::COUNT {
            members[event].push(b1[shot.index()]);
        }
    }

    let k = hmmm_features::FEATURE_COUNT;
    let mut p = Matrix::zeros(EventKind::COUNT, k);
    let mut centroids = Vec::with_capacity(EventKind::COUNT);
    for (e, ms) in members.iter().enumerate() {
        centroids.push(FeatureVector::mean_of(ms));
        construct::dispersion_weights_into(ms, std_floor, e, &mut p);
    }
    let p12 = StochasticMatrix::normalize(p, ZeroRowPolicy::Uniform)?;
    Ok((p12, centroids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use hmmm_features::FeatureId;

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
                (vec![EventKind::Goal], feat(0.8, 0.9)),
                (vec![EventKind::CornerKick], feat(0.6, 0.3)),
                (vec![EventKind::Goal], feat(0.75, 0.95)),
            ],
        );
        c.add_video(
            "m2",
            vec![
                (vec![EventKind::FreeKick], feat(0.72, 0.22)),
                (vec![EventKind::Goal], feat(0.78, 0.88)),
            ],
        );
        c
    }

    fn pattern(query: u64, video: usize, shots: Vec<usize>, events: Vec<usize>) -> PositivePattern {
        PositivePattern {
            query,
            video: VideoId(video),
            shots: shots.into_iter().map(ShotId).collect(),
            events,
            access: 1.0,
        }
    }

    #[test]
    fn record_validates_patterns() {
        let mut log = FeedbackLog::new();
        assert!(log
            .record(pattern(0, 0, vec![0, 1], vec![2, 0]))
            .is_ok());
        assert!(log
            .record(pattern(0, 0, vec![1, 0], vec![0, 0]))
            .is_err()); // out of order
        assert!(log
            .record(pattern(0, 0, vec![0], vec![0, 1]))
            .is_err()); // length mismatch
        let mut bad = pattern(0, 0, vec![0], vec![0]);
        bad.access = f64::NAN;
        assert!(log.record(bad).is_err());
        assert_eq!(log.pending(), 1);
    }

    #[test]
    fn threshold_trigger() {
        let mut log = FeedbackLog::new();
        let cfg = FeedbackConfig {
            update_threshold: 2,
            ..FeedbackConfig::default()
        };
        assert!(!log.should_update(&cfg));
        log.record(pattern(0, 0, vec![0], vec![2])).unwrap();
        log.record(pattern(1, 0, vec![1], vec![0])).unwrap();
        assert!(log.should_update(&cfg));
    }

    #[test]
    fn apply_strengthens_confirmed_transition() {
        let c = catalog();
        let mut model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let before = model.locals()[0].a1().get(0, 1);
        assert!(before > 0.0);
        let mut log = FeedbackLog::new();
        // Confirm free_kick(0) → goal(1) in video 0, many accesses.
        for q in 0..5 {
            log.record(PositivePattern {
                query: q,
                video: VideoId(0),
                shots: vec![ShotId(0), ShotId(1)],
                events: vec![EventKind::FreeKick.index(), EventKind::Goal.index()],
                access: 3.0,
            })
            .unwrap();
        }
        let report = log
            .apply(&mut model, &c, &FeedbackConfig::default())
            .unwrap();
        assert_eq!(report.patterns_applied, 5);
        assert_eq!(report.videos_updated, 1);
        assert!(report.a1_drift > 0.0);
        let after = model.locals()[0].a1().get(0, 1);
        assert!(
            after > before,
            "confirmed transition must strengthen: {before} -> {after}"
        );
        // Rows remain stochastic.
        for i in 0..model.locals()[0].len() {
            let s: f64 = model.locals()[0].a1().row(i).1.iter().sum();
            assert!((s - 1.0).abs() < 1e-8);
        }
        // Queue drained.
        assert_eq!(log.pending(), 0);
    }

    #[test]
    fn apply_updates_pi1_toward_pattern_starts() {
        let c = catalog();
        let mut model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let before = model.locals()[0].pi1().get(1);
        let mut log = FeedbackLog::new();
        for q in 0..10 {
            log.record(PositivePattern {
                query: q,
                video: VideoId(0),
                shots: vec![ShotId(1), ShotId(3)],
                events: vec![EventKind::Goal.index(), EventKind::Goal.index()],
                access: 1.0,
            })
            .unwrap();
        }
        log.apply(&mut model, &c, &FeedbackConfig::default())
            .unwrap();
        let after = model.locals()[0].pi1().get(1);
        assert!(after > before, "start shot must gain Π1 mass");
    }

    #[test]
    fn apply_updates_a2_coaccess() {
        let c = catalog();
        let mut model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let before = model.a2().get(0, 1);
        let mut log = FeedbackLog::new();
        // Same query confirms patterns in both videos.
        log.record(pattern(7, 0, vec![1], vec![EventKind::Goal.index()]))
            .unwrap();
        log.record(pattern(7, 1, vec![5], vec![EventKind::Goal.index()]))
            .unwrap();
        log.apply(&mut model, &c, &FeedbackConfig::default())
            .unwrap();
        let after = model.a2().get(0, 1);
        assert!(
            after > before,
            "co-accessed videos must bind: {before} -> {after}"
        );
    }

    #[test]
    fn apply_on_empty_log_is_noop() {
        let c = catalog();
        let mut model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let snapshot = model.clone();
        let mut log = FeedbackLog::new();
        let report = log
            .apply(&mut model, &c, &FeedbackConfig::default())
            .unwrap();
        assert_eq!(report.patterns_applied, 0);
        assert_eq!(model, snapshot);
    }

    #[test]
    fn apply_rejects_foreign_ids() {
        let c = catalog();
        let mut model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let mut log = FeedbackLog::new();
        log.record(pattern(0, 9, vec![0], vec![0])).unwrap();
        assert!(matches!(
            log.apply(&mut model, &c, &FeedbackConfig::default()),
            Err(CoreError::Inconsistent(_))
        ));
        let mut log = FeedbackLog::new();
        // Shot 5 belongs to video 1, not video 0.
        log.record(pattern(0, 0, vec![5], vec![0])).unwrap();
        assert!(matches!(
            log.apply(&mut model, &c, &FeedbackConfig::default()),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn zero_retention_is_paper_literal() {
        // With λ = 0, transitions outside feedback vanish entirely.
        let c = catalog();
        let mut model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let mut log = FeedbackLog::new();
        log.record(PositivePattern {
            query: 0,
            video: VideoId(0),
            shots: vec![ShotId(0), ShotId(1)],
            events: vec![EventKind::FreeKick.index(), EventKind::Goal.index()],
            access: 1.0,
        })
        .unwrap();
        let cfg = FeedbackConfig {
            retention: 0.0,
            ..FeedbackConfig::default()
        };
        log.apply(&mut model, &c, &cfg).unwrap();
        // Transition 0→2 was never confirmed → literal Eq. (1) zeroes it.
        assert_eq!(model.locals()[0].a1().get(0, 2), 0.0);
        assert!(model.locals()[0].a1().get(0, 1) > 0.9);
    }
}
