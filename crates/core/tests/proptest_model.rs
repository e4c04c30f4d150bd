//! Property-based invariants of HMMM construction, retrieval, and feedback
//! over randomly generated catalogs.

use hmmm_core::{
    build_hmmm, BuildConfig, FeedbackConfig, FeedbackLog, Hmmm, PositivePattern, RetrievalConfig,
    Retriever,
};
use hmmm_features::{FeatureVector, FEATURE_COUNT};
use hmmm_matrix::dense::ZeroRowPolicy;
use hmmm_matrix::Matrix;
use hmmm_media::EventKind;
use hmmm_query::{CompiledPattern, CompiledStep};
use hmmm_storage::{Catalog, ShotId, VideoId};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Random feature vector with entries in [0, 1].
fn feature_vector() -> impl Strategy<Value = FeatureVector> {
    proptest::collection::vec(0.0f64..1.0, FEATURE_COUNT)
        .prop_map(|v| FeatureVector::from_slice(&v).expect("exact length"))
}

/// Random event list (0–2 events per shot, like the paper's archive).
fn events() -> impl Strategy<Value = Vec<EventKind>> {
    proptest::collection::vec(0usize..EventKind::COUNT, 0..3).prop_map(|idx| {
        let mut out: Vec<EventKind> = idx
            .into_iter()
            .filter_map(EventKind::from_index)
            .collect();
        out.dedup();
        out
    })
}

/// Random catalog: 1–4 videos × 2–12 shots.
fn catalog() -> impl Strategy<Value = Catalog> {
    proptest::collection::vec(
        proptest::collection::vec((events(), feature_vector()), 2..12),
        1..4,
    )
    .prop_map(|videos| {
        let mut c = Catalog::new();
        for (i, shots) in videos.into_iter().enumerate() {
            c.add_video(format!("v{i}"), shots);
        }
        c
    })
}

/// The dense Eqs. (1)–(2) update of one video's `A_1`, the reference the
/// sparse update must match bit for bit: scale by the retention prior,
/// accumulate `A_1(m, n) · access` over each pattern's forward shot pairs,
/// normalize rows (self-loop for a row without mass), then measure the
/// Frobenius drift from the old matrix.
fn dense_eq1(old: &Matrix, patterns: &[(Vec<usize>, f64)], retention: f64) -> (Matrix, f64) {
    let mut counts = old.clone();
    counts.scale(retention);
    for (shots, access) in patterns {
        for (i, &m) in shots.iter().enumerate() {
            for &n in &shots[i..] {
                counts[(m, n)] += old[(m, n)] * access;
            }
        }
    }
    counts.normalize_rows(ZeroRowPolicy::SelfLoop).unwrap();
    let drift = counts.frobenius_distance(old).unwrap();
    (counts, drift)
}

/// Exactly `0.0` half the time, otherwise a draw from `range`.
fn zero_or(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    (proptest::sample::select(vec![true, false]), range)
        .prop_map(|(zero, x)| if zero { 0.0 } else { x })
}

/// Video `v`'s `A_1` as a dense matrix.
fn dense_a1(model: &Hmmm, v: usize) -> Matrix {
    let a1 = model.locals()[v].a1();
    let n = a1.rows();
    Matrix::from_vec(n, n, (0..n * n).map(|k| a1.get(k / n, k % n)).collect()).unwrap()
}

/// Random single-step or two-step pattern over valid event indices.
fn pattern() -> impl Strategy<Value = CompiledPattern> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0usize..EventKind::COUNT, 1..3),
            proptest::option::of(0usize..6),
        ),
        1..3,
    )
    .prop_map(|steps| CompiledPattern {
        steps: steps
            .into_iter()
            .map(|(mut alternatives, max_gap)| {
                alternatives.dedup();
                CompiledStep {
                    alternatives,
                    max_gap,
                }
            })
            .collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Construction always yields a model that validates against its
    /// catalog, with row-stochastic A1/A2 and unit-mass Π1/Π2.
    #[test]
    fn construction_invariants(cat in catalog(), unann in 0.0f64..0.5) {
        let cfg = BuildConfig { unannotated_weight: unann, ..BuildConfig::default() };
        let model = build_hmmm(&cat, &cfg).unwrap();
        prop_assert!(model.validate_against(&cat).is_ok());
        for local in model.locals() {
            for i in 0..local.len() {
                let s: f64 = local.a1().row(i).1.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-8, "A1 row {i} sums to {s}");
            }
            let mass: f64 = local.pi1().as_slice().iter().sum();
            prop_assert!((mass - 1.0).abs() < 1e-8);
        }
        for i in 0..model.video_count() {
            let s: f64 = model.a2().row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-8);
        }
        for e in 0..EventKind::COUNT {
            let s: f64 = model.p12().row(e).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-8);
        }
    }

    /// A1 is always upper-triangular (temporal): no backward transitions.
    #[test]
    fn a1_is_temporal(cat in catalog()) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        for local in model.locals() {
            for i in 0..local.len() {
                for j in 0..i {
                    prop_assert_eq!(local.a1().get(i, j), 0.0);
                }
            }
        }
    }

    /// Retrieval output is well-formed for any pattern: scores sorted
    /// descending and finite, shots within one video, temporally ordered,
    /// gap bounds respected.
    #[test]
    fn retrieval_output_well_formed(cat in catalog(), pat in pattern(), beam in 1usize..5) {
        let model = build_hmmm(&cat, &BuildConfig { unannotated_weight: 0.2, ..BuildConfig::default() }).unwrap();
        let cfg = RetrievalConfig { beam_width: beam, ..RetrievalConfig::default() };
        let retriever = Retriever::new(&model, &cat, cfg).unwrap();
        let (results, _) = retriever.retrieve(&pat, 20).unwrap();
        for pair in results.windows(2) {
            prop_assert!(pair[0].score >= pair[1].score);
        }
        for r in &results {
            prop_assert!(r.score.is_finite() && r.score >= 0.0);
            prop_assert_eq!(r.shots.len(), pat.steps.len());
            prop_assert_eq!(r.events.len(), pat.steps.len());
            prop_assert!((r.score - r.weights.iter().sum::<f64>()).abs() < 1e-9);
            let mut prev: Option<usize> = None;
            for (shot_id, step) in r.shots.iter().zip(pat.steps.iter()) {
                let shot = cat.shot(*shot_id).unwrap();
                prop_assert_eq!(shot.video, r.video);
                if let Some(p) = prev {
                    prop_assert!(shot.index_in_video >= p);
                    if let Some(gap) = step.max_gap {
                        prop_assert!(shot.index_in_video - p <= gap);
                    }
                }
                prev = Some(shot.index_in_video);
            }
        }
    }

    /// Feedback with arbitrary (valid) positive patterns preserves every
    /// stochastic invariant and never errors.
    #[test]
    fn feedback_preserves_invariants(
        cat in catalog(),
        picks in proptest::collection::vec((0usize..4, proptest::collection::vec(0usize..12, 1..4), 0.1f64..5.0), 0..10),
    ) {
        let mut model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let mut log = FeedbackLog::new();
        for (q, (v, shots, access)) in picks.into_iter().enumerate() {
            let video = VideoId(v % cat.video_count());
            let record = cat.video(video).unwrap();
            let n = record.shot_count();
            let mut locals: Vec<usize> = shots.into_iter().map(|s| s % n).collect();
            locals.sort_unstable();
            let pattern = PositivePattern {
                query: q as u64,
                video,
                shots: locals.iter().map(|&s| ShotId(record.shot_range.start + s)).collect(),
                events: locals.iter().map(|_| 0).collect(),
                access,
            };
            log.record(pattern).unwrap();
        }
        log.apply(&mut model, &cat, &FeedbackConfig::default()).unwrap();
        prop_assert!(model.validate_against(&cat).is_ok());
        for local in model.locals() {
            for i in 0..local.len() {
                let s: f64 = local.a1().row(i).1.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-8);
            }
        }
        for i in 0..model.video_count() {
            let s: f64 = model.a2().row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-8);
        }
    }

    /// The λ-invariant deep audit accepts every freshly built model and
    /// every feedback-updated model — the auditor must never cry wolf on
    /// states the library itself can produce.
    #[test]
    fn deep_audit_accepts_library_produced_models(
        cat in catalog(),
        picks in proptest::collection::vec((0usize..4, proptest::collection::vec(0usize..12, 1..4), 0.1f64..5.0), 0..10),
    ) {
        let mut model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let summary = model.deep_audit(&cat).unwrap();
        prop_assert_eq!(summary.videos, cat.video_count());
        prop_assert_eq!(summary.shots, cat.shot_count());
        prop_assert_eq!(summary.a1_rows, cat.shot_count());
        prop_assert_eq!(summary.links, cat.shot_count());

        let mut log = FeedbackLog::new();
        for (q, (v, shots, access)) in picks.into_iter().enumerate() {
            let video = VideoId(v % cat.video_count());
            let record = cat.video(video).unwrap();
            let n = record.shot_count();
            let mut locals: Vec<usize> = shots.into_iter().map(|s| s % n).collect();
            locals.sort_unstable();
            log.record(PositivePattern {
                query: q as u64,
                video,
                shots: locals.iter().map(|&s| ShotId(record.shot_range.start + s)).collect(),
                events: locals.iter().map(|_| 0).collect(),
                access,
            }).unwrap();
        }
        log.apply(&mut model, &cat, &FeedbackConfig::default()).unwrap();
        prop_assert!(model.deep_audit(&cat).is_ok(), "audit rejected a feedback-updated model");
    }

    /// …and the audit is not vacuous: a persisted model with any single A1
    /// row of any video perturbed past the tolerance is always refused at
    /// load, and the error names A1.
    #[test]
    fn persisted_model_with_any_perturbed_a1_row_is_refused(
        cat in catalog(),
        vsel in 0usize..4,
        rsel in 0usize..12,
        bump in 0.01f64..0.75,
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let v = vsel % model.video_count();
        let a1 = model.locals()[v].a1();
        let row = rsel % a1.rows();
        // Every row stores at least one entry; bump its first.
        let k = a1.position(row, a1.row(row).0[0] as usize).unwrap();
        let mut persisted = model.to_value();
        let mut value = &mut persisted;
        for key in ["locals", &v.to_string(), "a1", "vals", &k.to_string()] {
            value = match value {
                Value::Object(fields) => &mut fields.iter_mut().find(|(f, _)| f == key).unwrap().1,
                Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
                _ => unreachable!("the persisted model nests objects and arrays"),
            };
        }
        let Value::Float(entry) = value else { unreachable!("A1 values are floats") };
        *entry += bump; // row sum now 1 + bump > 1 + tolerance
        let err = Hmmm::from_value(&persisted).unwrap_err();
        let msg = err.to_string();
        prop_assert!(msg.contains("A1"), "error did not name A1: {msg}");
    }

    /// Eq. (1) on the sparse `A_1` equals the dense update bit for bit, on
    /// every entry and on the drift it reports — including a zero
    /// retention prior and zero access frequencies, where every row the
    /// feedback leaves without mass becomes a self-loop.
    #[test]
    fn sparse_eq1_matches_the_dense_update_bitwise(
        cat in catalog(),
        picks in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0usize..12, 1..4),
             zero_or(0.0..5.0)),
            1..10,
        ),
        retention in zero_or(0.0..1.0),
    ) {
        let mut model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let mut per_video: Vec<Vec<(Vec<usize>, f64)>> = vec![Vec::new(); cat.video_count()];
        let mut log = FeedbackLog::new();
        for (q, (v, shots, access)) in picks.into_iter().enumerate() {
            let video = VideoId(v % cat.video_count());
            let record = cat.video(video).unwrap();
            let n = record.shot_count();
            let mut locals: Vec<usize> = shots.into_iter().map(|s| s % n).collect();
            locals.sort_unstable();
            log.record(PositivePattern {
                query: q as u64,
                video,
                shots: locals.iter().map(|&s| ShotId(record.shot_range.start + s)).collect(),
                events: locals.iter().map(|_| 0).collect(),
                access,
            }).unwrap();
            per_video[video.index()].push((locals, access));
        }
        let expected: Vec<Option<(Matrix, f64)>> = per_video
            .iter()
            .enumerate()
            .map(|(v, ps)| (!ps.is_empty()).then(|| dense_eq1(&dense_a1(&model, v), ps, retention)))
            .collect();
        let cfg = FeedbackConfig { retention, ..FeedbackConfig::default() };
        let report = log.apply(&mut model, &cat, &cfg).unwrap();

        let mut drift_total = 0.0;
        for (v, want) in expected.iter().enumerate() {
            let Some((want, drift)) = want else { continue };
            drift_total += drift;
            let got = dense_a1(&model, v);
            for (k, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "video {} cell {}", v, k);
            }
        }
        let updated = expected.iter().filter(|e| e.is_some()).count();
        prop_assert_eq!(report.videos_updated, updated);
        prop_assert_eq!(report.a1_drift.to_bits(), (drift_total / updated as f64).to_bits());
    }

    /// Model serde round-trip is lossless for any catalog.
    #[test]
    fn model_serde_round_trip(cat in catalog()) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: hmmm_core::Hmmm = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(model, back);
    }

    /// Calibrated similarity is always within [0, 1]; literal Eq.-14 is
    /// non-negative; both agree on within-event ordering.
    #[test]
    fn similarity_bounds(cat in catalog(), shot_sel in 0usize..100, event in 0usize..EventKind::COUNT) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let shot = shot_sel % model.shot_count();
        let lit = hmmm_core::sim::similarity(&model, shot, event);
        let cal = hmmm_core::sim::calibrated_similarity(&model, shot, event);
        prop_assert!(lit >= 0.0);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&cal), "calibrated {cal}");
    }
}
