//! §4.2 model construction.

use crate::error::CoreError;
use crate::metrics as m;
use crate::model::{Hmmm, LocalMmm, Sources};
use hmmm_features::{FeatureVector, FEATURE_COUNT};
use hmmm_obs::RecorderHandle;
use hmmm_matrix::dense::ZeroRowPolicy;
use hmmm_matrix::{ForwardCsr, Matrix, ProbVector, StochasticMatrix};
use hmmm_media::EventKind;
use hmmm_storage::Catalog;
use serde::{Deserialize, Serialize};

/// Construction options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuildConfig {
    /// Annotation-count mass given to *unannotated* shots in the `A_1`
    /// initialization. The paper's closed form (§4.2.1.1) is defined over
    /// annotated shots (`NE ≥ 1`); a small positive weight here keeps
    /// unannotated shots reachable for feature-similarity traversal, `0.0`
    /// reproduces the paper exactly.
    pub unannotated_weight: f64,
    /// Initialize `A_2` from `B_2` content similarity (cosine over event
    /// counts) instead of the uniform matrix. The paper builds `A_2` purely
    /// from access patterns (Eq. 5), which do not exist before training;
    /// content-seeded affinity is the documented cold-start alternative and
    /// is ablated in the benches.
    pub a2_from_content: bool,
    /// Learn `P_{1,2}` from per-event feature dispersion (Eqs. 8–10) at
    /// build time when annotations exist; `false` keeps the uniform Eq.-(7)
    /// initialization (the ablation baseline).
    pub learn_p12: bool,
    /// Dispersion floor for Eq. (8) (`1/Std` with `Std < floor` clamps), so
    /// zero-variance features do not absorb all weight.
    pub std_floor: f64,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            unannotated_weight: 0.0,
            a2_from_content: true,
            learn_p12: true,
            std_floor: 1e-3,
        }
    }
}

impl BuildConfig {
    /// The strictly paper-literal configuration: `A_1` over annotated mass
    /// only, uniform `A_2`, uniform `P_{1,2}` (everything that Eqs. 1–10
    /// would later learn from feedback starts flat).
    pub fn paper_literal() -> Self {
        BuildConfig {
            unannotated_weight: 0.0,
            a2_from_content: false,
            learn_p12: false,
            std_floor: 1e-3,
        }
    }
}

/// Builds the §4.2.1.1 initial `A_1` from per-shot annotation counts.
///
/// `A_1(i,j) = NE(s_j) / (Σ_{k=i}^N NE(s_k) − 1)` for `i < j`,
/// `A_1(i,i) = (NE(s_i) − 1) / (Σ_{k=i}^N NE(s_k) − 1)`, `A_1(N,N) = 1`,
/// zeros below the diagonal. Rows whose forward annotation mass is
/// exhausted become absorbing (self-loop), matching the `A_1(N,N) = 1`
/// convention; rows are re-normalized (Eq. 2) to absorb the `NE = 0` edge
/// cases the paper's formula leaves undefined. Only the non-zero forward
/// entries are ever materialized.
///
/// # Examples
///
/// The paper's §4.2.1.1 worked example: a video of three shots annotated
/// `{free_kick}`, `{free_kick, goal}`, `{corner_kick}`, so `NE = [1, 2, 1]`
/// and the closed form gives exactly 2/3, 1/3, 1/2, 1/2, 1:
///
/// ```
/// use hmmm_core::construct::a1_initial_from_counts;
///
/// let a1 = a1_initial_from_counts(&[1.0, 2.0, 1.0]).unwrap();
/// assert!((a1.get(0, 1) - 2.0 / 3.0).abs() < 1e-12); // A1(1,2) = NE(s2)/(4−1)
/// assert!((a1.get(0, 2) - 1.0 / 3.0).abs() < 1e-12); // A1(1,3) = NE(s3)/(4−1)
/// assert!((a1.get(1, 1) - 1.0 / 2.0).abs() < 1e-12); // A1(2,2) = (NE(s2)−1)/(3−1)
/// assert!((a1.get(1, 2) - 1.0 / 2.0).abs() < 1e-12); // A1(2,3) = NE(s3)/(3−1)
/// assert_eq!(a1.get(2, 2), 1.0);                     // A1(3,3) = 1 (absorbing)
/// assert_eq!(a1.get(2, 0), 0.0);                     // temporal: no backward mass
/// ```
///
/// # Errors
///
/// [`CoreError::Matrix`] if `ne` is empty.
pub fn a1_initial_from_counts(ne: &[f64]) -> Result<ForwardCsr, CoreError> {
    let n = ne.len();
    if n == 0 {
        return Err(CoreError::Matrix(hmmm_matrix::MatrixError::Empty));
    }
    // Suffix sums: suffix[i] = Σ_{k=i}^{N-1} ne[k].
    let mut suffix = vec![0.0; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + ne[i];
    }
    let mut row_start = Vec::with_capacity(n + 1);
    let mut cols = Vec::new();
    let mut counts = Vec::new();
    row_start.push(0u32);
    for i in 0..n {
        let denom = suffix[i] - 1.0;
        if i == n - 1 || denom <= 0.0 {
            cols.push(i as u32);
            counts.push(1.0);
        } else {
            for j in i..n {
                let num = if j == i { ne[i] - 1.0 } else { ne[j] };
                let count = (num / denom).max(0.0);
                if count > 0.0 {
                    cols.push(j as u32);
                    counts.push(count);
                }
            }
        }
        row_start.push(cols.len() as u32);
    }
    ForwardCsr::from_counts(row_start, cols, counts).map_err(CoreError::from)
}

/// Builds the complete two-level HMMM from a catalog.
///
/// # Examples
///
/// Constructing the model over the §4.2.1.1 three-shot video reproduces the
/// worked example's `A_1` inside [`Hmmm::locals`] and fills the rest of the
/// Definition-1 tuple (`B_1` from Eq.-3 normalization, `B_1'` centroids per
/// Eq. 11, `P_{1,2}` per Eqs. 7–10):
///
/// ```
/// use hmmm_core::{build_hmmm, BuildConfig};
/// use hmmm_features::{FeatureId, FeatureVector};
/// use hmmm_media::EventKind;
/// use hmmm_storage::Catalog;
///
/// # fn feat(grass: f64, volume: f64) -> FeatureVector {
/// #     let mut f = FeatureVector::zeros();
/// #     f[FeatureId::GrassRatio] = grass;
/// #     f[FeatureId::VolumeMean] = volume;
/// #     f
/// # }
/// // §4.2.1.1: shots annotated {free_kick}, {free_kick, goal}, {corner_kick}.
/// let mut catalog = Catalog::new();
/// catalog.add_video("v1", vec![
///     (vec![EventKind::FreeKick], feat(0.3, 0.2)),
///     (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8, 0.9)),
///     (vec![EventKind::CornerKick], feat(0.5, 0.4)),
/// ]);
///
/// let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
/// assert_eq!(model.summary().videos, 1);
/// assert_eq!(model.summary().shots, 3);
///
/// // NE = [1, 2, 1] → the worked example's first row: (0, 2/3, 1/3).
/// let a1 = model.locals()[0].a1();
/// assert!((a1.get(0, 1) - 2.0 / 3.0).abs() < 1e-12);
/// assert!((a1.get(0, 2) - 1.0 / 3.0).abs() < 1e-12);
///
/// // B_2 counts the annotations per video; goal appears once.
/// assert_eq!(model.b2()[0][EventKind::Goal.index()], 1);
/// ```
///
/// # Errors
///
/// [`CoreError::Catalog`] for an empty catalog, [`CoreError::Matrix`] for
/// degenerate matrix construction.
pub fn build_hmmm(catalog: &Catalog, config: &BuildConfig) -> Result<Hmmm, CoreError> {
    build_hmmm_observed(catalog, config, &RecorderHandle::noop())
}

/// [`build_hmmm`] with per-stage observability: wraps each construction
/// stage (`B_1` normalization, local MMMs, level-2 matrices, cross-level
/// glue) in a span and counts model size — see [`crate::metrics`] for the
/// names. With a noop handle this is exactly `build_hmmm` (the §4.2
/// construction, Eqs. 1–3, 7, 11).
///
/// # Errors
///
/// Same as [`build_hmmm`].
pub fn build_hmmm_observed(
    catalog: &Catalog,
    config: &BuildConfig,
    obs: &RecorderHandle,
) -> Result<Hmmm, CoreError> {
    let _root = obs.span(m::SPAN_CONSTRUCT);
    if catalog.video_count() == 0 || catalog.shot_count() == 0 {
        return Err(CoreError::Catalog(hmmm_storage::CatalogError::Empty));
    }

    // B_1: Eq. (3) normalization over the whole archive.
    let (normalizer, b1) = {
        let _span = obs.span(m::SPAN_CONSTRUCT_B1);
        let normalizer = catalog.fit_normalizer()?;
        let b1: Vec<FeatureVector> = catalog
            .shots()
            .iter()
            .map(|s| normalizer.normalize(&s.features))
            .collect();
        (normalizer, b1)
    };

    // Local MMMs: per-video A_1 (closed form) and Π_1 (uniform until
    // feedback provides Eq.-4 usage data).
    let locals = {
        let _span = obs.span(m::SPAN_CONSTRUCT_LOCALS);
        catalog
            .videos()
            .iter()
            .map(|v| {
                let ne: Vec<f64> = catalog
                    .shots_of_video(v.id)
                    .iter()
                    .map(|s| {
                        let ne = s.event_count() as f64;
                        if ne > 0.0 {
                            ne
                        } else {
                            config.unannotated_weight
                        }
                    })
                    .collect();
                let a1 = a1_initial_from_counts(&ne)?;
                let pi1 = ProbVector::uniform(ne.len())?;
                Ok(LocalMmm::new(a1, pi1))
            })
            .collect::<Result<Vec<_>, CoreError>>()?
    };

    // Level 2: B_2 straight from the catalog, then A_2 (uniform
    // paper-literal or content-seeded cosine affinity) and Π_2.
    let (b2, a2, pi2) = {
        let _span = obs.span(m::SPAN_CONSTRUCT_LEVEL2);
        let b2 = catalog.event_count_matrix();
        let videos = catalog.video_count();
        let a2 = if config.a2_from_content {
            a2_from_event_counts(&b2)?
        } else {
            StochasticMatrix::uniform(videos, videos)?
        };
        let pi2 = ProbVector::uniform(videos)?;
        (b2, a2, pi2)
    };

    // B_1' (Eq. 11) and P_{1,2} (Eq. 7 / Eqs. 8–10).
    let (b1_prime, p12) = {
        let _span = obs.span(m::SPAN_CONSTRUCT_CROSS);
        let b1_prime = event_centroids(catalog, &b1);
        let p12 = if config.learn_p12 {
            learn_p12(catalog, &b1, config.std_floor)?
        } else {
            StochasticMatrix::uniform(EventKind::COUNT, FEATURE_COUNT)?
        };
        (b1_prime, p12)
    };

    if obs.is_enabled() {
        obs.counter(m::CTR_CONSTRUCT_VIDEOS, catalog.video_count() as u64);
        obs.counter(m::CTR_CONSTRUCT_SHOTS, catalog.shot_count() as u64);
    }

    Ok(Hmmm::from_sources(Sources {
        locals,
        b1,
        a2,
        b2,
        pi2,
        p12,
        b1_prime,
        normalizer,
    }))
}

/// `B_1'` per Eq. (11): the mean normalized feature vector over the shots
/// annotated with each event (zero vector for events with no examples).
pub fn event_centroids(catalog: &Catalog, b1: &[FeatureVector]) -> Vec<FeatureVector> {
    EventKind::ALL
        .iter()
        .map(|&kind| {
            let members: Vec<FeatureVector> = catalog
                .shots_with_event(kind)
                .into_iter()
                .map(|id| b1[id.index()])
                .collect();
            FeatureVector::mean_of(&members)
        })
        .collect()
}

/// `P_{1,2}` per Eqs. (8)–(10): row `i` is the normalized inverse standard
/// deviation of each feature over the shots annotated with event `i`.
/// Events with fewer than two examples fall back to the uniform Eq.-(7) row.
///
/// Columns whose member values are all (near) zero are *excluded* rather
/// than given `1/Std → ∞` weight: a feature that never fires for the event
/// carries no evidence, and Eq. (14) skips zero-centroid features anyway
/// (the paper's "K non-zero features" restriction, applied to learning).
///
/// # Errors
///
/// [`CoreError::Matrix`] only on internal dimension bugs.
pub fn learn_p12(
    catalog: &Catalog,
    b1: &[FeatureVector],
    std_floor: f64,
) -> Result<StochasticMatrix, CoreError> {
    let mut m = Matrix::zeros(EventKind::COUNT, FEATURE_COUNT);
    for (row, &kind) in EventKind::ALL.iter().enumerate() {
        let members: Vec<FeatureVector> = catalog
            .shots_with_event(kind)
            .into_iter()
            .map(|id| b1[id.index()])
            .collect();
        dispersion_weights_into(&members, std_floor, row, &mut m);
    }
    // Eq. (9)/(10): row normalization.
    StochasticMatrix::normalize(m, ZeroRowPolicy::Uniform).map_err(CoreError::from)
}

/// Fills `m[row]` with Eq.-(8) inverse-dispersion weights for one event's
/// member shots (uniform when fewer than two members; zero-support columns
/// excluded). Shared by build-time learning and feedback re-learning.
pub(crate) fn dispersion_weights_into(
    members: &[FeatureVector],
    std_floor: f64,
    row: usize,
    m: &mut Matrix,
) {
    if members.len() < 2 {
        for col in 0..FEATURE_COUNT {
            m[(row, col)] = 1.0 / FEATURE_COUNT as f64;
        }
        return;
    }
    let centroid = FeatureVector::mean_of(members);
    let std = FeatureVector::std_of(members);
    for col in 0..FEATURE_COUNT {
        m[(row, col)] = if centroid[col] <= crate::sim::CENTROID_EPSILON {
            0.0
        } else {
            // Eq. (8): P'(i,j) = 1 / Std_{i,j}, floored.
            1.0 / std[col].max(std_floor)
        };
    }
}

/// Content-seeded `A_2`: cosine similarity of `B_2` rows, row-normalized.
/// Videos with no events fall back to the uniform row.
fn a2_from_event_counts(b2: &[[usize; EventKind::COUNT]]) -> Result<StochasticMatrix, CoreError> {
    let m = b2.len();
    let mut mat = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            mat[(i, j)] = cosine(&b2[i], &b2[j]);
        }
    }
    StochasticMatrix::normalize(mat, ZeroRowPolicy::Uniform).map_err(CoreError::from)
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

#[cfg(test)]
mod tests {
    use super::*;
    use hmmm_features::FeatureId;

    /// §4.2.1.1 worked example: shots annotated [FreeKick], [FreeKick+Goal],
    /// [CornerKick] → NE = [1, 2, 1] and the exact closed-form values.
    #[test]
    fn a1_initialization_reproduces_the_papers_example() {
        let a1 = a1_initial_from_counts(&[1.0, 2.0, 1.0]).unwrap();
        let close = |x: f64, y: f64| (x - y).abs() < 1e-12;
        assert!(close(a1.get(0, 1), 2.0 / 3.0), "A1(1,2) = {}", a1.get(0, 1));
        assert!(close(a1.get(0, 2), 1.0 / 3.0), "A1(1,3) = {}", a1.get(0, 2));
        assert!(close(a1.get(0, 0), 0.0));
        assert!(close(a1.get(1, 1), 0.5), "A1(2,2) = {}", a1.get(1, 1));
        assert!(close(a1.get(1, 2), 0.5), "A1(2,3) = {}", a1.get(1, 2));
        assert!(close(a1.get(2, 2), 1.0), "A1(3,3) = {}", a1.get(2, 2));
        // Temporal: nothing below the diagonal.
        assert!(close(a1.get(1, 0), 0.0));
        assert!(close(a1.get(2, 0), 0.0));
        assert!(close(a1.get(2, 1), 0.0));
    }

    #[test]
    fn a1_single_shot_is_absorbing() {
        let a1 = a1_initial_from_counts(&[3.0]).unwrap();
        assert_eq!(a1.get(0, 0), 1.0);
    }

    #[test]
    fn a1_handles_unannotated_tails() {
        // Trailing zero-mass shots: their rows become absorbing, earlier
        // rows simply never reach them.
        let a1 = a1_initial_from_counts(&[2.0, 0.0, 0.0]).unwrap();
        assert_eq!(a1.get(1, 1), 1.0);
        assert_eq!(a1.get(2, 2), 1.0);
        assert_eq!(a1.get(0, 1), 0.0);
        let sum: f64 = a1.row(0).1.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a1_empty_rejected() {
        assert!(a1_initial_from_counts(&[]).is_err());
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let feat = |g: f64, v: f64| {
            let mut f = FeatureVector::zeros();
            f[FeatureId::GrassRatio] = g;
            f[FeatureId::VolumeMean] = v;
            f
        };
        c.add_video(
            "m1",
            vec![
                (vec![EventKind::FreeKick], feat(0.7, 0.2)),
                (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8, 0.9)),
                (vec![], feat(0.4, 0.1)),
                (vec![EventKind::Goal], feat(0.75, 0.95)),
            ],
        );
        c.add_video(
            "m2",
            vec![
                (vec![EventKind::CornerKick], feat(0.6, 0.3)),
                (vec![EventKind::Goal], feat(0.7, 0.85)),
            ],
        );
        c
    }

    #[test]
    fn build_produces_consistent_model() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        assert!(model.validate_against(&c).is_ok());
        assert_eq!(model.locals()[0].len(), 4);
        assert_eq!(model.locals()[1].len(), 2);
    }

    #[test]
    fn empty_catalog_rejected() {
        assert!(matches!(
            build_hmmm(&Catalog::new(), &BuildConfig::default()),
            Err(CoreError::Catalog(_))
        ));
    }

    #[test]
    fn b2_counts_match_catalog() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        assert_eq!(model.b2()[0][EventKind::FreeKick.index()], 2);
        assert_eq!(model.b2()[0][EventKind::Goal.index()], 2);
        assert_eq!(model.b2()[1][EventKind::CornerKick.index()], 1);
    }

    #[test]
    fn centroids_average_member_shots() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        // Goal shots are the loud ones; its centroid volume must exceed the
        // free-kick centroid's.
        let goal = &model.b1_prime()[EventKind::Goal.index()];
        let fk = &model.b1_prime()[EventKind::FreeKick.index()];
        assert!(goal[FeatureId::VolumeMean] > fk[FeatureId::VolumeMean]);
        // Unseen events have the zero centroid.
        let red = &model.b1_prime()[EventKind::RedCard.index()];
        assert_eq!(*red, FeatureVector::zeros());
    }

    #[test]
    fn learned_p12_upweights_stable_features() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        // Goal shots share high volume (std small) but catalog-wide grass
        // varies more; volume weight must beat the uniform baseline.
        let goal_row = EventKind::Goal.index();
        let w_volume = model.p12().get(goal_row, FeatureId::VolumeMean.index());
        assert!(
            w_volume > 1.0 / FEATURE_COUNT as f64,
            "volume weight {w_volume}"
        );
        // Rows with < 2 examples are uniform.
        let red_row = EventKind::RedCard.index();
        let w = model.p12().get(red_row, 0);
        assert!((w - 1.0 / FEATURE_COUNT as f64).abs() < 1e-12);
    }

    #[test]
    fn paper_literal_config_is_uniform() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::paper_literal()).unwrap();
        let u = 1.0 / FEATURE_COUNT as f64;
        for row in 0..EventKind::COUNT {
            for col in 0..FEATURE_COUNT {
                assert!((model.p12().get(row, col) - u).abs() < 1e-12);
            }
        }
        let m = c.video_count();
        for i in 0..m {
            for j in 0..m {
                assert!((model.a2().get(i, j) - 1.0 / m as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn content_a2_links_similar_videos() {
        let c = catalog();
        let model = build_hmmm(&c, &BuildConfig::default()).unwrap();
        // Both videos contain goals → off-diagonal affinity is non-zero.
        assert!(model.a2().get(0, 1) > 0.0);
    }
}
