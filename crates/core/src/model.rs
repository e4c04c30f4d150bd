//! The two-level HMMM container.
//!
//! λ stores each fact once. The *sources* — `A_1` (as CSR, its non-zero
//! forward entries only), `Π_1`, `B_1`, `A_2`, `B_2`, `Π_2`, `P_{1,2}`,
//! `B_1'` and the Eq.-(3) normalizer — are the only state a model persists.
//! The *derived caches* the retrieval hot path reads (per-video `A_1` row
//! maxima, `a1_max`/`pi1_max`, the packed Eq.-14 event terms, the
//! calibrated Eq.-14 score table and the [`crate::coarse::CoarseIndex`])
//! are private and rebuilt from the sources by the only three writers:
//! construction ([`crate::build_hmmm`]), the feedback update
//! ([`crate::FeedbackLog::apply`]) and deserialization. Each writer ends in
//! one rebuild, so a cache that disagrees with its sources cannot be built,
//! and nothing needs to check for one.

use crate::coarse::CoarseIndex;
use crate::error::CoreError;
use hmmm_features::{FeatureVector, Normalizer, FEATURE_COUNT};
use hmmm_matrix::{ForwardCsr, ProbVector, StochasticMatrix};
use hmmm_media::EventKind;
use hmmm_storage::Catalog;
use serde::{DeError, Deserialize, Serialize, Value};

/// The *local* MMM of one video (§4.2.1): its shots' temporal affinity
/// matrix and initial-state distribution. Shot indices here are positions
/// **within the video**; the catalog's `shot_range` maps them to global ids.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalMmm {
    /// `A_1` — temporal relative-affinity matrix over the video's shots.
    a1: ForwardCsr,
    /// `Π_1` — initial-state distribution over the video's shots.
    pi1: ProbVector,
    /// Derived bound factors: per-row forward maxima of `A_1`, their
    /// maximum, and the largest entry of `Π_1`.
    a1_row_max: Vec<f64>,
    a1_max: f64,
    pi1_max: f64,
}

impl LocalMmm {
    /// Builds a local MMM, deriving the pruning bound factors
    /// (`a1_row_max`, `a1_max`, `pi1_max`) from the matrices.
    pub(crate) fn new(a1: ForwardCsr, pi1: ProbVector) -> Self {
        let mut a1_row_max = vec![0.0; a1.rows()];
        a1.row_maxima_into(&mut a1_row_max);
        let a1_max = max_of(&a1_row_max);
        let pi1_max = max_of(pi1.as_slice());
        LocalMmm {
            a1,
            pi1,
            a1_row_max,
            a1_max,
            pi1_max,
        }
    }

    /// `A_1`: the non-zero forward entries of the temporal affinity matrix.
    pub fn a1(&self) -> &ForwardCsr {
        &self.a1
    }

    /// `Π_1`: the initial-state distribution over the video's shots.
    pub fn pi1(&self) -> &ProbVector {
        &self.pi1
    }

    /// Per-shot forward transition maxima: `a1_row_max()[s] = max_{t ≥ s}
    /// A_1(s, t)`. The Eq.-13 walk only ever moves forward through the
    /// lattice, so this is the admissible one-step factor for an entry
    /// *sitting on* shot `s` — much tighter than the whole-matrix maximum,
    /// which a trailing self-loop row routinely pushes to ≈1.
    pub fn a1_row_max(&self) -> &[f64] {
        &self.a1_row_max
    }

    /// Largest forward transition factor in the video: the admissible
    /// per-hop factor when a future hop's source shot is not yet known.
    pub fn a1_max(&self) -> f64 {
        self.a1_max
    }

    /// Largest entry of `Π_1`: the admissible Eq.-12 start factor.
    pub fn pi1_max(&self) -> f64 {
        self.pi1_max
    }

    /// Number of shot states.
    pub fn len(&self) -> usize {
        self.pi1.len()
    }

    /// `true` if the video has no shots (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.pi1.is_empty()
    }
}

/// Max of a non-negative slice (`0.0` when empty). Probability entries are
/// never NaN, so plain `f64::max` folding is total here.
fn max_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The persisted fields of a [`LocalMmm`].
#[derive(Deserialize)]
struct LocalMmmFields {
    a1: ForwardCsr,
    pi1: ProbVector,
}

impl Serialize for LocalMmm {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("a1".into(), self.a1.to_value()),
            ("pi1".into(), self.pi1.to_value()),
        ])
    }
}

impl Deserialize for LocalMmm {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let LocalMmmFields { a1, pi1 } = LocalMmmFields::from_value(v)?;
        if pi1.len() != a1.rows() {
            return Err(DeError::new(format!(
                "LocalMmm: Π1 has {} states vs {} A1 rows",
                pi1.len(),
                a1.rows()
            )));
        }
        Ok(LocalMmm::new(a1, pi1))
    }
}

/// Packed Eq.-14 terms of one query event: the features whose `B_1'`
/// centroid clears `CENTROID_EPSILON`, as parallel SoA arrays in ascending
/// feature order, plus the memoized Eq.-14 self-similarity denominator.
///
/// This is what lets the blocked similarity kernel run with *no* epsilon
/// branch in its inner loop: the filtering happened once, here, when the
/// model's caches were built. The arrays deliberately store the raw
/// `(weight, centroid)` pairs rather than a pre-divided `weight / centroid`
/// — the kernel must perform the exact operation sequence of the scalar
/// reference loop (`w * (1 - |b - c|) / c`) to stay bitwise identical.
#[derive(Debug, Clone, PartialEq)]
pub struct EventTerms {
    /// Feature indices `y` with `B_1'(e, y) > CENTROID_EPSILON`, ascending.
    pub features: Vec<u32>,
    /// `B_1'(e, y)` for each packed feature.
    pub centroids: Vec<f64>,
    /// `P_{1,2}(e, y)` for each packed feature.
    pub weights: Vec<f64>,
    /// Memoized [`crate::sim::self_similarity`] — the Eq.-14 score of a shot
    /// sitting exactly on the centroid, used as the calibration denominator.
    pub self_sim: f64,
}

impl EventTerms {
    /// Packs the usable Eq.-14 terms of `event` from the cross-level
    /// matrices. The self-similarity fold walks the packed terms in the
    /// same ascending-feature order as [`crate::sim::self_similarity`]'s
    /// dense loop (which merely *skips* sub-epsilon centroids), so the
    /// memoized denominator is bitwise equal to the reference.
    pub fn build(p12: &StochasticMatrix, centroid: &FeatureVector, event: usize) -> Self {
        let mut terms = EventTerms {
            features: Vec::new(),
            centroids: Vec::new(),
            weights: Vec::new(),
            self_sim: 0.0,
        };
        for y in 0..FEATURE_COUNT {
            let c = centroid[y];
            if c <= crate::sim::CENTROID_EPSILON {
                continue;
            }
            let w = p12.get(event, y);
            terms.features.push(y as u32);
            terms.centroids.push(c);
            terms.weights.push(w);
            terms.self_sim += w / c;
        }
        terms
    }
}

/// A fully constructed two-level HMMM (Definition 1 with `d = 2`).
///
/// | Tuple element | Representation |
/// |---|---|
/// | `d` | 2 (see [`Hmmm::DEPTH`]) |
/// | `S_1`, `S_2` | catalog shot ids / video ids |
/// | `F_1`, `F_2` | Table-1 features / [`EventKind`] concepts |
/// | `A_1` | per-video [`LocalMmm::a1`] (temporal, sparse) |
/// | `A_2` | [`Hmmm::a2`] (co-access, non-temporal) |
/// | `B_1` | [`Hmmm::b1`] (normalized features per shot) |
/// | `B_2` | [`Hmmm::b2`] (event counts per video) |
/// | `Π_1`, `Π_2` | [`LocalMmm::pi1`], [`Hmmm::pi2`] |
/// | `P_{1,2}` | [`Hmmm::p12`] (event × feature importance) |
/// | `B_1'` | [`Hmmm::b1_prime`] (per-event feature centroids, Eq. 11) |
/// | `L_{1,2}` | the catalog's shot→video ranges (dense, implicit) |
///
/// Every field is private. The serialized form holds the sources only
/// (see the module docs); deserializing one checks its shapes and runs the
/// numeric Definition-1 audit ([`crate::audit::audit_numeric`]) before the
/// model exists, so a malformed file is an error, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct Hmmm {
    /// The persisted sources.
    src: Sources,
    /// Derived: per-event packed Eq.-14 terms, folded from `P_{1,2}`/`B_1'`.
    event_terms: Vec<EventTerms>,
    /// Derived: the calibrated Eq.-14 score of every shot against every
    /// event, event-major (`sim_table[e · N + s]`), from `B_1` and the
    /// packed terms. 64 bytes per shot.
    sim_table: Vec<f64>,
    /// Derived: the ingest-time coarse index, folded from `B_2`, the
    /// `Π_1`/`A_1` maxima and the score table.
    coarse: CoarseIndex,
}

/// The sources of a model: everything [`Hmmm`] persists, in its serialized
/// layout. Construction fills one in; deserialization reads one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Sources {
    /// One local MMM per video, indexed by `VideoId`.
    pub(crate) locals: Vec<LocalMmm>,
    /// `B_1`: normalized Table-1 features, indexed by global `ShotId`.
    pub(crate) b1: Vec<FeatureVector>,
    /// `A_2`: video-to-video relative affinity.
    pub(crate) a2: StochasticMatrix,
    /// `B_2`: per-video event counts (`B_2[video][event]`).
    pub(crate) b2: Vec<[usize; EventKind::COUNT]>,
    /// `Π_2`: initial video distribution.
    pub(crate) pi2: ProbVector,
    /// `P_{1,2}`: feature-importance weights, one stochastic row per event.
    pub(crate) p12: StochasticMatrix,
    /// `B_1'`: per-event feature centroids over normalized features.
    pub(crate) b1_prime: Vec<FeatureVector>,
    /// The Eq.-(3) normalizer fitted on the raw catalog features.
    pub(crate) normalizer: Normalizer,
}

impl Sources {
    /// The dimension agreements between the sources that building the
    /// derived caches relies on (it indexes by them): one `B_1` row per
    /// local shot, `A_2`/`Π_2`/`B_2` sized by the video count, `P_{1,2}`
    /// and `B_1'` by the event and feature counts. The `Π_1`/`A_1` pairing
    /// is checked per local as it is read.
    fn check_shapes(&self) -> Result<(), CoreError> {
        let shots: usize = self.locals.iter().map(LocalMmm::len).sum();
        if shots != self.b1.len() {
            return Err(CoreError::Inconsistent(format!(
                "B1 has {} rows vs {shots} local shot states",
                self.b1.len()
            )));
        }
        let m = self.locals.len();
        if self.a2.rows() != m || self.a2.cols() != m || self.pi2.len() != m {
            return Err(CoreError::Inconsistent(format!(
                "A2/Π2 dimensions vs {m} local MMMs"
            )));
        }
        if self.b2.len() != m {
            return Err(CoreError::Inconsistent(format!(
                "B2 has {} rows vs {m} local MMMs",
                self.b2.len()
            )));
        }
        if self.p12.rows() != EventKind::COUNT || self.p12.cols() != FEATURE_COUNT {
            return Err(CoreError::Inconsistent("P12 dimensions".into()));
        }
        if self.b1_prime.len() != EventKind::COUNT {
            return Err(CoreError::Inconsistent("B1' row count".into()));
        }
        Ok(())
    }
}

impl Serialize for Hmmm {
    /// The sources only, borrowed (no copy of the model is made).
    fn to_value(&self) -> Value {
        self.src.to_value()
    }
}

impl Deserialize for Hmmm {
    /// Reads the sources, checks their shapes, rebuilds the derived caches
    /// and runs the numeric Definition-1 audit. Pairing the model with a
    /// catalog is [`crate::load_model`]'s job.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let sources = Sources::from_value(v)?;
        let invalid = |e: CoreError| match e {
            CoreError::Inconsistent(what) => DeError::new(format!("Hmmm: {what}")),
            other => DeError::new(format!("Hmmm: {other}")),
        };
        sources.check_shapes().map_err(invalid)?;
        let model = Hmmm::from_sources(sources);
        crate::audit::audit_numeric(&model).map_err(invalid)?;
        Ok(model)
    }
}

/// Human-readable summary of a model's dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSummary {
    /// Hierarchy depth (`d`).
    pub depth: usize,
    /// Videos (`M`, level-2 states).
    pub videos: usize,
    /// Shots (`N`, level-1 states).
    pub shots: usize,
    /// Level-1 features (`K`).
    pub features: usize,
    /// Level-2 feature concepts (`C`, the events).
    pub events: usize,
}

impl Hmmm {
    /// The hierarchy depth of this deployment (`d` in Definition 1).
    pub const DEPTH: usize = 2;

    /// Assembles a model from its sources and builds every derived cache.
    /// The caller guarantees the shapes agree ([`Sources::check_shapes`]).
    pub(crate) fn from_sources(src: Sources) -> Hmmm {
        let mut model = Hmmm {
            src,
            event_terms: Vec::new(),
            sim_table: Vec::new(),
            coarse: CoarseIndex::default(),
        };
        model.refresh();
        model
    }

    /// Installs what one feedback round relearned (Eqs. 1–2, 4–6, 8–11):
    /// the updated local MMMs by video index, `A_2`/`Π_2`, and `P_{1,2}`/
    /// `B_1'` when the round relearned them. Then rebuilds the caches that
    /// fold them.
    pub(crate) fn install_feedback(
        &mut self,
        locals: Vec<(usize, LocalMmm)>,
        a2: StochasticMatrix,
        pi2: ProbVector,
        cross: Option<(StochasticMatrix, Vec<FeatureVector>)>,
    ) {
        for (v, local) in locals {
            self.src.locals[v] = local;
        }
        self.src.a2 = a2;
        self.src.pi2 = pi2;
        if let Some((p12, b1_prime)) = cross {
            self.src.p12 = p12;
            self.src.b1_prime = b1_prime;
        }
        self.refresh();
    }

    /// Rebuilds the caches that fold relearnable sources, once per epoch:
    /// the packed event terms from `P_{1,2}`/`B_1'`, the score table from
    /// `B_1` and those terms, then the coarse index, folded from the table.
    fn refresh(&mut self) {
        self.event_terms = (0..EventKind::COUNT)
            .map(|e| EventTerms::build(&self.src.p12, &self.src.b1_prime[e], e))
            .collect();
        self.sim_table = crate::sim::calibrated_table(&self.src.b1, &self.event_terms);
        self.coarse = CoarseIndex::build(self);
    }

    /// Dimension summary.
    pub fn summary(&self) -> ModelSummary {
        ModelSummary {
            depth: Self::DEPTH,
            videos: self.src.locals.len(),
            shots: self.src.b1.len(),
            features: FEATURE_COUNT,
            events: EventKind::COUNT,
        }
    }

    /// Number of videos (`M`).
    pub fn video_count(&self) -> usize {
        self.src.locals.len()
    }

    /// Number of shots (`N`).
    pub fn shot_count(&self) -> usize {
        self.src.b1.len()
    }

    /// The local MMMs (`A_1`, `Π_1` per video), indexed by `VideoId`.
    pub fn locals(&self) -> &[LocalMmm] {
        &self.src.locals
    }

    /// `B_1`: normalized Table-1 features, indexed by global `ShotId`.
    pub fn b1(&self) -> &[FeatureVector] {
        &self.src.b1
    }

    /// `A_2`: video-to-video relative affinity.
    pub fn a2(&self) -> &StochasticMatrix {
        &self.src.a2
    }

    /// `B_2`: per-video event counts (`b2()[video][event]`).
    pub fn b2(&self) -> &[[usize; EventKind::COUNT]] {
        &self.src.b2
    }

    /// `Π_2`: initial video distribution.
    pub fn pi2(&self) -> &ProbVector {
        &self.src.pi2
    }

    /// `P_{1,2}`: feature-importance weights, one stochastic row per event.
    pub fn p12(&self) -> &StochasticMatrix {
        &self.src.p12
    }

    /// `B_1'`: per-event feature centroids (Eq. 11).
    pub fn b1_prime(&self) -> &[FeatureVector] {
        &self.src.b1_prime
    }

    /// The Eq.-(3) normalizer fitted on the raw catalog features.
    pub fn normalizer(&self) -> &Normalizer {
        &self.src.normalizer
    }

    /// Per-event packed Eq.-14 terms, one entry per [`EventKind`].
    pub(crate) fn event_terms(&self) -> &[EventTerms] {
        &self.event_terms
    }

    /// Eq. (14), calibrated, for every shot: `sim_row(e)[s]` is
    /// `sim(s, e)` rescaled by the event's self-similarity, indexed by
    /// global `ShotId`, bitwise equal to
    /// [`crate::sim::calibrated_similarity`]`(self, s, e)` (`0.0` for an
    /// event with no feature support).
    ///
    /// The scores read only model sources (`B_1`, `P_{1,2}`, `B_1'`), so
    /// the model fills the table once per epoch and every retrieval reads
    /// it instead of evaluating Eq. 14.
    ///
    /// ```
    /// use hmmm_core::sim::calibrated_similarity;
    /// use hmmm_core::{build_hmmm, BuildConfig};
    /// use hmmm_features::{FeatureId, FeatureVector};
    /// use hmmm_media::EventKind;
    /// use hmmm_storage::Catalog;
    ///
    /// # fn feat(grass: f64) -> FeatureVector {
    /// #     let mut f = FeatureVector::zeros();
    /// #     f[FeatureId::GrassRatio] = grass;
    /// #     f
    /// # }
    /// let mut catalog = Catalog::new();
    /// catalog.add_video("v1", vec![
    ///     (vec![EventKind::FreeKick], feat(0.3)),
    ///     (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8)),
    /// ]);
    /// let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
    /// let goal = model.sim_row(EventKind::Goal.index());
    /// assert_eq!(goal.len(), 2);
    /// assert_eq!(goal[1], calibrated_similarity(&model, 1, EventKind::Goal.index()));
    /// // No red card in the archive: no feature support, a zero row.
    /// assert!(model.sim_row(EventKind::RedCard.index()).iter().all(|&s| s == 0.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `event >= EventKind::COUNT`.
    pub fn sim_row(&self, event: usize) -> &[f64] {
        let n = self.src.b1.len();
        &self.sim_table[event * n..(event + 1) * n]
    }

    /// The coarse index, the first stage of every retrieval.
    pub fn coarse(&self) -> &CoarseIndex {
        &self.coarse
    }

    /// Pairs the model with a catalog: one local MMM per video, each with
    /// one state per shot of that video, and one `B_1` row per shot. Every
    /// other agreement (matrix dimensions, fresh derived caches) holds by
    /// construction.
    ///
    /// On success it returns a [`Validated`] proof borrowing both values.
    /// The proof is what [`crate::Retriever::from_validated`] takes, so a
    /// caller that answers many queries against one unchanging model pays
    /// for this check once, not once per query.
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] naming the first mismatch.
    pub fn validate_against<'a>(
        &'a self,
        catalog: &'a Catalog,
    ) -> Result<Validated<'a>, CoreError> {
        if self.src.locals.len() != catalog.video_count() {
            return Err(CoreError::Inconsistent(format!(
                "{} local MMMs vs {} videos",
                self.src.locals.len(),
                catalog.video_count()
            )));
        }
        if self.src.b1.len() != catalog.shot_count() {
            return Err(CoreError::Inconsistent(format!(
                "B1 has {} rows vs {} shots",
                self.src.b1.len(),
                catalog.shot_count()
            )));
        }
        for (v, local) in catalog.videos().iter().zip(self.src.locals.iter()) {
            if local.len() != v.shot_count() {
                return Err(CoreError::Inconsistent(format!(
                    "local MMM of {} has {} states vs {} shots",
                    v.id,
                    local.len(),
                    v.shot_count()
                )));
            }
        }
        Ok(Validated {
            model: self,
            catalog,
        })
    }
}

/// Proof that a model passed [`Hmmm::validate_against`] for a catalog.
///
/// Only `validate_against` creates one, and it holds shared borrows of
/// both values. `Hmmm` and `Catalog` have no interior mutability, so for as
/// long as the proof lives neither can change: the borrow checker, not a
/// convention, keeps the checked model and the served model the same.
///
/// ```
/// # use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
/// # use hmmm_features::FeatureVector;
/// # use hmmm_media::EventKind;
/// # use hmmm_storage::Catalog;
/// let mut catalog = Catalog::new();
/// catalog.add_video("v", vec![(vec![EventKind::Goal], FeatureVector::zeros())]);
/// let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
/// let proof = model.validate_against(&catalog).unwrap();
/// // Any number of retrievers from one proof; none re-validates.
/// let _a = Retriever::from_validated(proof, RetrievalConfig::default());
/// let _b = Retriever::from_validated(proof, RetrievalConfig::content_only());
/// ```
///
/// The model cannot be mutated while a proof of it is alive, not even by
/// its own feedback update:
///
/// ```compile_fail,E0502
/// # use hmmm_core::{build_hmmm, BuildConfig, FeedbackConfig, FeedbackLog};
/// # use hmmm_core::{RetrievalConfig, Retriever};
/// # use hmmm_features::FeatureVector;
/// # use hmmm_media::EventKind;
/// # use hmmm_storage::Catalog;
/// let mut catalog = Catalog::new();
/// catalog.add_video("v", vec![(vec![EventKind::Goal], FeatureVector::zeros())]);
/// let mut model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
/// let proof = model.validate_against(&catalog).unwrap();
/// let mut log = FeedbackLog::new();
/// log.apply(&mut model, &catalog, &FeedbackConfig::default()).unwrap(); // refused
/// let _r = Retriever::from_validated(proof, RetrievalConfig::default());
/// ```
///
/// Nor can a proof outlive the model it vouches for:
///
/// ```compile_fail
/// # use hmmm_core::{build_hmmm, BuildConfig, Validated};
/// # use hmmm_features::FeatureVector;
/// # use hmmm_media::EventKind;
/// # use hmmm_storage::Catalog;
/// let mut catalog = Catalog::new();
/// catalog.add_video("v", vec![(vec![EventKind::Goal], FeatureVector::zeros())]);
/// let proof: Validated<'_> = {
///     let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
///     model.validate_against(&catalog).unwrap()
/// }; // `model` dropped here while still borrowed
/// let _ = proof;
/// ```
#[derive(Clone, Copy)]
pub struct Validated<'a> {
    model: &'a Hmmm,
    catalog: &'a Catalog,
}

impl<'a> Validated<'a> {
    /// The validated model.
    pub(crate) fn model(self) -> &'a Hmmm {
        self.model
    }

    /// The catalog the model was validated against.
    pub(crate) fn catalog(self) -> &'a Catalog {
        self.catalog
    }
}

impl std::fmt::Debug for Validated<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Dimensions only: the model and catalog can be megabytes.
        f.debug_struct("Validated")
            .field("videos", &self.model.video_count())
            .field("shots", &self.model.shot_count())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use hmmm_features::FeatureId;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let feat = |x: f64| {
            let mut v = FeatureVector::zeros();
            v[FeatureId::GrassRatio] = x;
            v[FeatureId::VolumeMean] = 1.0 - x;
            v
        };
        c.add_video(
            "m1",
            vec![
                (vec![EventKind::FreeKick], feat(0.2)),
                (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8)),
                (vec![EventKind::CornerKick], feat(0.5)),
            ],
        );
        c.add_video(
            "m2",
            vec![
                (vec![EventKind::Goal], feat(0.9)),
                (vec![], feat(0.1)),
            ],
        );
        c
    }

    #[test]
    fn summary_reports_dimensions() {
        let c = catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let s = m.summary();
        assert_eq!(s.depth, 2);
        assert_eq!(s.videos, 2);
        assert_eq!(s.shots, 5);
        assert_eq!(s.features, 20);
        assert_eq!(s.events, 8);
    }

    #[test]
    fn validate_against_accepts_own_catalog() {
        let c = catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        assert!(m.validate_against(&c).is_ok());
    }

    #[test]
    fn validate_against_detects_drift() {
        let c = catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let mut c2 = c.clone();
        c2.add_video("extra", vec![(vec![], FeatureVector::zeros())]);
        assert!(matches!(
            m.validate_against(&c2),
            Err(CoreError::Inconsistent(_))
        ));
    }

    #[test]
    fn serde_round_trip() {
        let c = catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Hmmm = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    /// Deserializes the persisted form of `m` after `edit` rewrote the
    /// value at `path` (object keys, array indices).
    pub(crate) fn load_edited(
        m: &Hmmm,
        path: &[&str],
        edit: impl FnOnce(&mut Value),
    ) -> Result<Hmmm, DeError> {
        let mut persisted = m.to_value();
        let mut node = &mut persisted;
        for key in path {
            node = match node {
                Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
                other => panic!("no {key} in {other:?}"),
            };
        }
        edit(node);
        Hmmm::from_value(&persisted)
    }

    #[test]
    fn deserializer_rejects_disagreeing_source_shapes() {
        let m = build_hmmm(&catalog(), &BuildConfig::default()).unwrap();
        let grow = |v: &mut Value| match v {
            Value::Array(items) => items.push(items[0].clone()),
            _ => panic!("array"),
        };
        for (path, expect) in [
            (&["b1"][..], "B1 has 6 rows vs 5"),
            (&["b2"], "B2 has 3 rows"),
            (&["locals", "1", "pi1"], "Π1 has 3 states vs 2 A1 rows"),
        ] {
            let err = load_edited(&m, path, grow).unwrap_err();
            assert!(err.to_string().contains(expect), "{err}");
        }
    }
}
