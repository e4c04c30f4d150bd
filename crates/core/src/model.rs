//! The two-level HMMM container.

use crate::error::CoreError;
use hmmm_features::{FeatureSlab, FeatureVector, Normalizer, FEATURE_COUNT};
use hmmm_matrix::{ForwardCsr, ProbVector, StochasticMatrix};
use hmmm_media::EventKind;
use hmmm_storage::Catalog;
use serde::{Deserialize, Serialize};

/// Forward-density ceiling for keeping the sparse `A_1` view. Above this
/// fraction of non-zero forward slots a CSR walk touches almost every cell a
/// dense scan would — plus an index load per cell — so the dense row scan
/// wins and [`LocalMmm::a1_sparse`] is dropped to `None`. The §4.2
/// construction links each shot to a handful of successors, so real archives
/// sit far below this.
pub const A1_CSR_DENSITY_THRESHOLD: f64 = 0.5;

/// The *local* MMM of one video (§4.2.1): its shots' temporal affinity
/// matrix and initial-state distribution. Shot indices here are positions
/// **within the video**; the catalog's `shot_range` maps them to global ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalMmm {
    /// `A_1` — temporal relative-affinity matrix over the video's shots.
    pub a1: StochasticMatrix,
    /// `Π_1` — initial-state distribution over the video's shots.
    pub pi1: ProbVector,
    /// Per-shot forward transition maxima: `a1_row_max[s] = max_{t ≥ s}
    /// A_1(s, t)`. The Eq.-13 walk only ever moves forward through the
    /// lattice (`t ≥ s`, with `t = s` allowed for double-annotated shots),
    /// so this is the admissible one-step factor for an entry *sitting on*
    /// shot `s` — much tighter than the whole-matrix maximum, which is
    /// routinely poisoned to ≈1 by a trailing self-loop row. Maintained by
    /// [`LocalMmm::new`]/[`LocalMmm::refresh_bounds`]; construction and
    /// every feedback update keep it in sync with `a1`.
    pub a1_row_max: Vec<f64>,
    /// Largest forward transition factor anywhere in the video
    /// (`max` of [`LocalMmm::a1_row_max`]) — the admissible per-hop factor
    /// when the source shot of a future hop is not yet known (the deeper
    /// steps of the completion-bound chain).
    pub a1_max: f64,
    /// Largest entry of `Π_1` — the admissible Eq.-12 start factor.
    pub pi1_max: f64,
    /// CSR view of `a1`'s non-zero forward entries, so the Eq.-13 expansion
    /// loop and the bound refresh stop scanning structural zeros. `None`
    /// when the forward density exceeds [`A1_CSR_DENSITY_THRESHOLD`] (dense
    /// scan fallback). Derived cache maintained by
    /// [`LocalMmm::refresh_bounds`], like `a1_row_max`.
    pub a1_sparse: Option<ForwardCsr>,
}

impl LocalMmm {
    /// Builds a local MMM, deriving the pruning bound factors
    /// (`a1_row_max`, `a1_max`, `pi1_max`) from the matrices.
    pub fn new(a1: StochasticMatrix, pi1: ProbVector) -> Self {
        let mut local = LocalMmm {
            a1,
            pi1,
            a1_row_max: Vec::new(),
            a1_max: 0.0,
            pi1_max: 0.0,
            a1_sparse: None,
        };
        local.refresh_bounds();
        local
    }

    /// Recomputes `a1_row_max`/`a1_max`/`pi1_max` — and the sparse `A_1`
    /// view — from the current matrices. Must be called after any in-place
    /// mutation of `a1`/`pi1` (the feedback updates do), otherwise the
    /// retrieval pruning bounds go stale and the exactness guarantee is
    /// void.
    ///
    /// When the CSR view is kept, the row maxima are folded over its stored
    /// entries; a CSR omits exactly the zero entries, and the dense fold
    /// starts at `0.0`, so the results are bitwise identical either way
    /// (`validate_against` re-proves this against the dense fold).
    pub fn refresh_bounds(&mut self) {
        let csr = ForwardCsr::from_forward(self.a1.as_matrix());
        if csr.forward_density() <= crate::model::A1_CSR_DENSITY_THRESHOLD {
            let mut maxima = vec![0.0; self.a1.rows()];
            csr.row_maxima_into(&mut maxima);
            self.a1_row_max = maxima;
            self.a1_sparse = Some(csr);
        } else {
            self.a1_row_max = forward_row_maxima(&self.a1);
            self.a1_sparse = None;
        }
        self.a1_max = max_of(&self.a1_row_max);
        self.pi1_max = max_of(self.pi1.as_slice());
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

/// `max_{t ≥ s} A_1(s, t)` per row — only the forward (upper-triangle,
/// diagonal included) entries matter, because the lattice walk never moves
/// backwards through a video's shots.
fn forward_row_maxima(a1: &StochasticMatrix) -> Vec<f64> {
    let m = a1.as_matrix();
    (0..m.rows())
        .map(|s| (s..m.cols()).map(|t| m[(s, t)]).fold(0.0, f64::max))
        .collect()
}

/// Packed Eq.-14 terms of one query event: the features whose `B_1'`
/// centroid clears `CENTROID_EPSILON`, as parallel SoA arrays in ascending
/// feature order, plus the memoized Eq.-14 self-similarity denominator.
///
/// This is what lets the blocked similarity kernel run with *no* epsilon
/// branch in its inner loop: the filtering happened once, here, at
/// build/feedback time. The arrays deliberately store the raw
/// `(weight, centroid)` pairs rather than a pre-divided `weight / centroid`
/// — the kernel must perform the exact operation sequence of the scalar
/// reference loop (`w * (1 - |b - c|) / c`) to stay bitwise identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Verifies — without allocating — that these terms still mirror the
    /// cross-level matrices bitwise (NaN-safe: compares bit patterns).
    pub fn matches(&self, p12: &StochasticMatrix, centroid: &FeatureVector, event: usize) -> bool {
        let mut k = 0usize;
        let mut self_sim = 0.0;
        for y in 0..FEATURE_COUNT {
            let c = centroid[y];
            if c <= crate::sim::CENTROID_EPSILON {
                continue;
            }
            let w = p12.get(event, y);
            if k >= self.features.len()
                || self.features[k] as usize != y
                || self.centroids[k].to_bits() != c.to_bits()
                || self.weights[k].to_bits() != w.to_bits()
            {
                return false;
            }
            self_sim += w / c;
            k += 1;
        }
        k == self.features.len() && self.self_sim.to_bits() == self_sim.to_bits()
    }
}

/// A fully constructed two-level HMMM (Definition 1 with `d = 2`).
///
/// | Tuple element | Representation |
/// |---|---|
/// | `d` | 2 (see [`Hmmm::DEPTH`]) |
/// | `S_1`, `S_2` | catalog shot ids / video ids |
/// | `F_1`, `F_2` | Table-1 features / [`EventKind`] concepts |
/// | `A_1` | per-video [`LocalMmm::a1`] (temporal) |
/// | `A_2` | [`Hmmm::a2`] (co-access, non-temporal) |
/// | `B_1` | [`Hmmm::b1`] (normalized features per shot) |
/// | `B_2` | [`Hmmm::b2`] (event counts per video) |
/// | `Π_1`, `Π_2` | [`LocalMmm::pi1`], [`Hmmm::pi2`] |
/// | `P_{1,2}` | [`Hmmm::p12`] (event × feature importance) |
/// | `B_1'` | [`Hmmm::b1_prime`] (per-event feature centroids, Eq. 11) |
/// | `L_{1,2}` | the catalog's shot→video ranges (dense, implicit) |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hmmm {
    /// One local MMM per video, indexed by `VideoId`.
    pub locals: Vec<LocalMmm>,
    /// `B_1`: normalized Table-1 features, indexed by global `ShotId`.
    pub b1: Vec<FeatureVector>,
    /// `A_2`: video-to-video relative affinity.
    pub a2: StochasticMatrix,
    /// `B_2`: per-video event counts (`B_2[video][event]`).
    pub b2: Vec<[usize; EventKind::COUNT]>,
    /// `Π_2`: initial video distribution.
    pub pi2: ProbVector,
    /// `P_{1,2}`: feature-importance weights, one stochastic row per event.
    pub p12: StochasticMatrix,
    /// `B_1'`: per-event feature centroids over normalized features.
    pub b1_prime: Vec<FeatureVector>,
    /// The Eq.-(3) normalizer fitted on the raw catalog features.
    pub normalizer: Normalizer,
    /// Feature-major (SoA) transpose of [`Hmmm::b1`], so the blocked Eq.-14
    /// kernel reads each feature's values for a shot block at unit stride.
    /// Derived cache: rebuilt by [`Hmmm::refresh_derived`] whenever `b1`
    /// changes, cross-checked bitwise against `b1` by the auditor.
    pub b1_slab: FeatureSlab,
    /// Per-event packed Eq.-14 terms (one entry per [`EventKind`]), with
    /// the memoized self-similarity denominator. Derived cache: rebuilt by
    /// [`Hmmm::refresh_event_terms`] whenever `p12`/`b1_prime` change (the
    /// feedback relearning step does).
    pub event_terms: Vec<EventTerms>,
    /// The ingest-time coarse index: inverted `B_2` event → video postings
    /// plus precomputed per-video bound summaries, feeding the two-stage
    /// coarse-to-fine retrieval ([`crate::coarse::CoarseIndex`]). Derived
    /// cache: rebuilt by [`Hmmm::refresh_coarse`] whenever any source
    /// matrix it folds (`Π_1`/`A_1` row maxima, `B_2`, `P_{1,2}`/`B_1'`
    /// through Eq. 14) changes — construction and every feedback round do.
    pub coarse: crate::coarse::CoarseIndex,
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

    /// Dimension summary.
    pub fn summary(&self) -> ModelSummary {
        ModelSummary {
            depth: Self::DEPTH,
            videos: self.locals.len(),
            shots: self.b1.len(),
            features: FEATURE_COUNT,
            events: EventKind::COUNT,
        }
    }

    /// Number of videos (`M`).
    pub fn video_count(&self) -> usize {
        self.locals.len()
    }

    /// Number of shots (`N`).
    pub fn shot_count(&self) -> usize {
        self.b1.len()
    }

    /// Rebuilds every model-level derived cache (the `B_1` SoA slab and the
    /// packed event terms) from the source-of-truth matrices. Construction
    /// calls this once; mutate `b1` and you must call it again.
    pub fn refresh_derived(&mut self) {
        self.b1_slab = FeatureSlab::from_rows(&self.b1);
        self.refresh_event_terms();
        // Last: the coarse index folds calibrated Eq.-14 scores, which read
        // the packed event terms rebuilt just above.
        self.refresh_coarse();
    }

    /// Rebuilds only the packed event terms (and their memoized
    /// self-similarity denominators) from `p12`/`b1_prime`. The feedback
    /// relearning step calls this after replacing the cross-level matrices;
    /// `b1` is untouched there, so the slab needs no rebuild.
    pub fn refresh_event_terms(&mut self) {
        self.event_terms = (0..EventKind::COUNT)
            .map(|e| EventTerms::build(&self.p12, &self.b1_prime[e], e))
            .collect();
    }

    /// Rebuilds only the coarse retrieval index
    /// ([`crate::coarse::CoarseIndex`]) from the current matrices. Feedback
    /// calls this unconditionally at the end of every apply — `Π_1`/`A_1`
    /// always move there, and the stored Eq.-12/14 bound summaries fold
    /// them — while construction gets it through
    /// [`Hmmm::refresh_derived`]. Must run *after*
    /// [`Hmmm::refresh_event_terms`] when both fire: the calibrated
    /// similarity folds read the packed terms.
    pub fn refresh_coarse(&mut self) {
        let fresh = crate::coarse::CoarseIndex::build(self);
        self.coarse = fresh;
    }

    /// Validates the model against the catalog it was built from: per-video
    /// state counts, global feature rows, matrix dimensions, link ranges,
    /// and the freshness of every derived cache the retrieval hot path
    /// trusts (bound factors, sparse `A_1` views, the `B_1` slab, packed
    /// event terms, coarse postings).
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
        if self.locals.len() != catalog.video_count() {
            return Err(CoreError::Inconsistent(format!(
                "{} local MMMs vs {} videos",
                self.locals.len(),
                catalog.video_count()
            )));
        }
        if self.b1.len() != catalog.shot_count() {
            return Err(CoreError::Inconsistent(format!(
                "B1 has {} rows vs {} shots",
                self.b1.len(),
                catalog.shot_count()
            )));
        }
        for (v, local) in catalog.videos().iter().zip(self.locals.iter()) {
            if local.len() != v.shot_count() {
                return Err(CoreError::Inconsistent(format!(
                    "local MMM of {} has {} states vs {} shots",
                    v.id,
                    local.len(),
                    v.shot_count()
                )));
            }
            if local.a1.rows() != v.shot_count() || local.a1.cols() != v.shot_count() {
                return Err(CoreError::Inconsistent(format!(
                    "A1 of {} is {}x{}",
                    v.id,
                    local.a1.rows(),
                    local.a1.cols()
                )));
            }
            // Stale bound factors would make the top-k pruning bounds
            // inadmissible (silently wrong rankings), so they are checked
            // here rather than trusted. They are derived by the exact same
            // fold `refresh_bounds` uses, so fresh values compare equal.
            if local.a1_row_max != forward_row_maxima(&local.a1)
                || local.a1_max != max_of(&local.a1_row_max)
                || local.pi1_max != max_of(local.pi1.as_slice())
            {
                return Err(CoreError::Inconsistent(format!(
                    "stale A1/Π1 bound factors on {} (refresh_bounds not \
                     called after mutation?)",
                    v.id
                )));
            }
            // The sparse A1 view is derived the same way: either it mirrors
            // the dense matrix bitwise, or its absence is justified by the
            // density threshold. A stale CSR would silently change which
            // transitions the traversal even considers.
            let csr_fresh = match &local.a1_sparse {
                Some(csr) => {
                    csr.matches(local.a1.as_matrix())
                        && csr.forward_density() <= A1_CSR_DENSITY_THRESHOLD
                }
                None => {
                    ForwardCsr::from_forward(local.a1.as_matrix()).forward_density()
                        > A1_CSR_DENSITY_THRESHOLD
                }
            };
            if !csr_fresh {
                return Err(CoreError::Inconsistent(format!(
                    "stale sparse A1 view on {} (refresh_bounds not called \
                     after mutation?)",
                    v.id
                )));
            }
        }
        let m = catalog.video_count();
        if self.a2.rows() != m || self.a2.cols() != m || self.pi2.len() != m {
            return Err(CoreError::Inconsistent("A2/Π2 dimensions".into()));
        }
        if self.b2.len() != m {
            return Err(CoreError::Inconsistent("B2 row count".into()));
        }
        if self.p12.rows() != EventKind::COUNT || self.p12.cols() != FEATURE_COUNT {
            return Err(CoreError::Inconsistent("P12 dimensions".into()));
        }
        if self.b1_prime.len() != EventKind::COUNT {
            return Err(CoreError::Inconsistent("B1' row count".into()));
        }
        // Model-level derived caches: the SoA slab must be a bitwise
        // transpose of B1 and the packed event terms must mirror
        // P12/B1'. Both checks are NaN-safe bit comparisons, so a poisoned
        // model still gets its real diagnosis from the numeric audit below.
        if !self.b1_slab.matches(&self.b1) {
            return Err(CoreError::Inconsistent(
                "stale B1 SoA slab (refresh_derived not called after \
                 mutation?)"
                    .into(),
            ));
        }
        if self.event_terms.len() != EventKind::COUNT
            || self
                .event_terms
                .iter()
                .enumerate()
                .any(|(e, t)| !t.matches(&self.p12, &self.b1_prime[e], e))
        {
            return Err(CoreError::Inconsistent(
                "stale packed event terms (refresh_event_terms not called \
                 after mutation?)"
                    .into(),
            ));
        }
        // Coarse-index freshness, cheap half: shapes plus the postings ↔
        // B_2 signature predicate (O(videos × events), no Eq.-14 work).
        // The full bitwise re-fold of the stored bound summaries is
        // `deep_audit`'s job — a stale summary would make the coarse
        // stage's admission bounds inadmissible (silently wrong rankings).
        if !self.coarse.matches(self) {
            return Err(CoreError::Inconsistent(
                "stale coarse index (refresh_coarse not called after \
                 mutation?)"
                    .into(),
            ));
        }
        for (i, f) in self.b1.iter().enumerate() {
            if !f.is_finite() {
                return Err(CoreError::Inconsistent(format!(
                    "B1 row {i} is non-finite"
                )));
            }
        }
        // Debug builds escalate every shape validation into the full
        // numeric λ-audit (row-stochastic A_n, unit-mass Π/P_{1,2}, B_1'
        // ranges), so every proof minted while tests run also re-proves the
        // invariants: once per `Retriever::new`, and once per (worker,
        // epoch) inside the server. Release builds keep validation
        // O(shapes); run `hmmm check` / `deep_audit` explicitly.
        #[cfg(debug_assertions)]
        crate::audit::audit_numeric(self)?;
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
/// The model cannot be mutated while a proof of it is alive:
///
/// ```compile_fail
/// # use hmmm_core::{build_hmmm, BuildConfig, RetrievalConfig, Retriever};
/// # use hmmm_features::FeatureVector;
/// # use hmmm_media::EventKind;
/// # use hmmm_storage::Catalog;
/// let mut catalog = Catalog::new();
/// catalog.add_video("v", vec![(vec![EventKind::Goal], FeatureVector::zeros())]);
/// let mut model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
/// let proof = model.validate_against(&catalog).unwrap();
/// model.locals[0].a1_row_max[0] = 2.0; // stale bound factor: refused
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
mod tests {
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
}
