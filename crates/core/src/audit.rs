//! The λ-invariant deep auditor.
//!
//! [`crate::model::Hmmm::validate_against`] checks *shapes* (state counts,
//! matrix dimensions, fresh pruning-bound caches). This module extends it
//! into a numeric well-formedness audit of the whole Definition-1 tuple
//! `λ = (d, S, F, A, B, Π, P, L)`:
//!
//! * `A_1` (per video) and `A_2` are row-stochastic within tolerance, with
//!   every entry a finite probability — the Eq. 12–13 walk weights and the
//!   admissible completion bounds both assume this.
//! * `Π_1`, `Π_2` and every row of `P_{1,2}` carry unit mass (Eqs. 4, 6, 7
//!   and the Eqs. 8–10 learning updates all renormalize; drift here means a
//!   broken update path).
//! * `L_{1,2}` is strictly 0/1: in this deployment the link matrix is
//!   stored implicitly as the catalog's contiguous `shot_range`s, so the
//!   0/1 property is equivalent to the ranges partitioning `[0, N)` —
//!   every shot linked to exactly one video.
//! * `B_1` rows and `B_1'` centroids are finite and inside the normalized
//!   `[0, 1]` feature range, so the Eq. 14 denominators that exceed
//!   [`crate::sim::CENTROID_EPSILON`] are genuinely usable.
//! * `B_2` matches the catalog's annotation counts (feedback never touches
//!   `B_2`; a mismatch means the model was built from a different archive).
//! * The `refresh_bounds` caches compare exactly equal to recomputed
//!   maxima (delegated to `validate_against` — same fold, bitwise equality).
//! * The hot-path SoA caches mirror their AoS sources bitwise (also via
//!   `validate_against`): the feature-major `B_1` slab against the row-major
//!   `b1`, every packed [`crate::model::EventTerms`] list (including its
//!   memoized Eq. 14 self-similarity denominator) against `P_{1,2}` and
//!   `B_1'`, and each video's sparse `A_1` view against its dense matrix —
//!   including that the sparse/dense choice still agrees with
//!   [`crate::model::A1_CSR_DENSITY_THRESHOLD`].
//!
//! The audit runs through [`crate::model::Hmmm::deep_audit`], is surfaced on
//! the CLI as `hmmm check`, and in debug builds is wired into
//! `validate_against` itself so every validation proof minted while tests
//! run (each `Retriever::new`, each served (worker, epoch)) re-proves the
//! invariants.

use crate::error::CoreError;
use crate::model::Hmmm;
use hmmm_features::FEATURE_COUNT;
use hmmm_matrix::{ProbVector, StochasticMatrix, STOCHASTIC_TOLERANCE};
use hmmm_media::EventKind;
use hmmm_storage::Catalog;
use std::fmt;

/// Numeric tolerance for the row-sum / unit-mass checks. Re-uses the matrix
/// layer's construction tolerance so a model that validated on build cannot
/// fail the audit merely by round-tripping.
pub const AUDIT_TOLERANCE: f64 = STOCHASTIC_TOLERANCE;

/// What a successful [`Hmmm::deep_audit`] proved, with enough counts to be
/// a meaningful CLI receipt (`hmmm check`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSummary {
    /// Videos (`M`, level-2 states).
    pub videos: usize,
    /// Shots (`N`, level-1 states).
    pub shots: usize,
    /// Stochastic rows proven unit-mass across all `A_1` matrices.
    pub a1_rows: usize,
    /// Stochastic rows proven unit-mass in `A_2`.
    pub a2_rows: usize,
    /// `P_{1,2}` rows proven unit-mass.
    pub p12_rows: usize,
    /// `Π` vectors proven unit-mass (`Π_2` plus one `Π_1` per video).
    pub pi_vectors: usize,
    /// Shot→video links proven exactly-one (the `L_{1,2}` 0/1 property).
    pub links: usize,
    /// Events whose `B_1'` centroid has at least one Eq.-14-usable
    /// denominator (an entry above [`crate::sim::CENTROID_EPSILON`]).
    pub events_with_usable_centroid: usize,
    /// Videos whose `A_1` traversal runs over the proven-fresh sparse CSR
    /// view (the rest fall back to the dense row scan because their forward
    /// density exceeds [`crate::model::A1_CSR_DENSITY_THRESHOLD`]).
    pub a1_sparse_videos: usize,
    /// Total event → video postings proven to mirror the `B_2` signature
    /// bitwise, with every stored coarse bound summary re-folded equal
    /// (the [`crate::coarse::CoarseIndex`] consistency check).
    pub coarse_postings: usize,
}

impl fmt::Display for AuditSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} videos / {} shots; rows unit-mass: A1={} A2={} P12={} Π={}; \
             L12 links 0/1: {}; events with usable B1' denominators: {}/{}; \
             A1 sparse views: {}/{}; coarse postings: {}",
            self.videos,
            self.shots,
            self.a1_rows,
            self.a2_rows,
            self.p12_rows,
            self.pi_vectors,
            self.links,
            self.events_with_usable_centroid,
            EventKind::COUNT,
            self.a1_sparse_videos,
            self.videos,
            self.coarse_postings
        )
    }
}

/// Checks that every row of `what` is a finite probability distribution
/// within [`AUDIT_TOLERANCE`]. Returns the number of rows proven.
fn audit_stochastic_rows(m: &StochasticMatrix, what: &str) -> Result<usize, CoreError> {
    let dense = m.as_matrix();
    for r in 0..dense.rows() {
        let mut sum = 0.0;
        for c in 0..dense.cols() {
            let p = dense[(r, c)];
            if !p.is_finite() || !(0.0..=1.0 + AUDIT_TOLERANCE).contains(&p) {
                return Err(CoreError::Inconsistent(format!(
                    "{what} row {r} col {c}: entry {p} is not a probability"
                )));
            }
            sum += p;
        }
        if (sum - 1.0).abs() > AUDIT_TOLERANCE {
            return Err(CoreError::Inconsistent(format!(
                "{what} row {r} sums to {sum}, expected 1 ± {AUDIT_TOLERANCE}"
            )));
        }
    }
    Ok(dense.rows())
}

/// Checks that a `Π` vector carries unit mass of finite probabilities.
fn audit_prob_vector(v: &ProbVector, what: &str) -> Result<(), CoreError> {
    let mut sum = 0.0;
    for (i, &p) in v.as_slice().iter().enumerate() {
        if !p.is_finite() || !(0.0..=1.0 + AUDIT_TOLERANCE).contains(&p) {
            return Err(CoreError::Inconsistent(format!(
                "{what} entry {i}: {p} is not a probability"
            )));
        }
        sum += p;
    }
    if (sum - 1.0).abs() > AUDIT_TOLERANCE {
        return Err(CoreError::Inconsistent(format!(
            "{what} sums to {sum}, expected 1 ± {AUDIT_TOLERANCE}"
        )));
    }
    Ok(())
}

/// Numeric audit of the model-internal Definition-1 invariants (no catalog
/// needed): stochastic rows, unit-mass `Π`s, finite in-range `B_1`/`B_1'`
/// (the Eq. 11 centroids).
///
/// # Errors
///
/// [`CoreError::Inconsistent`] naming the first violated invariant.
pub fn audit_numeric(model: &Hmmm) -> Result<(), CoreError> {
    for (v, local) in model.locals.iter().enumerate() {
        audit_stochastic_rows(&local.a1, &format!("A1 of video {v}"))?;
        audit_prob_vector(&local.pi1, &format!("Π1 of video {v}"))?;
    }
    audit_stochastic_rows(&model.a2, "A2")?;
    audit_prob_vector(&model.pi2, "Π2")?;
    audit_stochastic_rows(&model.p12, "P12")?;
    for (s, row) in model.b1.iter().enumerate() {
        audit_unit_interval(row.as_slice(), &format!("B1 shot {s}"))?;
    }
    for (e, row) in model.b1_prime.iter().enumerate() {
        audit_unit_interval(row.as_slice(), &format!("B1' event {e}"))?;
    }
    Ok(())
}

/// Normalized feature rows live in `[0, 1]` (Eq. 3 min–max scaling); the
/// Eq. 11 centroids are means of such rows and inherit the range.
fn audit_unit_interval(row: &[f64], what: &str) -> Result<(), CoreError> {
    for (y, &x) in row.iter().enumerate() {
        if !x.is_finite() || !(0.0..=1.0 + AUDIT_TOLERANCE).contains(&x) {
            return Err(CoreError::Inconsistent(format!(
                "{what} feature {y}: {x} outside the normalized [0, 1] range"
            )));
        }
    }
    Ok(())
}

/// Audits the implicit `L_{1,2}` link matrix (Definition 1's 0/1 link
/// condition) and the `B_2` counts against the catalog: the per-video
/// `shot_range`s must partition `[0, N)` exactly
/// (each shot linked to **one** video — the strict 0/1 property), and
/// `B_2[v][e]` must equal the number of shots of video `v` annotated `e`.
pub fn audit_links(model: &Hmmm, catalog: &Catalog) -> Result<usize, CoreError> {
    let mut next = 0usize;
    for v in catalog.videos() {
        if v.shot_range.start != next {
            return Err(CoreError::Inconsistent(format!(
                "L12 gap/overlap: {} starts at shot {} but previous video \
                 ended at {next}",
                v.id, v.shot_range.start
            )));
        }
        if v.shot_range.end < v.shot_range.start {
            return Err(CoreError::Inconsistent(format!(
                "L12: {} has inverted shot range",
                v.id
            )));
        }
        next = v.shot_range.end;
    }
    if next != catalog.shot_count() {
        return Err(CoreError::Inconsistent(format!(
            "L12: ranges cover {next} shots, catalog has {}",
            catalog.shot_count()
        )));
    }
    let expected = catalog.event_count_matrix();
    if model.b2 != expected {
        for (v, (got, want)) in model.b2.iter().zip(expected.iter()).enumerate() {
            if got != want {
                return Err(CoreError::Inconsistent(format!(
                    "B2 row {v} disagrees with catalog annotations \
                     ({got:?} vs {want:?})"
                )));
            }
        }
    }
    Ok(next)
}

impl Hmmm {
    /// Full λ-invariant audit: [`Hmmm::validate_against`] (shapes + fresh
    /// pruning-bound caches) plus the numeric Definition-1 checks in
    /// [`crate::audit`]. This is what `hmmm check` runs.
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] naming the first violated invariant.
    pub fn deep_audit(&self, catalog: &Catalog) -> Result<AuditSummary, CoreError> {
        self.validate_against(catalog)?;
        audit_numeric(self)?;
        let links = audit_links(self, catalog)?;
        // Coarse-index consistency, full half: the postings must equal the
        // B_2 signature (which `audit_links` just proved equal to the
        // catalog's annotation counts, so signatures == catalog counts by
        // transitivity) and every stored bound summary must re-fold
        // bitwise from the live matrices (stored bounds == fresh bounds).
        self.coarse.audit(self)?;
        let usable = (0..EventKind::COUNT)
            .filter(|&e| {
                self.b1_prime[e]
                    .as_slice()
                    .iter()
                    .any(|&c| c > crate::sim::CENTROID_EPSILON)
            })
            .count();
        let a1_rows = self.locals.iter().map(|l| l.a1.rows()).sum();
        let a1_sparse_videos = self
            .locals
            .iter()
            .filter(|l| l.a1_sparse.is_some())
            .count();
        Ok(AuditSummary {
            videos: self.video_count(),
            shots: self.shot_count(),
            a1_rows,
            a2_rows: self.a2.rows(),
            p12_rows: self.p12.rows(),
            pi_vectors: self.locals.len() + 1,
            links,
            events_with_usable_centroid: usable,
            a1_sparse_videos,
            coarse_postings: self.coarse.postings_len(),
        })
    }
}

// Keep the summary honest about dimensions even if constants move.
const _: () = assert!(FEATURE_COUNT > 0 && EventKind::COUNT > 0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use hmmm_features::{FeatureId, FeatureVector};
    use hmmm_matrix::Matrix;

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
            vec![(vec![EventKind::Goal], feat(0.9)), (vec![], feat(0.1))],
        );
        c
    }

    #[test]
    fn deep_audit_accepts_built_model() {
        let c = catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let summary = m.deep_audit(&c).expect("built model must audit clean");
        assert_eq!(summary.videos, 2);
        assert_eq!(summary.shots, 5);
        assert_eq!(summary.a1_rows, 5);
        assert_eq!(summary.links, 5);
        assert_eq!(summary.pi_vectors, 3);
        // Display is the CLI receipt; make sure it stays informative.
        assert!(summary.to_string().contains("2 videos / 5 shots"));
    }

    #[test]
    fn deep_audit_rejects_perturbed_a1_row() {
        let c = catalog();
        let mut m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let mut dense: Matrix = m.locals[0].a1.as_matrix().clone();
        dense[(0, 0)] += 0.25; // row now sums to 1.25
        m.locals[0].a1 = StochasticMatrix::new_unchecked(dense);
        m.locals[0].refresh_bounds(); // keep bound caches fresh so the
                                      // *row-sum* check is what fires
        let err = m.deep_audit(&c).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("A1")));
    }

    #[test]
    fn deep_audit_rejects_b2_drift() {
        let c = catalog();
        let mut m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        m.b2[0][EventKind::Goal.index()] += 1;
        let err = m.deep_audit(&c).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("B2")));
    }

    #[test]
    fn deep_audit_rejects_non_finite_centroid() {
        let c = catalog();
        let mut m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        m.b1_prime[0].as_mut_slice()[0] = f64::NAN;
        assert!(m.deep_audit(&c).is_err());
    }

    #[test]
    fn deep_audit_rejects_stale_b1_slab() {
        let c = catalog();
        let mut m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        // Mutate the AoS source without refreshing the SoA mirror: the
        // blocked kernel would silently read stale features, so the audit
        // must fail before retrieval ever runs.
        m.b1[0][FeatureId::GrassRatio] += 0.05;
        let err = m.deep_audit(&c).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("B1 SoA slab")));
        m.refresh_derived();
        assert!(m.deep_audit(&c).is_ok());
    }

    #[test]
    fn deep_audit_rejects_stale_event_terms() {
        let c = catalog();
        let mut m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        // Nudge a centroid entry the packed term lists were built from
        // (keep it inside [0, 1] so only the staleness check can fire).
        let slice = m.b1_prime[0].as_mut_slice();
        slice[0] = (slice[0] + 0.1).min(1.0);
        let err = m.deep_audit(&c).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("event terms")));
        m.refresh_event_terms();
        // The coarse index folds calibrated Eq.-14 scores off the packed
        // terms, so it went stale with them and must be refreshed too.
        let err = m.deep_audit(&c).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("coarse")));
        m.refresh_coarse();
        assert!(m.deep_audit(&c).is_ok());
    }

    #[test]
    fn deep_audit_rejects_stale_coarse_index() {
        let c = catalog();
        let mut m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        // A poked bound summary passes the cheap postings predicate in
        // `validate_against` but must fail the deep audit's bitwise
        // re-fold (stored bounds == freshly folded bounds).
        m.coarse.sim_max[EventKind::Goal.index()] += 0.5;
        assert!(m.validate_against(&c).is_ok());
        let err = m.deep_audit(&c).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("coarse sim_max")));
        m.refresh_coarse();
        assert!(m.deep_audit(&c).is_ok());
        // Postings drift, by contrast, is caught by every
        // `validate_against` (and thus every validation proof).
        m.coarse.postings[EventKind::Goal.index()].clear();
        let err = m.validate_against(&c).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("coarse index")));
    }

    /// A catalog whose lone video has mostly-unannotated shots, so the
    /// initial `A_1` (Eq. 4) is genuinely sparse: only the annotated shots
    /// attract forward mass and the density falls under the CSR threshold.
    fn sparse_catalog() -> Catalog {
        let mut c = Catalog::new();
        let feat = |x: f64| {
            let mut v = FeatureVector::zeros();
            v[FeatureId::GrassRatio] = x;
            v[FeatureId::VolumeMean] = 1.0 - x;
            v
        };
        c.add_video(
            "long",
            vec![
                (vec![EventKind::FreeKick], feat(0.2)),
                (vec![], feat(0.3)),
                (vec![], feat(0.4)),
                (vec![], feat(0.6)),
                (vec![EventKind::Goal], feat(0.8)),
            ],
        );
        c
    }

    #[test]
    fn deep_audit_rejects_stale_sparse_a1() {
        let c = sparse_catalog();
        let mut m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        // Drop the CSR view while the density still demands one: the
        // sparse/dense traversal choice would diverge from the policy.
        assert!(
            m.locals.iter().any(|l| l.a1_sparse.is_some()),
            "fixture should produce at least one sparse A1"
        );
        for local in &mut m.locals {
            local.a1_sparse = None;
        }
        let err = m.deep_audit(&c).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("sparse A1")));
    }

    #[test]
    fn summary_reports_sparse_a1_views() {
        let c = sparse_catalog();
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let summary = m.deep_audit(&c).unwrap();
        assert_eq!(summary.a1_sparse_videos, 1);
        assert!(summary.to_string().contains("A1 sparse views: 1/1"));
    }
}
