//! The λ-invariant deep auditor.
//!
//! [`crate::model::Hmmm::validate_against`] pairs a model with a catalog
//! (state counts per video, one `B_1` row per shot). This module adds the
//! numeric well-formedness audit of the whole Definition-1 tuple
//! `λ = (d, S, F, A, B, Π, P, L)`:
//!
//! * `A_1` (per video, over its stored forward entries) and `A_2` are
//!   row-stochastic within tolerance, with every entry a finite probability
//!   — the Eq. 12–13 walk weights and the admissible completion bounds both
//!   assume this.
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
//!
//! The derived caches (bound factors, packed event terms, the Eq.-14 score
//! table, the coarse index) are not audited: they are private, rebuilt from
//! the sources by every writer, and never persisted, so they cannot
//! disagree with them.
//!
//! The numeric half ([`audit_numeric`]) runs whenever a model is
//! deserialized, in every build profile, and [`crate::load_model`] adds
//! the catalog half ([`audit_links`] after `validate_against`). The full
//! audit runs through [`crate::model::Hmmm::deep_audit`]:
//! before a served snapshot is published, and on the CLI as `hmmm check`.

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
}

impl fmt::Display for AuditSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} videos / {} shots; rows unit-mass: A1={} A2={} P12={} Π={}; \
             L12 links 0/1: {}; events with usable B1' denominators: {}/{}",
            self.videos,
            self.shots,
            self.a1_rows,
            self.a2_rows,
            self.p12_rows,
            self.pi_vectors,
            self.links,
            self.events_with_usable_centroid,
            EventKind::COUNT,
        )
    }
}

/// Checks that every row (an iterator of `(column, entry)` pairs) is a
/// finite probability distribution within [`AUDIT_TOLERANCE`]. Returns the
/// number of rows proven.
fn audit_stochastic_rows<R>(rows: impl Iterator<Item = R>, what: &str) -> Result<usize, CoreError>
where
    R: Iterator<Item = (usize, f64)>,
{
    let mut proven = 0;
    for (r, row) in rows.enumerate() {
        let mut sum = 0.0;
        for (c, p) in row {
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
        proven += 1;
    }
    Ok(proven)
}

/// [`audit_stochastic_rows`] over every row of a dense stochastic matrix.
fn audit_dense_rows(m: &StochasticMatrix, what: &str) -> Result<usize, CoreError> {
    audit_stochastic_rows(
        (0..m.rows()).map(|r| m.row(r).iter().copied().enumerate()),
        what,
    )
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
/// needed): stochastic rows (`A_1` over its stored forward entries),
/// unit-mass `Π`s, finite in-range `B_1`/`B_1'` (the Eq. 11 centroids).
///
/// # Errors
///
/// [`CoreError::Inconsistent`] naming the first violated invariant.
pub fn audit_numeric(model: &Hmmm) -> Result<(), CoreError> {
    for (v, local) in model.locals().iter().enumerate() {
        let a1 = local.a1();
        audit_stochastic_rows(
            (0..a1.rows()).map(|r| {
                let (cols, vals) = a1.row(r);
                cols.iter().map(|&c| c as usize).zip(vals.iter().copied())
            }),
            &format!("A1 of video {v}"),
        )?;
        audit_prob_vector(local.pi1(), &format!("Π1 of video {v}"))?;
    }
    audit_dense_rows(model.a2(), "A2")?;
    audit_prob_vector(model.pi2(), "Π2")?;
    audit_dense_rows(model.p12(), "P12")?;
    for (s, row) in model.b1().iter().enumerate() {
        audit_unit_interval(row.as_slice(), &format!("B1 shot {s}"))?;
    }
    for (e, row) in model.b1_prime().iter().enumerate() {
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
    if model.b2() != expected.as_slice() {
        for (v, (got, want)) in model.b2().iter().zip(expected.iter()).enumerate() {
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
    /// Full λ-invariant audit: [`Hmmm::validate_against`] (the
    /// model↔catalog pairing) plus the numeric Definition-1 checks and the
    /// `L_{1,2}`/`B_2` agreement with the catalog in [`crate::audit`]. This
    /// is what `hmmm check` runs; [`crate::load_model`] runs the same checks,
    /// the numeric half while parsing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Inconsistent`] naming the first violated invariant.
    pub fn deep_audit(&self, catalog: &Catalog) -> Result<AuditSummary, CoreError> {
        self.validate_against(catalog)?;
        audit_numeric(self)?;
        let links = audit_links(self, catalog)?;
        let usable = self
            .b1_prime()
            .iter()
            .filter(|c| {
                c.as_slice()
                    .iter()
                    .any(|&c| c > crate::sim::CENTROID_EPSILON)
            })
            .count();
        Ok(AuditSummary {
            videos: self.video_count(),
            shots: self.shot_count(),
            a1_rows: self.locals().iter().map(|l| l.a1().rows()).sum(),
            a2_rows: self.a2().rows(),
            p12_rows: self.p12().rows(),
            pi_vectors: self.video_count() + 1,
            links,
            events_with_usable_centroid: usable,
        })
    }
}

// Keep the summary honest about dimensions even if constants move.
const _: () = assert!(FEATURE_COUNT > 0 && EventKind::COUNT > 0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use crate::model::tests::load_edited;
    use hmmm_features::{FeatureId, FeatureVector};
    use serde::{Deserialize, Value};

    fn feat(x: f64) -> FeatureVector {
        let mut v = FeatureVector::zeros();
        v[FeatureId::GrassRatio] = x;
        v[FeatureId::VolumeMean] = 1.0 - x;
        v
    }

    /// Builds a two-video catalog; `extra_goal` also annotates the last
    /// shot of the second video as a goal (same shapes, different `B_2`).
    fn annotated_catalog(extra_goal: bool) -> Catalog {
        let mut c = Catalog::new();
        c.add_video(
            "m1",
            vec![
                (vec![EventKind::FreeKick], feat(0.2)),
                (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8)),
                (vec![EventKind::CornerKick], feat(0.5)),
            ],
        );
        let last = if extra_goal {
            vec![EventKind::Goal]
        } else {
            vec![]
        };
        c.add_video(
            "m2",
            vec![(vec![EventKind::Goal], feat(0.9)), (last, feat(0.1))],
        );
        c
    }

    fn catalog() -> Catalog {
        annotated_catalog(false)
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
    fn loading_rejects_a_perturbed_a1_row() {
        let m = build_hmmm(&catalog(), &BuildConfig::default()).unwrap();
        // The first stored entry of video 0's row 0: the row now sums to 1.25.
        let err = load_edited(&m, &["locals", "0", "a1", "vals", "0"], |v| {
            *v = Value::Float(f64::from_value(v).unwrap() + 0.25)
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("A1 of video 0 row 0 sums to"),
            "{err}"
        );
    }

    #[test]
    fn deep_audit_rejects_b2_drift() {
        // Same shapes, one more goal annotation: the model's B2 was counted
        // from another archive.
        let m = build_hmmm(&catalog(), &BuildConfig::default()).unwrap();
        let err = m.deep_audit(&annotated_catalog(true)).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(ref s) if s.contains("B2 row 1")));
    }

    #[test]
    fn loading_rejects_a_non_finite_centroid() {
        let m = build_hmmm(&catalog(), &BuildConfig::default()).unwrap();
        let err = load_edited(&m, &["b1_prime", "0", "0"], |v| {
            *v = Value::Float(f64::INFINITY)
        })
        .unwrap_err();
        assert!(err.to_string().contains("B1' event 0 feature 0"), "{err}");
    }
}
