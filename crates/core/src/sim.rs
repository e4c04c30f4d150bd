//! The Eq.-(14) shot/event similarity function — scalar reference and the
//! blocked SoA kernel that fills the model's score table.
//!
//! Two implementations of the same equation live here. [`similarity`] is the
//! scalar reference: one shot, one event, a dense loop over the 20 features
//! with an epsilon branch per feature. The blocked kernel scores a
//! *contiguous block* of shots: it transposes the block's `B_1` rows
//! feature-major ([`hmmm_features::FeatureSlab`]), then iterates each
//! event's pre-packed non-zero terms ([`crate::model::EventTerms`]) on the
//! outside and sweeps the transposed rows at unit stride on the inside — no
//! epsilon branch, no indirection, auto-vectorizable. Per shot, both
//! execute the exact same floating-point operation sequence
//! (`acc += w · (1 − |b − c|) / c` in ascending feature order), so their
//! results are **bitwise identical** — pinned by proptests.
//!
//! The kernel has one caller, the model itself: every epoch (build, load,
//! each feedback install) it fills the calibrated score table of every shot
//! against every event ([`crate::Hmmm::sim_row`]), which retrieval reads
//! instead of evaluating Eq. 14. The scalar functions are the reference
//! the table is tested against.

use crate::model::{EventTerms, Hmmm};
use hmmm_features::{FeatureSlab, FeatureVector, FEATURE_COUNT};

/// Features whose centroid magnitude is below this are skipped: the paper
/// restricts Eq. (14) to "the K non-zero features of the query sample", and
/// the division by `B_1'(e_j, f_y)` is undefined at zero.
pub const CENTROID_EPSILON: f64 = 1e-9;

/// Eq. (14):
/// `sim(s, e) = Σ_y P_{1,2}(e, f_y) · (1 − |B_1(s, f_y) − B_1'(e, f_y)|) / B_1'(e, f_y)`
/// summed over the event's non-zero features.
///
/// Both inputs live in the normalized `[0, 1]` feature space, so each term
/// is non-negative; features with tiny centroids are excluded rather than
/// dividing by ~0. Returns `0.0` for an event with no feature support
/// (no annotated examples).
///
/// # Examples
///
/// On the §4.2.1.1 three-shot video, the goal shot scores higher against
/// `goal` than the non-goal shots do, and an event with no annotated
/// examples (empty `B_1'` centroid) scores zero everywhere:
///
/// ```
/// use hmmm_core::{build_hmmm, similarity, BuildConfig};
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
/// let mut catalog = Catalog::new();
/// catalog.add_video("v1", vec![
///     (vec![EventKind::FreeKick], feat(0.3, 0.2)),
///     (vec![EventKind::FreeKick, EventKind::Goal], feat(0.8, 0.9)),
///     (vec![EventKind::CornerKick], feat(0.5, 0.4)),
/// ]);
/// let model = build_hmmm(&catalog, &BuildConfig::default()).unwrap();
///
/// let goal = EventKind::Goal.index();
/// // Shot 1 carries the goal annotation; shot 0 is a free kick.
/// assert!(similarity(&model, 1, goal) > similarity(&model, 0, goal));
///
/// // red_card never occurs in the archive → zero centroid → zero score.
/// let red = EventKind::RedCard.index();
/// assert_eq!(similarity(&model, 0, red), 0.0);
/// ```
pub fn similarity(model: &Hmmm, shot: usize, event: usize) -> f64 {
    let b1 = &model.b1()[shot];
    let centroid = &model.b1_prime()[event];
    let mut total = 0.0;
    for y in 0..FEATURE_COUNT {
        let c = centroid[y];
        if c <= CENTROID_EPSILON {
            continue;
        }
        let weight = model.p12().get(event, y);
        let diff = (b1[y] - c).abs();
        total += weight * (1.0 - diff) / c;
    }
    total
}

/// Shots per transposed block: 128 shots × 20 features × 8 bytes = 20 KiB,
/// small enough to stay in L1 while every event's terms sweep it (a few
/// percent cheaper per table fill than 256-shot blocks on a 2-vCPU x86 VM).
const BLOCK_SHOTS: usize = 128;

/// The kernel body: adds Eq. 14's terms for one event to `out`, one slot per
/// shot of the transposed block, as `w · (1 − |b − c|) / c` per packed term
/// in ascending feature order — the exact operation sequence of
/// [`similarity`]'s scalar loop. The `CENTROID_EPSILON` filtering happened
/// once at pack time; there is no branch in the inner loop.
fn accumulate(terms: &EventTerms, slab: &FeatureSlab, out: &mut [f64]) {
    for ((&y, &c), &w) in terms
        .features
        .iter()
        .zip(terms.centroids.iter())
        .zip(terms.weights.iter())
    {
        for (acc, &b) in out.iter_mut().zip(slab.feature_row(y as usize)) {
            *acc += w * (1.0 - (b - c).abs()) / c;
        }
    }
}

/// The calibrated Eq.-14 score of every shot against every event, event-major
/// (`table[e · N + s]`, `N = b1.len()`): the model's per-epoch score table.
///
/// One pass over the archive in blocks of [`BLOCK_SHOTS`]: each block of
/// `B_1` is transposed once, then every event with feature support runs the
/// kernel over it and divides each cell once by its memoized
/// self-similarity — the single division [`calibrated_similarity`]
/// performs — so every cell is bitwise equal to the scalar reference. Rows
/// of events with no support (`self_sim ≤ 0`) stay `0.0`, which is
/// [`calibrated_similarity`]'s definition for them.
pub(crate) fn calibrated_table(b1: &[FeatureVector], terms: &[EventTerms]) -> Vec<f64> {
    let n = b1.len();
    let mut table = vec![0.0; terms.len() * n];
    let mut slab = FeatureSlab::default();
    for (block, rows) in b1.chunks(BLOCK_SHOTS).enumerate() {
        slab.fill(rows);
        let lo = block * BLOCK_SHOTS;
        for (row, terms) in table.chunks_mut(n).zip(terms) {
            if terms.self_sim <= 0.0 {
                continue;
            }
            let cells = &mut row[lo..lo + rows.len()];
            accumulate(terms, &slab, cells);
            for cell in cells.iter_mut() {
                *cell /= terms.self_sim;
            }
        }
    }
    table
}

/// The Eq.-(14) score of an event's own centroid:
/// `Σ_y P_{1,2}(e, f_y) / B_1'(e, f_y)` over non-zero features — the
/// maximum attainable similarity for the event.
///
/// This is the *reference* computation; the model memoizes it per event
/// whenever it builds its caches ([`crate::model::EventTerms::self_sim`]),
/// and the hot paths read the memo instead of re-folding. The memo's fold
/// walks the same terms in the same ascending order, so it is bitwise equal
/// to this function (a unit test below pins that).
pub fn self_similarity(model: &Hmmm, event: usize) -> f64 {
    let centroid = &model.b1_prime()[event];
    let mut total = 0.0;
    for y in 0..FEATURE_COUNT {
        let c = centroid[y];
        if c <= CENTROID_EPSILON {
            continue;
        }
        total += model.p12().get(event, y) / c;
    }
    total
}

/// Eq. (14) rescaled so a perfect centroid match scores `1.0`.
///
/// The literal formula divides by `B_1'(e, f_y)`, which systematically
/// inflates the scores of events with small centroids — harmless when
/// ranking shots for a *fixed* event (it is a constant factor), but wrong
/// when attributing one shot to the best of several alternative events.
/// Calibration divides by [`self_similarity`], preserving within-event
/// ordering exactly while making scores comparable across events. (The
/// deviation is recorded in DESIGN.md; [`similarity`] stays literal.)
pub fn calibrated_similarity(model: &Hmmm, shot: usize, event: usize) -> f64 {
    // The denominator is a per-event constant; read the build-time memo
    // (bitwise equal to `self_similarity` — see there) instead of
    // re-folding Eq. 14 at its own centroid on every call.
    let denom = model.event_terms()[event].self_sim;
    if denom <= 0.0 {
        0.0
    } else {
        similarity(model, shot, event) / denom
    }
}

/// Similarity of a shot against the best of several alternative events
/// (MATN branch arcs), returning `(best_event, similarity)`. Uses the
/// calibrated Eq.-14 score so alternatives with small centroids do not
/// dominate.
/// Ties keep the *earliest* alternative — a total tie-break, so the choice
/// is reproducible and agrees with retrieval's reads of the score table
/// ([`crate::Hmmm::sim_row`]). Returns `None` for an empty alternative list.
pub fn best_alternative(model: &Hmmm, shot: usize, events: &[usize]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &e in events {
        let s = calibrated_similarity(model, shot, e);
        match best {
            Some((_, bs)) if s <= bs => {}
            _ => best = Some((e, s)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_hmmm, BuildConfig};
    use hmmm_features::{FeatureId, FeatureVector};
    use hmmm_media::EventKind;
    use hmmm_storage::Catalog;

    fn model() -> Hmmm {
        let mut c = Catalog::new();
        let feat = |g: f64, v: f64| {
            let mut f = FeatureVector::zeros();
            f[FeatureId::GrassRatio] = g;
            f[FeatureId::VolumeMean] = v;
            f
        };
        c.add_video(
            "m",
            vec![
                (vec![EventKind::Goal], feat(0.8, 0.9)),
                (vec![EventKind::Goal], feat(0.82, 0.95)),
                (vec![EventKind::FreeKick], feat(0.3, 0.1)),
                (vec![EventKind::FreeKick], feat(0.28, 0.12)),
                (vec![], feat(0.5, 0.5)),
            ],
        );
        build_hmmm(&c, &BuildConfig::default()).unwrap()
    }

    #[test]
    fn matching_shots_score_higher() {
        let m = model();
        let goal = EventKind::Goal.index();
        // Shot 0 is a goal shot, shot 2 a free kick.
        assert!(similarity(&m, 0, goal) > similarity(&m, 2, goal));
        let fk = EventKind::FreeKick.index();
        assert!(similarity(&m, 2, fk) > similarity(&m, 0, fk));
    }

    #[test]
    fn similarity_is_non_negative() {
        let m = model();
        for shot in 0..m.shot_count() {
            for event in 0..EventKind::COUNT {
                assert!(similarity(&m, shot, event) >= 0.0);
            }
        }
    }

    #[test]
    fn unseen_event_scores_zero() {
        let m = model();
        let red = EventKind::RedCard.index();
        for shot in 0..m.shot_count() {
            assert_eq!(similarity(&m, shot, red), 0.0);
        }
    }

    #[test]
    fn best_alternative_picks_the_matching_event() {
        let m = model();
        let goal = EventKind::Goal.index();
        let fk = EventKind::FreeKick.index();
        // Shot 0 is a goal shot, shot 2 a free kick: calibration must
        // attribute each to its own event despite centroid-scale bias.
        let (best, score) = best_alternative(&m, 0, &[fk, goal]).unwrap();
        assert_eq!(best, goal);
        assert!(score > 0.0);
        let (best, _) = best_alternative(&m, 2, &[fk, goal]).unwrap();
        assert_eq!(best, fk);
        assert!(best_alternative(&m, 0, &[]).is_none());
    }

    #[test]
    fn calibrated_similarity_is_bounded_by_one_at_centroid() {
        let m = model();
        let goal = EventKind::Goal.index();
        // A shot exactly at the centroid would score 1; real shots near it
        // score close to (but never meaningfully above) 1.
        for shot in 0..m.shot_count() {
            let c = calibrated_similarity(&m, shot, goal);
            assert!((0.0..=1.0 + 1e-9).contains(&c), "calibrated {c}");
        }
        // Literal and calibrated agree on within-event ordering.
        let lit0 = similarity(&m, 0, goal);
        let lit2 = similarity(&m, 2, goal);
        let cal0 = calibrated_similarity(&m, 0, goal);
        let cal2 = calibrated_similarity(&m, 2, goal);
        assert_eq!(lit0 > lit2, cal0 > cal2);
    }

    #[test]
    fn self_similarity_positive_for_seen_events() {
        let m = model();
        assert!(self_similarity(&m, EventKind::Goal.index()) > 0.0);
        assert_eq!(self_similarity(&m, EventKind::RedCard.index()), 0.0);
    }

    #[test]
    fn kernel_and_table_cross_block_boundaries_bitwise() {
        // 600 shots: four whole blocks and a partial fifth.
        let mut c = Catalog::new();
        for v in 0..3 {
            let shots = (0..200)
                .map(|s| {
                    let mut f = FeatureVector::zeros();
                    f[FeatureId::GrassRatio] = ((v * 200 + s) % 97) as f64 / 97.0;
                    f[FeatureId::VolumeMean] = ((v * 200 + s) % 89) as f64 / 89.0;
                    (vec![[EventKind::Goal, EventKind::FreeKick][s % 2]], f)
                })
                .collect();
            c.add_video(format!("v{v}"), shots);
        }
        let m = build_hmmm(&c, &BuildConfig::default()).unwrap();
        let n = m.shot_count();
        for event in 0..EventKind::COUNT {
            assert_eq!(m.sim_row(event).len(), n);
            for (shot, &score) in m.sim_row(event).iter().enumerate() {
                assert_eq!(
                    score.to_bits(),
                    calibrated_similarity(&m, shot, event).to_bits()
                );
            }
        }
    }

    #[test]
    fn memoized_denominator_matches_reference_bitwise() {
        let m = model();
        for event in 0..EventKind::COUNT {
            assert_eq!(
                m.event_terms()[event].self_sim.to_bits(),
                self_similarity(&m, event).to_bits()
            );
        }
    }
}
