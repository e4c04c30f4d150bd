//! An executable specification of the §5 retrieval process (Steps 1–9,
//! Figures 2–3, Eqs. 12–15), and a proptest holding
//! [`Retriever::retrieve`] to it byte for byte.
//!
//! Every other exactness test compares one engine configuration with
//! another, so a rule they all share passes them all. The spec shares no
//! code with the engine's traversal: paths are cloned `Vec`s, every order
//! is a full sort, scores come from the scalar [`sim::best_alternative`]
//! (Eq. 14 evaluated per call, never the model's score table), `A_1` is
//! read entry by entry through `ForwardCsr::get`, and there is no pruning,
//! no arena and no coarse stage beyond the `B_2` check.
//!
//! # The rules
//!
//! Candidate videos (Steps 1–2):
//! 1. The whole archive, or the in-range, distinct ids of a
//!    `retrieve_within` subset, in ascending id order.
//! 2. With `require_first_event`, a video is kept only if its `B_2` row
//!    counts some alternative of the first step.
//!
//! Start selection (Steps 3–4, `j = 1`):
//! 3. A shot's step score is `best_alternative(shot, alternatives)`: the
//!    highest calibrated Eq.-14 score, ties to the earliest alternative.
//! 4. Annotation-first: the starts are every shot annotated with a
//!    first-step alternative, in shot order, uncut.
//! 5. Otherwise, or when no shot is so annotated, every shot is a start
//!    candidate; candidates are ordered by score desc then shot asc, and the
//!    first `max_start_candidates` kept.
//! 6. A start enters the beam only if `w_1 = Π_1(s) · sim > 0` (Eq. 12).
//!
//! Expansion (Steps 3–5, `j ≥ 2`), from an entry on shot `from`:
//! 7. Targets are shots `to ≥ from` in ascending order with
//!    `A_1(from, to) > 0`; the scan stops at the first `to − from >
//!    max_gap`.
//! 8. `step_has_annotation`: annotation-first, and some shot of the video
//!    is annotated with an alternative of step `j`. Then only such annotated
//!    shots are targets.
//! 9. Same-shot revisit (`to = from`) needs an alternative `alt` the shot is
//!    annotated with, where `alt` differs from the entry's event or the shot
//!    carries `alt` twice.
//! 10. `w_j = w_{j−1} · A_1(from, to) · sim` (Eq. 13); children with
//!     `w_j ≤ 0` are dropped. The score is the running sum `Σ w` (Eq. 15).
//!
//! Trim, after every step:
//! 11. Order by weight desc, then path (local shot ids) asc; drop equal
//!     paths after the first; keep `max(beam_width, 1)`. An empty beam ends
//!     the video with nothing.
//!
//! Per-video output (Step 6):
//! 12. The last beam ordered by score desc, then path asc; equal paths
//!     deduplicated; the first `per_video_results` kept.
//!
//! Global rank (Steps 8–9):
//! 13. Every video's output ordered by score desc, video asc, global shot
//!     sequence asc; the first `limit` returned.

mod common;

use common::{catalog, pattern};
use hmmm_core::order::cmp_f64_desc;
use hmmm_core::{build_hmmm, sim, BuildConfig, Hmmm, RankedPattern, RetrievalConfig, Retriever};
use hmmm_media::EventKind;
use hmmm_query::CompiledPattern;
use hmmm_storage::{Catalog, ShotId, VideoId};
use proptest::prelude::*;

/// A beam entry with its whole history, cloned on every extension.
#[derive(Clone)]
struct Entry {
    path: Vec<usize>,
    events: Vec<usize>,
    weights: Vec<f64>,
    score: f64,
}

impl Entry {
    fn weight(&self) -> f64 {
        *self.weights.last().expect("non-empty path")
    }

    fn extend(&self, shot: usize, event: usize, w: f64) -> Entry {
        let mut next = self.clone();
        next.path.push(shot);
        next.events.push(event);
        next.weights.push(w);
        next.score += w;
        next
    }
}

fn annotated(events: &[EventKind], alternatives: &[usize]) -> bool {
    events.iter().any(|e| alternatives.contains(&e.index()))
}

/// Rule 9.
fn revisit_ok(events: &[EventKind], prev_event: usize, alternatives: &[usize]) -> bool {
    alternatives.iter().any(|&alt| {
        let carried = events.iter().filter(|e| e.index() == alt).count();
        carried >= 1 && (alt != prev_event || carried >= 2)
    })
}

/// Rule 11.
fn trim(mut beam: Vec<Entry>, width: usize) -> Vec<Entry> {
    beam.sort_by(|a, b| cmp_f64_desc(a.weight(), b.weight()).then_with(|| a.path.cmp(&b.path)));
    beam.dedup_by(|a, b| a.path == b.path);
    beam.truncate(width.max(1));
    beam
}

/// Steps 3–6 for one video (rules 3–12).
fn traverse(
    model: &Hmmm,
    catalog: &Catalog,
    config: &RetrievalConfig,
    pattern: &CompiledPattern,
    video: usize,
) -> Vec<RankedPattern> {
    let record = catalog.video(VideoId(video)).expect("video in range");
    let base = record.shot_range.start;
    let shots = catalog.shots_of_video(VideoId(video));
    let n = shots.len();
    let local = &model.locals()[video];
    let score = |shot: usize, alternatives: &[usize]| {
        sim::best_alternative(model, base + shot, alternatives).expect("non-empty alternatives")
    };

    let first = &pattern.steps[0].alternatives;
    let mut starts: Vec<usize> = Vec::new();
    if config.annotated_first {
        starts = (0..n)
            .filter(|&s| annotated(&shots[s].events, first))
            .collect();
    }
    if starts.is_empty() {
        let mut ranked: Vec<(usize, f64)> = (0..n).map(|s| (s, score(s, first).1)).collect();
        ranked.sort_by(|a, b| cmp_f64_desc(a.1, b.1).then_with(|| a.0.cmp(&b.0)));
        starts = ranked
            .into_iter()
            .take(config.max_start_candidates)
            .map(|(s, _)| s)
            .collect();
    }
    let mut beam = Vec::new();
    for s in starts {
        let (event, sim) = score(s, first);
        let w = local.pi1().get(s) * sim;
        if w > 0.0 {
            beam.push(Entry {
                path: vec![s],
                events: vec![event],
                weights: vec![w],
                score: w,
            });
        }
    }
    beam = trim(beam, config.beam_width);

    for step in &pattern.steps[1..] {
        let alternatives = &step.alternatives;
        let step_has_annotation =
            config.annotated_first && shots.iter().any(|s| annotated(&s.events, alternatives));
        let mut children = Vec::new();
        for entry in &beam {
            let from = *entry.path.last().expect("non-empty path");
            for (to, target) in shots.iter().enumerate().skip(from) {
                if step.max_gap.is_some_and(|gap| to - from > gap) {
                    break;
                }
                let a = local.a1().get(from, to);
                if a <= 0.0 {
                    continue;
                }
                if step_has_annotation && !annotated(&target.events, alternatives) {
                    continue;
                }
                let prev_event = *entry.events.last().expect("non-empty path");
                if to == from && !revisit_ok(&target.events, prev_event, alternatives) {
                    continue;
                }
                let (event, sim) = score(to, alternatives);
                let w = entry.weight() * a * sim;
                if w > 0.0 {
                    children.push(entry.extend(to, event, w));
                }
            }
        }
        beam = trim(children, config.beam_width);
    }

    beam.sort_by(|a, b| cmp_f64_desc(a.score, b.score).then_with(|| a.path.cmp(&b.path)));
    beam.dedup_by(|a, b| a.path == b.path);
    beam.truncate(config.per_video_results);
    beam.into_iter()
        .map(|e| RankedPattern {
            video: VideoId(video),
            shots: e.path.iter().map(|&s| ShotId(base + s)).collect(),
            events: e.events,
            score: e.score,
            weights: e.weights,
        })
        .collect()
}

/// The whole process (rules 1–13).
fn spec_retrieve(
    model: &Hmmm,
    catalog: &Catalog,
    config: &RetrievalConfig,
    pattern: &CompiledPattern,
    limit: usize,
    subset: Option<&[VideoId]>,
) -> Vec<RankedPattern> {
    let mut videos: Vec<usize> = match subset {
        Some(ids) => ids
            .iter()
            .map(|v| v.index())
            .filter(|&v| v < catalog.video_count())
            .collect(),
        None => (0..catalog.video_count()).collect(),
    };
    videos.sort_unstable();
    videos.dedup();
    let first = &pattern.steps[0].alternatives;
    let mut ranked = Vec::new();
    for v in videos {
        if config.require_first_event && !first.iter().any(|&e| model.b2()[v][e] > 0) {
            continue;
        }
        ranked.extend(traverse(model, catalog, config, pattern, v));
    }
    ranked.sort_by(|a, b| {
        cmp_f64_desc(a.score, b.score)
            .then_with(|| a.video.cmp(&b.video))
            .then_with(|| a.shots.cmp(&b.shots))
    });
    ranked.truncate(limit);
    ranked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine's ranking equals the spec's, byte for byte (`Debug`
    /// prints every `f64` round-trip exact, signed zeros included), in both
    /// regimes, with pruning on and off, over whole archives and
    /// `retrieve_within` subsets that repeat ids and name missing videos.
    #[test]
    fn retrieve_equals_the_spec(
        (cat, pat) in (catalog(), pattern()),
        (content_only, prune, beam_width, per_video_results) in (
            proptest::sample::select(vec![false, true]),
            proptest::sample::select(vec![false, true]),
            1usize..5,
            1usize..4,
        ),
        (max_start_candidates, limit) in (proptest::sample::select(vec![1usize, 4, 16]), 1usize..21),
        subset in proptest::option::of(proptest::collection::vec(0usize..9, 0..6)),
    ) {
        let model = build_hmmm(&cat, &BuildConfig::default()).unwrap();
        let base = if content_only { RetrievalConfig::content_only() } else { RetrievalConfig::default() };
        let config = RetrievalConfig {
            beam_width,
            per_video_results,
            max_start_candidates,
            prune,
            ..base
        };
        let subset: Option<Vec<VideoId>> = subset.map(|ids| ids.into_iter().map(VideoId).collect());
        let want = spec_retrieve(&model, &cat, &config, &pat, limit, subset.as_deref());
        let retriever = Retriever::new(&model, &cat, config).unwrap();
        let (got, _) = match &subset {
            Some(ids) => retriever.retrieve_within(&pat, limit, Some(ids)).unwrap(),
            None => retriever.retrieve(&pat, limit).unwrap(),
        };
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}
