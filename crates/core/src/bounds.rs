//! Admissible upper bounds for the exact top-k pruned traversal.
//!
//! The Eq.-13 lattice walk is monotone: every edge multiplies the running
//! weight by `A_1(prev, next) · sim(next, e)`, both factors non-negative and
//! bounded. Similarities are bounded by the per-event maximum of the
//! calibrated Eq.-14 score over one video's shots, read from the
//! ingest-time [`crate::coarse::CoarseIndex`] summaries. Transitions are bounded by
//! the *forward row maxima* of `A_1` ([`crate::LocalMmm::a1_row_max`]): the walk
//! only ever moves forward through a video's shots, so an entry sitting on
//! shot `s` multiplies by at most `max_{t ≥ s} A_1(s, t)` on its next hop —
//! and by at most the video-wide forward maximum [`crate::LocalMmm::a1_max`] on
//! every hop after that (whose source shot is not yet known). Folding those
//! factors along the remaining pattern steps bounds everything a partial
//! walk can still add to its Eq.-15 sum, which is exactly what
//! branch-and-bound needs:
//!
//! * `sm_j`        — per video: the largest calibrated similarity any of
//!   its shots attains against any of step `j`'s alternative events.
//! * `chain[j]`    — per video: max of `Σ_{i>j} w_i / (w_j · a)` over all
//!   continuations of an entry at step `j` whose first hop uses transition
//!   factor `a`, via the recurrence `chain[C−1] = 0`,
//!   `chain[j] = sm_{j+1} · (1 + a1_max · chain[j+1])` (this edge's
//!   similarity, then whatever its own suffix can add). The first-hop
//!   transition factor is deliberately left *out* of the chain so each
//!   bound site can charge the tightest factor it knows — the entry's own
//!   row maximum.
//! * `UB(video)`   — the Eq.-12 start weights folded with their first hop:
//!   any admissible `≥ max_s w_0(s) · (1 + row_max(s) · chain[0])` bounds
//!   every Eq.-15 score the video can produce. The coarse stage supplies it
//!   from its start summaries ([`crate::coarse::CoarseIndex::video_bounds`]).
//!
//! # Float safety margin
//!
//! The real-arithmetic inequalities above survive rounding *almost*
//! everywhere (rounding is monotone per operation), but when a bound is
//! exactly tight — the maximal shot *is* the walked path — the traversal and
//! the bound evaluate the same product in different association orders and
//! may round to adjacent representable values in either direction. A bound
//! that rounds one ulp below a score that rounds one ulp above would prune a
//! genuine top-k candidate. Every bound is therefore inflated by
//! [`BOUND_SLACK`] (a relative 2⁻³⁰ ≈ 9.3e-10 — about five orders of
//! magnitude above the worst accumulated rounding error for realistic
//! pattern lengths, and far too small to keep any genuinely hopeless
//! candidate alive for long). Admissibility is preserved; tightness is
//! given up by a hair.

/// Relative inflation applied to every bound so float rounding can never
/// make an exact-tight bound dip below the score it dominates.
pub const BOUND_SLACK: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;

/// One video's admissible bounds: its completion chain and its whole-video
/// bound.
#[derive(Debug, Clone)]
pub struct VideoBounds {
    /// `chain[j]`: admissible max of `Σ_{i>j} w_i / (w_j · a)` where `a`
    /// is the first hop's transition factor (charged by the caller). Empty
    /// until [`VideoBounds::link_chain`].
    chain: Vec<f64>,
    /// `UB(video) ≥ max achievable SS` of any candidate in the video.
    video_ub: f64,
}

impl VideoBounds {
    /// The whole-video bound of one video, in scalars: `chain[0]` by the
    /// suffix fold over its `steps ≥ 1` step maxima `sm_j = step_max(j)`
    /// and its forward maximum `a1_max` ([`crate::LocalMmm::a1_max`]), then
    /// `start(chain[0])` — the caller's admissible Eq.-12/13 start fold
    /// (see the module docs) — inflated by [`BOUND_SLACK`]. The chain
    /// itself is not stored, so a video the coarse stage drops costs no
    /// allocation; [`VideoBounds::link_chain`] adds it for the survivors.
    pub(crate) fn new(
        steps: usize,
        step_max: impl Fn(usize) -> f64,
        a1_max: f64,
        start: impl FnOnce(f64) -> f64,
    ) -> Self {
        let chain0 = fold_chain(steps, step_max, a1_max, |_, _| {});
        VideoBounds {
            chain: Vec::new(),
            video_ub: start(chain0) * BOUND_SLACK,
        }
    }

    /// Stores `chain[j]` for every step, from the inputs given to
    /// [`VideoBounds::new`]. The fold is the same, so `chain[0]` is bitwise
    /// the value the whole-video bound was built on. Needed before
    /// [`VideoBounds::entry_ub`].
    pub(crate) fn link_chain(
        &mut self,
        steps: usize,
        step_max: impl Fn(usize) -> f64,
        a1_max: f64,
    ) {
        let mut chain = vec![0.0; steps];
        fold_chain(steps, step_max, a1_max, |j, c| chain[j] = c);
        self.chain = chain;
    }

    /// Upper bound on the Eq.-15 score of *any* candidate this video can
    /// produce. Strictly below the top-k threshold ⇒ the whole video is
    /// skipped before `traverse_video`.
    pub fn video_ub(&self) -> f64 {
        self.video_ub
    }

    /// Upper bound on the final Eq.-15 score of a beam entry sitting at
    /// `step` with partial sum `score`, running weight `weight`, and
    /// forward transition maximum `row_max` out of its current shot
    /// ([`crate::LocalMmm::a1_row_max`]). Strictly below the threshold ⇒ the
    /// entry can never reach the top-k.
    pub fn entry_ub(&self, score: f64, weight: f64, step: usize, row_max: f64) -> f64 {
        (score + weight * row_max * self.chain[step]) * BOUND_SLACK
    }
}

/// The `chain[j]` recurrence of the module docs, folded from the last step
/// back: calls `link(j, chain[j])` for `j = steps − 1` down to `0` and
/// returns `chain[0]`.
fn fold_chain(
    steps: usize,
    step_max: impl Fn(usize) -> f64,
    a1_max: f64,
    mut link: impl FnMut(usize, f64),
) -> f64 {
    let mut chain = 0.0;
    link(steps - 1, chain);
    for j in (0..steps - 1).rev() {
        chain = step_max(j + 1) * (1.0 + a1_max * chain);
        link(j, chain);
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LocalMmm;
    use hmmm_matrix::{ForwardCsr, ProbVector};

    /// A local MMM from dense `A_1` rows; only the forward (`j ≥ i`) part
    /// of each row is stored, and it must already sum to one.
    fn local(a1_rows: &[&[f64]], pi1: &[f64]) -> LocalMmm {
        let (mut row_start, mut cols, mut counts) = (vec![0u32], Vec::new(), Vec::new());
        for (i, row) in a1_rows.iter().enumerate() {
            for (j, &x) in row.iter().enumerate().skip(i) {
                cols.push(j as u32);
                counts.push(x);
            }
            row_start.push(cols.len() as u32);
        }
        let a1 = ForwardCsr::from_counts(row_start, cols, counts).unwrap();
        for (i, row) in a1_rows.iter().enumerate() {
            for (j, &x) in row.iter().enumerate().skip(i) {
                assert_eq!(a1.get(i, j), x, "forward row {i} is not stochastic");
            }
        }
        LocalMmm::new(a1, ProbVector::from_counts(pi1).unwrap())
    }

    /// Bounds with their chain, from per-step maxima and the exact
    /// per-shot start fold `max_s Π_1(s) · sim(s, 0) · (1 + row_max(s) ·
    /// chain[0])` over dense similarities `sims[shot][step]`.
    fn bounds(l: &LocalMmm, pi: &[f64], sims: &[&[f64]]) -> VideoBounds {
        let steps = sims[0].len();
        let sm = |j: usize| sims.iter().map(|row| row[j]).fold(0.0, f64::max);
        let mut vb = VideoBounds::new(steps, sm, l.a1_max(), |chain0| {
            (0..sims.len())
                .map(|s| pi[s] * sims[s][0] * (1.0 + l.a1_row_max()[s] * chain0))
                .fold(0.0, f64::max)
        });
        vb.link_chain(steps, sm, l.a1_max());
        vb
    }

    #[test]
    fn chain_recurrence_matches_hand_fold() {
        let l = local(&[&[0.25, 0.75], &[0.0, 1.0]], &[1.0, 3.0]);
        assert_eq!(l.a1_row_max(), &[0.75, 1.0]);
        assert_eq!(l.a1_max(), 1.0);
        let sm = [0.9, 0.6, 0.4];
        let mut seen = None;
        let mut vb = VideoBounds::new(
            3,
            |j| sm[j],
            l.a1_max(),
            |chain0| {
                seen = Some(chain0);
                0.5
            },
        );
        // chain[2] = 0; chain[1] = 0.4·1 = 0.4;
        // chain[0] = 0.6·(1 + 1·0.4) = 0.84, handed to the start fold.
        assert!((seen.unwrap() - 0.84).abs() < 1e-12);
        // The start fold's value becomes the whole-video bound, slack
        // included, before any chain is stored.
        assert!(vb.chain.is_empty());
        assert!((vb.video_ub() - 0.5 * BOUND_SLACK).abs() < 1e-15);
        vb.link_chain(3, |j| sm[j], l.a1_max());
        assert_eq!(vb.chain[2], 0.0);
        assert!((vb.chain[1] - 0.4).abs() < 1e-12);
        assert_eq!(vb.chain[0].to_bits(), seen.unwrap().to_bits());
    }

    #[test]
    fn entry_ub_dominates_every_enumerated_completion() {
        // Tiny 3-shot lattice, 3-step pattern: enumerate all *forward*
        // completions (the only ones the walk can take) of every
        // (start, step) prefix by brute force and check domination —
        // entry bounds charged with each prefix shot's own row maximum.
        let a1 = [
            [0.125, 0.625, 0.25],
            [0.0, 0.375, 0.625],
            [0.0, 0.0, 1.0],
        ];
        let pi = [0.2, 0.5, 0.3];
        let l = local(&[&a1[0], &a1[1], &a1[2]], &pi);
        assert_eq!(l.a1_row_max(), &[0.625, 0.625, 1.0]);
        let sims = [
            [0.9, 0.1, 0.5], // sim(shot, step) for step 0..3
            [0.2, 0.8, 0.3],
            [0.4, 0.4, 0.7],
        ];
        let vb = bounds(&l, &pi, &[&sims[0], &sims[1], &sims[2]]);

        // All forward paths s0 ≤ s1 ≤ s2; track best completion per prefix.
        for s0 in 0..3 {
            let w0 = pi[s0] * sims[s0][0];
            let mut best_from_s0 = w0;
            for s1 in s0..3 {
                let w1 = w0 * a1[s0][s1] * sims[s1][1];
                let mut best_from_s1 = w0 + w1;
                for s2 in s1..3 {
                    let w2 = w1 * a1[s1][s2] * sims[s2][2];
                    let total = w0 + w1 + w2;
                    best_from_s1 = best_from_s1.max(total);
                    best_from_s0 = best_from_s0.max(total);
                    assert!(vb.video_ub() >= total);
                    // An entry settled at the final step bounds itself.
                    assert!(vb.entry_ub(total, w2, 2, l.a1_row_max()[s2]) >= total);
                }
                assert!(
                    vb.entry_ub(w0 + w1, w1, 1, l.a1_row_max()[s1]) >= best_from_s1,
                    "step-1 entry bound below its best completion"
                );
            }
            assert!(vb.entry_ub(w0, w0, 0, l.a1_row_max()[s0]) >= best_from_s0);
        }
    }

    #[test]
    fn start_fold_video_ub_is_admissible() {
        // Same lattice, 2-step pattern: the per-shot start fold must
        // dominate every forward path.
        let a1 = [
            [0.125, 0.625, 0.25],
            [0.0, 0.375, 0.625],
            [0.0, 0.0, 1.0],
        ];
        let pi = [0.2, 0.5, 0.3];
        let l = local(&[&a1[0], &a1[1], &a1[2]], &pi);
        let sims = [[0.9, 0.1], [0.2, 0.8], [0.4, 0.4]];
        let vb = bounds(&l, &pi, &[&sims[0], &sims[1], &sims[2]]);
        for s0 in 0..3 {
            let w0 = pi[s0] * sims[s0][0];
            assert!(vb.video_ub() >= w0);
            for s1 in s0..3 {
                let total = w0 + w0 * a1[s0][s1] * sims[s1][1];
                assert!(vb.video_ub() >= total, "start {s0} → {s1}");
            }
        }
    }
}
