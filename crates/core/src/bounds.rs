//! Admissible upper bounds for the exact top-k pruned traversal.
//!
//! The Eq.-13 lattice walk is monotone: every edge multiplies the running
//! weight by `A_1(prev, next) · sim(next, e)`, both factors non-negative and
//! bounded. Similarities are bounded by the per-event maximum of the
//! calibrated Eq.-14 score over one video's shots, read from the
//! ingest-time [`crate::coarse::CoarseIndex`] summaries. Transitions are bounded by
//! the *forward row maxima* of `A_1` ([`LocalMmm::a1_row_max`]): the walk
//! only ever moves forward through a video's shots, so an entry sitting on
//! shot `s` multiplies by at most `max_{t ≥ s} A_1(s, t)` on its next hop —
//! and by at most the video-wide forward maximum [`LocalMmm::a1_max`] on
//! every hop after that (whose source shot is not yet known). Folding those
//! factors along the remaining pattern steps bounds everything a partial
//! walk can still add to its Eq.-15 sum, which is exactly what
//! branch-and-bound needs:
//!
//! * `step_max[j]` — largest calibrated similarity any in-scope shot
//!   attains against any of step `j`'s alternative events (`sm_j`).
//! * `chain[j]`    — per video: max of `Σ_{i>j} w_i / (w_j · a)` over all
//!   continuations of an entry at step `j` whose first hop uses transition
//!   factor `a`, via the recurrence `chain[C−1] = 0`,
//!   `chain[j] = sm_{j+1} · (1 + a1_max · chain[j+1])` (this edge's
//!   similarity, then whatever its own suffix can add). The first-hop
//!   transition factor is deliberately left *out* of the chain so each
//!   bound site can charge the tightest factor it knows — the entry's own
//!   row maximum, or `pi1_max`/`a1_max` when no row is pinned down.
//! * `UB(video)`   — `Π_1`-start version of the same:
//!   `pi1_max · sm_0 · (1 + a1_max · chain[0]) ≥ max achievable SS` in the
//!   video; or, tighter, the caller folds the actual per-shot start weights
//!   and row maxima ([`VideoBounds::with_video_ub`]).
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

use crate::model::LocalMmm;

/// Relative inflation applied to every bound so float rounding can never
/// make an exact-tight bound dip below the score it dominates.
pub const BOUND_SLACK: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;

/// Per-query step similarity maxima (`sm_j`), shared by all videos.
#[derive(Debug, Clone)]
pub struct QueryBounds {
    /// `sm_j`: max calibrated similarity over step `j`'s alternatives,
    /// maximized over every shot in scope (one video's range).
    step_max: Vec<f64>,
}

impl QueryBounds {
    /// Wraps precomputed per-step maxima of the Eq.-14 similarity factor
    /// (one entry `sm_j` per pattern step), e.g. the per-video maxima of
    /// [`crate::coarse::CoarseIndex::sim_max`]. Admissible for the
    /// video(s) whose shots they cover.
    pub fn new(step_max: Vec<f64>) -> Self {
        QueryBounds { step_max }
    }

    /// Number of pattern steps covered.
    pub fn step_count(&self) -> usize {
        self.step_max.len()
    }

    /// `sm_j` for step `j`.
    pub fn step_max(&self, step: usize) -> f64 {
        self.step_max[step]
    }

    /// Specializes the query bounds to one video, bounding the Eq.-12
    /// start weight by the separable `pi1_max · sm_0` product and the
    /// first Eq.-13 hop
    /// by the video-wide forward maximum `a1_max`. Callers holding start
    /// summaries refine the whole-video bound with
    /// [`VideoBounds::with_video_ub`].
    pub fn for_video(&self, local: &LocalMmm) -> VideoBounds {
        let chain = self.chain_for(local);
        let video_ub = if self.step_max.is_empty() {
            0.0
        } else {
            local.pi1_max() * self.step_max[0] * (1.0 + local.a1_max() * chain[0]) * BOUND_SLACK
        };
        VideoBounds { chain, video_ub }
    }

    /// The `chain[j]` recurrence for one video (see the module docs).
    fn chain_for(&self, local: &LocalMmm) -> Vec<f64> {
        let steps = self.step_max.len();
        let mut chain = vec![0.0; steps.max(1)];
        for j in (0..steps.saturating_sub(1)).rev() {
            chain[j] = self.step_max[j + 1] * (1.0 + local.a1_max() * chain[j + 1]);
        }
        chain
    }
}

/// Bounds specialized to one video (its `A_1`/`Π_1` maxima folded in).
#[derive(Debug, Clone)]
pub struct VideoBounds {
    /// `chain[j]`: admissible max of `Σ_{i>j} w_i / (w_j · a)` where `a`
    /// is the first hop's transition factor (charged by the caller).
    chain: Vec<f64>,
    /// `UB(video) ≥ max achievable SS` of any candidate in the video.
    video_ub: f64,
}

impl VideoBounds {
    /// Upper bound on the Eq.-15 score of *any* candidate this video can
    /// produce. Strictly below the top-k threshold ⇒ the whole video is
    /// skipped before `traverse_video`.
    pub fn video_ub(&self) -> f64 {
        self.video_ub
    }

    /// `chain[0]` — what a start shot's first hop multiplies into. Exposed
    /// so callers with per-shot start weights can fold the exact
    /// whole-video bound `max_s w_0(s) · (1 + row_max(s) · chain[0])`
    /// themselves (see [`VideoBounds::with_video_ub`]).
    pub fn chain0(&self) -> f64 {
        self.chain[0]
    }

    /// Replaces the whole-video bound with a caller-computed admissible
    /// `raw_ub` (the [`BOUND_SLACK`] inflation is applied here). The
    /// coarse index folds the Eq.-12/13 start summaries
    /// `max_e [start_max + chain[0] · start_joint]` — tighter than the
    /// separable product of [`QueryBounds::for_video`], since `Π_1` mass,
    /// high similarity and a strong outgoing transition rarely coincide on
    /// one shot.
    pub fn with_video_ub(mut self, raw_ub: f64) -> VideoBounds {
        self.video_ub = raw_ub * BOUND_SLACK;
        self
    }

    /// Upper bound on the final Eq.-15 score of a beam entry sitting at
    /// `step` with partial sum `score`, running weight `weight`, and
    /// forward transition maximum `row_max` out of its current shot
    /// ([`LocalMmm::a1_row_max`]). Strictly below the threshold ⇒ the
    /// entry can never reach the top-k.
    pub fn entry_ub(&self, score: f64, weight: f64, step: usize, row_max: f64) -> f64 {
        (score + weight * row_max * self.chain[step]) * BOUND_SLACK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn chain_recurrence_matches_hand_fold() {
        let l = local(
            &[&[0.25, 0.75], &[0.0, 1.0]],
            &[1.0, 3.0], // normalizes to [0.25, 0.75]
        );
        assert_eq!(l.a1_row_max(), &[0.75, 1.0]);
        assert_eq!(l.a1_max(), 1.0);
        assert_eq!(l.pi1_max(), 0.75);
        let qb = QueryBounds::new(vec![0.9, 0.6, 0.4]);
        let vb = qb.for_video(&l);
        // chain[2] = 0; chain[1] = 0.4·1 = 0.4;
        // chain[0] = 0.6·(1 + 1·0.4) = 0.84.
        assert_eq!(vb.chain[2], 0.0);
        assert!((vb.chain[1] - 0.4).abs() < 1e-12);
        assert!((vb.chain[0] - 0.84).abs() < 1e-12);
        assert!((vb.chain0() - 0.84).abs() < 1e-12);
        // UB = 0.75·0.9·(1 + 1·0.84)·slack.
        let expect = 0.75 * 0.9 * (1.0 + 0.84) * BOUND_SLACK;
        assert!((vb.video_ub() - expect).abs() < 1e-12);
        // A caller-refined whole-video bound replaces it, slack included.
        let refined = vb.clone().with_video_ub(0.5);
        assert!((refined.video_ub() - 0.5 * BOUND_SLACK).abs() < 1e-15);
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
        let l = local(
            &[&a1[0], &a1[1], &a1[2]],
            &[0.2, 0.5, 0.3],
        );
        assert_eq!(l.a1_row_max(), &[0.625, 0.625, 1.0]);
        let sims = [
            [0.9, 0.1, 0.5], // sim(shot, step) for step 0..3
            [0.2, 0.8, 0.3],
            [0.4, 0.4, 0.7],
        ];
        let sm: Vec<f64> = (0..3)
            .map(|j| (0..3).map(|s| sims[s][j]).fold(0.0, f64::max))
            .collect();
        let qb = QueryBounds::new(sm);
        let vb = qb.for_video(&l);

        // All forward paths s0 ≤ s1 ≤ s2; track best completion per prefix.
        let pi = [0.2, 0.5, 0.3];
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
    fn refined_video_ub_is_tighter_and_still_admissible() {
        // Same lattice: the per-shot start fold must dominate every
        // forward path yet sit at or below the separable product.
        let a1 = [
            [0.125, 0.625, 0.25],
            [0.0, 0.375, 0.625],
            [0.0, 0.0, 1.0],
        ];
        let l = local(&[&a1[0], &a1[1], &a1[2]], &[0.2, 0.5, 0.3]);
        let sims = [[0.9, 0.1], [0.2, 0.8], [0.4, 0.4]];
        let sm: Vec<f64> = (0..2)
            .map(|j| (0..3).map(|s| sims[s][j]).fold(0.0, f64::max))
            .collect();
        let vb = QueryBounds::new(sm).for_video(&l);
        let pi = [0.2, 0.5, 0.3];
        let raw = (0..3)
            .map(|s| pi[s] * sims[s][0] * (1.0 + l.a1_row_max()[s] * vb.chain0()))
            .fold(0.0, f64::max);
        let refined = vb.clone().with_video_ub(raw);
        assert!(refined.video_ub() <= vb.video_ub());
        for s0 in 0..3 {
            let w0 = pi[s0] * sims[s0][0];
            assert!(refined.video_ub() >= w0);
            for s1 in s0..3 {
                let total = w0 + w0 * a1[s0][s1] * sims[s1][1];
                assert!(refined.video_ub() >= total, "start {s0} → {s1}");
            }
        }
    }

    #[test]
    fn empty_pattern_bounds_to_zero() {
        let l = local(&[&[1.0]], &[1.0]);
        let qb = QueryBounds::new(vec![]);
        let vb = qb.for_video(&l);
        assert_eq!(vb.video_ub(), 0.0);
        assert_eq!(qb.step_count(), 0);
    }
}
