//! The running top-k score register of the exact pruned traversal.
//!
//! The exact pruned traversal ([`crate::retrieve`]) needs one fact: *the
//! k-th best Eq.-15 score emitted so far*. Any candidate whose admissible
//! upper bound ([`crate::bounds`]) falls strictly below that value can never
//! enter the returned top-k prefix, so it can be dropped without changing
//! the ranking.
//!
//! The register keeps the `k` best scores offered so far in a min-heap,
//! padded with `0.0` until `k` positive scores have arrived. Emitted scores
//! are non-negative (sums of positive Eq.-13 weights), and for non-negative
//! finite f64 the IEEE-754 bit pattern orders exactly like the number, so
//! the heap orders raw bit patterns.
//!
//! Retrieval runs on one thread and offers each video's candidates after
//! that video's traversal, so the threshold is *exact*: it equals the k-th
//! largest score offered so far (counting multiplicity), and it cannot move
//! while a video is being traversed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Running k-th best score over non-negative f64 scores.
///
/// `k = 0` is the degenerate register: the threshold is `+∞` and offers are
/// ignored — every candidate bound compares below it, which matches the
/// exhaustive search returning an empty result list for `limit == 0`.
#[derive(Debug, Clone)]
pub struct TopKThreshold {
    /// The k best scores offered so far as f64 bit patterns, smallest on
    /// top (`0` = a slot no positive score has filled yet).
    best: BinaryHeap<Reverse<u64>>,
}

impl TopKThreshold {
    /// A register tracking the `k` best scores, initially all `0.0`
    /// (a zero threshold prunes nothing under the strict-`<` discipline).
    pub fn new(k: usize) -> Self {
        TopKThreshold {
            best: vec![Reverse(0u64); k].into(),
        }
    }

    /// The prune threshold: the k-th best score offered so far (`0.0`
    /// until `k` positive scores have been offered). Bounds strictly below
    /// this can never reach the returned top-k prefix.
    pub fn threshold(&self) -> f64 {
        self.best
            .peek()
            .map_or(f64::INFINITY, |kth| f64::from_bits(kth.0))
    }

    /// Offers an emitted candidate score. Returns `true` iff this call
    /// raised the threshold (the `threshold_raises` statistic).
    ///
    /// Scores must be non-negative and non-NaN (Eq.-15 sums are); zeros are
    /// ignored — they cannot displace the empty-slot sentinel.
    pub fn offer(&mut self, score: f64) -> bool {
        debug_assert!(score >= 0.0, "Eq.-15 scores are non-negative: {score}");
        let Some(mut kth) = self.best.peek_mut() else {
            return false;
        };
        let before = kth.0;
        if score <= f64::from_bits(before) {
            return false;
        }
        *kth = Reverse(score.to_bits());
        drop(kth); // restores the heap order
        self.best.peek().is_some_and(|kth| kth.0 > before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The k-th largest of `scores` (counting multiplicity), 0.0 if fewer.
    fn kth_best(scores: &[f64], k: usize) -> f64 {
        let mut sorted: Vec<f64> = scores.to_vec();
        sorted.sort_by(|a, b| crate::order::cmp_f64_desc(*a, *b));
        sorted.get(k.wrapping_sub(1)).copied().unwrap_or(0.0)
    }

    #[test]
    fn threshold_is_the_exact_kth_best_after_every_offer() {
        for k in 1..=4 {
            let mut reg = TopKThreshold::new(k);
            let scores = [0.4, 0.1, 0.9, 0.9, 0.2, 0.55, 0.0, 0.7, 0.9, 0.05];
            for (i, &s) in scores.iter().enumerate() {
                reg.offer(s);
                assert_eq!(
                    reg.threshold(),
                    kth_best(&scores[..=i], k),
                    "k={k} after {:?}",
                    &scores[..=i]
                );
            }
        }
    }

    #[test]
    fn zero_capacity_register_prunes_everything() {
        let mut reg = TopKThreshold::new(0);
        assert_eq!(reg.threshold(), f64::INFINITY);
        assert!(!reg.offer(123.0));
        assert_eq!(reg.threshold(), f64::INFINITY);
    }

    #[test]
    fn threshold_stays_zero_until_k_positive_offers() {
        let mut reg = TopKThreshold::new(4);
        for s in [0.5, 0.0, 0.9, 0.3] {
            reg.offer(s);
            assert_eq!(reg.threshold(), 0.0, "raised early after {s}");
        }
        reg.offer(0.2);
        assert_eq!(reg.threshold(), 0.2);
    }

    #[test]
    fn offer_reports_raises_exactly() {
        let mut reg = TopKThreshold::new(2);
        assert!(!reg.offer(0.8)); // one slot still empty → min stays 0
        assert!(reg.offer(0.5)); // 0 → 0.5
        assert!(!reg.offer(0.1)); // below the pair
        assert!(reg.offer(0.6)); // 0.5 → 0.6
        assert!(!reg.offer(0.6)); // ties the k-th best: nothing moves
        assert!(reg.offer(0.7)); // {0.8, 0.7}: 0.6 → 0.7
        assert_eq!(reg.threshold(), 0.7);

        // Displacing one copy of a duplicated k-th best leaves the other.
        let mut dup = TopKThreshold::new(2);
        assert!(!dup.offer(0.5));
        assert!(dup.offer(0.5)); // 0 → 0.5
        assert!(!dup.offer(0.6)); // {0.6, 0.5}: still 0.5
        assert_eq!(dup.threshold(), 0.5);
    }
}
