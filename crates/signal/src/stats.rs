//! Online summary statistics (Welford's algorithm).

/// Running mean/variance/min/max accumulator.
///
/// Used throughout the feature extractors: Table 1 features are almost all
/// "mean of X", "standard deviation of X", or "dynamic range of X" over the
/// frames of a shot.
///
/// # Examples
///
/// ```
/// use hmmm_signal::Stats;
///
/// let s: Stats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Stats {
    fn default() -> Self {
        Stats::new()
    }
}

impl Stats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Stats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation. Non-finite values are ignored (the data-cleaning
    /// stage strips them, but extraction must never poison an accumulator).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of (finite) observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (`σ²`, divisor `n`); `0.0` when fewer than two
    /// observations.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation; `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Dynamic range normalized by the maximum:
    /// `(max − min) / max`, the paper's `volume_range` / `sf_range` form.
    /// Returns `0.0` when empty or when `max == 0`.
    pub fn normalized_range(&self) -> f64 {
        let max = self.max();
        if self.count == 0 || max == 0.0 {
            0.0
        } else {
            (max - self.min()) / max
        }
    }

    /// Standard deviation normalized by the maximum (Table 1's
    /// "standard deviation … normalized by the maximum" features).
    /// Returns `0.0` when `max == 0`.
    pub fn normalized_std(&self) -> f64 {
        let max = self.max();
        if max == 0.0 {
            0.0
        } else {
            self.population_std() / max
        }
    }

    /// Merges another accumulator into this one (parallel reduction via
    /// Chan's pairwise update).
    pub fn merge(&mut self, other: &Stats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Stats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Stats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Fraction of samples with value less than `factor × mean(samples)`.
///
/// This is Table 1's "low rate" feature family (`energy_lowrate`,
/// `sub1_lowrate`, `sub3_lowrate` with `factor = 0.5`). Returns `0.0` for an
/// empty slice.
pub fn low_rate(samples: &[f64], factor: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let threshold = factor * mean;
    let below = samples.iter().filter(|&&s| s < threshold).count();
    below as f64 / samples.len() as f64
}

/// First-order differences of a series (`x[i+1] − x[i]`).
///
/// Used for `volume_stdd` / `sf_stdd` ("standard deviation of the
/// difference"). Returns an empty vector for inputs shorter than 2.
pub fn differences(samples: &[f64]) -> Vec<f64> {
    samples.windows(2).map(|w| w[1] - w[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_mean_and_std() {
        let s: Stats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .copied()
            .collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert!((s.population_std() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = Stats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_std(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.normalized_range(), 0.0);
        assert_eq!(s.normalized_std(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = Stats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn non_finite_ignored() {
        let mut s = Stats::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn normalized_range_matches_paper_formula() {
        let s: Stats = [2.0, 10.0, 6.0].iter().copied().collect();
        // (max - min) / max = (10 - 2) / 10
        assert!((s.normalized_range() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn normalized_range_zero_max() {
        let s: Stats = [0.0, 0.0].iter().copied().collect();
        assert_eq!(s.normalized_range(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let all: Stats = data.iter().copied().collect();
        let mut a: Stats = data[..40].iter().copied().collect();
        let b: Stats = data[40..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Stats::new();
        let b: Stats = [1.0, 2.0].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.mean(), 1.5);
        let mut c: Stats = [4.0].iter().copied().collect();
        c.merge(&Stats::new());
        assert_eq!(c.mean(), 4.0);
    }

    #[test]
    fn low_rate_half_mean() {
        // mean = 5, threshold 2.5 → {1, 2} qualify of 5 samples.
        let samples = [1.0, 2.0, 5.0, 8.0, 9.0];
        assert!((low_rate(&samples, 0.5) - 0.4).abs() < 1e-12);
        assert_eq!(low_rate(&[], 0.5), 0.0);
    }

    #[test]
    fn differences_basic() {
        assert_eq!(differences(&[1.0, 4.0, 2.0]), vec![3.0, -2.0]);
        assert!(differences(&[1.0]).is_empty());
        assert!(differences(&[]).is_empty());
    }
}
