//! Fixed-bin histograms and histogram distances.
//!
//! The shot-boundary detector (hmmm-shot) compares consecutive frames by the
//! distance between their intensity histograms — the classic twin-comparison
//! input — and the `histo_change` visual feature of Table 1 is the mean
//! histogram difference within a shot.

/// A fixed-bin histogram over `[min, max)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Vec<f64>,
    min: f64,
    max: f64,
    total: f64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` bins spanning `[min, max)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `min >= max`.
    pub fn new(bins: usize, min: f64, max: f64) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(min < max, "histogram range must be non-empty");
        Histogram {
            bins: vec![0.0; bins],
            min,
            max,
            total: 0.0,
        }
    }

    /// Builds a histogram directly from samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>, bins: usize, min: f64, max: f64) -> Self {
        let mut h = Histogram::new(bins, min, max);
        for s in samples {
            h.add(s);
        }
        h
    }

    /// Adds one sample. Values outside `[min, max)` clamp into the edge bins;
    /// non-finite values are ignored.
    pub fn add(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let n = self.bins.len();
        let span = self.max - self.min;
        let idx = (((value - self.min) / span) * n as f64).floor();
        let idx = (idx.max(0.0) as usize).min(n - 1);
        self.bins[idx] += 1.0;
        self.total += 1.0;
    }

    /// Total sample mass.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Raw bin counts.
    #[inline]
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Bin counts normalized to unit mass; all-zeros when empty.
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0.0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|b| b / self.total).collect()
    }

    /// L1 (sum of absolute differences) distance between normalized
    /// histograms.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ.
    pub fn l1_distance(&self, other: &Histogram) -> f64 {
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histograms must have equal bin counts"
        );
        let a = self.normalized();
        let b = other.normalized();
        a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
    }

    /// Symmetric χ² distance between normalized histograms:
    /// `Σ (a−b)² / (a+b)` over bins with non-zero mass.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ.
    pub fn chi_square_distance(&self, other: &Histogram) -> f64 {
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histograms must have equal bin counts"
        );
        let a = self.normalized();
        let b = other.normalized();
        a.iter()
            .zip(b.iter())
            .filter(|(x, y)| **x + **y > 0.0)
            .map(|(x, y)| {
                let d = x - y;
                d * d / (x + y)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_and_clamping() {
        let mut h = Histogram::new(4, 0.0, 4.0);
        h.add(0.5); // bin 0
        h.add(1.5); // bin 1
        h.add(3.99); // bin 3
        h.add(-5.0); // clamps to bin 0
        h.add(10.0); // clamps to bin 3
        h.add(f64::NAN); // ignored
        assert_eq!(h.bins(), &[2.0, 1.0, 0.0, 2.0]);
        assert_eq!(h.total(), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        Histogram::new(4, 1.0, 1.0);
    }

    #[test]
    fn normalized_unit_mass() {
        let h = Histogram::from_samples([0.1, 0.2, 0.9], 2, 0.0, 1.0);
        let n = h.normalized();
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((n[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_normalizes_to_zero() {
        let h = Histogram::new(3, 0.0, 1.0);
        assert_eq!(h.normalized(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn identical_histograms_zero_distance() {
        let h1 = Histogram::from_samples((0..100).map(|i| i as f64 / 100.0), 8, 0.0, 1.0);
        let h2 = h1.clone();
        assert_eq!(h1.l1_distance(&h2), 0.0);
        assert_eq!(h1.chi_square_distance(&h2), 0.0);
    }

    #[test]
    fn disjoint_histograms_max_distance() {
        let h1 = Histogram::from_samples([0.1, 0.1], 2, 0.0, 1.0);
        let h2 = Histogram::from_samples([0.9, 0.9], 2, 0.0, 1.0);
        assert!((h1.l1_distance(&h2) - 2.0).abs() < 1e-12);
        assert!((h1.chi_square_distance(&h2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let h1 = Histogram::from_samples([0.1, 0.4, 0.6], 4, 0.0, 1.0);
        let h2 = Histogram::from_samples([0.3, 0.8], 4, 0.0, 1.0);
        assert!((h1.l1_distance(&h2) - h2.l1_distance(&h1)).abs() < 1e-12);
        assert!((h1.chi_square_distance(&h2) - h2.chi_square_distance(&h1)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal bin counts")]
    fn mismatched_bins_panic() {
        let h1 = Histogram::new(2, 0.0, 1.0);
        let h2 = Histogram::new(3, 0.0, 1.0);
        let _ = h1.l1_distance(&h2);
    }
}
