//! Eq. (3) min–max feature normalization.
//!
//! The paper normalizes every `B_1` column into `[0, 1]` with
//! `B₁(i,j) = (BB₁(i,j) − min_k BB₁(k,j)) / (max_k BB₁(k,j) − min_k BB₁(k,j))`.
//! The fitted per-column `(min, max)` pairs are first-class here
//! ([`NormalizationParams`]) because query-time vectors must be normalized
//! with the *training* parameters, not their own.

use crate::vector::{FeatureVector, FEATURE_COUNT};
use serde::{Deserialize, Serialize};

/// Per-column `(min, max)` fitted over a training corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalizationParams {
    mins: [f64; FEATURE_COUNT],
    maxs: [f64; FEATURE_COUNT],
}

impl NormalizationParams {
    /// Fits the parameters over a corpus of raw feature vectors (the
    /// paper's `BB_1` temporal matrix).
    ///
    /// Returns `None` for an empty corpus.
    pub fn fit(corpus: &[FeatureVector]) -> Option<Self> {
        if corpus.is_empty() {
            return None;
        }
        let mut mins = [f64::INFINITY; FEATURE_COUNT];
        let mut maxs = [f64::NEG_INFINITY; FEATURE_COUNT];
        for v in corpus {
            for (j, &x) in v.as_slice().iter().enumerate() {
                if x.is_finite() {
                    mins[j] = mins[j].min(x);
                    maxs[j] = maxs[j].max(x);
                }
            }
        }
        // Columns that never saw a finite value collapse to [0, 0].
        for j in 0..FEATURE_COUNT {
            if mins[j] > maxs[j] {
                mins[j] = 0.0;
                maxs[j] = 0.0;
            }
        }
        Some(NormalizationParams { mins, maxs })
    }

    /// Column minimum.
    pub fn min(&self, col: usize) -> f64 {
        self.mins[col]
    }

    /// Column maximum.
    pub fn max(&self, col: usize) -> f64 {
        self.maxs[col]
    }
}

/// Applies fitted [`NormalizationParams`] to feature vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    params: NormalizationParams,
}

impl Normalizer {
    /// Wraps fitted parameters.
    pub fn new(params: NormalizationParams) -> Self {
        Normalizer { params }
    }

    /// Fits and wraps in one step. `None` for an empty corpus.
    pub fn fit(corpus: &[FeatureVector]) -> Option<Self> {
        NormalizationParams::fit(corpus).map(Normalizer::new)
    }

    /// The fitted parameters.
    pub fn params(&self) -> &NormalizationParams {
        &self.params
    }

    /// Normalizes one vector per Eq. (3). Values are clamped into `[0, 1]`
    /// (query-time vectors may exceed the training range); degenerate
    /// columns map to `0.0`.
    pub fn normalize(&self, v: &FeatureVector) -> FeatureVector {
        let mut out = FeatureVector::zeros();
        for j in 0..FEATURE_COUNT {
            let (min, max) = (self.params.mins[j], self.params.maxs[j]);
            out[j] = if max > min {
                ((v[j] - min) / (max - min)).clamp(0.0, 1.0)
            } else {
                0.0
            };
        }
        out
    }

    /// Normalizes a whole corpus.
    pub fn normalize_all(&self, corpus: &[FeatureVector]) -> Vec<FeatureVector> {
        corpus.iter().map(|v| self.normalize(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_id::FeatureId;

    fn vec_with(pairs: &[(FeatureId, f64)]) -> FeatureVector {
        let mut v = FeatureVector::zeros();
        for &(f, x) in pairs {
            v[f] = x;
        }
        v
    }

    #[test]
    fn fit_requires_data() {
        assert!(NormalizationParams::fit(&[]).is_none());
    }

    #[test]
    fn normalization_maps_to_unit_interval() {
        let corpus = vec![
            vec_with(&[(FeatureId::VolumeMean, 2.0)]),
            vec_with(&[(FeatureId::VolumeMean, 6.0)]),
            vec_with(&[(FeatureId::VolumeMean, 4.0)]),
        ];
        let n = Normalizer::fit(&corpus).unwrap();
        let out = n.normalize_all(&corpus);
        assert_eq!(out[0][FeatureId::VolumeMean], 0.0);
        assert_eq!(out[1][FeatureId::VolumeMean], 1.0);
        assert_eq!(out[2][FeatureId::VolumeMean], 0.5);
    }

    #[test]
    fn degenerate_columns_map_to_zero() {
        let corpus = vec![
            vec_with(&[(FeatureId::SfMean, 3.0)]),
            vec_with(&[(FeatureId::SfMean, 3.0)]),
        ];
        let n = Normalizer::fit(&corpus).unwrap();
        let col = FeatureId::SfMean.index();
        assert_eq!(n.params().min(col), n.params().max(col));
        assert_eq!(n.normalize(&corpus[0])[FeatureId::SfMean], 0.0);
    }

    #[test]
    fn out_of_range_queries_are_clamped() {
        let corpus = vec![
            vec_with(&[(FeatureId::EnergyMean, 1.0)]),
            vec_with(&[(FeatureId::EnergyMean, 2.0)]),
        ];
        let n = Normalizer::fit(&corpus).unwrap();
        let hot = n.normalize(&vec_with(&[(FeatureId::EnergyMean, 99.0)]));
        assert_eq!(hot[FeatureId::EnergyMean], 1.0);
        let cold = n.normalize(&vec_with(&[(FeatureId::EnergyMean, -99.0)]));
        assert_eq!(cold[FeatureId::EnergyMean], 0.0);
    }

    #[test]
    fn non_finite_training_values_are_skipped() {
        let mut bad = vec_with(&[(FeatureId::SfStd, 0.5)]);
        bad[FeatureId::GrassRatio] = f64::NAN;
        let corpus = vec![bad, vec_with(&[(FeatureId::SfStd, 1.0)])];
        let n = Normalizer::fit(&corpus).unwrap();
        // grass column saw one NaN and one 0.0 → min=max=0 → degenerate-safe.
        let out = n.normalize(&corpus[0]);
        assert!(out.is_finite());
    }

    #[test]
    fn serde_round_trip() {
        let corpus = vec![
            vec_with(&[(FeatureId::VolumeMean, 2.0)]),
            vec_with(&[(FeatureId::VolumeMean, 6.0)]),
        ];
        let n = Normalizer::fit(&corpus).unwrap();
        let json = serde_json::to_string(&n).unwrap();
        let back: Normalizer = serde_json::from_str(&json).unwrap();
        assert_eq!(n, back);
    }
}
