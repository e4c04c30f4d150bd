//! The fixed 20-dimensional feature vector.

use crate::feature_id::FeatureId;
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// Number of shot-level features (`K` in the paper; Table 1 has 20).
pub const FEATURE_COUNT: usize = 20;

/// One row of the `B_1` feature matrix: the 20 Table-1 features of a shot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector([f64; FEATURE_COUNT]);

impl Default for FeatureVector {
    fn default() -> Self {
        FeatureVector([0.0; FEATURE_COUNT])
    }
}

impl FeatureVector {
    /// Zero vector.
    pub fn zeros() -> Self {
        Self::default()
    }

    /// Wraps a raw array (column order = [`FeatureId::ALL`]).
    pub fn from_array(values: [f64; FEATURE_COUNT]) -> Self {
        FeatureVector(values)
    }

    /// Builds from a slice.
    ///
    /// Returns `None` unless exactly [`FEATURE_COUNT`] values are given.
    pub fn from_slice(values: &[f64]) -> Option<Self> {
        let arr: [f64; FEATURE_COUNT] = values.try_into().ok()?;
        Some(FeatureVector(arr))
    }

    /// Raw values in canonical column order.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Iterates `(feature, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureId, f64)> + '_ {
        FeatureId::ALL.iter().map(move |&f| (f, self.0[f.index()]))
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    /// Element-wise mean of a set of vectors (the paper's Eq. 11 — the
    /// per-event feature centroid `B_1'`). Returns the zero vector for an
    /// empty set.
    pub fn mean_of(vectors: &[FeatureVector]) -> FeatureVector {
        if vectors.is_empty() {
            return FeatureVector::zeros();
        }
        let mut acc = [0.0; FEATURE_COUNT];
        for v in vectors {
            for (a, x) in acc.iter_mut().zip(v.0.iter()) {
                *a += x;
            }
        }
        let n = vectors.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        FeatureVector(acc)
    }

    /// Element-wise population standard deviation of a set of vectors (the
    /// input to the paper's Eqs. 8–10 — `Std_{i,j}` per event and feature).
    /// Returns the zero vector for fewer than two vectors.
    pub fn std_of(vectors: &[FeatureVector]) -> FeatureVector {
        if vectors.len() < 2 {
            return FeatureVector::zeros();
        }
        let mean = Self::mean_of(vectors);
        let mut acc = [0.0; FEATURE_COUNT];
        for v in vectors {
            for ((a, x), m) in acc.iter_mut().zip(v.0.iter()).zip(mean.0.iter()) {
                let d = x - m;
                *a += d * d;
            }
        }
        let n = vectors.len() as f64;
        for a in &mut acc {
            *a = (*a / n).sqrt();
        }
        FeatureVector(acc)
    }
}

impl Index<FeatureId> for FeatureVector {
    type Output = f64;

    #[inline]
    fn index(&self, f: FeatureId) -> &f64 {
        &self.0[f.index()]
    }
}

impl IndexMut<FeatureId> for FeatureVector {
    #[inline]
    fn index_mut(&mut self, f: FeatureId) -> &mut f64 {
        &mut self.0[f.index()]
    }
}

impl Index<usize> for FeatureVector {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for FeatureVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_by_id_and_usize_agree() {
        let mut v = FeatureVector::zeros();
        v[FeatureId::SfMean] = 0.7;
        assert_eq!(v[FeatureId::SfMean.index()], 0.7);
        v[0] = 0.3;
        assert_eq!(v[FeatureId::GrassRatio], 0.3);
    }

    #[test]
    fn from_slice_validates_length() {
        assert!(FeatureVector::from_slice(&[0.0; 20]).is_some());
        assert!(FeatureVector::from_slice(&[0.0; 19]).is_none());
        assert!(FeatureVector::from_slice(&[0.0; 21]).is_none());
    }

    #[test]
    fn iter_covers_all_features() {
        let v = FeatureVector::from_array(std::array::from_fn(|i| i as f64));
        let pairs: Vec<(FeatureId, f64)> = v.iter().collect();
        assert_eq!(pairs.len(), 20);
        assert_eq!(pairs[3], (FeatureId::BackgroundVar, 3.0));
    }

    #[test]
    fn mean_and_std_known_values() {
        let mut a = FeatureVector::zeros();
        let mut b = FeatureVector::zeros();
        a[FeatureId::VolumeMean] = 2.0;
        b[FeatureId::VolumeMean] = 4.0;
        let mean = FeatureVector::mean_of(&[a, b]);
        assert_eq!(mean[FeatureId::VolumeMean], 3.0);
        let std = FeatureVector::std_of(&[a, b]);
        assert_eq!(std[FeatureId::VolumeMean], 1.0);
        assert_eq!(std[FeatureId::GrassRatio], 0.0);
    }

    #[test]
    fn mean_std_degenerate_inputs() {
        assert_eq!(FeatureVector::mean_of(&[]), FeatureVector::zeros());
        let v = FeatureVector::from_array([1.0; 20]);
        assert_eq!(FeatureVector::std_of(&[v]), FeatureVector::zeros());
        assert_eq!(FeatureVector::mean_of(&[v]), v);
    }

    #[test]
    fn is_finite_detects_poison() {
        let mut v = FeatureVector::zeros();
        assert!(v.is_finite());
        v[FeatureId::SfStd] = f64::NAN;
        assert!(!v.is_finite());
    }

    #[test]
    fn serde_round_trip() {
        let v = FeatureVector::from_array(std::array::from_fn(|i| i as f64 * 0.1));
        let json = serde_json::to_string(&v).unwrap();
        let back: FeatureVector = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
