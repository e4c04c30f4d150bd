//! Feature-major (SoA) slab layout for a block of feature vectors.
//!
//! [`crate::FeatureVector`] is the array-of-structs source of truth: one
//! contiguous `[f64; FEATURE_COUNT]` per shot, which is the natural unit for
//! extraction, normalization, and serialization. The Eq.-14 similarity
//! kernel, however, walks *one feature across many shots*: for each
//! non-zero-centroid feature it reads `B_1(s, y)` for a whole block of
//! shots. In AoS layout those reads are strided by `FEATURE_COUNT`; the
//! [`FeatureSlab`] transposes the matrix so each feature's values sit in one
//! contiguous row and the kernel's inner loop becomes a unit-stride,
//! auto-vectorizable sweep.
//!
//! The slab is a derived cache, never persisted and never mutated on its
//! own: the model builds it from `B_1` once, when the model is built or
//! loaded, and `B_1` does not change after that.

use crate::vector::{FeatureVector, FEATURE_COUNT};

/// Feature-major transposed copy of a `B_1` block: `FEATURE_COUNT` rows of
/// `shots` values each, stored contiguously (`data[y * shots + s]`).
///
/// # Examples
///
/// ```
/// use hmmm_features::{FeatureSlab, FeatureVector, FEATURE_COUNT};
///
/// let rows = vec![
///     FeatureVector::from_array(std::array::from_fn(|y| y as f64)),
///     FeatureVector::from_array(std::array::from_fn(|y| y as f64 * 10.0)),
/// ];
/// let slab = FeatureSlab::from_rows(&rows);
/// assert_eq!(slab.shots(), 2);
/// assert_eq!(slab.feature_row(3), &[3.0, 30.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSlab {
    shots: usize,
    data: Vec<f64>,
}

impl FeatureSlab {
    /// Transposes `rows` (shot-major) into the feature-major slab.
    pub fn from_rows(rows: &[FeatureVector]) -> Self {
        let shots = rows.len();
        let mut data = vec![0.0; shots * FEATURE_COUNT];
        for (s, v) in rows.iter().enumerate() {
            for (y, &x) in v.as_slice().iter().enumerate() {
                data[y * shots + s] = x;
            }
        }
        FeatureSlab { shots, data }
    }

    /// Number of shots (columns of the transposed matrix).
    #[inline]
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// All values of feature `y`, one per shot, contiguous.
    ///
    /// # Panics
    ///
    /// Panics if `y >= FEATURE_COUNT`.
    #[inline]
    pub fn feature_row(&self, y: usize) -> &[f64] {
        assert!(y < FEATURE_COUNT, "feature index out of range");
        &self.data[y * self.shots..(y + 1) * self.shots]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<FeatureVector> {
        (0..3)
            .map(|s| FeatureVector::from_array(std::array::from_fn(|y| (s * 100 + y) as f64)))
            .collect()
    }

    #[test]
    fn transpose_layout_is_feature_major() {
        let slab = FeatureSlab::from_rows(&rows());
        assert_eq!(slab.shots(), 3);
        assert_eq!(slab.feature_row(0), &[0.0, 100.0, 200.0]);
        assert_eq!(slab.feature_row(19), &[19.0, 119.0, 219.0]);
    }
}
