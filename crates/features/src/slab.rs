//! Feature-major (SoA) slab layout for a block of feature vectors.
//!
//! [`crate::FeatureVector`] is the array-of-structs source of truth: one
//! contiguous `[f64; FEATURE_COUNT]` per shot, which is the natural unit for
//! extraction, normalization, and serialization. The Eq.-14 similarity
//! kernel, however, walks *one feature across many shots*: for each
//! non-zero-centroid feature it reads `B_1(s, y)` for a whole block of
//! shots. In AoS layout those reads are strided by `FEATURE_COUNT`; the
//! [`FeatureSlab`] transposes a block so each feature's values sit in one
//! contiguous row and the kernel's inner loop becomes a unit-stride,
//! auto-vectorizable sweep.
//!
//! A slab holds one block at a time: [`FeatureSlab::fill`] re-transposes
//! the next block into the same buffer, so a kernel sweeping the archive a
//! few hundred shots at a time keeps the transpose in cache and never holds
//! a second copy of `B_1`.

use crate::vector::{FeatureVector, FEATURE_COUNT};

/// Feature-major transposed copy of a block of `B_1` rows: `FEATURE_COUNT`
/// rows of `shots` values each, stored contiguously (`data[y * shots + s]`).
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
/// let mut slab = FeatureSlab::default();
/// slab.fill(&rows);
/// assert_eq!(slab.shots(), 2);
/// assert_eq!(slab.feature_row(3), &[3.0, 30.0]);
/// slab.fill(&rows[1..]); // the next block reuses the buffer
/// assert_eq!(slab.feature_row(3), &[30.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureSlab {
    shots: usize,
    data: Vec<f64>,
}

impl FeatureSlab {
    /// Transposes `rows` (shot-major) into this slab, replacing the block it
    /// held and reusing its buffer. Every slot is overwritten, one feature
    /// row at a time, so the buffer is never cleared first.
    pub fn fill(&mut self, rows: &[FeatureVector]) {
        let shots = rows.len();
        self.shots = shots;
        self.data.resize(shots * FEATURE_COUNT, 0.0);
        for (y, row) in self.data.chunks_exact_mut(shots.max(1)).enumerate() {
            for (slot, v) in row.iter_mut().zip(rows) {
                *slot = v.as_slice()[y];
            }
        }
    }

    /// Number of shots in the block (columns of the transposed matrix).
    #[inline]
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// All values of feature `y`, one per shot of the block, contiguous.
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
        let mut slab = FeatureSlab::default();
        slab.fill(&rows());
        assert_eq!(slab.shots(), 3);
        assert_eq!(slab.feature_row(0), &[0.0, 100.0, 200.0]);
        assert_eq!(slab.feature_row(19), &[19.0, 119.0, 219.0]);
    }

    #[test]
    fn refill_replaces_the_block() {
        let mut slab = FeatureSlab::default();
        slab.fill(&rows());
        slab.fill(&rows()[2..]);
        assert_eq!(slab.shots(), 1);
        assert_eq!(slab.feature_row(0), &[200.0]);
        assert_eq!(slab.feature_row(19), &[219.0]);
    }
}
