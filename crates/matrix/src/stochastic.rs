//! Row-stochastic matrices, checked on construction (the `A_n` and
//! `P_{n,n+1}` families).

use crate::dense::{Matrix, ZeroRowPolicy};
use crate::{MatrixError, STOCHASTIC_TOLERANCE};
use serde::{DeError, Deserialize, Serialize, Value};

/// A square or rectangular matrix whose every row sums to one.
///
/// This newtype is the *only* way the HMMM core obtains transition matrices
/// (`A_1`, `A_2`) and feature-importance matrices (`P_{1,2}`): the invariant
/// is checked at construction, so downstream traversal code can multiply
/// probabilities without re-validating.
///
/// # Examples
///
/// ```
/// use hmmm_matrix::{Matrix, StochasticMatrix};
/// use hmmm_matrix::dense::ZeroRowPolicy;
///
/// let raw = Matrix::from_rows(&[vec![2.0, 2.0], vec![0.0, 1.0]]).unwrap();
/// let a = StochasticMatrix::normalize(raw, ZeroRowPolicy::Uniform).unwrap();
/// assert_eq!(a.get(0, 1), 0.5);
/// assert_eq!(a.row(1), &[0.0, 1.0]);
/// ```
///
/// It serializes as the wrapped [`Matrix`], borrowed, and deserializing
/// validates the matrix like [`StochasticMatrix::new`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StochasticMatrix(Matrix);

impl StochasticMatrix {
    /// Validates `m` as row-stochastic.
    ///
    /// # Errors
    ///
    /// * [`MatrixError::Empty`] for an empty matrix.
    /// * [`MatrixError::InvalidProbability`] for negative / non-finite entries.
    /// * [`MatrixError::RowNotStochastic`] if any row sum deviates from one
    ///   by more than [`STOCHASTIC_TOLERANCE`].
    pub fn new(m: Matrix) -> Result<Self, MatrixError> {
        if m.is_empty() {
            return Err(MatrixError::Empty);
        }
        for i in 0..m.rows() {
            let mut sum = 0.0;
            for (j, &v) in m.row(i).iter().enumerate() {
                if !v.is_finite() || v < 0.0 {
                    return Err(MatrixError::InvalidProbability {
                        row: i,
                        col: j,
                        value: v,
                    });
                }
                sum += v;
            }
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(MatrixError::RowNotStochastic { row: i, sum });
            }
        }
        Ok(StochasticMatrix(m))
    }

    /// Row-normalizes `m` (per the given zero-row policy) and validates.
    ///
    /// This is the paper's Eq. (2)/(6) step: turning an affinity count matrix
    /// `AF` into a *relative* affinity matrix `A`.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::normalize_rows`] failures; additionally fails
    /// validation if the policy left all-zero rows
    /// ([`ZeroRowPolicy::LeaveZero`] yields sub-stochastic rows, which are
    /// rejected here — choose `Uniform` or `SelfLoop` instead).
    pub fn normalize(mut m: Matrix, policy: ZeroRowPolicy) -> Result<Self, MatrixError> {
        m.normalize_rows(policy)?;
        Self::new(m)
    }

    /// Uniform stochastic matrix of the given shape (the paper's Eq. 7
    /// initialization of `P_{1,2}`: every feature weighted `1/K`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Empty`] if either dimension is zero.
    pub fn uniform(rows: usize, cols: usize) -> Result<Self, MatrixError> {
        if rows == 0 || cols == 0 {
            return Err(MatrixError::Empty);
        }
        Ok(StochasticMatrix(Matrix::filled(
            rows,
            cols,
            1.0 / cols as f64,
        )))
    }

    /// Identity transition matrix (each state loops to itself).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Empty`] when `n == 0`.
    pub fn identity(n: usize) -> Result<Self, MatrixError> {
        if n == 0 {
            return Err(MatrixError::Empty);
        }
        Ok(StochasticMatrix(Matrix::identity(n)))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.0.rows()
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.0.cols()
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds (debug) — use for validated indices only.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.0[(row, col)]
    }

    /// Row view.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        self.0.row(row)
    }

    /// Borrow the underlying dense matrix.
    #[inline]
    pub fn as_matrix(&self) -> &Matrix {
        &self.0
    }
}

impl TryFrom<Matrix> for StochasticMatrix {
    type Error = MatrixError;

    fn try_from(m: Matrix) -> Result<Self, MatrixError> {
        StochasticMatrix::new(m)
    }
}

impl From<StochasticMatrix> for Matrix {
    fn from(s: StochasticMatrix) -> Matrix {
        s.0
    }
}

impl Deserialize for StochasticMatrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        StochasticMatrix::new(Matrix::from_value(v)?)
            .map_err(|e| DeError::new(format!("StochasticMatrix: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid_rows() {
        let m = Matrix::from_rows(&[vec![0.25, 0.75], vec![1.0, 0.0]]).unwrap();
        assert!(StochasticMatrix::new(m).is_ok());
    }

    #[test]
    fn new_rejects_bad_rows() {
        let m = Matrix::from_rows(&[vec![0.5, 0.4]]).unwrap();
        assert!(matches!(
            StochasticMatrix::new(m),
            Err(MatrixError::RowNotStochastic { row: 0, .. })
        ));
        let m = Matrix::from_rows(&[vec![1.5, -0.5]]).unwrap();
        assert!(matches!(
            StochasticMatrix::new(m),
            Err(MatrixError::InvalidProbability { .. })
        ));
        assert!(matches!(
            StochasticMatrix::new(Matrix::zeros(0, 0)),
            Err(MatrixError::Empty)
        ));
    }

    #[test]
    fn normalize_turns_counts_into_probabilities() {
        let m = Matrix::from_rows(&[vec![3.0, 1.0], vec![0.0, 0.0]]).unwrap();
        let s = StochasticMatrix::normalize(m, ZeroRowPolicy::SelfLoop).unwrap();
        assert_eq!(s.row(0), &[0.75, 0.25]);
        assert_eq!(s.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn normalize_leavezero_fails_validation() {
        let m = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        assert!(StochasticMatrix::normalize(m, ZeroRowPolicy::LeaveZero).is_err());
    }

    #[test]
    fn uniform_rows() {
        let s = StochasticMatrix::uniform(2, 4).unwrap();
        assert_eq!(s.get(1, 3), 0.25);
        assert!(StochasticMatrix::uniform(0, 4).is_err());
    }

    #[test]
    fn serde_round_trip_preserves_validation() {
        let s = StochasticMatrix::uniform(2, 2).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: StochasticMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        // Tampered payload must fail to deserialize.
        let bad = json.replace("0.5", "0.9");
        assert!(serde_json::from_str::<StochasticMatrix>(&bad).is_err());
    }
}
