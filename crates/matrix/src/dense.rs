//! Row-major dense `f64` matrix.

use crate::MatrixError;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix of `f64`.
///
/// This is the workhorse type behind every HMMM matrix (`A`, `B`, `P`, `L`,
/// `AF`). It deliberately offers only the operations the model needs —
/// element access, row views, row-wise reductions and maps — rather than a
/// general linear-algebra surface.
///
/// # Examples
///
/// ```
/// use hmmm_matrix::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// assert_eq!(m.row_sum(1), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MatrixError> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(MatrixError::ShapeMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Empty`] for an empty row list and
    /// [`MatrixError::ShapeMismatch`] if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MatrixError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(MatrixError::Empty);
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(MatrixError::ShapeMismatch {
                    rows: nrows,
                    cols: ncols,
                    len: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Checked element access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Checked element mutation.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] when out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) -> Result<(), MatrixError> {
        if row < self.rows && col < self.cols {
            self.data[row * self.cols + col] = value;
            Ok(())
        } else {
            Err(MatrixError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.rows, self.cols),
            })
        }
    }

    /// Immutable view of a row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        let start = row * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable view of a row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        let start = row * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Sum of a row.
    #[inline]
    pub fn row_sum(&self, row: usize) -> f64 {
        self.row(row).iter().sum()
    }

    /// Element-wise addition of `other` scaled by `alpha` (`self += alpha * other`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<(), MatrixError> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Normalizes every row to sum to one.
    ///
    /// Rows summing to zero are handled per `zero_row_policy`:
    /// the row is left all-zero ([`ZeroRowPolicy::LeaveZero`]), replaced by a
    /// uniform distribution ([`ZeroRowPolicy::Uniform`]), or given probability
    /// one on the diagonal ([`ZeroRowPolicy::SelfLoop`] — only valid for
    /// square matrices).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ZeroRow`] under [`ZeroRowPolicy::Error`], and
    /// [`MatrixError::DimensionMismatch`] for `SelfLoop` on a non-square
    /// matrix.
    pub fn normalize_rows(&mut self, zero_row_policy: ZeroRowPolicy) -> Result<(), MatrixError> {
        if matches!(zero_row_policy, ZeroRowPolicy::SelfLoop) && self.rows != self.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "normalize_rows(SelfLoop)",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        for i in 0..self.rows {
            let sum = self.row_sum(i);
            if sum > 0.0 {
                let inv = 1.0 / sum;
                for v in self.row_mut(i) {
                    *v *= inv;
                }
            } else {
                match zero_row_policy {
                    ZeroRowPolicy::LeaveZero => {}
                    ZeroRowPolicy::Uniform => {
                        let u = 1.0 / self.cols as f64;
                        for v in self.row_mut(i) {
                            *v = u;
                        }
                    }
                    ZeroRowPolicy::SelfLoop => {
                        self.data[i * self.cols + i] = 1.0;
                    }
                    ZeroRowPolicy::Error => return Err(MatrixError::ZeroRow { row: i }),
                }
            }
        }
        Ok(())
    }

    /// Frobenius (element-wise L2) distance between two equally shaped
    /// matrices. Useful for measuring model drift across feedback rounds.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when shapes differ.
    pub fn frobenius_distance(&self, other: &Matrix) -> Result<f64, MatrixError> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "frobenius_distance",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut acc = 0.0;
        for (a, b) in self.data.iter().zip(other.data.iter()) {
            let d = a - b;
            acc += d * d;
        }
        Ok(acc.sqrt())
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// The persisted fields of a [`Matrix`], before their shape is checked.
#[derive(Deserialize)]
struct MatrixFields {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Deserialize for Matrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let MatrixFields { rows, cols, data } = MatrixFields::from_value(v)?;
        Matrix::from_vec(rows, cols, data).map_err(|e| DeError::new(format!("Matrix: {e}")))
    }
}

/// What [`Matrix::normalize_rows`] should do with an all-zero row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZeroRowPolicy {
    /// Leave the row all-zero (the resulting matrix is only *sub*-stochastic).
    LeaveZero,
    /// Replace the row with the uniform distribution.
    Uniform,
    /// Put all mass on the diagonal entry (absorbing state). Square only.
    SelfLoop,
    /// Fail with [`MatrixError::ZeroRow`].
    Error,
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        debug_assert!(row < self.rows && col < self.cols);
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        debug_assert!(row < self.rows && col < self.cols);
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.row_sum(2), 0.0);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            MatrixError::ShapeMismatch {
                rows: 2,
                cols: 2,
                len: 3
            }
        );
    }

    #[test]
    fn from_rows_ragged_rejected() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, MatrixError::ShapeMismatch { .. }));
        assert!(matches!(Matrix::from_rows(&[]), Err(MatrixError::Empty)));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn indexing_and_set() {
        let mut m = Matrix::zeros(2, 3);
        m[(0, 1)] = 5.0;
        assert_eq!(m.get(0, 1), Some(5.0));
        assert_eq!(m.get(2, 0), None);
        assert!(m.set(1, 2, 7.0).is_ok());
        assert_eq!(m[(1, 2)], 7.0);
        assert!(matches!(
            m.set(5, 5, 1.0),
            Err(MatrixError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn row_views_and_sums() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.row_sum(0), 6.0);
    }

    #[test]
    fn normalize_rows_basic() {
        let mut m = Matrix::from_rows(&[vec![2.0, 2.0], vec![1.0, 3.0]]).unwrap();
        m.normalize_rows(ZeroRowPolicy::Error).unwrap();
        assert_eq!(m.row(0), &[0.5, 0.5]);
        assert_eq!(m.row(1), &[0.25, 0.75]);
    }

    #[test]
    fn normalize_rows_zero_row_policies() {
        let mk = || Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();

        let mut m = mk();
        assert!(matches!(
            m.normalize_rows(ZeroRowPolicy::Error),
            Err(MatrixError::ZeroRow { row: 0 })
        ));

        let mut m = mk();
        m.normalize_rows(ZeroRowPolicy::LeaveZero).unwrap();
        assert_eq!(m.row(0), &[0.0, 0.0]);

        let mut m = mk();
        m.normalize_rows(ZeroRowPolicy::Uniform).unwrap();
        assert_eq!(m.row(0), &[0.5, 0.5]);

        let mut m = mk();
        m.normalize_rows(ZeroRowPolicy::SelfLoop).unwrap();
        assert_eq!(m.row(0), &[1.0, 0.0]);
    }

    #[test]
    fn selfloop_requires_square() {
        let mut m = Matrix::zeros(2, 3);
        assert!(matches!(
            m.normalize_rows(ZeroRowPolicy::SelfLoop),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a[(0, 0)], 2.0);
        a.scale(2.0);
        assert_eq!(a[(1, 1)], 4.0);
        let c = Matrix::zeros(3, 2);
        assert!(a.axpy(1.0, &c).is_err());
    }

    #[test]
    fn frobenius_distance_known_value() {
        let a = Matrix::filled(2, 2, 0.0);
        let b = Matrix::filled(2, 2, 1.0);
        let d = a.frobenius_distance(&b).unwrap();
        assert!((d - 2.0).abs() < 1e-12);
        assert!(a.frobenius_distance(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn display_renders_rows() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.starts_with("1.0000 0.0000"));
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows(&[vec![1.5, -2.0], vec![0.0, 3.25]]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn deserializer_checks_the_shape() {
        for json in [
            r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#,
            r#"{"rows":1,"cols":2,"data":[1.0,2.0,3.0]}"#,
            r#"{"rows":4294967296,"cols":4294967296,"data":[]}"#,
        ] {
            assert!(serde_json::from_str::<Matrix>(json).is_err(), "{json}");
        }
        let err = Matrix::from_vec(usize::MAX, 2, vec![]).unwrap_err();
        assert!(matches!(err, MatrixError::ShapeMismatch { .. }));
    }
}
