//! Error type for matrix construction and validation.

use std::fmt;

/// Errors raised by matrix constructors and invariant validators.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// The supplied data length does not equal `rows * cols`.
    ShapeMismatch {
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
        /// Actual number of elements supplied.
        len: usize,
    },
    /// Two matrices (or a matrix and a vector) have incompatible dimensions
    /// for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Left-hand shape, `(rows, cols)`.
        lhs: (usize, usize),
        /// Right-hand shape, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A row of a would-be stochastic matrix does not sum to one.
    RowNotStochastic {
        /// Index of the offending row.
        row: usize,
        /// The actual row sum.
        sum: f64,
    },
    /// A probability entry is negative or not finite.
    InvalidProbability {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The requested index, `(row, col)`.
        index: (usize, usize),
        /// The matrix shape, `(rows, cols)`.
        shape: (usize, usize),
    },
    /// Normalization was requested on a row whose entries sum to zero and no
    /// fallback policy was selected.
    ZeroRow {
        /// Index of the all-zero row.
        row: usize,
    },
    /// The matrix is empty (zero rows or zero columns) where a non-empty one
    /// is required.
    Empty,
    /// A sparse matrix's index arrays do not describe a valid layout: row
    /// offsets that decrease or do not end at the entry count, or columns
    /// out of order or outside the forward range.
    MalformedSparse {
        /// The first offending row.
        row: usize,
        /// What is wrong with it.
        problem: &'static str,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::ShapeMismatch { rows, cols, len } => write!(
                f,
                "data length {len} does not match declared shape {rows}x{cols}"
            ),
            MatrixError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MatrixError::RowNotStochastic { row, sum } => {
                write!(f, "row {row} sums to {sum}, expected 1")
            }
            MatrixError::InvalidProbability { row, col, value } => {
                write!(f, "invalid probability {value} at ({row}, {col})")
            }
            MatrixError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            MatrixError::ZeroRow { row } => {
                write!(f, "row {row} sums to zero and cannot be normalized")
            }
            MatrixError::Empty => write!(f, "matrix must be non-empty"),
            MatrixError::MalformedSparse { row, problem } => {
                write!(f, "malformed sparse row {row}: {problem}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MatrixError::ShapeMismatch {
            rows: 2,
            cols: 3,
            len: 5,
        };
        assert!(e.to_string().contains("2x3"));
        let e = MatrixError::RowNotStochastic { row: 7, sum: 0.5 };
        assert!(e.to_string().contains("row 7"));
        let e = MatrixError::ZeroRow { row: 1 };
        assert!(e.to_string().contains("zero"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<MatrixError>();
    }
}
