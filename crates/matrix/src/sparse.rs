//! CSR storage of a *forward* (upper-triangular) transition matrix: the
//! temporal `A_1` of every local MMM.
//!
//! A shot only transitions to itself or a later shot (§4.2.1.1), and the
//! closed-form initialization links each shot only to the annotated shots
//! after it, so on realistic archives most forward cells are zero: a shot
//! typically links to a handful of successors. [`ForwardCsr`] stores, per
//! row, the column indices and values of the non-zero forward entries
//! (`col >= row`, `value > 0`) in ascending column order, and nothing else.
//! It is the only representation of `A_1`; there is no dense copy.
//!
//! Ascending order matters twice. The traversal's `max_gap` early-`break`
//! stays valid, and every fold over a row visits its stored entries in the
//! order a dense row-major scan would, minus the zeros. A zero adds nothing
//! to a non-negative sum and never raises a maximum, so the row sums, row
//! maxima, Eq.-(2) normalization and Frobenius distances computed here are
//! bitwise equal to their dense-matrix counterparts.

use crate::{MatrixError, STOCHASTIC_TOLERANCE};
use serde::{DeError, Deserialize, Serialize, Value};

/// Sparse (CSR) square matrix whose stored entries all sit on or above the
/// diagonal.
///
/// Built by the Eq.-(2) row normalization [`ForwardCsr::from_counts`], or
/// read back from its persisted form, whose deserializer checks the index
/// structure (monotone row offsets ending at the entry count, ascending
/// in-range forward columns, finite positive values). Row-stochasticity of
/// a deserialized matrix is the model audit's job.
///
/// # Examples
///
/// ```
/// use hmmm_matrix::ForwardCsr;
///
/// // Row 0 links to columns 0 and 2 with counts 1 and 3; row 1 has no
/// // mass and becomes a self-loop; row 2 is already stochastic.
/// let csr = ForwardCsr::from_counts(vec![0, 2, 2, 3], vec![0, 2, 2], vec![1.0, 3.0, 1.0])
///     .unwrap();
/// let (cols, vals) = csr.row(0);
/// assert_eq!(cols, &[0, 2]);
/// assert_eq!(vals, &[0.25, 0.75]);
/// assert_eq!(csr.get(1, 1), 1.0);
/// assert_eq!(csr.get(1, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ForwardCsr {
    /// `row_start[r]..row_start[r + 1]` indexes row `r`'s entries; length is
    /// `rows + 1`.
    row_start: Vec<u32>,
    /// Column index of each stored entry, ascending within a row. Always
    /// `>=` its row index (forward support only).
    cols: Vec<u32>,
    /// Value of each stored entry; always `> 0`.
    vals: Vec<f64>,
}

impl ForwardCsr {
    /// The paper's Eq. (2) row normalization over forward count rows laid
    /// out as CSR (`counts[k]` belongs at column `cols[k]` of the row whose
    /// `row_start` range holds `k`).
    ///
    /// A row whose counts sum above zero is scaled by `1 / sum`, the sum
    /// taken over its entries in column order. A row without mass becomes
    /// absorbing: the diagonal is set to one (and stored if it was not).
    /// Zeros are then dropped. This is exactly
    /// `Matrix::normalize_rows(ZeroRowPolicy::SelfLoop)` on the dense
    /// matrix, bit for bit, followed by the `StochasticMatrix` validation.
    ///
    /// # Errors
    ///
    /// * [`MatrixError::MalformedSparse`] if the index arrays are not a
    ///   valid forward CSR layout.
    /// * [`MatrixError::Empty`] for zero rows.
    /// * [`MatrixError::InvalidProbability`] for a negative or non-finite
    ///   normalized entry.
    /// * [`MatrixError::RowNotStochastic`] if a normalized row does not sum
    ///   to one within [`STOCHASTIC_TOLERANCE`].
    pub fn from_counts(
        row_start: Vec<u32>,
        cols: Vec<u32>,
        counts: Vec<f64>,
    ) -> Result<Self, MatrixError> {
        check_structure(&row_start, &cols, counts.len())?;
        let n = row_start.len() - 1;
        if n == 0 {
            return Err(MatrixError::Empty);
        }
        let mut out = ForwardCsr {
            row_start: Vec::with_capacity(n + 1),
            cols: Vec::with_capacity(cols.len()),
            vals: Vec::with_capacity(counts.len()),
        };
        out.row_start.push(0);
        for r in 0..n {
            let range = row_start[r] as usize..row_start[r + 1] as usize;
            let (row_cols, row_counts) = (&cols[range.clone()], &counts[range]);
            let sum: f64 = row_counts.iter().sum();
            if sum > 0.0 {
                let inv = 1.0 / sum;
                for (&c, &x) in row_cols.iter().zip(row_counts) {
                    out.push_entry(r, c, x * inv)?;
                }
            } else {
                // Ascending forward columns: a stored diagonal comes first.
                if row_cols.first() != Some(&(r as u32)) {
                    out.push_entry(r, r as u32, 1.0)?;
                }
                for (&c, &x) in row_cols.iter().zip(row_counts) {
                    out.push_entry(r, c, if c as usize == r { 1.0 } else { x })?;
                }
            }
            let total: f64 = out.vals[out.row_start[r] as usize..].iter().sum();
            if (total - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(MatrixError::RowNotStochastic { row: r, sum: total });
            }
            out.row_start.push(out.cols.len() as u32);
        }
        Ok(out)
    }

    /// [`ForwardCsr::from_counts`] over this matrix's own support:
    /// `counts[k]` is the new count of the `k`-th stored entry (row-major,
    /// the order of [`ForwardCsr::values`]).
    ///
    /// # Errors
    ///
    /// As [`ForwardCsr::from_counts`].
    pub fn renormalized(&self, counts: Vec<f64>) -> Result<Self, MatrixError> {
        ForwardCsr::from_counts(self.row_start.clone(), self.cols.clone(), counts)
    }

    /// Stores one normalized entry of row `r`, validating it as a
    /// probability and dropping zeros.
    fn push_entry(&mut self, r: usize, c: u32, p: f64) -> Result<(), MatrixError> {
        if !p.is_finite() || p < 0.0 {
            return Err(MatrixError::InvalidProbability {
                row: r,
                col: c as usize,
                value: p,
            });
        }
        if p > 0.0 {
            self.cols.push(c);
            self.vals.push(p);
        }
        Ok(())
    }

    /// Number of rows (and columns: the matrix is square).
    #[inline]
    pub fn rows(&self) -> usize {
        self.row_start.len().saturating_sub(1)
    }

    /// Total number of stored (non-zero forward) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The non-zero forward entries of row `r` as parallel
    /// `(columns, values)` slices, columns ascending.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_start[r] as usize;
        let hi = self.row_start[r + 1] as usize;
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Every stored value, row-major.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Index of entry `(r, c)` in [`ForwardCsr::values`], or `None` when
    /// the entry is zero (not stored). A binary search over row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn position(&self, r: usize, c: usize) -> Option<usize> {
        let (cols, _) = self.row(r);
        let c = u32::try_from(c).ok()?;
        cols.binary_search(&c)
            .ok()
            .map(|k| self.row_start[r] as usize + k)
    }

    /// Entry `(r, c)`: its stored value, or `0.0` when it is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.position(r, c).map_or(0.0, |k| self.vals[k])
    }

    /// Per-row maximum over the stored entries (`fold(0.0, f64::max)`; a row
    /// maximum over the dense row would differ only by folding in zeros,
    /// which change nothing). Writes into `out` (one slot per row) without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`ForwardCsr::rows`].
    pub fn row_maxima_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows(), "row maxima buffer size mismatch");
        for (r, slot) in out.iter_mut().enumerate() {
            let (_, vals) = self.row(r);
            *slot = vals.iter().copied().fold(0.0, f64::max);
        }
    }

    /// Frobenius (element-wise L2) distance to `other`, merging the two
    /// supports row by row in column order. A cell neither matrix stores
    /// contributes `0²`, which changes nothing, so the result equals the
    /// dense `Matrix::frobenius_distance` bit for bit.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] when the row counts differ.
    pub fn frobenius_distance(&self, other: &ForwardCsr) -> Result<f64, MatrixError> {
        if self.rows() != other.rows() {
            return Err(MatrixError::DimensionMismatch {
                op: "frobenius_distance",
                lhs: (self.rows(), self.rows()),
                rhs: (other.rows(), other.rows()),
            });
        }
        let mut acc = 0.0;
        for r in 0..self.rows() {
            let (ac, av) = self.row(r);
            let (bc, bv) = other.row(r);
            let (mut i, mut j) = (0usize, 0usize);
            while i < ac.len() || j < bc.len() {
                let col = |cols: &[u32], k: usize| cols.get(k).copied().unwrap_or(u32::MAX);
                let c = col(ac, i).min(col(bc, j));
                // `0 + a - b`: bitwise the dense `a - b`, with 0 for the
                // side that does not store column `c`.
                let mut d = 0.0;
                if col(ac, i) == c {
                    d += av[i];
                    i += 1;
                }
                if col(bc, j) == c {
                    d -= bv[j];
                    j += 1;
                }
                acc += d * d;
            }
        }
        Ok(acc.sqrt())
    }
}

/// Checks that `row_start`/`cols` describe a square forward CSR layout with
/// `entries` stored values: offsets start at zero, never decrease and end
/// at the entry count; columns ascend strictly within a row and lie in
/// `[row, rows)`.
fn check_structure(row_start: &[u32], cols: &[u32], entries: usize) -> Result<(), MatrixError> {
    let malformed =
        |row: usize, problem: &'static str| MatrixError::MalformedSparse { row, problem };
    let Some((&first, _)) = row_start.split_first() else {
        return Err(malformed(0, "no row offsets"));
    };
    let n = row_start.len() - 1;
    if first != 0 {
        return Err(malformed(0, "row offsets do not start at 0"));
    }
    if u32::try_from(n).is_err() {
        return Err(malformed(n, "too many rows for u32 indices"));
    }
    if cols.len() != entries {
        return Err(malformed(n, "column and value counts differ"));
    }
    if row_start[n] as usize != entries {
        return Err(malformed(n, "row offsets do not end at the entry count"));
    }
    if let Some(r) = row_start.windows(2).position(|w| w[1] < w[0]) {
        return Err(malformed(r, "row offsets decrease"));
    }
    // Monotone offsets from 0 to `entries`: every row range is in bounds.
    for r in 0..n {
        let row_cols = &cols[row_start[r] as usize..row_start[r + 1] as usize];
        if row_cols.windows(2).any(|w| w[1] <= w[0]) {
            return Err(malformed(r, "columns do not ascend"));
        }
        if let (Some(&c0), Some(&cn)) = (row_cols.first(), row_cols.last()) {
            if (c0 as usize) < r || cn as usize >= n {
                return Err(malformed(r, "column outside the forward range [row, rows)"));
            }
        }
    }
    Ok(())
}

/// The persisted fields of a [`ForwardCsr`], before their structure is
/// checked.
#[derive(Deserialize)]
struct ForwardCsrFields {
    row_start: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Deserialize for ForwardCsr {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let ForwardCsrFields {
            row_start,
            cols,
            vals,
        } = ForwardCsrFields::from_value(v)?;
        check_structure(&row_start, &cols, vals.len())
            .map_err(|e| DeError::new(format!("ForwardCsr: {e}")))?;
        if let Some(x) = vals.iter().find(|&&x| !(x.is_finite() && x > 0.0)) {
            return Err(DeError::new(format!(
                "ForwardCsr: stored value {x} is not finite and positive"
            )));
        }
        Ok(ForwardCsr {
            row_start,
            cols,
            vals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{Matrix, ZeroRowPolicy};

    /// Forward counts over four rows as CSR, and the same counts dense.
    /// Row 1 has no mass and no stored diagonal, so normalization must
    /// give it one.
    fn counts() -> (Vec<u32>, Vec<u32>, Vec<f64>, Matrix) {
        let dense = Matrix::from_rows(&[
            vec![0.5, 0.25, 0.0, 0.25],
            vec![0.0; 4],
            vec![0.0, 0.0, 0.125, 0.375],
            vec![0.0, 0.0, 0.0, 2.0],
        ])
        .unwrap();
        let csr = (vec![0, 3, 3, 5, 6], vec![0, 1, 3, 2, 3, 3]);
        (
            csr.0,
            csr.1,
            vec![0.5, 0.25, 0.25, 0.125, 0.375, 2.0],
            dense,
        )
    }

    fn csr() -> ForwardCsr {
        let (row_start, cols, counts, _) = counts();
        ForwardCsr::from_counts(row_start, cols, counts).unwrap()
    }

    #[test]
    fn from_counts_equals_dense_normalization_bitwise() {
        let (_, _, _, mut dense) = counts();
        dense.normalize_rows(ZeroRowPolicy::SelfLoop).unwrap();
        let csr = csr();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(
                    csr.get(r, c).to_bits(),
                    dense[(r, c)].to_bits(),
                    "({r}, {c})"
                );
            }
        }
        // The massless row gained its diagonal; absent entries read 0.
        assert_eq!(csr.row(1), (&[1u32][..], &[1.0][..]));
        assert_eq!(csr.nnz(), 7);
        assert_eq!(csr.position(0, 3), Some(2));
        assert_eq!(csr.values()[2], csr.get(0, 3));
        assert_eq!((csr.position(0, 2), csr.get(3, 0)), (None, 0.0));
        let mut maxima = vec![0.0; 4];
        csr.row_maxima_into(&mut maxima);
        assert_eq!(maxima, vec![0.5, 1.0, 0.75, 1.0]);
    }

    #[test]
    fn from_counts_drops_zeros_and_rejects_bad_input() {
        let csr =
            ForwardCsr::from_counts(vec![0, 2, 3], vec![0, 1, 1], vec![0.0, 4.0, 1.0]).unwrap();
        assert_eq!(csr.row(0), (&[1u32][..], &[1.0][..]));
        assert!(matches!(
            ForwardCsr::from_counts(vec![0, 2, 3], vec![0, 1, 1], vec![2.0, -1.0, 1.0]),
            Err(MatrixError::InvalidProbability { row: 0, col: 1, .. })
        ));
        assert!(matches!(
            ForwardCsr::from_counts(vec![0], vec![], vec![]),
            Err(MatrixError::Empty)
        ));
        assert!(matches!(
            ForwardCsr::from_counts(vec![0, 1, 1], vec![2], vec![1.0]),
            Err(MatrixError::MalformedSparse { row: 0, .. })
        ));
    }

    #[test]
    fn frobenius_distance_equals_dense_bitwise() {
        let a = csr();
        let bumped = a
            .values()
            .iter()
            .enumerate()
            .map(|(k, &x)| x + k as f64)
            .collect();
        let b = a.renormalized(bumped).unwrap();
        let dense =
            |m: &ForwardCsr| Matrix::from_vec(4, 4, (0..16).map(|k| m.get(k / 4, k % 4)).collect());
        let want = dense(&a)
            .unwrap()
            .frobenius_distance(&dense(&b).unwrap())
            .unwrap();
        assert_eq!(a.frobenius_distance(&b).unwrap().to_bits(), want.to_bits());
        assert_eq!(b.frobenius_distance(&a).unwrap().to_bits(), want.to_bits());
        let small = ForwardCsr::from_counts(vec![0, 1], vec![0], vec![1.0]).unwrap();
        assert!(a.frobenius_distance(&small).is_err());
    }

    #[test]
    fn serde_round_trip_checks_the_structure() {
        let csr = csr();
        let json = serde_json::to_string(&csr).unwrap();
        assert_eq!(serde_json::from_str::<ForwardCsr>(&json).unwrap(), csr);
        for json in [
            r#"{"row_start":[0,3],"cols":[0],"vals":[1.0]}"#, // offsets past the entries
            r#"{"row_start":[1,1],"cols":[0],"vals":[1.0]}"#, // offsets not from 0
            r#"{"row_start":[],"cols":[],"vals":[]}"#,
            r#"{"row_start":[0,2,1],"cols":[0,1],"vals":[0.5,0.5]}"#, // decreasing
            r#"{"row_start":[0,3,1],"cols":[0],"vals":[1.0]}"#,       // mid offset past the entries
            r#"{"row_start":[0,2,2],"cols":[1,0],"vals":[0.5,0.5]}"#, // descending cols
            r#"{"row_start":[0,0,1],"cols":[0],"vals":[1.0]}"#,       // below the diagonal
            r#"{"row_start":[0,1,1],"cols":[5],"vals":[1.0]}"#,       // past the last row
            r#"{"row_start":[0,1],"cols":[0],"vals":[0.0]}"#,
            r#"{"row_start":[0,1],"cols":[0],"vals":[-1.0]}"#,
            r#"{"row_start":[0,1],"cols":[0],"vals":[null]}"#,
            r#"{"row_start":[0,1],"cols":[0,0],"vals":[1.0]}"#,
        ] {
            assert!(serde_json::from_str::<ForwardCsr>(json).is_err(), "{json}");
        }
    }
}
