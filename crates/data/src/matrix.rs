//! Dense row-major matrix used across the workspace.
//!
//! The reproduction deliberately avoids a heavyweight linear-algebra
//! dependency: every consumer (feature extraction, tree ensembles, linear
//! models, the MLP) only needs contiguous row access, column iteration and a
//! handful of BLAS-1/2 style kernels, all of which are easy to keep
//! cache-friendly on a flat `Vec<f64>`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f64`.
///
/// Rows are samples and columns are features everywhere in this workspace.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} expected {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Number of rows (samples).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Iterator over rows.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies column `c` into a freshly allocated vector.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns a new matrix containing only the rows listed in `idx`
    /// (in that order; duplicates allowed, enabling bootstrap resampling).
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (dst, &src) in idx.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Returns a new matrix containing only the columns listed in `idx`.
    pub fn select_cols(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, idx.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (j, &c) in idx.iter().enumerate() {
                dst[j] = src[c];
            }
        }
        out
    }

    /// Returns the cells at rows `rows` and columns `cols` (both in the
    /// given order): `select_rows` then `select_cols` in one copy.
    pub fn gather(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * cols.len());
        for &r in rows {
            let src = self.row(r);
            data.extend(cols.iter().map(|&c| src[c]));
        }
        Matrix { rows: rows.len(), cols: cols.len(), data }
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics when the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Appends a single row.
    ///
    /// # Panics
    /// Panics when `row.len() != cols` (unless the matrix is still 0x0).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        self.rows_iter().map(|row| dot(row, v)).collect()
    }

    /// Dense matrix product `self * rhs`.
    ///
    /// Straightforward ikj-ordered kernel; fast enough for the MLP /
    /// autoencoder layer sizes used in this reproduction.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                let o_row = out.row_mut(i);
                for (j, &b_kj) in b_row.iter().enumerate() {
                    o_row[j] += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Per-column minimum and maximum, ignoring non-finite entries.
    ///
    /// Columns without a single finite value report `(0.0, 0.0)`.
    pub fn column_min_max(&self) -> (Vec<f64>, Vec<f64>) {
        let mut mins = vec![f64::INFINITY; self.cols];
        let mut maxs = vec![f64::NEG_INFINITY; self.cols];
        for row in self.rows_iter() {
            for (c, &v) in row.iter().enumerate() {
                if v.is_finite() {
                    if v < mins[c] {
                        mins[c] = v;
                    }
                    if v > maxs[c] {
                        maxs[c] = v;
                    }
                }
            }
        }
        for c in 0..self.cols {
            if !mins[c].is_finite() {
                mins[c] = 0.0;
                maxs[c] = 0.0;
            }
        }
        (mins, maxs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

/// Dot product of two equally sized slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Chunked accumulation lets LLVM vectorise without `-ffast-math`.
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let o = i * 4;
        acc[0] += a[o] * b[o];
        acc[1] += a[o + 1] * b[o + 1];
        acc[2] += a[o + 2] * b[o + 2];
        acc[3] += a[o + 3] * b[o + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn select_rows_allows_duplicates() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 2, 0]);
        assert_eq!(s.column(0), vec![3.0, 3.0, 1.0]);
    }

    #[test]
    fn select_cols_reorders() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let s = m.select_cols(&[2, 0]);
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert_eq!(s.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = a.vstack(&b);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn push_row_grows_and_sets_cols() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn column_min_max_ignores_nan() {
        let m = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![3.0, f64::NAN]]);
        let (mins, maxs) = m.column_min_max();
        assert_eq!(mins, vec![1.0, 0.0]);
        assert_eq!(maxs, vec![3.0, 0.0]);
    }

    #[test]
    fn dot_handles_remainders() {
        let a: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let b = vec![2.0; 11];
        assert_eq!(dot(&a, &b), 2.0 * (0..11).sum::<i32>() as f64);
    }
}
