//! A small dense, row-major matrix — just enough linear algebra for
//! response-surface fitting (no BLAS, no external crates).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Errors from matrix construction and solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixError {
    /// Operand shapes are incompatible.
    DimensionMismatch,
    /// The system is singular (or not SPD where required) to working
    /// precision.
    Singular,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch => write!(f, "matrix dimension mismatch"),
            MatrixError::Singular => write!(f, "matrix is singular to working precision"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from row slices. Panics if rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix { rows: r, cols: c, data: rows.iter().flatten().copied().collect() }
    }

    /// Wraps `rows × cols` elements already laid out row-major.
    pub(crate) fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "row-major data does not match the shape");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying data in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the data in row-major order.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != other.rows {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner accesses sequential in memory.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if self.cols != v.len() {
            return Err(MatrixError::DimensionMismatch);
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// `Aᵀ·A` — the Gram matrix, computed without materializing `Aᵀ`.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += a * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `Aᵀ·y` for a response vector `y`.
    pub fn t_vec(&self, y: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if self.rows != y.len() {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut out = vec![0.0; self.cols];
        for (r, &w) in y.iter().enumerate().take(self.rows) {
            let row = self.row(r);
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * w;
            }
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn transpose_works() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert_eq!(a.matmul(&b).unwrap_err(), MatrixError::DimensionMismatch);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn gram_equals_explicit_ata() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![3.0, -1.0, 2.0],
            vec![0.0, 4.0, 1.0],
            vec![2.0, 2.0, 2.0],
        ]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn t_vec_equals_explicit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let y = [1.0, 0.5, 2.0];
        let v = a.t_vec(&y).unwrap();
        assert_eq!(v, vec![1.0 + 1.5 + 10.0, 2.0 + 2.0 + 12.0]);
        assert!(a.t_vec(&[1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
