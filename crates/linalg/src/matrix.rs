//! Dense row-major matrix type.
//!
//! Randomized-response matrices are small (`n x n` for an attribute with `n`
//! categories, typically `n <= 50`), so a simple contiguous row-major layout
//! with no blocking is both adequate and cache-friendly. The type carries the
//! handful of structural predicates the OptRR pipeline relies on (column
//! stochasticity, symmetry, diagonal dominance) alongside ordinary
//! arithmetic.

use crate::error::{LinalgError, Result};
use crate::vector::Vector;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from nested rows. All rows must share one length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a list of column vectors.
    pub fn from_columns(columns: &[Vector]) -> Result<Self> {
        if columns.is_empty() {
            return Err(LinalgError::Empty);
        }
        let rows = columns[0].len();
        if rows == 0 {
            return Err(LinalgError::Empty);
        }
        let cols = columns.len();
        let mut m = Self::zeros(rows, cols);
        for (j, col) in columns.iter().enumerate() {
            if col.len() != rows {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_columns",
                    lhs: (rows, cols),
                    rhs: (col.len(), 1),
                });
            }
            for i in 0..rows {
                m[(i, j)] = col[i];
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// (rows, cols) pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the row-major backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the row-major backing buffer — used by the blocked
    /// kernels in this crate and by callers that fill matrices in place.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Makes `self` a copy of `other`, reusing `self`'s allocation.
    pub(crate) fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clone_from(&other.data);
    }

    /// Returns row `i` as a `Vector`.
    pub fn row(&self, i: usize) -> Result<Vector> {
        if i >= self.rows {
            return Err(LinalgError::IndexOutOfBounds {
                index: i,
                extent: self.rows,
            });
        }
        Ok(Vector::from_vec(
            self.data[i * self.cols..(i + 1) * self.cols].to_vec(),
        ))
    }

    /// Returns column `j` as a `Vector`.
    pub fn column(&self, j: usize) -> Result<Vector> {
        if j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: j,
                extent: self.cols,
            });
        }
        Ok(Vector::from_vec(
            (0..self.rows)
                .map(|i| self.data[i * self.cols + j])
                .collect(),
        ))
    }

    /// Overwrites column `j` with the supplied vector.
    pub fn set_column(&mut self, j: usize, col: &Vector) -> Result<()> {
        if j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: j,
                extent: self.cols,
            });
        }
        if col.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "set_column",
                lhs: (self.rows, self.cols),
                rhs: (col.len(), 1),
            });
        }
        for i in 0..self.rows {
            self.data[i * self.cols + j] = col[i];
        }
        Ok(())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix-vector product `A x`, through
    /// [`mul_vector_into`](Self::mul_vector_into).
    pub fn mul_vector(&self, x: &Vector) -> Result<Vector> {
        let mut out = Vector::zeros(self.rows);
        self.mul_vector_into(x.as_slice(), out.as_mut_slice())?;
        Ok(out)
    }

    /// Writes `A x` into `out` without allocating: entry `i` is row `i`'s
    /// dot product with `x`, summed in ascending column order. Panics
    /// when `out` does not have one entry per row.
    pub fn mul_vector_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        assert_eq!(out.len(), self.rows, "mul_vector_into: output length");
        if self.cols != x.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vector",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (&a, &xj) in row.iter().zip(x) {
                acc += a * xj;
            }
            *o = acc;
        }
        Ok(())
    }

    /// Element-wise addition.
    pub fn add_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if self.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(b.data.iter())
            .map(|(x, y)| x + y)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise subtraction.
    pub fn sub_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if self.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(b.data.iter())
            .map(|(x, y)| x - y)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// True when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// True when `self` and `other` agree element-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// True when every column sums to one (within `tol`) and all entries are
    /// non-negative. This is the structural constraint on an RR matrix `M`
    /// (each column is the randomization distribution of one original
    /// category).
    pub fn is_column_stochastic(&self, tol: f64) -> bool {
        if !self.is_square() || self.rows == 0 {
            return false;
        }
        if self.data.iter().any(|&x| x < -tol || !x.is_finite()) {
            return false;
        }
        (0..self.cols).all(|j| {
            let s: f64 = (0..self.rows).map(|i| self.data[i * self.cols + j]).sum();
            (s - 1.0).abs() <= tol
        })
    }

    /// True when the matrix equals its transpose within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.data[i * self.cols + j] - self.data[j * self.cols + i]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// True when every diagonal entry is at least as large as every other
    /// entry in its column. Classical RR schemes (Warner, UP, FRAPP with
    /// `λ ≥ 1`) are diagonally dominant in this sense.
    pub fn is_column_diagonally_dominant(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        for j in 0..self.cols {
            let diag = self.data[j * self.cols + j];
            for i in 0..self.rows {
                if i != j && self.data[i * self.cols + j] > diag {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self.data[i * self.cols + j])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn constructors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(!z.is_square());

        let id = Matrix::identity(3);
        assert!(id.is_square());
        assert_eq!(id[(0, 0)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);

        let f = Matrix::filled(2, 2, 0.5);
        assert!(f.is_column_stochastic(1e-12));
    }

    #[test]
    fn from_rows_validates() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![]]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_columns_round_trip() {
        let cols = vec![
            Vector::from_vec(vec![1.0, 3.0]),
            Vector::from_vec(vec![2.0, 4.0]),
        ];
        let m = Matrix::from_columns(&cols).unwrap();
        assert_eq!(m, sample());
        assert!(Matrix::from_columns(&[]).is_err());
        assert!(Matrix::from_columns(&[Vector::zeros(0)]).is_err());
        let bad = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(Matrix::from_columns(&bad).is_err());
    }

    #[test]
    fn rows_and_columns() {
        let m = sample();
        assert_eq!(m.row(0).unwrap().as_slice(), &[1.0, 2.0]);
        assert_eq!(m.column(1).unwrap().as_slice(), &[2.0, 4.0]);
        assert!(m.row(3).is_err());
        assert!(m.column(3).is_err());
    }

    #[test]
    fn set_column() {
        let mut m = sample();
        m.set_column(0, &Vector::from_vec(vec![7.0, 8.0])).unwrap();
        assert_eq!(m.column(0).unwrap().as_slice(), &[7.0, 8.0]);
        assert!(m.set_column(5, &Vector::zeros(2)).is_err());
        assert!(m.set_column(0, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_and_matmul() {
        let m = sample();
        let x = Vector::from_vec(vec![1.0, 1.0]);
        assert_eq!(m.mul_vector(&x).unwrap().as_slice(), &[3.0, 7.0]);
        assert!(m.mul_vector(&Vector::zeros(3)).is_err());

        // A product, one column of the right factor at a time.
        let product = |a: &Matrix, b: &Matrix| {
            let columns: Vec<Vector> = (0..b.cols())
                .map(|j| a.mul_vector(&b.column(j).unwrap()).unwrap())
                .collect();
            Matrix::from_columns(&columns).unwrap()
        };
        let id = Matrix::identity(2);
        assert_eq!(product(&m, &id), m);
        assert_eq!(product(&id, &m), m);
        let prod = product(&m, &m);
        assert_eq!(prod[(0, 0)], 7.0);
        assert_eq!(prod[(0, 1)], 10.0);
        assert_eq!(prod[(1, 0)], 15.0);
        assert_eq!(prod[(1, 1)], 22.0);
    }

    #[test]
    fn add_sub_validation() {
        let m = sample();
        assert!(m.add_matrix(&Matrix::zeros(3, 3)).is_err());
        assert!(m.sub_matrix(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn norms_and_scaling() {
        let m = sample();
        assert_eq!(m.max_abs(), 4.0);
        let s = m.scaled(2.0);
        assert_eq!(s[(1, 1)], 8.0);
    }

    #[test]
    fn stochasticity_checks() {
        let warner = Matrix::from_rows(&[
            vec![0.8, 0.1, 0.1],
            vec![0.1, 0.8, 0.1],
            vec![0.1, 0.1, 0.8],
        ])
        .unwrap();
        assert!(warner.is_column_stochastic(1e-12));
        assert!(warner.is_symmetric(1e-12));
        assert!(warner.is_column_diagonally_dominant());

        let not_stochastic = Matrix::from_rows(&[vec![0.5, 0.0], vec![0.4, 1.0]]).unwrap();
        assert!(!not_stochastic.is_column_stochastic(1e-9));

        let negative = Matrix::from_rows(&[vec![1.1, 0.0], vec![-0.1, 1.0]]).unwrap();
        assert!(!negative.is_column_stochastic(1e-9));

        let rect = Matrix::zeros(2, 3);
        assert!(!rect.is_column_stochastic(1e-9));
        assert!(!rect.is_symmetric(1e-9));
        assert!(!rect.is_column_diagonally_dominant());

        let asym = Matrix::from_rows(&[vec![0.9, 0.3], vec![0.1, 0.7]]).unwrap();
        assert!(asym.is_column_stochastic(1e-12));
        assert!(!asym.is_symmetric(1e-9));

        let off_dominant = Matrix::from_rows(&[vec![0.2, 0.5], vec![0.8, 0.5]]).unwrap();
        assert!(!off_dominant.is_column_diagonally_dominant());
    }

    #[test]
    fn finite_and_display() {
        let m = sample();
        assert!(m.is_finite());
        let mut bad = m.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
        let rendered = format!("{m}");
        assert!(rendered.contains("1.000000"));
        assert!(rendered.contains("4.000000"));
    }
}
