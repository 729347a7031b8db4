//! Naive reference kernels the blocked/slice implementations are gated
//! against.
//!
//! These are the seed's textbook loops, kept verbatim as the test oracle
//! for [`Matrix::mul_matrix`] and [`LuDecomposition`](crate::LuDecomposition):
//! the proptests in this crate compare the optimized kernels against them.
//! Only tests should call them. The contract is **bitwise** equality: the
//! optimized kernels reorder memory traffic, never arithmetic.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Textbook i-k-j matrix product with the same zero-skip as
/// [`Matrix::mul_matrix`], unblocked.
pub fn mul_matrix_naive(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "mul_matrix_naive",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a[(i, k)];
            if aik == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += aik * b[(k, j)];
            }
        }
    }
    Ok(out)
}

/// Textbook right-looking LU with partial pivoting via per-element indexed
/// accesses — the seed implementation of [`crate::LuDecomposition::new`].
///
/// Returns the packed factors, the row permutation, and the permutation
/// sign, so callers can compare every output of the optimized path.
pub fn lu_factor_naive(a: &Matrix) -> Result<(Matrix, Vec<usize>, f64)> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite);
    }
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut perm_sign = 1.0_f64;
    let scale = lu.max_abs().max(1.0);
    let tol = crate::lu::SINGULARITY_TOLERANCE * scale;
    for k in 0..n {
        let mut pivot_row = k;
        let mut pivot_val = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val < tol {
            return Err(LinalgError::Singular { pivot: k });
        }
        if pivot_row != k {
            for j in 0..n {
                let upper = lu[(k, j)];
                lu[(k, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = upper;
            }
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let factor = lu[(i, k)] / pivot;
            lu[(i, k)] = factor;
            for j in (k + 1)..n {
                let upd = lu[(k, j)];
                lu[(i, j)] -= factor * upd;
            }
        }
    }
    Ok((lu, perm, perm_sign))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_product_matches_known_values() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let p = mul_matrix_naive(&m, &m).unwrap();
        assert_eq!(p[(0, 0)], 7.0);
        assert_eq!(p[(1, 1)], 22.0);
        assert!(mul_matrix_naive(&m, &Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn naive_lu_validates_like_the_fast_path() {
        assert!(lu_factor_naive(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            lu_factor_naive(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
        let mut bad = Matrix::identity(2);
        bad[(0, 1)] = f64::NAN;
        assert!(matches!(lu_factor_naive(&bad), Err(LinalgError::NonFinite)));
        let singular = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(
            lu_factor_naive(&singular),
            Err(LinalgError::Singular { .. })
        ));
    }
}
