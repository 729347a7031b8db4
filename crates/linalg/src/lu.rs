//! LU decomposition with partial pivoting, and the solvers / inversion /
//! determinant routines built on top of it.
//!
//! The randomized-response estimation of Theorem 1 requires `M⁻¹`, and the
//! closed-form utility of Theorem 6 requires individual entries `β_{g,h}` of
//! `M⁻¹`. RR matrices are small (n ≤ a few dozen), so an `O(n³)` dense LU
//! with partial pivoting is more than sufficient and numerically robust for
//! the column-stochastic matrices the evolutionary search produces.
//!
//! The optimizer factors and inverts one matrix per evaluation, so both
//! steps can write into caller-owned buffers: [`LuDecomposition::factor`]
//! refactors in place, and [`LuDecomposition::inverse_into`] substitutes
//! into a buffer whose rows are padded to whole blocks of [`LANES`]
//! columns ([`padded_width`]). Each block of a row accumulates in a
//! `[f64; LANES]` array the compiler keeps in registers, instead of going
//! through memory on every subtracted term. Every column still sees
//! exactly the operations, in the order, of a column-by-column forward
//! and back substitution, so the bits cannot move: only the interleaving
//! across independent columns changes. The allocating [`invert`] and
//! [`LuDecomposition::inverse`] are thin wrappers over the same kernel.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vector::Vector;

/// Pivot magnitude below which a matrix is treated as singular.
pub const SINGULARITY_TOLERANCE: f64 = 1e-12;

/// Lane width of the blocked kernels: how many independent columns (or,
/// in Theorem 6, categories) one register-held accumulator array carries.
pub const LANES: usize = 8;

/// `n` rounded up to a whole number of [`LANES`]-wide blocks: the row
/// stride of a lane-padded buffer.
pub fn padded_width(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

/// The `LANES`-wide block of `buf` that starts at `at`.
pub fn lane_block(buf: &[f64], at: usize) -> &[f64; LANES] {
    buf[at..at + LANES].try_into().expect("LANES-long slice")
}

/// An LU decomposition `P A = L U` of a square matrix `A`, with partial
/// (row) pivoting.
///
/// `L` is unit lower triangular and `U` upper triangular; both are packed
/// into a single matrix (`L` strictly below the diagonal, `U` on and above).
///
/// The default value is the factorization of the empty matrix, a buffer
/// for [`factor`](Self::factor) to fill.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Packed LU factors.
    lu: Matrix,
    /// Row permutation: row `i` of `U` came from row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0); used for the determinant.
    perm_sign: f64,
}

impl Default for LuDecomposition {
    fn default() -> Self {
        Self {
            lu: Matrix::zeros(0, 0),
            perm: Vec::new(),
            perm_sign: 1.0,
        }
    }
}

impl LuDecomposition {
    /// Factorizes `a` with partial pivoting.
    ///
    /// Returns [`LinalgError::Singular`] when a pivot smaller than
    /// [`SINGULARITY_TOLERANCE`] (relative to the matrix scale) is
    /// encountered, and [`LinalgError::NotSquare`] / [`LinalgError::Empty`] /
    /// [`LinalgError::NonFinite`] for malformed input.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut lu = Self::default();
        lu.factor(a)?;
        Ok(lu)
    }

    /// Factorizes `a` into this decomposition's buffers, reusing their
    /// allocations, with the checks and errors of [`new`](Self::new). After
    /// an error the factors are unspecified until the next successful call.
    pub fn factor(&mut self, a: &Matrix) -> Result<()> {
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

        self.lu.copy_from(a);
        self.perm.clear();
        self.perm.extend(0..n);
        self.perm_sign = 1.0;
        // Scale-aware singularity threshold.
        let scale = self.lu.max_abs().max(1.0);
        let tol = SINGULARITY_TOLERANCE * scale;

        // The elimination runs on the raw row-major buffer: `k` stays the
        // outermost loop (the same elimination order as the textbook
        // reference in `crate::reference::lu_factor_naive`, so the factors
        // are bitwise equal), but each trailing-row update is a contiguous
        // slice AXPY `row_i[k+1..] -= factor * row_k[k+1..]` the compiler
        // can vectorize, instead of per-element checked indexing.
        let data = self.lu.as_mut_slice();
        for k in 0..n {
            // Find the pivot row: the largest |entry| in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = data[k * n + k].abs();
            // Selects rather than branches: which row wins is data-dependent
            // and mispredicts often. Ties keep the first row.
            for i in (k + 1)..n {
                let v = data[i * n + k].abs();
                let better = v > pivot_val;
                pivot_val = if better { v } else { pivot_val };
                pivot_row = if better { i } else { pivot_row };
            }
            if pivot_val < tol {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                let (upper, lower) = data.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                self.perm.swap(k, pivot_row);
                self.perm_sign = -self.perm_sign;
            }
            // Split the buffer at the end of row k: `head` ends with the
            // pivot row, `tail` holds the rows to eliminate.
            let (head, tail) = data.split_at_mut((k + 1) * n);
            let row_k = &head[k * n..];
            let pivot = row_k[k];
            for row_i in tail.chunks_exact_mut(n) {
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                for (x, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *x -= factor * u;
                }
            }
        }
        Ok(())
    }

    /// Borrow the packed factors (`L` strictly below the diagonal, `U` on
    /// and above) — exposed so tests and benches can compare against the
    /// naive reference factorization bitwise.
    pub fn packed(&self) -> &Matrix {
        &self.lu
    }

    /// Borrow the row permutation.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let n = self.dim();
        let mut det = self.perm_sign;
        for i in 0..n {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Solves `A x = b` using the stored factorization.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation: y = P b.
        let mut x = Vector::zeros(n);
        for i in 0..n {
            x[i] = b[self.perm[i]];
        }
        self.solve_in_place(x.as_mut_slice());
        Ok(x)
    }

    /// Forward/back substitution on a permuted right-hand side held in `x`.
    /// The dot products walk contiguous row slices of the packed factors.
    fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        let lu = self.lu.as_slice();
        // Forward substitution with unit lower-triangular L.
        for i in 1..n {
            let row = &lu[i * n..i * n + i];
            let mut acc = x[i];
            for (l, &xj) in row.iter().zip(x.iter()) {
                acc -= l * xj;
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = &lu[i * n..(i + 1) * n];
            let mut acc = x[i];
            for (u, &xj) in row[i + 1..].iter().zip(x[i + 1..].iter()) {
                acc -= u * xj;
            }
            x[i] = acc / row[i];
        }
    }

    /// Solves `A X = B` column by column, reusing one scratch column across
    /// all right-hand sides instead of allocating per column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let cols = b.cols();
        let mut out = Matrix::zeros(n, cols);
        let mut scratch = vec![0.0f64; n];
        for j in 0..cols {
            for (i, s) in scratch.iter_mut().enumerate() {
                *s = b[(self.perm[i], j)];
            }
            self.solve_in_place(&mut scratch);
            for (i, &s) in scratch.iter().enumerate() {
                out[(i, j)] = s;
            }
        }
        Ok(out)
    }

    /// Computes `A⁻¹`, through [`inverse_into`](Self::inverse_into).
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let stride = padded_width(n);
        let mut padded = vec![0.0; n * stride];
        self.inverse_into(&mut padded);
        let mut out = Matrix::zeros(n, n);
        for (row, padded_row) in out
            .as_mut_slice()
            .chunks_exact_mut(n)
            .zip(padded.chunks_exact(stride))
        {
            row.copy_from_slice(&padded_row[..n]);
        }
        Ok(out)
    }

    /// Writes `A⁻¹` into `out`: `n` rows of [`padded_width`]`(n)` entries,
    /// the columns past `n` left zero. Panics when `out` has another length.
    ///
    /// The permuted identity is substituted one [`LANES`]-wide block of
    /// columns at a time. Row `i` of a block accumulates in a register
    /// array: it starts from `P e_j`, subtracts `l_ik · x_k` for ascending
    /// `k < i`, and is stored; then, from the last row up, it subtracts
    /// `u_ik · x_k` for ascending `k > i` and is divided by `u_ii`. Those
    /// are exactly the operations `solve_in_place` applies to column `j`,
    /// in the same order, and columns never read each other, so every
    /// entry is bit-identical to `solve_matrix(&Matrix::identity(n))`.
    pub fn inverse_into(&self, out: &mut [f64]) {
        let n = self.dim();
        let stride = padded_width(n);
        assert_eq!(out.len(), n * stride, "inverse_into: buffer length");
        let lu = self.lu.as_slice();
        for block in (0..stride).step_by(LANES) {
            // Forward substitution with unit lower-triangular L.
            for (i, &p) in self.perm.iter().enumerate() {
                let mut acc = [0.0; LANES];
                if (block..block + LANES).contains(&p) {
                    acc[p - block] = 1.0;
                }
                for (k, &l) in lu[i * n..i * n + i].iter().enumerate() {
                    let x_k = lane_block(out, k * stride + block);
                    for (a, &x) in acc.iter_mut().zip(x_k) {
                        *a -= l * x;
                    }
                }
                out[i * stride + block..][..LANES].copy_from_slice(&acc);
            }
            // Back substitution with U.
            for i in (0..n).rev() {
                let mut acc = *lane_block(out, i * stride + block);
                let u_row = &lu[i * n..(i + 1) * n];
                for (k, &u) in u_row.iter().enumerate().skip(i + 1) {
                    let x_k = lane_block(out, k * stride + block);
                    for (a, &x) in acc.iter_mut().zip(x_k) {
                        *a -= u * x;
                    }
                }
                let pivot = u_row[i];
                for a in &mut acc {
                    *a /= pivot;
                }
                out[i * stride + block..][..LANES].copy_from_slice(&acc);
            }
        }
    }
}

/// Convenience function: inverts a square matrix, returning an error when it
/// is singular or malformed.
pub fn invert(a: &Matrix) -> Result<Matrix> {
    LuDecomposition::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warner(n: usize, p: f64) -> Matrix {
        let off = (1.0 - p) / (n as f64 - 1.0);
        let mut m = Matrix::filled(n, n, off);
        for i in 0..n {
            m[(i, i)] = p;
        }
        m
    }

    fn det(m: &Matrix) -> f64 {
        LuDecomposition::new(m).unwrap().determinant()
    }

    fn close(a: &Vector, b: &Vector, tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn identity_inverse_is_identity() {
        let id = Matrix::identity(5);
        let inv = invert(&id).unwrap();
        assert!(inv.approx_eq(&id, 1e-12));
        assert!((det(&id) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_inverse() {
        let m = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]).unwrap();
        let inv = invert(&m).unwrap();
        let expected = Matrix::from_rows(&[vec![0.6, -0.7], vec![-0.2, 0.4]]).unwrap();
        assert!(inv.approx_eq(&expected, 1e-12));
        assert!((det(&m) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let m = warner(6, 0.7);
        let inv = invert(&m).unwrap();
        // Column j of both products is e_j.
        for (a, b) in [(&m, &inv), (&inv, &m)] {
            for j in 0..6 {
                let column = a.mul_vector(&b.column(j).unwrap()).unwrap();
                for (i, &x) in column.iter().enumerate() {
                    let expected = if i == j { 1.0 } else { 0.0 };
                    assert!((x - expected).abs() <= 1e-10, "({i}, {j}): {x}");
                }
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let m = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ])
        .unwrap();
        let b = Vector::from_vec(vec![8.0, -11.0, -3.0]);
        let x = LuDecomposition::new(&m).unwrap().solve(&b).unwrap();
        let expected = Vector::from_vec(vec![2.0, 3.0, -1.0]);
        assert!(close(&x, &expected, 1e-10));
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let m = warner(4, 0.6);
        let lu = LuDecomposition::new(&m).unwrap();
        let b = Matrix::from_rows(&[
            vec![1.0, 0.5],
            vec![0.0, 0.2],
            vec![0.0, 0.2],
            vec![0.0, 0.1],
        ])
        .unwrap();
        let x = lu.solve_matrix(&b).unwrap();
        for j in 0..2 {
            let col = lu.solve(&b.column(j).unwrap()).unwrap();
            assert!(close(&x.column(j).unwrap(), &col, 1e-12));
        }
        assert!(lu.solve_matrix(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&m),
            Err(LinalgError::Singular { .. })
        ));
        assert!(invert(&m).is_err());
    }

    #[test]
    fn uniform_rr_matrix_is_singular() {
        // The "perfect privacy" matrix M2 from the paper (all entries 1/n)
        // destroys all information and is not invertible.
        let m = Matrix::filled(3, 3, 1.0 / 3.0);
        assert!(invert(&m).is_err());
    }

    #[test]
    fn non_square_and_empty_rejected() {
        assert!(LuDecomposition::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            LuDecomposition::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut m = Matrix::identity(2);
        m[(0, 1)] = f64::NAN;
        assert!(matches!(
            LuDecomposition::new(&m),
            Err(LinalgError::NonFinite)
        ));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let inv = invert(&m).unwrap();
        assert!(inv.approx_eq(&m, 1e-12));
        assert!((det(&m) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_tracks_permutations() {
        let m = Matrix::from_rows(&[
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap();
        // Even permutation: determinant +1.
        assert!((det(&m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let m = Matrix::identity(3);
        let lu = LuDecomposition::new(&m).unwrap();
        assert!(lu.solve(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn warner_inverse_entries_match_closed_form() {
        // For the Warner matrix p on the diagonal and q=(1-p)/(n-1) elsewhere,
        // the inverse has diagonal (p + (n-2) q) / ((p - q)(p + (n-1) q)) and
        // off-diagonal -q / ((p - q)(p + (n-1) q)).
        let n = 5;
        let p = 0.7;
        let q = (1.0 - p) / (n as f64 - 1.0);
        let denom = (p - q) * (p + (n as f64 - 1.0) * q);
        let diag = (p + (n as f64 - 2.0) * q) / denom;
        let off = -q / denom;
        let inv = invert(&warner(n, p)).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expected = if i == j { diag } else { off };
                assert!(
                    (inv[(i, j)] - expected).abs() < 1e-10,
                    "entry ({i},{j}) = {} expected {expected}",
                    inv[(i, j)]
                );
            }
        }
    }

    #[test]
    fn dim_accessor() {
        let lu = LuDecomposition::new(&Matrix::identity(7)).unwrap();
        assert_eq!(lu.dim(), 7);
    }

    use proptest::prelude::*;

    /// Square matrices of order 2..=33 (every lane remainder, up to four
    /// blocks): general ones with entries in [-1, 1), column-stochastic
    /// ones shaped like RR matrices, singular ones (a repeated row) and
    /// non-finite ones.
    fn square_matrix() -> impl Strategy<Value = Matrix> {
        (2usize..=33).prop_flat_map(|n| {
            (proptest::collection::vec(-1.0f64..1.0, n * n), 0u8..4).prop_map(move |(raw, kind)| {
                let mut m = Matrix::zeros(n, n);
                m.as_mut_slice().copy_from_slice(&raw);
                if kind == 1 {
                    for j in 0..n {
                        let s: f64 = (0..n).map(|i| m[(i, j)].abs()).sum();
                        for i in 0..n {
                            m[(i, j)] = m[(i, j)].abs() / s;
                        }
                    }
                }
                if kind == 2 {
                    for j in 0..n {
                        m[(n - 1, j)] = m[(0, j)];
                    }
                }
                if kind == 3 {
                    m[(n / 2, n - 1)] = f64::NAN;
                }
                m
            })
        })
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn blocked_inverse_is_bitwise_columnwise_solve(m in square_matrix()) {
            let Ok(lu) = LuDecomposition::new(&m) else {
                return Ok(());
            };
            let n = m.rows();
            let oracle = lu.solve_matrix(&Matrix::identity(n)).unwrap();
            let inv = lu.inverse().unwrap();
            prop_assert_eq!(bits(inv.as_slice()), bits(oracle.as_slice()));
            // The padded buffer holds the same rows and zero padding.
            let stride = padded_width(n);
            let mut padded = vec![f64::NAN; n * stride];
            lu.inverse_into(&mut padded);
            for (row, oracle_row) in padded.chunks_exact(stride).zip(oracle.as_slice().chunks_exact(n)) {
                prop_assert_eq!(bits(&row[..n]), bits(oracle_row));
                prop_assert!(row[n..].iter().all(|&x| x == 0.0));
            }
        }

        #[test]
        fn reused_decomposition_is_bitwise_a_fresh_one(
            matrices in proptest::collection::vec(square_matrix(), 1..6),
        ) {
            let mut reused = LuDecomposition::default();
            let mut out = Vec::new();
            for m in &matrices {
                let fresh = LuDecomposition::new(m);
                let refactored = reused.factor(m);
                let fresh = match (fresh, refactored) {
                    (Ok(fresh), Ok(())) => fresh,
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a, b);
                        continue;
                    }
                    (fresh, refactored) => {
                        return Err(format!("{fresh:?} vs {refactored:?}"));
                    }
                };
                prop_assert_eq!(bits(reused.packed().as_slice()), bits(fresh.packed().as_slice()));
                prop_assert_eq!(reused.permutation(), fresh.permutation());
                prop_assert_eq!(reused.determinant().to_bits(), fresh.determinant().to_bits());
                let n = m.rows();
                out.clear();
                out.resize(n * padded_width(n), 0.0);
                reused.inverse_into(&mut out);
                let mut expected = vec![0.0; n * padded_width(n)];
                fresh.inverse_into(&mut expected);
                prop_assert_eq!(bits(&out), bits(&expected));
            }
        }
    }
}
