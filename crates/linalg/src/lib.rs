//! # optrr-linalg
//!
//! Dense linear-algebra substrate for the OptRR reproduction (Huang & Du,
//! *OptRR: Optimizing Randomized Response Schemes for Privacy-Preserving
//! Data Mining*, ICDE 2008).
//!
//! Randomized-response distribution reconstruction (Theorem 1 of the paper)
//! and the closed-form utility metric (Theorem 6) both require the inverse
//! of the disguise matrix `M`. RR matrices are small, dense and square, so
//! this crate provides exactly what that workload needs and nothing more:
//!
//! * [`Vector`] — an owned dense `f64` vector with simplex projection.
//! * [`Matrix`] — an owned dense row-major `f64` matrix with the structural
//!   predicates RR matrices care about (column stochasticity, symmetry,
//!   diagonal dominance).
//! * [`LuDecomposition`] — LU factorization with partial pivoting, and
//!   the [`invert`] wrapper. Factor and inverse can also write into
//!   caller-owned buffers, the inverse lane-blocked ([`LANES`]).
//!
//! The crate is `#![forbid(unsafe_code)]` and has no dependencies beyond
//! `serde` (for experiment serialization).
//!
//! ## Example
//!
//! ```
//! use linalg::{Matrix, Vector, invert};
//!
//! // A 3-category Warner RR matrix with p = 0.8.
//! let m = Matrix::from_rows(&[
//!     vec![0.8, 0.1, 0.1],
//!     vec![0.1, 0.8, 0.1],
//!     vec![0.1, 0.1, 0.8],
//! ]).unwrap();
//! assert!(m.is_column_stochastic(1e-12));
//!
//! // Reconstruct an original distribution from a disguised one (Theorem 1).
//! let p_star = Vector::from_vec(vec![0.40, 0.33, 0.27]);
//! let p_hat = invert(&m).unwrap().mul_vector(&p_star).unwrap();
//! assert!((p_hat.sum() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod lu;
pub mod matrix;
#[cfg(test)]
mod reference;
pub mod vector;

pub use error::{LinalgError, Result};
pub use lu::{invert, lane_block, padded_width, LuDecomposition, LANES};
pub use matrix::Matrix;
pub use vector::{project_to_simplex_in_place, Vector};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy producing random column-stochastic matrices of size 2..=8
    /// with diagonal emphasis (so they are almost always invertible).
    fn column_stochastic_matrix() -> impl Strategy<Value = Matrix> {
        (2usize..=8).prop_flat_map(|n| {
            proptest::collection::vec(0.05f64..1.0, n * n).prop_map(move |raw| {
                let mut m = Matrix::zeros(n, n);
                for j in 0..n {
                    let mut col: Vec<f64> = (0..n).map(|i| raw[j * n + i]).collect();
                    // Emphasize the diagonal to keep the matrix invertible.
                    col[j] += n as f64;
                    let s: f64 = col.iter().sum();
                    for i in 0..n {
                        m[(i, j)] = col[i] / s;
                    }
                }
                m
            })
        })
    }

    /// `A B`, one column of `B` at a time.
    fn product(a: &Matrix, b: &Matrix) -> Matrix {
        let columns: Vec<Vector> = (0..b.cols())
            .map(|j| a.mul_vector(&b.column(j).unwrap()).unwrap())
            .collect();
        Matrix::from_columns(&columns).unwrap()
    }

    fn probability_vector() -> impl Strategy<Value = Vector> {
        (2usize..=8).prop_flat_map(|n| {
            proptest::collection::vec(0.01f64..1.0, n).prop_map(|raw| {
                let s: f64 = raw.iter().sum();
                Vector::from_vec(raw.into_iter().map(|x| x / s).collect())
            })
        })
    }

    proptest! {
        #[test]
        fn generated_matrices_are_column_stochastic(m in column_stochastic_matrix()) {
            prop_assert!(m.is_column_stochastic(1e-9));
        }

        #[test]
        fn inverse_round_trip(m in column_stochastic_matrix()) {
            let inv = invert(&m).unwrap();
            let prod = product(&m, &inv);
            prop_assert!(prod.approx_eq(&Matrix::identity(m.rows()), 1e-7));
        }

        #[test]
        fn solve_matches_inverse_multiplication(
            m in column_stochastic_matrix(),
            seed in 0u64..1000
        ) {
            let n = m.rows();
            // Deterministic pseudo-random right-hand side from the seed.
            let b = Vector::from_vec(
                (0..n).map(|i| ((seed as f64 + 1.0) * (i as f64 + 1.0)).sin().abs() + 0.1).collect(),
            );
            let x1 = LuDecomposition::new(&m).unwrap().solve(&b).unwrap();
            let x2 = invert(&m).unwrap().mul_vector(&b).unwrap();
            prop_assert!(x1.iter().zip(x2.iter()).all(|(a, b)| (a - b).abs() <= 1e-7));
        }

        #[test]
        fn determinant_of_product_is_product_of_determinants(
            a in column_stochastic_matrix(),
        ) {
            // Use a and its transpose (same size by construction).
            let b = a.transpose();
            let ab = product(&a, &b);
            let det = |m: &Matrix| LuDecomposition::new(m).unwrap().determinant();
            let lhs = det(&ab);
            let rhs = det(&a) * det(&b);
            prop_assert!((lhs - rhs).abs() <= 1e-8 * lhs.abs().max(1.0));
        }

        #[test]
        fn column_stochastic_times_probability_is_probability(
            m in column_stochastic_matrix(),
            p in probability_vector()
        ) {
            // Only meaningful when dimensions agree; resize p by truncation/renormalization.
            let n = m.rows();
            let mut vals: Vec<f64> = p.as_slice().iter().copied().cycle().take(n).collect();
            let s: f64 = vals.iter().sum();
            for v in &mut vals { *v /= s; }
            let p = Vector::from_vec(vals);
            let q = m.mul_vector(&p).unwrap();
            prop_assert!(q.iter().all(|&x| x >= -1e-9));
            prop_assert!((q.sum() - 1.0).abs() <= 1e-9);
        }

        #[test]
        fn simplex_projection_is_idempotent(p in probability_vector()) {
            let proj = p.project_to_simplex();
            let again = proj.project_to_simplex();
            prop_assert!(proj.iter().zip(again.iter()).all(|(a, b)| (a - b).abs() <= 1e-12));
            prop_assert!(proj.iter().all(|&x| x >= 0.0));
            prop_assert!((proj.sum() - 1.0).abs() <= 1e-9);
        }

        /// The slice-based LU is gated on bitwise equality with the naive
        /// indexed elimination: same packed factors, same permutation, same
        /// sign — on well-conditioned (diagonally emphasized) matrices.
        #[test]
        fn slice_lu_is_bitwise_equal_to_naive(m in column_stochastic_matrix()) {
            let fast = LuDecomposition::new(&m).unwrap();
            let (lu, perm, sign) = reference::lu_factor_naive(&m).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(fast.packed()), bits(&lu));
            prop_assert_eq!(fast.permutation(), &perm[..]);
            // Same permutation sign: the determinants carry it.
            let naive_det: f64 = sign * (0..m.rows()).map(|i| lu[(i, i)]).product::<f64>();
            prop_assert_eq!(fast.determinant().to_bits(), naive_det.to_bits());
        }

        /// `solve_matrix`'s scratch-reusing path must match per-column
        /// `solve` bitwise (identical arithmetic, no per-column allocation).
        #[test]
        fn solve_matrix_is_bitwise_equal_to_columnwise_solve(
            m in column_stochastic_matrix(),
            seed in 0u64..1000,
        ) {
            let n = m.rows();
            let mut b = Matrix::zeros(n, 3);
            for i in 0..n {
                for j in 0..3 {
                    b[(i, j)] = ((seed as f64 + 1.0) * ((i * 3 + j) as f64 + 1.0)).sin();
                }
            }
            let lu = LuDecomposition::new(&m).unwrap();
            let x = lu.solve_matrix(&b).unwrap();
            for j in 0..3 {
                let col = lu.solve(&b.column(j).unwrap()).unwrap();
                for i in 0..n {
                    prop_assert_eq!(x[(i, j)].to_bits(), col[i].to_bits());
                }
            }
        }


    }
}
